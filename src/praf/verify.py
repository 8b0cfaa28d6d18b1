"""Regression verification against the bundled reference audit.

Rebuilds every app's audit from the codebook annotations plus the reference
readability grades, through the pipeline's own scoring path
(:func:`praf.pipeline.audit_from_findings` over no detected findings), then
judges each cell and each summary target of the reference results file
against it. Two cells (A2 usability and the A2 overall that follows from it)
are carried as documented waivers: for those the rubric value is asserted
and the reference value is reported as waived rather than failed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .corpus import Codebook
from .detect import DetectionDimension as Dim, no_findings
from .errors import NUMBER, PrafError, read_json
from .pipeline import AppAudit, audit_from_findings
from .readability import SMOG_INTERCEPT, ReadabilityResult
from .report import COUNT_KEYS, CorpusSummary, summarize
from .score import ELEMENTS


@dataclass
class CellCheck:
    app: str
    fieldname: str
    computed: object
    expected: object
    status: str  # "ok" | "waived" | "fail"
    note: str = ""


@dataclass
class VerifyReport:
    cells: list[CellCheck] = field(default_factory=list)
    summary_checks: list[CellCheck] = field(default_factory=list)

    @property
    def failures(self) -> list[CellCheck]:
        return [c for c in self.cells + self.summary_checks if c.status == "fail"]

    @property
    def waived(self) -> list[CellCheck]:
        return [c for c in self.cells if c.status == "waived"]

    @property
    def passed(self) -> bool:
        return not self.failures


# The reference file: every field that verify reads. A count, mean or sd
# that summarize does not compute is an unknown field.
_REFERENCE_SHAPE = {
    "apps": [{"pseudonym": str, "smog": (*NUMBER, None), "level": (str, None),
              "scores": {e.field: int for e in ELEMENTS}}],
    "waivers?": [{"pseudonym": str, "field": {e.field for e in ELEMENTS}, "rubric": int,
                  "note": str}],
    "summary": {
        "counts": {f"{key}?": [int, NUMBER] for key in COUNT_KEYS},
        "means": {f"{e.field}?": NUMBER for e in ELEMENTS},
        "sds": {f"{e.field}?": NUMBER for e in ELEMENTS},
        "tolerances": {"mean": NUMBER, "sd": NUMBER, "usability_sd": NUMBER},
        "smog_mean": NUMBER,
        "overall_min": {"value": int, "apps": [str]},
        "overall_max": {"value": int, "apps": [str]},
    },
}


def load_reference(path: str | Path) -> dict:
    reference = read_json(path, _REFERENCE_SHAPE, "reference results")
    for i, row in enumerate(reference["apps"]):
        if row["smog"] is not None and row["smog"] < SMOG_INTERCEPT:
            raise PrafError(f"reference results {path}: SMOG grade {row['smog']} is below the "
                            f"formula's intercept {SMOG_INTERCEPT}", f"apps[{i}].smog")
    return reference


def reference_audits(codebook: Codebook, reference: dict) -> list[AppAudit]:
    """One audit per codebook record, scored from its annotations and its
    reference SMOG grade (None for an inaccessible policy)."""
    smog = {row["pseudonym"]: row["smog"] for row in reference["apps"]}
    known = {rec.pseudonym for rec in codebook.records}
    for i, row in enumerate(reference["apps"]):
        if row["pseudonym"] not in known:
            raise PrafError(f"no codebook record for {row['pseudonym']}", f"apps[{i}].pseudonym")
    audits = []
    for rec in codebook.records:
        app = rec.pseudonym
        if app not in smog:
            raise PrafError(f"reference results missing app {app}")
        overrides = codebook.overrides_for(app)
        missing = [d.value for d in Dim if d not in overrides]
        if missing:
            raise PrafError(f"{app}: annotations missing dimensions {missing}")
        readability = None if smog[app] is None else ReadabilityResult.from_grade(smog[app])
        audits.append(audit_from_findings(rec, no_findings(), overrides, readability))
    return audits


def _check_cells(reference: dict, audits: list[AppAudit], report: VerifyReport) -> None:
    """Judge each readable app's band code, then each app's six scores, against
    its reference row; a waived score must hold its waiver's rubric value."""
    waivers = {(w["pseudonym"], w["field"]): w for w in reference.get("waivers", [])}
    audit_of = {a.record.pseudonym: a for a in audits}
    pairs = [(row, audit_of[row["pseudonym"]]) for row in reference["apps"]]
    cells = ([(row["pseudonym"], "level", audit.readability.band.code, row["level"])
              for row, audit in pairs if row["smog"] is not None]
             + [(row["pseudonym"], e.field, getattr(audit.profile, e.field),
                 row["scores"][e.field]) for row, audit in pairs for e in ELEMENTS])
    for app, name, computed, expected in cells:
        waiver = waivers.get((app, name))
        if waiver is None:
            status, note = "ok" if computed == expected else "fail", ""
        else:
            status, note = "waived" if computed == waiver["rubric"] else "fail", waiver["note"]
        report.cells.append(CellCheck(app, name, computed, expected, status, note))


def _summary_checks(targets: dict, summary: CorpusSummary) -> list[tuple]:
    """(name, computed, target, tolerance) of every summary target, in report
    order. A tolerance of None asks for an exact match, as does a computed
    None: the SMOG mean of a corpus with no readable policy."""
    tol = targets["tolerances"]
    checks = []
    for key, (count, pct) in targets["counts"].items():
        checks += [(f"count.{key}", summary.counts[key], count, None),
                   (f"pct.{key}", summary.percentages[key], pct, None)]
    checks += [(f"mean.{name}", summary.element_means[name], target, tol["mean"])
               for name, target in targets["means"].items()]
    checks += [(f"sd.{name}", summary.element_sds[name], target,
                tol["usability_sd" if name == "usability" else "sd"])
               for name, target in targets["sds"].items()]
    checks.append(("smog_mean", summary.smog_mean, targets["smog_mean"], tol["mean"]))
    for name in ("overall_min", "overall_max"):
        value, apps = getattr(summary, name)
        checks.append((name, [value, list(apps)],
                       [targets[name]["value"], targets[name]["apps"]], None))
    return checks


def run_verify(codebook: Codebook, reference: dict) -> VerifyReport:
    report = VerifyReport()
    audits = reference_audits(codebook, reference)
    _check_cells(reference, audits, report)
    for name, computed, target, tolerance in _summary_checks(reference["summary"],
                                                             summarize(audits)):
        if tolerance is None or computed is None:
            ok = computed == target
        else:  # reported to three decimals
            ok, computed = abs(computed - target) <= tolerance, round(computed, 3)
        report.summary_checks.append(CellCheck("corpus", name, computed, target,
                                               "ok" if ok else "fail"))
    return report


def render_report(report: VerifyReport) -> str:
    lines = []
    bad = [c for c in report.cells if c.status == "fail"]
    for cell in bad:
        lines.append(f"FAIL {cell.app} {cell.fieldname}: computed {cell.computed} "
                     f"!= reference {cell.expected}")
    for cell in report.waived:
        lines.append(f"WAIVED {cell.app} {cell.fieldname}: rubric {cell.computed}, "
                     f"reference {cell.expected} ({cell.note})")
    for cell in report.summary_checks:
        if cell.status == "fail":
            lines.append(f"FAIL summary {cell.fieldname}: computed {cell.computed} "
                         f"!= target {cell.expected}")
    n_cells = len(report.cells)
    n_ok = sum(1 for c in report.cells if c.status == "ok")
    lines.append(f"cells: {n_ok} ok, {len(report.waived)} waived, "
                 f"{len(bad)} failed (of {n_cells})")
    n_sum = len(report.summary_checks)
    n_sum_ok = sum(1 for c in report.summary_checks if c.status == "ok")
    lines.append(f"summary checks: {n_sum_ok}/{n_sum} ok")
    lines.append("verification: PASS" if report.passed else "verification: FAIL")
    return "\n".join(lines) + "\n"
