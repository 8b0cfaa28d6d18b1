"""Regression verification against the bundled reference audit.

Rebuilds every app's audit from the codebook annotations plus the reference
readability grades, through the pipeline's own scoring path
(:func:`praf.pipeline.audit_from_findings` over no detected findings), then
compares each cell against the reference results
file. Two cells (A2 usability and the A2 overall that follows from it) are
carried as documented waivers: for those the rubric value is asserted and the
reference value is reported as waived rather than failed. Summary statistics
are checked against their pinned targets and tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .corpus import Codebook
from .detect import DetectionDimension as Dim, no_findings
from .errors import NUMBER, PrafError, read_json
from .pipeline import AppAudit, audit_from_findings
from .readability import SMOG_INTERCEPT, ReadabilityResult, band
from .report import COUNT_KEYS, summarize
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
    "apps": [{"pseudonym": str, "accessible?": bool, "smog": (*NUMBER, None),
              "level": (str, None), "scores": {e.field: int for e in ELEMENTS}}],
    "waivers?": [{"pseudonym": str, "field": str, "reference?": int, "rubric": int,
                  "note": str}],
    "summary": {
        "counts": {f"{key}?": [int, NUMBER] for key in COUNT_KEYS},
        "means": {f"{e.field}?": NUMBER for e in ELEMENTS},
        "sds": {f"{e.field}?": NUMBER for e in ELEMENTS},
        "tolerances?": {"mean?": NUMBER, "sd?": NUMBER, "usability_sd?": NUMBER},
        "smog_mean": NUMBER,
        "overall_min": {"value": int, "apps": [str]},
        "overall_max": {"value": int, "apps": [str]},
    },
}


def load_reference(path: str | Path) -> dict:
    reference = read_json(path, _REFERENCE_SHAPE, PrafError, "reference results")
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


def _check_bands(reference: dict, report: VerifyReport) -> None:
    for row in reference["apps"]:
        if row["smog"] is None:
            continue
        computed = band(row["smog"]).code
        status = "ok" if computed == row["level"] else "fail"
        report.cells.append(CellCheck(row["pseudonym"], "level", computed, row["level"], status))


def _check_scores(reference: dict, audits: list[AppAudit], report: VerifyReport) -> None:
    waivers = {(w["pseudonym"], w["field"]): w for w in reference.get("waivers", [])}
    profiles = {a.record.pseudonym: a.profile for a in audits}
    for row in reference["apps"]:
        app = row["pseudonym"]
        profile = profiles[app]
        for fieldname in (e.field for e in ELEMENTS):
            computed = getattr(profile, fieldname)
            expected = row["scores"][fieldname]
            waiver = waivers.get((app, fieldname))
            if waiver is not None:
                ok = computed == waiver["rubric"]
                report.cells.append(CellCheck(
                    app, fieldname, computed, expected,
                    "waived" if ok else "fail",
                    note=waiver["note"],
                ))
            else:
                report.cells.append(CellCheck(
                    app, fieldname, computed, expected,
                    "ok" if computed == expected else "fail",
                ))


def _summary_cell(name: str, computed, expected, ok: bool) -> CellCheck:
    return CellCheck("corpus", name, computed, expected, "ok" if ok else "fail")


def _check_summary(reference: dict, summary, report: VerifyReport) -> None:
    targets = reference["summary"]
    tol = targets.get("tolerances", {})
    mean_tol = float(tol.get("mean", 0.05))
    sd_tol = float(tol.get("sd", 0.05))
    usab_sd_tol = float(tol.get("usability_sd", 0.15))

    for key, (count, pct) in targets["counts"].items():
        report.summary_checks.append(_summary_cell(
            f"count.{key}", summary.counts[key], count, summary.counts[key] == count))
        report.summary_checks.append(_summary_cell(
            f"pct.{key}", summary.percentages[key], pct, summary.percentages[key] == pct))

    for name, target in targets["means"].items():
        computed = summary.element_means[name]
        report.summary_checks.append(_summary_cell(
            f"mean.{name}", round(computed, 3), target, abs(computed - target) <= mean_tol))

    for name, target in targets["sds"].items():
        computed = summary.element_sds[name]
        tolerance = usab_sd_tol if name == "usability" else sd_tol
        report.summary_checks.append(_summary_cell(
            f"sd.{name}", round(computed, 3), target, abs(computed - target) <= tolerance))

    smog_target = targets["smog_mean"]
    report.summary_checks.append(_summary_cell(
        "smog_mean", round(summary.smog_mean, 3), smog_target,
        abs(summary.smog_mean - smog_target) <= mean_tol))

    lo = targets["overall_min"]
    hi = targets["overall_max"]
    report.summary_checks.append(_summary_cell(
        "overall_min", [summary.overall_min[0], list(summary.overall_min[1])],
        [lo["value"], lo["apps"]],
        summary.overall_min == (lo["value"], tuple(lo["apps"]))))
    report.summary_checks.append(_summary_cell(
        "overall_max", [summary.overall_max[0], list(summary.overall_max[1])],
        [hi["value"], hi["apps"]],
        summary.overall_max == (hi["value"], tuple(hi["apps"]))))


def run_verify(codebook: Codebook, reference: dict) -> VerifyReport:
    report = VerifyReport()
    audits = reference_audits(codebook, reference)
    _check_bands(reference, report)
    _check_scores(reference, audits, report)
    _check_summary(reference, summarize(audits), report)
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
