"""Report emission: corpus matrix, per-app narratives, summary statistics.

Matrix columns follow the reference layout: app, category, the thirteen
verdicts, SMOG grade and band code, the five element scores and the overall
score. Verdict columns, per-app sections and summary counts come from
``detect.DIMENSIONS``; score columns and element labels from
``score.ELEMENTS``. Every emitter takes the pipeline's ``AppAudit`` records.
Markdown uses the verdict glyphs (yes=●, partial=○, no=−); CSV and JSON carry
the words so they parse back losslessly.
"""

from __future__ import annotations

import csv
import io
import json
import statistics
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

from .detect import DIMENSIONS, Finding, Verdict, dimensions
from .errors import PrafError
from .score import ELEMENTS

if TYPE_CHECKING:
    from .pipeline import AppAudit

GLYPHS = {Verdict.YES: "●", Verdict.PARTIAL: "○", Verdict.NO: "−"}

MATRIX_COLUMNS = (
    ["pseudonym", "category"]
    + [spec.column for spec in DIMENSIONS.values()]
    + ["smog", "level"]
    + [e.column for e in ELEMENTS]
)

_MARKDOWN_HEADER = (
    ["App", "Use"]
    + [spec.header for spec in DIMENSIONS.values()]
    + ["SMOG", "Level"]
    + [e.header for e in ELEMENTS]
)

# Summary signal with no dimension of its own; listed after the regulations.
_NO_REGULATION = ("no_regulation", "No regulation mentioned")
# The keys of CorpusSummary.counts.
COUNT_KEYS = [spec.count[0] for spec in DIMENSIONS.values() if spec.count] + [_NO_REGULATION[0]]


@dataclass(frozen=True)
class CorpusSummary:
    total_apps: int
    accessible_apps: int
    counts: Mapping[str, int]
    percentages: Mapping[str, float]
    element_means: Mapping[str, float]
    element_sds: Mapping[str, float]
    smog_mean: float | None
    overall_min: tuple[int, tuple[str, ...]]
    overall_max: tuple[int, tuple[str, ...]]


def _pct(count: int, total: int) -> float:
    return round(100.0 * count / total, 1)


def _app_key(pseudonym: str) -> tuple[str, int]:
    return pseudonym[0], int(pseudonym[1:])


def summarize(audits: Sequence[AppAudit]) -> CorpusSummary:
    """Corpus statistics; means and population SDs include zero-scored
    inaccessible apps, SMOG mean covers only apps with readability."""
    if not audits:
        raise PrafError("summarize needs at least one audit")
    total = len(audits)

    counts = {
        spec.count[0]: sum(1 for a in audits if a.findings[dim].verdict is Verdict.YES)
        for dim, spec in DIMENSIONS.items() if spec.count
    }
    # Apps whose policy names no regulation at all; inaccessible policies are
    # reported separately, not in this count.
    accessible = [a for a in audits if a.accessible]
    counts[_NO_REGULATION[0]] = sum(
        1 for a in accessible
        if all(a.findings[d].verdict is not Verdict.YES for d in dimensions(kind="regulation"))
    )
    percentages = {key: _pct(n, total) for key, n in counts.items()}

    element_means = {}
    element_sds = {}
    for e in ELEMENTS:
        values = [getattr(a.profile, e.field) for a in audits]
        element_means[e.field] = statistics.fmean(values)
        element_sds[e.field] = statistics.pstdev(values)

    grades = [a.readability.smog_grade for a in accessible]
    # mean, not fmean: exact, so huge grades cannot overflow the sum.
    smog_mean = statistics.mean(grades) if grades else None

    pool = [a.profile for a in accessible or audits]
    lo = min(p.overall for p in pool)
    hi = max(p.overall for p in pool)
    overall_min = (lo, tuple(sorted((p.app for p in pool if p.overall == lo), key=_app_key)))
    overall_max = (hi, tuple(sorted((p.app for p in pool if p.overall == hi), key=_app_key)))

    return CorpusSummary(
        total_apps=total,
        accessible_apps=len(accessible),
        counts=counts,
        percentages=percentages,
        element_means=element_means,
        element_sds=element_sds,
        smog_mean=smog_mean,
        overall_min=overall_min,
        overall_max=overall_max,
    )


# --- matrix -------------------------------------------------------------------


def _matrix_rows(audits: Sequence[AppAudit]) -> list[dict]:
    rows = []
    for audit in audits:
        readability = audit.readability
        row: dict = {"pseudonym": audit.record.pseudonym, "category": audit.record.category.value}
        for dim, spec in DIMENSIONS.items():
            row[spec.column] = audit.findings[dim].verdict.value
        row["smog"] = None if readability is None else round(readability.smog_grade, 1)
        row["level"] = None if readability is None else readability.band.code
        for e in ELEMENTS:
            row[e.column] = getattr(audit.profile, e.field)
        rows.append(row)
    return rows


def emit_matrix(audits: Sequence[AppAudit], fmt: str) -> str:
    """Corpus matrix in markdown, csv, or json; one row per audit."""
    rows = _matrix_rows(audits)
    if fmt == "json":
        return json.dumps({"columns": MATRIX_COLUMNS, "rows": rows},
                          indent=2, ensure_ascii=False) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=MATRIX_COLUMNS, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            out = dict(row)
            out["smog"] = "" if row["smog"] is None else _fmt_grade(row["smog"])
            out["level"] = row["level"] or ""
            writer.writerow(out)
        return buf.getvalue()
    if fmt == "markdown":
        header = "| " + " | ".join(_MARKDOWN_HEADER) + " |"
        sep = "|" + "---|" * len(_MARKDOWN_HEADER)
        lines = [header, sep]
        for row in rows:
            cells = [row["pseudonym"], row["category"]]
            cells += [GLYPHS[Verdict(row[spec.column])] for spec in DIMENSIONS.values()]
            cells.append("-" if row["smog"] is None else _fmt_grade(row["smog"]))
            cells.append(row["level"] or "-")
            cells += [str(row[e.column]) for e in ELEMENTS]
            lines.append("| " + " | ".join(cells) + " |")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown matrix format {fmt!r}")


def _fmt_grade(value: float) -> str:
    return str(int(value)) if float(value) == int(value) else f"{value:.1f}"


# --- per-app report -----------------------------------------------------------

_EXCERPT_LIMIT = 200


def _excerpt(text: str, start: int, end: int) -> str:
    snippet = " ".join(text[start:end].split())
    if len(snippet) > _EXCERPT_LIMIT:
        snippet = snippet[: _EXCERPT_LIMIT - 1] + "…"
    return snippet


def _verdict(finding: Finding) -> str:
    return finding.verdict.value + (" (manual)" if finding.manual else "")


def emit_app_report(audit: AppAudit, reveal_names: bool = False) -> str:
    """Markdown narrative for one app: scores, verdicts, and the evidence
    excerpts behind them; manual overrides are flagged."""
    record, findings, readability, profile = (
        audit.record, audit.findings, audit.readability, audit.profile)
    name = record.pseudonym
    if reveal_names and record.real_name:
        name = f"{record.pseudonym} ({record.real_name})"
    lines = [f"# {name}", ""]
    lines.append(f"Category: {record.category.value}")
    if not audit.accessible:
        lines.append("Policy: inaccessible; every element scores 0.")
        lines.append(f"Overall risk score: {profile.overall} / 28")
        return "\n".join(lines) + "\n"
    lines.append(f"Policy source: {record.policy_url or 'n/a'}")
    lines.append(
        f"Readability: SMOG {_fmt_grade(round(readability.smog_grade, 1))} "
        f"({readability.band.label}, {readability.points} points)"
    )
    lines.append(f"Overall risk score: {profile.overall} / 28")
    lines.append("")

    for e in ELEMENTS[:-1]:
        lines.append(f"## {e.label} — {getattr(profile, e.field)}/{e.ceiling}")
        for dim in dimensions(element=e.field):
            finding = findings[dim]
            lines.append(f"- {dim.value}: {_verdict(finding)}")
            if audit.text and finding.evidence:
                span = finding.evidence[0]
                lines.append(f'  - "{_excerpt(audit.text, span.start, span.end)}"')
            if finding.detail and "duration_value" in finding.detail:
                d = finding.detail
                lines.append(f"  - retention duration: {d['duration_value']} {d['duration_unit']}(s)")
        lines.append("")
    # Dimensions that feed no element are tracked and reported, unscored.
    noted = [f"{dim.value}: {_verdict(findings[dim])}"
             for dim, spec in DIMENSIONS.items() if spec.element is None]
    if noted:
        lines.append("Noted (unscored): " + "; ".join(noted))
    return "\n".join(lines) + "\n"


# --- summary rendering ----------------------------------------------------------

def emit_summary_markdown(summary: CorpusSummary) -> str:
    lines = ["# Corpus summary", ""]
    lines.append(f"Apps audited: {summary.total_apps} "
                 f"({summary.accessible_apps} accessible policies)")
    lines.append("")
    lines.append("| Signal | Apps | Share |")
    lines.append("|---|---|---|")
    counted = [spec.count for spec in DIMENSIONS.values() if spec.count]
    n_regulations = len(dimensions(kind="regulation"))
    counted.insert(n_regulations, _NO_REGULATION)
    for key, label in counted:
        lines.append(f"| {label} | {summary.counts[key]} | {summary.percentages[key]}% |")
    lines.append("")
    lines.append("Note: the no-regulation count covers accessible policies only; "
                 "inaccessible policies are tallied separately.")
    lines.append("")
    lines.append("| Element | Mean | SD (population) |")
    lines.append("|---|---|---|")
    for e in ELEMENTS:
        lines.append(f"| {e.label} | {summary.element_means[e.field]:.2f} "
                     f"| {summary.element_sds[e.field]:.2f} |")
    lines.append("")
    if summary.smog_mean is not None:
        lines.append(f"Mean SMOG grade (accessible apps): {summary.smog_mean:.2f}")
    lo, lo_apps = summary.overall_min
    hi, hi_apps = summary.overall_max
    lines.append(f"Overall risk range among accessible apps: {lo} "
                 f"({', '.join(lo_apps)}) to {hi} ({', '.join(hi_apps)})")
    lines.append(f"Computed overall mean is {summary.element_means['overall']:.2f}; "
                 "headline summaries elsewhere round this coarsely.")
    return "\n".join(lines) + "\n"


def summary_to_json(summary: CorpusSummary) -> str:
    payload = {
        "total_apps": summary.total_apps,
        "accessible_apps": summary.accessible_apps,
        "counts": dict(summary.counts),
        "percentages": dict(summary.percentages),
        "element_means": {k: round(v, 4) for k, v in summary.element_means.items()},
        "element_sds": {k: round(v, 4) for k, v in summary.element_sds.items()},
        "smog_mean": None if summary.smog_mean is None else round(summary.smog_mean, 4),
        "overall_min": {"value": summary.overall_min[0], "apps": list(summary.overall_min[1])},
        "overall_max": {"value": summary.overall_max[0], "apps": list(summary.overall_max[1])},
    }
    return json.dumps(payload, indent=2) + "\n"


def emit_smog_csv(audits: Sequence[AppAudit]) -> str:
    """Plot-data export: pseudonym and SMOG grade for each accessible app."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["pseudonym", "smog_grade"])
    for audit in audits:
        if audit.readability is not None:
            writer.writerow([audit.record.pseudonym, f"{audit.readability.smog_grade:.4f}"])
    return buf.getvalue()
