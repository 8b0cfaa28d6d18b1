"""Pipeline orchestration shared by the CLI commands.

fetch: resolve each codebook record to a cached PolicyDocument (live HTTP or
cache/offline replay) on a bounded thread pool, since fetching waits on I/O.
audit: analyse each policy once, detect and compute readability from that one
analysis, then apply the annotation overrides and score in
:func:`audit_from_findings`, which verify shares to score the reference
annotations. Audit is CPU-bound pure Python, so it runs serially: threads
would only take turns under the interpreter lock. Results of both are in
codebook order so output is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .corpus import AppRecord, Codebook
from .detect import (
    DetectionDimension as Dim,
    Finding,
    RuleSet,
    Verdict,
    apply_overrides,
    detect_all,
    no_findings,
)
from .ingest import (
    InaccessibleReason,
    PolicyDocument,
    cache_get,
    cache_put,
    document_from_fetch,
    fetch_policy,
)
from .readability import ReadabilityResult, analyze, smog_grade
from .score import PrafProfile, score_app

DEFAULT_JOBS = 4


# --- fetch ---------------------------------------------------------------------


def _fetch_one(record: AppRecord, cache_dir: Path, offline: bool,
               transport, respect_robots: bool) -> dict:
    app = record.pseudonym
    url = record.policy_url
    if not url:
        return {"app": app, "url": None, "status": "inaccessible",
                "reason": InaccessibleReason.NO_URL.value, "cached": False}
    cached = cache_get(cache_dir, url)
    if cached is not None:
        return _manifest_entry(app, url, cached, cached=True)
    if offline:
        return {"app": app, "url": url, "status": "inaccessible",
                "reason": InaccessibleReason.NO_CACHE.value, "cached": False}
    outcome = fetch_policy(url, transport=transport, respect_robots=respect_robots)
    doc = document_from_fetch(app, outcome)
    cache_put(cache_dir, url, doc)
    return _manifest_entry(app, url, doc, cached=False)


def _manifest_entry(app: str, url: str, doc: PolicyDocument, cached: bool) -> dict:
    entry = {"app": app, "url": url, "cached": cached}
    if doc.accessible:
        entry["status"] = "accessible"
        entry["text_chars"] = len(doc.text)
    else:
        entry["status"] = "inaccessible"
        entry["reason"] = doc.reason.value
        if doc.http_status:
            entry["http_status"] = doc.http_status
    return entry


def fetch_corpus(codebook: Codebook, cache_dir: Path, *, offline: bool = False,
                 jobs: int = DEFAULT_JOBS, transport=None,
                 respect_robots: bool = False) -> list[dict]:
    """Fetch/refresh every record's policy; returns one manifest entry per app
    in codebook order. Failures are recorded per app, never raised."""
    # Imported here: audit and verify never fetch, so they should not load
    # concurrent.futures (and the logging it pulls in).
    from concurrent.futures import ThreadPoolExecutor
    if not codebook.records:
        return []
    with ThreadPoolExecutor(max_workers=max(1, jobs)) as pool:
        futures = [
            pool.submit(_fetch_one, rec, cache_dir, offline, transport, respect_robots)
            for rec in codebook.records
        ]
        return [f.result() for f in futures]


# --- audit ---------------------------------------------------------------------


@dataclass
class AppAudit:
    """One app's audit. An accessible policy always carries readability and
    an inaccessible one never does; text is the analysed policy text, if any."""

    record: AppRecord
    findings: dict[Dim, Finding]
    detected: dict[Dim, Finding]
    readability: ReadabilityResult | None
    profile: PrafProfile
    text: str | None = None

    @property
    def accessible(self) -> bool:
        return self.readability is not None


@dataclass
class AuditResult:
    audits: list[AppAudit]
    incomplete: list[str] = field(default_factory=list)

    def agreement(self) -> dict:
        """Detector/annotation agreement over manually annotated cells of
        accessible policies; reported as a metric, never asserted."""
        total = 0
        agree = 0
        for audit in self.audits:
            if not audit.accessible:
                continue
            for dim, final in audit.findings.items():
                if not final.manual:
                    continue
                total += 1
                if audit.detected[dim].verdict is final.verdict:
                    agree += 1
        return {
            "annotated_cells": total,
            "agreeing_cells": agree,
            "rate": round(agree / total, 4) if total else None,
        }


def audit_app(record: AppRecord, document: PolicyDocument | None,
              overrides: dict[Dim, Verdict], rules: RuleSet) -> AppAudit:
    if document is not None and document.accessible:
        doc = analyze(document.text)
        return audit_from_findings(record, detect_all(doc, rules), overrides,
                                   smog_grade(doc), document.text)
    return audit_from_findings(record, no_findings(), overrides, None)


def audit_from_findings(record: AppRecord, detected: list[Finding],
                        overrides: dict[Dim, Verdict], readability: ReadabilityResult | None,
                        text: str | None = None) -> AppAudit:
    """Apply the annotation overrides to the detected findings and score the
    app; it counts as accessible exactly when it has a readability result."""
    findings = {f.dimension: f for f in apply_overrides(detected, overrides)}
    return AppAudit(
        record=record,
        findings=findings,
        detected={f.dimension: f for f in detected},
        readability=readability,
        profile=score_app(record.pseudonym, findings, readability),
        text=text,
    )


def run_audit(codebook: Codebook, cache_dir: Path, rules: RuleSet) -> AuditResult:
    """Audit every record from its cached document and annotations. When an
    app has neither a cached document nor complete annotations, nothing is
    audited and those apps are listed in ``incomplete``."""
    docs = {
        rec.pseudonym: (cache_get(cache_dir, rec.policy_url) if rec.policy_url else None)
        for rec in codebook.records
    }
    incomplete = [app for app, doc in docs.items()
                  if doc is None and len(codebook.overrides_for(app)) < len(Dim)]
    if incomplete or not codebook.records:
        return AuditResult(audits=[], incomplete=incomplete)
    return AuditResult(audits=[
        audit_app(rec, docs[rec.pseudonym], codebook.overrides_for(rec.pseudonym), rules)
        for rec in codebook.records
    ])
