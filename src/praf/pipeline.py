"""Pipeline orchestration shared by the CLI commands.

fetch: resolve each codebook record to a cached PolicyDocument (live HTTP or
cache/offline replay). Only requests (each origin's robots.txt, the pages)
run on a bounded thread pool, since they wait on the network; extraction and
cache writes run on the calling thread.
audit: analyse each policy once, detect and compute readability from that one
analysis, then apply the annotation overrides and score in
:func:`audit_from_findings`, which verify shares to score the reference
annotations. Audit is CPU-bound pure Python, so it runs serially: threads
would only take turns under the interpreter lock. Results of both are in
codebook order so output is deterministic.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple
from urllib.parse import urljoin

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
    FetchFailure,
    InaccessibleReason,
    PolicyDocument,
    UrllibTransport,
    cache_get,
    cache_put,
    document_from_fetch,
    fetch_policy,
    robots_rules,
    transient,
)
from .readability import ReadabilityResult, analyze, smog_grade
from .score import PrafProfile, score_app

DEFAULT_JOBS = 4


# --- fetch ---------------------------------------------------------------------


def _manifest_entry(rec: AppRecord, doc: PolicyDocument | None, cached: bool) -> dict:
    """An app's manifest line; doc is None without a URL, or offline without a cache entry."""
    entry = {"app": rec.pseudonym, "url": rec.policy_url, "cached": cached}
    if doc is None:
        entry.update(status="inaccessible", reason="no_cache" if rec.policy_url else "no_url")
    elif doc.accessible:
        entry.update(status="accessible", text_chars=len(doc.text))
    else:
        entry.update(status="inaccessible", reason=doc.reason.value)
        if doc.http_status:
            entry["http_status"] = doc.http_status
    return entry


def fetch_corpus(codebook: Codebook, cache_dir: Path, *, offline: bool = False,
                 jobs: int = DEFAULT_JOBS, transport=None,
                 respect_robots: bool = True) -> list[dict]:
    """Fetch/refresh every record's policy; returns one manifest entry per app
    in codebook order. Failures are recorded per app, never raised. Online, an
    app is requested when it has no cache entry or one that fetch_policy would
    retry; offline, the cache is replayed. Only requests run on the pool of
    ``jobs`` threads, since they wait on the network: with ``respect_robots``,
    each origin's robots.txt once, before its pages. All cache lookups come
    first, so a corrupt entry stops the run before any request is sent. The
    calling thread extracts and caches each page in codebook order."""
    # Imported here: audit and verify never fetch, so they should not load
    # concurrent.futures (and the logging it pulls in).
    from concurrent.futures import ThreadPoolExecutor
    records = codebook.records
    docs = [cache_get(cache_dir, rec.policy_url) if rec.policy_url else None
            for rec in records]
    refresh = [bool(rec.policy_url) and not offline
               and (doc is None or transient(doc.reason, doc.http_status))
               for rec, doc in zip(records, docs)]
    stale = [rec.policy_url for rec, due in zip(records, refresh) if due]
    if stale and transport is None:
        transport = UrllibTransport()
    manifest = []
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        # RFC 9309 scopes robots.txt to a scheme, host and port. Every
        # robots.txt request is queued before any page request, so a page
        # waits only on a request that a worker has already taken.
        robots_urls = dict.fromkeys(urljoin(u, "/robots.txt") for u in stale if respect_robots)
        robots = {r: pool.submit(robots_rules, r, transport) for r in robots_urls}

        def request(url: str):
            if respect_robots and not robots[urljoin(url, "/robots.txt")].result()(url):
                return FetchFailure(url, InaccessibleReason.ROBOTS_BLOCKED)
            return fetch_policy(url, transport=transport)

        outcomes = pool.map(request, stale)
        for rec, doc, due in zip(records, docs, refresh):
            if due:
                doc = document_from_fetch(rec.pseudonym, next(outcomes))
                cache_put(cache_dir, rec.policy_url, doc)
            manifest.append(_manifest_entry(rec, doc, cached=doc is not None and not due))
    return manifest


# --- audit ---------------------------------------------------------------------


class AppAudit(NamedTuple):
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


class _AuditResult(NamedTuple):
    audits: list[AppAudit]
    incomplete: list[str]


class AuditResult(_AuditResult):
    __slots__ = ()
    def __new__(cls, audits: list[AppAudit], incomplete: list[str] | None = None):
        return super().__new__(cls, audits, [] if incomplete is None else incomplete)

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
