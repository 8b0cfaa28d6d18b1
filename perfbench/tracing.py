"""Spans and counts around calls into praf's public functions.

The tracer wraps functions from outside the program: it replaces every
reference to a target function in the loaded ``praf`` modules with a wrapper
that records a span (name, start, end, parent, app) and restores the
originals on ``uninstall``. Spans stay in memory until the caller writes
them out. A target the program no longer has is skipped and listed in
``missing``, so the traced run keeps working across refactors.

A span's parent is the innermost open span on the same thread. Work that
``praf.pipeline`` hands to a thread pool therefore starts new root spans;
the app of such a span is taken from its ``AppRecord`` argument.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    app: str | None


def _principle_name(args, kwargs):
    dim = kwargs.get("dimension", args[1] if len(args) > 1 else None)
    return f"detect.{getattr(dim, 'value', dim)}"


# (module, attribute, span name or callable(args, kwargs) -> span name)
TARGETS = [
    ("praf.corpus", "load_codebook", "corpus.load_codebook"),
    ("praf.detect", "load_rules", "detect.load_rules"),
    ("praf.ingest", "cache_get", "ingest.cache_get"),
    ("praf.ingest", "cache_put", "ingest.cache_put"),
    ("praf.ingest", "fetch_policy", "ingest.fetch_policy"),
    ("praf.ingest", "extract_text", "ingest.extract_text"),
    ("praf.detect", "detect_all", "detect.detect_all"),
    ("praf.detect", "detect_regulations", "detect.regulations"),
    ("praf.detect", "detect_principle", _principle_name),
    ("praf.detect", "detect_ambiguity", "detect.ambiguous_language"),
    ("praf.detect", "detect_vague_commitments", "detect.vague_commitments"),
    ("praf.readability", "sentence_spans", "readability.sentence_spans"),
    ("praf.readability", "smog_grade", "readability.smog_grade"),
    ("praf.pipeline", "run_audit", "pipeline.run_audit"),
    ("praf.pipeline", "audit_app", "pipeline.audit_app"),
    ("praf.pipeline", "fetch_corpus", "pipeline.fetch_corpus"),
    ("praf.score", "score_app", "score.score_app"),
    ("praf.report", "summarize", "report.emit"),
    ("praf.report", "emit_matrix", "report.emit"),
    ("praf.report", "emit_summary_markdown", "report.emit"),
    ("praf.report", "summary_to_json", "report.emit"),
    ("praf.report", "emit_smog_csv", "report.emit"),
    ("praf.report", "emit_app_report", "report.emit"),
    ("praf.verify", "run_verify", "verify.run_verify"),
]


def _rule_hits(tracer, args, kwargs, findings) -> None:
    """Count rules tried and rules that left evidence, per document: strong
    rules are always tried, weak ones only when no strong rule left evidence."""
    rules = kwargs.get("rules", args[1] if len(args) > 1 else None)
    for finding in findings:
        dr = rules.rules_for(finding.dimension)
        hit = {e.rule_id for e in finding.evidence}
        strong_hit = any(p.rule_id in hit for p in dr.strong)
        tracer.count("detect.rules_tried", len(dr.strong) + (0 if strong_hit else len(dr.weak)))
        tracer.count("detect.rules_hit", len(hit))


HOOKS = {"detect.detect_all": _rule_hits}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._lock = threading.Lock()

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def wrap(self, func, name, on_return=None):
        """``func`` wrapped to record one span per call; ``name`` is a string
        or a callable of the call's (args, kwargs)."""
        name_of = name if callable(name) else (lambda args, kwargs: name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            parent = stack[-1] if stack else None
            app = parent.app if parent else None
            record = args[0] if args else None
            if app is None and hasattr(record, "pseudonym"):
                app = record.pseudonym
            span = Span(next(self._ids), name_of(args, kwargs), 0.0, 0.0,
                        parent.id if parent else None, app)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if on_return is not None:
                on_return(self, args, kwargs, result)
            return result

        return traced

    def patch_everywhere(self, original, replacement) -> None:
        """Point every praf module attribute bound to ``original`` at ``replacement``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "praf" or mod_name.startswith("praf.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        """Wrap every target in TARGETS and the ``praf audit`` command callback."""
        import importlib

        for mod_name, attr, name in TARGETS:
            mod = importlib.import_module(mod_name)
            original = getattr(mod, attr, None)
            if original is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            self.patch_everywhere(original, self.wrap(original, name, HOOKS.get(name)))
        cli = sys.modules.get("praf.cli")
        command = getattr(cli, "audit", None)
        if command is not None and hasattr(command, "callback"):
            self._patches.append((command, "callback", command.callback))
            command.callback = self.wrap(command.callback, "cli.audit")

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)
        self._patches.clear()

    def to_json(self) -> dict:
        return {"spans": [asdict(s) for s in self.spans], "counts": dict(self.counts),
                "missing": self.missing}


def self_times(spans: list[dict]) -> dict[str, float]:
    """Seconds of self time per span name: each span's duration minus the
    part its direct children cover."""
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    totals: dict[str, float] = defaultdict(float)
    for s in spans:
        totals[s["name"]] += (s["end"] - s["start"]) - child_time[s["id"]]
    return dict(totals)


def inclusive_times(spans: list[dict]) -> dict[str, float]:
    totals: dict[str, float] = defaultdict(float)
    for s in spans:
        totals[s["name"]] += s["end"] - s["start"]
    return dict(totals)


def call_counts(spans: list[dict]) -> dict[str, int]:
    counts: dict[str, int] = defaultdict(int)
    for s in spans:
        counts[s["name"]] += 1
    return dict(counts)
