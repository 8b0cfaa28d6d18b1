#!/usr/bin/env python3
"""End-to-end and per-layer benchmark for ``praf audit`` and ``praf fetch``.

    python3 perfbench/run.py --workload ref28-cli --seed 1 --seconds 30 --trace 0

Run it from anywhere inside a checkout; it imports praf from the checkout's
``src/`` and writes only under ``.perfbench-work/`` there. Workloads (closed
loop, one client, ``--jobs`` set to the number of usable CPUs):

- ``ref28-cli``: a fresh ``praf audit`` process on the bundled 28-app corpus.
- ``long-policy``: a fresh ``praf audit`` process on a seeded corpus of long,
  nearly all-distinct policies with no annotations.
- ``fetch-refresh``: in-process ``pipeline.fetch_corpus`` into an empty cache
  over a zero-latency replay transport serving seeded HTML pages.

With ``--trace 0`` the run measures the end-to-end metrics with tracing off.
With ``--trace 1`` it alternates untraced and traced iterations and reports
per-layer self times from spans recorded around praf's public functions, plus
the tracing overhead. Outputs are checked on every iteration. The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` (apps) and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import inputs
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"
DEFAULT_SEED = 1
SETUP_PROBES = 11
WORKLOADS = ("ref28-cli", "long-policy", "fetch-refresh")
END_TO_END = {
    "wall_ms.p50": "ms",
    "cpu_ms.p50": "ms",
    "input_kB_per_s": "kB/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PRINCIPLES = ("data_minimization", "data_encryption", "access_controls", "consent_requirements",
              "retention_time", "breach_protocol", "third_party_sharing",
              "accessibility_accommodations")
# Per-layer metric -> unit. Times are self time per iteration, except those
# README.md marks inclusive.
PER_LAYER = {
    "cli.import.ms": "ms",
    "cli.audit.self_ms": "ms",
    "corpus.load_codebook.ms": "ms",
    "detect.load_rules.ms": "ms",
    "ingest.cache_get.ms": "ms",
    "ingest.cache_get.calls": "count",
    "ingest.fetch_policy.ms": "ms",
    "ingest.extract_text.ms": "ms",
    "ingest.cache_put.ms": "ms",
    "ingest.cache_put.bytes": "bytes",
    "ingest.transport_gets": "count",
    "detect.detect_all.ms": "ms",
    "detect.regulations.ms": "ms",
    **{f"detect.{dim}.ms": "ms" for dim in PRINCIPLES},
    "detect.ambiguous_language.ms": "ms",
    "detect.vague_commitments.ms": "ms",
    "detect.rules_hit_ratio": "ratio",
    "readability.sentence_spans.ms": "ms",
    "readability.sentence_spans.calls_per_doc": "count",
    "readability.smog_grade.ms": "ms",
    "pipeline.run_audit.ms": "ms",
    "pipeline.audit_app.span_sum_ms": "ms",
    "pipeline.fetch_corpus.ms": "ms",
    "score.score_app.ms": "ms",
    "report.emit.ms": "ms",
    "verify.run_verify.ms": "ms",
    "trace.overhead_ms": "ms",
}
SELF_TIMED = ["cli.audit", "ingest.cache_get", "ingest.fetch_policy", "ingest.extract_text",
              "ingest.cache_put", "detect.regulations", *(f"detect.{d}" for d in PRINCIPLES),
              "detect.ambiguous_language", "detect.vague_commitments",
              "readability.sentence_spans", "readability.smog_grade", "score.score_app",
              "report.emit"]
INCLUSIVE = ["detect.detect_all", "pipeline.run_audit", "pipeline.fetch_corpus"]


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    rss_mb: float
    attempted: int
    problems: list[checks.Problem] = field(default_factory=list)
    trace: dict | None = None      # spans and counts of a traced iteration
    layers: dict | None = None     # per-layer values computed from them


@dataclass
class Context:
    seed: int
    jobs: int
    work: Path
    env: dict


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PRAF_CACHE"}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(cmd: list[str], ctx: Context, log: Path) -> tuple[int, float, float, float]:
    """(exit code, wall s, cpu s, peak RSS MB) of one child process."""
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=ctx.env, stdout=fh, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024


def layer_values(trace: dict, apps: int) -> dict[str, float]:
    """Per-layer values of one traced iteration from its spans and counts."""
    spans = trace["spans"]
    selfs = tracing.self_times(spans)
    incl = tracing.inclusive_times(spans)
    calls = tracing.call_counts(spans)
    counts = trace["counts"]
    values = {f"{name}.ms": selfs.get(name, 0.0) * 1000 for name in SELF_TIMED}
    values["cli.audit.self_ms"] = values.pop("cli.audit.ms")
    values.update({f"{name}.ms": incl.get(name, 0.0) * 1000 for name in INCLUSIVE})
    values["pipeline.audit_app.span_sum_ms"] = incl.get("pipeline.audit_app", 0.0) * 1000
    values["ingest.cache_get.calls"] = calls.get("ingest.cache_get", 0) / apps
    docs = calls.get("detect.detect_all", 0)
    values["readability.sentence_spans.calls_per_doc"] = (
        calls.get("readability.sentence_spans", 0) / docs if docs else 0.0)
    tried = counts.get("detect.rules_tried", 0)
    values["detect.rules_hit_ratio"] = counts.get("detect.rules_hit", 0) / tried if tried else 0.0
    values["ingest.cache_put.bytes"] = counts.get("ingest.cache_put.bytes", 0)
    values["ingest.transport_gets"] = counts.get("ingest.transport_gets", 0)
    verify = tracing.inclusive_times(trace.get("verify_spans", []))
    values["verify.run_verify.ms"] = verify.get("verify.run_verify", 0.0) * 1000
    return values


# --- workloads ----------------------------------------------------------------------


class AuditCli:
    """One fresh ``praf audit`` process per iteration, into a fresh out dir."""

    def __init__(self, name: str):
        self.name = name
        self.reference_digests: dict[str, str] | None = None
        self.last_digest: str | None = None

    def prepare(self, ctx: Context) -> dict:
        from praf.corpus import load_codebook
        from praf.ingest import cache_get
        from praf.readability import segment_sentences

        if self.name == "ref28-cli":
            fixtures = SRC / "praf" / "data" / "fixtures"
            self.codebook_path = fixtures / "codebook.json"
            cache_dir = fixtures / "cache"
            self.args = []
            self.reference = json.loads((fixtures / "reference_results.json").read_text())
            codebook = load_codebook(self.codebook_path)
            self.overrides = {r.pseudonym: {d.value: v.value for d, v in
                                            codebook.overrides_for(r.pseudonym).items()}
                              for r in codebook.records}
            texts = [doc.text for doc in (cache_get(cache_dir, r.policy_url)
                                          for r in codebook.records) if doc and doc.accessible]
            sentences = [s for t in texts for s in segment_sentences(t)]
            info = {"apps": len(codebook.records), "text_kB": sum(len(t.encode()) for t in texts) / 1000,
                    "sentences": len(sentences), "distinct_sentences": len(set(sentences))}
        else:
            corpus = inputs.build_long_policy(ctx.seed, ctx.work / "corpus")
            self.codebook_path = corpus.codebook_path
            cache_dir = corpus.cache_dir
            self.args = ["--codebook", str(corpus.codebook_path.relative_to(ROOT)),
                         "--cache", str(cache_dir.relative_to(ROOT))]
            codebook = load_codebook(self.codebook_path)
            info = {"apps": corpus.apps, "text_kB": corpus.text_bytes / 1000,
                    "sentences": corpus.sentences, "distinct_sentences": corpus.distinct_sentences}
            if ctx.seed == DEFAULT_SEED:
                recorded = json.loads((BENCH / "expected.json").read_text())
                self.reference_digests = recorded["long-policy"]["digests"]
        self.apps = [r.pseudonym for r in codebook.records]
        self.input_kB = info["text_kB"]
        return info

    def iterate(self, ctx: Context, k: int, traced: bool) -> Sample:
        out = ctx.work / f"out-{k}"
        args = ["audit", "--out", str(out.relative_to(ROOT)), "--jobs", str(ctx.jobs), *self.args]
        spans_path = ctx.work / f"spans-{k}.json"
        if traced:
            cmd = [sys.executable, str(BENCH / "child_audit.py"), str(spans_path), *args]
        else:
            cmd = [sys.executable, "-m", "praf.cli", *args]
        log = ctx.work / "child.log"
        code, wall, cpu, rss = run_child(cmd, ctx, log)
        sample = Sample(wall, cpu, rss, len(self.apps))
        if code != 0:
            tail = log.read_text(errors="replace")[-400:]
            sample.problems.append((None, f"praf audit exited {code}: {tail}"))
            return sample
        try:
            sample.problems += checks.check_matrix(out, self.apps)
            if self.name == "ref28-cli":
                sample.problems += checks.check_ref28(out, self.reference, self.overrides)
            else:
                sample.problems += checks.check_all_accessible(out)
            digests = checks.artifact_digests(out)
        except (checks.CheckError, KeyError, TypeError) as exc:
            sample.problems.append((None, f"unreadable artifacts: {exc!r}"))
            return sample
        if self.reference_digests is None:
            self.reference_digests = digests
        sample.problems += checks.compare_digests(digests, self.reference_digests)
        self.last_digest = checks.combined_digest(digests)
        if traced:
            sample.trace = json.loads(spans_path.read_text())
            if self.name == "ref28-cli":
                sample.trace["verify_spans"] = self._traced_verify(sample)
            sample.layers = layer_values(sample.trace, len(self.apps))
        shutil.rmtree(out, ignore_errors=True)
        return sample

    def _traced_verify(self, sample: Sample) -> list[dict]:
        """Run ``praf verify``'s check in this process under its own tracer.
        Its spans are kept apart from the audit's, so that its scoring calls
        stay out of ``score.score_app.ms``."""
        from praf import verify
        from praf.corpus import load_codebook

        codebook = load_codebook(self.codebook_path)
        reference = verify.load_reference(SRC / "praf" / "data" / "fixtures" / "reference_results.json")
        tracer = tracing.Tracer()
        tracer.install()
        try:
            report = verify.run_verify(codebook, reference)
        finally:
            tracer.uninstall()
        if not report.passed:
            sample.problems.append((None, "praf verify fails on the bundled reference"))
        return tracer.to_json()["spans"]


class FetchRefresh:
    """In-process ``pipeline.fetch_corpus`` into an empty cache dir per iteration."""

    name = "fetch-refresh"

    def prepare(self, ctx: Context) -> dict:
        from praf.corpus import load_codebook, save_codebook
        from praf.readability import segment_sentences

        self.site = inputs.build_site(ctx.seed)
        self.codebook_path = ctx.work / "codebook.json"
        save_codebook(inputs.fetch_codebook(self.site), self.codebook_path)
        self.codebook = load_codebook(self.codebook_path)
        self.apps = [r.pseudonym for r in self.codebook.records]
        self.input_kB = self.site.html_bytes / 1000
        sentences = [s for t in self.site.texts.values() for s in segment_sentences(t)]
        return {"apps": len(self.apps), "html_kB": self.input_kB,
                "text_kB": sum(len(t) for t in self.site.texts.values()) / 1000,
                "hosts": len(self.site.hosts),
                "intended": {k: list(self.site.intended.values()).count(k)
                             for k in ("accessible", "not_found", "robots_blocked")},
                "sentences": len(sentences), "distinct_sentences": len(set(sentences))}

    def iterate(self, ctx: Context, k: int, traced: bool) -> Sample:
        from praf import pipeline

        cache_dir = ctx.work / f"cache-{k}"
        tracer = tracing.Tracer() if traced else None
        if tracer:
            tracer.install()
        self.site.gets = 0
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            manifest = pipeline.fetch_corpus(self.codebook, cache_dir, jobs=ctx.jobs,
                                             transport=self.site, respect_robots=True)
        finally:
            wall, cpu = time.perf_counter() - start, time.process_time() - cpu_start
            if tracer:
                tracer.uninstall()
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        sample = Sample(wall, cpu, rss, len(self.apps))
        sample.problems += checks.check_fetch(manifest, self.site, self.codebook, cache_dir)
        if tracer:
            sample.trace = tracer.to_json()
            sample.trace["counts"]["ingest.cache_put.bytes"] = sum(
                p.stat().st_size for p in cache_dir.rglob("*") if p.is_file())
            sample.trace["counts"]["ingest.transport_gets"] = self.site.gets / len(self.apps)
            sample.layers = layer_values(sample.trace, len(self.apps))
        shutil.rmtree(cache_dir, ignore_errors=True)
        return sample


def make_workload(name: str):
    return FetchRefresh() if name == "fetch-refresh" else AuditCli(name)


# --- measurement ----------------------------------------------------------------------


def setup_probe(ctx: Context, codebook_path: Path) -> dict:
    """Set-up times of one fresh process, as ``child_setup.py`` reports them."""
    cmd = [sys.executable, str(BENCH / "child_setup.py"), str(codebook_path)]
    out = subprocess.run(cmd, cwd=ROOT, env=ctx.env, capture_output=True, text=True,
                         check=True, timeout=120)
    return json.loads(out.stdout.strip().splitlines()[-1])


def reference_loop_ms(repeats: int = 9) -> float:
    """Median time of a fixed pure-Python loop. It measures how fast the host
    runs at the moment, to tell a slow host from a slow program; shared hosts
    drift by tens of percent over minutes."""
    def once() -> float:
        start = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i
        return time.perf_counter() - start

    return statistics.median(once() for _ in range(repeats)) * 1000


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples beyond it, and its value."""
    n = len(values)
    if n <= 10:
        return None
    k = n - 10
    return 100 * k / n, sorted(values)[k - 1]


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    ctx = Context(seed=seed, jobs=usable_cpus(), work=WORK_ROOT / f"{workload_name}-{os.getpid()}",
                  env=child_env())
    ctx.work.mkdir(parents=True, exist_ok=True)
    try:
        return _run(make_workload(workload_name), ctx, seconds, trace)
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)


def _run(wl, ctx: Context, seconds: float, trace: bool) -> dict:
    env = {"python": platform.python_version(), "cpu_count": os.cpu_count(), "nproc": usable_cpus(),
           "jobs": ctx.jobs, "seed": ctx.seed, "commit": git_commit(), "trace": int(trace)}
    print(f"perfbench {wl.name}: {json.dumps(env)}")
    host_before = reference_loop_ms()
    info = wl.prepare(ctx)
    if "distinct_sentences" in info:
        info["distinct_ratio"] = info["distinct_sentences"] / max(1, info["sentences"])
    print(f"inputs: {json.dumps(info)}")
    setup_probe(ctx, wl.codebook_path)               # warm-up: .pyc files and page cache
    samples = [wl.iterate(ctx, 0, traced=False)]     # warm-up, also the reference artifacts
    timed: list[Sample] = []
    traced: list[Sample] = []
    probes: list[dict] = []
    start = time.monotonic()
    k = 1
    while True:
        # Set-up probes are spread evenly over the run, so that they see the
        # same machine as the iterations do.
        if len(probes) < SETUP_PROBES and time.monotonic() - start >= len(probes) * seconds / SETUP_PROBES:
            probes.append(setup_probe(ctx, wl.codebook_path))
            continue
        sample = wl.iterate(ctx, k, traced=trace and k % 2 == 0)
        samples.append(sample)
        (traced if sample.layers is not None else timed).append(sample)
        k += 1
        if (time.monotonic() - start >= seconds and len(probes) == SETUP_PROBES
                and timed and (traced or not trace)):
            break

    attempted = sum(s.attempted for s in samples)
    failed = sum(checks.failed_apps(s.problems, wl.apps) for s in samples)
    for s in samples:
        for app, message in s.problems[:5]:
            print(f"FAILED {app or '*'}: {message}", file=sys.stderr)
    walls = [s.wall_s * 1000 for s in timed]
    e2e = {
        "wall_ms.p50": statistics.median(walls),
        "cpu_ms.p50": statistics.median(s.cpu_s * 1000 for s in timed),
        "input_kB_per_s": wl.input_kB * len(timed) / sum(s.wall_s for s in timed),
        "setup_s": statistics.median(p["total_s"] for p in probes),
        "peak_rss_mb": statistics.median(s.rss_mb for s in timed),
    }
    for name, value in e2e.items():
        print(f"{name:<16} {value:12.4f} {END_TO_END[name]}")
    print("wall_ms samples  " + " ".join(f"{w:.1f}" for w in walls))
    tail = tail_percentile(walls)
    print("wall_ms.tail     " + (f"p{tail[0]:.1f} = {tail[1]:.4f} ms (10 of {len(walls)} samples beyond)"
                                  if tail else f"n/a: {len(walls)} samples, none with 10 beyond"))
    print(f"failed_ratio     {failed / attempted:12.4f} ({failed}/{attempted} apps)")
    print(f"host reference loop {host_before:.2f} ms before, {reference_loop_ms():.2f} ms after")
    if getattr(wl, "last_digest", None):
        print(f"artifact digest  {wl.last_digest}")

    metrics = {name: {"value": value, "unit": END_TO_END[name]} for name, value in e2e.items()}
    if trace:
        layers = {name: statistics.median(s.layers[name] for s in traced)
                  for name in traced[0].layers}
        layers["cli.import.ms"] = statistics.median(p["import_s"] for p in probes) * 1000
        layers["corpus.load_codebook.ms"] = statistics.median(p["load_codebook_s"] for p in probes) * 1000
        layers["detect.load_rules.ms"] = statistics.median(p["load_rules_s"] for p in probes) * 1000
        layers["trace.overhead_ms"] = (statistics.median(s.wall_s for s in traced)
                                       - statistics.median(s.wall_s for s in timed)) * 1000
        for name, unit in PER_LAYER.items():
            print(f"{name:<42} {layers[name]:14.4f} {unit}")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER.items()}
        trace_path = WORK_ROOT / f"trace-{wl.name}-seed{ctx.seed}.json"
        trace_path.write_text(json.dumps([s.trace for s in traced]))
        print(f"spans written to {trace_path.relative_to(ROOT)}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "praf" / "__init__.py").is_file():
        print(f"error: no praf sources under {SRC}; run from a praf checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import praf
    if not Path(praf.__file__).resolve().is_relative_to(SRC):
        print(f"error: praf imported from {praf.__file__}, not {SRC}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
