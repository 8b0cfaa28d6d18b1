"""Command-line interface: fetch, audit, verify.

Exit codes: 0 success, 1 verification failure, 2 usage or input error (a
PrafError, or a cache directory to read that does not exist, naming the input
at fault), 3 incomplete inputs (an app with neither a cached document nor
complete annotations). Defaults point at the bundled reference fixtures so
`praf audit` and `praf verify` work out of the box. Every audit writes one
artifact set with one time, read once per run: the header line of each
markdown artifact and run.json's generated_at, the only places a time
appears. What an earlier audit into the same directory wrote and this one
did not is deleted, so it holds one set.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import pipeline
from .corpus import PSEUDONYM_RE, load_codebook
from .detect import default_rules_path, load_rules
from .errors import PrafError
from .ingest import atomic_write
from .report import (emit_app_report, emit_matrix, emit_smog_csv, emit_summary_markdown,
                     summarize, summary_to_json)

DATA_DIR = Path(__file__).parent / "data"
FIXTURES_DIR = DATA_DIR / "fixtures"

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_INCOMPLETE = 3


def _fail(code: int, message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def _resolve_cache(cache: str | None, *, writable: bool) -> Path:
    """The cache directory; only one that will be written may not exist yet."""
    if cache is not None:
        if not (writable or Path(cache).is_dir()):
            _fail(EXIT_CONFIG, f"cache directory not found: {cache}")
        return Path(cache)
    if writable:
        _fail(EXIT_CONFIG, "no writable cache directory; pass --cache")
    return FIXTURES_DIR / "cache"


def _write(path: Path, body: str, generated_at: str) -> None:
    if path.suffix == ".md":
        body = f"<!-- generated: {generated_at} -->\n" + body
    atomic_write(path, body)


def fetch(args: argparse.Namespace) -> int:
    """Fetch privacy policies into the cache and print a status manifest."""
    cb = load_codebook(args.codebook)
    cache_dir = _resolve_cache(args.cache, writable=not args.offline)
    manifest = pipeline.fetch_corpus(cb, cache_dir, offline=args.offline, jobs=args.jobs,
                                     respect_robots=args.respect_robots)
    print(json.dumps({"cache": str(cache_dir), "apps": manifest}, indent=2))
    return EXIT_OK


def audit(args: argparse.Namespace) -> int:
    """Score every app from cached policies + annotations and write reports."""
    cb = load_codebook(args.codebook)
    rules_path = Path(args.rules)
    ruleset = load_rules(rules_path)
    cache_dir = _resolve_cache(args.cache, writable=False)
    result = pipeline.run_audit(cb, cache_dir, ruleset)
    if result.incomplete:
        _fail(EXIT_INCOMPLETE,
              "no cached policy and incomplete annotations for: " + ", ".join(result.incomplete))
    audits = result.audits
    out_dir = Path(args.out)
    generated_at = datetime.now(timezone.utc).isoformat(timespec="seconds")
    _write(out_dir / "matrix.md", emit_matrix(audits, "markdown"), generated_at)
    _write(out_dir / "matrix.csv", emit_matrix(audits, "csv"), generated_at)
    _write(out_dir / "matrix.json", emit_matrix(audits, "json"), generated_at)

    if audits:
        summary = summarize(audits)
        _write(out_dir / "summary.md", emit_summary_markdown(summary), generated_at)
        _write(out_dir / "summary.json", summary_to_json(summary), generated_at)
    _write(out_dir / "smog.csv", emit_smog_csv(audits), generated_at)

    for audit_item in audits:
        body = emit_app_report(audit_item, reveal_names=args.reveal_names)
        _write(out_dir / "apps" / f"{audit_item.record.pseudonym}.md", body, generated_at)

    run_meta = {
        "generated_at": generated_at,
        "codebook": args.codebook,
        "cache": str(cache_dir),
        "rules": str(rules_path),
        "apps": [{"app": a.record.pseudonym, "accessible": a.accessible,
                  "overall": a.profile.overall} for a in audits],
        "detector_agreement": result.agreement(),
    }
    _write(out_dir / "run.json", json.dumps(run_meta, indent=2) + "\n", generated_at)
    # An earlier run's reports of other apps, and its summary if this run has none.
    pseudonyms = {a.record.pseudonym for a in audits}
    stale = [path for path in (out_dir / "apps").glob("*.md")
             if PSEUDONYM_RE.match(path.stem) and path.stem not in pseudonyms]
    if not audits:
        stale += [out_dir / "summary.md", out_dir / "summary.json"]
    for path in stale:
        try:
            path.unlink(missing_ok=True)
        except OSError as exc:
            raise PrafError(f"cannot remove {path}: {exc}") from exc
    print(f"audited {len(audits)} apps -> {out_dir}")
    agreement = run_meta["detector_agreement"]
    if agreement["rate"] is not None:
        print(f"detector/annotation agreement: {agreement['agreeing_cells']}"
              f"/{agreement['annotated_cells']} cells ({agreement['rate']:.1%})")
    return EXIT_OK


def verify(args: argparse.Namespace) -> int:
    """Diff the profiles recomputed from annotations against the reference results."""
    # Imported here so that audit and fetch do not load the verify module.
    from .verify import load_reference, render_report, run_verify
    codebook, expected = args.codebook, args.expected
    cb = load_codebook(codebook)
    reference = load_reference(expected)
    try:
        report = run_verify(cb, reference)
    except PrafError as exc:
        _fail(EXIT_CONFIG, f"reference results {expected} do not fit codebook {codebook}: {exc}")
    print(render_report(report), end="")
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def _path(value: str) -> str:
    """A path option's value: any string but the empty one, which names no file."""
    if not value:
        raise argparse.ArgumentTypeError("a path must not be empty")
    return value


def _jobs(value: str) -> int:
    if not value.strip().removeprefix("+").isdecimal() or int(value) < 1:
        raise argparse.ArgumentTypeError(f"{value!r} is not an integer of at least 1")
    return int(value)


def _parser(prog: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog=prog, allow_abbrev=False,
                                     description="Privacy-policy risk audits of healthcare apps.")
    commands = parser.add_subparsers(title="commands", metavar="COMMAND", required=True)
    def command(run, codebook_help: str = "Codebook JSON file") -> argparse.ArgumentParser:
        sub = commands.add_parser(run.__name__, help=run.__doc__, description=run.__doc__,
                                  allow_abbrev=False)
        sub.set_defaults(run=run)
        sub.add_argument("--codebook", type=_path, default=str(FIXTURES_DIR / "codebook.json"),
                         help=codebook_help + " (default: %(default)s).")
        return sub

    add = command(fetch).add_argument
    add("--cache", type=_path, help="Cache directory; offline, defaults to the bundled fixtures.")
    add("--offline", action="store_true", help="Never touch the network; replay the cache.")
    add("--jobs", type=_jobs, default=pipeline.DEFAULT_JOBS,
        help="Concurrent fetch workers (default: %(default)s).")
    add("--respect-robots", dest="respect_robots", action="store_true", default=True,
        help="Obey robots.txt (the default).")
    add("--ignore-robots", dest="respect_robots", action="store_false",
        help="Fetch pages that robots.txt disallows.")
    add = command(audit).add_argument
    add("--cache", type=_path, help="Cache directory (defaults to the bundled fixtures).")
    add("--rules", type=_path, default=str(default_rules_path()),
        help="Detection rule file (default: %(default)s).")
    add("--out", type=_path, default="praf-out",
        help="Output directory for report artifacts (default: %(default)s).")
    add("--jobs", type=int, help=argparse.SUPPRESS)  # accepted and ignored: audit runs serially
    add("--reveal-names", action="store_true",
        help="Include real app names in per-app reports (redacted by default).")
    add = command(verify, "Codebook with the reference annotations").add_argument
    add("--expected", type=_path, default=str(FIXTURES_DIR / "reference_results.json"),
        help="Reference results file (default: %(default)s).")
    return parser


def main(args: list[str] | None = None, prog_name: str = "praf",
         standalone_mode: bool = True) -> None:
    """Run one command and exit with its code; ``standalone_mode`` is ignored."""
    parsed = _parser(prog_name).parse_args(args)
    try:
        code = parsed.run(parsed)
    except PrafError as exc:
        _fail(EXIT_CONFIG, str(exc))
    sys.exit(code)


main.main = main  # click's call, which perfbench/child_audit.py still makes

if __name__ == "__main__":
    main()
