"""Command-line interface: fetch, audit, verify.

Exit codes: 0 success, 1 verification failure, 2 configuration or input
error (a PrafError, naming the input at fault), 3 incomplete inputs (an app
with neither a cached document nor complete annotations). Defaults point at
the bundled reference fixtures so `praf audit` and `praf verify` work out of
the box. Every audit writes one artifact set with one time, read once per
run: the header line of each markdown artifact and run.json's generated_at,
the only places a time appears. What an earlier audit into the same
directory wrote and this one did not is deleted, so it holds one set.
"""

from __future__ import annotations

import json
import sys
from datetime import datetime, timezone
from pathlib import Path

import click

from . import pipeline
from .corpus import PSEUDONYM_RE, load_codebook
from .detect import default_rules_path, load_rules
from .errors import PrafError
from .ingest import atomic_write
from .report import (
    emit_app_report,
    emit_matrix,
    emit_smog_csv,
    emit_summary_markdown,
    summarize,
    summary_to_json,
)

DATA_DIR = Path(__file__).parent / "data"
FIXTURES_DIR = DATA_DIR / "fixtures"

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_INCOMPLETE = 3


def _fail(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _resolve_cache(cache: str | None, *, writable: bool) -> Path:
    if cache:
        return Path(cache)
    if writable:
        _fail(EXIT_CONFIG, "no writable cache directory; pass --cache")
    return FIXTURES_DIR / "cache"


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _write(path: Path, body: str, generated_at: str) -> None:
    if path.suffix == ".md":
        body = f"<!-- generated: {generated_at} -->\n" + body
    atomic_write(path, body)


class _Commands(click.Group):
    """Every PrafError that a command raises exits 2 with its message."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except PrafError as exc:
            _fail(EXIT_CONFIG, str(exc))


@click.group(cls=_Commands)
def main() -> None:
    """Privacy-policy risk auditing for healthcare apps."""


@main.command()
@click.option("--codebook", type=click.Path(), default=str(FIXTURES_DIR / "codebook.json"),
              show_default=True, help="Codebook JSON file.")
@click.option("--cache", type=click.Path(), default=None,
              help="Cache directory; offline, defaults to the bundled fixtures.")
@click.option("--offline", is_flag=True, help="Never touch the network; replay the cache.")
@click.option("--jobs", type=click.IntRange(min=1), default=pipeline.DEFAULT_JOBS,
              show_default=True, help="Concurrent fetch workers.")
@click.option("--respect-robots/--ignore-robots", default=True, show_default=True)
def fetch(codebook, cache, offline, jobs, respect_robots):
    """Fetch privacy policies into the cache and print a status manifest."""
    cb = load_codebook(codebook)
    cache_dir = _resolve_cache(cache, writable=not offline)
    manifest = pipeline.fetch_corpus(
        cb, cache_dir, offline=offline, jobs=jobs, respect_robots=respect_robots,
    )
    click.echo(json.dumps({"cache": str(cache_dir), "apps": manifest}, indent=2))


@main.command()
@click.option("--codebook", type=click.Path(), default=str(FIXTURES_DIR / "codebook.json"),
              show_default=True, help="Codebook JSON file.")
@click.option("--cache", type=click.Path(), default=None,
              help="Cache directory (defaults to the bundled fixtures).")
@click.option("--rules", type=click.Path(), default=str(default_rules_path()),
              show_default=True, help="Detection rule file.")
@click.option("--out", type=click.Path(), default="praf-out", show_default=True,
              help="Output directory for report artifacts.")
@click.option("--jobs", type=int, default=None, hidden=True,
              help="Accepted for compatibility and ignored; audit runs serially.")
@click.option("--reveal-names", is_flag=True,
              help="Include real app names in per-app reports (redacted by default).")
def audit(codebook, cache, rules, out, jobs, reveal_names):
    """Score every app from cached policies + annotations and write reports."""
    cb = load_codebook(codebook)
    rules_path = Path(rules)
    ruleset = load_rules(rules_path)
    cache_dir = _resolve_cache(cache, writable=False)
    result = pipeline.run_audit(cb, cache_dir, ruleset)
    if result.incomplete:
        _fail(EXIT_INCOMPLETE,
              "no cached policy and incomplete annotations for: " + ", ".join(result.incomplete))
    audits = result.audits

    out_dir = Path(out)
    generated_at = _timestamp()
    _write(out_dir / "matrix.md", emit_matrix(audits, "markdown"), generated_at)
    _write(out_dir / "matrix.csv", emit_matrix(audits, "csv"), generated_at)
    _write(out_dir / "matrix.json", emit_matrix(audits, "json"), generated_at)

    if audits:
        summary = summarize(audits)
        _write(out_dir / "summary.md", emit_summary_markdown(summary), generated_at)
        _write(out_dir / "summary.json", summary_to_json(summary), generated_at)
    _write(out_dir / "smog.csv", emit_smog_csv(audits), generated_at)

    for audit_item in audits:
        body = emit_app_report(audit_item, reveal_names=reveal_names)
        _write(out_dir / "apps" / f"{audit_item.record.pseudonym}.md", body, generated_at)

    run_meta = {
        "generated_at": generated_at,
        "codebook": str(codebook),
        "cache": str(cache_dir),
        "rules": str(rules_path),
        "apps": [
            {
                "app": a.record.pseudonym,
                "accessible": a.accessible,
                "overall": a.profile.overall,
            }
            for a in audits
        ],
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
    click.echo(f"audited {len(audits)} apps -> {out_dir}")
    agreement = run_meta["detector_agreement"]
    if agreement["rate"] is not None:
        click.echo(
            f"detector/annotation agreement: {agreement['agreeing_cells']}"
            f"/{agreement['annotated_cells']} cells ({agreement['rate']:.1%})"
        )


@main.command()
@click.option("--codebook", type=click.Path(), default=str(FIXTURES_DIR / "codebook.json"),
              show_default=True, help="Codebook with the reference annotations.")
@click.option("--expected", type=click.Path(),
              default=str(FIXTURES_DIR / "reference_results.json"),
              show_default=True, help="Reference results file.")
def verify(codebook, expected):
    """Recompute all profiles from annotations and diff them against the
    bundled reference results."""
    # Imported here so that audit and fetch do not load the verify module.
    from .verify import load_reference, render_report, run_verify
    cb = load_codebook(codebook)
    reference = load_reference(expected)
    try:
        report = run_verify(cb, reference)
    except PrafError as exc:
        _fail(EXIT_CONFIG, f"reference results {expected} do not fit codebook {codebook}: {exc}")
    click.echo(render_report(report), nl=False)
    sys.exit(EXIT_OK if report.passed else EXIT_VERIFY_FAILED)


if __name__ == "__main__":
    main()
