"""Tests of the benchmark itself: deterministic inputs, output checks that
reject tampered artifacts, and printed names that match BENCHMARK.json.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402

def _audit(out: Path, *args: str) -> None:
    env = run.child_env()
    subprocess.run([sys.executable, "-m", "praf.cli", "audit", "--out", str(out), "--jobs", "2",
                    *args], cwd=ROOT, env=env, check=True, capture_output=True, timeout=120)


def _edit_matrix(out: Path, app: str, column: str, value) -> None:
    path = out / "matrix.json"
    data = json.loads(path.read_text())
    for row in data["rows"]:
        if row["pseudonym"] == app:
            row[column] = value
    path.write_text(json.dumps(data))


def _flip(verdict: str) -> str:
    return "no" if verdict == "yes" else "yes"


# --- generator ---------------------------------------------------------------------------


def test_long_policy_is_deterministic_per_seed(tmp_path):
    a = inputs.build_long_policy(5, tmp_path / "a")
    b = inputs.build_long_policy(5, tmp_path / "b")
    assert a.codebook_path.read_bytes() == b.codebook_path.read_bytes()
    files_a = {p.name: p.read_bytes() for p in a.cache_dir.iterdir()}
    files_b = {p.name: p.read_bytes() for p in b.cache_dir.iterdir()}
    assert files_a == files_b
    assert inputs.long_policy_texts(5) != inputs.long_policy_texts(6)


def test_long_policy_shape():
    docs = inputs.long_policy_texts(3)
    assert len(docs) == inputs.LONG_POLICY_APPS
    lo, hi = inputs.LONG_POLICY_TEXT_BYTES
    assert all(lo <= len(text) <= hi + 2_000 for _, text, _ in docs)


def test_long_policy_sentences_are_mostly_distinct(tmp_path):
    corpus = inputs.build_long_policy(7, tmp_path)
    assert corpus.distinct_sentences / corpus.sentences >= 0.9


def test_site_is_deterministic_per_seed():
    a, b, c = inputs.build_site(4), inputs.build_site(4), inputs.build_site(9)
    assert a.pages == b.pages and a.intended == b.intended and a.texts == b.texts
    assert a.pages != c.pages
    lo, hi = inputs.FETCH_PAGE_BYTES
    assert all(lo * 0.9 <= len(body) <= hi * 1.1 for body in a.pages.values())


def test_pages_extract_to_the_wrapped_text():
    from praf.ingest import extract_text

    site = inputs.build_site(2)
    for name, url in site.apps:
        if site.intended[name] == "accessible":
            assert extract_text(site.pages[url], "text/html; charset=utf-8") == site.texts[name]


# --- output checks -------------------------------------------------------------------------


@pytest.fixture(scope="module")
def ref28_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("ref28") / "out"
    _audit(out)
    return out


@pytest.fixture
def ref28(ref28_out, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(ref28_out, out)
    workload = run.AuditCli("ref28-cli")
    workload.prepare(run.Context(seed=1, jobs=2, work=tmp_path, env=run.child_env()))
    return out, workload


def _ref28_problems(out, workload):
    return (checks.check_matrix(out, workload.apps)
            + checks.check_ref28(out, workload.reference, workload.overrides))


def test_ref28_check_accepts_the_audit(ref28):
    assert _ref28_problems(*ref28) == []


def test_ref28_check_rejects_a_flipped_verdict(ref28):
    out, workload = ref28
    row = checks.matrix_rows(out)["A3"]
    _edit_matrix(out, "A3", "data_encryption", _flip(row["data_encryption"]))
    problems = _ref28_problems(out, workload)
    assert problems and {app for app, _ in problems} == {"A3"}


def test_ref28_check_rejects_a_changed_score(ref28):
    out, workload = ref28
    _edit_matrix(out, "A5", "third_party", 1 if checks.matrix_rows(out)["A5"]["third_party"] == 2 else 2)
    assert {app for app, _ in _ref28_problems(*ref28)} == {"A5"}


def test_ref28_check_rejects_a_broken_waiver(ref28):
    out, workload = ref28
    _edit_matrix(out, "A2", "usability_accessibility", 7)
    _edit_matrix(out, "A2", "overall_risk", 20)
    assert _ref28_problems(*ref28)


def test_ref28_check_rejects_lost_agreement(ref28):
    out, _ = ref28
    meta = json.loads((out / "run.json").read_text())
    meta["detector_agreement"]["agreeing_cells"] = 350
    (out / "run.json").write_text(json.dumps(meta))
    assert [app for app, _ in _ref28_problems(*ref28)] == [None]


def test_digest_check_rejects_a_changed_artifact(ref28):
    out, _ = ref28
    before = checks.artifact_digests(out)
    report = out / "apps" / "A7.md"
    report.write_text(report.read_text().replace("Overall risk score", "Overall score"))
    problems = checks.compare_digests(checks.artifact_digests(out), before)
    assert [app for app, _ in problems] == ["A7"]


def test_digest_ignores_the_timestamp_comment(ref28):
    out, _ = ref28
    before = checks.artifact_digests(out)
    path = out / "matrix.md"
    lines = path.read_text().split("\n", 1)
    path.write_text("<!-- generated: 1999-01-01T00:00:00+00:00 -->\n" + lines[1])
    assert checks.artifact_digests(out) == before


@pytest.fixture(scope="module")
def long_policy(tmp_path_factory):
    work = tmp_path_factory.mktemp("long")
    corpus = inputs.build_long_policy(run.DEFAULT_SEED, work / "corpus")
    out = work / "out"
    _audit(out, "--codebook", str(corpus.codebook_path), "--cache", str(corpus.cache_dir))
    return out


def test_long_policy_default_seed_matches_recorded_digest(long_policy):
    recorded = json.loads((BENCH / "expected.json").read_text())["long-policy"]
    assert recorded["seed"] == run.DEFAULT_SEED
    assert checks.compare_digests(checks.artifact_digests(long_policy), recorded["digests"]) == []
    apps = [f"A{i}" for i in range(1, inputs.LONG_POLICY_APPS + 1)]
    assert checks.check_matrix(long_policy, apps) == []
    assert checks.check_all_accessible(long_policy) == []


def test_long_policy_checks_reject_a_flipped_verdict(long_policy, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(long_policy, out)
    row = checks.matrix_rows(out)["A4"]
    _edit_matrix(out, "A4", "data_minimization", _flip(row["data_minimization"]))
    apps = [f"A{i}" for i in range(1, inputs.LONG_POLICY_APPS + 1)]
    assert {app for app, _ in checks.check_matrix(out, apps)} == {"A4"}
    recorded = json.loads((BENCH / "expected.json").read_text())["long-policy"]["digests"]
    assert checks.compare_digests(checks.artifact_digests(out), recorded)


def test_rubric_bounds_reject_an_out_of_range_score():
    row = {"pseudonym": "A1", "level": "P", "hipaa": "yes", "gdpr": "yes",
           "other_regulations": "no", **{c: "yes" for c in checks.VERDICT_COLUMNS
                                        if c not in ("hipaa", "gdpr", "other_regulations")}}
    row.update(checks.rubric_scores(row))
    row["usability_accessibility"] = 13
    row["overall_risk"] += 8
    assert any("outside" in msg for _, msg in checks.check_matrix_rows({"A1": row}))


@pytest.fixture
def fetched(tmp_path):
    from praf import pipeline

    site = inputs.build_site(3)
    codebook = inputs.fetch_codebook(site)
    cache = tmp_path / "cache"
    manifest = pipeline.fetch_corpus(codebook, cache, jobs=2, transport=site, respect_robots=True)
    return manifest, site, codebook, cache


def test_fetch_check_accepts_the_fetch(fetched):
    manifest, site, codebook, cache = fetched
    assert checks.check_fetch(*fetched) == []
    apps = len(codebook.records)
    assert site.gets == 2 * apps - inputs.FETCH_ROBOTS_BLOCKED


def test_fetch_check_rejects_a_changed_status(fetched):
    manifest, site, codebook, cache = fetched
    entry = next(e for e in manifest if e["status"] == "accessible")
    entry["status"] = "inaccessible"
    assert [app for app, _ in checks.check_fetch(*fetched)] == [entry["app"]]


def test_fetch_check_rejects_a_changed_cache_text(fetched):
    from dataclasses import replace

    from praf.ingest import cache_get, cache_put

    manifest, site, codebook, cache = fetched
    rec = next(r for r in codebook.records if site.intended[r.real_name] == "accessible")
    doc = cache_get(cache, rec.policy_url)
    cache_put(cache, rec.policy_url, replace(doc, text=doc.text.replace("We ", "They ", 1)))
    assert [app for app, _ in checks.check_fetch(*fetched)] == [rec.pseudonym]


def test_fetch_check_rejects_a_missing_cache_entry(fetched):
    manifest, site, codebook, cache = fetched
    for path in cache.iterdir():
        path.unlink()
    assert len(checks.check_fetch(*fetched)) == len(codebook.records)


# --- names ---------------------------------------------------------------------------------


def test_failed_apps_counts_global_problems_against_every_app():
    assert checks.failed_apps([], ["A1", "A2"]) == 0
    assert checks.failed_apps([("A2", "x"), ("A2", "y")], ["A1", "A2"]) == 1
    assert checks.failed_apps([(None, "x")], ["A1", "A2"]) == 2


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_printed_names_match_benchmark_json(workload, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    out = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                          "--seed", "2", "--seconds", "0", "--trace", str(trace)],
                         cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    section = spec["per_layer" if trace else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in section}
    if trace and workload == "ref28-cli":
        assert result["metrics"]["readability.sentence_spans.calls_per_doc"]["value"] == 12
        assert result["metrics"]["ingest.cache_get.calls"]["value"] == 2


def test_refuses_to_run_without_praf_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in BENCH.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench" / path.name)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ref28-cli",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert out.stdout == ""
