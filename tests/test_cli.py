import itertools
import json
import os
import shutil
import subprocess
import sys
import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path
from types import SimpleNamespace

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import praf
from praf.cli import main

FIXTURES = Path(__file__).parents[1] / "src" / "praf" / "data" / "fixtures"
RULES = FIXTURES.parent / "rules.json"


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, args, **kwargs):
    return runner.invoke(main, args, **kwargs)


def edited(path: Path, edit) -> dict:
    """The JSON file at path after ``edit`` changed it in place."""
    data = json.loads(path.read_text())
    edit(data)
    return data


class TestFetch:
    def test_offline_replay_of_fixture_cache(self, runner):
        result = invoke(runner, ["fetch", "--offline", "--cache", str(FIXTURES / "cache")])
        assert result.exit_code == 0
        manifest = json.loads(result.output)
        statuses = {a["app"]: a["status"] for a in manifest["apps"]}
        assert len(statuses) == 28
        assert sum(1 for s in statuses.values() if s == "accessible") == 27
        assert statuses["A24"] == "inaccessible"

    def test_offline_cold_cache_gives_no_cache(self, runner, tmp_path):
        result = invoke(runner, ["fetch", "--offline", "--cache", str(tmp_path / "cold")])
        assert result.exit_code == 0
        manifest = json.loads(result.output)
        assert all(a["status"] == "inaccessible" for a in manifest["apps"])
        assert all(a["reason"] == "no_cache" for a in manifest["apps"])

    def test_empty_codebook(self, runner, tmp_path):
        cb = tmp_path / "empty.json"
        cb.write_text(json.dumps({"records": [], "annotations": []}))
        result = invoke(runner, ["fetch", "--offline", "--codebook", str(cb)])
        assert result.exit_code == 0
        assert json.loads(result.output)["apps"] == []

    def test_online_without_cache_dir_is_config_error(self, runner):
        result = invoke(runner, ["fetch"])
        assert result.exit_code == 2
        assert result.output == "error: no writable cache directory; pass --cache\n"

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_is_a_usage_error(self, runner, jobs):
        result = invoke(runner, ["fetch", "--offline", "--jobs", jobs])
        assert result.exit_code == 2
        assert "Invalid value for '--jobs'" in result.output

    def test_malformed_codebook_exit_2(self, runner, tmp_path):
        cb = tmp_path / "bad.json"
        cb.write_text("{broken")
        result = invoke(runner, ["fetch", "--offline", "--codebook", str(cb)])
        assert result.exit_code == 2


class TestAudit:
    def test_default_fixtures_full_run(self, runner, tmp_path):
        out = tmp_path / "out"
        result = invoke(runner, ["audit", "--out", str(out)])
        assert result.exit_code == 0
        written = {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}
        assert written == {"matrix.md", "matrix.csv", "matrix.json", "summary.md",
                           "summary.json", "smog.csv", "run.json",
                           *(f"apps/A{i}.md" for i in range(1, 29))}
        run = json.loads((out / "run.json").read_text())
        assert run["detector_agreement"]["rate"] == 1.0

    def test_every_markdown_stamp_is_the_run_time(self, runner, tmp_path, monkeypatch):
        """With a clock that moves on at every reading, each markdown file
        opens with the time that run.json records, and no other file does."""
        ticks = itertools.count()
        start = datetime(2025, 1, 15, tzinfo=timezone.utc)
        monkeypatch.setattr("praf.cli.datetime", SimpleNamespace(
            now=lambda tz: start + timedelta(seconds=next(ticks))))
        out = tmp_path / "out"
        assert invoke(runner, ["audit", "--out", str(out)]).exit_code == 0
        stamp = f"<!-- generated: {json.loads((out / 'run.json').read_text())['generated_at']} -->"
        for path in filter(Path.is_file, out.rglob("*")):
            assert (path.read_text().split("\n", 1)[0] == stamp) == (path.suffix == ".md"), path

    def test_out_holds_only_the_latest_run(self, runner, tmp_path):
        """Audits of the bundled corpus, of its app A1 alone and of no app,
        run into one directory, each leave their own set and nothing of an
        earlier run; a file that no audit writes stays, and a stale report
        that cannot be removed ends in exit 2."""
        bundled = json.loads((FIXTURES / "codebook.json").read_text())
        one = tmp_path / "one.json"
        one.write_text(json.dumps({
            "records": [r for r in bundled["records"] if r["pseudonym"] == "A1"],
            "annotations": [a for a in bundled["annotations"] if a["app"] == "A1"]}))
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"records": []}))
        out = tmp_path / "out"
        matrix = {"matrix.md", "matrix.csv", "matrix.json", "smog.csv", "run.json"}
        summary = {"summary.md", "summary.json"}
        for codebook, n_files, apps in [(FIXTURES / "codebook.json", 35, range(1, 29)),
                                        (one, 8, [1]), (empty, 5, [])]:
            result = invoke(runner, ["audit", "--codebook", str(codebook), "--out", str(out)])
            assert result.exit_code == 0, result.output
            written = {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}
            assert written == matrix | (summary if apps else set()) | {f"apps/A{i}.md"
                                                                        for i in apps}
            assert len(written) == n_files
        (out / "apps" / "A7.md").write_text("an earlier run's report")
        for name in ["notes.txt", "apps/notes.md", "apps/A7.md.bak"]:
            (out / name).write_text("not an artifact")
        assert invoke(runner, ["audit", "--codebook", str(one), "--out", str(out)]).exit_code == 0
        written = {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}
        assert written == matrix | summary | {"apps/A1.md", "notes.txt", "apps/notes.md",
                                              "apps/A7.md.bak"}
        (out / "apps" / "A7.md").mkdir()
        result = invoke(runner, ["audit", "--codebook", str(one), "--out", str(out)])
        assert result.exit_code == 2
        assert result.output.startswith(f"error: cannot remove {out / 'apps' / 'A7.md'}: ")

    def test_jobs_is_accepted_and_ignored(self, runner, tmp_path):
        outputs = []
        for extra in ([], ["--jobs", "4"]):
            out = tmp_path / f"out{len(extra)}"
            result = invoke(runner, ["audit", "--out", str(out), *extra])
            assert result.exit_code == 0
            outputs.append((out / "matrix.json").read_bytes())
        assert outputs[0] == outputs[1]
        assert "--jobs" not in invoke(runner, ["audit", "--help"]).output

    def test_missing_rules_exit_2_names_path(self, runner, tmp_path):
        missing = tmp_path / "nope-rules.json"
        result = invoke(runner, ["audit", "--rules", str(missing), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2
        assert "nope-rules.json" in result.output

    def test_out_below_a_file_exit_2(self, runner, tmp_path):
        blocker = tmp_path / "some_file"
        blocker.write_text("not a directory")
        result = invoke(runner, ["audit", "--out", str(blocker / "sub")])
        assert result.exit_code == 2
        assert result.output.startswith("error: ")
        assert "some_file" in result.output

    def test_corrupt_cache_entry_exit_2_names_file(self, runner, tmp_path):
        cache = tmp_path / "cache"
        shutil.copytree(FIXTURES / "cache", cache)
        entry = sorted(cache.glob("*.json"))[0]
        # An accessible document whose text is only whitespace has no sentence.
        blank = json.dumps({**json.loads(entry.read_text()), "text": "   \n  "})
        for body in ["{truncated", blank]:
            entry.write_text(body)
            audit = invoke(runner, ["audit", "--cache", str(cache), "--out", str(tmp_path / "o")])
            fetch = invoke(runner, ["fetch", "--offline", "--cache", str(cache)])
            for result in (audit, fetch):
                assert result.exit_code == 2
                assert result.output.startswith(f"error: corrupt cache entry {entry}")

    @pytest.mark.parametrize("value", [7, "/etc/hostname", "file:///etc/hostname",
                                       "data:text/plain,x", "ftp://h/p", "",
                                       "http://u%5B@h.example/p"])
    @pytest.mark.parametrize("command", ["audit", "fetch"])
    def test_policy_url_not_http_exit_2_names_record(self, runner, tmp_path, monkeypatch,
                                                     command, value):
        monkeypatch.setattr("praf.pipeline.UrllibTransport",
                            lambda: pytest.fail("fetch built an HTTP client"))
        data = json.loads((FIXTURES / "codebook.json").read_text())
        data["records"][2]["policy_url"] = value
        cb = tmp_path / "cb.json"
        cb.write_text(json.dumps(data))
        cache = tmp_path / "cache"
        args = ["--out", str(tmp_path / "o")] if command == "audit" else []
        result = invoke(runner, [command, "--codebook", str(cb), "--cache", str(cache), *args])
        assert result.exit_code == 2
        assert result.output.startswith("error: ")
        assert "(at records[2].policy_url)" in result.output
        assert not cache.exists()

    @pytest.mark.parametrize("command, option, edit, locator", [
        *(pytest.param(command, "--codebook", edit, locator, id=f"{name}-{command}")
          for name, edit, locator in [
              ("records", lambda cb: cb.update(records=5), "records"),
              ("annotations", lambda cb: cb.update(annotations=5), "annotations"),
              ("annotation-app", lambda cb: cb["annotations"][0].update(app=[1]),
               "annotations[0].app"),
          ]
          for command in ["audit", "verify"]),
        *(pytest.param("audit", "--rules",
                       lambda r, v=value: r["vague_commitments"]["thresholds"].update(
                           yes_sentences=v),
                       "vague_commitments.thresholds.yes_sentences", id=f"threshold-{value}")
          for value in [float("nan"), float("inf"), True, 2.5]),
        *(pytest.param("audit", "--rules", edit, locator, id=name)
          for name, edit, locator in [
              ("empty-strong-pattern", lambda r: r["hipaa_mention"]["strong"].append(""),
               "hipaa_mention.strong[2]"),
              ("empty-weak-pattern", lambda r: r["data_encryption"]["weak"].append(" "),
               "data_encryption.weak[3]"),
              ("threshold-misspelled",
               lambda r: r["vague_commitments"]["thresholds"].update(yes_sentence=1),
               "vague_commitments.thresholds.yes_sentence"),
              ("threshold-deleted",
               lambda r: r["ambiguous_language"]["thresholds"].pop("yes_density"),
               "ambiguous_language.thresholds.yes_density"),
              ("thresholds-of-a-phrase-dimension",
               lambda r: r["hipaa_mention"].update(thresholds={"yes_density": 0.5}),
               "hipaa_mention.thresholds"),
          ]),
    ])
    def test_codebook_or_rules_field_of_the_wrong_shape_exit_2_names_file_and_field(
            self, runner, tmp_path, command, option, edit, locator):
        source = FIXTURES / "codebook.json" if option == "--codebook" else RULES
        bad = tmp_path / f"odd-{source.name}"
        bad.write_text(json.dumps(edited(source, edit)))
        args = ["--out", str(tmp_path / "o")] if command == "audit" else []
        result = invoke(runner, [command, option, str(bad), *args])
        assert result.exit_code == 2
        assert result.output.startswith("error: ")
        assert bad.name in result.output and f"(at {locator})" in result.output

    @pytest.mark.parametrize("command", ["audit", "fetch"])
    def test_cache_entry_with_non_string_text_exit_2_names_file(self, runner, tmp_path, command):
        cache = tmp_path / "cache"
        shutil.copytree(FIXTURES / "cache", cache)
        entry = sorted(cache.glob("*.json"))[0]
        data = json.loads(entry.read_text())
        data["text"] = 5
        entry.write_text(json.dumps(data))
        args = ["--out", str(tmp_path / "o")] if command == "audit" else ["--offline"]
        result = invoke(runner, [command, "--cache", str(cache), *args])
        assert result.exit_code == 2
        assert result.output.startswith("error: ")
        assert entry.name in result.output

    def test_missing_doc_and_annotations_exit_3(self, runner, tmp_path):
        cb = tmp_path / "cb.json"
        cb.write_text(json.dumps({
            "records": [{"pseudonym": "A1", "real_name": None, "category": "Telehealth",
                         "policy_url": "https://a1.example/privacy", "store_source": "other"}],
            "annotations": [],
        }))
        result = invoke(runner, [
            "audit", "--codebook", str(cb), "--cache", str(tmp_path / "cold"),
            "--out", str(tmp_path / "o"),
        ])
        assert result.exit_code == 3
        assert "A1" in result.output

    def test_fully_annotated_app_without_document_scores_zero(self, runner, tmp_path):
        fixture_cb = json.loads((FIXTURES / "codebook.json").read_text())
        one = {
            "records": [r for r in fixture_cb["records"] if r["pseudonym"] == "A1"],
            "annotations": [a for a in fixture_cb["annotations"] if a["app"] == "A1"],
        }
        cb = tmp_path / "cb.json"
        cb.write_text(json.dumps(one))
        out = tmp_path / "o"
        result = invoke(runner, [
            "audit", "--codebook", str(cb), "--cache", str(tmp_path / "cold"),
            "--out", str(out),
        ])
        assert result.exit_code == 0
        rows = json.loads((out / "matrix.json").read_text())["rows"]
        assert rows[0]["overall_risk"] == 0
        assert rows[0]["smog"] is None

    def test_redaction_and_reveal(self, runner, tmp_path):
        fixture_cb = json.loads((FIXTURES / "codebook.json").read_text())
        fixture_cb["records"][0]["real_name"] = "Acme Telecare Suite"
        cb = tmp_path / "cb.json"
        cb.write_text(json.dumps(fixture_cb))
        out_hidden = tmp_path / "hidden"
        out_shown = tmp_path / "shown"
        assert invoke(runner, ["audit", "--codebook", str(cb), "--out", str(out_hidden)]).exit_code == 0
        assert invoke(runner, ["audit", "--codebook", str(cb), "--out", str(out_shown),
                               "--reveal-names"]).exit_code == 0
        hidden_text = "".join(p.read_text() for p in out_hidden.rglob("*") if p.is_file())
        assert "Acme Telecare Suite" not in hidden_text
        assert "Acme Telecare Suite" in (out_shown / "apps" / "A1.md").read_text()

    def test_single_app_corpus(self, runner, tmp_path):
        fixture_cb = json.loads((FIXTURES / "codebook.json").read_text())
        one = {
            "records": [r for r in fixture_cb["records"] if r["pseudonym"] == "A1"],
            "annotations": [a for a in fixture_cb["annotations"] if a["app"] == "A1"],
        }
        cb = tmp_path / "cb.json"
        cb.write_text(json.dumps(one))
        out = tmp_path / "o"
        result = invoke(runner, [
            "audit", "--codebook", str(cb), "--cache", str(FIXTURES / "cache"),
            "--out", str(out),
        ])
        assert result.exit_code == 0
        lines = (out / "matrix.csv").read_text().strip().split("\n")
        assert len(lines) == 2


class TestVerify:
    def test_shipped_fixtures_pass(self, runner):
        result = invoke(runner, ["verify"])
        assert result.exit_code == 0
        assert "verification: PASS" in result.output
        assert "WAIVED A2 usability" in result.output
        assert "WAIVED A2 overall" in result.output

    def test_tampered_fixture_fails_with_cell_diff(self, runner, tmp_path):
        data = json.loads((FIXTURES / "codebook.json").read_text())
        for ann in data["annotations"]:
            if ann["app"] == "A1":
                ann["overrides"]["breach_protocol"] = "no"
        cb = tmp_path / "tampered.json"
        cb.write_text(json.dumps(data))
        result = invoke(runner, ["verify", "--codebook", str(cb)])
        assert result.exit_code == 1
        assert "FAIL A1 security: computed 5 != reference 6" in result.output
        assert "FAIL A1 overall: computed 22 != reference 23" in result.output

    def test_missing_expectations_exit_2(self, runner, tmp_path):
        result = invoke(runner, ["verify", "--expected", str(tmp_path / "none.json")])
        assert result.exit_code == 2

    def test_no_app_in_codebook_or_reference_exit_2(self, runner, tmp_path):
        codebook = tmp_path / "empty.json"
        codebook.write_text(json.dumps({"records": []}))
        expected = tmp_path / "no-apps.json"
        expected.write_text(json.dumps(edited(FIXTURES / "reference_results.json",
                                              lambda r: r.update(apps=[]))))
        result = invoke(runner, ["verify", "--codebook", str(codebook),
                                 "--expected", str(expected)])
        assert result.exit_code == 2
        assert result.output == (f"error: reference results {expected} do not fit codebook "
                                 f"{codebook}: summarize needs at least one audit\n")

    def test_expectations_not_json_exit_2_names_file(self, runner, tmp_path):
        expected = tmp_path / "broken-reference.json"
        expected.write_text("{not json")
        result = invoke(runner, ["verify", "--expected", str(expected)])
        assert result.exit_code == 2
        assert result.output.startswith("error: ")
        assert "broken-reference.json" in result.output

    @pytest.mark.parametrize("body, locator", [
        pytest.param("{}", "apps", id="{}"),
        pytest.param("[]", None, id="[]"),
        pytest.param('{"apps": [7], "summary": {}}', "apps[0]",
                     id='{"apps": [7], "summary": {}}'),
        *(pytest.param(json.dumps(edited(FIXTURES / "reference_results.json", edit)), locator,
                       id=name)
          for name, edit, locator in [
              ("smog-deleted", lambda r: r["apps"][0].pop("smog"), "apps[0].smog"),
              ("smog-string", lambda r: r["apps"][0].update(smog="x"), "apps[0].smog"),
              ("scores-deleted", lambda r: r["apps"][0].pop("scores"), "apps[0].scores"),
              ("smog-below-intercept", lambda r: r["apps"][0].update(smog=1.0), "apps[0].smog"),
              ("counts-number", lambda r: r["summary"].update(counts=5), "summary.counts"),
              ("count-pair-short", lambda r: r["summary"]["counts"].update(hipaa=[1]),
               "summary.counts.hipaa"),
              ("means-deleted", lambda r: r["summary"].pop("means"), "summary.means"),
              ("waivers-number", lambda r: r.update(waivers=5), "waivers"),
              ("tolerance-string", lambda r: r["summary"]["tolerances"].update(mean="x"),
               "summary.tolerances.mean"),
              ("tolerance-deleted", lambda r: r["summary"]["tolerances"].pop("sd"),
               "summary.tolerances.sd"),
              ("tolerances-deleted", lambda r: r["summary"].pop("tolerances"),
               "summary.tolerances"),
              ("row-accessible", lambda r: r["apps"][0].update(accessible=True),
               "apps[0].accessible"),
              ("waiver-reference", lambda r: r["waivers"][0].update(reference=7),
               "waivers[0].reference"),
              ("waiver-field-level", lambda r: r["waivers"][0].update(field="level"),
               "waivers[0].field"),
              ("row-not-in-codebook",
               lambda r: r["apps"].append({**r["apps"][0], "pseudonym": "A99"}),
               "apps[28].pseudonym"),
          ]),
    ])
    def test_expectations_of_the_wrong_shape_exit_2_names_file(self, runner, tmp_path, body,
                                                               locator):
        expected = tmp_path / "odd-reference.json"
        expected.write_text(body)
        result = invoke(runner, ["verify", "--expected", str(expected)])
        assert result.exit_code == 2
        assert result.output.startswith("error: ")
        assert "odd-reference.json" in result.output
        assert locator is None or f"(at {locator})" in result.output

    @pytest.mark.parametrize("edit, fails", [
        pytest.param(lambda r: None, [], id="bundled"),
        pytest.param(lambda r: r["summary"]["counts"].update(hipaa=[8, 25.0]),
                     ["count.hipaa: computed 7 != target 8"], id="count"),
        pytest.param(lambda r: r["summary"]["counts"].update(gdpr=[5, 18.0]),
                     ["pct.gdpr: computed 17.9 != target 18.0"], id="percentage"),
        # The computed regulatory mean is 2.2143, and the mean tolerance 0.05.
        pytest.param(lambda r: r["summary"]["means"].update(regulatory=2.265),
                     ["mean.regulatory: computed 2.214 != target 2.265"],
                     id="mean-just-outside"),
        pytest.param(lambda r: r["summary"]["means"].update(regulatory=2.264), [],
                     id="mean-just-inside"),
        # The computed usability SD is 1.9444: within usability_sd (0.15) of
        # 2.09, though not within sd (0.05).
        pytest.param(lambda r: r["summary"]["sds"].update(usability=2.09), [],
                     id="usability-sd-inside"),
        pytest.param(lambda r: r["summary"]["sds"].update(usability=2.1),
                     ["sd.usability: computed 1.944 != target 2.1"], id="usability-sd-outside"),
        pytest.param(lambda r: r["summary"]["overall_min"].update(apps=["A4"]),
                     ["overall_min: computed [15, ['A4', 'A22']] != target [15, ['A4']]"],
                     id="overall-min-apps"),
        # Two huge grades: the SMOG mean is exact, so its sum cannot overflow.
        pytest.param(lambda r: [row.update(smog=1e308) for row in r["apps"][:2]],
                     ["mean.usability: computed 6.857 != target 6.96",
                      "mean.overall: computed 18.786 != target 18.89",
                      "smog_mean: computed 7.407407407407407e+306 != target 11.99"],
                     id="smog-huge"),
    ])
    def test_summary_targets_pass_or_fail_each_on_its_own_line(self, runner, tmp_path, edit,
                                                               fails):
        expected = tmp_path / "reference.json"
        expected.write_text(json.dumps(edited(FIXTURES / "reference_results.json", edit)))
        result = invoke(runner, ["verify", "--expected", str(expected)])
        lines = result.output.splitlines()
        assert [line for line in lines if line.startswith("FAIL summary ")] == [
            f"FAIL summary {fail}" for fail in fails]
        assert (result.exit_code, lines[-1]) == (
            (1, "verification: FAIL") if fails else (0, "verification: PASS"))

    def test_corpus_without_a_readable_policy_fails_the_smog_mean(self, runner, tmp_path):
        codebook = edited(FIXTURES / "codebook.json", lambda cb: cb.update(
            records=[r for r in cb["records"] if r["pseudonym"] == "A24"],
            annotations=[a for a in cb["annotations"] if a["app"] == "A24"]))
        reference = edited(FIXTURES / "reference_results.json", lambda r: r.update(
            apps=[row for row in r["apps"] if row["pseudonym"] == "A24"]))
        (tmp_path / "cb.json").write_text(json.dumps(codebook))
        (tmp_path / "ref.json").write_text(json.dumps(reference))
        result = invoke(runner, ["verify", "--codebook", str(tmp_path / "cb.json"),
                                 "--expected", str(tmp_path / "ref.json")])
        assert result.exit_code == 1
        assert "FAIL summary smog_mean: computed None != target 11.99" in result.output

    @pytest.mark.parametrize("args", [["verify", "--bogus"], ["audit", "--format", "json"]],
                             ids=" ".join)
    def test_unknown_flag_exit_2(self, runner, args):
        result = invoke(runner, args)
        assert result.exit_code == 2


def _paths(value, path=()):
    """The key/index path of every value inside value."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, item in items:
        yield (*path, key)
        yield from _paths(item, (*path, key))


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                  max_size=3),
    max_leaves=4)
_CACHE_ENTRIES = sorted((FIXTURES / "cache").glob("*.json"))


# No max_examples here, so that the "ci" profile of conftest.py can raise it.
@pytest.mark.ci_profile
@settings(deadline=None)
@given(st.data())
def test_one_bad_value_in_an_input_file_ends_in_a_stated_exit(data):
    """Replace one value at a random path of the bundled codebook, the rules
    file, the reference results or one cache entry with a random JSON value or
    a sibling value, or delete one key: audit exits 0, 2 or 3, verify 0, 1 or
    2 and an offline fetch 0 or 2, raising nothing but SystemExit, and a
    verify exit 1 reports FAIL."""
    inputs = {"--codebook": FIXTURES / "codebook.json", "--rules": RULES,
              "--expected": FIXTURES / "reference_results.json", "--cache": FIXTURES / "cache"}
    option = data.draw(st.sampled_from(sorted(inputs)))
    source = data.draw(st.sampled_from(_CACHE_ENTRIES)) if option == "--cache" else inputs[option]
    document = json.loads(source.read_text())
    path = data.draw(st.sampled_from(list(_paths(document))))
    parent = document
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent, dict) and data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        siblings = list(parent.values()) if isinstance(parent, dict) else parent
        parent[path[-1]] = data.draw(_JSON_VALUES | st.sampled_from(siblings))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if option == "--cache":
            inputs[option] = shutil.copytree(FIXTURES / "cache", tmp / "cache")
            (inputs[option] / source.name).write_text(json.dumps(document))
        else:
            inputs[option] = tmp / source.name
            inputs[option].write_text(json.dumps(document))
        runner = CliRunner()
        audit = invoke(runner, ["audit", "--codebook", str(inputs["--codebook"]),
                                "--rules", str(inputs["--rules"]),
                                "--cache", str(inputs["--cache"]), "--out", str(tmp / "out")])
        verify = invoke(runner, ["verify", "--codebook", str(inputs["--codebook"]),
                                 "--expected", str(inputs["--expected"])])
        fetch = invoke(runner, ["fetch", "--offline", "--codebook", str(inputs["--codebook"]),
                                "--cache", str(inputs["--cache"])])
    for result, codes in [(audit, {0, 2, 3}), (verify, {0, 1, 2}), (fetch, {0, 2})]:
        assert result.exit_code in codes, result.output
        assert result.exception is None or isinstance(result.exception, SystemExit), \
            result.exc_info
        if result.exit_code == 2:
            assert result.output.startswith("error: "), result.output
    if verify.exit_code == 1:
        assert "verification: FAIL" in verify.output


# Run in a fresh interpreter, since this test process has loaded everything.
# Only modules the run itself loads count: a site hook of the interpreter may
# preload its own.
_IMPORT_GUARD = """
import json, sys
before = set(sys.modules)
from praf.cli import main
for command in sys.argv[2:]:
    args = [command, "--out", sys.argv[1]] if command == "audit" else [command]
    try:
        main(args, standalone_mode=False)
    except SystemExit as exc:
        assert not exc.code, (args, exc.code)
print(json.dumps(sorted(set(sys.modules) - before)))
"""


# The same for one HTML page extracted, which must load praf's tokenizer.
_EXTRACT_GUARD = """
import json, sys
before = set(sys.modules)
from praf.ingest import extract_text
assert extract_text(b"<p>We encrypt your data.</p>", "text/html") == "We encrypt your data."
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def _run_fresh(tmp_path, *commands, script=_IMPORT_GUARD):
    """(stdout, modules loaded) of ``commands`` run in a fresh interpreter."""
    env = dict(os.environ)
    src = str(Path(praf.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "out"), *commands],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, set(json.loads(proc.stdout.splitlines()[-1]))


def test_audit_and_verify_load_no_http_client(tmp_path):
    stdout, loaded = _run_fresh(tmp_path, "audit", "verify")
    assert "verification: PASS" in stdout
    http_stack = {"requests", "urllib3", "urllib.request", "urllib.robotparser", "http.client"}
    assert loaded & http_stack == set()


def test_audit_loads_no_fetch_or_verify_module(tmp_path):
    _, loaded = _run_fresh(tmp_path, "audit")
    assert "praf.pipeline" in loaded
    assert loaded & {"concurrent.futures", "praf.verify", "praf.html_text"} == set()


def test_extraction_loads_no_html_parser(tmp_path):
    _, loaded = _run_fresh(tmp_path, script=_EXTRACT_GUARD)
    assert "praf.html_text" in loaded
    assert "html.parser" not in loaded
