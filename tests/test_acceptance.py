"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are pinned here, not configurable.
"""

import json
import random
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

from praf.cli import main as cli_main
from praf.detect import (
    DetectionDimension as Dim,
    Finding,
    Verdict,
    default_rules_path,
    detect_all,
    detect_principle,
    load_rules,
)
from praf.ingest import cache_get
from praf.readability import ReadabilityResult, band, smog_from_counts
from praf.report import summarize
from praf.score import score_app
from praf.verify import reference_audits, run_verify

from oracles import matches_in, parse_matrix

FIXTURES = Path(__file__).parents[1] / "src" / "praf" / "data" / "fixtures"

YES, PARTIAL, NO = Verdict.YES, Verdict.PARTIAL, Verdict.NO


def announce(n: int, name: str) -> None:
    print(f"ACCEPTANCE {n} ({name}): PASS")


def test_criterion_1_reference_table_reproduction(fixture_codebook, reference):
    started = time.perf_counter()
    report = run_verify(fixture_codebook, reference)
    elapsed = time.perf_counter() - started

    assert report.passed
    assert elapsed < 1.0, f"verification took {elapsed:.3f}s"

    score_cells = [c for c in report.cells if c.fieldname != "level"]
    by_field = {}
    for cell in score_cells:
        by_field.setdefault(cell.fieldname, []).append(cell)
    # five element columns + overall, 28 apps each
    for fieldname in ("regulatory", "security", "min_retention", "third_party"):
        cells = by_field[fieldname]
        assert len(cells) == 28
        assert all(c.status == "ok" for c in cells)
    usability = by_field["usability"]
    assert sum(1 for c in usability if c.status == "ok") == 27
    waived_usability = [c for c in usability if c.status == "waived"]
    assert [(c.app, c.expected, c.computed) for c in waived_usability] == [("A2", 7, 6)]
    overall = by_field["overall"]
    assert sum(1 for c in overall if c.status == "ok") == 27
    assert [(c.app, c.expected, c.computed) for c in overall if c.status == "waived"] == [
        ("A2", 20, 19)
    ]

    result = CliRunner().invoke(cli_main, ["verify"])
    assert result.exit_code == 0
    announce(1, "reference table reproduction, A2 waived, < 1 s")


def test_criterion_2_band_mapping_exact(reference):
    graded = [(row["smog"], row["level"]) for row in reference["apps"] if row["smog"] is not None]
    assert len(graded) == 27
    for grade, level in graded:
        assert band(grade).code == level, (grade, level)
    announce(2, "all 27 reference grades map to their printed band codes")


def test_criterion_3_summary_statistics(fixture_codebook, reference):
    summary = summarize(reference_audits(fixture_codebook, reference))

    expected_counts = {
        "hipaa": (7, 25.0),
        "gdpr": (5, 17.9),
        "other_regulation": (12, 42.9),
        "encryption": (16, 57.1),
        "access_controls": (22, 78.6),
        "breach_protocol": (6, 21.4),
        "minimization": (24, 85.7),
        "retention": (16, 57.1),
    }
    for key, (count, pct) in expected_counts.items():
        assert summary.counts[key] == count, key
        assert summary.percentages[key] == pct, key
    assert round(100 - summary.percentages["breach_protocol"], 1) == 78.6

    means = summary.element_means
    sds = summary.element_sds
    assert means["regulatory"] == pytest.approx(2.21, abs=0.05)
    assert means["security"] == pytest.approx(4.46, abs=0.05)
    assert sds["security"] == pytest.approx(1.27, abs=0.05)
    assert means["usability"] == pytest.approx(6.96, abs=0.05)
    assert sds["usability"] == pytest.approx(2.0, abs=0.15)
    assert means["min_retention"] == pytest.approx(3.36, abs=0.05)
    assert means["third_party"] == pytest.approx(1.89, abs=0.05)
    assert sds["third_party"] == pytest.approx(0.41, abs=0.05)

    # consistency with the coarse headline figures
    assert round(means["regulatory"], 1) == 2.2
    assert round(means["security"], 1) == 4.5
    assert round(sds["security"], 1) == 1.3
    assert round(means["usability"]) == 7
    assert round(sds["usability"]) == 2
    assert round(means["min_retention"], 1) == 3.4
    assert round(means["third_party"], 1) == 1.9
    assert round(sds["third_party"], 1) == 0.4

    # computed overall mean; the headline "18" is coarse rounding
    assert means["overall"] == pytest.approx(18.89, abs=0.05)
    assert summary.overall_min == (15, ("A4", "A22"))
    assert summary.overall_max == (24, ("A18", "A23"))
    announce(3, "summary counts, percentages, means and SDs")


def test_criterion_4_smog_formula_suite(reference):
    assert smog_from_counts(30, 0) == 3.1291
    assert smog_from_counts(30, 30) == pytest.approx(8.8419, abs=0.0005)
    assert smog_from_counts(45, 60) == pytest.approx(9.7257, abs=0.0005)

    rng = random.Random(2024)
    for _ in range(1000):
        sentences = rng.randint(1, 500)
        poly = rng.randint(0, 500)
        assert smog_from_counts(sentences, poly + 1) >= smog_from_counts(sentences, poly)
        assert smog_from_counts(sentences, poly) >= 3.1291

    grades = [row["smog"] for row in reference["apps"] if row["smog"] is not None]
    mean = sum(grades) / len(grades)
    assert mean == pytest.approx(11.99, abs=0.05)
    announce(4, "SMOG formula values, monotonicity (1000 cases), grade mean 11.99")


SECURITY_ORACLE = {
    # independently written: 2 per implemented criterion, 1 otherwise,
    # over (encryption, access, breach)
    (YES, YES, YES): 6, (YES, YES, PARTIAL): 5, (YES, YES, NO): 5,
    (YES, PARTIAL, YES): 5, (YES, PARTIAL, PARTIAL): 4, (YES, PARTIAL, NO): 4,
    (YES, NO, YES): 5, (YES, NO, PARTIAL): 4, (YES, NO, NO): 4,
    (PARTIAL, YES, YES): 5, (PARTIAL, YES, PARTIAL): 4, (PARTIAL, YES, NO): 4,
    (PARTIAL, PARTIAL, YES): 4, (PARTIAL, PARTIAL, PARTIAL): 3, (PARTIAL, PARTIAL, NO): 3,
    (PARTIAL, NO, YES): 4, (PARTIAL, NO, PARTIAL): 3, (PARTIAL, NO, NO): 3,
    (NO, YES, YES): 5, (NO, YES, PARTIAL): 4, (NO, YES, NO): 4,
    (NO, PARTIAL, YES): 4, (NO, PARTIAL, PARTIAL): 3, (NO, PARTIAL, NO): 3,
    (NO, NO, YES): 4, (NO, NO, PARTIAL): 3, (NO, NO, NO): 3,
}

MIN_RETENTION_ORACLE = {
    (YES, YES): 4, (YES, PARTIAL): 3, (YES, NO): 3,
    (PARTIAL, YES): 3, (PARTIAL, PARTIAL): 2, (PARTIAL, NO): 2,
    (NO, YES): 3, (NO, PARTIAL): 2, (NO, NO): 2,
}

BOUNDS = {
    "regulatory": (1, 4), "security": (3, 6), "usability": (4, 12),
    "min_retention": (2, 4), "third_party": (1, 2),
}


def _random_input(rng: random.Random, accessible: bool) -> tuple[dict, ReadabilityResult | None]:
    findings = {dim: Finding(dim, rng.choice([YES, PARTIAL, NO]), manual=True) for dim in Dim}
    readability = None
    if accessible:
        readability = ReadabilityResult.from_grade(rng.uniform(3.2, 20.0))
    return findings, readability


def test_criterion_5_scoring_property_suite():
    rng = random.Random(777)
    for case in range(10_000):
        accessible = case % 10 != 0
        findings, readability = _random_input(rng, accessible)
        profile = score_app("R1", findings, readability)
        elements = profile.elements()
        assert profile.overall == sum(elements.values())
        if not accessible:
            assert all(v == 0 for v in elements.values())
            continue
        for name, (lo, hi) in BOUNDS.items():
            assert lo <= elements[name] <= hi, name
        assert 11 <= profile.overall <= 28
        # Flipping a "no" to "yes" never lowers a score for the protection
        # dimensions. Ambiguity and vagueness are defect dimensions: the
        # rubric awards clarity points for their absence, so a no -> yes flip
        # there lowers usability by exactly one point and touches nothing else.
        no_dims = [d for d in Dim if findings[d].verdict is NO]
        if no_dims:
            flip = rng.choice(no_dims)
            flipped = dict(findings)
            flipped[flip] = Finding(flip, YES, manual=True)
            flipped_profile = score_app("R1", flipped, readability)
            defect_dim = flip in (Dim.AMBIGUOUS_LANGUAGE, Dim.VAGUE_COMMITMENTS)
            for name in elements:
                if defect_dim and name == "usability":
                    assert flipped_profile.usability == profile.usability - 1
                else:
                    assert flipped_profile.elements()[name] >= elements[name], (flip, name)
            if not defect_dim:
                assert flipped_profile.overall >= profile.overall

    # brute-force oracle over all 3^5 combinations of the five presence criteria
    verdict_space = (YES, PARTIAL, NO)
    readability = ReadabilityResult.from_grade(12.0)
    checked = 0
    for enc in verdict_space:
        for acc in verdict_space:
            for breach in verdict_space:
                for mini in verdict_space:
                    for ret in verdict_space:
                        findings = {dim: Finding(dim, NO, manual=True) for dim in Dim}
                        findings[Dim.DATA_ENCRYPTION] = Finding(Dim.DATA_ENCRYPTION, enc, manual=True)
                        findings[Dim.ACCESS_CONTROLS] = Finding(Dim.ACCESS_CONTROLS, acc, manual=True)
                        findings[Dim.BREACH_PROTOCOL] = Finding(Dim.BREACH_PROTOCOL, breach, manual=True)
                        findings[Dim.DATA_MINIMIZATION] = Finding(Dim.DATA_MINIMIZATION, mini, manual=True)
                        findings[Dim.RETENTION_TIME] = Finding(Dim.RETENTION_TIME, ret, manual=True)
                        profile = score_app("R1", findings, readability)
                        assert profile.security == SECURITY_ORACLE[(enc, acc, breach)]
                        assert profile.min_retention == MIN_RETENTION_ORACLE[(mini, ret)]
                        checked += 1
    assert checked == 3 ** 5
    announce(5, "10,000 randomized vectors + 3^5 brute-force oracle")


def test_criterion_6_detector_soundness(fixture_codebook):
    rules = load_rules(default_rules_path())

    quoted = [
        ("Any payment transactions will be encrypted using SSL.",
         Dim.DATA_ENCRYPTION),
        ("We limit the collection of personal information to what you choose "
         "to submit through the use of our services.",
         Dim.DATA_MINIMIZATION),
        ("We retain your records for 5 years.", Dim.RETENTION_TIME),
    ]
    for sentence, dim in quoted:
        finding = detect_principle(sentence, dim, rules)
        assert finding.verdict is YES, dim
    retention = detect_principle(quoted[2][0], Dim.RETENTION_TIME, rules)
    assert retention.detail["duration_value"] == 5
    assert retention.detail["duration_unit"] == "year"

    texts = []
    for rec in fixture_codebook.records:
        doc = cache_get(FIXTURES / "cache", rec.policy_url)
        assert doc is not None
        if doc.accessible:
            texts.append(doc.text)
    assert len(texts) == 27

    for text in texts:
        first = detect_all(text, rules)
        second = detect_all(text, rules)
        assert first == second  # determinism
        for finding in first:
            if finding.verdict is NO:
                assert finding.evidence == ()
            else:
                assert finding.evidence
            for span in finding.evidence:
                assert 0 <= span.start < span.end <= len(text)
                dim_key, idx = span.rule_id.rsplit(":", 1)
                rules_for = rules.rules_for(Dim(dim_key))
                pattern = (rules_for.strong + rules_for.weak)[int(idx)]
                assert matches_in(pattern, text[span.start:span.end]), span
    announce(6, "evidence soundness + determinism over 27 corpus texts, quoted sentences")


def _artifact_bytes(out_dir: Path) -> dict[str, bytes]:
    collected = {}
    for path in sorted(out_dir.rglob("*")):
        if not path.is_file() or path.name == "run.json":
            continue
        body = path.read_bytes()
        if path.suffix == ".md":
            lines = body.split(b"\n")
            lines = [l for l in lines if not l.startswith(b"<!-- generated")]
            body = b"\n".join(lines)
        collected[str(path.relative_to(out_dir))] = body
    return collected


def test_criterion_7_pipeline_determinism(tmp_path):
    runner = CliRunner()
    outs = []
    for name in ("one", "two"):
        out = tmp_path / name
        result = runner.invoke(cli_main, ["audit", "--out", str(out)])
        assert result.exit_code == 0
        outs.append(out)
    first, second = (_artifact_bytes(o) for o in outs)
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"{name} differs between runs"

    csv_rows = parse_matrix((outs[0] / "matrix.csv").read_text(), "csv")
    json_rows = parse_matrix((outs[0] / "matrix.json").read_text(), "json")
    assert len(csv_rows) == len(json_rows) == 28
    for c_row, j_row in zip(csv_rows, json_rows):
        assert c_row == j_row
    announce(7, "byte-identical audits modulo timestamp header; matrix round-trip")
