import json
import random
from pathlib import Path

import pytest

from praf.corpus import AppCategory, AppRecord, load_codebook
from praf.detect import DetectionDimension as Dim, Finding, Verdict, no_findings
from praf.errors import PrafError
from praf.pipeline import audit_from_findings
from praf.readability import ReadabilityResult
from praf.report import (
    MATRIX_COLUMNS,
    emit_app_report,
    emit_matrix,
    emit_smog_csv,
    emit_summary_markdown,
    summarize,
    summary_to_json,
)
from praf.verify import reference_audits

from oracles import parse_matrix

FIXTURES = Path(__file__).parents[1] / "src" / "praf" / "data" / "fixtures"


@pytest.fixture(scope="module")
def reference():
    return json.loads((FIXTURES / "reference_results.json").read_text())


@pytest.fixture(scope="module")
def codebook():
    return load_codebook(FIXTURES / "codebook.json")


@pytest.fixture(scope="module")
def corpus(codebook, reference):
    """Audits recomputed from the bundled fixtures, as verify builds them."""
    return reference_audits(codebook, reference)


def audit_of(record, findings, readability, text=None):
    return audit_from_findings(record, list(findings.values()), {}, readability, text)


class TestSummarize:
    def test_fixture_counts(self, corpus):
        summary = summarize(corpus)
        assert summary.counts["hipaa"] == 7
        assert summary.percentages["hipaa"] == 25.0
        assert summary.counts["gdpr"] == 5
        assert summary.percentages["gdpr"] == 17.9
        assert summary.counts["other_regulation"] == 12
        assert summary.percentages["other_regulation"] == 42.9
        assert summary.counts["breach_protocol"] == 6
        assert summary.percentages["breach_protocol"] == 21.4
        assert round(100 - summary.percentages["breach_protocol"], 1) == 78.6

    def test_no_regulation_excludes_inaccessible(self, corpus):
        summary = summarize(corpus)
        assert summary.counts["no_regulation"] == 4
        assert summary.accessible_apps == 27

    def test_permutation_invariant(self, corpus):
        ordered = list(corpus)
        shuffled = ordered[:]
        random.Random(5).shuffle(shuffled)
        a = summarize(ordered)
        b = summarize(shuffled)
        assert a.counts == b.counts
        assert a.element_means == b.element_means
        assert a.overall_min == b.overall_min

    def test_empty_corpus(self):
        with pytest.raises(PrafError, match="summarize needs at least one audit"):
            summarize([])

    def test_single_zero_profile(self):
        audit = audit_from_findings(AppRecord("A1", AppCategory.TELEHEALTH), no_findings(), {}, None)
        summary = summarize([audit])
        assert all(v == 0 for v in summary.counts.values())
        assert summary.element_means["overall"] == 0
        assert summary.smog_mean is None


class TestMatrix:
    def test_markdown_a1_row(self, corpus):
        doc = emit_matrix(corpus, "markdown")
        row = next(line for line in doc.splitlines() if line.startswith("| A1 "))
        assert row == (
            "| A1 | Telehealth | ● | ● | − | ● | ● | ● "
            "| ● | ● | ● | − | − | − | ● "
            "| 13 | VD | 4 | 6 | 7 | 4 | 2 | 23 |"
        )

    def test_markdown_inaccessible_row(self, corpus):
        doc = emit_matrix(corpus, "markdown")
        row = next(line for line in doc.splitlines() if line.startswith("| A24 "))
        assert " - | - |" in row
        assert row.rstrip().endswith("| 0 | 0 | 0 | 0 | 0 | 0 |")

    def test_csv_shape(self, corpus):
        doc = emit_matrix(corpus, "csv")
        lines = doc.strip().split("\n")
        assert lines[0] == ",".join(MATRIX_COLUMNS)
        assert len(lines) == 29

    def test_csv_round_trip(self, corpus):
        doc = emit_matrix(corpus, "csv")
        rows = parse_matrix(doc, "csv")
        assert len(rows) == 28
        for row, audit in zip(rows, corpus):
            assert row["pseudonym"] == audit.record.pseudonym
            for name, dim in [("hipaa", Dim.HIPAA_MENTION), ("breach_protocol", Dim.BREACH_PROTOCOL)]:
                assert row[name] == audit.findings[dim].verdict.value
            assert row["overall_risk"] == audit.profile.overall
            expected_smog = (None if audit.readability is None
                             else round(audit.readability.smog_grade, 1))
            assert row["smog"] == expected_smog

    def test_json_round_trip(self, codebook, corpus):
        doc = emit_matrix(corpus, "json")
        rows = parse_matrix(doc, "json")
        assert [r["pseudonym"] for r in rows] == [r.pseudonym for r in codebook.records]
        for row, audit in zip(rows, corpus):
            for name, dim in [("gdpr", Dim.GDPR_MENTION), ("retention_time", Dim.RETENTION_TIME)]:
                assert row[name] == audit.findings[dim].verdict.value
            assert row["data_security"] == audit.profile.security

    def test_empty_corpus_header_only(self):
        doc = emit_matrix([], "csv")
        assert doc.strip() == ",".join(MATRIX_COLUMNS)


class TestAppReport:
    def _finding_with_quote(self, text, dim, quote):
        start = text.index(quote)
        from praf.detect import EvidenceSpan
        return Finding(dim, Verdict.YES, (EvidenceSpan(start, start + len(quote), f"{dim.value}:0"),))

    def test_quotes_evidence(self):
        text = ("We protect you. Any payment transactions will be encrypted using SSL. "
                "More text follows.")
        quote = "Any payment transactions will be encrypted using SSL."
        findings = {dim: Finding(dim, Verdict.NO) for dim in Dim}
        findings[Dim.DATA_ENCRYPTION] = self._finding_with_quote(text, Dim.DATA_ENCRYPTION, quote)
        record = AppRecord("A7", AppCategory.SENIOR_CARE_CAREGIVER_SUPPORT,
                           policy_url="https://a7.example/privacy")
        readability = ReadabilityResult.from_grade(12.4)
        doc = emit_app_report(audit_of(record, findings, readability, text))
        assert quote in doc

    def test_inaccessible_report(self):
        findings = {dim: Finding(dim, Verdict.NO) for dim in Dim}
        record = AppRecord("A24", AppCategory.FITNESS_SUPPORT)
        doc = emit_app_report(audit_of(record, findings, None))
        assert "inaccessible" in doc
        assert "0 / 28" in doc

    def test_manual_flags_present(self):
        findings = {dim: Finding(dim, Verdict.NO) for dim in Dim}
        findings[Dim.DATA_ENCRYPTION] = Finding(Dim.DATA_ENCRYPTION, Verdict.YES, manual=True)
        record = AppRecord("A1", AppCategory.TELEHEALTH, real_name="Acme Telecare")
        readability = ReadabilityResult.from_grade(13.0)
        doc = emit_app_report(audit_of(record, findings, readability))
        assert "data_encryption: yes (manual)" in doc

    def test_redaction_default_and_reveal(self):
        findings = {dim: Finding(dim, Verdict.NO) for dim in Dim}
        record = AppRecord("A1", AppCategory.TELEHEALTH, real_name="Acme Telecare")
        audit = audit_of(record, findings, ReadabilityResult.from_grade(13.0))
        hidden = emit_app_report(audit)
        shown = emit_app_report(audit, reveal_names=True)
        assert "Acme Telecare" not in hidden
        assert "Acme Telecare" in shown

    def test_excerpts_capped_at_200_chars(self):
        text = "x" * 50 + "Securely encrypted storage " * 30 + "end."
        from praf.detect import EvidenceSpan
        findings = {dim: Finding(dim, Verdict.NO) for dim in Dim}
        findings[Dim.DATA_ENCRYPTION] = Finding(
            Dim.DATA_ENCRYPTION, Verdict.YES, (EvidenceSpan(0, len(text), "data_encryption:0"),)
        )
        record = AppRecord("A2", AppCategory.TELEHEALTH)
        readability = ReadabilityResult.from_grade(13.2)
        doc = emit_app_report(audit_of(record, findings, readability, text))
        quoted = [l for l in doc.splitlines() if l.strip().startswith('- "')]
        assert quoted and all(len(l) < 240 for l in quoted)


class TestSummaryRendering:
    def test_markdown_and_json(self, corpus):
        summary = summarize(corpus)
        md = emit_summary_markdown(summary)
        assert "HIPAA mentioned | 7 | 25.0%" in md
        payload = json.loads(summary_to_json(summary))
        assert payload["counts"]["encryption"] == 16
        assert payload["overall_min"] == {"value": 15, "apps": ["A4", "A22"]}
        assert payload["overall_max"] == {"value": 24, "apps": ["A18", "A23"]}

    def test_smog_csv(self, corpus):
        doc = emit_smog_csv(corpus)
        lines = doc.strip().split("\n")
        assert lines[0] == "pseudonym,smog_grade"
        assert len(lines) == 28  # header + 27 accessible apps
        assert not any(line.startswith("A24,") for line in lines)
