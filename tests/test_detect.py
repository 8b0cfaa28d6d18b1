import json

import pytest

from praf.detect import (
    DIMENSIONS,
    DetectionDimension as Dim,
    EvidenceSpan,
    Finding,
    Verdict,
    apply_overrides,
    default_rules_path,
    detect_all,
    detect_ambiguity,
    detect_principle,
    detect_regulations,
    detect_vague_commitments,
    load_rules,
    no_findings,
)
from praf.errors import MalformedRules, MissingFile, UnknownDimension, UnsupportedDimension


@pytest.fixture(scope="module")
def rules():
    return load_rules(default_rules_path())


SAMPLE = (
    "We comply with HIPAA and honor your rights under the California Consumer "
    "Privacy Act. Any payment transactions will be encrypted using SSL. We "
    "retain your records for 5 years. Access to records is restricted to "
    "authorized personnel. We ask for your consent before sharing anything. "
    "If a breach occurs we will notify you promptly."
)


class TestRegulations:
    def test_expanded_hipaa_name(self, rules):
        text = "We comply with the Health Insurance Portability and Accountability Act."
        hipaa, gdpr, other = detect_regulations(text, rules)
        assert hipaa.verdict is Verdict.YES
        assert gdpr.verdict is Verdict.NO
        assert other.verdict is Verdict.NO

    def test_ccpa_named_in_detail(self, rules):
        text = "You have rights under the California Consumer Privacy Act."
        _, _, other = detect_regulations(text, rules)
        assert other.verdict is Verdict.YES
        assert other.detail == {"regulations": ["CCPA"]}

    def test_no_regulations(self, rules):
        findings = detect_regulations("We like dogs. Dogs like us.", rules)
        assert [f.verdict for f in findings] == [Verdict.NO] * 3
        assert all(not f.evidence for f in findings)

    def test_gdpr_acronym_and_eea(self, rules):
        text = "GDPR applies to users in the European Economic Area."
        hipaa, gdpr, other = detect_regulations(text, rules)
        assert hipaa.verdict is Verdict.NO
        assert gdpr.verdict is Verdict.YES
        assert other.detail == {"regulations": ["EEA"]}

    def test_appending_hipaa_never_revokes_yes(self, rules):
        texts = ["", "Nothing here.", "We comply with HIPAA.", SAMPLE]
        for base in texts:
            before = detect_regulations(base, rules)[0].verdict
            after = detect_regulations(base + " Our HIPAA policy is public.", rules)[0].verdict
            assert not (before is Verdict.YES and after is not Verdict.YES)
            assert after is Verdict.YES


class TestPrinciples:
    def test_encryption_quote(self, rules):
        f = detect_principle(
            "Any payment transactions will be encrypted using SSL.",
            Dim.DATA_ENCRYPTION, rules,
        )
        assert f.verdict is Verdict.YES

    def test_minimization_quote(self, rules):
        f = detect_principle(
            "We limit the collection of personal information to what you choose "
            "to submit through the use of our services.",
            Dim.DATA_MINIMIZATION, rules,
        )
        assert f.verdict is Verdict.YES

    def test_retention_quote_with_duration(self, rules):
        f = detect_principle("We retain your records for 5 years.", Dim.RETENTION_TIME, rules)
        assert f.verdict is Verdict.YES
        assert f.detail["duration_value"] == 5
        assert f.detail["duration_unit"] == "year"
        assert f.detail["duration_days"] == 1825

    def test_weak_rule_gives_partial(self, rules):
        f = detect_principle(
            "We keep data as long as necessary.", Dim.RETENTION_TIME, rules
        )
        assert f.verdict is Verdict.PARTIAL

    def test_regulation_dimension_rejected(self, rules):
        with pytest.raises(UnsupportedDimension):
            detect_principle("text", Dim.HIPAA_MENTION, rules)
        with pytest.raises(UnsupportedDimension):
            detect_principle("text", Dim.AMBIGUOUS_LANGUAGE, rules)


class TestAmbiguity:
    def _text(self, hedged: int, plain: int) -> str:
        hs = ["We may change this section without warning."] * hedged
        ps = ["We store records in one region."] * plain
        return " ".join(hs + ps)

    def test_zero_density(self, rules):
        f = detect_ambiguity(self._text(0, 10), rules)
        assert f.verdict is Verdict.NO
        assert f.evidence == ()

    def test_partial_density(self, rules):
        f = detect_ambiguity(self._text(2, 8), rules)
        assert f.verdict is Verdict.PARTIAL
        assert len(f.evidence) == 2

    def test_yes_density(self, rules):
        f = detect_ambiguity(self._text(4, 6), rules)
        assert f.verdict is Verdict.YES


class TestVagueCommitments:
    def test_assurance_without_mechanism(self, rules):
        f = detect_vague_commitments("We use industry-standard measures.", rules)
        assert f.verdict is Verdict.PARTIAL

    def test_mechanism_in_same_sentence_defuses(self, rules):
        f = detect_vague_commitments(
            "We use industry-standard measures such as TLS encryption.", rules
        )
        assert f.verdict is Verdict.NO

    def test_three_vague_sentences_is_yes(self, rules):
        text = (
            "We take reasonable measures to guard records. "
            "Our vendors follow industry-standard practices. "
            "We apply appropriate safeguards across the company."
        )
        f = detect_vague_commitments(text, rules)
        assert f.verdict is Verdict.YES
        assert len(f.evidence) == 3


class TestOverrides:
    def test_override_replaces_and_flags(self, rules):
        findings = detect_all("Nothing of note.", rules)
        out = apply_overrides(findings, {Dim.DATA_ENCRYPTION: Verdict.YES})
        got = {f.dimension: f for f in out}
        assert got[Dim.DATA_ENCRYPTION].verdict is Verdict.YES
        assert got[Dim.DATA_ENCRYPTION].manual
        assert not got[Dim.DATA_MINIMIZATION].manual

    def test_empty_overrides_identity(self, rules):
        findings = detect_all(SAMPLE, rules)
        assert apply_overrides(findings, {}) == findings

    def test_unknown_dimension_rejected(self, rules):
        findings = detect_regulations(SAMPLE, rules)
        with pytest.raises(UnknownDimension):
            apply_overrides(findings, {Dim.DATA_ENCRYPTION: Verdict.NO})

    def test_idempotent(self, rules):
        findings = detect_all(SAMPLE, rules)
        overrides = {Dim.DATA_ENCRYPTION: Verdict.NO, Dim.BREACH_PROTOCOL: Verdict.PARTIAL}
        once = apply_overrides(findings, overrides)
        twice = apply_overrides(once, overrides)
        assert once == twice


class TestSoundnessAndDeterminism:
    def test_all_dimensions_in_order(self, rules):
        findings = detect_all(SAMPLE, rules)
        assert [f.dimension for f in findings] == list(DIMENSIONS)

    def test_evidence_spans_rematch_their_rule(self, rules):
        for text in [SAMPLE, "We may share data occasionally.", "HIPAA. GDPR. CCPA."]:
            for finding in detect_all(text, rules):
                for span in finding.evidence:
                    assert 0 <= span.start < span.end <= len(text)
                    dim_key, idx = span.rule_id.rsplit(":", 1)
                    dr = rules.rules_for(Dim(dim_key))
                    pattern = (dr.strong + dr.weak)[int(idx)]
                    assert pattern.rule_id == span.rule_id
                    assert pattern.matches_in(text[span.start:span.end])

    def test_deterministic(self, rules):
        assert detect_all(SAMPLE, rules) == detect_all(SAMPLE, rules)

    def test_verdict_evidence_coupling(self, rules):
        for finding in detect_all(SAMPLE, rules):
            if finding.verdict is Verdict.NO:
                assert finding.evidence == ()
            else:
                assert finding.evidence

    def test_coupling_enforced_on_construction(self):
        with pytest.raises(ValueError):
            Finding(Dim.DATA_ENCRYPTION, Verdict.YES)
        with pytest.raises(ValueError):
            Finding(Dim.DATA_ENCRYPTION, Verdict.NO, (EvidenceSpan(0, 1, "x"),))

    def test_manual_findings_exempt_from_coupling(self):
        Finding(Dim.DATA_ENCRYPTION, Verdict.YES, manual=True)


class TestRuleLoading:
    def test_default_rules_cover_all_dimensions(self, rules):
        for dim in Dim:
            assert rules.rules_for(dim).strong or rules.rules_for(dim).weak

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingFile):
            load_rules(tmp_path / "nope.json")

    def test_bad_json(self, tmp_path):
        p = tmp_path / "rules.json"
        p.write_text("{not json")
        with pytest.raises(MalformedRules):
            load_rules(p)

    def test_unknown_dimension_rejected(self, tmp_path):
        p = tmp_path / "rules.json"
        p.write_text(json.dumps({"made_up": {"strong": ["x"]}}))
        with pytest.raises(MalformedRules):
            load_rules(p)

    def test_missing_dimension_rejected(self, tmp_path):
        p = tmp_path / "rules.json"
        p.write_text(json.dumps({"hipaa_mention": {"strong": ["hipaa"]}}))
        with pytest.raises(MalformedRules):
            load_rules(p)

    def test_no_findings_helper(self):
        findings = no_findings()
        assert len(findings) == 13
        assert all(f.verdict is Verdict.NO for f in findings)
