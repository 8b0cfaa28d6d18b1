import json
import re
import sys

import pytest
from hypothesis import assume, given, settings, strategies as st

from praf.detect import (
    DIMENSIONS,
    DetectionDimension as Dim,
    EvidenceSpan,
    Finding,
    RuleSet,
    Verdict,
    apply_overrides,
    compile_pattern,
    default_rules_path,
    detect_all,
    detect_ambiguity,
    detect_principle,
    detect_regulations,
    detect_vague_commitments,
    load_rules,
    no_findings,
    _candidate_sentences,
    _evidence,
)
from praf.errors import PrafError
from praf.readability import FOLD, analyze

from oracles import matches_in


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

    def test_ccpa_named_in_evidence(self, rules):
        text = "You have rights under the California Consumer Privacy Act."
        _, _, other = detect_regulations(text, rules)
        assert other.verdict is Verdict.YES
        assert [(span.rule_id, text[span.start:span.end]) for span in other.evidence] == [
            ("other_regulation:1", "California Consumer Privacy Act")]

    def test_no_regulations(self, rules):
        findings = detect_regulations("We like dogs. Dogs like us.", rules)
        assert [f.verdict for f in findings] == [Verdict.NO] * 3
        assert all(not f.evidence for f in findings)

    def test_gdpr_acronym_and_eea(self, rules):
        text = "GDPR applies to users in the European Economic Area."
        hipaa, gdpr, other = detect_regulations(text, rules)
        assert hipaa.verdict is Verdict.NO
        assert gdpr.verdict is Verdict.YES
        assert [(span.rule_id, text[span.start:span.end]) for span in other.evidence] == [
            ("other_regulation:3", "European Economic Area")]

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
        assert f.detail == {"duration_value": 5, "duration_unit": "year"}

    def test_weak_rule_gives_partial(self, rules):
        f = detect_principle(
            "We keep data as long as necessary.", Dim.RETENTION_TIME, rules
        )
        assert f.verdict is Verdict.PARTIAL

    def test_regulation_dimension_rejected(self, rules):
        with pytest.raises(ValueError, match="hipaa_mention is not a principle dimension"):
            detect_principle("text", Dim.HIPAA_MENTION, rules)
        with pytest.raises(ValueError, match="ambiguous_language is not a principle dimension"):
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
        with pytest.raises(ValueError, match="override for data_encryption matches no finding"):
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
                    assert matches_in(pattern, text[span.start:span.end])

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
        with pytest.raises(PrafError, match="rules file not found: .*nope.json"):
            load_rules(tmp_path / "nope.json")

    def test_bad_json(self, tmp_path):
        p = tmp_path / "rules.json"
        p.write_text("{not json")
        with pytest.raises(PrafError, match="rules.json is not readable UTF-8 JSON"):
            load_rules(p)

    def test_not_utf8_rejected(self, tmp_path):
        p = tmp_path / "rules.json"
        p.write_bytes(b"\xff\xfe{}")
        with pytest.raises(PrafError, match="rules.json is not readable UTF-8 JSON"):
            load_rules(p)

    def test_unknown_dimension_rejected(self, tmp_path):
        p = tmp_path / "rules.json"
        p.write_text(json.dumps({"made_up": {"strong": ["x"]}}))
        with pytest.raises(PrafError, match="rules.json: missing field 'hipaa_mention'"):
            load_rules(p)

    def test_missing_dimension_rejected(self, tmp_path):
        p = tmp_path / "rules.json"
        p.write_text(json.dumps({"hipaa_mention": {"strong": ["hipaa"]}}))
        with pytest.raises(PrafError, match="rules.json: missing field 'gdpr_mention'"):
            load_rules(p)

    def test_non_string_pattern_rejected_at_load(self, tmp_path):
        p = tmp_path / "rules.json"
        p.write_text(json.dumps({"hipaa_mention": {"strong": [1]}}))
        with pytest.raises(PrafError, match="hipaa_mention"):
            load_rules(p)

    def test_thresholds_not_an_object_rejected_at_load(self, tmp_path):
        data = json.loads(default_rules_path().read_text())
        data["ambiguous_language"]["thresholds"] = [0.1, 0.2]
        p = tmp_path / "rules.json"
        p.write_text(json.dumps(data))
        with pytest.raises(PrafError, match="ambiguous_language"):
            load_rules(p)

    def test_zero_thresholds_give_no_verdict_without_evidence(self, tmp_path):
        data = json.loads(default_rules_path().read_text())
        data["ambiguous_language"]["thresholds"] = {"partial_density": 0, "yes_density": 0}
        data["vague_commitments"]["thresholds"] = {"yes_sentences": 0}
        p = tmp_path / "rules.json"
        p.write_text(json.dumps(data))
        findings = {f.dimension: f for f in detect_all("We collect your name.", load_rules(p))}
        assert findings[Dim.AMBIGUOUS_LANGUAGE].verdict is Verdict.NO
        assert findings[Dim.VAGUE_COMMITMENTS].verdict is Verdict.NO

    def test_no_findings_helper(self):
        findings = no_findings()
        assert len(findings) == 13
        assert all(f.verdict is Verdict.NO for f in findings)


def _all_patterns(ruleset):
    return [p for dr in ruleset.by_dimension.values() for p in dr.strong + dr.weak]


def _without_prefilter(ruleset) -> RuleSet:
    """The same rules with empty needles, so every pattern runs on every sentence."""
    def strip(patterns):
        return tuple(p._replace(sides=tuple(side._replace(word="", prefix=False)
                                            for side in p.sides))
                     for p in patterns)
    return RuleSet({dim: dr._replace(strong=strip(dr.strong), weak=strip(dr.weak))
                    for dim, dr in ruleset.by_dimension.items()})


_RULES = load_rules(default_rules_path())
_BY_RULE_ID = {p.rule_id: p for p in _all_patterns(_RULES)}
_SPECIAL = ["\u0130", "\u0131", "\u017f", "\u212a"]
_RULE_SIDES = sorted({tuple(side.split())
                      for p in _all_patterns(_RULES) for side in p.raw.split("~")})
_RULE_WORDS = sorted({w.removesuffix("*") for side in _RULE_SIDES for w in side})


def _variants(word: str):
    """The word as written, in other cases, with a suffix, and with letters
    swapped for the non-ASCII characters re.IGNORECASE equates with them."""
    return st.sampled_from([
        word, word.upper(), word.title(), word + "ed",
        word.replace("i", "\u0131"), word.upper().replace("I", "\u0130"),
        word.replace("s", "\u017f"), word.replace("k", "\u212a"),
    ])


def _phrase(words):
    """A rule's words in a row, each a variant, split by any whitespace."""
    variants = st.tuples(*(_variants(w.removesuffix("*")) for w in words))
    gaps = st.lists(st.sampled_from([" ", "  ", "\n", "\t"]),
                    min_size=len(words), max_size=len(words))
    return st.builds(lambda ws, gs: "".join(w + g for w, g in zip(ws, gs)), variants, gaps)


_TOKENS = st.one_of(
    st.sampled_from(_RULE_WORDS).flatmap(_variants),
    st.sampled_from(_RULE_SIDES).flatmap(_phrase),
    st.sampled_from(_SPECIAL + [".", "!", "?", "\"", "'", "\u201d", "\n", "e.g.", "3.5", "J."]),
    # non-word characters, ASCII and not, and word characters against rule words
    st.sampled_from(["data\u2019s", "encrypt_", "24hours", "third-party", "\u00a9HIPAA"]),
)
_SEPARATORS = st.sampled_from([" ", " ", "  ", "\n", ". ", "! ", "? ", "\t", "",
                               "\u2019", "\u00a0", "\u00a9", "_", "7", "-"])
_RULE_TEXT = st.lists(st.tuples(_TOKENS, _SEPARATORS), max_size=40).map(
    lambda pairs: "".join(token + sep for token, sep in pairs))


_LANGUAGE_PHRASES = sorted({tuple(p.raw.split())
                            for dim in (Dim.AMBIGUOUS_LANGUAGE, Dim.VAGUE_COMMITMENTS)
                            for p in _RULES.rules_for(dim).strong + _RULES.rules_for(dim).weak})
# Lines of one to four language-rule phrases, so that sentences often hold
# several hedges, claims and mechanisms at once.
_LANGUAGE_TEXT = st.lists(
    st.lists(st.sampled_from(_LANGUAGE_PHRASES).flatmap(_phrase), min_size=1, max_size=4).map("".join),
    max_size=8).map(lambda lines: "".join(line.rstrip() + ".\n" for line in lines))


def _reference_spans(pattern, text):
    """Evidence of one pattern from every sentence read alone: where each
    side matches, the span covering the first match of every side, which for
    a phrase is its first match."""
    spans = []
    for a, b in analyze(text).sentence_spans:
        segment = text[a:b]
        if all(sides := [side.regex.search(segment) for side in pattern.sides]):
            spans.append((a + min(m.start() for m in sides), a + max(m.end() for m in sides)))
    return spans


def _reference_language_spans(text, strong, weak=()):
    """Every sentence tried with every rule: each sentence that a strong rule
    matches, with the first such rule, unless some weak rule matches it too."""
    spans = []
    for a, b in analyze(text).sentence_spans:
        segment = text[a:b]
        hit = next((p for p in strong if matches_in(p, segment)), None)
        if hit is not None and not any(matches_in(p, segment) for p in weak):
            spans.append(EvidenceSpan(a, b, hit.rule_id))
    return spans


class TestPrefilter:
    def test_fold_maps_each_char_to_the_ascii_char_it_matches(self):
        # Every code point but the surrogates: a character that re.IGNORECASE
        # equates with ASCII characters must fold to exactly their lowercase.
        ascii_class = re.compile(r"[\x00-\x7f]", re.IGNORECASE)
        for cp in range(sys.maxunicode + 1):
            if 0xD800 <= cp <= 0xDFFF:
                continue
            ch = chr(cp)
            if ascii_class.fullmatch(ch) is None:
                continue
            matched = {c.lower() for c in map(chr, range(128))
                       if re.fullmatch(re.escape(c), ch, re.IGNORECASE)}
            assert matched == {ch.translate(FOLD)}, hex(cp)

    @pytest.mark.parametrize("raw,needles", [
        ("data protection law*", [("protection", False)]),
        ("notif* ~ Breach", [("notif", True), ("breach", False)]),
        # the longest run of word characters, a prefix only where "*" ends it
        ("third-part*", [("third", False)]),
        ("need-to-know", [("need", False)]),
        ("r\u00e9sum\u00e9", [("", False)]),
    ])
    def test_needles_are_the_longest_literal_word_of_each_side(self, raw, needles):
        assert [(side.word, side.prefix) for side in compile_pattern(raw, "r:0").sides] == needles

    @pytest.mark.parametrize("raw,text,spans", [
        # a hard wrap before a lowercase word stays inside the sentence
        ("share your information", "We share your\ninformation.", [(3, 25)]),
        # a capital after the newline starts a sentence: no match across it
        ("share your information", "We share your\nInformation.", []),
        ("encrypt*", "Backups are unencrypted.", []),
        # one span per sentence: its first match
        ("encrypt*", "unencrypted, encrypted and ENCRYPTS. Encrypted, encrypted.",
         [(13, 22), (37, 46)]),
        # the second "so-so" overlaps the first, which misses
        ("so-so answer", "a so-so-so answer", [(5, 17)]),
        # no ASCII needle: every sentence is a candidate
        ("r\u00e9sum\u00e9 data",
         "R\u00c9SUM\u00c9 data; r\u00e9sum\u00e9s data, r\u00e9sum\u00e9\tdata. "
         "R\u00e9sum\u00e9 data, r\u00e9sum\u00e9 data.", [(0, 11), (40, 51)]),
        ("data ~ encrypt*", "Data is encrypted. Data. Encrypted data, encrypted.",
         [(0, 17), (25, 39)]),
    ])
    def test_evidence_is_the_first_match_in_each_sentence(self, raw, text, spans):
        pattern = compile_pattern(raw, "r:0")
        assert _reference_spans(pattern, text) == spans
        assert [(s.start, s.end) for _, s in _evidence(pattern, analyze(text))] == spans

    def test_phrase_across_a_newline_and_anchor_inside_a_word(self, rules):
        findings = {f.dimension: f for f in detect_all(
            "We share your\ninformation. Backups are unencrypted.", rules)}
        sharing = findings[Dim.THIRD_PARTY_SHARING]
        assert (3, 25) in [(e.start, e.end) for e in sharing.evidence]
        assert findings[Dim.DATA_ENCRYPTION].verdict is Verdict.NO

    def test_analyze_passes_analyzed_text_through(self):
        doc = analyze(SAMPLE)
        assert analyze(doc) is doc

    @pytest.mark.parametrize("text,dim,rule", [
        ("We follow H\u0130PAA rules.", Dim.HIPAA_MENTION, "hipaa_mention:0"),
        ("Transfers use \u017f\u017fl.", Dim.DATA_ENCRYPTION, "data_encryption:1"),
        # a prefix needle ("retain") found only through FOLD, in a sentence with a "’"
        ("Backups are RETA\u0130NED \u2019.", Dim.RETENTION_TIME, "retention_time:0"),
    ])
    def test_non_ascii_case_variants_still_match(self, rules, text, dim, rule):
        finding = {f.dimension: f for f in detect_all(text, rules)}[dim]
        assert finding.verdict is Verdict.YES
        assert {e.rule_id for e in finding.evidence} == {rule}

    @pytest.mark.ci_profile
    @settings(deadline=None)
    @given(_RULE_TEXT)
    def test_a_sentence_that_matches_is_a_candidate(self, text):
        doc = analyze(text)
        for pattern in _all_patterns(_RULES):
            candidates = _candidate_sentences(pattern, doc)
            for k, (a, b) in enumerate(doc.sentence_spans):
                if matches_in(pattern, text[a:b]):
                    assert k in candidates, (pattern.raw, text[a:b])

    @pytest.mark.ci_profile
    @settings(deadline=None)
    @given(st.one_of(st.text(), st.text(st.characters(exclude_categories=())),
                     st.text(st.sampled_from("aZ09_ -.\n'\u2019\u00a0\u00a9\u00e9\u0130\ud800"))))
    def test_sentence_words_are_the_word_regex_matches(self, text):
        doc = analyze(text)
        folded = text.translate(FOLD)
        reference = [re.findall(r"\w+", folded[a:b]) for a, b in doc.sentence_spans]
        assert doc.word_sentences == {
            word: [k for k, words in enumerate(reference) if word in words]
            for word in {w for words in reference for w in words}}
        assert doc.vocabulary == sorted(doc.word_sentences)
        # no word of the whole text crosses a sentence boundary
        assert [w for words in reference for w in words] == re.findall(r"\w+", folded)

    @pytest.mark.ci_profile
    @settings(deadline=None)
    @given(_RULE_TEXT)
    def test_candidates_are_the_sentences_holding_every_needle(self, text):
        doc = analyze(text)
        words = [set(re.findall(r"\w+", text[a:b].translate(FOLD))) for a, b in doc.sentence_spans]

        def holds(sentence, needle):
            return any(w == needle.word or needle.prefix and w.startswith(needle.word)
                       for w in sentence) or not needle.word

        for pattern in _all_patterns(_RULES):
            candidates = list(_candidate_sentences(pattern, doc))
            assert all(j < k for j, k in zip(candidates, candidates[1:])), pattern.raw
            assert candidates == [k for k, sentence in enumerate(words)
                                  if all(holds(sentence, side) for side in pattern.sides)], pattern.raw

    @pytest.mark.ci_profile
    @settings(deadline=None)
    @given(_RULE_TEXT)
    def test_findings_do_not_depend_on_analysis_or_prefilter(self, text):
        assume(analyze(text).sentence_spans)
        findings = detect_all(text, _RULES)
        assert detect_all(analyze(text), _RULES) == findings
        assert detect_all(text, _without_prefilter(_RULES)) == findings

    @pytest.mark.ci_profile
    @settings(deadline=None)
    @given(st.one_of(_RULE_TEXT, _LANGUAGE_TEXT))
    def test_language_detectors_equal_a_sentence_by_sentence_reference(self, text):
        assume(analyze(text).sentence_spans)
        hedged = _reference_language_spans(text, _RULES.rules_for(Dim.AMBIGUOUS_LANGUAGE).strong)
        ambiguity = detect_ambiguity(text, _RULES)
        assert ambiguity.detail["hedged_sentences"] == len(hedged)
        if ambiguity.verdict is not Verdict.NO:
            assert list(ambiguity.evidence) == hedged
        vague_rules = _RULES.rules_for(Dim.VAGUE_COMMITMENTS)
        vague = _reference_language_spans(text, vague_rules.strong, vague_rules.weak)
        assert list(detect_vague_commitments(text, _RULES).evidence) == vague

    @pytest.mark.ci_profile
    @settings(deadline=None)
    @given(_RULE_TEXT)
    def test_evidence_equals_a_per_sentence_search_reference(self, text):
        doc = analyze(text)
        for pattern in _all_patterns(_RULES):
            evidence = list(_evidence(pattern, doc))
            assert [(s.start, s.end) for _, s in evidence] == _reference_spans(pattern, text), \
                pattern.raw
            for k, span in evidence:
                a, b = doc.sentence_spans[k]
                assert a <= span.start < span.end <= b and span.rule_id == pattern.rule_id


class TestEvidence:
    @pytest.mark.ci_profile
    @settings(deadline=None)
    @given(_RULE_TEXT)
    def test_a_rule_gives_at_most_one_span_per_sentence(self, text):
        doc = analyze(text)
        assume(doc.sentence_spans)
        for finding in detect_all(doc, _RULES):
            pairs = [(span.rule_id, k) for span in finding.evidence
                     for k, (a, b) in enumerate(doc.sentence_spans) if a <= span.start < b]
            assert len(pairs) == len(finding.evidence) == len(set(pairs)), finding.dimension

    @settings(max_examples=100, deadline=None)
    @given(_RULE_TEXT)
    def test_every_evidence_span_rematches_its_rule(self, text):
        doc = analyze(text)
        assume(doc.sentence_spans)
        for finding in detect_all(doc, _RULES):
            for span in finding.evidence:
                pattern = _BY_RULE_ID[span.rule_id]
                assert span.rule_id.startswith(finding.dimension.value + ":")
                piece = text[span.start:span.end]
                if DIMENSIONS[finding.dimension].kind == "language":
                    assert (span.start, span.end) in doc.sentence_spans
                else:
                    assert any(a <= span.start and span.end <= b for a, b in doc.sentence_spans)
                    if len(pattern.sides) == 1:
                        assert pattern.sides[0].regex.fullmatch(piece), (pattern.raw, piece)
                assert matches_in(pattern, piece), (pattern.raw, piece)
