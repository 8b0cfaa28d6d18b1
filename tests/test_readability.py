import itertools
import json
import math
import random
import re
import string
import unicodedata
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from praf.corpus import load_codebook
from praf.detect import default_rules_path, detect_all, load_rules
from praf.ingest import cache_get, extract_text
from praf.readability import (
    ABBREVIATIONS,
    ReadabilityBand,
    ReadabilityResult,
    _boundary_ok,
    _token_before,
    analyze,
    band,
    count_polysyllables,
    count_syllables,
    readability_points,
    segment_sentences,
    sentence_spans,
    smog_from_counts,
    smog_grade,
)

from oracles import words

DATA = Path(__file__).parent / "data"
FIXTURES = Path(__file__).parents[1] / "src" / "praf" / "data" / "fixtures"


def reference_sentence_spans(text: str) -> list[tuple[int, int]]:
    """The segmenter as a scan of every character, the reference for the
    jumping one: same rules, same spans. A newline followed by spaces or tabs
    and a lowercase letter is a hard wrap and splits nothing."""
    spans: list[tuple[int, int]] = []

    def emit(a: int, b: int) -> None:
        while a < b and text[a].isspace():
            a += 1
        while b > a and text[b - 1].isspace():
            b -= 1
        if b > a:
            spans.append((a, b))

    start = 0
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            k = i + 1
            while k < n and text[k] in " \t":
                k += 1
            if not (k < n and text[k].islower()):
                emit(start, i)
                start = i + 1
        elif c in ".!?":
            j = i
            while j + 1 < n and text[j + 1] in ".!?\"'\u201d\u2019)]":
                j += 1
            split = True
            if c == ".":
                before = _token_before(text, i)
                if 0 < i < n - 1 and text[i - 1].isdigit() and text[i + 1].isdigit():
                    split = False
                elif before in ABBREVIATIONS or len(before) == 1:
                    split = False
            if split and not _boundary_ok(text, j):
                split = False
            if split:
                emit(start, j + 1)
                start = j + 1
            i = j
        i += 1
    emit(start, n)
    return spans


def _cases(word: str):
    return st.sampled_from([word, word.title(), word.upper()])


# Text made of what the segmenter decides on: terminator runs, closers,
# newlines and spaces, decimals, abbreviations, initials and sentence starts.
_SEGMENT_TOKENS = st.one_of(
    st.text(alphabet=".!?", min_size=1, max_size=3),
    st.sampled_from(list("\"')]\u201d\u2019") + ["\n", " ", "  ", "\t", " \n ", "\n\t",
                                                  "\u00a0", "\u2009", "\u3000"]),
    st.from_regex(r"\d{0,2}\.\d{0,2}", fullmatch=True),
    st.sampled_from(sorted(ABBREVIATIONS)).flatmap(_cases).map(lambda a: a + "."),
    st.sampled_from("AjJxZ").map(lambda c: c + "."),
    st.sampled_from(["we", "data", "policy", "\u00e9t\u00e9", "3", "("]).flatmap(_cases),
    st.sampled_from(["\u201cThe", "\u2018it", "\"Yes", "'no"]),
)
_SEGMENT_TEXT = st.lists(st.tuples(_SEGMENT_TOKENS, st.sampled_from(["", " ", " ", "\n"])),
                         max_size=30).map(lambda pairs: "".join(t + sep for t, sep in pairs))


class TestSegmentation:
    def test_two_terminators(self):
        assert segment_sentences("We collect data. We share it.") == [
            "We collect data.",
            "We share it.",
        ]

    def test_abbreviation_does_not_terminate(self):
        assert segment_sentences("Dr. Smith retains data.") == ["Dr. Smith retains data."]

    def test_empty(self):
        assert segment_sentences("") == []
        assert segment_sentences("   \n  ") == []

    def test_newline_splits(self):
        assert segment_sentences("Privacy Policy\nWe explain things here.") == [
            "Privacy Policy",
            "We explain things here.",
        ]

    def test_any_space_but_a_newline_may_follow_a_terminator(self):
        for gap in [" ", "\t", "\u00a0", "\u2009", "\u3000", " \u00a0 "]:
            assert segment_sentences(f"We collect data.{gap}We share it.") == [
                "We collect data.", "We share it."]
        assert segment_sentences("We collect data.\u00a0we share it.") == [
            "We collect data.\u00a0we share it."]

    def test_newline_before_a_lowercase_letter_is_a_hard_wrap(self):
        assert segment_sentences("We share your\n  information.\nWe sell none.") == [
            "We share your\n  information.", "We sell none."]
        # After a terminator too: the wrap reads as the space it replaced.
        assert sentence_spans("Terms vs.\nno.\nnotes") == sentence_spans("Terms vs. no. notes")

    def test_newline_before_a_capital_still_splits(self):
        # A wrap cannot be told from a line break before a capital, so a name
        # broken across lines ends its sentence at the wrap.
        assert segment_sentences("We follow the Data\nProtection Act.") == [
            "We follow the Data", "Protection Act."]

    def test_hand_labeled_fixture(self):
        cases = json.loads((DATA / "sentence_fixture.json").read_text())["cases"]
        total = sum(len(c["sentences"]) for c in cases)
        assert total == 50
        for case in cases:
            assert segment_sentences(case["text"]) == case["sentences"], case["text"]

    def test_spans_index_into_text(self):
        text = "First rule. Second rule! Third?"
        for a, b in sentence_spans(text):
            assert 0 <= a < b <= len(text)
            assert text[a:b] == text[a:b].strip()

    @given(st.lists(st.sampled_from(list("aZe3 .!?\"'\u201c\u201d()[]\n\t\u0130\u017f")
                                    + ["Dr.", "e.g.", "We", "share"])).map("".join))
    def test_spans_ordered_disjoint_within_text(self, text):
        spans = sentence_spans(text)
        end = 0
        for a, b in spans:
            assert end <= a < b <= len(text)
            end = b
        assert analyze(text).sentence_spans == tuple(spans)

    @settings(max_examples=500, deadline=None)
    @given(_SEGMENT_TEXT)
    @example('He said "Stop." Then he left.')
    @example("Really?!\u201d She asked (twice.) Again.")
    @example("Pay 3.50 now. Dr. J. Smith, e.g. U.S.A. staff... Fine!\nEnd.")
    def test_jumping_segmenter_equals_character_scan(self, text):
        assert sentence_spans(text) == reference_sentence_spans(text)


class TestSyllables:
    @pytest.mark.parametrize(
        "word,expected",
        [("a", 1), ("data", 2), ("encryption", 3), ("table", 2), ("whale", 1),
         ("the", 1), ("one", 1), ("healthcare", 2), ("HIPAA", 2), ("don't", 1)],
    )
    def test_examples(self, word, expected):
        assert count_syllables(word) == expected

    @pytest.mark.parametrize(
        "word,expected",
        [("caf\u00e9", 2), ("r\u00e9sum\u00e9", 3), ("na\u00efve", 2), ("Zo\u00eb", 2),
         ("prot\u00e9g\u00e9es", 3), ("CAF\u00c9", 2), ("NA\u00cfVE", 2)],
    )
    def test_accented_vowels(self, word, expected):
        assert count_syllables(word) == expected

    @given(st.text(alphabet="aeiouybcdlmnrst", min_size=1, max_size=12),
           st.lists(st.sampled_from(["\u0301", "\u0300", "\u0302"]), max_size=12))
    def test_accents_without_diaeresis_keep_the_count(self, word, accents):
        # Accenting vowels other than a final "e" leaves the count of the plain word.
        accented = "".join(c + accents[i] if i < len(accents) and c in "aeiouy"
                           and not (c == "e" and i == len(word) - 1) else c
                           for i, c in enumerate(word))
        assert count_syllables(unicodedata.normalize("NFC", accented)) == count_syllables(word)

    def test_non_alphabetic_rejected(self):
        with pytest.raises(ValueError, match="no letters in token '42'"):
            count_syllables("42")

    def test_words_of_any_script_are_one_word(self):
        assert words("Les prot\u00e9g\u00e9es, na\u00efve and co-op's data_2 x\u00bd") == [
            "Les", "prot\u00e9g\u00e9es", "na\u00efve", "and", "co-op's", "data", "x\u00bd"]
        assert words("\u00bd \u00b2 42") == []
        assert smog_grade("A \u00bd portion.").polysyllable_count == 0

    @given(st.lists(st.sampled_from(["encryption", "data", "Anonymization", "na\u00efvet\u00e9",
                                     "confidentiality", "we", "re-identification", " ", ". "])))
    def test_polysyllables_counted_once_per_distinct_word(self, tokens):
        text = " ".join(tokens)
        assert count_polysyllables(text) == sum(1 for w in words(text) if count_syllables(w) >= 3)

    # Characters on either side of the ASCII word/non-word line, Unicode
    # letters, marks and numerics, and the whitespace str.split() splits on.
    _CHUNK_ALPHABET = (string.ascii_letters + string.digits + "_'\u2019-\u00bd\u00b2\u00e9\u00ef"
                       "\u0131\u0130\u017f\u212a\u0308\u6f22 \t\n\u00a0\x1c\u2028.")

    # Whole syllables make words of three or more likely.
    _CHUNK_PIECES = st.lists(st.one_of(st.sampled_from(_CHUNK_ALPHABET),
                                       st.sampled_from(["ba", "na", "tion", "ia", "\u00e9"])),
                             max_size=60).map("".join)

    @settings(max_examples=500, deadline=None)
    @given(_CHUNK_PIECES)
    @example("ba'ba'ba ba-ba-ba ba\u2019ba\u2019ba -banana- 'banana' anonymous_anonymous2anonymous")
    @example("ba\ud800ba'ba'ba \ud800ba'ba'ba\udfff")
    @example("Anonymization,\u00a0re-identification.\u2028Na\u00efvet\u00e9\u2019s \u0130ndia\u212aa\u0308")
    def test_chunked_count_equals_count_over_words(self, text):
        assert count_polysyllables(text) == sum(
            n for w, n in Counter(words(text)).items() if count_syllables(w) >= 3)

    def test_dictionary_fixture_agreement(self):
        fixture = json.loads((DATA / "syllable_words.json").read_text())["words"]
        assert len(fixture) == 200
        agree = sum(1 for w, n in fixture.items() if count_syllables(w) == n)
        assert agree / len(fixture) >= 0.95


class TestSmogFormula:
    def test_intercept(self):
        assert smog_from_counts(30, 0) == 3.1291

    def test_hand_evaluated_points(self):
        # 1.0430 * sqrt(30) + 3.1291 and 1.0430 * sqrt(40) + 3.1291
        assert smog_from_counts(30, 30) == pytest.approx(8.8419, abs=5e-4)
        assert smog_from_counts(45, 60) == pytest.approx(9.7257, abs=5e-4)

    def test_matches_formula_directly(self):
        for s, p in [(7, 3), (120, 240), (1, 0), (33, 5)]:
            assert smog_from_counts(s, p) == pytest.approx(
                1.0430 * math.sqrt(p * 30 / s) + 3.1291, abs=1e-12
            )

    def test_monotone_in_polysyllables(self):
        rng = random.Random(11)
        for _ in range(200):
            s = rng.randint(1, 400)
            p = rng.randint(0, 400)
            assert smog_from_counts(s, p + 1) >= smog_from_counts(s, p)

    def test_zero_sentences_rejected(self):
        with pytest.raises(ValueError, match="SMOG requires at least one sentence"):
            smog_from_counts(0, 5)


class TestGradeOnText:
    def test_thirty_plain_sentences(self):
        text = " ".join(["We do it."] * 30)
        result = smog_grade(text)
        assert result.sentence_count == 30
        assert result.polysyllable_count == 0
        assert result.smog_grade == 3.1291
        assert result.band is ReadabilityBand.SLIGHTLY_DIFFICULT
        assert result.points == 6

    def test_polysyllables_counted(self):
        text = "Encryption and anonymization protect confidentiality."
        result = smog_grade(text)
        assert result.sentence_count == 1
        assert result.polysyllable_count == 3

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError, match="no sentences in text"):
            smog_grade("   ")

    def test_from_grade_wrapper(self):
        r = ReadabilityResult.from_grade(12.8)
        assert r.band is ReadabilityBand.VERY_DIFFICULT
        assert r.points == 2


class TestBands:
    @pytest.mark.parametrize(
        "grade,expected",
        [
            (9.2, ReadabilityBand.SLIGHTLY_DIFFICULT),
            (9.5, ReadabilityBand.SOMEWHAT_DIFFICULT),
            (10.5, ReadabilityBand.FAIRLY_DIFFICULT),
            (11.5, ReadabilityBand.DIFFICULT),
            (12.4, ReadabilityBand.DIFFICULT),
            (12.8, ReadabilityBand.VERY_DIFFICULT),
            (13.5, ReadabilityBand.PROFESSIONAL),
            (14.2, ReadabilityBand.PROFESSIONAL),
        ],
    )
    def test_thresholds(self, grade, expected):
        assert band(grade) is expected

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            band(-0.1)

    def test_points_scale(self):
        assert readability_points(ReadabilityBand.PROFESSIONAL) == 1
        assert readability_points(ReadabilityBand.VERY_DIFFICULT) == 2
        assert readability_points(ReadabilityBand.DIFFICULT) == 3
        assert readability_points(ReadabilityBand.FAIRLY_DIFFICULT) == 4
        assert readability_points(ReadabilityBand.SOMEWHAT_DIFFICULT) == 5
        assert readability_points(ReadabilityBand.SLIGHTLY_DIFFICULT) == 6

    def test_points_anti_monotone_in_grade(self):
        rng = random.Random(3)
        grades = sorted(rng.uniform(0, 20) for _ in range(500))
        points = [readability_points(band(g)) for g in grades]
        assert all(a >= b for a, b in zip(points, points[1:]))

    def test_result_invariants_enforced(self):
        with pytest.raises(ValueError):
            ReadabilityResult(smog_grade=2.0, sentence_count=0, polysyllable_count=0)


def _bundled_texts() -> list[str]:
    codebook = load_codebook(FIXTURES / "codebook.json")
    docs = [cache_get(FIXTURES / "cache", rec.policy_url) for rec in codebook.records]
    return [doc.text for doc in docs if doc is not None and doc.accessible]


_BUNDLED = _bundled_texts()
_RULES = load_rules(default_rules_path())
_TERMINATOR_SPACE = re.compile("([.!?][\"')\\]\u201d\u2019]*) ")


def _hard_wrap(text: str, width: int) -> str:
    """Each line wrapped at about ``width`` columns: the first space at or
    past the width that comes before a lowercase letter becomes a newline."""
    out, col = list(text), 0
    for i, c in enumerate(text):
        if c == " " and col >= width and text[i + 1:i + 2].islower():
            out[i], col = "\n", 0
        else:
            col = 0 if c == "\n" else col + 1
    return "".join(out)


def _reading(text: str):
    """What the audit reads off a text: its sentences, findings and grade."""
    return sentence_spans(text), detect_all(text, _RULES), smog_grade(text).smog_grade


class TestWhitespaceInvariance:
    def test_bundled_texts(self):
        assert len(_BUNDLED) == 27

    @pytest.mark.ci_profile
    @settings(deadline=None)
    @given(st.sampled_from(_BUNDLED), st.lists(st.sampled_from(["\u00a0", "\u2009", "\u3000"]),
                                               min_size=1, max_size=5))
    def test_other_spaces_after_a_terminator_move_nothing(self, text, gaps):
        gap = itertools.cycle(gaps)
        spaced = _TERMINATOR_SPACE.sub(lambda m: m.group(1) + next(gap), text)
        assert spaced != text
        assert _reading(spaced) == _reading(text)

    @pytest.mark.ci_profile
    @settings(deadline=None)
    @given(st.sampled_from(_BUNDLED), st.integers(20, 100))
    @example(_BUNDLED[0], 72)
    def test_hard_wraps_before_lowercase_words_move_nothing(self, text, width):
        wrapped = extract_text(_hard_wrap(text, width).encode("utf-8"), "text/plain")
        assert len(wrapped) == len(text)
        assert _reading(wrapped) == _reading(text)
