"""SMOG readability: sentence segmentation, syllable counting, grade, bands, points.

:func:`analyze` segments a text once; the detectors and :func:`smog_grade`
accept its :class:`AnalyzedText` in place of the text, so every layer that
reads a policy shares one segmentation.

The grade uses the standard SMOG regression

    grade = 1.0430 * sqrt(polysyllables * 30 / sentences) + 3.1291

where a polysyllable is a word of three or more syllables. The 30-sentence
normalization makes the grade length-independent. Grades map onto six
difficulty bands, which convert to the 1..6 points used by the usability
element of the risk rubric. A :class:`ReadabilityResult` stores only the grade
and its counts; its band and points are worked out from the grade.
"""

from __future__ import annotations

import functools
import math
import re
import unicodedata
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

SMOG_SLOPE = 1.0430
SMOG_INTERCEPT = 3.1291

# Band boundaries fitted against the bundled reference audit (see
# scripts/fit_band_thresholds.py for the feasible intervals).
BAND_EDGES = (9.5, 10.5, 11.5, 12.5, 13.5)


class ReadabilityBand(Enum):
    """Difficulty bands from easiest to hardest; :func:`band` and the points
    follow this member order."""

    SLIGHTLY_DIFFICULT = "SD"
    SOMEWHAT_DIFFICULT = "SWD"
    FAIRLY_DIFFICULT = "FD"
    DIFFICULT = "D"
    VERY_DIFFICULT = "VD"
    PROFESSIONAL = "P"

    @property
    def code(self) -> str:
        return self.value

    @property
    def label(self) -> str:
        return self.name.replace("_", " ").title()


# Easier bands earn more usability points: Professional=1 .. Slightly Difficult=6.
_BAND_POINTS = {b: len(ReadabilityBand) - i for i, b in enumerate(ReadabilityBand)}


def band(grade: float) -> ReadabilityBand:
    """Map a SMOG grade to its difficulty band (right-open intervals)."""
    if grade < 0:
        raise ValueError(f"grade must be non-negative, got {grade}")
    for edge, b in zip(BAND_EDGES, ReadabilityBand):
        if grade < edge:
            return b
    return ReadabilityBand.PROFESSIONAL


def readability_points(b: ReadabilityBand) -> int:
    return _BAND_POINTS[b]


@dataclass(frozen=True)
class ReadabilityResult:
    smog_grade: float
    sentence_count: int
    polysyllable_count: int

    def __post_init__(self):
        if self.smog_grade < SMOG_INTERCEPT - 1e-9:
            raise ValueError("SMOG grade below formula intercept")
        if self.sentence_count > 0:
            expected = smog_from_counts(self.sentence_count, self.polysyllable_count)
            if abs(expected - self.smog_grade) > 1e-9:
                raise ValueError("grade inconsistent with counts")

    @property
    def band(self) -> ReadabilityBand:
        return band(self.smog_grade)

    @property
    def points(self) -> int:
        return readability_points(self.band)

    @classmethod
    def from_grade(cls, grade: float) -> "ReadabilityResult":
        """Wrap a pre-computed grade (e.g. reference data) without counts."""
        return cls(smog_grade=float(grade), sentence_count=0, polysyllable_count=0)


def smog_from_counts(sentences: int, polysyllables: int) -> float:
    """SMOG grade from raw counts; sentences must be >= 1."""
    if sentences < 1:
        raise ValueError("SMOG requires at least one sentence")
    return SMOG_SLOPE * math.sqrt(polysyllables * 30.0 / sentences) + SMOG_INTERCEPT


# --- sentence segmentation -------------------------------------------------

# Trailing period does not end a sentence after these tokens (lowercased,
# trailing dot stripped, internal dots kept: "u.s." -> "u.s").
ABBREVIATIONS = frozenset({
    "dr", "mr", "mrs", "ms", "prof", "rev", "sr", "jr", "st",
    "inc", "ltd", "llc", "co", "corp", "dept", "assn",
    "vs", "etc", "approx", "est",
    "e.g", "i.e", "eg", "ie", "u.s", "u.k", "u.s.a", "al", "a.m", "p.m",
})

_TERMINATORS = ".!?"
_CLOSERS = "\"'”’)]"
_BREAK_RE = re.compile("[\n" + re.escape(_TERMINATORS) + "]")  # where a sentence may end
_RUN_RE = re.compile("[" + re.escape(_TERMINATORS + _CLOSERS) + "]*")  # rest of a terminator run


def _token_before(text: str, i: int) -> str:
    """Word (letters and internal dots) immediately before position i."""
    j = i
    while j > 0 and (text[j - 1].isalpha() or text[j - 1] == "."):
        j -= 1
    return text[j:i].lower().strip(".")


def _hard_wrap(text: str, i: int) -> bool:
    """The newline at i continues its sentence: spaces or tabs, then a
    lowercase letter follow it."""
    k = i + 1
    while k < len(text) and text[k] in " \t":
        k += 1
    return k < len(text) and text[k].islower()


def _boundary_ok(text: str, j: int) -> bool:
    """A terminator run ending at j splits only before an uppercase letter,
    digit, opening quote, a newline that is not a hard wrap, or end of text.
    Any other whitespace may come between (a no-break space, say)."""
    k = j + 1
    while k < len(text) and text[k] != "\n" and text[k].isspace():
        k += 1
    if k >= len(text):
        return True
    c = text[k]
    if c == "\n":
        return not _hard_wrap(text, k)
    return c.isupper() or c.isdigit() or c in "\"'“‘("


def sentence_spans(text: str) -> list[tuple[int, int]]:
    """Deterministic sentence boundaries as (start, end) offsets.

    Splits on . ! ? and on newlines. A period does not split after a known
    abbreviation or inside a decimal number; a newline followed by spaces or
    tabs and a lowercase letter is a hard wrap inside a sentence, not a
    break. Whitespace-only segments are dropped. The scan jumps from one
    newline or terminator to the next, past the run of terminators and
    closers that follows a terminator.
    """
    spans: list[tuple[int, int]] = []

    def emit(a: int, b: int) -> None:
        while a < b and text[a].isspace():
            a += 1
        while b > a and text[b - 1].isspace():
            b -= 1
        if b > a:
            spans.append((a, b))

    start = 0
    n = len(text)
    found = _BREAK_RE.search(text)
    while found is not None:
        i = j = found.start()
        c = text[i]
        if c == "\n":
            if not _hard_wrap(text, i):
                emit(start, i)
                start = i + 1
        else:
            j = _RUN_RE.match(text, i + 1).end() - 1
            split = True
            if c == ".":
                before = _token_before(text, i)
                if 0 < i < n - 1 and text[i - 1].isdigit() and text[i + 1].isdigit():
                    split = False  # decimal like 3.5
                elif before in ABBREVIATIONS or len(before) == 1:
                    split = False  # known abbreviation or an initial ("J. Smith")
            if split and not _boundary_ok(text, j):
                split = False
            if split:
                emit(start, j + 1)
                start = j + 1
        found = _BREAK_RE.search(text, j + 1)
    emit(start, n)
    return spans


def segment_sentences(text: str) -> list[str]:
    return [text[a:b] for a, b in sentence_spans(text)]


# Case fold for an ASCII literal search: A-Z to a-z, plus the only other code
# points that re.IGNORECASE equates with an ASCII letter. A character matches
# an ASCII letter case-insensitively only if FOLD maps it to that letter, so a
# lowercase ASCII literal absent from a text mapped by FOLD cannot match there.
# tests/test_detect.py checks this over every code point of the running Python.
FOLD = {
    **{c: c + 32 for c in range(ord("A"), ord("Z") + 1)},
    0x130: ord("i"),   # LATIN CAPITAL LETTER I WITH DOT ABOVE
    0x131: ord("i"),   # LATIN SMALL LETTER DOTLESS I
    0x17F: ord("s"),   # LATIN SMALL LETTER LONG S
    0x212A: ord("k"),  # KELVIN SIGN
}

# FOLD on ASCII bytes, with each ASCII byte but [A-Za-z0-9_] a space. Mapped
# as UTF-8 bytes, a text keeps every offset (a non-ASCII character's bytes are
# 0x80 or above and stay) and, unlike with str.translate, is mapped fast even
# when it holds one non-ASCII character.
_FOLD_WORDS = bytes.maketrans(bytes(range(128)), bytes(
    ord(chr(c).lower()) if chr(c).isalnum() or chr(c) == "_" else ord(" ") for c in range(128)))


@dataclass(frozen=True)
class AnalyzedText:
    """A text with its sentence spans, computed once, and the index of its
    words, built the first time it is read."""

    text: str
    sentence_spans: tuple[tuple[int, int], ...]

    @functools.cached_property
    def word_sentences(self) -> dict[str, list[int]]:
        """Each ``\\w+`` word of the :data:`FOLD`-ed text, with the indices,
        in text order, of the sentences that hold it. An ASCII sentence's
        words are the chunks of its mapped text; in another, "’" and "©" are
        not word characters but "é" is, so the regex finds them."""
        mapped = self.text.encode("utf-8", "surrogatepass").translate(_FOLD_WORDS)
        mapped = mapped.decode("utf-8", "surrogatepass")
        index: dict[str, list[int]] = {}
        for k, (a, b) in enumerate(self.sentence_spans):
            s = mapped[a:b]
            for word in s.split() if s.isascii() else re.findall(r"\w+", s.translate(FOLD)):
                sentences = index.get(word)
                if sentences is None:
                    index[word] = [k]
                elif sentences[-1] != k:  # once per sentence
                    sentences.append(k)
        return index

    @functools.cached_property
    def vocabulary(self) -> list[str]:
        """The words of :attr:`word_sentences`, sorted."""
        return sorted(self.word_sentences)

    def sentences_with(self, word: str, prefix: bool = False) -> Sequence[int]:
        """Indices, in text order, of the sentences whose words hold ``word``
        (lowercase ASCII), or with ``prefix`` a word that starts with it.
        Every sentence holds the empty word."""
        if not word:
            return range(len(self.sentence_spans))
        if not prefix:
            return self.word_sentences.get(word, ())
        vocabulary = self.vocabulary
        i = j = bisect_left(vocabulary, word)
        while j < len(vocabulary) and vocabulary[j].startswith(word):
            j += 1
        return sorted({k for w in vocabulary[i:j] for k in self.word_sentences[w]})


def analyze(text: str | AnalyzedText) -> AnalyzedText:
    """Segment ``text``; an :class:`AnalyzedText` is returned as is."""
    if isinstance(text, AnalyzedText):
        return text
    return AnalyzedText(text, tuple(sentence_spans(text)))


# --- syllables --------------------------------------------------------------

# Uppercase vowels stand for vowels with a diaeresis, which start a new group.
_VOWELS = set("aeiouyAEIOUY")


def _vowel_key(c: str) -> str:
    """A lowercase letter's NFD base if that is a vowel, uppercased when the
    letter has a diaeresis ("é" -> "e", "ï" -> "I"); other letters as they are."""
    base, *marks = unicodedata.normalize("NFD", c)
    if base not in _VOWELS:
        return c
    return base.upper() if "\u0308" in marks else base


@functools.lru_cache(maxsize=1 << 14)
def count_syllables(word: str) -> int:
    """Heuristic syllable count: maximal vowel groups (a e i o u y, or a letter
    whose NFD base is one; a diaeresis starts a new group), minus one for a
    terminal silent plain 'e' (kept when the word ends in consonant + 'le');
    never less than one. Raises ValueError for tokens without letters."""
    letters = [c for c in word.lower() if c.isalpha()]
    if not letters:
        raise ValueError(f"no letters in token {word!r}")
    keys = letters if word.isascii() else [_vowel_key(c) for c in letters]
    groups = 0
    prev_vowel = False
    for c in keys:
        is_vowel = c in _VOWELS
        if is_vowel and (not prev_vowel or c.isupper()):
            groups += 1
        prev_vowel = is_vowel
    if groups > 1 and letters[-1] == "e" and len(letters) >= 2 and keys[-2] not in _VOWELS:
        # terminal silent e; "-le" after a consonant keeps its syllable (table)
        if not (letters[-2] == "l" and len(letters) >= 3 and keys[-3] not in _VOWELS):
            groups -= 1
    return max(groups, 1)


# Runs of word characters that are neither digits nor "_": the letters of any
# script, plus the few numeric characters that are not digits ("½", "²").
_WORD_RE = re.compile(r"[^\W\d_]+(?:['’-][^\W\d_]+)*")


# Every ASCII byte that no word can contain (all but letters, "'" and "-")
# maps to a space. No _WORD_RE match holds such a character or any
# whitespace, and the regex has no anchors or lookaround, so the matches in
# each whitespace-separated chunk of the mapped text are exactly the text's.
# The mapping runs on UTF-8 bytes, where every byte of a non-ASCII character
# is 0x80 or above and so stays as it is: str.translate would leave its
# ASCII fast path on any non-ASCII text and run about 60 times slower.
_NON_WORD = bytes.maketrans(bytes(range(128)), bytes(
    c if chr(c).isalpha() or chr(c) in "'-" else ord(" ") for c in range(128)))


def count_polysyllables(text: str) -> int:
    """Words of three or more syllables: the ``_WORD_RE`` matches that hold a
    letter, that is letters of any script joined by internal apostrophes or
    hyphens.

    The text is mapped and split into chunks once; the word regex runs once
    per distinct chunk, and each distinct word's syllables are counted once
    (and memoised across calls).
    """
    mapped = text.encode("utf-8", "surrogatepass").translate(_NON_WORD)
    counts: Counter[str] = Counter()
    for chunk, n in Counter(mapped.decode("utf-8", "surrogatepass").split()).items():
        for w in _WORD_RE.findall(chunk):
            counts[w] += n
    return sum(n for w, n in counts.items()
               if (w.isascii() or any(map(str.isalpha, w))) and count_syllables(w) >= 3)


def smog_grade(text: str | AnalyzedText) -> ReadabilityResult:
    """Full SMOG computation over plain or analysed text."""
    doc = analyze(text)
    sentences = doc.sentence_spans
    if not sentences:
        raise ValueError("no sentences in text")
    poly = count_polysyllables(doc.text)
    return ReadabilityResult(
        smog_grade=smog_from_counts(len(sentences), poly),
        sentence_count=len(sentences),
        polysyllable_count=poly,
    )
