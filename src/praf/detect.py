"""Rule-based detection of regulation mentions and privacy principles.

Verdicts are tri-state (yes / partial / no) and every positive verdict from a
detector carries evidence spans that re-match the rule which produced them.
Human annotations override detector verdicts via :func:`apply_overrides`.

Rule files map each dimension to ``{"strong": [...], "weak": [...]}``; the
two language dimensions also state their ``"thresholds"``. Patterns are
case-insensitive phrases; a trailing ``*`` on a word matches any suffix
("encrypt*" hits "encrypted"), and ``a ~ b`` requires both sub-patterns
within one sentence.

Evidence is scoped to one sentence. :func:`_evidence` is the one place a
pattern is matched: it runs each side of the pattern on each sentence of the
text by itself, so no match crosses a sentence boundary. Each rule gives at
most one span per sentence: its first match or, for ``a ~ b``, the span
covering the first match of each part. The regulation and principle
detectors keep these spans as evidence; the language detectors keep the
sentences, each with the first rule in rule order that hits it; the retention
duration is read from the sentences of the strong hits. No rule data lives in
code: a span's rule id (``dimension:index``) names the pattern that matched,
so the rules file is the one place a regulation is named.

Each side of a pattern keeps a *needle*: the longest run of ``[A-Za-z0-9_]``
in its ASCII words, lowercased, and a prefix if the run ends a word ending in
``*`` ("notif*" gives the prefix "notif", "third-part*" gives "third"). A
pattern runs only on *candidate sentences*, whose words hold every needle as a
word or a word's start. The document's word index
(:attr:`~praf.readability.AnalyzedText.word_sentences`, built once per
policy) maps each ``\\w+`` word of the ``FOLD``-ed text to its sentences, and
a needle is read from it. This is exact. The regex puts ``\\b`` or ``\\s+``
around each word, and the run is bounded by non-word characters inside its
word, so a match holds it as a word (or a word's start, before ``\\w*``).
``FOLD`` maps word characters and no others to word characters, and maps
each character that ``re.IGNORECASE`` equates with an ASCII character to
that character. The empty needle, of a side with no ASCII word, is in every
sentence. The regex runs with ``pos`` and ``endpos`` on the whole text, which
reads like the sentence alone: the characters just outside a sentence are
never word characters, so its words and ``\\b`` at its ends are the text's.

For the language detectors, ``ambiguous_language.strong`` holds the hedge
terms and ``vague_commitments`` uses ``strong`` for generic assurances with
``weak`` for the concrete-mechanism terms that defuse them.

:data:`DIMENSIONS` is the one table of the rubric's layout: for each
dimension its detector kind, matrix column and header, the rubric element it
feeds (scoring and the per-app report read it from here) and its summary
count. The element table is ``score.ELEMENTS``; the detectors, scoring,
reports and verification all read these two tables.
"""

from __future__ import annotations

import re
from enum import Enum
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import NUMBER, PrafError, read_json
from .readability import AnalyzedText, analyze


class Verdict(Enum):
    YES = "yes"
    PARTIAL = "partial"
    NO = "no"


class DetectionDimension(Enum):
    HIPAA_MENTION = "hipaa_mention"
    GDPR_MENTION = "gdpr_mention"
    OTHER_REGULATION = "other_regulation"
    DATA_MINIMIZATION = "data_minimization"
    DATA_ENCRYPTION = "data_encryption"
    ACCESS_CONTROLS = "access_controls"
    CONSENT_REQUIREMENTS = "consent_requirements"
    RETENTION_TIME = "retention_time"
    BREACH_PROTOCOL = "breach_protocol"
    AMBIGUOUS_LANGUAGE = "ambiguous_language"
    VAGUE_COMMITMENTS = "vague_commitments"
    ACCESSIBILITY_ACCOMMODATIONS = "accessibility_accommodations"
    THIRD_PARTY_SHARING = "third_party_sharing"


class DimensionSpec(NamedTuple):
    """How one dimension is detected, shown and scored."""

    kind: str                        # "regulation", "principle" or "language"
    column: str                      # matrix column
    header: str                      # markdown matrix header
    element: str | None              # rubric element it feeds; None = tracked, unscored
    count: tuple[str, str] | None = None  # summary count key and label


_D = DetectionDimension

# The rubric layout of every dimension, in matrix column order.
DIMENSIONS: dict[DetectionDimension, DimensionSpec] = {
    _D.HIPAA_MENTION: DimensionSpec(
        "regulation", "hipaa", "HIPAA", "regulatory", ("hipaa", "HIPAA mentioned")),
    _D.GDPR_MENTION: DimensionSpec(
        "regulation", "gdpr", "GDPR", "regulatory", ("gdpr", "GDPR mentioned")),
    _D.OTHER_REGULATION: DimensionSpec(
        "regulation", "other_regulations", "Other", "regulatory",
        ("other_regulation", "Other regulations mentioned")),
    _D.DATA_MINIMIZATION: DimensionSpec(
        "principle", "data_minimization", "Min", "min_retention",
        ("minimization", "Data minimization addressed")),
    _D.DATA_ENCRYPTION: DimensionSpec(
        "principle", "data_encryption", "Enc", "security",
        ("encryption", "Encryption addressed")),
    _D.ACCESS_CONTROLS: DimensionSpec(
        "principle", "access_controls", "Access", "security",
        ("access_controls", "Access controls addressed")),
    _D.CONSENT_REQUIREMENTS: DimensionSpec(
        "principle", "consent_requirements", "Consent", None),
    _D.RETENTION_TIME: DimensionSpec(
        "principle", "retention_time", "Ret", "min_retention",
        ("retention", "Retention period stated")),
    _D.BREACH_PROTOCOL: DimensionSpec(
        "principle", "breach_protocol", "Breach", "security",
        ("breach_protocol", "Breach protocol described")),
    _D.AMBIGUOUS_LANGUAGE: DimensionSpec(
        "language", "ambiguous_language", "Ambig", "usability"),
    _D.VAGUE_COMMITMENTS: DimensionSpec(
        "language", "vague_commitments", "Vague", "usability"),
    _D.ACCESSIBILITY_ACCOMMODATIONS: DimensionSpec(
        "principle", "accessibility_accommodations", "A11y", "usability"),
    _D.THIRD_PARTY_SHARING: DimensionSpec(
        "principle", "third_party_sharing", "3rd", "third_party",
        ("third_party", "Third-party sharing disclosed")),
}


def dimensions(*, kind: str | None = None, element: str | None = None) -> list[DetectionDimension]:
    """Dimensions of the table in column order, optionally only those of one
    kind or one rubric element."""
    return [dim for dim, spec in DIMENSIONS.items()
            if (kind is None or spec.kind == kind)
            and (element is None or spec.element == element)]


class EvidenceSpan(NamedTuple):
    """Character offsets into the source text plus the rule that matched."""

    start: int
    end: int
    rule_id: str


class _Finding(NamedTuple):
    dimension: DetectionDimension
    verdict: Verdict
    evidence: tuple[EvidenceSpan, ...] = ()
    detail: Mapping | None = None
    manual: bool = False


class Finding(_Finding):
    __slots__ = ()
    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.manual:
            if self.verdict is Verdict.NO and self.evidence:
                raise ValueError(f"{self.dimension.value}: verdict no with evidence")
            if self.verdict is not Verdict.NO and not self.evidence:
                raise ValueError(f"{self.dimension.value}: positive verdict without evidence")
        return self


class Side(NamedTuple):
    """One ``~`` part of a pattern: its regex, and its needle, a word that
    every match holds (or, with ``prefix``, the start of one)."""

    regex: re.Pattern
    word: str
    prefix: bool


class CompiledPattern(NamedTuple):
    raw: str
    rule_id: str
    sides: tuple[Side, ...]  # all must match in one sentence


def _side(phrase: str) -> Side:
    """The phrase's regex, with the first longest ``[A-Za-z0-9_]`` run of its
    ASCII words, lowercased, as its needle: a prefix when it ends a word
    ending in ``*``; empty when there is no such run."""
    words = phrase.split()
    if not words:
        raise PrafError(f"empty pattern {phrase!r}")
    pieces = [re.escape(w[:-1]) + r"\w*" if w.endswith("*") else re.escape(w) for w in words]
    regex = re.compile(r"\b" + r"\s+".join(pieces) + r"\b", re.IGNORECASE)
    runs = [(m[0].lower(), w.endswith("*") and m.end() == len(w) - 1)
            for w in words if w.isascii() for m in re.finditer(r"\w+", w)]
    word, prefix = max(runs, key=lambda run: len(run[0]), default=("", False))
    return Side(regex, word, prefix)


def compile_pattern(raw: str, rule_id: str) -> CompiledPattern:
    return CompiledPattern(raw, rule_id, tuple(_side(part.strip()) for part in raw.split("~")))


class DimensionRules(NamedTuple):
    strong: tuple[CompiledPattern, ...]
    weak: tuple[CompiledPattern, ...]
    thresholds: Mapping[str, float] = MappingProxyType({})


class _RuleSet(NamedTuple):
    by_dimension: Mapping[DetectionDimension, DimensionRules]


class RuleSet(_RuleSet):
    __slots__ = ()
    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for dim in DetectionDimension:
            rules = self.by_dimension.get(dim)
            if rules is None or not (rules.strong or rules.weak):
                raise PrafError(f"dimension {dim.value} has no rules")
        return self

    def rules_for(self, dim: DetectionDimension) -> DimensionRules:
        return self.by_dimension[dim]


# The rules file: an entry for every dimension. The two language detectors
# state their thresholds; no other dimension has any.
_RULES_SHAPE = {d.value: {"strong?": [str], "weak?": [str]} for d in DetectionDimension}
_RULES_SHAPE["ambiguous_language"]["thresholds"] = {"partial_density": NUMBER,
                                                    "yes_density": NUMBER}
_RULES_SHAPE["vague_commitments"]["thresholds"] = {"yes_sentences": int}


def load_rules(path: str | Path) -> RuleSet:
    data = read_json(path, _RULES_SHAPE, "rules file")
    by_dim = {}
    for key, spec in data.items():
        strong = spec.get("strong", [])
        patterns = []
        for i, raw in enumerate(strong + spec.get("weak", [])):
            try:
                patterns.append(compile_pattern(raw, f"{key}:{i}"))
            except PrafError as exc:
                side = f"strong[{i}]" if i < len(strong) else f"weak[{i - len(strong)}]"
                raise PrafError(f"rules file {path}: {exc}", f"{key}.{side}") from None
        by_dim[DetectionDimension(key)] = DimensionRules(
            strong=tuple(patterns[:len(strong)]),
            weak=tuple(patterns[len(strong):]),
            thresholds=spec.get("thresholds", {}),
        )
    try:
        return RuleSet(by_dimension=by_dim)
    except PrafError as exc:  # a dimension without rules
        raise PrafError(f"rules file {path}: {exc}") from None


def default_rules_path() -> Path:
    return Path(__file__).parent / "data" / "rules.json"


def _candidate_sentences(pattern: CompiledPattern, doc: AnalyzedText) -> Sequence[int]:
    """Indices, in text order, of the sentences whose words hold the needle
    of every side of the pattern: no other can match it."""
    first, *others = (doc.sentences_with(side.word, side.prefix) for side in pattern.sides)
    if not first or not others:
        return first
    sets = [set(o) for o in others]
    return [k for k in first if all(k in s for s in sets)]


def _evidence(pattern: CompiledPattern, doc: AnalyzedText) -> Iterator[tuple[int, EvidenceSpan]]:
    """The evidence of one pattern, in text order, with the index of its
    sentence: in each sentence where every side matches, the span from the
    earliest start to the latest end of each side's first match."""
    text, spans, rule_id = doc.text, doc.sentence_spans, pattern.rule_id
    for k in _candidate_sentences(pattern, doc):
        a, b = spans[k]
        matches = [side.regex.search(text, a, b) for side in pattern.sides]
        if all(matches):
            yield k, EvidenceSpan(min(m.start() for m in matches),
                                  max(m.end() for m in matches), rule_id)


def _first_rule_by_sentence(patterns: tuple[CompiledPattern, ...],
                            doc: AnalyzedText) -> dict[int, str]:
    """Each sentence that some pattern matches, in text order, with the rule
    id of the first pattern in rule order that matches it."""
    first: dict[int, str] = {}
    for pattern in patterns:
        for k, span in _evidence(pattern, doc):
            first.setdefault(k, span.rule_id)
    return dict(sorted(first.items()))


def detect_regulations(text: str | AnalyzedText, rules: RuleSet) -> list[Finding]:
    """Findings for the three regulation dimensions, in column order."""
    doc = analyze(text)
    return [_phrase_finding(doc, dim, rules) for dim in dimensions(kind="regulation")]


_DURATION_RE = re.compile(r"\b(\d+)\s*(day|week|month|year)s?\b", re.IGNORECASE)


def _retention_detail(doc: AnalyzedText, sentences: Iterable[int]) -> Mapping | None:
    """The first duration (a number and a unit) in the given sentences."""
    for k in sentences:
        m = _DURATION_RE.search(doc.text, *doc.sentence_spans[k])
        if m:
            return {"duration_value": int(m.group(1)), "duration_unit": m.group(2).lower()}
    return None


def _phrase_finding(doc: AnalyzedText, dim: DetectionDimension, rules: RuleSet) -> Finding:
    """Strong rules assert an explicit statement (yes); weak rules alone read as
    hedged coverage (partial). A yes for retention carries the first duration
    (number and unit) in a sentence with a strong retention match."""
    dr = rules.rules_for(dim)
    for verdict, patterns in ((Verdict.YES, dr.strong), (Verdict.PARTIAL, dr.weak)):
        hits = [(k, span) for p in patterns for k, span in _evidence(p, doc)]
        if hits:
            break
    else:
        return Finding(dim, Verdict.NO)
    detail = None
    if verdict is Verdict.YES and dim is DetectionDimension.RETENTION_TIME:
        detail = _retention_detail(doc, sorted({k for k, _ in hits}))
    evidence = sorted((span for _, span in hits), key=lambda s: (s.start, s.end, s.rule_id))
    return Finding(dim, verdict, tuple(evidence), detail)


def detect_principle(text: str | AnalyzedText, dimension: DetectionDimension,
                     rules: RuleSet) -> Finding:
    """Detect one of the eight principle dimensions (see :func:`_phrase_finding`)."""
    if DIMENSIONS[dimension].kind != "principle":
        raise ValueError(
            f"{dimension.value} is not a principle dimension; use its dedicated detector"
        )
    return _phrase_finding(analyze(text), dimension, rules)


def detect_ambiguity(text: str | AnalyzedText, rules: RuleSet) -> Finding:
    """Hedge density over sentences; evidence spans are the hedged sentences."""
    doc = analyze(text)
    sentences = doc.sentence_spans
    if not sentences:
        raise ValueError("ambiguity detection needs at least one sentence")
    dr = rules.rules_for(DetectionDimension.AMBIGUOUS_LANGUAGE)
    partial_at, yes_at = dr.thresholds["partial_density"], dr.thresholds["yes_density"]
    spans = [EvidenceSpan(*sentences[k], rule_id)
             for k, rule_id in _first_rule_by_sentence(dr.strong, doc).items()]
    density = len(spans) / len(sentences)
    detail = {"hedged_sentences": len(spans), "sentences": len(sentences),
              "density": round(density, 4)}
    # No hedged sentence is no evidence, whatever the thresholds.
    verdict = (Verdict.NO if not spans else Verdict.YES if density >= yes_at
               else Verdict.PARTIAL if density >= partial_at else Verdict.NO)
    evidence = tuple(spans) if verdict is not Verdict.NO else ()
    return Finding(DetectionDimension.AMBIGUOUS_LANGUAGE, verdict, evidence, detail)


def detect_vague_commitments(text: str | AnalyzedText, rules: RuleSet) -> Finding:
    """Generic security assurances with no concrete mechanism in the same sentence."""
    doc = analyze(text)
    dr = rules.rules_for(DetectionDimension.VAGUE_COMMITMENTS)
    yes_at = dr.thresholds["yes_sentences"]
    claims = _first_rule_by_sentence(dr.strong, doc)
    # A named safeguard in the same sentence defuses a claim.
    defused = {k for p in dr.weak for k, _ in _evidence(p, doc) if k in claims}
    spans = [EvidenceSpan(*doc.sentence_spans[k], rule_id)
             for k, rule_id in claims.items() if k not in defused]
    detail = {"vague_sentences": len(spans)}
    verdict = Verdict.NO if not spans else Verdict.YES if len(spans) >= yes_at else Verdict.PARTIAL
    return Finding(DetectionDimension.VAGUE_COMMITMENTS, verdict, tuple(spans), detail)


def detect_all(text: str | AnalyzedText, rules: RuleSet) -> list[Finding]:
    """All thirteen findings in table column order, from one analysis of the text."""
    doc = analyze(text)
    by_dim = {f.dimension: f for f in detect_regulations(doc, rules)}
    for dim in dimensions(kind="principle"):
        by_dim[dim] = detect_principle(doc, dim, rules)
    by_dim[DetectionDimension.AMBIGUOUS_LANGUAGE] = detect_ambiguity(doc, rules)
    by_dim[DetectionDimension.VAGUE_COMMITMENTS] = detect_vague_commitments(doc, rules)
    return [by_dim[dim] for dim in DIMENSIONS]


def no_findings() -> list[Finding]:
    """All-no findings, used for policies with no analyzable text."""
    return [Finding(dim, Verdict.NO) for dim in DIMENSIONS]


def apply_overrides(findings: list[Finding], overrides: Mapping[DetectionDimension, Verdict]) -> list[Finding]:
    """Replace detector verdicts with reviewer decisions.

    Overridden findings are flagged manual; a manual "no" drops the automated
    evidence, while positive overrides keep it for reference. Raises
    ValueError when an override names a dimension absent from findings.
    """
    present = {f.dimension for f in findings}
    for dim in overrides:
        if dim not in present:
            raise ValueError(f"override for {dim.value} matches no finding")
    result = []
    for f in findings:
        verdict = overrides.get(f.dimension)
        if verdict is None or (verdict is f.verdict and f.manual):
            result.append(f)
            continue
        evidence = f.evidence if verdict is not Verdict.NO else ()
        result.append(Finding(f.dimension, verdict, evidence, f.detail, manual=True))
    return result
