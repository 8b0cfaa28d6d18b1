"""Five-element privacy risk scoring.

Element scales (accessible policies):
  regulatory 1..4, security 3..6, usability 4..12, minimization/retention 2..4,
  third-party 1..2. An inaccessible policy scores zero on every element.
The overall risk score is the plain sum of the five elements (max 28).

:data:`ELEMENTS` is the one table of the elements' names, matrix columns,
labels and ceilings; which dimensions feed each element is recorded in
``detect.DIMENSIONS``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .detect import DetectionDimension as Dim, Finding, Verdict, dimensions
from .errors import MissingReadability
from .readability import ReadabilityResult


@dataclass(frozen=True)
class PrafProfile:
    app: str
    regulatory: int
    security: int
    usability: int
    min_retention: int
    third_party: int
    overall: int

    def __post_init__(self):
        if self.overall != (self.regulatory + self.security + self.usability
                            + self.min_retention + self.third_party):
            raise ValueError(f"{self.app}: overall is not the sum of elements")

    def elements(self) -> dict[str, int]:
        return {e.field: getattr(self, e.field) for e in ELEMENTS[:-1]}


@dataclass(frozen=True)
class Element:
    field: str    # PrafProfile attribute
    column: str   # matrix column
    label: str
    ceiling: int
    header: str   # markdown matrix header


# The five rubric elements in report order, then the overall score.
ELEMENTS = (
    Element("regulatory", "regulatory_compliance", "Regulatory compliance", 4, "Reg"),
    Element("security", "data_security", "Data security", 6, "Sec"),
    Element("usability", "usability_accessibility", "Usability & accessibility", 12, "Usab"),
    Element("min_retention", "minimization_retention", "Minimization & retention", 4, "M/R"),
    Element("third_party", "third_party", "Third-party sharing", 2, "3rd"),
    Element("overall", "overall_risk", "Overall risk", 28, "Overall"),
)


@dataclass(frozen=True)
class ScoringInput:
    app: str
    accessible: bool
    findings: Mapping[Dim, Finding]
    readability: ReadabilityResult | None = None

    def __post_init__(self):
        if self.accessible:
            if self.readability is None:
                raise MissingReadability(f"{self.app}: accessible policy needs readability")
            missing = [d.value for d in Dim if d not in self.findings]
            if missing:
                raise ValueError(f"{self.app}: findings missing for {missing}")
        elif self.readability is not None:
            raise ValueError(f"{self.app}: inaccessible policy cannot carry readability")

    def verdict(self, dim: Dim) -> Verdict:
        return self.findings[dim].verdict


def _present(verdict: Verdict) -> int:
    """2 points for implementation, 1 for non-implementation; partial claims
    score as non-implementation."""
    return 2 if verdict is Verdict.YES else 1


def _present_points(inp: ScoringInput, element: str) -> int:
    """Presence points summed over every dimension that feeds the element."""
    return sum(_present(inp.verdict(d)) for d in dimensions(element=element))


def score_regulatory(inp: ScoringInput) -> int:
    if not inp.accessible:
        return 0
    hipaa = inp.verdict(Dim.HIPAA_MENTION) is Verdict.YES
    gdpr = inp.verdict(Dim.GDPR_MENTION) is Verdict.YES
    if hipaa and gdpr:
        return 4
    if hipaa or gdpr:
        return 3
    if inp.verdict(Dim.OTHER_REGULATION) is Verdict.YES:
        return 2
    return 1


def score_security(inp: ScoringInput) -> int:
    if not inp.accessible:
        return 0
    return _present_points(inp, "security")


def score_usability(inp: ScoringInput) -> int:
    if not inp.accessible:
        return 0
    if inp.readability is None:
        raise MissingReadability(f"{inp.app}: usability needs a readability result")
    ambiguity = 2 if inp.verdict(Dim.AMBIGUOUS_LANGUAGE) is Verdict.NO else 1
    commitments = 2 if inp.verdict(Dim.VAGUE_COMMITMENTS) is Verdict.NO else 1
    accessibility = _present(inp.verdict(Dim.ACCESSIBILITY_ACCOMMODATIONS))
    return inp.readability.points + ambiguity + commitments + accessibility


def score_min_retention(inp: ScoringInput) -> int:
    if not inp.accessible:
        return 0
    return _present_points(inp, "min_retention")


def score_third_party(inp: ScoringInput) -> int:
    if not inp.accessible:
        return 0
    return _present_points(inp, "third_party")


def score_app(inp: ScoringInput) -> PrafProfile:
    regulatory = score_regulatory(inp)
    security = score_security(inp)
    usability = score_usability(inp)
    min_retention = score_min_retention(inp)
    third_party = score_third_party(inp)
    return PrafProfile(
        app=inp.app,
        regulatory=regulatory,
        security=security,
        usability=usability,
        min_retention=min_retention,
        third_party=third_party,
        overall=regulatory + security + usability + min_retention + third_party,
    )
