"""Five-element privacy risk scoring from an app's findings and readability.

Element scales (accessible policies):
  regulatory 1..4, security 3..6, usability 4..12, minimization/retention 2..4,
  third-party 1..2. A policy without a readability result is inaccessible and
  :func:`score_app` scores it zero on every element. The overall risk score is
  the plain sum of the five elements (max 28), derived rather than stored.

:data:`ELEMENTS` is the one table of the elements' names, matrix columns,
labels and ceilings; which dimensions feed each element is recorded in
``detect.DIMENSIONS``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .detect import DetectionDimension as Dim, Finding, Verdict, dimensions
from .readability import ReadabilityResult


@dataclass(frozen=True)
class PrafProfile:
    app: str
    regulatory: int
    security: int
    usability: int
    min_retention: int
    third_party: int

    @property
    def overall(self) -> int:
        return sum(self.elements().values())

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


def _present(verdict: Verdict) -> int:
    """2 points for implementation, 1 for non-implementation; partial claims
    score as non-implementation."""
    return 2 if verdict is Verdict.YES else 1


def _present_points(findings: Mapping[Dim, Finding], element: str) -> int:
    """Presence points summed over every dimension that feeds the element."""
    return sum(_present(findings[d].verdict) for d in dimensions(element=element))


def score_regulatory(findings: Mapping[Dim, Finding]) -> int:
    hipaa = findings[Dim.HIPAA_MENTION].verdict is Verdict.YES
    gdpr = findings[Dim.GDPR_MENTION].verdict is Verdict.YES
    if hipaa and gdpr:
        return 4
    if hipaa or gdpr:
        return 3
    if findings[Dim.OTHER_REGULATION].verdict is Verdict.YES:
        return 2
    return 1


def score_security(findings: Mapping[Dim, Finding]) -> int:
    return _present_points(findings, "security")


def score_usability(findings: Mapping[Dim, Finding], readability: ReadabilityResult) -> int:
    ambiguity = 2 if findings[Dim.AMBIGUOUS_LANGUAGE].verdict is Verdict.NO else 1
    commitments = 2 if findings[Dim.VAGUE_COMMITMENTS].verdict is Verdict.NO else 1
    accessibility = _present(findings[Dim.ACCESSIBILITY_ACCOMMODATIONS].verdict)
    return readability.points + ambiguity + commitments + accessibility


def score_min_retention(findings: Mapping[Dim, Finding]) -> int:
    return _present_points(findings, "min_retention")


def score_third_party(findings: Mapping[Dim, Finding]) -> int:
    return _present_points(findings, "third_party")


def score_app(app: str, findings: Mapping[Dim, Finding],
              readability: ReadabilityResult | None) -> PrafProfile:
    """All zeros for an inaccessible policy (no readability); otherwise every
    dimension that feeds an element needs a finding (KeyError if not)."""
    if readability is None:
        return PrafProfile(app, 0, 0, 0, 0, 0)
    return PrafProfile(
        app=app,
        regulatory=score_regulatory(findings),
        security=score_security(findings),
        usability=score_usability(findings, readability),
        min_retention=score_min_retention(findings),
        third_party=score_third_party(findings),
    )
