"""Five-element privacy risk scoring from an app's findings and readability.

Element scales (accessible policies):
  regulatory 1..4, security 3..6, usability 4..12, minimization/retention 2..4,
  third-party 1..2. A policy without a readability result is inaccessible and
  :func:`score_app` scores it zero on every element. The overall risk score is
  the plain sum of the five elements (max 28), derived rather than stored.

:data:`ELEMENTS` is the one table of the elements' names, matrix columns,
labels and ceilings; ``detect.DIMENSIONS`` decides which element each
dimension feeds. The three regulation dimensions make one
:func:`score_regulatory` score; any other dimension adds 2 points when it is
a principle that is present or a language fault that is absent, else 1.
Usability starts from the readability points.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple

from .detect import DIMENSIONS, DetectionDimension as Dim, Finding, Verdict
from .readability import ReadabilityResult


class PrafProfile(NamedTuple):
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


class Element(NamedTuple):
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


# The verdict worth 2 points: a principle present, a language fault absent.
_GOOD = {"principle": Verdict.YES, "language": Verdict.NO}


def score_app(app: str, findings: Mapping[Dim, Finding],
              readability: ReadabilityResult | None) -> PrafProfile:
    """All zeros for an inaccessible policy (no readability); otherwise every
    dimension that feeds an element needs a finding (KeyError if not)."""
    if readability is None:
        return PrafProfile(app, 0, 0, 0, 0, 0)
    points = {e.field: 0 for e in ELEMENTS[:-1]}
    points.update(regulatory=score_regulatory(findings), usability=readability.points)
    for dim, spec in DIMENSIONS.items():
        if spec.element and spec.kind != "regulation":
            points[spec.element] += 2 if findings[dim].verdict is _GOOD[spec.kind] else 1
    return PrafProfile(app, **points)
