import pytest
from hypothesis import given, settings, strategies as st

from praf.corpus import AppCategory, AppRecord
from praf.detect import DIMENSIONS, DetectionDimension as Dim, Finding, Verdict
from praf.pipeline import audit_from_findings
from praf.readability import BAND_EDGES, SMOG_INTERCEPT, ReadabilityBand, ReadabilityResult
from praf.report import emit_app_report
from praf.score import ELEMENTS, score_app, score_regulatory

from oracles import rubric_scores

YES, PARTIAL, NO = Verdict.YES, Verdict.PARTIAL, Verdict.NO


def make_findings(**verdicts) -> dict:
    """A finding for every dimension: the named verdicts, "no" for the rest."""
    return {dim: Finding(dim, verdicts.get(dim.name.lower(), NO), manual=True) for dim in Dim}


def make_input(grade=13.0, **verdicts) -> tuple[dict, ReadabilityResult]:
    """Findings and readability of an accessible policy."""
    return make_findings(**verdicts), ReadabilityResult.from_grade(grade)


def score_accessible(grade=13.0, **verdicts):
    return score_app("T1", *make_input(grade, **verdicts))


def score_inaccessible(**verdicts):
    return score_app("T0", make_findings(**verdicts), None)


# The lowest grade of each band: bands are right-open intervals of the grade.
GRADE_PER_BAND = dict(zip(ReadabilityBand, (SMOG_INTERCEPT, *BAND_EDGES)))

# Element scales of an accessible policy, as the rubric states them.
RUBRIC_RANGES = {"regulatory": (1, 4), "security": (3, 6), "usability": (4, 12),
                 "min_retention": (2, 4), "third_party": (1, 2)}


class TestRegulatory:
    def test_both(self):
        assert score_regulatory(make_findings(hipaa_mention=YES, gdpr_mention=YES)) == 4

    def test_one_of_two(self):
        assert score_regulatory(make_findings(gdpr_mention=YES)) == 3
        assert score_regulatory(make_findings(hipaa_mention=YES)) == 3

    def test_other_only(self):
        assert score_regulatory(make_findings(other_regulation=YES)) == 2

    def test_none(self):
        assert score_regulatory(make_findings()) == 1

    def test_inaccessible(self):
        assert score_inaccessible(hipaa_mention=YES, gdpr_mention=YES).regulatory == 0

    def test_partial_counts_as_absent(self):
        assert score_regulatory(make_findings(hipaa_mention=PARTIAL)) == 1


class TestSecurity:
    # Independently written table over (encryption, access, breach).
    TABLE = {
        (YES, YES, YES): 6,
        (YES, YES, NO): 5,
        (NO, NO, NO): 3,
        (YES, NO, NO): 4,
        (NO, YES, YES): 5,
        (PARTIAL, PARTIAL, PARTIAL): 3,
        (YES, PARTIAL, NO): 4,
    }

    @pytest.mark.parametrize("combo,expected", list(TABLE.items()))
    def test_examples(self, combo, expected):
        enc, acc, breach = combo
        profile = score_accessible(data_encryption=enc, access_controls=acc, breach_protocol=breach)
        assert profile.security == expected

    def test_inaccessible(self):
        profile = score_inaccessible(data_encryption=YES, access_controls=YES, breach_protocol=YES)
        assert profile.security == 0


class TestUsability:
    def test_very_difficult_clean_policy(self):
        profile = score_accessible(grade=13.0, third_party_sharing=YES)
        assert profile.usability == 2 + 2 + 2 + 1

    def test_slightly_difficult(self):
        assert score_accessible(grade=9.2).usability == 6 + 2 + 2 + 1

    def test_professional_with_partials(self):
        profile = score_accessible(grade=14.2, ambiguous_language=PARTIAL,
                                   vague_commitments=PARTIAL)
        assert profile.usability == 1 + 1 + 1 + 1

    def test_accessibility_bonus(self):
        profile = score_accessible(grade=12.0, accessibility_accommodations=YES)
        assert profile.usability == 3 + 2 + 2 + 2

    def test_inaccessible(self):
        assert score_inaccessible(accessibility_accommodations=YES).usability == 0


class TestMinRetention:
    # Independently written table over (minimization, retention).
    TABLE = {
        (YES, YES): 4,
        (YES, NO): 3,
        (NO, YES): 3,
        (NO, NO): 2,
        (PARTIAL, YES): 3,
        (PARTIAL, PARTIAL): 2,
    }

    @pytest.mark.parametrize("combo,expected", list(TABLE.items()))
    def test_examples(self, combo, expected):
        mini, ret = combo
        assert score_accessible(data_minimization=mini, retention_time=ret).min_retention == expected

    def test_inaccessible(self):
        assert score_inaccessible(data_minimization=YES, retention_time=YES).min_retention == 0


class TestThirdParty:
    def test_scale(self):
        assert score_accessible(third_party_sharing=YES).third_party == 2
        assert score_accessible(third_party_sharing=NO).third_party == 1
        assert score_accessible(third_party_sharing=PARTIAL).third_party == 1
        assert score_inaccessible(third_party_sharing=YES).third_party == 0


class TestScoreApp:
    def test_full_profile_sums(self):
        inp = make_input(
            hipaa_mention=YES, gdpr_mention=YES,
            data_minimization=YES, data_encryption=YES, access_controls=YES,
            consent_requirements=YES, retention_time=YES, breach_protocol=YES,
            third_party_sharing=YES,
        )
        profile = score_app("T1", *inp)
        assert (profile.regulatory, profile.security, profile.usability,
                profile.min_retention, profile.third_party) == (4, 6, 7, 4, 2)
        assert profile.overall == 23

    def test_inaccessible_all_zero(self):
        for findings in ({}, make_findings(**{dim.name.lower(): YES for dim in Dim})):
            profile = score_app("T0", findings, None)
            assert profile.elements() == {
                "regulatory": 0, "security": 0, "usability": 0,
                "min_retention": 0, "third_party": 0,
            }
            assert profile.overall == 0

    def test_input_requires_complete_findings(self):
        with pytest.raises(KeyError):
            score_app("X", {Dim.HIPAA_MENTION: Finding(Dim.HIPAA_MENTION, NO)},
                      ReadabilityResult.from_grade(12.0))

    @settings(max_examples=1000)
    @given(st.fixed_dictionaries({dim: st.sampled_from(Verdict) for dim in Dim}),
           st.sampled_from(ReadabilityBand))
    def test_scores_stay_within_rubric_bounds(self, verdicts, band):
        findings = {dim: Finding(dim, v, manual=True) for dim, v in verdicts.items()}
        readability = ReadabilityResult.from_grade(GRADE_PER_BAND[band])
        assert readability.band is band
        profile = score_app("T1", findings, readability)
        for element, (low, high) in RUBRIC_RANGES.items():
            assert low <= getattr(profile, element) <= high
        for element in ELEMENTS:
            assert getattr(profile, element.field) <= element.ceiling
        assert profile.overall <= 28
        closed = score_app("T0", findings, None)
        assert set(closed.elements().values()) == {0} and closed.overall == 0

    @pytest.mark.ci_profile
    @given(st.fixed_dictionaries({dim: st.sampled_from(Verdict) for dim in Dim}),
           st.sampled_from([*ReadabilityBand, None]))
    def test_scores_equal_the_rubric_table(self, verdicts, band):
        findings = {dim: Finding(dim, v, manual=True) for dim, v in verdicts.items()}
        readability = None if band is None else ReadabilityResult.from_grade(GRADE_PER_BAND[band])
        profile = score_app("T1", findings, readability)
        assert profile.elements() == rubric_scores(verdicts, band)

    def test_the_dimension_table_decides_each_element(self, monkeypatch):
        """Moving a dimension to another element in DIMENSIONS moves its
        points and its section of the per-app report with it."""
        a11y = Dim.ACCESSIBILITY_ACCOMMODATIONS
        findings, readability = make_input(grade=13.0, accessibility_accommodations=YES)
        record = AppRecord("A1", AppCategory.TELEHEALTH)

        def section_and_points():
            """The report section that lists the dimension, and the profile."""
            audit = audit_from_findings(record, list(findings.values()), {}, readability)
            section = None
            for line in emit_app_report(audit).splitlines():
                if line.startswith("## "):
                    section = line[3:].split(" — ")[0]
                elif line.startswith(f"- {a11y.value}:"):
                    return section, audit.profile

        section, before = section_and_points()
        assert section == "Usability & accessibility"
        assert (before.security, before.usability) == (3, 2 + 2 + 2 + 2)
        monkeypatch.setitem(DIMENSIONS, a11y, DIMENSIONS[a11y]._replace(element="security"))
        section, after = section_and_points()
        assert section == "Data security"
        assert (after.security, after.usability) == (3 + 2, 2 + 2 + 2)
