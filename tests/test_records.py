"""praf's records are named tuples: immutable, equal when their fields are,
and built alike by keyword and by position. Six of them check their fields
when built, and no default is a mutable object that instances share."""

from datetime import datetime, timezone

import pytest

from praf.corpus import (AnnotationSet, AppCategory, AppRecord, Codebook, RawAppEntry,
                         load_codebook)
from praf.detect import DIMENSIONS, DetectionDimension as Dim, DimensionRules, Finding, \
    RuleSet, Verdict, default_rules_path, load_rules
from praf.errors import PrafError
from praf.ingest import FetchFailure, InaccessibleReason, PolicyDocument, RawFetch, cache_get
from praf.pipeline import AuditResult, run_audit
from praf.readability import ReadabilityResult
from praf.report import summarize
from praf.score import ELEMENTS
from praf.verify import VerifyReport, load_reference, run_verify

TS = datetime(2024, 1, 1, tzinfo=timezone.utc)


@pytest.fixture(scope="module")
def records(fixtures_dir):
    """One record of each type, most of them from an audit and a verify of
    the bundled corpus."""
    codebook = load_codebook(fixtures_dir / "codebook.json")
    rules = load_rules(default_rules_path())
    result = run_audit(codebook, fixtures_dir / "cache", rules)
    audit = next(a for a in result.audits if a.accessible)
    finding = next(f for f in audit.findings.values() if f.evidence)
    report = run_verify(codebook, load_reference(fixtures_dir / "reference_results.json"))
    dim_rules = rules.rules_for(Dim.AMBIGUOUS_LANGUAGE)
    return [
        codebook, codebook.records[0], codebook.annotations[0],
        RawAppEntry("Vendor", AppCategory.TELEHEALTH),
        DIMENSIONS[Dim.HIPAA_MENTION], finding, finding.evidence[0],
        dim_rules.strong[0], dim_rules, rules,
        cache_get(fixtures_dir / "cache", audit.record.policy_url),
        RawFetch("https://a.example/p", b"<p>x</p>", "text/html", 200),
        FetchFailure("https://a.example/p", InaccessibleReason.HTTP_ERROR, 404),
        audit, result, audit.readability, summarize(result.audits), audit.profile,
        ELEMENTS[0], report, report.cells[0],
    ]


def test_one_record_of_each_type(records):
    assert len({type(r) for r in records}) == len(records) == 21


def test_records_are_immutable(records):
    for record in records:
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
        with pytest.raises(AttributeError):
            record.not_a_field = None
        assert not hasattr(record, "__dict__"), type(record)


def test_keyword_and_positional_construction_agree(records):
    for record in records:
        cls = type(record)
        assert cls(*record) == record == cls(**record._asdict())
        assert type(cls(*record)) is cls


def test_no_default_is_shared_between_instances():
    a, b = VerifyReport(), VerifyReport()
    assert a == b == VerifyReport([], [])
    assert len({id(a.cells), id(a.summary_checks), id(b.cells), id(b.summary_checks)}) == 4
    assert AuditResult([]).incomplete is not AuditResult([]).incomplete
    # The default mappings are shared but read-only.
    for mapping in (AnnotationSet("A1").overrides, DimensionRules((), ()).thresholds):
        with pytest.raises(TypeError):
            mapping[Dim.HIPAA_MENTION] = Verdict.YES


_REC = AppRecord("A3", AppCategory.FITNESS_SUPPORT)


@pytest.mark.parametrize("cls, fields, error, message", [
    (AppRecord, {"pseudonym": "3A", "category": AppCategory.TELEHEALTH}, PrafError,
     "pseudonym '3A' must be a letter plus a positive integer (at pseudonym)"),
    (AppRecord, {"pseudonym": "A1", "category": AppCategory.TELEHEALTH, "real_name": None,
                 "policy_url": "ftp://h/p"}, PrafError,
     "policy_url 'ftp://h/p' must be null or an absolute http(s) URL (at policy_url)"),
    (Codebook, {"records": (_REC, _REC)}, PrafError, "duplicate pseudonym 'A3'"),
    (Finding, {"dimension": Dim.DATA_ENCRYPTION, "verdict": Verdict.YES}, ValueError,
     "data_encryption: positive verdict without evidence"),
    (RuleSet, {"by_dimension": {}}, PrafError, "dimension hipaa_mention has no rules"),
    (PolicyDocument, {"app": "A1", "source": "u", "raw": b"", "text": "", "fetched_at": TS,
                      "accessible": False}, ValueError,
     "A1: inaccessible document needs a reason"),
    (ReadabilityResult, {"smog_grade": 2.0, "sentence_count": 0, "polysyllable_count": 0},
     ValueError, "SMOG grade below formula intercept"),
    (ReadabilityResult, {"smog_grade": 5.0, "sentence_count": 10, "polysyllable_count": 1},
     ValueError, "grade inconsistent with counts"),
], ids=["pseudonym", "policy_url", "codebook", "finding", "ruleset", "document",
        "below_intercept", "inconsistent_counts"])
def test_validated_records_reject_bad_fields_built_either_way(cls, fields, error, message):
    for build in (lambda: cls(**fields), lambda: cls(*fields.values())):
        with pytest.raises(error) as info:
            build()
        assert type(info.value) is error
        assert str(info.value) == message
