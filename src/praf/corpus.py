"""Codebook of audited apps: pseudonyms, categories, policy URLs, annotations.

The codebook is a single human-editable JSON file with top-level keys
``records`` and ``annotations``. Records are identified by pseudonyms
("A1", "A2", ...) so reports never need real app names; real names stay in
the file for the auditors and are redacted from all outputs by default.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path
from typing import Mapping, Sequence

from .detect import DIMENSIONS, DetectionDimension, Verdict
from .errors import MalformedCodebook, MissingFile
from .ingest import atomic_write

PSEUDONYM_RE = re.compile(r"^[A-Za-z][1-9][0-9]*$")


class AppCategory(Enum):
    TELEHEALTH = "Telehealth"
    SENIOR_CARE_CAREGIVER_SUPPORT = "Senior care & Caregiver Support"
    ELDERCARE_WELLBEING_SUPPORT = "Eldercare & Well-being Support"
    HEALTH_MONITORING_SAFETY = "Health Monitoring & Safety"
    HEALTHCARE_SERVICES = "Healthcare Services"
    FITNESS_SUPPORT = "Fitness Support"


class StoreSource(Enum):
    APPLE_STORE = "apple_store"
    GOOGLE_PLAY = "google_play"
    OTHER = "other"


@dataclass(frozen=True)
class AppRecord:
    pseudonym: str
    category: AppCategory
    real_name: str | None = None
    policy_url: str | None = None
    store_source: StoreSource = StoreSource.OTHER

    def __post_init__(self):
        if not PSEUDONYM_RE.match(self.pseudonym):
            raise MalformedCodebook(
                f"pseudonym {self.pseudonym!r} must be a letter plus a positive integer"
            )


@dataclass(frozen=True)
class AnnotationSet:
    """Reviewer decisions for one app; each override replaces the automated
    verdict for its dimension."""

    app: str
    overrides: Mapping[DetectionDimension, Verdict] = field(default_factory=dict)
    reviewer_note: str = ""
    timestamp: datetime = datetime(1970, 1, 1, tzinfo=timezone.utc)


@dataclass(frozen=True)
class Codebook:
    records: tuple[AppRecord, ...] = ()
    annotations: tuple[AnnotationSet, ...] = ()

    def __post_init__(self):
        seen = set()
        for rec in self.records:
            if rec.pseudonym in seen:
                raise MalformedCodebook(f"duplicate pseudonym {rec.pseudonym!r}")
            seen.add(rec.pseudonym)
        for ann in self.annotations:
            if ann.app not in seen:
                raise MalformedCodebook(f"annotation references unknown app {ann.app!r}")

    def overrides_for(self, pseudonym: str) -> dict[DetectionDimension, Verdict]:
        """Merged overrides for one app; later annotation sets win per dimension."""
        merged: dict[DetectionDimension, Verdict] = {}
        for ann in self.annotations:
            if ann.app == pseudonym:
                merged.update(ann.overrides)
        return merged


@dataclass(frozen=True)
class RawAppEntry:
    """Un-pseudonymized input row for assign_pseudonyms."""

    name: str
    category: AppCategory
    policy_url: str | None = None
    store_source: StoreSource = StoreSource.OTHER


def assign_pseudonyms(entries: Sequence[RawAppEntry]) -> Codebook:
    """Label entries A1..An in input order, keeping real names internally."""
    records = tuple(
        AppRecord(
            pseudonym=f"A{i}",
            category=e.category,
            real_name=e.name,
            policy_url=e.policy_url,
            store_source=e.store_source,
        )
        for i, e in enumerate(entries, start=1)
    )
    return Codebook(records=records)


# --- persistence -------------------------------------------------------------

# Every record field holds a string; True marks those that may be null.
_RECORD_FIELDS = {"pseudonym": False, "real_name": True, "category": False,
                  "policy_url": True, "store_source": False}


def _parse_record(obj, locator: str) -> AppRecord:
    if not isinstance(obj, dict):
        raise MalformedCodebook("record must be an object", locator)
    extra = set(obj) - set(_RECORD_FIELDS)
    if extra:
        raise MalformedCodebook(f"unknown record fields {sorted(extra)}", locator)
    missing = set(_RECORD_FIELDS) - set(obj)
    if missing:
        raise MalformedCodebook(f"missing record fields {sorted(missing)}", locator)
    for name, nullable in _RECORD_FIELDS.items():
        value = obj[name]
        if not (isinstance(value, str) or (nullable and value is None)):
            kind = "a string or null" if nullable else "a string"
            raise MalformedCodebook(f"{name} must be {kind}, not {value!r}", locator)
    try:
        category = AppCategory(obj["category"])
    except ValueError:
        raise MalformedCodebook(f"unknown category {obj['category']!r}", locator) from None
    try:
        store = StoreSource(obj["store_source"])
    except ValueError:
        raise MalformedCodebook(f"unknown store_source {obj['store_source']!r}", locator) from None
    try:
        return AppRecord(
            pseudonym=obj["pseudonym"],
            category=category,
            real_name=obj["real_name"],
            policy_url=obj["policy_url"],
            store_source=store,
        )
    except MalformedCodebook as exc:
        raise MalformedCodebook(str(exc), locator) from None


def _parse_annotation(obj, locator: str) -> AnnotationSet:
    if not isinstance(obj, dict):
        raise MalformedCodebook("annotation must be an object", locator)
    raw_overrides = obj.get("overrides", {})
    if not isinstance(raw_overrides, dict):
        raise MalformedCodebook("overrides must be an object", locator)
    overrides: dict[DetectionDimension, Verdict] = {}
    for key, value in raw_overrides.items():
        try:
            dim = DetectionDimension(key)
        except ValueError:
            raise MalformedCodebook(f"unknown dimension {key!r}", locator) from None
        try:
            overrides[dim] = Verdict(value)
        except ValueError:
            raise MalformedCodebook(f"invalid verdict {value!r} for {key}", locator) from None
    raw_ts = obj.get("timestamp", "1970-01-01T00:00:00+00:00")
    if not isinstance(raw_ts, str):
        raise MalformedCodebook(f"bad timestamp {raw_ts!r}", locator)
    try:
        timestamp = datetime.fromisoformat(raw_ts.replace("Z", "+00:00"))
    except ValueError:
        raise MalformedCodebook(f"bad timestamp {raw_ts!r}", locator) from None
    if timestamp.tzinfo is None:
        timestamp = timestamp.replace(tzinfo=timezone.utc)
    return AnnotationSet(
        app=obj.get("app", ""),
        overrides=overrides,
        reviewer_note=obj.get("reviewer_note", ""),
        timestamp=timestamp,
    )


def load_codebook(path: str | Path) -> Codebook:
    path = Path(path)
    if not path.exists():
        raise MissingFile(f"codebook not found: {path}")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise MalformedCodebook(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or "records" not in data:
        raise MalformedCodebook(f"{path} must be an object with a 'records' array")
    records = [
        _parse_record(obj, f"records[{i}]")
        for i, obj in enumerate(data.get("records", []))
    ]
    annotations = [
        _parse_annotation(obj, f"annotations[{i}]")
        for i, obj in enumerate(data.get("annotations", []))
    ]
    return Codebook(records=tuple(records), annotations=tuple(annotations))


def _record_to_json(rec: AppRecord) -> dict:
    return {
        "pseudonym": rec.pseudonym,
        "real_name": rec.real_name,
        "category": rec.category.value,
        "policy_url": rec.policy_url,
        "store_source": rec.store_source.value,
    }


def _annotation_to_json(ann: AnnotationSet) -> dict:
    return {
        "app": ann.app,
        "overrides": {dim.value: ann.overrides[dim].value
                      for dim in DIMENSIONS if dim in ann.overrides},
        "reviewer_note": ann.reviewer_note,
        "timestamp": ann.timestamp.isoformat(),
    }


def save_codebook(codebook: Codebook, path: str | Path) -> None:
    """Atomic write (temp file + rename); load_codebook(save) round-trips."""
    payload = {
        "records": [_record_to_json(r) for r in codebook.records],
        "annotations": [_annotation_to_json(a) for a in codebook.annotations],
    }
    atomic_write(path, json.dumps(payload, indent=2, ensure_ascii=False) + "\n")
