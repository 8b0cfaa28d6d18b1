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
from urllib.parse import unquote, urlsplit

from .detect import DIMENSIONS, DetectionDimension, Verdict
from .errors import PrafError, read_json
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
            raise PrafError(
                f"pseudonym {self.pseudonym!r} must be a letter plus a positive integer",
                "pseudonym")
        if self.policy_url is not None:  # fetch requests nothing but http(s) URLs
            try:
                parts = urlsplit(self.policy_url)
                urlsplit(unquote(self.policy_url))  # as robots.txt matching parses it
            except ValueError:  # an unbalanced IPv6 bracket, plain or percent-encoded
                parts = None
            if not (parts and parts.scheme in ("http", "https") and parts.hostname):
                raise PrafError(f"policy_url {self.policy_url!r} must be null or an "
                                "absolute http(s) URL", "policy_url")


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
                raise PrafError(f"duplicate pseudonym {rec.pseudonym!r}")
            seen.add(rec.pseudonym)
        for ann in self.annotations:
            if ann.app not in seen:
                raise PrafError(f"annotation references unknown app {ann.app!r}")

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

# The codebook file: every record field holds a string (category and
# store_source one of their enum values) or, where shown, null.
_CODEBOOK_SHAPE = {
    "records": [{"pseudonym": str, "real_name": (str, None),
                 "category": {c.value for c in AppCategory}, "policy_url": (str, None),
                 "store_source": {s.value for s in StoreSource}}],
    "annotations?": [{"app": str, "reviewer_note?": str, "timestamp?": str,
                      "overrides?": {f"{d.value}?": {v.value for v in Verdict}
                                     for d in DIMENSIONS}}],
}


def _parse_record(obj: dict, locator: str) -> AppRecord:
    try:
        return AppRecord(
            pseudonym=obj["pseudonym"],
            category=AppCategory(obj["category"]),
            real_name=obj["real_name"],
            policy_url=obj["policy_url"],
            store_source=StoreSource(obj["store_source"]),
        )
    except PrafError as exc:  # a bad pseudonym or policy_url
        raise PrafError(exc.message, f"{locator}.{exc.locator}") from None


def _parse_annotation(obj: dict, locator: str) -> AnnotationSet:
    raw_ts = obj.get("timestamp", "1970-01-01T00:00:00+00:00")
    try:
        timestamp = datetime.fromisoformat(raw_ts.replace("Z", "+00:00"))
    except ValueError:
        raise PrafError(f"bad timestamp {raw_ts!r}", f"{locator}.timestamp") from None
    if timestamp.tzinfo is None:
        timestamp = timestamp.replace(tzinfo=timezone.utc)
    return AnnotationSet(
        app=obj["app"],
        overrides={DetectionDimension(k): Verdict(v) for k, v in obj.get("overrides", {}).items()},
        reviewer_note=obj.get("reviewer_note", ""),
        timestamp=timestamp,
    )


def load_codebook(path: str | Path) -> Codebook:
    data = read_json(path, _CODEBOOK_SHAPE, "codebook")
    try:
        return Codebook(
            records=tuple(_parse_record(obj, f"records[{i}]")
                          for i, obj in enumerate(data["records"])),
            annotations=tuple(_parse_annotation(obj, f"annotations[{i}]")
                              for i, obj in enumerate(data.get("annotations", []))),
        )
    except PrafError as exc:  # a bad pseudonym or timestamp, or a broken invariant
        raise PrafError(f"codebook {path}: {exc}") from None


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
