#!/usr/bin/env python3
"""Emit the bundled reference-audit fixtures from the transcription table below.

Writes src/praf/data/fixtures/codebook.json (28 records + full annotation sets)
and src/praf/data/fixtures/reference_results.json (per-app readability and
scores, waivers, and corpus summary targets). Both files are first written to
a temporary directory and checked there by ``praf verify``'s own check; when
it fails, the script prints its report and exits nonzero without writing.
"""

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from praf.corpus import load_codebook
from praf.detect import DIMENSIONS
from praf.ingest import atomic_write
from praf.verify import load_reference, render_report, run_verify

FIXTURES = ROOT / "src" / "praf" / "data" / "fixtures"

CATEGORIES = {
    "T": "Telehealth",
    "S": "Senior care & Caregiver Support",
    "E": "Eldercare & Well-being Support",
    "M": "Health Monitoring & Safety",
    "H": "Healthcare Services",
    "F": "Fitness Support",
}

# One row per app: category key, 13 verdict marks in table column order
# (y = yes, p = partial, n = no), SMOG grade (None = inaccessible), level
# code, then the six published scores (five elements + overall).
ROWS = [
    ("A1",  "T", "yyn yyyyyy nnny", 13.0, "VD", 4, 6, 7, 4, 2, 23),
    ("A2",  "T", "nny yyyyyn pnny", 13.2, "VD", 2, 5, 7, 4, 2, 20),
    ("A3",  "S", "nny ynyyyy ppnn", 10.9, "FD", 2, 5, 7, 4, 1, 19),
    ("A4",  "S", "nny ynyynn ppny", 14.2, "P",  2, 4, 4, 3, 2, 15),
    ("A5",  "S", "nny ynnnyn pnny", 13.0, "VD", 2, 3, 6, 4, 2, 17),
    ("A6",  "S", "ynn nyyynn nnny", 11.5, "D",  3, 5, 8, 2, 2, 20),
    ("A7",  "S", "nny yyyyyn npny", 12.4, "D",  2, 5, 7, 4, 2, 20),
    ("A8",  "S", "ynn nyyynn npny", 11.6, "D",  3, 5, 7, 2, 2, 19),
    ("A9",  "S", "ynn ynyyyn nnny", 13.4, "VD", 3, 4, 7, 4, 2, 20),
    ("A10", "E", "nny yyyyyy nnny", 12.8, "VD", 2, 6, 7, 4, 2, 21),
    ("A11", "E", "nny yyyyyy nnny", 11.2, "FD", 2, 6, 9, 4, 2, 23),
    ("A12", "E", "nny yyyyyn pnny", 14.4, "P",  2, 5, 5, 4, 2, 18),
    ("A13", "E", "nnn ynnynn pnny", 10.9, "FD", 1, 3, 8, 3, 2, 17),
    ("A14", "E", "nny yyyynn pnny", 13.2, "VD", 2, 5, 6, 3, 2, 18),
    ("A15", "M", "nny yyyyyn nnny", 11.5, "D",  2, 5, 8, 4, 2, 21),
    ("A16", "M", "nyn yyyynn nnny", 13.0, "VD", 3, 5, 7, 3, 2, 20),
    ("A17", "M", "ynn ynnyyn pnny", 12.0, "D",  3, 3, 7, 4, 2, 19),
    ("A18", "M", "nyn yyyynn nnny", 9.2,  "SD", 3, 5, 11, 3, 2, 24),
    ("A19", "M", "nny ynyyyn ppny", 11.8, "D",  2, 4, 6, 4, 2, 18),
    ("A20", "M", "ynn ynyyyy nnny", 11.6, "D",  3, 5, 8, 4, 2, 22),
    ("A21", "H", "ynn yyyynn nnny", 12.9, "VD", 3, 5, 7, 3, 2, 20),
    ("A22", "H", "nny nnyynn ppny", 13.3, "VD", 2, 4, 5, 2, 2, 15),
    ("A23", "H", "nyn yyyyyy nnny", 10.6, "FD", 3, 6, 9, 4, 2, 24),
    ("A24", "F", "nnn nnnnnn nnnn", None, None, 0, 0, 0, 0, 0, 0),
    ("A25", "F", "nnn ynnynn ppny", 9.1,  "SD", 1, 3, 9, 3, 2, 18),
    ("A26", "F", "nnn ynnynn npny", 9.6,  "SWD", 1, 3, 9, 3, 2, 18),
    ("A27", "F", "nyn yyyyyn pnny", 12.1, "D",  3, 5, 7, 4, 2, 21),
    ("A28", "F", "nnn yyyyyn ppny", 11.4, "FD", 1, 5, 7, 4, 2, 19),
]

# The A2 row's published usability (and hence overall) does not follow from
# its own marks under the scoring rubric; the identical mark pattern at A5
# yields 6. Both cells are carried as waivers, never silently adopted.
WAIVERS = [
    {
        "pseudonym": "A2",
        "field": "usability",
        "rubric": 6,
        "note": "reference value is inconsistent with the scoring rubric for this "
                "row's marks; the identical mark pattern at A5 yields 6",
    },
    {
        "pseudonym": "A2",
        "field": "overall",
        "rubric": 19,
        "note": "follows from the usability cell",
    },
]

MARK = {"y": "yes", "p": "partial", "n": "no"}

SUMMARY_TARGETS = {
    "counts": {
        "hipaa": [7, 25.0],
        "gdpr": [5, 17.9],
        "other_regulation": [12, 42.9],
        "no_regulation": [4, 14.3],
        "minimization": [24, 85.7],
        "encryption": [16, 57.1],
        "access_controls": [22, 78.6],
        "retention": [16, 57.1],
        "breach_protocol": [6, 21.4],
        "third_party": [26, 92.9],
    },
    "means": {
        "regulatory": 2.21,
        "security": 4.46,
        "usability": 6.96,
        "min_retention": 3.36,
        "third_party": 1.89,
        "overall": 18.89,
    },
    "sds": {"security": 1.27, "third_party": 0.41, "usability": 2.0},
    "tolerances": {"mean": 0.05, "sd": 0.05, "usability_sd": 0.15},
    "smog_mean": 11.99,
    "overall_min": {"value": 15, "apps": ["A4", "A22"]},
    "overall_max": {"value": 24, "apps": ["A18", "A23"]},
}


def verdicts_for(marks: str) -> dict:
    flat = marks.replace(" ", "")
    assert len(flat) == 13, marks
    return {dim: MARK[c] for dim, c in zip(DIMENSIONS, flat)}


def main() -> None:
    records = []
    annotations = []
    app_results = []
    for (pseudonym, cat, marks, smog, level, *scores) in ROWS:
        records.append({
            "pseudonym": pseudonym,
            "real_name": None,
            "category": CATEGORIES[cat],
            "policy_url": f"https://{pseudonym.lower()}.example/privacy",
            "store_source": "other",
        })
        annotations.append({
            "app": pseudonym,
            "overrides": {d.value: v for d, v in verdicts_for(marks).items()},
            "reviewer_note": "reference audit transcription",
            "timestamp": "2024-11-01T00:00:00+00:00",
        })
        reg, sec, usab, minret, tp, overall = scores
        app_results.append({
            "pseudonym": pseudonym,
            "smog": smog,
            "level": level,
            "scores": {
                "regulatory": reg, "security": sec, "usability": usab,
                "min_retention": minret, "third_party": tp, "overall": overall,
            },
        })

    payloads = {
        "codebook.json": {"records": records, "annotations": annotations},
        "reference_results.json": {"apps": app_results, "waivers": WAIVERS,
                                   "summary": SUMMARY_TARGETS},
    }
    texts = {name: json.dumps(payload, indent=2, ensure_ascii=False) + "\n"
             for name, payload in payloads.items()}
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in texts.items():
            (Path(tmp) / name).write_text(text, encoding="utf-8")
        report = run_verify(load_codebook(Path(tmp) / "codebook.json"),
                            load_reference(Path(tmp) / "reference_results.json"))
    if not report.passed:
        print(render_report(report), end="", file=sys.stderr)
        sys.exit(1)
    for name, text in texts.items():
        atomic_write(FIXTURES / name, text)
    print(f"wrote {len(records)} records to {FIXTURES}")


if __name__ == "__main__":
    main()
