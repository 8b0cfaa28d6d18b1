"""Output checks run on every benchmark iteration.

Each check returns a list of problems, ``(app or None, message)``; a problem
without an app counts against every app of the iteration. The checks read
only the artifacts a user sees (``matrix.json``, ``run.json``, the other
report files) and praf's public cache API, and recompute the five rubric
elements from each matrix row on their own, so a flipped verdict or a changed
score is caught on any seed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

Problem = tuple[str | None, str]

# matrix.json column -> reference_results.json score field
SCORE_COLUMNS = {
    "regulatory_compliance": "regulatory",
    "data_security": "security",
    "usability_accessibility": "usability",
    "minimization_retention": "min_retention",
    "third_party": "third_party",
    "overall_risk": "overall",
}
# matrix.json column -> codebook dimension
VERDICT_COLUMNS = {
    "hipaa": "hipaa_mention",
    "gdpr": "gdpr_mention",
    "other_regulations": "other_regulation",
    "data_minimization": "data_minimization",
    "data_encryption": "data_encryption",
    "access_controls": "access_controls",
    "consent_requirements": "consent_requirements",
    "retention_time": "retention_time",
    "breach_protocol": "breach_protocol",
    "ambiguous_language": "ambiguous_language",
    "vague_commitments": "vague_commitments",
    "accessibility_accommodations": "accessibility_accommodations",
    "third_party_sharing": "third_party_sharing",
}
BAND_POINTS = {"P": 1, "VD": 2, "D": 3, "FD": 4, "SWD": 5, "SD": 6}
# Accessible-policy bounds of each element (README rubric table).
RUBRIC_BOUNDS = {
    "regulatory_compliance": (1, 4),
    "data_security": (3, 6),
    "usability_accessibility": (4, 12),
    "minimization_retention": (2, 4),
    "third_party": (1, 2),
    "overall_risk": (11, 28),
}
# 27 accessible reference apps x 13 annotated dimensions.
REF28_ANNOTATED_CELLS = 351
UNSTABLE_FILES = {"run.json"}   # carries a timestamp and local paths
STAMP_PREFIX = "<!-- generated:"


def rubric_scores(row: dict) -> dict[str, int]:
    """The five element scores and overall that the rubric gives a matrix row."""
    if row.get("level") is None:
        return {col: 0 for col in SCORE_COLUMNS}

    def present(col: str) -> int:
        return 2 if row[col] == "yes" else 1

    if row["hipaa"] == "yes" and row["gdpr"] == "yes":
        regulatory = 4
    elif "yes" in (row["hipaa"], row["gdpr"]):
        regulatory = 3
    else:
        regulatory = 2 if row["other_regulations"] == "yes" else 1
    scores = {
        "regulatory_compliance": regulatory,
        "data_security": sum(present(c) for c in
                             ("data_encryption", "access_controls", "breach_protocol")),
        "usability_accessibility": (BAND_POINTS[row["level"]]
                                    + (2 if row["ambiguous_language"] == "no" else 1)
                                    + (2 if row["vague_commitments"] == "no" else 1)
                                    + present("accessibility_accommodations")),
        "minimization_retention": present("data_minimization") + present("retention_time"),
        "third_party": present("third_party_sharing"),
    }
    scores["overall_risk"] = sum(scores.values())
    return scores


def _load_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise CheckError(f"{path.name}: {exc}") from exc


class CheckError(Exception):
    """An artifact is missing or unreadable."""


def matrix_rows(out_dir: Path) -> dict[str, dict]:
    return {row["pseudonym"]: row for row in _load_json(out_dir / "matrix.json")["rows"]}


def check_matrix(out_dir: Path, apps: list[str]) -> list[Problem]:
    """Every app has a row whose scores follow the rubric and stay in bounds."""
    rows = matrix_rows(out_dir)
    problems = check_matrix_rows(rows)
    if list(rows) != apps:
        problems.append((None, f"matrix rows {list(rows)[:5]}... != codebook apps"))
    return problems


def check_matrix_rows(rows: dict[str, dict]) -> list[Problem]:
    problems: list[Problem] = []
    for app, row in rows.items():
        expected = rubric_scores(row)
        for col, value in expected.items():
            if row[col] != value:
                problems.append((app, f"{col} = {row[col]}, rubric gives {value}"))
        if row.get("level") is not None:
            for col, (lo, hi) in RUBRIC_BOUNDS.items():
                if not lo <= row[col] <= hi:
                    problems.append((app, f"{col} = {row[col]} outside {lo}..{hi}"))
    return problems


def check_ref28(out_dir: Path, reference: dict, overrides: dict[str, dict[str, str]]) -> list[Problem]:
    """Scores equal the reference audit (waived cells equal the rubric value),
    verdicts equal the annotations, and agreement is 351/351."""
    rows = matrix_rows(out_dir)
    waivers = {(w["pseudonym"], w["field"]): w["rubric"] for w in reference["waivers"]}
    problems: list[Problem] = []
    for ref in reference["apps"]:
        app = ref["pseudonym"]
        row = rows.get(app)
        if row is None:
            problems.append((app, "missing from matrix.json"))
            continue
        for col, fieldname in SCORE_COLUMNS.items():
            expected = waivers.get((app, fieldname), ref["scores"][fieldname])
            if row[col] != expected:
                problems.append((app, f"{col} = {row[col]}, reference {expected}"))
        if row["level"] != ref["level"] or row["smog"] != ref["smog"]:
            problems.append((app, f"smog {row['smog']} {row['level']}, "
                                  f"reference {ref['smog']} {ref['level']}"))
        for col, dim in VERDICT_COLUMNS.items():
            if row[col] != overrides[app][dim]:
                problems.append((app, f"{col} = {row[col]}, annotation {overrides[app][dim]}"))
    agreement = _load_json(out_dir / "run.json")["detector_agreement"]
    if not (agreement["agreeing_cells"] == agreement["annotated_cells"] == REF28_ANNOTATED_CELLS):
        problems.append((None, f"agreement {agreement['agreeing_cells']}/"
                               f"{agreement['annotated_cells']}, expected 351/351"))
    return problems


def check_all_accessible(out_dir: Path) -> list[Problem]:
    return [(a["app"], "policy reported inaccessible")
            for a in _load_json(out_dir / "run.json")["apps"] if not a["accessible"]]


def artifact_digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every artifact except run.json, with the timestamp comment
    that leads markdown files removed."""
    digests = {}
    for path in sorted(out_dir.rglob("*")):
        rel = path.relative_to(out_dir).as_posix()
        if not path.is_file() or rel in UNSTABLE_FILES:
            continue
        body = path.read_bytes()
        if path.suffix == ".md" and body.startswith(STAMP_PREFIX.encode()):
            body = body.split(b"\n", 1)[1] if b"\n" in body else b""
        digests[rel] = hashlib.sha256(body).hexdigest()
    return digests


def combined_digest(digests: dict[str, str]) -> str:
    return hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest()


def compare_digests(got: dict[str, str], expected: dict[str, str]) -> list[Problem]:
    problems: list[Problem] = []
    for rel in sorted(set(got) | set(expected)):
        if got.get(rel) != expected.get(rel):
            app = Path(rel).stem if rel.startswith("apps/") else None
            problems.append((app, f"{rel} differs from the first iteration"))
    return problems


def check_fetch(manifest: list[dict], site, codebook, cache_dir: Path) -> list[Problem]:
    """Manifest status is the intended one, and every cache entry round-trips
    through ``cache_get`` with the text the page wrapped."""
    from praf.ingest import cache_get

    problems: list[Problem] = []
    by_app = {entry["app"]: entry for entry in manifest}
    for rec in codebook.records:
        app = rec.pseudonym
        intended = site.intended[rec.real_name]
        entry = by_app.get(app)
        want = "accessible" if intended == "accessible" else "inaccessible"
        if entry is None or entry.get("status") != want:
            problems.append((app, f"manifest {entry}, intended {intended}"))
            continue
        if intended == "not_found" and entry.get("http_status") != 404:
            problems.append((app, f"manifest {entry}, intended an HTTP 404"))
        doc = cache_get(cache_dir, rec.policy_url)
        if doc is None:
            problems.append((app, "no cache entry"))
        elif doc.accessible != (intended == "accessible"):
            problems.append((app, f"cached accessible={doc.accessible}, intended {intended}"))
        elif intended == "accessible":
            expected = site.texts[rec.real_name]
            if doc.text != expected:
                problems.append((app, "cached text differs from the generated policy text"))
            if entry.get("text_chars") != len(expected):
                problems.append((app, f"text_chars {entry.get('text_chars')} != {len(expected)}"))
    return problems


def failed_apps(problems: list[Problem], apps: list[str]) -> int:
    if any(app is None for app, _ in problems):
        return len(apps)
    return len({app for app, _ in problems} & set(apps))
