"""Test oracles shared by several test modules: inverses and re-checks of
what the program emits, kept out of the package because only tests use them."""

import csv
import io
import json

from praf.score import ELEMENTS


def matches_in(pattern, text: str) -> bool:
    """True when a compiled rule pattern matches somewhere in the text: the
    phrase, or every side of a proximity pattern."""
    if pattern.regex is not None:
        return pattern.regex.search(text) is not None
    return all(p.search(text) for p in pattern.parts)


def parse_matrix(document: str, fmt: str) -> list[dict]:
    """Inverse of ``report.emit_matrix`` for csv/json; verdicts and scores round-trip."""
    if fmt == "json":
        return json.loads(document)["rows"]
    if fmt == "csv":
        rows = []
        for raw in csv.DictReader(io.StringIO(document)):
            row: dict = dict(raw)
            row["smog"] = float(raw["smog"]) if raw["smog"] else None
            row["level"] = raw["level"] or None
            for e in ELEMENTS:
                row[e.column] = int(raw[e.column])
            rows.append(row)
        return rows
    raise ValueError(f"unknown matrix format {fmt!r}")
