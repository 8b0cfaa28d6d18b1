"""Test oracles shared by several test modules: inverses and re-checks of
what the program emits, kept out of the package because only tests use them."""

import csv
import io
import json
from html import unescape
from html.parser import HTMLParser

from praf.detect import DetectionDimension as Dim, Verdict
from praf.html_text import LANDMARK_TAGS, SKIP_TAGS, TextExtractor
from praf.readability import _WORD_RE, ReadabilityBand
from praf.score import ELEMENTS


def matches_in(pattern, text: str) -> bool:
    """True when a compiled rule pattern matches somewhere in the text: the
    phrase, or every side of a proximity pattern."""
    if pattern.regex is not None:
        return pattern.regex.search(text) is not None
    return all(p.search(text) for p in pattern.parts)


def words(text: str) -> list[str]:
    """Alphabetic tokens of any script (with internal apostrophes/hyphens):
    the reference for ``readability.count_polysyllables``."""
    return [w for w in _WORD_RE.findall(text) if w.isascii() or any(map(str.isalpha, w))]


# README's readability points: Slightly Difficult = 6 ... Professional = 1.
BAND_POINTS = {ReadabilityBand.SLIGHTLY_DIFFICULT: 6, ReadabilityBand.SOMEWHAT_DIFFICULT: 5,
               ReadabilityBand.FAIRLY_DIFFICULT: 4, ReadabilityBand.DIFFICULT: 3,
               ReadabilityBand.VERY_DIFFICULT: 2, ReadabilityBand.PROFESSIONAL: 1}


def rubric_scores(verdicts: dict, band: ReadabilityBand | None) -> dict[str, int]:
    """README's rubric table written out element by element: the five
    element scores for a verdict per dimension and a readability band, or
    all zeros for an inaccessible policy (no band)."""
    if band is None:
        return {"regulatory": 0, "security": 0, "usability": 0, "min_retention": 0,
                "third_party": 0}

    def present(dim):  # a principle: 2 if addressed, else 1
        return 2 if verdicts[dim] is Verdict.YES else 1

    def absent(dim):  # a language fault: 2 if the policy avoids it, else 1
        return 2 if verdicts[dim] is Verdict.NO else 1

    hipaa = verdicts[Dim.HIPAA_MENTION] is Verdict.YES
    gdpr = verdicts[Dim.GDPR_MENTION] is Verdict.YES
    other = verdicts[Dim.OTHER_REGULATION] is Verdict.YES
    return {
        "regulatory": 4 if hipaa and gdpr else 3 if hipaa or gdpr else 2 if other else 1,
        "security": (present(Dim.DATA_ENCRYPTION) + present(Dim.ACCESS_CONTROLS)
                     + present(Dim.BREACH_PROTOCOL)),
        "usability": (BAND_POINTS[band] + absent(Dim.AMBIGUOUS_LANGUAGE)
                      + absent(Dim.VAGUE_COMMITMENTS)
                      + present(Dim.ACCESSIBILITY_ACCOMMODATIONS)),
        "min_retention": present(Dim.DATA_MINIMIZATION) + present(Dim.RETENTION_TIME),
        "third_party": present(Dim.THIRD_PARTY_SHARING),
    }


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


class HTMLParserExtractor(HTMLParser):
    """The tokenizer that ``TextExtractor.read`` replaced: ``html.parser``
    driving the same handlers, with the two patches extraction needed on it.
    Where praf's tokenizer follows WHATWG instead, the two differ; the
    pages of the differential property avoid those constructs."""

    # title holds text with its references decoded (RCDATA), as in praf.
    CDATA_CONTENT_ELEMENTS = (*HTMLParser.CDATA_CONTENT_ELEMENTS, "title")

    def __init__(self, skip_tags: set[str]):
        super().__init__(convert_charrefs=True)
        self.extractor = TextExtractor(skip_tags)

    def handle_starttag(self, tag, attrs):
        self.extractor.handle_starttag(tag)

    def handle_endtag(self, tag):
        self.extractor.handle_endtag(tag)

    def handle_data(self, data):
        self.extractor.handle_data(unescape(data) if self.cdata_elem == "title" else data)

    def close(self):
        # Input left unparsed at the end that starts with "<" is markup cut
        # off before its end (a truncated page); html.parser would flush it
        # as text, so drop it.
        if self.rawdata.startswith("<"):
            self.rawdata = ""
        super().close()
        self.extractor._flush()

    def parse_marked_section(self, i, report=1):
        # html.parser raises AssertionError on a "<![" that opens no known
        # marked section; read it as a bogus comment up to ">", as browsers do.
        try:
            return super().parse_marked_section(i, report)
        except AssertionError:
            return self.parse_bogus_comment(i, report)


def html_parser_lines(page: str, skip_tags: set[str]) -> list[str]:
    parser = HTMLParserExtractor(skip_tags)
    parser.feed(page)
    parser.close()
    return parser.extractor.lines


def html_parser_text(page: str) -> str:
    """``extract_text`` of a decoded HTML page as it read before praf had
    its own tokenizer: landmarks dropped, or kept if that leaves no text."""
    lines = html_parser_lines(page, SKIP_TAGS) or html_parser_lines(page, SKIP_TAGS - LANDMARK_TAGS)
    return "\n".join(lines)
