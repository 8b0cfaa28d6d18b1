"""Test oracles shared by several test modules: inverses and re-checks of
what the program emits, kept out of the package because only tests use them."""

import csv
import io
import json
import re
from html import unescape
from html.parser import HTMLParser

from praf.detect import DetectionDimension as Dim, Verdict
from praf.html_text import LANDMARK_TAGS, SKIP_TAGS, TextExtractor
from praf.readability import _WORD_RE, ReadabilityBand
from praf.score import ELEMENTS


def matches_in(pattern, text: str) -> bool:
    """True when every side of a compiled rule pattern matches somewhere in
    the text."""
    return all(side.regex.search(text) for side in pattern.sides)


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

    # The elements whose content praf reads as raw text: text only in an xmp
    # or textarea, and with character references decoded only in a textarea.
    CDATA_CONTENT_ELEMENTS = (*HTMLParser.CDATA_CONTENT_ELEMENTS, "title", "iframe", "noembed",
                              "noframes", "xmp", "textarea")

    def __init__(self, skip_tags: set[str]):
        super().__init__(convert_charrefs=True)
        self.extractor = TextExtractor(skip_tags)

    def handle_starttag(self, tag, attrs):
        self.extractor.handle_starttag(tag)

    def handle_endtag(self, tag):
        self.extractor.handle_endtag(tag)

    def handle_data(self, data):
        if self.cdata_elem in (None, "xmp"):
            self.extractor.handle_data(data)
        elif self.cdata_elem == "textarea":
            self.extractor.handle_data(unescape(data))

    def close(self):
        # The raw text of an xmp or textarea left open runs to the end of the
        # page, less an end tag cut off in the blanks before its ">";
        # html.parser would hold it all back.
        if self.cdata_elem in ("xmp", "textarea"):
            self.handle_data(re.sub(rf"</{self.cdata_elem}\s+\Z", "", self.rawdata, flags=re.I))
            self.rawdata = ""
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


_ASCII_ALPHA = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
_TAG_NAME_END = frozenset("\t\n\r\f />")  # whitespace after input preprocessing, "/" and ">"


def whatwg_script_end(page: str, i: int) -> int:
    """The script data states of the WHATWG tokenizer, from "script data
    state" to "script data double escape end state", transcribed one
    character at a time: where script text that starts at ``i`` ends, the
    "<" of its end tag, or ``len(page)`` when nothing ends it. The reference
    for ``html_text._raw_text_end`` on a script. ``buffer`` is the temporary
    buffer and the end tag's name; "script" is the appropriate end tag."""
    state, buffer, tag_at = "data", "", i
    while i < len(page):
        c = page[i]
        reconsume = None  # the state that reads c again
        if state == "data":
            if c == "<":
                state, tag_at = "less-than", i
        elif state == "less-than":
            if c == "/":
                state, buffer = "end tag open", ""
            elif c == "!":
                state = "escape start"
            else:
                reconsume = "data"
        elif state in ("end tag open", "escaped end tag open"):
            reconsume = (state.replace("open", "name") if c in _ASCII_ALPHA
                         else "data" if state == "end tag open" else "escaped")
        elif state in ("end tag name", "escaped end tag name"):
            if c in _TAG_NAME_END and buffer == "script":
                return tag_at
            if c in _ASCII_ALPHA:
                buffer += c.lower()
            else:
                reconsume = "data" if state == "end tag name" else "escaped"
        elif state == "escape start":
            if c == "-":
                state = "escape start dash"
            else:
                reconsume = "data"
        elif state == "escape start dash":
            if c == "-":
                state = "escaped dash dash"
            else:
                reconsume = "data"
        elif state in ("escaped", "escaped dash", "escaped dash dash"):
            if c == "-":
                state = {"escaped": "escaped dash"}.get(state, "escaped dash dash")
            elif c == "<":
                state, tag_at = "escaped less-than", i
            elif c == ">" and state == "escaped dash dash":
                state = "data"
            else:
                state = "escaped"
        elif state == "escaped less-than":
            if c == "/":
                state, buffer = "escaped end tag open", ""
            elif c in _ASCII_ALPHA:
                buffer, reconsume = "", "double escape start"
            else:
                reconsume = "escaped"
        elif state in ("double escape start", "double escape end"):
            if c in _TAG_NAME_END:
                escapes = buffer == "script"
                state = ("double escaped" if escapes else "escaped") \
                    if state == "double escape start" else ("escaped" if escapes else "double escaped")
            elif c in _ASCII_ALPHA:
                buffer += c.lower()
            else:
                reconsume = "escaped" if state == "double escape start" else "double escaped"
        elif state in ("double escaped", "double escaped dash", "double escaped dash dash"):
            if c == "-":
                state = {"double escaped": "double escaped dash"}.get(state, "double escaped dash dash")
            elif c == "<":
                state = "double escaped less-than"
            elif c == ">" and state == "double escaped dash dash":
                state = "data"
            else:
                state = "double escaped"
        elif state == "double escaped less-than":
            if c == "/":
                state, buffer = "double escape end", ""
            else:
                reconsume = "double escaped"
        if reconsume:
            state = reconsume
        else:
            i += 1
    return len(page)
