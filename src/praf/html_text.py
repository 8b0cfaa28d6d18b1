"""Block text of an HTML page, for :func:`praf.ingest.extract_text`, which
alone loads this module. praf's own tokenizer reads the page, so the text
does not depend on the Python version. At each ``<`` (``str.find``) one
compiled pattern is matched, anchored: a tag, a comment, or ``<!…>``,
``<?…>`` or ``</…>`` read as a comment; any other ``<`` is text. Tags and
comments end as in the WHATWG tokenizer (https://html.spec.whatwg.org/multipage/parsing.html#tokenization);
``script``, ``style``, ``title``, ``iframe``, ``noembed``, ``noframes``,
``xmp`` and ``textarea`` hold raw text up to their first end tag (none when
self-closing), and only that of ``xmp`` and ``textarea`` is text; after
``<!--`` in a script, a ``<script`` tag makes the next ``</script`` not end
it (the script data escape states). A construct with no end before the end
of the page (a tag, a quoted value, a comment or raw text) is markup cut off
by a truncated download; it ends the scan, so no ``<`` is matched twice, and
only the raw text of an ``xmp`` or ``textarea`` up to there is kept.
Open elements are counted as they are pushed and popped, so each token costs
amortized constant work and a page is read in linear time, whatever it
leaves open.
"""

from __future__ import annotations

import re
from collections import defaultdict
from html import unescape

from .ingest import _normalize_plain, _strip_control

LANDMARK_TAGS = {"nav", "header", "footer", "aside"}
SKIP_TAGS = {"noscript", "template", *LANDMARK_TAGS}
BLOCK_TAGS = {"p", "div", "section", "article", "main", "ul", "ol", "li", "table",
              "tr", "td", "th", "h1", "h2", "h3", "h4", "h5", "h6", "blockquote",
              "figure", "figcaption", "form", "pre", "dl", "dt", "dd", "hr", "br"}
LINK_RATIO_LIMIT = 0.5
# Elements kept off the stack of open elements: void elements never close,
# and the tree builder never pops html or body at their end tags, so a
# landmark directly under body runs to the end of the page.
UNSTACKED_TAGS = {"area", "base", "basefont", "bgsound", "br", "col", "embed", "frame", "hr",
                  "img", "input", "keygen", "link", "meta", "param", "source", "track", "wbr",
                  "html", "body"}

# Names and unquoted values match whole (the lookaheads): one reading, linear backtracking.
_MARKUP = re.compile(r"""<(?:
    (/?) ([a-zA-Z][^\t\n\r\f />]*) (?![^\t\n\r\f />])              # tag name, then
    (?: [\t\n\r\f ] | /(?!>) | [^\t\n\r\f />][^\t\n\r\f />=]* (?![^\t\n\r\f />=])  # attribute name
        (?: [\t\n\r\f ]*=[\t\n\r\f ]* (?: "[^"]*" | '[^']*' | (?=>)  # and value: quoted,
              | [^\t\n\r\f >"'][^\t\n\r\f >]* (?![^\t\n\r\f >]) )  # empty or unquoted
          | (?![\t\n\r\f ]*=) ) )* (/?)>
  | !--(?:-?>|.*?--!?>)                                             # comment
  | (?:!(?!--)|\?|/(?![a-zA-Z]))[^>]*>                              # read as a comment
  | (?=[^a-zA-Z/!?])                                                # text
)""", re.S | re.X)
# For each raw-text element, the tokens that may end its raw text: its end
# tag, and in a script "<!" before "--", "-->" and "<script".
_RAW_TEXT = {t: re.compile(rf"</{t}(?=[\t\n\r\f />])", re.I | re.A)
             for t in ("style", "title", "iframe", "noembed", "noframes", "xmp", "textarea")}
_RAW_TEXT["script"] = re.compile(r"<!(?=--)|-->|</?script(?=[\t\n\r\f />])", re.I | re.A)
# For each WHATWG script data state, the state that a token leads to, by its
# first two characters; None ends the raw text. Outside a script every token
# is "</" and ends it in the data state.
_RAW_TEXT_STEP = {"data": {"<!": "escaped", "</": None},
                  "escaped": {"--": "data", "</": None, "<s": "double escaped"},
                  "double escaped": {"--": "data", "</": "escaped"}}
# The raw text that is text, read from its source: only in a textarea are
# character references decoded.
_SHOWN_RAW_TEXT = {"xmp": str, "textarea": unescape}


def _raw_text_end(page: str, i: int, tag: str) -> int:
    """Where the raw text of a ``tag`` element from ``i`` ends: its end tag, or the page's end."""
    state = "data"
    for m in _RAW_TEXT[tag].finditer(page, i):
        state = _RAW_TEXT_STEP[state].get(m[0][:2].lower(), state)
        if state is None:
            return m.start()
    return len(page)


class TextExtractor:
    """Collects one line per visible block in ``lines``, leaving out the
    elements named in ``skip_tags``; read the decoded page with ``read``.

    The stack of open elements alone decides whether text is skipped, link
    text or preformatted. Every element, ``head`` too, ends at its own end
    tag or, left open, at the end tag of any element that was open when it
    started, as in the HTML tree builder; an end tag that matches no open
    element is ignored. The open elements are also counted by name, and those
    named in ``skip_tags`` in all, so no token scans the stack."""

    def __init__(self, skip_tags: set[str]):
        self.skip_tags = skip_tags
        self.lines: list[str] = []
        self._parts: list[str] = []
        self._link_chars = 0
        self._open: list[str] = []  # the stack of open elements
        self._count: defaultdict[str, int] = defaultdict(int)  # of each name on the stack
        self._skipped = 0  # of the elements on the stack named in skip_tags

    def read(self, page: str) -> list[str]:
        """Tokenize the whole page into the handlers; returns ``lines``."""
        text_at, i = 0, page.find("<")  # text_at: the start of the text before i
        while True:
            m = i >= 0 and _MARKUP.match(page, i)  # no match: markup cut off
            if m and m.end() == i + 1:  # a "<" that opens nothing is text
                i = page.find("<", i + 1)
                continue
            stop = i if i >= 0 else len(page)
            if text_at < stop and not self._skipped:  # skipped text is dropped unread
                self.handle_data(unescape(page[text_at:stop]))
            if not m:
                break
            text_at = m.end()
            closing, name, self_closing = m.groups()
            tag = name and name.lower()  # None for a comment
            if closing:
                self.handle_endtag(tag)
            elif tag:
                self.handle_starttag(tag)
                if self_closing:  # a "/" right before the ">", not in a value
                    self.handle_endtag(tag)
                elif tag in _RAW_TEXT:  # no markup up to its end tag
                    at = _raw_text_end(page, text_at, tag)
                    if tag in _SHOWN_RAW_TEXT and not self._skipped:
                        self.handle_data(_SHOWN_RAW_TEXT[tag](page[text_at:at]))
                    end_tag = _MARKUP.match(page, at)
                    if not end_tag:
                        break  # cut off; no text follows
                    self.handle_endtag(tag)
                    text_at = end_tag.end()
            i = page.find("<", text_at)
        self._flush()
        return self.lines

    def _flush(self):
        if not self._parts:
            return  # nothing to flush; _link_chars only grows with a part
        text = _normalize_plain(" ".join(self._parts))
        self._parts = []
        link_chars = self._link_chars
        self._link_chars = 0
        if not text:
            return
        visible = len(text) - text.count(" ")
        if visible and link_chars / visible > LINK_RATIO_LIMIT:
            return  # link-dominated boilerplate block
        self.lines.append(text)

    def _pop(self) -> str:
        tag = self._open.pop()
        self._count[tag] -= 1
        if tag in self.skip_tags:
            self._skipped -= 1
        return tag

    def handle_starttag(self, tag):
        if tag not in UNSTACKED_TAGS:
            self._open.append(tag)
            self._count[tag] += 1
            if tag in self.skip_tags:
                self._skipped += 1
        if not self._skipped and tag in BLOCK_TAGS:
            self._flush()

    def handle_endtag(self, tag):
        if self._count[tag]:
            while self._pop() != tag:  # the element and every element opened inside it
                pass
        if tag in BLOCK_TAGS and not self._skipped:
            self._flush()

    def handle_data(self, data):
        if not data or self._skipped:
            return
        if self._count["pre"]:
            data = _strip_control(data)
        elif data.isascii() and data.isspace():
            return  # blanks: only ever a space, which _flush collapses
        else:  # a wrapped line, as a browser renders it; _strip_control turns CR into a newline
            data = _strip_control(data.replace("\n", " ")).replace("\n", " ")
        self._parts.append(data)
        if self._count["a"]:
            self._link_chars += len(data) - data.count(" ") - data.count("\n")
