"""Block text of an HTML page, for :func:`praf.ingest.extract_text`, which
alone loads this module. praf's own tokenizer reads the page, so the text
does not depend on the Python version. At each ``<`` (``str.find``) one
compiled pattern is matched, anchored: a tag, a comment, or ``<!…>``,
``<?…>`` or ``</…>`` read as a comment; any other ``<`` is text. Tags and
comments end as in the WHATWG tokenizer (https://html.spec.whatwg.org/multipage/parsing.html#tokenization);
as in ``html.parser``, only ``script`` and ``style`` hold raw text, up to
their first end tag, and not when self-closing. A construct with no end
before the end of the page (a tag, a quoted value, a comment or raw text) is
markup cut off by a truncated download; it ends the scan, so no ``<`` is matched twice.
"""

from __future__ import annotations

import re
from html import unescape

from .ingest import _normalize_plain, _strip_control

LANDMARK_TAGS = {"nav", "header", "footer", "aside"}
SKIP_TAGS = {"script", "style", "noscript", "template", "head", "title", *LANDMARK_TAGS}
BLOCK_TAGS = {"p", "div", "section", "article", "main", "ul", "ol", "li", "table",
              "tr", "td", "th", "h1", "h2", "h3", "h4", "h5", "h6", "blockquote",
              "figure", "figcaption", "form", "pre", "dl", "dt", "dd", "hr"}
LINK_RATIO_LIMIT = 0.5
# Elements kept off the stack of open elements: void elements never close,
# and the tree builder never pops html or body at their end tags, so a
# landmark directly under body runs to the end of the page.
UNSTACKED_TAGS = {"area", "base", "br", "col", "embed", "hr", "img", "input", "link", "meta",
                  "source", "track", "wbr", "html", "body"}
# The elements head can hold; any other start tag, or text that is not
# whitespace, ends an open head, as in the tree builder.
HEAD_CONTENT_TAGS = {"base", "basefont", "bgsound", "link", "meta", "noframes", "noscript",
                     "script", "style", "template", "title"}

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
_RAW_TEXT_END = {t: re.compile(rf"</{t}(?=[\t\n\r\f />])", re.I | re.A) for t in ("script", "style")}


class TextExtractor:
    """Collects one line per visible block in ``lines``, leaving out the
    elements named in ``skip_tags``; read the decoded page with ``read``.

    The stack of open elements alone decides whether text is skipped, link
    text or preformatted. Every element ends at its own end tag or, left open, at the end tag of
    any element that was open when it started, as in the HTML tree builder;
    an end tag that matches no open element is ignored."""

    def __init__(self, skip_tags: set[str]):
        self.skip_tags = skip_tags
        self.lines: list[str] = []
        self._parts: list[str] = []
        self._link_chars = 0
        self._open: list[str] = []  # the stack of open elements

    def read(self, page: str) -> list[str]:
        """Tokenize the whole page into the handlers; returns ``lines``."""
        text_at, i = 0, page.find("<")  # text_at: the start of the text before i
        while i >= 0 and (m := _MARKUP.match(page, i)):  # no match: markup cut off
            if m.end() == i + 1:  # a "<" that opens nothing is text
                i = page.find("<", i + 1)
                continue
            if text_at < i:
                self.handle_data(unescape(page[text_at:i]))
            text_at = end = m.end()
            closing, name, self_closing = m.groups()
            tag = name and name.lower()  # None for a comment
            if closing:
                self.handle_endtag(tag)
            elif tag:
                self.handle_starttag(tag)
                if self_closing:  # a "/" right before the ">", not in a value
                    self.handle_endtag(tag)
                elif tag in _RAW_TEXT_END:  # its text up to its end tag is one raw chunk
                    raw_end = _RAW_TEXT_END[tag].search(page, end)
                    end_tag = raw_end and _MARKUP.match(page, raw_end.start())
                    if not end_tag:
                        break  # cut off; i < text_at, so no text follows
                    self.handle_data(page[end:raw_end.start()])
                    self.handle_endtag(tag)
                    text_at = end_tag.end()
            i = page.find("<", text_at)
        stop = i if i >= 0 else len(page)
        if text_at < stop:
            self.handle_data(unescape(page[text_at:stop]))
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
        visible = len(text.replace(" ", ""))
        if visible and link_chars / visible > LINK_RATIO_LIMIT:
            return  # link-dominated boilerplate block
        self.lines.append(text)

    def handle_starttag(self, tag):
        if self._open and self._open[-1] == "head" and tag not in HEAD_CONTENT_TAGS:
            self._open.pop()
        if tag not in UNSTACKED_TAGS:
            self._open.append(tag)
        if self.skip_tags.isdisjoint(self._open) and (tag in BLOCK_TAGS or tag == "br"):
            self._flush()

    def handle_endtag(self, tag):
        stack = self._open
        for i in range(len(stack) - 1, -1, -1):
            if stack[i] == tag:
                del stack[i:]  # the element and every element opened inside it
                break
        if tag in BLOCK_TAGS and self.skip_tags.isdisjoint(stack):
            self._flush()

    def handle_data(self, data):
        if self._open and self._open[-1] == "head" and data.strip(" \t\n\r\f"):
            self._open.pop()
        if not data or not self.skip_tags.isdisjoint(self._open):
            return
        data = _strip_control(data)
        if "pre" not in self._open:
            data = data.replace("\n", " ")  # a wrapped line, as a browser renders it
        self._parts.append(data)
        if "a" in self._open:
            self._link_chars += len(data.replace(" ", "").replace("\n", ""))
