"""Block text of an HTML page, for :func:`praf.ingest.extract_text`.

A module of its own so that only extraction loads ``html.parser``: ``praf
audit`` and ``praf verify`` read cached text and never import it.
"""

from __future__ import annotations

from html.parser import HTMLParser

from .ingest import _normalize_plain, _strip_control

LANDMARK_TAGS = {"nav", "header", "footer", "aside"}
SKIP_TAGS = {"script", "style", "noscript", "template", "head", *LANDMARK_TAGS}
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


class TextExtractor(HTMLParser):
    """Collects one line per visible block in ``lines``, leaving out the
    elements named in ``skip_tags``; feed the decoded page, then close.

    The stack of open elements alone decides whether text is skipped, link
    text or preformatted. Every element ends at its own end tag or, left open, at the end tag of
    any element that was open when it started, as in the HTML tree builder;
    an end tag that matches no open element is ignored."""

    def __init__(self, skip_tags: set[str]):
        super().__init__(convert_charrefs=True)
        self.skip_tags = skip_tags
        self.lines: list[str] = []
        self._parts: list[str] = []
        self._link_chars = 0
        self._open: list[str] = []  # the stack of open elements

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

    def handle_starttag(self, tag, attrs):
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
        # Every character _strip_control changes is non-printable, so the
        # cheap test spares the translate for the usual chunk that holds none.
        if not data.replace("\n", " ").isprintable():
            data = _strip_control(data)
        if "pre" not in self._open:
            data = data.replace("\n", " ")  # a wrapped line, as a browser renders it
        self._parts.append(data)
        if "a" in self._open:
            self._link_chars += len(data.replace(" ", "").replace("\n", ""))

    def close(self):
        # Input left unparsed at the end that starts with "<" is markup cut
        # off before its end (a truncated page); html.parser would flush it
        # as text, so drop it.
        if self.rawdata.startswith("<"):
            self.rawdata = ""
        super().close()
        self._flush()

    def parse_marked_section(self, i, report=1):
        # html.parser raises AssertionError on a "<![" that opens no known
        # marked section; read it as a bogus comment up to ">", as browsers do.
        try:
            return super().parse_marked_section(i, report)
        except AssertionError:
            return self.parse_bogus_comment(i, report)
