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


class TextExtractor(HTMLParser):
    """Collects one line per visible block in ``lines``, leaving out the
    elements named in ``skip_tags``; feed the page text after _strip_control,
    then close."""

    def __init__(self, skip_tags: set[str]):
        super().__init__(convert_charrefs=True)
        self.skip_tags = skip_tags
        self.lines: list[str] = []
        self._parts: list[str] = []
        self._link_chars = 0
        self._skip_depth = 0
        self._anchor_depth = 0
        self._pre_depth = 0

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
        if tag in self.skip_tags:
            self._skip_depth += 1
            return
        if self._skip_depth:
            return
        if tag == "a":
            self._anchor_depth += 1
        elif tag == "pre":
            self._pre_depth += 1
        if tag in BLOCK_TAGS or tag == "br":
            self._flush()

    def handle_endtag(self, tag):
        if tag in self.skip_tags:
            self._skip_depth = max(0, self._skip_depth - 1)
            return
        if self._skip_depth:
            return
        if tag == "a":
            self._anchor_depth = max(0, self._anchor_depth - 1)
        elif tag == "pre":
            self._pre_depth = max(0, self._pre_depth - 1)
        if tag in BLOCK_TAGS:
            self._flush()

    def handle_data(self, data):
        if self._skip_depth or not data:
            return
        # Character references are decoded only now, so a reference like
        # "&#13;" or "&#8203;" can bring back what _strip_control took out of
        # the page. Every character it changes is non-printable, so the cheap
        # test spares the translate for the usual chunk that holds none.
        if not data.replace("\n", " ").isprintable():
            data = _strip_control(data)
        if not self._pre_depth:
            data = data.replace("\n", " ")  # a wrapped line, as a browser renders it
        self._parts.append(data)
        if self._anchor_depth:
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
