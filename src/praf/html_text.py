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


class TextExtractor(HTMLParser):
    """Collects one line per visible block in ``lines``, leaving out the
    elements named in ``skip_tags``; feed the page text after _strip_control,
    then close.

    A skipped element ends at its own end tag or, left open, at the end tag
    of any element that was open when it started, as in the HTML tree
    builder; an end tag that matches no open element is ignored."""

    def __init__(self, skip_tags: set[str]):
        super().__init__(convert_charrefs=True)
        self.skip_tags = skip_tags
        self.lines: list[str] = []
        self._parts: list[str] = []
        self._link_chars = 0
        self._open: list[str] = []       # the stack of open elements
        self._skip_at: int | None = None  # stack index of the skipped element
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
        if tag not in UNSTACKED_TAGS:
            self._open.append(tag)
        if self._skip_at is not None:
            return
        if tag in self.skip_tags:
            self._skip_at = len(self._open) - 1
            return
        if tag == "a":
            self._anchor_depth += 1
        elif tag == "pre":
            self._pre_depth += 1
        if tag in BLOCK_TAGS or tag == "br":
            self._flush()

    def handle_endtag(self, tag):
        i = self._close(tag)
        if self._skip_at is not None:
            if i is None or i > self._skip_at:
                return  # stray, or inside the skipped element
            closes_parent, self._skip_at = i < self._skip_at, None
            if not closes_parent:
                return  # the skipped element's own end tag
        elif tag in self.skip_tags:
            return
        if tag == "a":
            self._anchor_depth = max(0, self._anchor_depth - 1)
        elif tag == "pre":
            self._pre_depth = max(0, self._pre_depth - 1)
        if tag in BLOCK_TAGS:
            self._flush()

    def _close(self, tag) -> int | None:
        """Pop the innermost open ``tag`` and every element opened inside it;
        its stack index, or None when no ``tag`` is open."""
        stack = self._open
        for i in range(len(stack) - 1, -1, -1):
            if stack[i] == tag:
                del stack[i:]
                return i
        return None

    def handle_data(self, data):
        if self._skip_at is not None or not data:
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
