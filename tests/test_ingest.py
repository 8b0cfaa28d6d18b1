import gc
import itertools
import json
import os
import re
import socket
import sys
import tempfile
import threading
import time
import unicodedata
from collections import Counter
from datetime import datetime, timezone
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from praf.corpus import AppCategory, AppRecord, Codebook
from praf.detect import DetectionDimension, Verdict, default_rules_path, detect_all, load_rules
from praf.errors import EmptyAfterExtraction, PrafError
from praf.html_text import BLOCK_TAGS, LANDMARK_TAGS, SKIP_TAGS, TextExtractor, _raw_text_end
from praf.ingest import (
    DEFAULT_USER_AGENT,
    FetchFailure,
    InaccessibleReason,
    PolicyDocument,
    RawFetch,
    UrllibTransport,
    _CONTROL,
    _collapse,
    _normalize_plain,
    _strip_control,
    cache_get,
    cache_put,
    document_from_fetch,
    extract_text,
    fetch_policy,
)
from praf.pipeline import fetch_corpus
from praf.readability import sentence_spans

from oracles import html_parser_lines, html_parser_text, whatwg_script_end

DATA = Path(__file__).parent / "data"
TS = datetime(2025, 1, 15, tzinfo=timezone.utc)


class FakeTransport:
    """Scripted transport: url -> (status, content_type, body, final_url) or exception."""

    def __init__(self, responses):
        self.responses = responses
        self.calls = []

    def get(self, url, timeout):
        self.calls.append(url)
        outcome = self.responses[url]
        if isinstance(outcome, list):
            outcome = outcome[min(len(outcome) - 1, len([c for c in self.calls if c == url]) - 1)]
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def _codebook(*urls):
    return Codebook(records=tuple(AppRecord(f"A{i}", AppCategory.TELEHEALTH, policy_url=url)
                                  for i, url in enumerate(urls, start=1)))


# Bytes with markup pieces the HTML parser treats specially mixed in.
_MARKUP = st.lists(st.one_of(st.binary(max_size=8), st.sampled_from([
    b"<p>", b"</p>", b"<header>", b"<script>", b"<![", b"<![CDATA[", b"<![if", b"]]>", b"]>",
    b"<!--", b"-->", b"<!DOCTYPE", b"<!ATTLIST", b"<?", b"</", b"&#x", b"&amp", b";", b"<", b">",
])), max_size=20).map(b"".join)
_CHARSETS = st.one_of(st.none(), st.sampled_from([
    "utf-8", "latin-1", "utf-16", "idna", "punycode", "rot13", "undefined", "no-such-charset",
]))


_ZERO_WIDTH = "\u200b\u200c\u200d\ufeff"


def _strip_control_reference(text):
    """The per-character loop that preceded the translate table, run after
    CRLF and CR become a newline and tab, VT and FF a space."""
    text = text.replace("\r\n", "\n").replace("\r", "\n").translate({9: 32, 11: 32, 12: 32})
    out = []
    for ch in text:
        if ch == "\n":
            out.append(ch)
        elif ch in _ZERO_WIDTH:
            continue
        elif unicodedata.category(ch) == "Cc":
            continue
        else:
            out.append(ch)
    return "".join(out)


def _collapse_reference(text):
    return re.sub(r"[ \t\f\v]+", " ", text).strip()


def _normalize_plain_reference(text):
    """The per-line translate, substitution and strip that preceded the
    fast paths for a text without newlines or double spaces."""
    blanks = str.maketrans("\t\v\f", "   ")
    lines = [re.sub(" {2,}", " ", line.translate(blanks)).strip() for line in text.split("\n")]
    return "\n".join(line for line in lines if line)


# Text dense in the whitespace, control and zero-width characters the
# extraction treats specially.
_CONTROL_TEXT = st.text(st.one_of(
    st.sampled_from(list(" \t\n\r\v\f\x00\x1c\x1f\x7f\x85\x9f\xa0\u2028\u3000" + _ZERO_WIDTH)),
    st.characters(),
), max_size=40)

# A sentence of lowercase words, some hard-wrapped, as a page's <p> holds it.
_SENTENCE = st.lists(st.tuples(st.text("abcdefghij", min_size=1, max_size=8),
                               st.sampled_from([" ", "\n"])), min_size=1, max_size=8).map(
    lambda words: "".join(w + sep for w, sep in words)[:-1] + ".")


def _any_case(names):
    return st.sampled_from(sorted(names)).flatmap(lambda name: st.lists(
        st.booleans(), min_size=len(name), max_size=len(name)).map(
        lambda upper: "".join(c.upper() if u else c for c, u in zip(name, upper))))


# Pages from a markup grammar that html.parser and praf's tokenizer read
# alike. Every word of text follows a space or a newline: html.parser makes a
# "<" that opens no markup a chunk of its own, and chunks are joined with a
# space, so "3<5" reads "3 < 5" there.
_BLANK = st.sampled_from([" ", "\n", "  "])
_TEXT = st.lists(st.tuples(_BLANK, st.sampled_from(
    ["We", "keep", "data", "x/y", "a>b", "&amp;", "&#65;", "&lt;", "&", "<"])), min_size=1,
    max_size=5).map(lambda words: "".join(blank + word for blank, word in words))
_ATTRIBUTE = st.tuples(st.sampled_from([" ", "\n"]), st.sampled_from(["href", "class", "hidden"]),
                       st.one_of(st.just(""), st.text("ab/", min_size=1, max_size=4).map("={}".format),
                                 st.text("ab/> '=", max_size=4).map('="{}"'.format),
                                 st.text('ab/> "=', max_size=4).map("='{}'".format))).map("".join)
# elements whose content is raw text that is never text
_TEXT_ELEMENTS = {"script", "style", "title", "iframe", "noembed", "noframes"}
_TAG_NAMES = BLOCK_TAGS | SKIP_TAGS | {"a", "b", "span", "br", "img", "html", "body", "head"}


def _start_tag(names):
    return st.tuples(st.just("<"), _any_case(names), st.lists(_ATTRIBUTE, max_size=3).map("".join),
                     st.sampled_from([">", "/>", " />", " >"])).map("".join)


_START_TAG = _start_tag(_TAG_NAMES)
_END_TAG = st.tuples(st.just("</"), _any_case(_TAG_NAMES), st.sampled_from([">", " >"])).map("".join)
# A raw-text element: one of _TEXT_ELEMENTS, or an xmp or textarea, whose raw text is text.
_TEXT_ELEMENT = st.sampled_from(sorted(_TEXT_ELEMENTS | {"xmp", "textarea"})).flatmap(lambda tag: st.tuples(
    st.just("<"), _any_case({tag}), st.lists(_ATTRIBUTE, max_size=2).map("".join), st.just(">"),
    st.lists(st.sampled_from(["x = 1;", " ", "\n", "<", "</p>", "</scriptx", "</stylex", "&amp;",
                              "if (a<b)", "</titlex", "We", "<b>", "</div>", "&lt;", "&",
                              "</iframex", "</xmpx"]),
             max_size=6).map("".join),
    st.just("</"), _any_case({tag}), st.sampled_from([">", " >"])).map("".join))
_PAGE = st.tuples(st.lists(st.one_of(
    _TEXT, _START_TAG, _END_TAG, _TEXT_ELEMENT,
    _TEXT.map("<!--{} -->".format),
    st.sampled_from(["<!DOCTYPE html>", "<!doctype html>", '<?xml version="1.0"?>',
                     "<script/>", "<STYLE />"])), max_size=20).map("".join),
    st.one_of(st.none(), st.integers(0, 400))).map(
    lambda page_cut: page_cut[0][:page_cut[1]])  # markup cut off at the end
# Pages that start with what a head can hold, which the tree builder keeps in an open head.
_HEAD_FIRST_PAGE = st.tuples(st.lists(st.one_of(_BLANK, _TEXT_ELEMENT, _start_tag(
    {"base", "basefont", "bgsound", "link", "meta", "noscript", "template"})), max_size=4).map("".join),
    _PAGE).map("".join)


class CheckedExtractor(TextExtractor):
    """Asserts after every handler call that the counts of open elements
    equal a count of the stack."""

    def _check(self):
        assert {tag: n for tag, n in self._count.items() if n} == Counter(self._open)
        assert self._skipped == sum(tag in self.skip_tags for tag in self._open)

    def handle_starttag(self, tag):
        super().handle_starttag(tag)
        self._check()

    def handle_endtag(self, tag):
        super().handle_endtag(tag)
        self._check()

    def handle_data(self, data):
        super().handle_data(data)
        self._check()


def _text(page):
    """``extract_text`` of a page, or "" for a page with no text."""
    try:
        return extract_text(page.encode(), "text/html")
    except EmptyAfterExtraction:
        return ""


def _verdicts(text):
    return {f.dimension: f.verdict for f in detect_all(text, load_rules(default_rules_path()))}


class TestControlCharacters:
    def test_table_changes_exactly_the_control_and_zero_width_characters(self):
        changed = {}
        for cp in range(sys.maxunicode + 1):
            out = chr(cp).translate(_CONTROL)
            if out != chr(cp):
                changed[cp] = out
        expected = {cp: "" for cp in range(sys.maxunicode + 1)
                    if unicodedata.category(chr(cp)) == "Cc" or chr(cp) in _ZERO_WIDTH}
        expected.update({9: " ", 11: " ", 12: " ", 13: "\n"})
        del expected[10]
        assert changed == expected
        # TextExtractor.handle_data strips only chunks that are not printable.
        assert not any(chr(cp).isprintable() for cp in changed)

    @settings(max_examples=500, deadline=None)
    @given(_CONTROL_TEXT)
    def test_strip_control_matches_the_per_character_loop(self, text):
        assert _strip_control(text) == _strip_control_reference(text)

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from(["\r", "\r\n", "\n", "\u200b", "\ufeff"]),
                              st.characters())).map("".join))
    def test_strip_control_guard_changes_no_result(self, text):
        assert _strip_control(text) == text.replace("\r\n", "\n").translate(_CONTROL)

    @settings(max_examples=500, deadline=None)
    @given(_CONTROL_TEXT)
    def test_collapse_matches_the_whitespace_class_substitution(self, text):
        # _collapse only ever receives text that has been through _strip_control.
        text = _strip_control(text)
        assert _collapse(text) == _collapse_reference(text)

    @settings(max_examples=500, deadline=None)
    @given(_CONTROL_TEXT)
    def test_normalize_plain_matches_the_per_line_code(self, text):
        text = _strip_control(text)
        assert _normalize_plain(text) == _normalize_plain_reference(text)

    @pytest.mark.parametrize("raw, media, expected", [
        (b"<p>We\tencrypt your data at rest.</p>", "text/html", "We encrypt your data at rest."),
        (b"<p>We\x0bencrypt\x0cyour data.</p>", "text/html", "We encrypt your data."),
        (b"<p>One\r\ntwo\rthree.</p>", "text/html", "One two three."),
        (b"Line one.\rLine two.", "text/plain", "Line one.\nLine two."),
        (b"Line one.\r\nLine two.\r\n", "text/plain", "Line one.\nLine two."),
        (b"Name\tValue\x0cEnd", "text/plain", "Name Value End"),
    ])
    def test_whitespace_controls_separate_words(self, raw, media, expected):
        assert extract_text(raw, media) == expected

    def test_tab_separated_words_are_detected(self):
        text = extract_text(b"<p>We\tencrypt your data at rest.</p>", "text/html")
        assert _verdicts(text)[DetectionDimension.DATA_ENCRYPTION] is Verdict.YES

    def test_wrapped_paragraph_is_one_sentence(self):
        text = extract_text(b"<p>We will notify you of any\nsecurity breach.</p>", "text/html")
        assert text == "We will notify you of any security breach."
        assert len(sentence_spans(text)) == 1
        assert _verdicts(text)[DetectionDimension.BREACH_PROTOCOL] is Verdict.YES

    @pytest.mark.parametrize("raw, expected", [
        (b"<pre>a\n  b</pre>", "a\nb"),
        (b"<pre>\n  a\n\n\tb\n</pre>", "a\nb"),
        (b"<p>one\ntwo <pre>a\nb</pre> three\nfour</p>", "one two\na\nb\nthree four"),
    ])
    def test_pre_keeps_its_lines(self, raw, expected):
        assert extract_text(raw, "text/html") == expected

    @pytest.mark.parametrize("raw, expected", [
        (b"<p>Data is kept.&#13;We encrypt it&#8203;all.</p>", "Data is kept. We encrypt itall."),
        (b"<p>We&#9;encrypt your&#12;data.</p>", "We encrypt your data."),
        (b"<p>Kept &#13;&#10; here&#xFEFF;.</p>", "Kept here."),
        (b"<pre>Line one.&#13;Line two.&#13;&#10;Line three.</pre>",
         "Line one.\nLine two.\nLine three."),
    ])
    def test_character_references_to_controls_are_stripped(self, raw, expected):
        assert extract_text(raw, "text/html") == expected

    def test_bundled_fixtures_reextract_to_their_cached_text(self, fixture_codebook, fixtures_dir):
        docs = [cache_get(fixtures_dir / "cache", rec.policy_url) for rec in fixture_codebook.records]
        accessible = [doc for doc in docs if doc is not None and doc.accessible]
        assert len(accessible) == 27
        for doc in accessible:
            assert extract_text(doc.raw, doc.content_type) == doc.text, doc.app


class TestExtractText:
    def test_script_stripped(self):
        out = extract_text(b"<p>We collect data.</p><script>x()</script>", "text/html")
        assert out == "We collect data."

    def test_plain_text_passthrough(self):
        out = extract_text(b"We collect data.", "text/plain")
        assert out == "We collect data."

    def test_headings_become_lines(self):
        out = extract_text(b"<h1>Privacy</h1><p>We encrypt data.</p>", "text/html")
        assert out == "Privacy\nWe encrypt data."

    def test_hand_written_fixture(self):
        raw = (DATA / "sample_page.html").read_bytes()
        expected = (DATA / "sample_page_expected.txt").read_text().rstrip("\n")
        assert extract_text(raw, "text/html") == expected

    def test_idempotent_when_refed_as_plain(self):
        raw = (DATA / "sample_page.html").read_bytes()
        once = extract_text(raw, "text/html")
        again = extract_text(once.encode(), "text/plain")
        assert once == again

    def test_no_tag_remnants_or_control_chars(self):
        raw = b"<div>safe\x00 text\xe2\x80\x8b here</div><p>more &amp; more</p>"
        out = extract_text(raw, "text/html")
        assert "<" not in out and ">" not in out
        assert "\x00" not in out and "​" not in out
        assert out == "safe text here\nmore & more"

    def test_empty_after_extraction(self):
        with pytest.raises(EmptyAfterExtraction):
            extract_text(b"<script>only()</script>", "text/html")
        with pytest.raises(EmptyAfterExtraction):
            extract_text(b"   ", "text/plain")

    @pytest.mark.parametrize("raw, expected", [
        (b"<header>Logo<p>We encrypt your data.</p>", "Logo\nWe encrypt your data."),
        (b"<nav><a>x</a><p>We encrypt your data.</p>", "We encrypt your data."),
        (b"<div><header>Logo</div><p>We encrypt your data.</p>", "We encrypt your data."),
        (b"<header>Logo</header><p>We encrypt your data.</p>", "We encrypt your data."),
    ])
    def test_landmarks_are_kept_only_when_skipping_them_leaves_no_text(self, raw, expected):
        assert extract_text(raw, "text/html") == expected

    @pytest.mark.parametrize("raw, expected", [
        # closed by the end tag of an element open when it started
        (b"<p>Intro</p><div><header>Logo</div><p>We encrypt your data.</p>",
         "Intro\nWe encrypt your data."),
        (b"<p>Intro</p><section><nav>Menu</section><p>We encrypt your data.</p>",
         "Intro\nWe encrypt your data."),
        (b"<p>Intro</p><div><header>Logo<nav>Menu</div></header></nav><p>We encrypt your data.</p>",
         "Intro\nWe encrypt your data."),
        (b"<p>Intro</p><div><a href='/'><header>Logo</a></div><p>We encrypt your data.</p>",
         "Intro\nWe encrypt your data."),
        # nested landmarks end at the outer end tag; stray end tags are ignored
        (b"<p>Intro</p><header>Logo<nav>Menu</nav>More</header></p></b><p>We encrypt your data.</p>",
         "Intro\nWe encrypt your data."),
        (b"<p>Intro</p><nav>Menu</header><p>We encrypt your data.</p>", "Intro"),
        # left open under body, or under elements that never close: to the end
        (b"<p>Intro</p><header>Logo<p>We encrypt your data.</p>", "Intro"),
        (b"<html><body><p>Intro</p><header>Logo<p>We encrypt your data.</p></body></html>",
         "Intro"),
        (b"<p>Intro</p><div><header>Logo</p></span><p>We encrypt your data.</p>", "Intro"),
        # a void element is never open, so its end tag closes nothing
        (b"<div><param><nav>Menu</param>Text</nav></div><p>After.</p>", "After."),
    ])
    def test_where_a_skipped_landmark_ends(self, raw, expected):
        assert extract_text(raw, "text/html") == expected

    @pytest.mark.parametrize("raw, expected", [
        (b"<div><a href=/>Home</div><p>We encrypt your data at rest.</p>",
         "We encrypt your data at rest."),
        (b"<ul><li><a href=/a>About</li><li><a href=/b>Careers</li></ul><p>We encrypt your data.</p>",
         "We encrypt your data."),
        (b"<div><pre>a\nb</div><p>We will notify you of any\nsecurity breach.</p>",
         "a\nb\nWe will notify you of any security breach."),
        (b"<p>Read <a href=/a>our terms</a> and <b><a href=/b>FAQ</b> here, then the rest.</p>",
         "Read our terms and FAQ here, then the rest."),
    ])
    def test_a_and_pre_end_where_any_element_ends(self, raw, expected):
        assert extract_text(raw, "text/html") == expected

    @pytest.mark.ci_profile
    @settings(deadline=None)
    @given(st.lists(_SENTENCE, min_size=1, max_size=4), st.sampled_from(["div", "li"]),
           st.sampled_from(["a href=/about", "pre"]), _SENTENCE,
           st.lists(_SENTENCE, min_size=1, max_size=4))
    def test_an_unclosed_a_or_pre_ends_with_its_block(self, before, block, inner, label, after):
        """Each sentence after a block that leaves an <a> or <pre> open is
        kept as its own line, with its wraps read as spaces."""
        held = f"<{block}><{inner}>{label}</{block}>"
        if block == "li":
            held = f"<ul>{held}</ul>"
        page = "".join(f"<p>{s}</p>" for s in before) + held + "".join(f"<p>{s}</p>" for s in after)
        lines = extract_text(page.encode(), "text/html").split("\n")
        for sentence in after:
            assert sentence.replace("\n", " ") in lines

    @pytest.mark.parametrize("raw, expected", [
        (b"<html><head><title>X</title><body><p>We encrypt your data.</p></body></html>",
         "We encrypt your data."),
        (b"<head><title>X</title><p>We encrypt your data.</p>", "We encrypt your data."),
        (b"<head><title>X</title>We encrypt your data.", "We encrypt your data."),
        (b"<head><meta charset=utf-8>\n<title>X</title>\n<link rel=icon href=/i>\n"
         b"<script>x()</script>\n<body><p>We encrypt your data.</p>", "We encrypt your data."),
        # what a head can hold is hidden without it
        (b"<head><title>X</title><style>p { color: red }</style></head><p>Text.</p>", "Text."),
        (b"<head>\n<title>X</title>\n</head>\n<p>Text.</p>", "Text."),
        (b"<head><basefont>Text", "Text"),
        (b"<head><noscript><img></head><p>Policy text.</p>", "Policy text."),
        # a block ends in head as anywhere, and </head> ends what it holds
        (b"A<head></p>B", "A\nB"),
        (b"<head><nav>Menu</head><p>Policy text.</p>", "Policy text."),
    ])
    def test_head_hides_nothing_of_its_own(self, raw, expected):
        assert extract_text(raw, "text/html") == expected

    @pytest.mark.ci_profile
    @settings(deadline=None)
    @given(_HEAD_FIRST_PAGE.filter(lambda page: "</head" not in page.lower()))
    def test_a_head_left_open_changes_no_page(self, page):
        """A page reads the same after a ``<head>`` that is never closed,
        even when it starts with what a head can hold."""
        assert _text(f"<head>{page}") == _text(page)

    def test_a_title_outside_head_is_not_text(self):
        raw = b"<p>Before.</p><title>A <b> B</title><p>After.</p>"
        assert extract_text(raw, "text/html") == "Before.\nAfter."

    @pytest.mark.parametrize("tag", sorted(_TEXT_ELEMENTS))
    def test_raw_text_is_dropped_up_to_its_end_tag(self, tag):
        """An end tag inside raw text closes nothing, and with nothing
        skipped the text is still not text."""
        raw = f"<div>X<{tag}>A </div> B</{tag}>Y</div>"
        assert extract_text(raw.encode(), "text/html") == "X Y"
        lines = TextExtractor(set()).read(f"<p>X<{tag.upper()}>A </p> &amp; <b>B</{tag} >Y</p>")
        assert lines == ["X Y"]

    @pytest.mark.parametrize("raw, expected", [
        (b"<div>X<xmp>A </div> B</xmp>Y</div>", "X A </div> B Y"),
        (b"<div>X<XMP>A &amp; B</xmp >Y</div>", "X A &amp; B Y"),
        (b"<div>X<textarea>A &amp; </div> B</textarea>Y</div>", "X A & </div> B Y"),
        (b"<p>A</p><nav><textarea>Menu</textarea><xmp>Menu</xmp></nav><p>B</p>", "A\nB"),
        (b"<p>A</p><textarea>B &amp; <p>C</textarea class", "A\nB & <p>C"),
        (b"<p>A</p><xmp>B &amp; <p>C", "A\nB &amp; <p>C"),
    ])
    def test_xmp_and_textarea_hold_raw_text_that_is_text(self, raw, expected):
        """Only textarea decodes character references; with no end tag, the
        rest of the page is their text."""
        assert extract_text(raw, "text/html") == expected

    def test_a_control_character_in_a_tag_name_does_not_join_its_halves(self):
        out = extract_text(b"<p>Before.</p><scr\x00ipt>x()</script><p>After.</p>", "text/html")
        assert "x()" in out and out.startswith("Before.") and out.endswith("After.")

    def test_pdf_is_not_parseable(self):
        with pytest.raises(EmptyAfterExtraction):
            extract_text(b"%PDF-1.7 binary junk", "application/pdf")
        with pytest.raises(EmptyAfterExtraction):
            extract_text(b"anything", "application/octet-stream")

    def test_entities_unescaped(self):
        assert extract_text(b"<p>Terms &amp; Conditions</p>", "text/html") == "Terms & Conditions"

    @pytest.mark.parametrize("content_type", [
        'text/html; charset="iso-8859-1"', "text/html; charset='iso-8859-1'",
        "text/html; charset=iso-8859-1",
    ])
    def test_quoted_charset_is_read(self, content_type):
        raw = "<p>Données protégées.</p>".encode("latin-1")
        assert extract_text(raw, content_type) == "Données protégées."

    @pytest.mark.parametrize("charset", ["idna", "punycode", "undefined", "rot13", "no-such-charset"])
    def test_unusable_charset_falls_back_to_utf8(self, charset):
        raw = "<p>Caf\u00e9 policy.</p>".encode()
        assert extract_text(raw, f"text/html; charset={charset}") == "Caf\u00e9 policy."

    def test_unknown_marked_section_read_as_comment(self):
        raw = b"<p>Before.</p><![foo bar]><p>After.</p><![<!x>"
        assert extract_text(raw, "text/html") == "Before.\nAfter."

    @pytest.mark.parametrize("raw, expected", [
        (b'<p>Before.</p><div class="x', "Before."),
        (b"<p>Before.</p></p", "Before."),
        (b"<p>Before.</p><!-- open", "Before."),
        (b"<p>Before.</p><![CDATA[x", "Before."),
        (b"<p>Before.</p><?xml v", "Before."),
        (b"<p>Cut mid sentence <b", "Cut mid sentence"),
        (b"<p>Keep x < y here.</p>", "Keep x < y here."),
        (b"<p>Keep x < y", "Keep x < y"),
    ])
    def test_markup_cut_off_at_the_end_is_dropped(self, raw, expected):
        assert extract_text(raw, "text/html") == expected

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.binary(), _MARKUP), _CHARSETS, st.sampled_from(["text/html", "text/plain", ""]))
    def test_raises_nothing_but_empty_after_extraction(self, raw, charset, media):
        content_type = media if charset is None else f"{media}; charset={charset}"
        try:
            text = extract_text(raw, content_type)
        except EmptyAfterExtraction:
            return
        assert text.strip()

    @pytest.mark.ci_profile
    @settings(deadline=None)
    @given(_PAGE)
    def test_extraction_equals_the_html_parser_reference(self, page):
        """On pages of the grammar the tokenizer drives the handlers as
        html.parser did, with the skip sets of extraction and none."""
        for skip_tags in (SKIP_TAGS, SKIP_TAGS - LANDMARK_TAGS, set()):
            assert TextExtractor(skip_tags).read(page) == html_parser_lines(page, skip_tags)
        assert _text(page) == html_parser_text(page)

    @pytest.mark.ci_profile
    @settings(deadline=None)
    @given(_PAGE)
    def test_open_element_counts_equal_a_scan_of_the_stack(self, page):
        """On pages that leave elements open and end ones that are not open,
        the counts kept on push and pop equal a count of the stack after
        every handler call."""
        for skip_tags in (SKIP_TAGS, SKIP_TAGS - LANDMARK_TAGS, set()):
            CheckedExtractor(skip_tags).read(page)

    @pytest.mark.parametrize("raw, expected", [
        # a comment ends as the WHATWG tokenizer ends it
        (b"<p>A<!-->B</p>", "A B"),
        (b"<p>A<!--->B</p>", "A B"),
        (b"<p>A<!-- x --!>B</p><p>C</p>", "A B\nC"),
        (b"<p>A<!-- x -- >B</p><p>C --></p>", "A"),
        # a "<" that opens no markup is text where it stands
        (b"<p>3<5 and 7<=8</p>", "3<5 and 7<=8"),
        # script text ends at "</script" followed by whitespace, "/" or ">"
        (b"<script>a</ script>b</script><p>After.</p>", "After."),
        (b"<script>a</script foo>b<p>After.</p>", "b\nAfter."),
        (b"<script>a</script/>b<p>After.</p>", "b\nAfter."),
        # inside "<!--", a "<script" tag makes the next "</script" not end the script
        (b'<p>Before.</p><script><!-- document.write("<script src=a.js></script>"); --></script>'
         b"<p>After.</p>", "Before.\nAfter."),
        (b"<SCRIPT><!-- <ScRiPt/> </sCrIpT\t> a --></Script >b<p>After.</p>", "b\nAfter."),
        (b"<script><!--<script>-->a</script>b<p>After.</p>", "b\nAfter."),
        (b"<script><!--<script>--><script></script>b<p>After.</p>", "b\nAfter."),
        (b"<script><!-- a </script>b<p>After.</p>", "b\nAfter."),
        (b"<script><!--><script>a</script>b<p>After.</p>", "b\nAfter."),
        (b"<script><!---><script>a</script>b<p>After.</p>", "b\nAfter."),
        (b"<script><!-- <scripts> a </script>b<p>After.</p>", "b\nAfter."),
        (b"<script><!- <script> a </script>b<p>After.</p>", "b\nAfter."),
        (b"<p>Before.</p><script><!-- <script> a </script>", "Before."),
        # a quote left open in a tag drops the rest of the page
        (b'<p>Before.</p><a href="x>text</a><p>After.</p>', "Before."),
        (b'<p>Before.</p></a title="x>text<p>After.</p>', "Before."),
        # an end tag is "</" and a letter, and reads quoted values as a start tag does
        (b"<p>Before.</p><p>A</ p>B</p>", "Before.\nA B"),
        (b'<p>A</p foo="a>b">B</p>', "A\nB"),
        # outside SVG and MathML a CDATA section is a comment up to ">"
        (b"<p>A<![CDATA[x>y]]>B</p>", "A y]]>B"),
        # NUL is part of a tag name
        (b"<p>A<b\x00>B</b\x00></p>", "A B"),
        # an end tag named br breaks the line as a <br> does
        (b"<p>A</br>B</p>", "A\nB"),
    ])
    def test_constructs_outside_the_grammar_follow_whatwg(self, raw, expected):
        assert extract_text(raw, "text/html") == expected

    def test_script_text_ends_where_the_whatwg_script_states_end_it(self):
        """Every script of five pieces that move between the script data
        states ends where a character-by-character transcription of those
        states ends it. Five pieces are the fewest that tell "-->" leaving
        the double escape for plain script data from it leaving for the
        escape."""
        for pieces in itertools.product(["<!--", "<!-", "-->", "-", ">", "<Script>", "</SCRIPT\t>"],
                                        repeat=5):
            text = "".join(pieces)
            assert _raw_text_end(text, 0, "script") == whatwg_script_end(text, 0), text

    @pytest.mark.ci_profile
    @settings(deadline=None)
    @given(st.lists(st.one_of(
        st.sampled_from(["<!--", "<!-", "-->", "-", "<", ">", "x", "</\u017fcript>"]),
        st.tuples(st.sampled_from(["<", "</"]), _any_case({"script"}),
                  st.sampled_from([">", "/", "\t", "\n", "\r", "\f", " ", "s", "\x0b", ""])).map("".join)),
        max_size=12).map("".join))
    def test_script_tags_of_any_case_and_end_follow_the_whatwg_script_states(self, text):
        """From wherever it starts, script text with tags of any case, any
        character after the name and non-ASCII look-alikes ends where the
        transcription of the WHATWG script data states ends it."""
        for i in range(len(text) + 1):
            assert _raw_text_end(text, i, "script") == whatwg_script_end(text, i)

    @pytest.mark.parametrize("repeat, count", [
        ("<a ", 50_000), ('<a "', 50_000), ("<!--", 50_000), ("</a", 50_000),
        ("<p>x", 50_000), ("<p>x</span>", 50_000),
    ])
    def test_hostile_markup_is_read_in_one_pass(self, repeat, count):
        """A tokenizer that matched a "<" again after a failed match would
        take minutes on the first four; each ends the scan at its first "<".
        An extractor that scanned its stack of open elements per token would
        take tens of seconds on the last two, which leave every <p> open."""
        page = "<p>Text here.</p>" + repeat * count
        lines = ["x"] * count if repeat.startswith("<p>") else []
        assert extract_text(page.encode(), "text/html") == "\n".join(["Text here.", *lines])

    def test_link_dominated_block_dropped(self):
        html = b'<div><a href="/a">Alpha</a> <a href="/b">Beta</a></div><p>Real content here.</p>'
        assert extract_text(html, "text/html") == "Real content here."


class TestFetchPolicy:
    def test_happy_path(self):
        transport = FakeTransport({
            "https://x.example/p": (200, "text/html", b"<p>hello world</p>", "https://x.example/p"),
        })
        out = fetch_policy("https://x.example/p", transport=transport)
        assert isinstance(out, RawFetch)
        assert out.body == b"<p>hello world</p>"
        assert out.status == 200

    def test_404_is_http_error_without_retry(self):
        transport = FakeTransport({
            "https://x.example/gone": (404, "text/html", b"", "https://x.example/gone"),
        })
        out = fetch_policy("https://x.example/gone", transport=transport)
        assert isinstance(out, FetchFailure)
        assert out.reason is InaccessibleReason.HTTP_ERROR
        assert out.status == 404
        assert transport.calls.count("https://x.example/gone") == 1

    def test_network_error_retried_then_succeeds(self, monkeypatch):
        monkeypatch.setattr("praf.ingest.time.sleep", lambda s: None)
        transport = FakeTransport({
            "https://x.example/p": [
                ConnectionError("boom"),
                (200, "text/html", b"<p>ok fine</p>", "https://x.example/p"),
            ],
        })
        out = fetch_policy("https://x.example/p", transport=transport, retries=2)
        assert isinstance(out, RawFetch)
        assert transport.calls.count("https://x.example/p") == 2

    def test_retry_bound_respected(self, monkeypatch):
        monkeypatch.setattr("praf.ingest.time.sleep", lambda s: None)
        transport = FakeTransport({"https://x.example/p": ConnectionError("down")})
        out = fetch_policy("https://x.example/p", transport=transport, retries=2)
        assert isinstance(out, FetchFailure)
        assert out.reason is InaccessibleReason.NETWORK_ERROR
        assert len(transport.calls) == 3  # initial + 2 retries

    def test_redirect_final_url_kept(self):
        transport = FakeTransport({
            "https://x.example/old": (200, "text/html", b"<p>moved fine</p>", "https://x.example/new"),
        })
        out = fetch_policy("https://x.example/old", transport=transport)
        assert out.final_url == "https://x.example/new"

    def test_robots_disallow(self, tmp_path):
        transport = FakeTransport({
            "https://x.example/robots.txt": (200, "text/plain", b"User-agent: *\nDisallow: /", "https://x.example/robots.txt"),
            "https://x.example/p": (200, "text/html", b"<p>never seen</p>", "https://x.example/p"),
        })
        [entry] = fetch_corpus(_codebook("https://x.example/p"), tmp_path, transport=transport,
                               respect_robots=True)
        assert entry["reason"] == "robots_blocked" and "http_status" not in entry
        assert transport.calls == ["https://x.example/robots.txt"]

    def test_robots_line_urllib_cannot_parse_is_ignored(self, tmp_path):
        transport = FakeTransport({
            "https://x.example/robots.txt": (200, "text/plain", b"User-agent: *\nDisallow: //[x\n"
                                             b"Disallow: /private\n", "https://x.example/robots.txt"),
            "https://x.example/p": (200, "text/html", b"<p>Policy page.</p>", "https://x.example/p"),
        })
        manifest = fetch_corpus(_codebook("https://x.example/private/p", "https://x.example/p"),
                                tmp_path, transport=transport, respect_robots=True)
        assert [m["status"] for m in manifest] == ["inaccessible", "accessible"]
        assert manifest[0]["reason"] == "robots_blocked"

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(["u", "@", ":", "%5B", "%5b", "%5D", "[", "]", "::1", "%40",
                                     "%2F", "/", "h.example", "%25"]), max_size=8).map("".join),
           st.sampled_from(["", "/p", "/private/p", "/p%5B"]))
    def test_every_codebook_url_passes_the_robots_txt_check(self, authority, path):
        # Percent-decoding a URL can unbalance its brackets ("u%5B@h"):
        # the codebook rejects such a URL, or its robots.txt check runs.
        url = f"http://{authority}{path}"
        try:
            codebook = _codebook(url)
        except PrafError:
            return

        class Site:
            def get(self, url, timeout):
                if url.endswith("/robots.txt"):
                    return 200, "text/plain", b"User-agent: *\nDisallow: /private", url
                return 200, "text/html", b"<p>Policy page.</p>", url

        with tempfile.TemporaryDirectory() as cache:
            [entry] = fetch_corpus(codebook, Path(cache), transport=Site(), respect_robots=True)
        assert entry["status"] == "accessible" or entry["reason"] == "robots_blocked"


class _Handler(BaseHTTPRequestHandler):
    """Routes: /hop/N redirects N times before the page, /missing is a 404,
    /busy a 503, /stall a 503 whose body stops for half a second after two of
    its ten bytes, /robots.txt disallows /private; anything else is a page."""

    def do_GET(self):
        self.server.hits[self.path] += 1
        self.server.user_agents.append(self.headers.get("User-Agent"))
        if self.path.startswith("/hop/") and self.path != "/hop/0":
            hops = int(self.path.rsplit("/", 1)[1])
            self._reply(302, b"", location=f"/hop/{hops - 1}")
        elif self.path == "/missing":
            self._reply(404, b"gone", "text/plain")
        elif self.path == "/busy":
            self._reply(503, b"busy", "text/plain")
        elif self.path == "/stall":
            self.send_response(503)
            self.send_header("Content-Length", "10")
            self.end_headers()
            self.wfile.write(b"bu")
            self.wfile.flush()
            threading.Event().wait(0.5)  # time.sleep is patched out
        elif self.path == "/robots.txt":
            self._reply(200, b"User-agent: *\nDisallow: /private\n", "text/plain")
        else:
            self._reply(200, b"<p>Policy page.</p>", "text/html; charset=utf-8")

    def _reply(self, status, body, content_type="text/html", location=None):
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if location:
            self.send_header("Location", location)
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture()
def server(monkeypatch):
    """A loopback HTTP server; its base URL is ``server.base``."""
    for name in [n for n in os.environ if n.lower().endswith("_proxy")]:
        monkeypatch.delenv(name)  # loopback requests must not go to a proxy
    monkeypatch.setattr("praf.ingest.time.sleep", lambda s: None)
    srv = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    srv.hits = Counter()
    srv.user_agents = []
    srv.base = f"http://127.0.0.1:{srv.server_address[1]}"
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


class TestUrllibTransport:
    def test_five_redirects_reach_the_page(self, server):
        out = fetch_policy(f"{server.base}/hop/5", timeout=5, transport=UrllibTransport())
        assert isinstance(out, RawFetch)
        assert out.final_url == f"{server.base}/hop/0"
        assert out.body == b"<p>Policy page.</p>"

    def test_sixth_redirect_is_http_error_not_retried(self, server):
        out = fetch_policy(f"{server.base}/hop/6", timeout=5, retries=2,
                           transport=UrllibTransport())
        assert out == FetchFailure(f"{server.base}/hop/6", InaccessibleReason.HTTP_ERROR, status=302)
        assert server.hits["/hop/6"] == 1

    def test_404_comes_back_as_status_with_body(self, server):
        url = f"{server.base}/missing"
        assert UrllibTransport().get(url, 5) == (404, "text/plain", b"gone", url)

    def test_503_is_retried(self, server):
        out = fetch_policy(f"{server.base}/busy", timeout=5, retries=2,
                           transport=UrllibTransport())
        assert out == FetchFailure(f"{server.base}/busy", InaccessibleReason.HTTP_ERROR, status=503)
        assert server.hits["/busy"] == 3

    def test_sends_user_agent_and_returns_content_type(self, server):
        out = fetch_policy(f"{server.base}/page", timeout=5, transport=UrllibTransport())
        assert out.content_type == "text/html; charset=utf-8"
        assert server.user_agents == [DEFAULT_USER_AGENT]

    def test_robots_txt_blocks_a_disallowed_path(self, server, tmp_path):
        manifest = fetch_corpus(_codebook(f"{server.base}/private", f"{server.base}/page"),
                                tmp_path, respect_robots=True)
        assert manifest[0] == {"app": "A1", "url": f"{server.base}/private", "cached": False,
                               "status": "inaccessible", "reason": "robots_blocked"}
        assert manifest[1]["status"] == "accessible"
        assert server.hits["/private"] == 0

    def test_one_transport_and_one_robots_txt_per_origin(self, server, tmp_path, monkeypatch):
        built = []
        monkeypatch.setattr("praf.pipeline.UrllibTransport",
                            lambda: built.append(UrllibTransport()) or built[-1])
        manifest = fetch_corpus(_codebook(*(f"{server.base}/p{i}" for i in range(3))),
                                tmp_path, jobs=3, respect_robots=True)
        assert [m["status"] for m in manifest] == ["accessible"] * 3
        assert server.hits["/robots.txt"] == 1 and len(built) == 1

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_every_response_is_closed(self, server):
        # An error response comes as an HTTPError that holds the response
        # and, through its traceback, itself. Read to its end, the response
        # closes its socket; cut off by the timeout (/stall), it stays open
        # unless closed, until a garbage collection, here switched off.
        def open_fds():
            return len(os.listdir("/proc/self/fd"))

        transport = UrllibTransport()
        fetch_policy(f"{server.base}/page", timeout=5, transport=transport)  # warm-up
        gc.collect()
        gc.disable()
        try:
            before = open_fds()
            for path in ["/page", "/missing", "/busy", "/hop/6", "/stall"]:
                fetch_policy(f"{server.base}{path}", timeout=0.2, retries=0, transport=transport)
            deadline = time.monotonic() + 5
            while open_fds() > before and time.monotonic() < deadline:
                threading.Event().wait(0.01)  # the server closes its side on its own threads
            assert open_fds() == before
        finally:
            gc.enable()

    def test_refused_connection_is_network_error(self, server):
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        out = fetch_policy(f"http://127.0.0.1:{port}/p", timeout=5, retries=1,
                           transport=UrllibTransport())
        assert isinstance(out, FetchFailure)
        assert out.reason is InaccessibleReason.NETWORK_ERROR


class TestDocumentFromFetch:
    def test_accessible(self):
        fetched = RawFetch("u", b"<p>We protect data.</p>", "text/html", 200)
        doc = document_from_fetch("A1", fetched, TS)
        assert doc.accessible
        assert doc.text == "We protect data."

    def test_failure_becomes_inaccessible(self):
        doc = document_from_fetch("A1", FetchFailure("u", InaccessibleReason.HTTP_ERROR, 404), TS)
        assert not doc.accessible
        assert doc.reason is InaccessibleReason.HTTP_ERROR
        assert doc.text == ""

    def test_empty_extraction_becomes_inaccessible(self):
        fetched = RawFetch("u", b"<script>x()</script>", "text/html", 200)
        doc = document_from_fetch("A1", fetched, TS)
        assert not doc.accessible
        assert doc.reason is InaccessibleReason.EMPTY_AFTER_EXTRACTION

    def test_document_invariants(self):
        for blank in ("", "   \n  "):
            with pytest.raises(ValueError, match="accessible document with empty text"):
                PolicyDocument("A1", "u", b"", blank, TS, accessible=True)
        with pytest.raises(ValueError):
            PolicyDocument("A1", "u", b"", "text", TS, accessible=False,
                           reason=InaccessibleReason.HTTP_ERROR)
        with pytest.raises(ValueError):
            PolicyDocument("A1", "u", b"", "", TS, accessible=False)


class TestCache:
    def _doc(self, app="A1", text="Some policy text."):
        return PolicyDocument(app, f"https://{app.lower()}.example/privacy",
                              b"<p>Some policy text.</p>", text, TS, accessible=True,
                              http_status=200, content_type="text/html")

    def test_round_trip(self, tmp_path):
        doc = self._doc()
        cache_put(tmp_path, doc.source, doc)
        assert cache_get(tmp_path, doc.source) == doc

    def test_get_on_empty_cache(self, tmp_path):
        assert cache_get(tmp_path, "https://nobody.example/") is None

    def test_last_writer_wins(self, tmp_path):
        url = "https://a1.example/privacy"
        first = self._doc(text="First version.")
        second = self._doc(text="Second version.")
        cache_put(tmp_path, url, first)
        cache_put(tmp_path, url, second)
        assert cache_get(tmp_path, url).text == "Second version."

    def test_unwritable_dir(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("not a directory")
        with pytest.raises(PrafError, match="cannot write .*blocked"):
            cache_put(blocker / "cache", "https://a1.example/", self._doc())

    def test_no_partial_files_after_put(self, tmp_path):
        cache_put(tmp_path, "https://a1.example/", self._doc())
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []

    def test_entry_mode_follows_the_umask(self, tmp_path):
        old = os.umask(0o027)
        try:
            cache_put(tmp_path, "https://a1.example/", self._doc())
        finally:
            os.umask(old)
        (entry,) = tmp_path.glob("*.json")
        assert entry.stat().st_mode & 0o777 == 0o640

    def test_corrupt_entry_raises_typed_error_naming_file(self, tmp_path):
        url = "https://a1.example/privacy"
        cache_put(tmp_path, url, self._doc())
        (entry,) = tmp_path.glob("*.json")
        blank = json.dumps({**json.loads(entry.read_text()), "text": "   \n  "})
        for body in ["{truncated", "[]", '{"app": "A1"}', blank]:
            entry.write_text(body)
            with pytest.raises(PrafError, match=f"corrupt cache entry .*{entry.name}"):
                cache_get(tmp_path, url)
