"""Policy ingestion: HTTP fetch, HTML text extraction, and a file cache.

Fetching never raises for network problems; failures come back as
:class:`FetchFailure` and end up as inaccessible documents. Extraction is a
pure function from response bytes to plain text: markup, scripts, styles and
boilerplate (nav/header/footer/aside, link-dominated blocks) are dropped,
block boundaries and the lines of a <pre> become newlines, a line wrap inside
any other block becomes a space, and whitespace inside lines is collapsed.
The cache holds one JSON file per URL hash with the full serialized document;
writes are atomic so concurrent readers never see torn files.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import re
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path

from .errors import EmptyAfterExtraction, PrafError, read_json

DEFAULT_USER_AGENT = "praf-policy-auditor/0.1 (+privacy policy research)"
DEFAULT_TIMEOUT = 10.0
DEFAULT_RETRIES = 2
MAX_REDIRECTS = 5


class InaccessibleReason(Enum):
    NETWORK_ERROR = "network_error"
    HTTP_ERROR = "http_error"
    EMPTY_AFTER_EXTRACTION = "empty_after_extraction"
    ROBOTS_BLOCKED = "robots_blocked"


@dataclass(frozen=True)
class PolicyDocument:
    app: str
    source: str
    raw: bytes
    text: str
    fetched_at: datetime
    accessible: bool
    reason: InaccessibleReason | None = None
    http_status: int | None = None
    content_type: str | None = None

    def __post_init__(self):
        if self.accessible:
            if not self.text or self.text.isspace():
                raise ValueError(f"{self.app}: accessible document with empty text")
            if self.reason is not None:
                raise ValueError(f"{self.app}: accessible document with a failure reason")
        else:
            if self.text:
                raise ValueError(f"{self.app}: inaccessible document with text")
            if self.reason is None:
                raise ValueError(f"{self.app}: inaccessible document needs a reason")


@dataclass(frozen=True)
class RawFetch:
    final_url: str
    body: bytes
    content_type: str
    status: int


@dataclass(frozen=True)
class FetchFailure:
    url: str
    reason: InaccessibleReason
    status: int | None = None


# urllib.request and urllib.robotparser are imported where they are used:
# audit and verify never fetch, so they should not load an HTTP client.
class UrllibTransport:
    """Standard-library HTTP client; tests and fixture replay swap in fakes
    with the same ``get``."""

    def __init__(self):
        from urllib.request import HTTPRedirectHandler, build_opener
        redirects = HTTPRedirectHandler()
        redirects.max_redirections = MAX_REDIRECTS
        self.opener = build_opener(redirects)
        self.opener.addheaders = [("User-Agent", DEFAULT_USER_AGENT)]

    def get(self, url: str, timeout: float):
        """(status, content type, body, final URL). A 4xx/5xx response, or a
        redirect past MAX_REDIRECTS, comes back as its status."""
        from urllib.error import HTTPError
        try:
            resp = self.opener.open(url, timeout=timeout)
        except HTTPError as exc:
            resp = exc
        with resp:
            return resp.status, resp.headers.get("Content-Type", ""), resp.read(), resp.url


def robots_rules(robots_url: str, transport):
    """A predicate: may this agent request a URL that ``robots_url`` governs?
    A robots.txt that cannot be read, at the one request made, blocks nothing;
    a line that urllib cannot parse (``Disallow: //[``) is ignored."""
    from urllib.robotparser import RobotFileParser

    def parses(line: str) -> bool:
        try:
            RobotFileParser().parse(["User-agent: *", line])
        except ValueError:  # an unbalanced IPv6 bracket in a rule's path
            return False
        return True

    try:
        status, _, body, _ = transport.get(robots_url, DEFAULT_TIMEOUT)
    except Exception:
        status = None
    if status != 200:
        return lambda url: True
    parser = RobotFileParser()
    parser.parse(filter(parses, body.decode("utf-8", errors="replace").splitlines()))
    return lambda url: parser.can_fetch(DEFAULT_USER_AGENT, url)


def transient(reason: InaccessibleReason | None, status: int | None) -> bool:
    """Whether fetch_policy retries a failure: a network error or an HTTP 5xx."""
    return reason is InaccessibleReason.NETWORK_ERROR or (
        reason is InaccessibleReason.HTTP_ERROR and (status or 0) >= 500)


def fetch_policy(
    url: str,
    timeout: float = DEFAULT_TIMEOUT,
    *,
    retries: int = DEFAULT_RETRIES,
    transport,
) -> RawFetch | FetchFailure:
    """GET a policy page. 2xx yields the body and final URL after redirects;
    anything else (HTTP errors, timeouts, DNS failures) yields FetchFailure.
    Network errors and 5xx responses are retried with exponential backoff,
    at most `retries` extra attempts."""
    failure = None
    for attempt in range(retries + 1):
        if attempt:
            time.sleep(0.5 * 2 ** (attempt - 1))
        try:
            status, content_type, body, final_url = transport.get(url, timeout)
        except Exception:
            failure = FetchFailure(url, InaccessibleReason.NETWORK_ERROR)
            continue
        if 200 <= status < 300:
            return RawFetch(final_url=str(final_url), body=body, content_type=content_type,
                            status=status)
        failure = FetchFailure(url, InaccessibleReason.HTTP_ERROR, status=status)
        if not transient(failure.reason, status):
            break
    return failure


# --- extraction ---------------------------------------------------------------

_SPACES_RE = re.compile(" {2,}")


def _collapse(text: str) -> str:
    """One line with its runs of spaces collapsed and its ends stripped; the
    line has been through _strip_control, so it holds no tab, VT or FF."""
    if "  " in text:
        text = _SPACES_RE.sub(" ", text)
    return text.strip()


# General category Cc is exactly U+0000-U+001F and U+007F-U+009F, a set the
# Unicode stability policy keeps fixed, so the table is built from those
# ranges rather than by scanning every code point. Tab, VT and FF become a
# space and CR a newline; the other controls and the zero-width characters
# are dropped.
_CONTROL = dict.fromkeys([*range(0x0A), *range(0x0B, 0x20), *range(0x7F, 0xA0),
                          0x200B, 0x200C, 0x200D, 0xFEFF])
_CONTROL.update(str.maketrans("\t\v\f\r", "   \n"))


def _strip_control(text: str) -> str:
    """Drop zero-width and control characters, keeping newlines; CRLF and
    lone CR become a newline, tab, VT and FF a space."""
    # Every character the table changes is non-printable, so the cheap test
    # spares the translate, which is slow on non-ASCII text, for the usual
    # text that holds none.
    if text.replace("\n", " ").isprintable():
        return text
    return text.replace("\r\n", "\n").translate(_CONTROL)


def _decode(raw: bytes, content_type: str) -> str:
    m = re.search(r"charset=[\"']?([\w\-]+)", content_type or "", re.IGNORECASE)
    encoding = m.group(1) if m else "utf-8"
    try:
        return raw.decode(encoding, errors="replace")
    except (LookupError, UnicodeError):  # unknown or non-text codec, or no "replace" (idna)
        return raw.decode("utf-8", errors="replace")


def _normalize_plain(text: str) -> str:
    if "\n" not in text:  # every block outside <pre>
        return _collapse(text)
    lines = [_collapse(line) for line in text.split("\n")]
    return "\n".join(line for line in lines if line)


def extract_text(raw: bytes, content_type: str = "") -> str:
    """Plain analyzable text from a response body.

    HTML is parsed with block boundaries mapped to newlines; text/plain passes
    through whitespace normalization only. Binary payloads (PDF and friends)
    are not parseable here and raise EmptyAfterExtraction, as does any body
    with no visible text.
    """
    if raw[:5] == b"%PDF-" or re.search(r"application/(pdf|octet-stream)",
                                        content_type or "", re.IGNORECASE):
        raise EmptyAfterExtraction("binary document; no extractable policy text")
    decoded = _decode(raw, content_type)
    if "text/plain" in (content_type or "").lower():
        text = _normalize_plain(_strip_control(decoded))
    else:
        # Imported here: audit and verify never extract, so they should not
        # load the tokenizer and its compiled pattern.
        from .html_text import LANDMARK_TAGS, SKIP_TAGS, TextExtractor
        # Landmarks are page chrome, unless skipping them leaves no text.
        for skip_tags in (SKIP_TAGS, SKIP_TAGS - LANDMARK_TAGS):
            lines = TextExtractor(skip_tags).read(decoded)
            if lines:
                break
        text = "\n".join(lines)
    if not text.strip():
        raise EmptyAfterExtraction("no visible text after extraction")
    return text


def document_from_fetch(app: str, outcome: RawFetch | FetchFailure,
                        fetched_at: datetime | None = None) -> PolicyDocument:
    """Build the cached document for a fetch outcome, running extraction."""
    text, reason, content_type = "", None, None
    if isinstance(outcome, FetchFailure):
        source, raw, reason = outcome.url, b"", outcome.reason
    else:
        source, raw, content_type = outcome.final_url, outcome.body, outcome.content_type
        try:
            text = extract_text(raw, content_type)
        except EmptyAfterExtraction:
            reason = InaccessibleReason.EMPTY_AFTER_EXTRACTION
    return PolicyDocument(
        app=app, source=source, raw=raw, text=text,
        fetched_at=fetched_at or datetime.now(timezone.utc), accessible=reason is None,
        reason=reason, http_status=outcome.status, content_type=content_type,
    )


# --- cache --------------------------------------------------------------------

def cache_key(url: str) -> str:
    return hashlib.sha256(url.encode("utf-8")).hexdigest()


def _cache_path(cache_dir: str | Path, url: str) -> Path:
    return Path(cache_dir) / f"{cache_key(url)}.json"


def _doc_to_json(doc: PolicyDocument) -> dict:
    return {
        "app": doc.app,
        "source": doc.source,
        "raw_b64": base64.b64encode(doc.raw).decode("ascii"),
        "text": doc.text,
        "fetched_at": doc.fetched_at.isoformat(),
        "accessible": doc.accessible,
        "reason": doc.reason.value if doc.reason else None,
        "http_status": doc.http_status,
        "content_type": doc.content_type,
    }


# A cache entry; the fields that may be null may also be absent.
_DOC_SHAPE = {"app": str, "source": str, "raw_b64": str, "text": str, "fetched_at": str,
              "accessible": bool, "reason?": {None, *(r.value for r in InaccessibleReason)},
              "http_status?": (int, None), "content_type?": (str, None)}


def _doc_from_json(data: dict) -> PolicyDocument:
    return PolicyDocument(
        app=data["app"],
        source=data["source"],
        raw=base64.b64decode(data["raw_b64"]),
        text=data["text"],
        fetched_at=datetime.fromisoformat(data["fetched_at"]),
        accessible=data["accessible"],
        reason=InaccessibleReason(data["reason"]) if data.get("reason") else None,
        http_status=data.get("http_status"),
        content_type=data.get("content_type"),
    )


def cache_get(cache_dir: str | Path, url: str) -> PolicyDocument | None:
    """The cached document for url, None when there is none; raises
    PrafError naming the entry when it does not parse back into a document."""
    path = _cache_path(cache_dir, url)
    if not path.exists():
        return None
    data = read_json(path, _DOC_SHAPE, "corrupt cache entry")
    try:
        return _doc_from_json(data)
    except ValueError as exc:  # bad base64 or timestamp, or fields that contradict each other
        raise PrafError(f"corrupt cache entry {path}: {exc!r}") from exc


def cache_put(cache_dir: str | Path, url: str, doc: PolicyDocument) -> None:
    atomic_write(_cache_path(cache_dir, url),
                 json.dumps(_doc_to_json(doc), indent=2, ensure_ascii=False))


def atomic_write(path: str | Path, text: str) -> None:
    """Write text through a temp file in the same directory and a rename, so
    readers never see a torn file; creates missing parent directories. The
    file gets mode 0666 less the umask, as ``open`` would give it."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.parent / f".{path.name}.{os.urandom(6).hex()}.tmp"
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise PrafError(f"cannot write {path}: {exc}") from exc
