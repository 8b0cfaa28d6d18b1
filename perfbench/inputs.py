"""Seeded, deterministic inputs for the benchmark workloads.

Everything here is a pure function of the seed: the same seed gives the
same policy texts, HTML pages, codebook and replay site. Policy prose is
assembled from slot templates with enough combinations that almost every
sentence is distinct, so a sentence-level memo in the program gains nothing
on these inputs. A share of sentences carries phrases the detectors look for,
so verdicts differ between policies.

The ``long-policy`` corpus is written through praf's public functions
(``assign_pseudonyms``/``save_codebook``, ``cache_put``) so that a change to
the codebook or cache format moves with the program.
"""

from __future__ import annotations

import html
import random
import threading
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

LONG_POLICY_APPS = 24
LONG_POLICY_TEXT_BYTES = (20_000, 60_000)
FETCH_APPS = 24
FETCH_PAGE_BYTES = (50_000, 150_000)
FETCH_HOSTS = 4
FETCH_NOT_FOUND = 2
FETCH_ROBOTS_BLOCKED = 2
FETCHED_AT = datetime(2024, 1, 1, tzinfo=timezone.utc)
CATEGORY = "Healthcare Services"

_OPENERS = ["", "", "", "In general, ", "Where practical, ", "For clarity, ",
            "Under this policy, ", "As described below, ", "In most situations, ",
            "For registered members, ", "During onboarding, ", "Upon request, "]
_SUBJECTS = ["we", "our organization", "the application", "our support team",
             "the care platform", "our clinical staff", "the companion service",
             "our administrative department", "the scheduling component",
             "our engineering group", "the messaging feature", "our billing office",
             "the telemedicine portal", "our research division", "the analytics module",
             "our customer representatives", "the wellness dashboard", "our pharmacy partner"]
_VERBS = ["collect", "organize", "review", "document", "evaluate", "summarize", "catalogue",
          "reconcile", "categorize", "verify", "consolidate", "examine", "maintain",
          "prioritize", "validate", "interpret", "aggregate", "standardize", "annotate",
          "monitor", "record", "assemble"]
_OBJECTS = ["appointment histories", "medication reminders", "emergency contacts",
            "insurance identifiers", "dietary preferences", "activity measurements",
            "laboratory summaries", "caregiver notes", "billing statements",
            "device diagnostics", "symptom questionnaires", "prescription records",
            "telephone transcripts", "location coordinates", "sleep observations",
            "vaccination certificates", "nutritional diaries", "rehabilitation plans",
            "mobility assessments", "hearing evaluations", "referral letters",
            "satisfaction surveys", "physiological readings", "communication preferences"]
_PURPOSES = ["to coordinate personalized treatment", "to improve appointment availability",
             "to operate essential functionality", "to respond to individual inquiries",
             "to calculate accurate invoices", "to generate periodic wellness summaries",
             "to support clinical decision making", "to detect unusual activity",
             "to maintain regulatory documentation", "to schedule follow-up visits",
             "to evaluate service quality", "to personalize educational material",
             "to facilitate family communication", "to troubleshoot technical difficulties",
             "to verify eligibility requirements", "to deliver medication notifications"]
_TAILS = ["", "", "", " for each active account", " whenever reasonably feasible",
          " across every supported device", " on behalf of participating clinics",
          " throughout the enrollment period", " within the relevant jurisdiction",
          " before any scheduled consultation", " after each completed session"]

# Sentences that carry detector phrases; {0}..{2} are filled from the slot lists.
_TRIGGERS = [
    "We retain {1} for {3} {4} after {0} closes the account.",
    "Your {1} are encrypted with TLS while {0} transmits them.",
    "Access to {1} is restricted to authorized personnel who {2} them.",
    "We may share {1} with service providers that help {0} operate.",
    "We obtain your consent before {0} begins to {2} {1}.",
    "We collect only the {1} that {0} needs to function.",
    "If a data breach affects {1}, we notify you without undue delay.",
    "We take reasonable measures to protect {1} that {0} holds.",
    "Information might be shared with partners from time to time.",
    "A screen reader version of this notice describes how {0} handles {1}.",
    "Residents of California have rights over {1} under the CCPA.",
    "Where HIPAA applies, {0} treats {1} as protected health information.",
    "Users in Europe may exercise rights over {1} under the GDPR.",
    "Periodically, {0} could review whether it still needs {1}.",
    "Multi-factor authentication protects every login to {0}.",
]
_TRIGGER_SHARE = 0.12
_UNITS = ["day", "week", "month", "year"]
_HEADINGS = ["Information We Collect", "How We Use Information", "Sharing and Disclosure",
             "Security Practices", "Retention", "Your Rights and Choices",
             "International Transfers", "Children", "Changes to This Policy", "Contact Us"]


def _sentence(rng: random.Random) -> str:
    subject = rng.choice(_SUBJECTS)
    obj = rng.choice(_OBJECTS)
    verb = rng.choice(_VERBS)
    if rng.random() < _TRIGGER_SHARE:
        text = rng.choice(_TRIGGERS).format(subject, obj, verb, rng.randint(2, 36),
                                            rng.choice(_UNITS) + "s")
    else:
        text = (f"{rng.choice(_OPENERS)}{subject} {verb} {obj} "
                f"{rng.choice(_PURPOSES)}{rng.choice(_TAILS)}.")
    return text[0].upper() + text[1:]


def policy_lines(rng: random.Random, target_bytes: int) -> list[str]:
    """Heading and paragraph lines whose newline-joined length reaches
    ``target_bytes``; every line is one visible block of the policy."""
    lines = ["Privacy Policy"]
    size = len(lines[0])
    heading = 0
    while size < target_bytes:
        if len(lines) % 6 == 1:
            line = _HEADINGS[heading % len(_HEADINGS)]
            heading += 1
        else:
            line = " ".join(_sentence(rng) for _ in range(rng.randint(3, 6)))
        lines.append(line)
        size += len(line) + 1
    return lines


def _sizes(rng: random.Random, count: int, bounds: tuple[int, int]) -> list[int]:
    """Evenly spaced sizes in a seeded order, so the total never depends on the seed."""
    lo, hi = bounds
    sizes = [lo + (hi - lo) * i // (count - 1) for i in range(count)]
    rng.shuffle(sizes)
    return sizes


# --- HTML pages -----------------------------------------------------------------

_NAV_LABELS = ["Home", "Services", "Find a Clinic", "Pricing", "Careers", "Blog", "Press",
               "Support", "Sign In", "Download", "Partners", "Research", "Accessibility"]


def _link_list(rng: random.Random, host: str, count: int) -> str:
    items = "".join(
        f'<li><a href="{host}/{rng.choice(_NAV_LABELS).lower().replace(" ", "-")}/{i}">'
        f"{rng.choice(_NAV_LABELS)}</a></li>"
        for i in range(count))
    return f"<ul>{items}</ul>"


def _script(rng: random.Random, count: int) -> str:
    body = "\n".join(
        f'window.cfg{i} = {{"id": {rng.randint(1, 10**9)}, "flag": {str(rng.random() < 0.5).lower()}, '
        f'"label": "{rng.choice(_NAV_LABELS)}"}};'
        for i in range(count))
    return f"<script>\n{body}\n</script>"


def _paragraph(rng: random.Random, line: str, host: str) -> str:
    """One paragraph; some carry a short inline link that extraction keeps."""
    words = line.split(" ")
    if len(words) > 12 and rng.random() < 0.15:
        cut = rng.randint(4, len(words) - 4)
        before, link, after = " ".join(words[:cut]), " ".join(words[cut:cut + 2]), " ".join(words[cut + 2:])
        return (f"<p>{html.escape(before)} <a href=\"{host}/help\">{html.escape(link)}</a> "
                f"{html.escape(after)}</p>")
    return f"<p>{html.escape(line)}</p>"


def render_page(rng: random.Random, app: str, host: str, lines: list[str]) -> bytes:
    """A policy page: the policy lines inside header, nav, script and link-list
    boilerplate that text extraction must drop."""
    head = (f"<!DOCTYPE html>\n<html lang=\"en\">\n<head><title>{app} Privacy Policy</title>"
            f"<style>body {{ font-family: sans-serif; }} .nav li {{ display: inline; }}</style>"
            f"{_script(rng, rng.randint(60, 160))}</head>\n<body>\n"
            f"<header><div class=\"brand\">{app} Health</div>"
            f"<nav class=\"nav\">{_link_list(rng, host, rng.randint(10, 30))}</nav></header>\n"
            f"<nav class=\"side\">{_link_list(rng, host, rng.randint(20, 60))}</nav>\n<main><article>\n")
    body = [f"<h1>{html.escape(lines[0])}</h1>"]
    for line in lines[1:]:
        if line in _HEADINGS:
            body.append(f"<h2>{html.escape(line)}</h2>")
        else:
            body.append(_paragraph(rng, line, host))
    tail = (f"\n</article>\n<div class=\"related\">{_link_list(rng, host, rng.randint(8, 20))}</div>\n"
            f"</main>\n<aside>{_link_list(rng, host, rng.randint(5, 15))}</aside>\n"
            f"<footer><p>Copyright {app} Health.</p>{_link_list(rng, host, 12)}</footer>\n"
            f"{_script(rng, rng.randint(20, 60))}\n</body>\n</html>\n")
    return (head + "\n".join(body) + tail).encode("utf-8")


# --- long-policy corpus -----------------------------------------------------------


@dataclass(frozen=True)
class LongPolicyCorpus:
    codebook_path: Path
    cache_dir: Path
    apps: int
    text_bytes: int
    sentences: int
    distinct_sentences: int


def long_policy_texts(seed: int) -> list[tuple[str, str, bytes]]:
    """(url, policy text, raw HTML) for each app, in codebook order."""
    rng = random.Random(f"long-policy:{seed}")
    docs = []
    for i, size in enumerate(_sizes(rng, LONG_POLICY_APPS, LONG_POLICY_TEXT_BYTES), start=1):
        host = f"https://clinic{i}.example"
        lines = policy_lines(rng, size)
        docs.append((f"{host}/privacy", "\n".join(lines), render_page(rng, f"A{i}", host, lines)))
    return docs


def build_long_policy(seed: int, work: Path) -> LongPolicyCorpus:
    """Write the long-policy codebook and cache under ``work`` (no annotations)."""
    from praf.corpus import AppCategory, RawAppEntry, assign_pseudonyms, save_codebook
    from praf.ingest import PolicyDocument, cache_put
    from praf.readability import segment_sentences

    docs = long_policy_texts(seed)
    codebook = assign_pseudonyms([
        RawAppEntry(name=f"Long Policy App {i}", category=AppCategory(CATEGORY), policy_url=url)
        for i, (url, _, _) in enumerate(docs, start=1)])
    work.mkdir(parents=True, exist_ok=True)
    codebook_path = work / "codebook.json"
    save_codebook(codebook, codebook_path)
    cache_dir = work / "cache"
    sentences: list[str] = []
    for rec, (url, text, raw) in zip(codebook.records, docs):
        cache_put(cache_dir, url, PolicyDocument(
            app=rec.pseudonym, source=url, raw=raw, text=text, fetched_at=FETCHED_AT,
            accessible=True, http_status=200, content_type="text/html; charset=utf-8"))
        sentences.extend(segment_sentences(text))
    return LongPolicyCorpus(
        codebook_path=codebook_path, cache_dir=cache_dir, apps=len(docs),
        text_bytes=sum(len(text.encode("utf-8")) for _, text, _ in docs),
        sentences=len(sentences), distinct_sentences=len(set(sentences)))


# --- fetch-refresh site -----------------------------------------------------------

ROBOTS_TXT = b"User-agent: *\nDisallow: /private/\n"
_MARKUP_BYTES = 20_000   # boilerplate and tags around the policy text of one page


@dataclass
class ReplaySite:
    """Seeded pages served by a zero-latency in-memory transport.

    ``intended`` maps each app to ``"accessible"``, ``"not_found"`` or
    ``"robots_blocked"``; ``texts`` holds the policy text each accessible page
    wraps in boilerplate."""

    apps: list[tuple[str, str]]                      # (app name, url) in codebook order
    pages: dict[str, bytes]
    intended: dict[str, str]
    texts: dict[str, str]
    hosts: list[str]
    gets: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    @property
    def html_bytes(self) -> int:
        return sum(len(body) for body in self.pages.values())

    def get(self, url: str, timeout: float):
        """The transport interface of ``praf.ingest.fetch_policy``."""
        with self._lock:
            self.gets += 1
        if url.partition("://")[2].partition("/")[2] == "robots.txt":
            return 200, "text/plain", ROBOTS_TXT, url
        body = self.pages.get(url)
        if body is None:
            return 404, "text/html", b"<html><body><h1>Not Found</h1></body></html>", url
        return 200, "text/html; charset=utf-8", body, url


def build_site(seed: int) -> ReplaySite:
    rng = random.Random(f"fetch-refresh:{seed}")
    hosts = [f"https://health{h}.example" for h in range(FETCH_HOSTS)]
    kinds = (["not_found"] * FETCH_NOT_FOUND + ["robots_blocked"] * FETCH_ROBOTS_BLOCKED
             + ["accessible"] * (FETCH_APPS - FETCH_NOT_FOUND - FETCH_ROBOTS_BLOCKED))
    rng.shuffle(kinds)
    sizes = iter(_sizes(rng, FETCH_APPS - FETCH_NOT_FOUND - FETCH_ROBOTS_BLOCKED,
                        FETCH_PAGE_BYTES))
    site = ReplaySite(apps=[], pages={}, intended={}, texts={}, hosts=hosts)
    for i, kind in enumerate(kinds, start=1):
        name = f"Fetch App {i}"
        host = hosts[rng.randrange(FETCH_HOSTS)]
        folder = "private" if kind == "robots_blocked" else "policies"
        url = f"{host}/{folder}/app{i}/privacy.html"
        site.apps.append((name, url))
        site.intended[name] = kind
        if kind == "accessible":
            lines = policy_lines(rng, next(sizes) - _MARKUP_BYTES)
            site.texts[name] = "\n".join(lines)
            site.pages[url] = render_page(rng, f"App{i}", host, lines)
    return site


def fetch_codebook(site: ReplaySite):
    from praf.corpus import AppCategory, RawAppEntry, assign_pseudonyms

    return assign_pseudonyms([
        RawAppEntry(name=name, category=AppCategory(CATEGORY), policy_url=url)
        for name, url in site.apps])
