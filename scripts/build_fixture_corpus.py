#!/usr/bin/env python3
"""Generate the bundled fixture corpus: one recorded policy page per app.

Each page is synthetic stand-in prose assembled from the app's reference
marks: every yes-mark plants sentences that its detector recognizes, hedge
density matches the ambiguity mark, generic assurances match the vagueness
mark, and neutral filler sentences are chosen so the SMOG grade of the
extracted text lands in the app's reference band. A24 is recorded as an
HTTP 404. The script validates every page through the real pipeline
(extract -> detect -> readability) and refuses to emit a corpus that does
not reproduce the reference marks and bands exactly.

Writes src/praf/data/fixtures/cache/<sha256(url)>.json.
"""

import json
import random
import sys
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from praf.corpus import load_codebook
from praf.detect import DIMENSIONS, DetectionDimension as Dim, default_rules_path, detect_all, load_rules
from praf.ingest import (FetchFailure, InaccessibleReason, RawFetch, cache_put, document_from_fetch,
                         extract_text)
from praf.readability import (
    BAND_EDGES,
    SMOG_INTERCEPT,
    SMOG_SLOPE,
    ReadabilityBand,
    analyze,
    band,
    count_polysyllables,
    smog_grade,
)

FIXTURES = ROOT / "src" / "praf" / "data" / "fixtures"
CACHE_DIR = FIXTURES / "cache"
FETCHED_AT = datetime(2025, 1, 15, tzinfo=timezone.utc)

# The Professional band is open-ended; 30.0 caps the grades searched for it.
_BAND_BOUNDS = (0.0, *BAND_EDGES, 30.0)
BAND_INTERVALS = {
    b.code: (lo, hi) for b, lo, hi in zip(ReadabilityBand, _BAND_BOUNDS, _BAND_BOUNDS[1:])
}

INTRO = [
    "This page explains how our app handles the details you provide.",
    "It covers what we gather, why we gather it, and the choices you have.",
]

HEADINGS = ["Privacy Policy", "Overview", "Details", "Your Choices", "Updates", "Contact"]

REGULATION_SENTENCES = {
    "hipaa": [
        "Our practices follow the Health Insurance Portability and Accountability Act (HIPAA).",
        "We maintain safeguards aligned with HIPAA rules for protected health records.",
    ],
    "gdpr": [
        "For users in the European Union, we honor the General Data Protection Regulation (GDPR).",
        "Our processing follows the GDPR where it applies.",
    ],
    "other": [
        "California residents hold rights under the California Consumer Privacy Act (CCPA).",
        "Residents of the European Economic Area hold statutory rights over their records.",
        "Canadian users are covered by PIPEDA.",
        "We follow the Data Protection Act where it applies.",
    ],
}

PRINCIPLE_SENTENCES = {
    Dim.DATA_MINIMIZATION: [
        "We collect only the details needed to run the service.",
        "Data minimization guides every product decision.",
        "We limit the collection of health readings to the sensors you enable.",
    ],
    Dim.DATA_ENCRYPTION: [
        "Health records are encrypted at rest and in transit.",
        "All traffic between your device and our servers uses TLS.",
        "Stored files are protected with AES ciphers.",
    ],
    Dim.ACCESS_CONTROLS: [
        "Access to personal records is granted to authorized personnel alone.",
        "We enforce role-based access controls for staff accounts.",
        "Staff sign in with two-factor authentication.",
    ],
    Dim.CONSENT_REQUIREMENTS: [
        "We obtain your consent before gathering health measurements.",
        "Marketing messages are sent with your consent alone.",
        "You give explicit consent during setup.",
    ],
    Dim.RETENTION_TIME: [
        "Account data is retained for two years after closure.",
        "Backups are stored for 90 days.",
        "Our retention period for wellness logs is listed in the chart above.",
    ],
    Dim.BREACH_PROTOCOL: [
        "If a data breach affects your records, we will notify you by email within 72 hours.",
        "Our breach notification plan names who alerts regulators and users.",
    ],
    Dim.THIRD_PARTY_SHARING: [
        "We share your information with service providers bound by written contracts.",
        "A list of third parties that receive usage data is published in the app.",
    ],
}

EXACT_QUOTES = {
    ("A3", Dim.DATA_MINIMIZATION):
        "We limit the collection of personal information to what you choose to "
        "submit through the use of our services.",
    ("A7", Dim.DATA_ENCRYPTION):
        "Any payment transactions will be encrypted using SSL.",
    ("A19", Dim.RETENTION_TIME):
        "We retain your records for 5 years.",
}

ASSURANCES = [
    "We take reasonable measures to protect the information you provide.",
    "Our vendors follow industry-standard practices.",
    "We apply appropriate safeguards across our systems.",
    "We take security seriously at every level.",
]

HEDGED = [
    "We may update this page when the app changes.",
    "Screens might look different on some devices.",
    "From time to time, we publish tips for readers.",
    "We may add new options in future releases.",
    "Colors might vary by device model.",
    "Load times could vary with your signal strength.",
    "We occasionally refresh the images in our guides.",
    "The wording here may get simpler over time.",
    "We might expand this page with more examples.",
    "Some links could move as the site grows.",
    "We may translate this page into more languages.",
    "Menu layouts might differ between phone and tablet.",
    "From time to time, our contact hours shift.",
    "Page numbers could change between editions.",
    "We occasionally revise our reading guides.",
    "Font sizes might differ across screens.",
    "Supplementary informational appendices may describe additional configuration possibilities.",
    "Particularly complicated terminology might receive dedicated explanatory commentary.",
    "Occasionally, editorial representatives reorganize voluminous documentation hierarchies.",
    "Comparative illustrations could accompany especially elaborate numerical presentations.",
    "From time to time, typographical conventions receive systematic editorial reconsideration.",
    "Preliminary translations may temporarily exhibit inconsistent terminology.",
    "Explanatory animations might eventually supplement particularly intricate material.",
    "Complementary documentation could incorporate additional illustrative scenarios.",
]

NEUTRAL = [
    "We want you to feel safe here.",
    "You can reach our team by phone.",
    "Our help desk is open five days a week.",
    "You choose what you send to us.",
    "We read each note you send.",
    "The app works best with a strong signal.",
    "You can change your mind at any time.",
    "We post the date of each change at the top of this page.",
    "Take your time when you read this page.",
    "Your trust means a great deal to us.",
    "We test the app each week.",
    "The team meets each month to check our work.",
    "We aim to be clear and fair.",
    "We hope this page answers your main doubts.",
    "Thanks for taking time to read this.",
    "We wrote this page in short, plain words.",
    "You can print this page for your files.",
    "A short chart near the end sums things up.",
    "The same terms hold on phone and web.",
    "We keep this page free of legal fog.",
    "We answer most messages within two days.",
    "Our office hours are listed on the contact page.",
    "Headings break the text into short, readable blocks.",
    "We date every version of this document.",
    "Old versions stay in the archive.",
    "Each section ends with a short recap.",
    "Terms in bold are defined in the glossary.",
    "Numbered lists organize the longer procedures.",
    "Our style guide bans jargon wherever possible.",
    "Updates appear on this page during the year.",
    "We publish a revision history for this document.",
    "Our engineers monitor the platform around the clock.",
    "The privacy team reviews every question we get.",
    "Feedback from readers improves every edition of this page.",
    "Our support articles cover common questions in detail.",
    "Diagrams in the appendix illustrate the main ideas.",
    "Every chapter of this policy has a short summary.",
    "We describe each category of records in its own section.",
    "Technical terms are defined the first time they appear.",
    "The glossary at the end defines every term we use.",
    "Readers asked for simpler wording, so we rewrote this page.",
    "We welcome questions about anything on this page.",
    "Examples in each section show how the rules apply.",
    "The table of contents lists every section in order.",
    "Our editors review this page for clarity each quarter.",
    "Plain summaries sit above each detailed section.",
    "This document favors everyday words over legal phrasing.",
    "Illustrations accompany the longer explanations.",
    "The reading level of this page is checked before each release.",
    "Volunteers from reading groups review our drafts.",
    "Additional informational materials are available electronically.",
    "Our documentation describes organizational responsibilities in considerable detail.",
    "The application presents numerical information in readable visual summaries.",
    "Comprehensive explanations accompany every significant terminology decision.",
    "Independent organizations publish annual usability evaluations of popular applications.",
    "Elaborate typographical conventions distinguish definitions from commentary.",
    "Representatives answer complicated questions with patience and specificity.",
    "Our quarterly newsletter summarizes noteworthy developments.",
    "Considerable editorial attention accompanies every revision of this material.",
    "Explanatory diagrams simplify particularly intricate subsections.",
    "Methodological appendices document terminological, typographical, and organizational conventions comprehensively.",
    "Interdisciplinary professional communities evaluate comparative readability methodologies.",
    "Sophisticated typographical presentation facilitates comfortable extended utilization.",
    "Institutional repositories preserve authoritative historical documentation indefinitely.",
    "Collaborative editorial initiatives systematically eliminate unnecessarily complicated vocabulary.",
    "Representative participants repeatedly validated preliminary organizational terminology interpretations.",
    "Organizational representatives communicate operational developments transparently.",
    "Universities investigating documentation comprehensibility publish independent evaluations.",
    "Contemporary typography optimizes legibility across heterogeneous devices.",
    "Meticulous editorial verification precedes every publication milestone.",
    "Comprehensible vocabulary significantly improves reader comprehension statistics.",
    "Anonymized telemetry summaries inform our editorial priorities.",
    "Exhaustive bibliographical references document our terminological conventions.",
    "Specialized committees deliberate recurring terminological questions.",
    "Multidisciplinary reviewers evaluate preliminary editorial recommendations.",
    "Quantitative readability measurements accompany every major revision.",
    "Illustrative scenarios demonstrate representative application behavior.",
    "Hierarchical organization facilitates systematic navigation throughout lengthy documents.",
    "Participatory usability investigations motivate continual simplification initiatives.",
    "Authoritative terminology originates from recognized professional vocabularies.",
    "Longitudinal comparisons reveal measurable comprehensibility improvements.",
    "Complementary educational materials elaborate foundational concepts progressively.",
    "Editorial automation identifies excessively complicated sentence constructions.",
    "Customizable typography suits individual visual preferences.",
    "Recurring editorial retrospectives summarize documentation quality indicators.",
    "Deliberate repetition reinforces particularly consequential informational passages.",
    "Independent laboratories benchmark comparative documentation usability.",
    "Progressive disclosure organizes elaborate technical explanations economically.",
    "Conversational phrasing humanizes traditionally bureaucratic communications.",
    "Systematic glossary maintenance prevents terminological inconsistencies.",
]


def poly_count(sentence: str) -> int:
    return count_polysyllables(sentence)


def p_bounds(level: str, sentences: int) -> tuple[int, int]:
    lo, hi = BAND_INTERVALS[level]
    factor = sentences / 30.0
    p_min = 0
    if lo > SMOG_INTERCEPT:
        p_min = int(((lo - SMOG_INTERCEPT) / SMOG_SLOPE) ** 2 * factor) + 1
    p_max = int(((hi - SMOG_INTERCEPT) / SMOG_SLOPE) ** 2 * factor - 1e-9)
    return p_min, p_max


def p_target(grade: float, sentences: int) -> int:
    return round(((grade - SMOG_INTERCEPT) / SMOG_SLOPE) ** 2 * sentences / 30.0)


def pick_fillers(rng: random.Random, pool: list[str], slots: int, target: int) -> list[str] | None:
    """Choose `slots` distinct sentences whose polysyllable counts sum as close
    to `target` as the pool allows; a swap pass repairs the residual."""
    if slots > len(pool):
        return None
    shuffled = pool[:]
    rng.shuffle(shuffled)
    chosen: list[str] = []
    remaining = target
    available = shuffled[:]
    for i in range(slots):
        slots_left = slots - i
        ideal = remaining / slots_left
        best = min(available, key=lambda s: abs(poly_count(s) - ideal))
        available.remove(best)
        chosen.append(best)
        remaining -= poly_count(best)
    for _ in range(200):
        gap = target - sum(poly_count(s) for s in chosen)
        if gap == 0 or not available:
            break
        swap = min(
            ((c, a) for c in chosen for a in available),
            key=lambda pair: abs(gap - (poly_count(pair[1]) - poly_count(pair[0]))),
        )
        improvement = poly_count(swap[1]) - poly_count(swap[0])
        if abs(gap - improvement) >= abs(gap):
            break
        chosen.remove(swap[0])
        available.remove(swap[1])
        chosen.append(swap[1])
        available.append(swap[0])
    return chosen


def content_sentences(app: str, verdicts: dict, rng: random.Random) -> list[str]:
    sentences = list(INTRO)
    if verdicts[Dim.HIPAA_MENTION] == "yes":
        sentences.append(rng.choice(REGULATION_SENTENCES["hipaa"]))
    if verdicts[Dim.GDPR_MENTION] == "yes":
        sentences.append(rng.choice(REGULATION_SENTENCES["gdpr"]))
    if verdicts[Dim.OTHER_REGULATION] == "yes":
        sentences.append(rng.choice(REGULATION_SENTENCES["other"]))
    for dim in (Dim.DATA_MINIMIZATION, Dim.DATA_ENCRYPTION, Dim.ACCESS_CONTROLS,
                Dim.CONSENT_REQUIREMENTS, Dim.RETENTION_TIME, Dim.BREACH_PROTOCOL,
                Dim.THIRD_PARTY_SHARING):
        if verdicts[dim] != "yes":
            continue
        quote = EXACT_QUOTES.get((app, dim))
        sentences.append(quote if quote else rng.choice(PRINCIPLE_SENTENCES[dim]))
    if verdicts[Dim.VAGUE_COMMITMENTS] == "partial":
        sentences.extend(rng.sample(ASSURANCES, rng.choice([1, 2])))
    return sentences


def render_html(app: str, sections: list[list[str]]) -> str:
    parts = [
        "<!DOCTYPE html>",
        "<html>",
        f"<head><title>{app} Privacy Policy</title>"
        "<style>body { font: 16px serif; }</style></head>",
        "<body>",
        '<nav><a href="/">Home</a> <a href="/guide">Guide</a> <a href="/support">Support</a></nav>',
        '<header><a href="/">Our App</a></header>',
        "<main>",
        f"<h1>{HEADINGS[0]}</h1>",
    ]
    parts.append("<p>" + " ".join(sections[0]) + "</p>")
    for heading, body in zip(HEADINGS[1:], sections[1:]):
        parts.append(f"<h2>{heading}</h2>")
        mid = max(1, len(body) // 2) if len(body) > 5 else len(body)
        parts.append("<p>" + " ".join(body[:mid]) + "</p>")
        if body[mid:]:
            parts.append("<p>" + " ".join(body[mid:]) + "</p>")
    parts += [
        "</main>",
        '<aside>See also: <a href="/terms">Terms of Use</a></aside>',
        '<footer>(c) Our App. <a href="/contact">Write to us</a></footer>',
        "</body>",
        "</html>",
    ]
    return "\n".join(parts)


def build_app_page(app: str, verdicts: dict, grade: float, level: str) -> str:
    rng = random.Random(f"corpus::{app}")
    content = content_sentences(app, verdicts, rng)

    # average polysyllables per sentence implied by the target grade
    density = p_target(grade, 30) / 30.0
    hedge_share = rng.uniform(0.18, 0.30)
    start = max(40 + rng.randrange(14), len(content) + 16)
    for total in range(start, 96):
        n_heads = len(HEADINGS)
        if verdicts[Dim.AMBIGUOUS_LANGUAGE] == "partial":
            n_hedged = round(hedge_share * total)
        else:
            n_hedged = rng.choice([0, 1])
        n_neutral = total - n_heads - len(content) - n_hedged
        if n_neutral < 4 or n_neutral > len(NEUTRAL) or n_hedged > len(HEDGED):
            continue
        hedged = pick_fillers(rng, HEDGED, n_hedged, round(density * n_hedged)) or []
        fixed_p = sum(poly_count(s) for s in HEADINGS + content + hedged)
        p_min, p_max = p_bounds(level, total)
        target = min(max(p_target(grade, total), p_min), p_max)
        need = target - fixed_p
        if need < 0:
            continue
        fillers = pick_fillers(rng, NEUTRAL, n_neutral, need)
        if fillers is None:
            continue
        achieved = fixed_p + sum(poly_count(s) for s in fillers)
        if not (p_min <= achieved <= p_max):
            continue

        rest = content[2:] + hedged + fillers
        rng.shuffle(rest)
        # distribute across the six sections; the intro pair stays first
        sections = [content[:2]]
        per = max(1, len(rest) // (len(HEADINGS) - 1))
        for i in range(len(HEADINGS) - 1):
            chunk = rest[i * per:(i + 1) * per] if i < len(HEADINGS) - 2 else rest[(i) * per:]
            sections.append(chunk)
        html = render_html(app, sections)
        if validate(app, html, verdicts, level):
            return html
    raise RuntimeError(f"{app}: no feasible page composition found")


def validate(app: str, html: str, verdicts: dict, level: str) -> bool:
    doc = analyze(extract_text(html.encode(), "text/html"))
    rules = load_rules(default_rules_path())
    findings = {f.dimension: f for f in detect_all(doc, rules)}
    for dim in DIMENSIONS:
        if findings[dim].verdict.value != verdicts[dim]:
            return False
    result = smog_grade(doc)
    if result.band.code != level:
        return False
    return True


def main() -> None:
    codebook = load_codebook(FIXTURES / "codebook.json")
    reference = json.loads((FIXTURES / "reference_results.json").read_text())
    by_app = {row["pseudonym"]: row for row in reference["apps"]}
    CACHE_DIR.mkdir(parents=True, exist_ok=True)
    for old in CACHE_DIR.glob("*.json"):
        old.unlink()

    grade_errors = []
    for rec in codebook.records:
        app = rec.pseudonym
        row = by_app[app]
        url = rec.policy_url
        if row["smog"] is None:
            cache_put(CACHE_DIR, url, document_from_fetch(
                app, FetchFailure(url, InaccessibleReason.HTTP_ERROR, status=404), FETCHED_AT))
            print(f"{app}: inaccessible (404)")
            continue
        verdicts = {dim: v.value for dim, v in codebook.overrides_for(app).items()}
        html = build_app_page(app, verdicts, row["smog"], row["level"])
        doc = document_from_fetch(app, RawFetch(final_url=url, body=html.encode(),
                                                content_type="text/html; charset=utf-8",
                                                status=200), FETCHED_AT)
        cache_put(CACHE_DIR, url, doc)
        result = smog_grade(doc.text)
        grade_errors.append(abs(result.smog_grade - row["smog"]))
        print(f"{app}: {result.sentence_count} sentences, poly {result.polysyllable_count}, "
              f"smog {result.smog_grade:.2f} (ref {row['smog']}, band {result.band.code})")
    if grade_errors:
        print(f"mean |smog - reference| = {sum(grade_errors)/len(grade_errors):.3f}")
    print(f"wrote {len(list(CACHE_DIR.glob('*.json')))} cache entries to {CACHE_DIR}")


if __name__ == "__main__":
    main()
