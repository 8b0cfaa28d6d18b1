import json
import sys
import threading
from pathlib import Path

from praf.cli import FIXTURES_DIR
from praf.corpus import AppCategory, AppRecord, Codebook
from praf.detect import default_rules_path, load_rules
from praf.ingest import InaccessibleReason, cache_get
from praf.pipeline import fetch_corpus, run_audit

from oracles import run_cli

FIXTURES = Path(__file__).parents[1] / "src" / "praf" / "data" / "fixtures"


class FakeTransport:
    def __init__(self, responses):
        self.responses = responses

    def get(self, url, timeout):
        outcome = self.responses[url]
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def small_codebook() -> Codebook:
    return Codebook(records=(
        AppRecord("A1", AppCategory.TELEHEALTH, policy_url="https://a1.example/privacy"),
        AppRecord("A2", AppCategory.TELEHEALTH, policy_url="https://a2.example/privacy"),
        AppRecord("A3", AppCategory.FITNESS_SUPPORT, policy_url=None),
    ))


class TestFetchCorpus:
    def test_online_fetch_populates_cache(self, tmp_path):
        transport = FakeTransport({
            "https://a1.example/privacy": (200, "text/html", b"<p>We collect data. We protect it.</p>", "https://a1.example/privacy"),
            "https://a2.example/privacy": (404, "text/html", b"", "https://a2.example/privacy"),
        })
        manifest = fetch_corpus(small_codebook(), tmp_path, transport=transport)
        assert [m["app"] for m in manifest] == ["A1", "A2", "A3"]
        assert manifest[0]["status"] == "accessible"
        assert manifest[1]["status"] == "inaccessible"
        assert manifest[1]["reason"] == "http_error"
        assert manifest[2]["reason"] == "no_url"
        cached = cache_get(tmp_path, "https://a1.example/privacy")
        assert cached is not None and cached.accessible
        assert cache_get(tmp_path, "https://a2.example/privacy").http_status == 404

    def test_cache_hit_skips_network(self, tmp_path):
        transport = FakeTransport({
            "https://a1.example/privacy": (200, "text/html", b"<p>First body here.</p>", "https://a1.example/privacy"),
            "https://a2.example/privacy": (200, "text/html", b"<p>Other body here.</p>", "https://a2.example/privacy"),
        })
        cb = small_codebook()
        fetch_corpus(cb, tmp_path, transport=transport)
        exploding = FakeTransport({
            "https://a1.example/privacy": RuntimeError("network touched"),
            "https://a2.example/privacy": RuntimeError("network touched"),
        })
        manifest = fetch_corpus(cb, tmp_path, transport=exploding)
        assert manifest[0]["status"] == "accessible"
        assert manifest[0]["cached"] is True

    def test_undecodable_charset_is_recorded_not_raised(self, tmp_path):
        transport = FakeTransport({
            "https://a1.example/privacy": (200, "text/html; charset=idna",
                                           "<p>We protect caf\u00e9 data.</p>".encode(), "https://a1.example/privacy"),
            "https://a2.example/privacy": (200, "text/html; charset=punycode",
                                           b"<p>Other \xff body.</p>", "https://a2.example/privacy"),
        })
        manifest = fetch_corpus(small_codebook(), tmp_path, transport=transport)
        assert [m["status"] for m in manifest] == ["accessible", "accessible", "inaccessible"]
        assert cache_get(tmp_path, "https://a1.example/privacy").text == "We protect caf\u00e9 data."

    def test_empty_codebook(self, tmp_path):
        assert fetch_corpus(Codebook(), tmp_path) == []

    def test_jobs_page_requests_are_in_flight_at_once(self, tmp_path):
        jobs = 2
        barrier = threading.Barrier(jobs, timeout=5)

        class BarrierTransport:
            def get(self, url, timeout):
                barrier.wait()  # breaks, and the fetch fails, unless jobs requests wait here
                return 200, "text/html", f"<p>Policy at {url}.</p>".encode(), url

        manifest = fetch_corpus(small_codebook(), tmp_path, jobs=jobs, transport=BarrierTransport())
        assert [m["status"] for m in manifest] == ["accessible", "accessible", "inaccessible"]
        assert not barrier.broken

    def test_extraction_runs_on_the_calling_thread(self, tmp_path, monkeypatch):
        import praf.ingest

        threads = []
        extract = praf.ingest.extract_text
        monkeypatch.setattr(praf.ingest, "extract_text",
                            lambda *args: threads.append(threading.get_ident()) or extract(*args))
        transport = FakeTransport({
            url: (200, "text/html", b"<p>We collect data.</p>", url)
            for url in ("https://a1.example/privacy", "https://a2.example/privacy")
        })
        manifest = fetch_corpus(small_codebook(), tmp_path, jobs=2, transport=transport)
        assert [m["status"] for m in manifest] == ["accessible", "accessible", "inaccessible"]
        assert threads == [threading.get_ident()] * 2

    def test_failures_retried_within_a_run_are_requested_again_online(self, tmp_path,
                                                                      monkeypatch):
        monkeypatch.setattr("praf.ingest.time.sleep", lambda s: None)
        urls = [f"https://a{i}.example/privacy" for i in range(1, 5)]
        cb = Codebook(records=tuple(AppRecord(f"A{i}", AppCategory.TELEHEALTH, policy_url=url)
                                    for i, url in enumerate(urls, start=1)))
        fetch_corpus(cb, tmp_path, transport=FakeTransport({
            urls[0]: ConnectionError("dns blip"),
            urls[1]: (503, "text/html", b"", urls[1]),
            urls[2]: (404, "text/html", b"", urls[2]),
            urls[3]: (302, "text/html", b"", urls[3]),
        }))
        offline = fetch_corpus(cb, tmp_path, offline=True)
        assert [(m["reason"], m["cached"]) for m in offline] == [
            ("network_error", True), ("http_error", True), ("http_error", True),
            ("http_error", True)]
        manifest = fetch_corpus(cb, tmp_path, transport=FakeTransport({
            url: (200, "text/html", b"<p>Back online.</p>", url) for url in urls[:2]}))
        assert [(m["status"], m["cached"]) for m in manifest] == [
            ("accessible", False), ("accessible", False), ("inaccessible", True),
            ("inaccessible", True)]
        assert cache_get(tmp_path, urls[1]).accessible

    def test_robots_block_is_recorded_as_such(self, tmp_path):
        transport = FakeTransport({
            "https://a1.example/robots.txt": (200, "text/plain", b"User-agent: *\nDisallow: /", "https://a1.example/robots.txt"),
            "https://a2.example/privacy": (200, "text/html", b"<p>Allowed body here.</p>", "https://a2.example/privacy"),
        })
        manifest = fetch_corpus(small_codebook(), tmp_path, transport=transport, respect_robots=True)
        assert manifest[0] == {"app": "A1", "url": "https://a1.example/privacy", "cached": False,
                               "status": "inaccessible", "reason": "robots_blocked"}
        assert manifest[1]["status"] == "accessible"
        cached = cache_get(tmp_path, "https://a1.example/privacy")
        assert cached.reason is InaccessibleReason.ROBOTS_BLOCKED and cached.http_status is None

    def test_robots_txt_is_respected_by_default(self, tmp_path):
        transport = FakeTransport({
            "https://a1.example/robots.txt": (200, "text/plain", b"User-agent: *\nDisallow: /privacy", "https://a1.example/robots.txt"),
            "https://a1.example/privacy": RuntimeError("disallowed page requested"),
            "https://a2.example/privacy": (200, "text/html", b"<p>Allowed body here.</p>", "https://a2.example/privacy"),
        })
        manifest = fetch_corpus(small_codebook(), tmp_path, transport=transport)
        assert [m.get("reason") for m in manifest] == ["robots_blocked", None, "no_url"]


class TestAuditPipeline:
    def test_missing_inputs_lists_unanswerable_apps(self, tmp_path):
        result = run_audit(small_codebook(), tmp_path, load_rules(default_rules_path()))
        assert result.incomplete == ["A1", "A2", "A3"]
        assert result.audits == []

    def test_run_audit_over_fixture_cache(self, fixture_codebook):
        rules = load_rules(default_rules_path())
        result = run_audit(fixture_codebook, FIXTURES / "cache", rules)
        assert len(result.audits) == 28
        profiles = {a.record.pseudonym: a.profile for a in result.audits}
        assert profiles["A24"].overall == 0
        assert profiles["A1"].overall == 23
        agreement = result.agreement()
        assert agreement["annotated_cells"] == 27 * 13
        assert agreement["rate"] == 1.0

    def test_each_document_is_segmented_once(self, fixture_codebook, monkeypatch):
        import praf.readability

        calls = []
        segment = praf.readability.sentence_spans
        for name, module in list(sys.modules.items()):
            if name.startswith("praf") and getattr(module, "sentence_spans", None) is segment:
                monkeypatch.setattr(module, "sentence_spans",
                                    lambda text: calls.append(text) or segment(text))
        result = run_audit(fixture_codebook, FIXTURES / "cache", load_rules(default_rules_path()))
        texts = [a.text for a in result.audits if a.accessible]
        assert len(texts) == 27
        assert calls == texts

    def test_fixture_corpus_bands_match_reference(self, fixture_codebook, reference):
        rules = load_rules(default_rules_path())
        result = run_audit(fixture_codebook, FIXTURES / "cache", rules)
        levels = {row["pseudonym"]: row["level"] for row in reference["apps"]}
        for audit in result.audits:
            app, readability = audit.record.pseudonym, audit.readability
            if readability is None:
                assert levels[app] is None
            else:
                assert readability.band.code == levels[app], app

    def test_fixture_corpus_texts_are_clean(self, fixture_codebook):
        from praf.ingest import cache_get

        for rec in fixture_codebook.records:
            doc = cache_get(FIXTURES / "cache", rec.policy_url)
            if not doc.accessible:
                continue
            assert "<" not in doc.text and ">" not in doc.text
            assert all(ch == "\n" or (ch.isprintable() and ch not in "​﻿")
                       for ch in doc.text)


class TestCacheOption:
    def test_praf_cache_env_is_ignored(self, tmp_path, monkeypatch):
        """Only --cache sets the cache: an empty directory in $PRAF_CACHE
        does not hide the bundled one."""
        (tmp_path / "envcache").mkdir()
        monkeypatch.setenv("PRAF_CACHE", str(tmp_path / "envcache"))
        result = run_cli(["fetch", "--offline"])
        assert result.exit_code == 0
        manifest = json.loads(result.output)
        assert manifest["cache"] == str(FIXTURES_DIR / "cache")
        assert len(manifest["apps"]) == 28
        assert sum(a["status"] == "accessible" for a in manifest["apps"]) == 27
