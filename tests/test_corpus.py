import json

import pytest

from praf.corpus import (
    AnnotationSet,
    AppCategory,
    AppRecord,
    Codebook,
    RawAppEntry,
    StoreSource,
    assign_pseudonyms,
    load_codebook,
    save_codebook,
)
from praf.detect import DetectionDimension as Dim, Verdict
from praf.errors import PrafError


def small_codebook() -> Codebook:
    records = tuple(
        AppRecord(
            pseudonym=f"A{i}",
            category=AppCategory.TELEHEALTH,
            real_name=f"Vendor {i}",
            policy_url=f"https://a{i}.example/privacy",
            store_source=StoreSource.APPLE_STORE,
        )
        for i in range(1, 4)
    )
    annotations = (
        AnnotationSet(
            app="A2",
            overrides={Dim.DATA_ENCRYPTION: Verdict.YES, Dim.BREACH_PROTOCOL: Verdict.NO},
            reviewer_note="checked by hand",
        ),
    )
    return Codebook(records=records, annotations=annotations)


class TestCodebookModel:
    def test_duplicate_pseudonym_rejected(self):
        rec = AppRecord("A3", AppCategory.FITNESS_SUPPORT)
        with pytest.raises(PrafError, match="duplicate pseudonym 'A3'"):
            Codebook(records=(rec, rec))

    def test_bad_pseudonym_pattern(self):
        for bad in ("A0", "1A", "AA", "A-1", ""):
            with pytest.raises(PrafError, match="must be a letter plus a positive integer"):
                AppRecord(bad, AppCategory.TELEHEALTH)

    def test_annotation_must_reference_record(self):
        with pytest.raises(PrafError, match="annotation references unknown app 'A9'"):
            Codebook(records=(), annotations=(AnnotationSet(app="A9"),))

    def test_overrides_merge_later_wins(self):
        cb = Codebook(
            records=(AppRecord("A1", AppCategory.TELEHEALTH),),
            annotations=(
                AnnotationSet(app="A1", overrides={Dim.DATA_ENCRYPTION: Verdict.NO}),
                AnnotationSet(app="A1", overrides={Dim.DATA_ENCRYPTION: Verdict.YES}),
            ),
        )
        assert cb.overrides_for("A1") == {Dim.DATA_ENCRYPTION: Verdict.YES}
        # two apps' sets interleaved: each app merges only its own
        cb = Codebook(
            records=(AppRecord("A1", AppCategory.TELEHEALTH), AppRecord("A2", AppCategory.TELEHEALTH)),
            annotations=(
                AnnotationSet(app="A1", overrides={Dim.DATA_ENCRYPTION: Verdict.NO,
                                                   Dim.BREACH_PROTOCOL: Verdict.NO}),
                AnnotationSet(app="A2", overrides={Dim.DATA_ENCRYPTION: Verdict.PARTIAL}),
                AnnotationSet(app="A1", overrides={Dim.DATA_ENCRYPTION: Verdict.YES}),
                AnnotationSet(app="A2", overrides={Dim.HIPAA_MENTION: Verdict.YES}),
            ),
        )
        assert cb.overrides_for("A1") == {Dim.DATA_ENCRYPTION: Verdict.YES,
                                          Dim.BREACH_PROTOCOL: Verdict.NO}
        assert cb.overrides_for("A2") == {Dim.DATA_ENCRYPTION: Verdict.PARTIAL,
                                          Dim.HIPAA_MENTION: Verdict.YES}
        # each call returns a new dict, so a caller's change stays its own
        cb.overrides_for("A1").clear()
        assert len(cb.overrides_for("A1")) == 2


class TestAssignPseudonyms:
    def test_order_preserved(self):
        entries = [
            RawAppEntry(name=f"App {i}", category=AppCategory.FITNESS_SUPPORT)
            for i in range(1, 29)
        ]
        cb = assign_pseudonyms(entries)
        assert [r.pseudonym for r in cb.records] == [f"A{i}" for i in range(1, 29)]
        assert [r.real_name for r in cb.records] == [f"App {i}" for i in range(1, 29)]

    def test_singleton(self):
        cb = assign_pseudonyms([RawAppEntry("Solo", AppCategory.TELEHEALTH)])
        assert [r.pseudonym for r in cb.records] == ["A1"]

    def test_empty(self):
        assert assign_pseudonyms([]) == Codebook()

    def test_bijection(self):
        entries = [RawAppEntry(f"N{i}", AppCategory.HEALTHCARE_SERVICES) for i in range(10)]
        cb = assign_pseudonyms(entries)
        assert len({r.pseudonym for r in cb.records}) == len(entries)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        cb = small_codebook()
        path = tmp_path / "codebook.json"
        save_codebook(cb, path)
        assert load_codebook(path) == cb

    def test_empty_round_trip(self, tmp_path):
        path = tmp_path / "codebook.json"
        save_codebook(Codebook(), path)
        assert load_codebook(path) == Codebook()

    def test_missing_file(self, tmp_path):
        with pytest.raises(PrafError, match="codebook not found: .*absent.json"):
            load_codebook(tmp_path / "absent.json")

    def test_not_utf8_rejected(self, tmp_path):
        path = tmp_path / "codebook.json"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(PrafError, match="codebook.json is not readable UTF-8 JSON"):
            load_codebook(path)

    def test_directory_rejected(self, tmp_path):
        path = tmp_path / "codebook.json"
        path.mkdir()
        with pytest.raises(PrafError, match="codebook.json is not readable UTF-8 JSON"):
            load_codebook(path)

    def test_duplicate_pseudonym_with_locator(self, tmp_path):
        path = tmp_path / "codebook.json"
        rec = {"pseudonym": "A3", "real_name": None, "category": "Telehealth",
               "policy_url": None, "store_source": "other"}
        path.write_text(json.dumps({"records": [rec, dict(rec)], "annotations": []}))
        with pytest.raises(PrafError, match="A3"):
            load_codebook(path)

    def test_unknown_category_with_locator(self, tmp_path):
        path = tmp_path / "codebook.json"
        rec = {"pseudonym": "A1", "real_name": None, "category": "Gaming",
               "policy_url": None, "store_source": "other"}
        path.write_text(json.dumps({"records": [rec], "annotations": []}))
        with pytest.raises(PrafError, match=r"records\[0\]"):
            load_codebook(path)

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "codebook.json"
        rec = {"pseudonym": "A1", "real_name": None, "category": "Telehealth",
               "policy_url": None, "store_source": "other", "color": "red"}
        path.write_text(json.dumps({"records": [rec], "annotations": []}))
        with pytest.raises(PrafError, match="color"):
            load_codebook(path)

    def test_bad_verdict_rejected(self, tmp_path):
        path = tmp_path / "codebook.json"
        rec = {"pseudonym": "A1", "real_name": None, "category": "Telehealth",
               "policy_url": None, "store_source": "other"}
        ann = {"app": "A1", "overrides": {"data_encryption": "maybe"},
               "reviewer_note": "", "timestamp": "2024-11-01T00:00:00Z"}
        path.write_text(json.dumps({"records": [rec], "annotations": [ann]}))
        with pytest.raises(PrafError, match="maybe"):
            load_codebook(path)

    @staticmethod
    def _write_annotation(path, **fields):
        rec = {"pseudonym": "A1", "real_name": None, "category": "Telehealth",
               "policy_url": None, "store_source": "other"}
        ann = {"app": "A1", "overrides": {}, "reviewer_note": "",
               "timestamp": "2024-11-01T00:00:00Z", **fields}
        path.write_text(json.dumps({"records": [rec], "annotations": [ann]}))

    def test_overrides_not_an_object_rejected(self, tmp_path):
        path = tmp_path / "codebook.json"
        self._write_annotation(path, overrides=["data_encryption", "yes"])
        with pytest.raises(PrafError, match=r"annotations\[0\]"):
            load_codebook(path)

    def test_timestamp_not_a_string_rejected(self, tmp_path):
        path = tmp_path / "codebook.json"
        self._write_annotation(path, timestamp=20241101)
        with pytest.raises(PrafError, match=r"annotations\[0\]"):
            load_codebook(path)

    def test_unwritable_path(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("file, not dir")
        with pytest.raises(PrafError, match="cannot write .*cb.json"):
            save_codebook(Codebook(), blocker / "cb.json")

    def test_verdicts_serialized_as_words(self, tmp_path):
        path = tmp_path / "codebook.json"
        save_codebook(small_codebook(), path)
        data = json.loads(path.read_text())
        assert data["annotations"][0]["overrides"]["data_encryption"] == "yes"
        assert data["records"][0]["store_source"] == "apple_store"
