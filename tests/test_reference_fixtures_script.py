"""scripts/build_reference_fixtures.py writes the bundled reference fixtures
only when ``praf verify``'s check passes on them."""

import importlib.util
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
FIXTURES = ROOT / "src" / "praf" / "data" / "fixtures"
NAMES = ["codebook.json", "reference_results.json"]


@pytest.fixture()
def script(tmp_path, monkeypatch):
    """A fresh copy of the script, writing into tmp_path."""
    monkeypatch.setattr(sys, "path", sys.path[:])  # the script prepends src/
    path = ROOT / "scripts" / "build_reference_fixtures.py"
    spec = importlib.util.spec_from_file_location("build_reference_fixtures", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "FIXTURES", tmp_path)
    return module


def test_writes_the_bundled_fixtures(script, tmp_path):
    old = os.umask(0o022)
    try:
        script.main()
    finally:
        os.umask(old)
    for name in NAMES:
        assert (tmp_path / name).read_bytes() == (FIXTURES / name).read_bytes(), name
        assert (tmp_path / name).stat().st_mode & 0o777 == 0o644, name


def _raise_a1_regulatory(module):
    app, category, marks, smog, level, regulatory, *scores = module.ROWS[0]
    module.ROWS[0] = (app, category, marks, smog, level, regulatory + 1, *scores)


@pytest.mark.parametrize("edit, fail", [
    pytest.param(lambda m: m.SUMMARY_TARGETS["counts"].update(hipaa=[8, 28.6]),
                 "FAIL summary count.hipaa: computed 7 != target 8", id="summary-target"),
    pytest.param(_raise_a1_regulatory, "FAIL A1 regulatory: computed 4 != reference 5",
                 id="row-score"),
])
def test_writes_nothing_when_verify_fails(script, tmp_path, capsys, edit, fail):
    edit(script)
    with pytest.raises(SystemExit) as exit_:
        script.main()
    assert exit_.value.code != 0
    assert fail in capsys.readouterr().err.splitlines()
    assert list(tmp_path.iterdir()) == []
