import json
from pathlib import Path

import pytest
from hypothesis import settings

from praf.corpus import load_codebook

FIXTURES = Path(__file__).parents[1] / "src" / "praf" / "data" / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def fixture_codebook():
    return load_codebook(FIXTURES / "codebook.json")


@pytest.fixture(scope="session")
def reference():
    return json.loads((FIXTURES / "reference_results.json").read_text())


# CI runs the tests marked ci_profile once more under this profile. They
# state no max_examples of their own, so the tier-1 run keeps Hypothesis's
# default number of examples.
settings.register_profile("ci", max_examples=1000)
