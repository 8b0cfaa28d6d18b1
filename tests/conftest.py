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


# CI runs some properties once more under this profile: the CLI fuzz property
# of test_cli.py, the per-sentence search and language references, the
# one-span-per-sentence property, the prefilter independence and candidate
# superset properties of test_detect.py, the two whitespace invariance
# properties of test_readability.py, the rubric table property of
# test_score.py, and the unclosed <a>/<pre> property, the html.parser
# differential property, the open element count property and the WHATWG
# script state property of test_ingest.py. These state no max_examples of
# their own, so the tier-1 run keeps Hypothesis's default number of examples.
settings.register_profile("ci", max_examples=1000)
