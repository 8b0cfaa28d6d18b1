"""The CI workflow runs some tests by node id; each must name a test that exists."""

import importlib
import re
from pathlib import Path

WORKFLOW = Path(__file__).parents[1] / ".github" / "workflows" / "ci.yml"


def test_every_node_id_in_the_ci_workflow_names_a_test():
    node_ids = re.findall(r'"tests/(\w+)\.py::([\w:]+)', WORKFLOW.read_text())
    assert node_ids
    for module, path in node_ids:
        obj = importlib.import_module(module)
        for name in path.split("::"):
            assert hasattr(obj, name), f"tests/{module}.py::{path}"
            obj = getattr(obj, name)
