"""Every test id the CI workflow names exists: a job that names a renamed file,
class or test fails only on a hosted runner, so tier-1 checks the ids here."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
TEST_ID = re.compile(r"tests/[\w/]+\.py(?:::\w+)*")


def defines(test_id: str) -> bool:
    """Whether the file exists and each ``::`` name is a class or function
    defined at the top of the scope before it."""
    path, *names = test_id.split("::")
    file = ROOT / path
    if not file.is_file():
        return False
    scope = ast.parse(file.read_text()).body
    for name in names:
        found = [node for node in scope
                 if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == name]
        if not found:
            return False
        scope = found[0].body
    return True


def test_every_test_id_the_workflow_names_exists():
    text = WORKFLOW.read_text()
    ids = TEST_ID.findall(text)
    assert len(ids) == text.count("tests/") > 0     # every path is read as an id
    assert [test_id for test_id in ids if not defines(test_id)] == []


def test_a_renamed_class_or_test_is_missing():
    assert defines("tests/test_engine.py::TestVariation")
    assert defines("tests/test_engine.py::TestRuns::test_no_configuration_is_dispatched_twice")
    assert not defines("tests/test_engine.py::TestVariations")
    assert not defines("tests/test_engine.py::TestRuns::test_no_such_test")
    assert not defines("tests/test_no_such_file.py")
