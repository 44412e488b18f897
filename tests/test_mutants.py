"""The mutation gate's catalogue stays in step with the code: every
snippet occurs exactly once in its file and every named test exists.
Running the mutants themselves is `python3 tools/mutants.py`."""

import importlib.util
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_every_snippet_occurs_once_and_every_named_test_exists():
    mutants = _load_mutants()
    assert mutants.snippet_problems() == []
    for m in mutants.MUTANTS:
        assert m.tests, m.name
        for test_id in m.tests:
            path, name = test_id.split("::")
            assert re.search(rf"^def {name}\(", (ROOT / path).read_text(), re.M), test_id
