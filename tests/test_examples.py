"""Every example script still imports against the public API.

Each ``examples/*.py`` guards its ``main()`` behind
``__name__ == "__main__"``, so importing it only resolves its imports:
a removed or renamed public name fails here instead of in a user's
terminal.  Running the examples end to end is the CI examples-smoke
job's business.
"""

import importlib.util
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))


def test_examples_found():
    assert len(EXAMPLES) >= 8


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_imports(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
