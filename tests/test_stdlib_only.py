"""The package runs on the standard library alone: numpy and every other
third-party package are for the tests only."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "interferobounds"


def _third_party_imports(path: Path) -> list[str]:
    """The modules `path` imports, at any depth, that are neither relative,
    nor interferobounds, nor in the standard library."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            if top != "interferobounds" and top not in sys.stdlib_module_names:
                found.append(f"{path.name}:{node.lineno}: {name}")
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_package_imports_only_the_standard_library(path):
    assert _third_party_imports(path) == []


def test_the_import_check_sees_imports_inside_functions(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text("import math\n\ndef f():\n    import numpy as np\n    from scipy import stats\n")
    assert _third_party_imports(module) == ["probe.py:4: numpy", "probe.py:5: scipy"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_package_parses_as_python_3_10(path):
    # pyproject's requires-python is ">=3.10".
    ast.parse(path.read_text(), str(path), feature_version=(3, 10))
