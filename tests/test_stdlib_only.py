"""The package runs on the standard library alone: numpy and every other
third-party package are for the tests only."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "interferobounds"


def _absolute_imports(path: Path) -> list[tuple[int, str]]:
    """(line, module) for every absolute import in `path`, at any depth."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module))
    return found


def _third_party_imports(path: Path) -> list[str]:
    """The modules `path` imports, at any depth, that are neither relative,
    nor interferobounds, nor in the standard library."""
    found = []
    for line, name in _absolute_imports(path):
        top = name.split(".")[0]
        if top != "interferobounds" and top not in sys.stdlib_module_names:
            found.append(f"{path.name}:{line}: {name}")
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_package_imports_only_the_standard_library(path):
    assert _third_party_imports(path) == []


def test_the_import_check_sees_imports_inside_functions(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text("import math\n\ndef f():\n    import numpy as np\n    from scipy import stats\n")
    assert _third_party_imports(module) == ["probe.py:4: numpy", "probe.py:5: scipy"]


def test_only_the_self_validating_classes_import_dataclasses():
    # ScenarioParams and GaussianState; the rest of the package is plain
    # functions, NamedTuples and dicts.
    users = sorted(
        path.stem for path in SRC.glob("*.py")
        if any(name == "dataclasses" for _, name in _absolute_imports(path))
    )
    assert users == ["dynamics", "scenario"]


def test_the_cli_loads_no_exact_arithmetic_and_no_numpy():
    # The units conversion is one float operation, so a CLI process needs
    # neither fractions (nor the decimal it loads) nor numpy.  An exact
    # predicate that wants more precision than a double can keep this with
    # Dekker's TwoSum/TwoProduct (dynamics._two_product), or by importing
    # Fraction only inside its rare exact fallback.
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    code = "import sys, interferobounds.cli; print(*sorted(sys.modules))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert {"fractions", "decimal", "numpy"} & set(proc.stdout.split()) == set()


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_package_parses_as_python_3_10(path):
    # pyproject's requires-python is ">=3.10".
    ast.parse(path.read_text(), str(path), feature_version=(3, 10))
