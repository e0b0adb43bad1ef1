"""The package runs on the standard library alone: numpy and every other
third-party package are for the tests only."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from freeze_baselines import DATA, GOLDEN_COMMANDS

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
    # GaussianState; ScenarioParams is a plain class with hand-written
    # dunders, and the rest of the package is plain functions, NamedTuples
    # and dicts.
    users = sorted(
        path.stem for path in SRC.glob("*.py")
        if any(name == "dataclasses" for _, name in _absolute_imports(path))
    )
    assert users == ["dynamics"]


def _fresh(code: str, *args: str, flags: tuple[str, ...] = ()) -> subprocess.CompletedProcess:
    """Run `code` in a fresh `python -S` process that imports the package
    from src/."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    return subprocess.run(
        [sys.executable, "-S", *flags, "-c", code, *args], env=env, capture_output=True, check=True
    )


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_only_simulate_loads_dataclasses_and_dynamics(name):
    # A bounds, causal or sweep process never needs either; simulate, whose
    # GaussianState is still a dataclass, loads both, which shows the probes
    # see them.  `python -X importtime` must name them too, since CI checks
    # the installed package through that trace.
    code = (
        "import sys\n"
        "from interferobounds.cli import main\n"
        "status = main(sys.argv[1:])\n"
        "print(*sorted(sys.modules), file=sys.stderr)\n"
        "sys.exit(status)\n"
    )
    argv = GOLDEN_COMMANDS[name]
    proc = _fresh(code, *argv, flags=("-X", "importtime"))
    assert proc.stdout == (DATA / "golden" / name).read_bytes()
    *trace, modules = proc.stderr.decode().splitlines()
    traced = {line.rsplit("|", 1)[1].strip() for line in trace if line.startswith("import time:")}
    probed = {"dataclasses", "interferobounds.dynamics"}
    expected = probed if argv[0] == "simulate" else set()
    assert probed & set(modules.split()) == expected
    assert probed & traced == expected


def test_dynamics_resolves_as_a_package_attribute():
    code = (
        "import sys, interferobounds\n"
        "print('interferobounds.dynamics' in sys.modules)\n"
        "print(interferobounds.dynamics.orthogonalization_time.__module__)\n"
        "print(hasattr(interferobounds, 'dynamic'))\n"
        "try:\n"
        "    interferobounds.dynamic\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    assert _fresh(code).stdout.decode().splitlines() == [
        "False",
        "interferobounds.dynamics",
        "False",
        "module 'interferobounds' has no attribute 'dynamic'",
    ]


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
