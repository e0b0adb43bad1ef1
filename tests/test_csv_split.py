"""A large CSV series is computed and formatted in parts, one per CPU the
process may use: the bytes, the exit code and the error are those of one
part, and no child process outlives the call.

The CLI splits a series only in a process without a second thread, and
this one has numpy's; so tests/split_runner.py runs the invocations in a
fresh interpreter, with the CPU count patched to each of CPUS.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from interferobounds import cli

pytestmark = pytest.mark.skipif(
    not (hasattr(os, "fork") and os.path.isdir("/proc/self/task")),
    reason="a series is split only where os.fork exists and threads can be counted in /proc",
)

RUNNER = Path(__file__).resolve().parent / "split_runner.py"
BLOCK = cli._BLOCK
# Each side of one block and of two, and one row into a fourth block.
SIZES = (BLOCK - 1, BLOCK, 2 * BLOCK - 1, 2 * BLOCK, 2 * BLOCK + 1, 3 * BLOCK + 1)
CPUS = (1, 2, 3, 4)
MAX = repr(sys.float_info.max)

ETA = "sweep --sweep eta --from 0.001 --to 0.999 --m-a 1mp --d 1lp"
DISPLACEMENT = ("simulate --model displacement --m-a 1e9mp --m-b 1mp --d 1e6lp --r 1e8lp "
                "--t-max 1e5tp")
PHASE = "simulate --model phase --m-a 1mp --m-b 1mp --d 10lp --r 1000lp --t-max auto"
_SCENARIO = {"m_a": "1e9mp", "m_b": "2mp", "d": "1e4lp", "r": "1e8lp"}
_COULOMB = "--coupling coulomb --q-a 1e3 --q-b 2 --dx-min 3lp"


def _report_sweep(name, coupling, model, log):
    fixed = " ".join(f"--{f.replace('_', '-')} {v}" for f, v in _SCENARIO.items() if f != name)
    value, unit = float(_SCENARIO[name][:-2]), _SCENARIO[name][-2:]
    return (f"sweep --sweep {name} --from {value / 10!r}{unit} --to {value * 10!r}{unit} "
            f"--model {model} {fixed} {_COULOMB if coupling == 'coulomb' else ''}"
            f"{' --log' if log else ''}")


def _sized(argv, rows):
    """argv split into words, with rows rows."""
    words = argv.split()
    if words[0] == "sweep":
        return words + ["--points", str(rows)]
    return words + ["--steps", str(rows - 1)]


def _forks(rows, cpus):
    """The children a series of rows forks with cpus CPUs."""
    return 0 if rows < 2 * BLOCK else min(cpus, rows // BLOCK) - 1


def _run(cases):
    proc = subprocess.run([sys.executable, str(RUNNER)], input=json.dumps(cases),
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _series_cases():
    """(argv, rows): the eta sweep and both simulate series at every size; the
    m_a, m_b, d and r sweeps under both couplings and all three models, each at
    one size, in turn."""
    cases = [(_sized(argv, rows), rows) for argv in (ETA, DISPLACEMENT, PHASE) for rows in SIZES]
    k = 0
    for name in ("m_a", "m_b", "d", "r"):
        for coupling in ("gravity", "coulomb"):
            for model in ("displacement", "phase", "both"):
                rows = SIZES[k % len(SIZES)]
                cases.append((_sized(_report_sweep(name, coupling, model, k % 2), rows), rows))
                k += 1
    return cases


# Series whose first error is in the last quarter of their rows, so in the
# last part at every CPU count; the last one also holds infinite values from
# its first row, which one part reports after the error, as here.
LATE_ERRORS = {
    "eta-out-of-interval": (
        "sweep --sweep eta --from 0.1 --to 1 --m-a 1mp --d 1lp",
        "invalid-input", "eta must lie in the open interval (0, 1), got 1.0"),
    "eta-overflow": (
        "sweep --sweep eta --from 0.001 --to 0.999 --m-a 4.5035e307mp --d 1lp",
        "out-of-range", "result outside the floating-point range: a CSV value is infinite or NaN"),
    "r-cubed": (
        "sweep --sweep r --from 1e6lp --to 1e103lp --log --m-a 1e9mp --d 1e4lp "
        "--model displacement",
        "out-of-range", "result outside the floating-point range: Numerical result out of range"),
    "phase-overflow": (
        f"simulate --model phase --m-a 1mp --m-b 1mp --d 1.0001lp --r 1e6lp --t-max {MAX}tp",
        "out-of-range", "result outside the floating-point range: differential phase overflows"),
    "displacement-overflow": (
        f"{DISPLACEMENT.replace('1e5tp', '1.4e154tp')}",
        "out-of-range", "result outside the floating-point range: a CSV value is infinite or NaN"),
    "error-after-infinite-values": (
        "sweep --sweep eta --from 0.5 --to 1 --m-a 1e308mp --d 10lp",
        "invalid-input", "eta must lie in the open interval (0, 1), got 1.0"),
}
LATE_SIZES = (2 * BLOCK + 1, 3 * BLOCK + 1)


@pytest.fixture(scope="module")
def series_runs():
    cases = _series_cases()
    results = _run([{"argv": argv, "cpus": list(CPUS)} for argv, _ in cases])
    return list(zip(cases, results))


@pytest.fixture(scope="module")
def late_error_runs(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("split") / "series.csv")
    cases = [(name, rows) for name in LATE_ERRORS for rows in LATE_SIZES]
    results = _run([{"argv": _sized(LATE_ERRORS[name][0], rows), "cpus": list(CPUS), "out": out}
                    for name, rows in cases])
    return list(zip(cases, results))


def test_split_output_equals_one_part_output(series_runs):
    for (argv, rows), runs in series_runs:
        one = runs[0]
        assert one["code"] == 0 and one["out"] is None, (argv, one)
        for cpus, run in zip(CPUS, runs):
            assert (run["code"], run["stdout"]) == (0, one["stdout"]), (argv, cpus)
            assert run["forks"] == _forks(rows, cpus), (argv, cpus)


def test_every_size_and_cpu_count_is_covered(series_runs):
    forked = {(rows, cpus) for (_, rows), runs in series_runs
              for cpus, run in zip(CPUS, runs) if run["forks"]}
    assert forked == {(rows, cpus) for rows in SIZES for cpus in CPUS[1:] if rows >= 2 * BLOCK}


@pytest.mark.parametrize("name", sorted(LATE_ERRORS))
def test_late_error_lies_in_the_last_part(name, monkeypatch, capsys):
    # No row before the last quarter raises, so the error is the last part's;
    # and those rows are finite, but in the last case.
    argv, code, message = LATE_ERRORS[name]
    split = cli._split
    probed = []

    def probe(rows, part):
        probed.append(cli._finite(part, 0, 3 * rows // 4) is not None)
        return split(rows, part)

    monkeypatch.setattr(cli, "_split", probe)
    for rows in LATE_SIZES:
        assert cli.main(_sized(argv, rows)) == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["code"] == code and error["message"].startswith(message)
    assert probed == [name != "error-after-infinite-values"] * len(LATE_SIZES)


def test_an_error_in_a_later_part_is_the_one_part_error(late_error_runs):
    for (name, rows), runs in late_error_runs:
        _, code, message = LATE_ERRORS[name]
        one = runs[0]
        assert one["code"] == 2, (name, one)
        # Nothing on stdout but the error object, and no --out file.
        assert one["stdout"].endswith("}\n")
        error = json.loads(one["stdout"])
        assert list(error) == ["error"] and error["error"]["code"] == code
        assert error["error"]["message"].startswith(message)
        for cpus, run in zip(CPUS, runs):
            assert (run["code"], run["stdout"], run["out"]) == (2, one["stdout"], None), \
                (name, cpus)
            assert run["forks"] == _forks(rows, cpus), (name, cpus)


def test_no_child_outlives_main(series_runs, late_error_runs):
    # An error in the first part: the later children are stopped and reaped.
    argv = _sized("sweep --sweep eta --from 0 --to 0.5 --m-a 1mp --d 1lp", 3 * BLOCK + 1)
    (one, split), = _run([{"argv": argv, "cpus": [1, 4]}])
    assert one["stdout"] == split["stdout"] and "got 0.0" in one["stdout"]
    runs = [run for _, case in [*series_runs, *late_error_runs] for run in case] + [split]
    assert any(run["forks"] and run["code"] == 0 for run in runs)
    assert any(run["forks"] and run["code"] == 2 for run in runs)
    assert split["forks"] == 2
    assert not any(run["children_left"] for run in runs)


def test_a_second_thread_keeps_one_part():
    argv = _sized(ETA, 3 * BLOCK + 1)
    alone, beside = _run([{"argv": argv, "cpus": [1, 4]},
                          {"argv": argv, "cpus": [4], "thread": True}])
    assert alone[1]["forks"] == 2
    assert beside[0]["forks"] == 0
    assert beside[0]["stdout"] == alone[0]["stdout"] == alone[1]["stdout"]


def test_installed_entry_point_splits_to_the_same_bytes(tmp_path):
    argv = _sized(ETA, 3 * BLOCK + 1)
    (one,), = _run([{"argv": argv, "cpus": [1]}])
    proc = subprocess.run([sys.executable, "-m", "interferobounds", *argv], capture_output=True)
    assert proc.returncode == 0 and proc.stderr == b""
    assert hashlib.sha256(proc.stdout).hexdigest() == one["stdout"]
