import contextlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys

import pytest

from interferobounds import __version__, bounds, cli
from interferobounds.cli import main
from interferobounds.errors import NonFiniteError
from interferobounds.scenario import CouplingKind, ScenarioParams, replace_swept
from interferobounds.units import to_planck

from freeze_baselines import (DATA, GOLDEN_COMMANDS, TEXT_COMMANDS, TEXT_ENV, USAGE_CASES,
                              surface_json, usage_matches, usage_outcome)
from scenario_copy import validated_copy

GOLDEN = DATA / "golden"


def run_cli(argv):
    return subprocess.run(
        [sys.executable, "-m", "interferobounds", *argv], capture_output=True
    )


def parse_csv(text):
    lines = [l for l in text.strip().split("\n") if not l.startswith("#")]
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, rows


# --- golden files -------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_golden_bytes(name):
    proc = run_cli(GOLDEN_COMMANDS[name])
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_golden_bytes_without_numpy(name):
    # A None entry in sys.modules makes any `import numpy` raise ImportError.
    code = (
        "import sys; sys.modules['numpy'] = None; "
        "from interferobounds.cli import main; raise SystemExit(main())"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, *GOLDEN_COMMANDS[name]], capture_output=True
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (GOLDEN / name).read_bytes()


# --- the CLI surface: help and version text, parser actions, usage errors -----


@pytest.mark.parametrize("name", sorted(TEXT_COMMANDS))
def test_version_and_help_bytes(name):
    if name.startswith("help") and sys.version_info[:2] != (3, 11):
        pytest.skip("argparse lays out --help differently across Python versions; "
                    "the help goldens are 3.11's, and CI's 3.11 leg compares them")
    env = {**os.environ, **TEXT_ENV}
    proc = subprocess.run([sys.executable, "-m", "interferobounds", *TEXT_COMMANDS[name]],
                          capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (DATA / "cli" / name).read_bytes()


def test_parser_actions_match_the_surface_pin():
    assert surface_json() == (DATA / "cli" / "surface.json").read_text()


@pytest.mark.parametrize("name", USAGE_CASES)
def test_usage_case_gives_its_pinned_outcome(name, capsys):
    outcome = usage_outcome(main(USAGE_CASES[name][0]), capsys.readouterr().out)
    assert usage_matches(name, outcome), outcome


def test_repeated_invocations_are_byte_identical():
    argv = GOLDEN_COMMANDS["bounds_gravity.json"]
    assert run_cli(argv).stdout == run_cli(argv).stdout


def test_out_flag_writes_same_bytes(tmp_path):
    argv = GOLDEN_COMMANDS["causal_mixed.json"]
    target = tmp_path / "causal.json"
    proc = run_cli(argv + ["--out", str(target)])
    assert proc.returncode == 0
    assert proc.stdout == b""
    assert target.read_bytes() == (GOLDEN / "causal_mixed.json").read_bytes()


def test_echoed_planck_input_reproduces_results():
    first = run_cli(["bounds", "--m-a", "1e6mp", "--d", "1e6lp", "--r", "1e8lp"])
    env = json.loads(first.stdout)
    rebuilt = [
        "bounds",
        "--m-a", f"{env['input']['m_a']['planck']!r}mp",
        "--d", f"{env['input']['d']['planck']!r}lp",
        "--r", f"{env['input']['r']['planck']!r}lp",
    ]
    second = run_cli(rebuilt)
    env2 = json.loads(second.stdout)
    assert env2["results"] == env["results"]
    assert env2["provenance"] == env["provenance"]
    assert env2["input"] == env["input"]


def test_si_and_planck_inputs_agree():
    planck = json.loads(run_cli(
        ["bounds", "--m-a", "1e6mp", "--d", "1e6lp", "--r", "1e8lp"]
    ).stdout)
    si_m_a = planck["input"]["m_a"]["si"]
    si = json.loads(run_cli(
        ["bounds", "--m-a", f"{si_m_a!r}kg", "--d", "1e6lp", "--r", "1e8lp"]
    ).stdout)
    assert si["results"]["ta_min_round_trip"] == pytest.approx(
        planck["results"]["ta_min_round_trip"], rel=1e-12
    )


def test_planck_mass_pair_phase_infeasible():
    env = json.loads(run_cli([
        "bounds", "--m-a", "1mp", "--m-b", "1mp", "--d", "10lp",
        "--r", "1000lp", "--model", "phase",
    ]).stdout)
    assert env["results"]["phase_backreaction_free"] is False


def test_every_result_field_carries_provenance():
    for argv in (GOLDEN_COMMANDS["bounds_gravity.json"], GOLDEN_COMMANDS["causal_mixed.json"]):
        env = json.loads(run_cli(argv).stdout)
        for key in env["results"]:
            assert key in env["provenance"] or any(
                tag.startswith(f"{key}.") for tag in env["provenance"]
            ), key


def test_units_flag_controls_bare_numbers():
    bare = json.loads(run_cli(
        ["bounds", "--m-a", "1e6", "--d", "1e6", "--r", "1e8", "--units", "planck"]
    ).stdout)
    suffixed = json.loads(run_cli(
        ["bounds", "--m-a", "1e6mp", "--d", "1e6lp", "--r", "1e8lp"]
    ).stdout)
    assert bare["results"] == suffixed["results"]


# --- invalid inputs -----------------------------------------------------------


def test_negative_mass_rejected():
    proc = run_cli(["bounds", "--m-a", "-1mp", "--d", "1lp", "--r", "1lp"])
    assert proc.returncode == 2
    err = json.loads(proc.stdout)
    assert err["error"]["code"] == "invalid-input"
    assert "nonpositive mass" in err["error"]["message"]


def test_wrong_dimension_suffix_rejected():
    proc = run_cli(["bounds", "--m-a", "1lp", "--d", "1lp", "--r", "1lp"])
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"]["code"] == "invalid-input"


def test_unparseable_quantity_rejected():
    proc = run_cli(["bounds", "--m-a", "1e6 mp", "--d", "1lp", "--r", "1lp"])
    assert proc.returncode == 2


def test_unwritable_out_is_invalid_input(tmp_path):
    argv = GOLDEN_COMMANDS["causal_mixed.json"]
    for target in (tmp_path / "missing" / "x.json", tmp_path):
        proc = run_cli(argv + ["--out", str(target)])
        assert proc.returncode == 2
        assert b"Traceback" not in proc.stderr
        err = json.loads(proc.stdout)["error"]
        assert err["code"] == "invalid-input"
        assert str(target) in err["message"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv, message",
    [
        (GOLDEN_COMMANDS["bounds_gravity.json"], "cannot write stdout: No space left on device"),
        (GOLDEN_COMMANDS["sweep_r_log.csv"], "cannot write stdout: No space left on device"),
        (["bounds", "--m-a", "-1mp", "--d", "1e6lp", "--r", "1e8lp"],
         "nonpositive mass --m-a '-1mp'"),
        (["--help"], "cannot write stdout: No space left on device"),
        (["sweep", "--help"], "cannot write stdout: No space left on device"),
        (["--version"], "cannot write stdout: No space left on device"),
        (["causal", "--t-a", "1tp", "--t-b", "1tp", "--r", "1lp"],
         "cannot write stdout: stdout is closed"),
    ],
    ids=["json", "csv", "error", "help", "sweep-help", "version", "closed"],
)
def test_a_full_stdout_is_invalid_input_on_stderr(argv, message):
    # The closed case starts the child with fd 1 closed: its sys.stdout is None.
    closed = message.endswith("stdout is closed")
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "interferobounds", *argv], stdout=full, stderr=subprocess.PIPE,
            preexec_fn=(lambda: os.close(1)) if closed else None,
        )
    assert proc.returncode == 2
    assert b"Traceback" not in proc.stderr
    assert b"Exception ignored" not in proc.stderr
    assert json.loads(proc.stderr) == {"error": {"code": "invalid-input", "message": message}}


def _status(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # --help and --version
        return exc.code


@pytest.mark.parametrize(
    "argv",
    [
        GOLDEN_COMMANDS["causal_mixed.json"],
        GOLDEN_COMMANDS["sweep_r_log.csv"],
        ["causal", "--t-a", "1tp", "--t-b", "1tp", "--r", "1lp"],
        ["bounds", "--m-a", "-1mp", "--d", "1e6lp", "--r", "1e8lp"],
        ["bounds", "--m-a", "1e300mp", "--d", "1e300lp", "--r", "1e302lp", "--model", "phase"],
        ["bounds"],
        ["--version"],
    ],
    ids=["json", "csv", "causal", "error", "out-of-range", "usage", "version"],
)
def test_a_text_only_stdout_takes_the_same_text(argv, capsysbinary):
    # io.StringIO has no binary buffer: it gets as text the bytes a real
    # stdout gets, with the same exit status.
    status = _status(argv)
    expected = capsysbinary.readouterr().out
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        assert _status(argv) == status
    assert text.getvalue().encode() == expected
    if argv == GOLDEN_COMMANDS["causal_mixed.json"]:
        assert expected == (GOLDEN / "causal_mixed.json").read_bytes()


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["bounds", "--m-a", "1e6mp", "--r", "1e8lp"], "--d"),
        (["sweep", "--sweep", "eta", "--from", "0.1", "--to", "0.9",
          "--points", "1e5", "--m-a", "1mp", "--d", "1lp"], "--points"),
        (["bounds", "--m-a", "1mp", "--d", "1lp", "--r", "1e3lp",
          "--model", "nope"], "--model"),
        (["causal", "--t-a", "1tp", "--t-b", "1tp", "--r", "1lp", "--bogus"], "--bogus"),
        ([], "command"),
        (["bounds", "--m-a", "1e6mp", "--d", "1e6lp", "--r", "1e8lp", "--slack", "nan"],
         "slack"),
        # The phase model never reads slack, but the JSON echo would hold it.
        (["bounds", "--m-a", "1e6mp", "--d", "1e6lp", "--r", "1e8lp", "--model", "phase",
          "--slack", "inf"], "slack"),
        # Negative SI values whose Planck value overflows: the error names
        # the sign, not the size.
        (["bounds", "--m-a", "1mp", "--d", "1lp", "--r", "-1e300m"], "nonpositive length"),
        (["simulate", "--m-a", "1.4684145617443765e+48mp", "--m-b", "7.12580595340144e+252kg",
          "--d", "3.8161681044464944e+121m", "--r", "-1.0820264477987957e+289m",
          "--model", "displacement", "--t-max", "2.315552542351297e+48s", "--steps", "1",
          "--sigma0", "1.0730909198330734e+226m"], "nonpositive length"),
        # Flags the chosen model does not read are checked all the same.
        (["simulate", "--model", "phase", "--m-a", "1mp", "--d", "1lp", "--r", "1e3lp",
          "--t-max", "1tp", "--steps", "2", "--sigma0", "-1lp"], "nonpositive length --sigma0"),
        (["simulate", "--model", "phase", "--m-a", "1mp", "--d", "1lp", "--r", "1e3lp",
          "--t-max", "1tp", "--steps", "2", "--sigma0", "0lp"], "nonpositive length sigma0"),
        (["simulate", "--model", "displacement", "--m-a", "1e9mp", "--d", "1e6lp",
          "--r", "1e8lp", "--t-max", "1tp", "--steps", "1", "--eps", "5"], "eps must lie in (0, 1)"),
        (["simulate", "--model", "phase", "--m-a", "1mp", "--d", "1lp", "--r", "1e3lp",
          "--t-max", "1tp", "--steps", "2", "--eps", "nan"], "eps must lie in (0, 1)"),
        # A negative value is refused as its flag is read, naming the flag.
        (["simulate", "--model", "phase", "--m-a", "1mp", "--d", "1lp", "--r", "1e3lp",
          "--t-max", "-1tp", "--steps", "2"], "nonpositive time --t-max '-1tp'"),
        (["sweep", "--sweep", "r", "--m-a", "1e9mp", "--d", "1e4lp", "--from", "-1lp",
          "--to", "1e8lp", "--points", "3"], "nonpositive length --from '-1lp'"),
        # A sweep reads the flag it varies too, and --r under an eta sweep.
        (["sweep", "--sweep", "r", "--r", "xyz", "--m-a", "1e9mp", "--d", "1e4lp",
          "--from", "1e6lp", "--to", "1e8lp", "--points", "2"], "cannot parse quantity 'xyz'"),
        (["sweep", "--sweep", "eta", "--r", "-5lp", "--m-a", "1mp", "--d", "1lp",
          "--from", "0.1", "--to", "0.9", "--points", "2"], "nonpositive length --r '-5lp'"),
        # causal has no --d; its error names the flag it was given.
        (["causal", "--t-a", "1tp", "--t-b", "1tp", "--r", "0lp"], "length r"),
        # A token beyond the double range reads as inf; SI and Planck
        # values each name the check that refuses it.
        (["bounds", "--m-a", "1e999kg", "--d", "1lp", "--r", "1e3lp"],
         "quantity value must be finite, got inf"),
        (["bounds", "--m-a", "1e999mp", "--d", "1lp", "--r", "1e3lp"],
         "planck value must be finite, got inf"),
        (["bounds", "--units", "si", "--m-a", "1e999", "--d", "1", "--r", "1e3"],
         "quantity value must be finite, got inf"),
        (["sweep", "--sweep", "r", "--m-a", "1e9mp", "--d", "1e4lp", "--from", "1e999m",
          "--to", "1e8lp", "--points", "2"], "quantity value must be finite, got inf"),
        # The checks each subcommand makes before it computes.
        (["sweep", "--sweep", "eta", "--from", "abc", "--to", "0.9", "--points", "2",
          "--m-a", "1mp", "--d", "1lp"], "eta from must be a plain number, got 'abc'"),
        (["sweep", "--sweep", "r", "--d", "1e4lp", "--from", "1e6lp", "--to", "1e8lp",
          "--points", "2"], "missing required parameter --m-a"),
        (["simulate", "--model", "phase", "--m-a", "1mp", "--d", "1lp", "--r", "1e3lp",
          "--t-max", "1tp", "--steps", "0"], "steps must be >= 1, got 0"),
    ],
)
def test_usage_errors_emit_json_error(argv, fragment):
    proc = run_cli(argv)
    assert proc.returncode == 2
    assert b"Traceback" not in proc.stderr
    err = json.loads(proc.stdout)["error"]
    assert err["code"] == "invalid-input"
    assert fragment in err["message"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bounds", "--m-a", "1e6mp", "--d", "1e6lp", "--r", "1e8lp", "--slack", "-1"],
         "slack must be finite and positive, got -1.0"),
        (["sweep", "--sweep", "eta", "--from", "0.1", "--to", "0.9", "--points", "2",
          "--m-a", "1mp", "--d", "1lp", "--model", "phase", "--slack", "0"],
         "slack must be finite and positive, got 0.0"),
        (["simulate", "--model", "phase", "--m-a", "1mp", "--d", "1lp", "--r", "1e3lp",
          "--t-max", "1tp", "--steps", "2", "--eps", "5"], "eps must lie in (0, 1), got 5.0"),
        # A negative value in exponent form is read by its flag's check too.
        (["bounds", "--m-a", "1e6mp", "--d", "1e6lp", "--r", "1e8lp", "--slack", "-1e-3"],
         "slack must be finite and positive, got -0.001"),
        (["simulate", "--model", "phase", "--m-a", "1mp", "--d", "1lp", "--r", "1e3lp",
          "--t-max", "1tp", "--steps", "2", "--eps", "-1e-3"], "eps must lie in (0, 1), got -0.001"),
        (["bounds", "--m-a", "1e6mp", "--d", "1e6lp", "--r", "1e8lp", "--r-over-d-min", "-1e2"],
         "nonpositive ratio r_over_d_min = -100.0"),
    ],
)
def test_slack_and_eps_faults_give_the_library_message(argv, message, capsys):
    # Checked by the command that reads them, not by argparse: no usage
    # line and no "argument --slack:" prefix.
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert json.loads(captured.out)["error"] == {"code": "invalid-input", "message": message}
    assert captured.err == ""


def test_usage_errors_in_process_return_two(capsys, monkeypatch):
    assert main(["simulate", "--model", "displacement"]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["code"] == "invalid-input"
    # With stderr closed (sys.stderr is None) the usage line is dropped, and
    # stdout still holds the error object alone.
    monkeypatch.setattr(sys, "stderr", None)
    assert main(["simulate", "--model", "displacement"]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["code"] == "invalid-input"


def test_help_and_version_exit_zero_with_text():
    version = run_cli(["--version"])
    assert version.returncode == 0
    assert version.stdout == f"interferobounds {__version__}\n".encode()
    for argv in (["--help"], ["sweep", "--help"]):
        proc = run_cli(argv)
        assert proc.returncode == 0
        assert proc.stdout.startswith(b"usage: interferobounds")


def test_coulomb_displacement_needs_dx_min():
    proc = run_cli([
        "bounds", "--coupling", "coulomb", "--q-a", "1e3", "--q-b", "1e3",
        "--m-a", "1mp", "--d", "10lp", "--r", "2000lp",
    ])
    assert proc.returncode == 2
    assert "delta_x_min" in json.loads(proc.stdout)["error"]["message"]
    ok = run_cli([
        "bounds", "--coupling", "coulomb", "--q-a", "1e3", "--q-b", "1e3",
        "--m-a", "1mp", "--d", "10lp", "--r", "2000lp", "--dx-min", "1lp",
    ])
    assert ok.returncode == 0


def test_geometry_gate_and_override():
    proc = run_cli(["simulate", "--model", "phase", "--m-a", "1mp", "--d", "1lp",
                    "--r", "10lp", "--t-max", "1tp", "--steps", "2"])
    assert proc.returncode == 2
    ok = run_cli(["simulate", "--model", "phase", "--m-a", "1mp", "--d", "1lp",
                  "--r", "10lp", "--t-max", "1tp", "--steps", "2",
                  "--override-geometry"])
    assert ok.returncode == 0


def test_bad_sweep_spec_rejected():
    eta = ["sweep", "--sweep", "eta", "--m-a", "1mp", "--d", "1lp"]
    r = ["sweep", "--sweep", "r", "--m-a", "1e9mp", "--d", "1e4lp"]
    for argv, fragment in (
        (eta + ["--from", "0.5", "--to", "0.1", "--points", "5"], "from < to"),
        (eta + ["--from", "0.1", "--to", "0.5", "--points", "1"], "points"),
        (eta + ["--from", "-0.5", "--to", "0.5", "--points", "5", "--log"], "log scale"),
        (r + ["--from", "1e8lp", "--to", "1e6lp", "--points", "3"], "from < to"),
        (r + ["--from", "1e6lp", "--to", "1e8lp", "--points", "1"], "points"),
        (r + ["--from", "0lp", "--to", "1e8lp", "--points", "3", "--log"], "log scale"),
    ):
        proc = run_cli(argv)
        assert proc.returncode == 2, argv
        err = json.loads(proc.stdout)["error"]
        assert err["code"] == "invalid-input"
        assert fragment in err["message"], argv


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


# Finite inputs whose results leave the floating-point range, each with the
# cause its error message must name (None: no particular one).
_OUT_OF_RANGE = [
    # r**3 overflows.
    (["bounds", "--m-a", "1e-300mp", "--d", "1e200lp", "--r", "1e300lp",
      "--model", "displacement"], None),
    # K = m_a*m_b underflows to zero and divides.
    (["bounds", "--m-a", "1e-200mp", "--m-b", "1e-200mp", "--d", "1e3lp", "--r", "1e6lp"],
     "a divisor underflowed to zero"),
    (["simulate", "--model", "displacement", "--m-a", "1e9mp", "--d", "1e6lp",
      "--r", "1e8lp", "--t-max", "1e300tp", "--steps", "2"], None),
    # Results overflow to inf and nan, which strict JSON cannot hold.
    (["bounds", "--m-a", "1e300mp", "--m-b", "1e300mp", "--d", "1e3lp", "--r", "1e6lp"], None),
    (["causal", "--t-a", "1e308tp", "--t-b", "1e308tp", "--r", "1lp"], None),
    # CSV rows of inf and nan.
    (["sweep", "--sweep", "r", "--from", "1e6lp", "--to", "1e8lp", "--points", "2",
      "--m-a", "1e300mp", "--m-b", "1e300mp", "--d", "1e3lp"], None),
    (["sweep", "--sweep", "eta", "--from", "0.1", "--to", "0.9", "--points", "2",
      "--m-a", "1e300mp", "--d", "1e300lp"], None),
    # An infinite differential phase, whose cosine math.cos rejects.
    (["simulate", "--model", "phase", "--m-a", "1e300mp", "--m-b", "1e300mp",
      "--d", "1e3lp", "--r", "1e6lp", "--t-max", "1tp", "--steps", "2"], None),
    # Overflow inside the Gaussian oracle: the branch states' phase, the
    # force, and tb_phase as the series end time.
    (["simulate", "--model", "displacement", "--m-a", "1e300mp", "--d", "1e3lp",
      "--r", "1e6lp", "--t-max", "auto", "--steps", "2"], None),
    (["simulate", "--model", "displacement", "--m-a", "1e300mp", "--m-b", "1e300mp",
      "--d", "1e3lp", "--r", "1e6lp", "--t-max", "1tp", "--steps", "2"], None),
    (["simulate", "--model", "phase", "--m-a", "1e-200mp", "--d", "1e3lp",
      "--r", "1e300lp", "--t-max", "auto", "--steps", "2"], None),
    # The coulomb source strength K/m_B underflows to zero.
    (["bounds", "--coupling", "coulomb", "--q-a", "1e-150", "--q-b", "1e-150",
      "--m-b", "1e100mp", "--m-a", "1mp", "--d", "1e3lp", "--r", "1e6lp",
      "--dx-min", "1lp", "--model", "displacement"], "K/m_B underflows to zero"),
    (["sweep", "--sweep", "eta", "--from", "0.1", "--to", "0.5", "--points", "2",
      "--coupling", "coulomb", "--q-a", "1e-150", "--q-b", "1e-150", "--m-b", "1e100mp",
      "--m-a", "1mp", "--d", "1e3lp", "--dx-min", "1lp", "--model", "displacement"],
     "K/m_B underflows to zero"),
    # 2*m_B*sigma0^2 overflows in the trap ground state.
    (["simulate", "--model", "displacement", "--m-a", "1e6mp", "--m-b", "1e200mp",
      "--d", "1e3lp", "--r", "1e6lp", "--sigma0", "1e60lp", "--t-max", "1tp", "--steps", "2"],
     "2*m*sigma_x^2 overflows"),
    # 2*m_B*sigma0^2 is subnormal, so the trap frequency overflows to +inf.
    # The oracle lets +inf through its positivity checks, as bounds does:
    # the ground state it gives is out of range, not an invalid input.
    (["simulate", "--m-a", "1.3894127935947606e+185mp", "--m-b", "8.049373009779168e-58mp",
      "--d", "8.340939717854801e+149lp", "--r", "9.198375045707938e+108lp",
      "--override-geometry", "--model", "displacement", "--t-max", "9.228942170527732e-24tp",
      "--steps", "4", "--sigma0", "1.5303858532943347e-127lp"],
     "result outside the floating-point range: state fields must be finite"),
    # An SI time beyond the double range in Planck units.
    (["simulate", "--model", "phase", "--m-a", "1mp", "--d", "1lp", "--r", "1e3lp",
      "--t-max", "1e300s", "--steps", "2"], "1e+300 s is not representable in Planck units"),
    # K = m_a*m_b underflows to zero, which would zero the phase at every t > 0.
    (["simulate", "--model", "phase", "--m-a", "1e-300mp", "--m-b", "1e-300mp",
      "--d", "1e3lp", "--r", "1e6lp", "--t-max", "1e308tp", "--steps", "1",
      "--override-geometry"], "an intermediate step of phase_difference underflowed to zero"),
    # K*d/pi underflows to zero, below the least subnormal, though K*d does not.
    (["bounds", "--m-a", "1e-150mp", "--m-b", "1e-150mp", "--d", "5e-24lp", "--r", "1e-20lp",
      "--model", "phase"], "an intermediate step of r_max_phase underflowed to zero"),
    # m_a*m_b underflows: tb_phase divides by zero before r_max_phase is reached.
    (["bounds", "--m-a", "1e-200mp", "--m-b", "1e-200mp", "--d", "1e300lp", "--r", "1e303lp",
      "--model", "phase"], "a divisor underflowed to zero"),
]
_OUT_OF_RANGE_CAUSE = {tuple(argv): cause for argv, cause in _OUT_OF_RANGE}


@pytest.mark.parametrize("argv", [argv for argv, _ in _OUT_OF_RANGE])
def test_out_of_range_results_emit_json_error(argv):
    proc = run_cli(argv)
    assert proc.returncode == 2
    assert b"Traceback" not in proc.stderr
    err = json.loads(proc.stdout, parse_constant=_reject_constant)["error"]
    assert err["code"] == "out-of-range"
    for raw in ("(34,", "Dimension(", "float division by zero"):
        assert raw not in err["message"]
    assert (_OUT_OF_RANGE_CAUSE[tuple(argv)] or "") in err["message"]


def test_gravity_eta_sweep_survives_an_overflowed_pair_coupling(capsys):
    # m_a*m_b overflows, but gravity's K/m_B is m_a itself.
    argv = ["sweep", "--sweep", "eta", "--m-a", "1e200mp", "--m-b", "1e200mp", "--d", "1lp",
            "--from", "0.1", "--to", "0.9", "--points", "3"]
    assert main(argv) == 0
    _, rows = parse_csv(capsys.readouterr().out)
    assert rows == [[row[0], *bounds.eta_row(row[0], 1e200, 1.0)] for row in rows]
    assert [row[0] for row in rows] == [0.1, 0.5, 0.9]
    values = [v for row in rows for v in row[1:]]
    assert min(values) == pytest.approx(4e197) and max(values) == pytest.approx(3.24e200)


def test_non_finite_csv_writes_no_out_file(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--sweep", "eta", "--from", "0.1", "--to", "0.9", "--points", "2",
               "--m-a", "1e300mp", "--d", "1e300lp", "--out", str(out)])
    assert rc == 2
    assert json.loads(capsys.readouterr().out)["error"]["code"] == "out-of-range"
    assert not out.exists()


# Each quantity kind: its Planck suffix (a charge has none) and SI suffix.
_SUFFIX = {"mass": ("mp", "kg"), "length": ("lp", "m"), "time": ("tp", "s"),
           "charge": ("", "C")}


def _planck_token(rng, kind, value):
    return f"{value!r}{_SUFFIX[kind][0]}"


def _contract_argv(rng, token=_planck_token):
    """One seeded invocation of any subcommand with log-uniform inputs
    from 1e-300 to 1e300, each quantity written by token(rng, kind, value);
    by default a positive value in Planck units."""

    def log_uniform(kind):
        return token(rng, kind, 10.0 ** rng.uniform(-300.0, 300.0))

    command = rng.choice(("bounds", "sweep", "simulate", "causal"))
    if command == "causal":
        argv = ["causal", "--t-a", log_uniform("time"), "--t-b", log_uniform("time"),
                "--r", log_uniform("length")]
        return argv + ["--non-strict"] * rng.randint(0, 1)
    kinds = {"m_a": "mass", "m_b": "mass", "d": "length", "r": "length"}
    swept = rng.choice((*kinds, "eta")) if command == "sweep" else None
    argv = [command]
    for name, kind in kinds.items():
        if name != swept and not (swept == "eta" and name == "r"):
            argv += [f"--{name.replace('_', '-')}", log_uniform(kind)]
    if rng.random() < 0.5:
        argv += ["--coupling", "coulomb", "--q-a", log_uniform("charge"),
                 "--q-b", log_uniform("charge")]
    if rng.random() < 0.5:
        argv += ["--dx-min", log_uniform("length")]
    argv += ["--override-geometry"] * rng.randint(0, 1)
    if command == "simulate":
        t_max = "auto" if rng.random() < 0.5 else log_uniform("time")
        return argv + ["--model", rng.choice(("displacement", "phase")), "--t-max", t_max,
                       "--steps", str(rng.randint(1, 4)), "--sigma0", log_uniform("length")]
    argv += ["--model", rng.choice(("displacement", "phase", "both"))]
    if command == "bounds":
        return argv
    if swept == "eta":
        lo, hi = sorted(rng.uniform(0.0, 1.0) for _ in range(2))
        grid = [repr(lo), repr(hi)]
    else:
        lo = 10.0 ** rng.uniform(-300.0, 290.0)
        grid = [token(rng, kinds[swept], v) for v in (lo, lo * 10.0 ** rng.uniform(0.0, 10.0))]
    return argv + ["--sweep", swept, "--from", grid[0], "--to", grid[1],
                   "--points", str(rng.randint(2, 4))] + ["--log"] * rng.randint(0, 1)


_EXIT_FOR_CODE = {"invalid-input": 2, "out-of-range": 2, "no-convergence": 3}


def _run_contract(argv, capsys):
    """Run main in-process and check the CLI contract; returns the error
    code, or None on success."""
    try:
        rc = main(argv)
    except BaseException as exc:  # nothing, SystemExit included, may escape main
        pytest.fail(f"{argv} raised {exc!r}")
    out = capsys.readouterr().out
    if rc == 0 and argv[0] in ("bounds", "causal"):
        assert "results" in json.loads(out, parse_constant=_reject_constant), argv
    elif rc == 0:
        rows = [l for l in out.splitlines() if not l.startswith("#")][1:]
        assert rows and all(math.isfinite(float(v)) for l in rows for v in l.split(",")), argv
    else:
        err = json.loads(out)["error"]
        assert _EXIT_FOR_CODE[err["code"]] == rc, (argv, err)
        return err["code"]
    return None


def test_cli_contract_holds_for_extreme_inputs(capsys):
    rng = random.Random(2405)
    for _ in range(1000):
        _run_contract(_contract_argv(rng), capsys)


_RATIOS = ["100", "1e-300", "0", "-1", "-1.7976931348623157e308", "1.7976931348623157e308",
           "nan", "inf", "x"]


def _flag_layer_argv(rng):
    """One _contract_argv draw changed where that generator never goes: an
    --r-over-d-min value, a dropped flag (perhaps a required one), an
    abbreviated or ambiguous flag, a repeated flag, or --units si with the
    Planck suffixes taken off."""
    argv = _contract_argv(rng)
    pairs = [i for i, tok in enumerate(argv[:-1])
             if tok.startswith("--") and not argv[i + 1].startswith("--")]
    change = rng.choice(("ratio", "drop", "abbreviate", "repeat", "si"))
    if change == "ratio":
        argv += ["--r-over-d-min", rng.choice(_RATIOS)]
    elif change == "drop":
        i = rng.choice(pairs)
        del argv[i:i + 2]
    elif change == "abbreviate":
        i = rng.choice([i for i, tok in enumerate(argv) if tok.startswith("--")])
        argv[i] = argv[i][:rng.randint(3, len(argv[i]))]
    elif change == "repeat":
        i = rng.choice(pairs)
        argv += argv[i:i + 2]
    else:
        argv = [re.sub(r"^([\d.]+(?:e[+-]?\d+)?)[mlt]p$", r"\1", tok) for tok in argv]
        argv += ["--units", "si"]
    return argv


def test_cli_contract_holds_at_the_flag_layer(capsys):
    rng = random.Random(2407)
    for _ in range(1000):
        _run_contract(_flag_layer_argv(rng), capsys)


_EPS_INSIDE = ["0.01", "0.5", "1e-300", "0.9999999999999999"]
_EPS_OUTSIDE = ["0", "1", "5", "-0.5", "nan", "inf"]


def test_cli_contract_holds_for_si_negative_and_eps_inputs(capsys):
    # About half the quantities carry an SI suffix and one value in ten is
    # negated.  A negative value is refused as its flag is read, so a draw
    # whose only fault is a negative quantity must give invalid-input;
    # an SI value with no finite Planck value can fault first.
    rng = random.Random(2406)
    for _ in range(1000):
        faults = set()

        def token(rng, kind, value):
            if rng.random() < 0.1:
                value = -value
                faults.add("negative")
            planck, si = _SUFFIX[kind]
            if rng.random() < 0.5:
                return f"{value!r}{planck}"
            try:
                to_planck(abs(value), kind)
            except NonFiniteError:
                faults.add("overflow")
            return f"{value!r}{si}"

        argv = _contract_argv(rng, token)
        if argv[0] == "simulate":
            argv += ["--eps", rng.choice(rng.choice((_EPS_INSIDE, _EPS_OUTSIDE)))]
        code = _run_contract(argv, capsys)
        if faults == {"negative"}:
            assert code == "invalid-input", argv


def test_simulate_non_convergence_exits_3():
    proc = run_cli([
        "simulate", "--model", "displacement", "--m-a", "1mp", "--d", "1lp",
        "--r", "1e12lp", "--t-max", "auto", "--steps", "2",
        "--override-geometry",
    ])
    assert proc.returncode == 3
    assert json.loads(proc.stdout)["error"]["code"] == "no-convergence"


# --- sweep semantics ----------------------------------------------------------


def test_eta_sweep_maximum_near_two_thirds():
    proc = run_cli([
        "sweep", "--sweep", "eta", "--from", "0.001", "--to", "0.999",
        "--points", "999", "--m-a", "1mp", "--d", "1lp",
    ])
    header, rows = parse_csv(proc.stdout.decode())
    eta_i = header.index("eta")
    ta_i = header.index("ta_lower_bound")
    best = max(rows, key=lambda row: row[ta_i])
    assert best[eta_i] == pytest.approx(2.0 / 3.0, abs=1.5e-3)
    assert best[ta_i] == pytest.approx(16.0 / 27.0, abs=1e-5)


def test_r_sweep_scaling_exponents():
    proc = run_cli([
        "sweep", "--sweep", "r", "--from", "1e6lp", "--to", "1e8lp",
        "--points", "3", "--log", "--m-a", "1e9mp", "--d", "1e4lp",
    ])
    header, rows = parse_csv(proc.stdout.decode())
    r_i = header.index("r")
    assert rows[1][r_i] / rows[0][r_i] == pytest.approx(10.0, rel=1e-12)

    def exponent(col):
        i = header.index(col)
        import math

        return math.log10(rows[2][i] / rows[0][i]) / math.log10(
            rows[2][r_i] / rows[0][r_i]
        )

    assert exponent("tb_displacement") == pytest.approx(1.5, abs=1e-9)
    assert exponent("tb_phase_approx") == pytest.approx(2.0, abs=1e-9)
    assert exponent("ta_min_round_trip") == pytest.approx(0.0, abs=1e-9)
    assert exponent("r_max_displacement") == pytest.approx(0.0, abs=1e-9)


def test_two_point_sweep_matches_bounds_runs():
    proc = run_cli([
        "sweep", "--sweep", "m_a", "--from", "1e6mp", "--to", "1e8mp",
        "--points", "2", "--d", "1e4lp", "--r", "1e7lp",
    ])
    header, rows = parse_csv(proc.stdout.decode())
    for row in rows:
        m_a = row[header.index("m_a")]
        env = json.loads(run_cli(
            ["bounds", "--m-a", f"{m_a!r}mp", "--d", "1e4lp", "--r", "1e7lp"]
        ).stdout)
        for col in ("tb_displacement", "ta_min_round_trip", "r_max_phase"):
            assert row[header.index(col)] == env["results"][col]


_DBL_MAX = sys.float_info.max
_TINY = sys.float_info.min


@pytest.mark.parametrize(
    "lo, hi, points, log",
    [
        (0.0, 1.0, 5, False),
        (0.0, 0.1, 4, False),
        (0.001, 0.999, 8, False),
        (1e300, 1e308, 5, False),
        (1e308, _DBL_MAX, 2, False),
        (0.0, _DBL_MAX, 4, False),
        (0.0, _DBL_MAX, 9, False),
        (_TINY, 3.0 * _TINY, 5, False),
        (_TINY, 2.0 * _TINY, 4, False),
        (1e6, 1e10, 3, True),
        (0.3, 7.0, 6, True),
        (1e300, _DBL_MAX, 3, True),
        (1e300, _DBL_MAX, 5, True),
        (_TINY, 1.0, 4, True),
        (_TINY, 1e-300, 9, True),
    ],
)
def test_grid_ends_exactly_and_stays_finite(lo, hi, points, log):
    values = list(cli._grid(lo, hi, points, log))
    assert len(values) == points
    assert values[0] == lo and values[-1] == hi
    assert all(map(math.isfinite, values))
    assert all(a <= b for a, b in zip(values, values[1:]))


# Each grid runs from exactly its first to exactly its last value: no
# point between finite nonnegative ends overflows.
@pytest.mark.parametrize(
    "argv, first, last, rows",
    [
        (["sweep", "--sweep", "m_b", "--from", "1e300mp", "--to", "1e308mp", "--points", "5",
          "--m-a", "1e-300mp", "--d", "1lp", "--r", "1e3lp", "--model", "phase"],
         1e300, 1e308, 5),
        (["sweep", "--sweep", "m_b", "--from", "1e300mp", "--to", f"{_DBL_MAX!r}mp",
          "--points", "3", "--log", "--m-a", "1e-300mp", "--d", "1lp", "--r", "1e3lp",
          "--model", "phase"], 1e300, _DBL_MAX, 3),
        (["simulate", "--model", "phase", "--m-a", "1e-150mp", "--m-b", "1e-150mp",
          "--d", "1e3lp", "--r", "1e6lp", "--t-max", "1e308tp", "--steps", "3",
          "--override-geometry"], 0.0, 1e308, 4),
        (["simulate", "--model", "phase", "--m-a", "1mp", "--d", "1lp", "--r", "1e3lp",
          "--t-max", "0.1tp", "--steps", "3"], 0.0, 0.1, 4),
    ],
)
def test_cli_grids_end_exactly(argv, first, last, rows, capsys):
    assert main(argv) == 0
    _, data = parse_csv(capsys.readouterr().out)
    assert (data[0][0], data[-1][0], len(data)) == (first, last, rows)


def test_valid_swept_flag_is_unused(capsys):
    r_sweep = ["sweep", "--sweep", "r", "--m-a", "1e9mp", "--d", "1e4lp",
               "--from", "1e6lp", "--to", "1e8lp", "--points", "3"]
    eta_sweep = ["sweep", "--sweep", "eta", "--m-a", "1mp", "--d", "1lp",
                 "--from", "0.1", "--to", "0.9", "--points", "3"]
    for argv in (r_sweep, eta_sweep):
        assert main(argv) == 0
        without = capsys.readouterr().out
        assert main(argv + ["--r", "5lp"]) == 0
        assert capsys.readouterr().out == without


def _sweep_case(rng, name, coulomb):
    """A seeded far-field scenario, its fixed-field flags, and a grid around
    its value of name."""
    kw = {"m_a": 10.0 ** rng.uniform(6, 12), "m_b": 10.0 ** rng.uniform(-2, 4),
          "d": 10.0 ** rng.uniform(0, 6)}
    kw["r"] = kw["d"] * 10.0 ** rng.uniform(2, 6)
    units = {"m_a": "mp", "m_b": "mp", "d": "lp", "r": "lp"}
    flags = []
    for field, unit in units.items():
        if field != name:
            flags += [f"--{field.replace('_', '-')}", f"{kw[field]!r}{unit}"]
    if coulomb:
        kw.update(coupling=CouplingKind.COULOMB, q_a=10.0 ** rng.uniform(3, 6),
                  q_b=10.0 ** rng.uniform(0, 3), delta_x_min=10.0 ** rng.uniform(0.5, 3))
        flags += ["--coupling", "coulomb", "--q-a", repr(kw["q_a"]),
                  "--q-b", repr(kw["q_b"]), "--dx-min", f"{kw['delta_x_min']!r}lp"]
    grid = ["--from", f"{kw[name] / 10.0!r}{units[name]}",
            "--to", f"{kw[name] * 10.0!r}{units[name]}"]
    return ScenarioParams(**kw), grid + flags


def _old_fmt(value):
    """The number format the CSV had before it used one row template."""
    if isinstance(value, bool):
        return "1" if value else "0"
    return format(value, ".17g")


def test_sweep_rows_equal_report_values_of_replaced_params(capsys):
    rng = random.Random(47)
    for name in ("m_a", "m_b", "d", "r"):
        for model in ("displacement", "phase", "both"):
            for coulomb in (False, True):
                base, flags = _sweep_case(rng, name, coulomb)
                argv = ["sweep", "--sweep", name, "--points", "9", "--log",
                        "--model", model, "--slack", "2.5", *flags]
                assert main(argv) == 0, argv
                lines = [l for l in capsys.readouterr().out.splitlines()
                         if not l.startswith("#")][1:]
                assert len(lines) == 9
                for line in lines:
                    value = float(line.split(",", 1)[0])
                    p = validated_copy(base, **{name: value})
                    row = (value, *bounds.report_values(p, model, 2.5).values())
                    assert line == ",".join(map(_old_fmt, row)), argv


def test_sweep_rows_build_no_scenario(monkeypatch, capsys):
    built = []
    post_init = ScenarioParams.__post_init__
    monkeypatch.setattr(ScenarioParams, "__post_init__",
                        lambda self: built.append(self) or post_init(self))
    rng = random.Random(48)
    for name in ("m_a", "m_b", "d", "r"):
        for coulomb in (False, True):
            _, flags = _sweep_case(rng, name, coulomb)
            del built[:]
            assert main(["sweep", "--sweep", name, "--points", "50", *flags]) == 0
            assert len(capsys.readouterr().out.splitlines()) > 50
            # The scenario read from the flags; each row copies it unvalidated.
            assert len(built) == 1


def _error_object(exc):
    """The error object main prints for an exception a command raised."""
    if isinstance(exc, ZeroDivisionError):
        detail = "a divisor underflowed to zero"
    elif isinstance(exc, ArithmeticError):
        detail = exc.args[-1] if exc.args else exc
    else:
        return {"code": "invalid-input", "message": str(exc)}
    return {"code": "out-of-range", "message": f"result outside the floating-point range: {detail}"}


_UNIT = {"m_a": "mp", "m_b": "mp", "d": "lp", "r": "lp"}


def _sweep_argv(kw, name, lo, hi, *extra):
    """A sweep of name from lo to hi over ScenarioParams(**kw)."""
    argv = ["sweep", "--sweep", name, f"--from={lo!r}{_UNIT[name]}", f"--to={hi!r}{_UNIT[name]}"]
    argv += [f"--{f.replace('_', '-')}={kw[f]!r}{unit}" for f, unit in _UNIT.items() if f != name]
    if kw.get("coupling") is CouplingKind.COULOMB:
        argv += ["--coupling", "coulomb", f"--q-a={kw['q_a']!r}", f"--q-b={kw['q_b']!r}"]
    if kw.get("delta_x_min") is not None:
        argv.append(f"--dx-min={kw['delta_x_min']!r}lp")
    return argv + list(extra)


def _late_fault_case(rng, fault):
    """A seeded scenario whose report raises somewhere on a log grid of
    name from lo to hi: (kw, name, lo, hi)."""
    coulomb = CouplingKind.COULOMB
    if fault == "r-cubed":
        # r**3 overflows once r passes about 5.6e102.
        kw = dict(m_a=10.0 ** rng.uniform(0, 10), m_b=1.0, d=10.0 ** rng.uniform(0, 5), r=1.0)
        return kw, "r", 1.0, 1e308
    if fault == "source-strength":
        # A coulomb K/m_B that underflows to zero as m_B grows.
        kw = dict(m_a=1.0, m_b=1.0, d=1.0, r=1e3, coupling=coulomb,
                  q_a=10.0 ** rng.uniform(-155, -145), q_b=10.0 ** rng.uniform(-155, -145),
                  delta_x_min=10.0 ** rng.uniform(0, 2))
        return kw, "m_b", 1.0, 1e300
    if fault == "tb-underflow":
        # 2*r^3/(m_A*d) underflows, and so tb_displacement, as m_A grows.
        kw = dict(m_a=1.0, m_b=1.0, d=1.0, r=10.0 ** rng.uniform(-100, -96))
        return kw, "m_a", 1.0, 1e300
    # No dx_min, and K/m_B underflows too: the missing floor is met first.
    kw = dict(m_a=1.0, m_b=1e100, d=1.0, r=1e3, coupling=coulomb, q_a=1e-150, q_b=1e-150)
    return kw, "r", 1e2, 1e6


@pytest.mark.parametrize("fault", ["r-cubed", "source-strength", "tb-underflow", "two-faults"])
def test_sweep_fault_is_the_report_values_fault_at_its_point(fault, capsys):
    rng = random.Random(f"late-fault {fault}")
    for _ in range(4):
        kw, name, lo, hi = _late_fault_case(rng, fault)
        model, points = rng.choice(("displacement", "both")), rng.randint(20, 60)
        base = ScenarioParams(**kw)
        for index, value in enumerate(cli._grid(lo, hi, points, True)):
            try:
                bounds.report_values(replace_swept(base, name, value), model)
            except Exception as exc:
                expected = _error_object(exc)
                break
        else:
            pytest.fail(f"{kw} never faults")
        if fault == "two-faults":
            assert index == 0
            assert expected == {"code": "invalid-input", "message":
                                "coulomb displacement bounds require an explicit delta_x_min"}
        else:
            assert index > 0, kw
        argv = _sweep_argv(kw, name, lo, hi, "--points", str(points), "--log", "--model", model)
        assert main(argv) == 2
        assert json.loads(capsys.readouterr().out) == {"error": expected}, argv


# A scenario near every edge a report flag reads: r/d = 1000 against
# r_over_d_min = 100, r against the back-reaction radii (K/m_B)*d/2 = 1000
# and K*d/pi = 955; its coulomb twin has the same K and K/m_B.
_EDGE_SCENARIO = {"m_a": 2e3, "m_b": 1.5, "d": 1.0, "r": 1e3}
_BOOL_COLUMNS = ("displacement_backreaction_free", "phase_backreaction_free", "geometry_valid")


@pytest.mark.parametrize("slack", [None, "2.5"])
@pytest.mark.parametrize("log", [False, True])
@pytest.mark.parametrize("coulomb", [False, True])
@pytest.mark.parametrize("name", ["m_a", "m_b", "d", "r"])
def test_sweep_rows_across_the_flag_edges(name, coulomb, log, slack, capsys):
    kw = dict(_EDGE_SCENARIO)
    if coulomb:
        kw.update(coupling=CouplingKind.COULOMB, q_a=2e3, q_b=1.5, delta_x_min=1.0)
    argv = _sweep_argv(kw, name, kw[name] / 1e3, kw[name] * 1e3, "--points", "401",
                       *["--log"] * log, *["--slack", slack] * bool(slack))
    assert main(argv) == 0, argv
    out = capsys.readouterr().out
    header, rows = parse_csv(out)
    lines = [l for l in out.splitlines() if not l.startswith("#")][1:]
    base = ScenarioParams(**kw)
    for line in lines:
        value = float(line.split(",", 1)[0])
        p = replace_swept(base, name, value)
        row = (value, *bounds.report_values(p, "both", float(slack or 1.0)).values())
        assert line == ",".join(map(_old_fmt, row)), argv
    flipped = {c for c in _BOOL_COLUMNS if len({row[header.index(c)] for row in rows}) == 2}
    if coulomb and name == "m_a":
        assert len({line.split(",", 1)[1] for line in lines}) == 1
    elif name in ("d", "r"):
        assert flipped == set(_BOOL_COLUMNS), argv
    else:
        assert flipped, argv


_NUMBERS = [True, False, 0.0, -0.0, 5e-324, 2.225073858507201e-308, 1.0 / 3.0,
            -1e300, 1.7976931348623157e308, 1e16, math.inf, -math.inf, math.nan]


@pytest.mark.parametrize("value", _NUMBERS, ids=repr)
def test_row_template_matches_number_format(value):
    text = _old_fmt(value)
    assert cli._fmt(value) == text
    if math.isfinite(value):
        csv = cli._head(["c"], ["a", "b"]) + b"".join(cli._csv(["a", "b"], [(value, -1.5)]))
        assert csv == f"# c\na,b\n{text},-1.5\n".encode()
    else:
        with pytest.raises(ArithmeticError):
            cli._csv(["a", "b"], [(1.0, 2.0), (value, 1.0)])


# --- simulate semantics ---------------------------------------------------------


def test_simulate_zero_t_max_single_row():
    proc = run_cli([
        "simulate", "--model", "displacement", "--m-a", "1e9mp", "--d", "1e6lp",
        "--r", "1e8lp", "--t-max", "0", "--steps", "10",
    ])
    header, rows = parse_csv(proc.stdout.decode())
    assert len(rows) == 1
    assert rows[0][header.index("t")] == 0.0
    assert rows[0][header.index("overlap_magnitude")] == pytest.approx(1.0, abs=1e-12)


def test_simulate_survives_an_overflowing_square_of_r(capsys):
    # (R+d)**2 overflows here, but no printed value does: the series forms
    # the force difference without a power of R or R+d.
    argv = [
        "simulate", "--m-a", "7.971481872985241e-81mp", "--m-b", "3.496730861210543e-284mp",
        "--d", "503217173307.6336lp", "--r", "3.400941437149519e+251lp",
        "--dx-min", "2.3723565942780595e-276lp", "--override-geometry",
        "--model", "displacement", "--t-max", "1.8493637587279373e-210tp", "--steps", "3",
        "--sigma0", "1.892045407492623e+79lp",
    ]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.rsplit(",", 1) for line in lines[4:]] == [
        ["0,0,0,1.892045407492623e+79", "1"],
        ["6.1645458624264573e-211,0,0,1.892045407492623e+79", "1"],
        ["1.2329091724852915e-210,0,0,1.892045407492623e+79", "1"],
        ["1.8493637587279373e-210,0,0,1.892045407492623e+79", "1"],
    ]


def test_simulate_step_doubling_shares_values():
    base = [
        "simulate", "--model", "displacement", "--m-a", "1e9mp", "--d", "1e6lp",
        "--r", "1e8lp", "--t-max", "1e5tp",
    ]
    h4, rows4 = parse_csv(run_cli(base + ["--steps", "4"]).stdout.decode())
    h8, rows8 = parse_csv(run_cli(base + ["--steps", "8"]).stdout.decode())
    assert h4 == h8
    for i, row in enumerate(rows4):
        assert row == rows8[2 * i]


def test_simulate_displacement_overlap_monotone():
    proc = run_cli([
        "simulate", "--model", "displacement", "--m-a", "1e9mp", "--d", "1e6lp",
        "--r", "1e8lp", "--t-max", "auto", "--steps", "16",
    ])
    header, rows = parse_csv(proc.stdout.decode())
    i = header.index("overlap_magnitude")
    values = [row[i] for row in rows]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert values[-1] <= 0.01 + 1e-9


def test_simulate_phase_auto_ends_orthogonal():
    proc = run_cli([
        "simulate", "--model", "phase", "--m-a", "1mp", "--m-b", "1mp",
        "--d", "10lp", "--r", "1000lp", "--t-max", "auto", "--steps", "8",
    ])
    header, rows = parse_csv(proc.stdout.decode())
    assert rows[0][header.index("overlap_magnitude")] == 1.0
    assert rows[-1][header.index("overlap_magnitude")] <= 1e-9
    assert rows[-1][header.index("delta_phi")] == pytest.approx(3.141592653589793, rel=1e-12)


# --- in-process entry point -----------------------------------------------------


def test_main_returns_zero_in_process(capsys):
    rc = main(["bounds", "--m-a", "1e6mp", "--d", "1e6lp", "--r", "1e8lp"])
    captured = capsys.readouterr()
    assert rc == 0
    env = json.loads(captured.out)
    assert env["tool"] == "interferobounds"
    assert env["results"]["r_max_displacement"] == 5e11
