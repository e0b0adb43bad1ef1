#!/usr/bin/env python3
"""Regenerate the frozen test baselines.

Writes the CLI golden files under tests/data/golden/, the CLI surface
(the --version and --help texts and each parser's actions) under
tests/data/cli/, and the orthogonalization-time ratio table under
tests/data/.  Run from the repository root after an intentional behavior
change:

    python3 tests/freeze_baselines.py
"""

import json
import os
import pathlib
import subprocess
import sys

DATA = pathlib.Path(__file__).resolve().parent / "data"
SRC = str(DATA.parent.parent / "src")

GOLDEN_COMMANDS = {
    "bounds_gravity.json": [
        "bounds", "--m-a", "1e6mp", "--d", "1e6lp", "--r", "1e8lp",
    ],
    "bounds_coulomb_phase.json": [
        "bounds", "--coupling", "coulomb", "--q-a", "1e3", "--q-b", "1e3",
        "--m-a", "1mp", "--m-b", "1mp", "--d", "10lp", "--r", "2000lp",
        "--model", "phase",
    ],
    "causal_mixed.json": [
        "causal", "--t-a", "1.2tp", "--t-b", "0.6tp", "--r", "1lp",
    ],
    "sweep_eta.csv": [
        "sweep", "--sweep", "eta", "--from", "0.001", "--to", "0.999",
        "--points", "5", "--m-a", "1mp", "--d", "1lp",
    ],
    "sweep_r_log.csv": [
        "sweep", "--sweep", "r", "--from", "1e6lp", "--to", "1e10lp",
        "--points", "3", "--log", "--m-a", "1e9mp", "--d", "1e4lp",
    ],
    "simulate_phase.csv": [
        "simulate", "--model", "phase", "--m-a", "1mp", "--m-b", "1mp",
        "--d", "10lp", "--r", "1000lp", "--t-max", "auto", "--steps", "4",
    ],
    "simulate_displacement.csv": [
        "simulate", "--model", "displacement", "--m-a", "1e9mp",
        "--m-b", "1mp", "--d", "1e6lp", "--r", "1e8lp", "--sigma0", "1lp",
        "--t-max", "1e5tp", "--steps", "4",
    ],
    "simulate_displacement_auto.csv": [
        "simulate", "--model", "displacement", "--m-a", "1e9mp", "--d", "1e6lp",
        "--r", "1e8lp", "--t-max", "auto", "--steps", "4",
    ],
}

# The bytes of --version and of each parser's --help.  argparse wraps help
# to the terminal width, so every text is written with COLUMNS=80.
TEXT_COMMANDS = {
    "version.txt": ["--version"],
    "help.txt": ["--help"],
    "help_bounds.txt": ["bounds", "--help"],
    "help_sweep.txt": ["sweep", "--help"],
    "help_simulate.txt": ["simulate", "--help"],
    "help_causal.txt": ["causal", "--help"],
}
TEXT_ENV = {"COLUMNS": "80"}

_BOUNDS = ["bounds", "--m-a", "1mp", "--d", "1lp", "--r", "1e3lp"]
_DBL_MAX = "1.7976931348623157e308"

# Usage-level invocations: each argv, its exit code, error code and
# message.  A success has neither code nor message.
USAGE_CASES = {
    "bounds without --m-a": (["bounds", "--d", "1lp", "--r", "1e3lp"], 2, "invalid-input",
                             "interferobounds bounds: the following arguments are required: --m-a"),
    "bounds without --d": (["bounds", "--m-a", "1mp", "--r", "1e3lp"], 2, "invalid-input",
                           "interferobounds bounds: the following arguments are required: --d"),
    "bounds without --r": (["bounds", "--m-a", "1mp", "--d", "1lp"], 2, "invalid-input",
                           "interferobounds bounds: the following arguments are required: --r"),
    "sweep without --d": (["sweep", "--sweep", "m_a", "--from", "1mp", "--to", "2mp",
                           "--points", "2", "--r", "1e3lp"], 2, "invalid-input",
                          "missing required parameter --d"),
    "ambiguous --m": (["bounds", "--m", "1mp", "--d", "1lp", "--r", "1e3lp"], 2, "invalid-input",
                      "interferobounds bounds: ambiguous option: --m could match --m-a, --m-b, "
                      "--model"),
    # An unambiguous abbreviation is accepted.
    "abbreviated --steps": (["simulate", "--model", "phase", "--m-a", "1mp", "--d", "1lp",
                             "--r", "1e3lp", "--t-max", "1tp", "--ste", "1"], 0, None, None),
    "unknown flag": ([*_BOUNDS, "--bogus"], 2, "invalid-input",
                     "interferobounds: unrecognized arguments: --bogus"),
    "--r-over-d-min nan": ([*_BOUNDS, "--r-over-d-min", "nan"], 2, "invalid-input",
                           "non-finite ratio r_over_d_min = nan"),
    "--r-over-d-min -1": ([*_BOUNDS, "--r-over-d-min", "-1"], 2, "invalid-input",
                          "nonpositive ratio r_over_d_min = -1.0"),
    "--r-over-d-min x": ([*_BOUNDS, "--r-over-d-min", "x"], 2, "invalid-input",
                         "interferobounds bounds: argument --r-over-d-min: invalid float value: 'x'"),
    # The largest double's negative is nonpositive, not non-finite.
    "--r-over-d-min -DBL_MAX": ([*_BOUNDS, "--r-over-d-min", f"-{_DBL_MAX}"], 2, "invalid-input",
                                "nonpositive ratio r_over_d_min = -1.7976931348623157e+308"),
    # A negative token is refused by its flag; a zero by the field's check.
    "--dx-min -1lp": ([*_BOUNDS, "--dx-min", "-1lp"], 2, "invalid-input",
                      "nonpositive length --dx-min '-1lp'"),
    "--dx-min 0lp": ([*_BOUNDS, "--dx-min", "0lp"], 2, "invalid-input",
                     "nonpositive length delta_x_min = 0.0"),
    "causal --t-a 1mp": (["causal", "--t-a", "1mp", "--t-b", "1tp", "--r", "1lp"], 2,
                         "invalid-input", "'1mp' has dimension mass, expected time"),
    # argparse words the rest of this message differently across Python
    # versions; usage_matches compares its prefix only.
    "--coupling x": ([*_BOUNDS, "--coupling", "x"], 2, "invalid-input",
                     "interferobounds bounds: argument --coupling: invalid choice:"),
    # The largest double is a valid slack; the bound it scales overflows.
    "--slack DBL_MAX": ([*_BOUNDS, "--slack", _DBL_MAX], 2, "out-of-range",
                        "result outside the floating-point range: a result is infinite or NaN"),
}


def usage_outcome(returncode, stdout):
    """(exit code, error code, message) of one run: a failure's error
    object, read from stdout; a success has neither code nor message."""
    if returncode == 0:
        return 0, None, None
    error = json.loads(stdout)["error"]
    return returncode, error["code"], error["message"]


def usage_matches(name, outcome):
    """Whether outcome is what USAGE_CASES pins for the named case."""
    _, *pinned = USAGE_CASES[name]
    if name == "--coupling x":
        return outcome[:2] == tuple(pinned[:2]) and outcome[2].startswith(pinned[2])
    return outcome == tuple(pinned)


def cli_surface():
    """Each parser's actions, by the fields that read the same on every
    supported Python version."""
    import argparse

    from interferobounds import cli

    top = cli._build_parser()
    sub = next(a for a in top._actions if isinstance(a, argparse._SubParsersAction))
    parsers = {top.prog: top, **sub.choices}
    return {
        name: [
            {
                "option_strings": action.option_strings,
                "dest": action.dest,
                "default": action.default,
                "required": action.required,
                "choices": None if action.choices is None else list(action.choices),
                "help": action.help,
                "type": None if action.type is None else action.type.__name__,
                "action": type(action).__name__,
            }
            for action in parser._actions
        ]
        for name, parser in parsers.items()
    }


def surface_json():
    return json.dumps(cli_surface(), indent=2, sort_keys=True) + "\n"


# Criterion grid for the wavepacket-oracle ratio table.
RATIO_GRID = {
    "m_a_planck": [10.0 ** e for e in range(6, 13)],
    "r_over_d": [10.0 ** e for e in range(2, 7)],
    "d_planck": 1e6,
    "m_b_planck": 1.0,
    "sigma0_planck": 1.0,
    "eps": 0.01,
}


def run_cli(argv, env=None):
    proc = subprocess.run(
        [sys.executable, "-m", "interferobounds", *argv],
        capture_output=True,
        check=True,
        env=None if env is None else {**os.environ, **env},
    )
    return proc.stdout


def freeze_golden():
    golden = DATA / "golden"
    golden.mkdir(parents=True, exist_ok=True)
    for name, argv in GOLDEN_COMMANDS.items():
        (golden / name).write_bytes(run_cli(argv))
        print(f"wrote golden/{name}")


def freeze_cli_surface():
    cli = DATA / "cli"
    cli.mkdir(parents=True, exist_ok=True)
    for name, argv in TEXT_COMMANDS.items():
        (cli / name).write_bytes(run_cli(argv, TEXT_ENV))
        print(f"wrote cli/{name}")
    (cli / "surface.json").write_text(surface_json())
    print("wrote cli/surface.json")


def freeze_ratio_table():
    from interferobounds import bounds, dynamics
    from interferobounds.scenario import ScenarioParams

    ratios = []
    for m_a in RATIO_GRID["m_a_planck"]:
        row = []
        for rd in RATIO_GRID["r_over_d"]:
            p = ScenarioParams(
                m_a=m_a,
                m_b=RATIO_GRID["m_b_planck"],
                d=RATIO_GRID["d_planck"],
                r=RATIO_GRID["d_planck"] * rd,
            )
            t_orth = dynamics.orthogonalization_time(
                p, RATIO_GRID["sigma0_planck"], RATIO_GRID["eps"]
            )
            row.append(t_orth / bounds.tb_displacement(p))
        ratios.append(row)
    payload = {"grid": RATIO_GRID, "ratios": ratios}
    path = DATA / "ortho_ratio_baseline.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path.name}")


if __name__ == "__main__":
    # Run from a plain checkout: this process and its `python -m
    # interferobounds` children both import the package from src/.
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p
    )
    freeze_golden()
    freeze_cli_surface()
    freeze_ratio_table()
