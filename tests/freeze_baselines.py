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
_BOUNDS_6 = ["bounds", "--m-a", "1e6mp", "--d", "1e6lp", "--r", "1e8lp"]
_PHASE = ["simulate", "--model", "phase", "--m-a", "1mp", "--d", "1lp", "--r", "1e3lp"]
_ETA = ["sweep", "--sweep", "eta", "--m-a", "1mp", "--d", "1lp"]
_R_SWEEP = ["sweep", "--sweep", "r", "--m-a", "1e9mp", "--d", "1e4lp"]
_COULOMB = ["--coupling", "coulomb", "--q-a", "1e-150", "--q-b", "1e-150", "--m-b", "1e100mp"]
_DBL_MAX = "1.7976931348623157e308"
_RANGE = "result outside the floating-point range: "

# Every pinned outcome of a CLI run: its argv, exit code, error code and
# message.  A success has neither code nor message.  usage_matches holds
# each run to its row.
USAGE_CASES = {
    # Messages from argparse, each after its parser's usage line on stderr.
    "no command": ([], 2, "invalid-input",
                   "interferobounds: the following arguments are required: command"),
    "bounds without --m-a": (["bounds", "--d", "1lp", "--r", "1e3lp"], 2, "invalid-input",
                             "interferobounds bounds: the following arguments are required: --m-a"),
    "bounds without --d": (["bounds", "--m-a", "1mp", "--r", "1e3lp"], 2, "invalid-input",
                           "interferobounds bounds: the following arguments are required: --d"),
    "1e6mp without --d": (["bounds", "--m-a", "1e6mp", "--r", "1e8lp"], 2, "invalid-input",
                          "interferobounds bounds: the following arguments are required: --d"),
    "bounds without --r": (["bounds", "--m-a", "1mp", "--d", "1lp"], 2, "invalid-input",
                           "interferobounds bounds: the following arguments are required: --r"),
    "ambiguous --m": (["bounds", "--m", "1mp", "--d", "1lp", "--r", "1e3lp"], 2, "invalid-input",
                      "interferobounds bounds: ambiguous option: --m could match --m-a, --m-b, "
                      "--model"),
    "unknown flag": ([*_BOUNDS, "--bogus"], 2, "invalid-input",
                     "interferobounds: unrecognized arguments: --bogus"),
    "causal --bogus": (["causal", "--t-a", "1tp", "--t-b", "1tp", "--r", "1lp", "--bogus"], 2,
                       "invalid-input", "interferobounds: unrecognized arguments: --bogus"),
    "--r-over-d-min x": ([*_BOUNDS, "--r-over-d-min", "x"], 2, "invalid-input",
                         "interferobounds bounds: argument --r-over-d-min: invalid float value: 'x'"),
    "--points 1e5": (["sweep", "--sweep", "eta", "--from", "0.1", "--to", "0.9", "--points", "1e5",
                      "--m-a", "1mp", "--d", "1lp"], 2, "invalid-input",
                     "interferobounds sweep: argument --points: invalid int value: '1e5'"),
    "--coupling x": ([*_BOUNDS, "--coupling", "x"], 2, "invalid-input",
                     "interferobounds bounds: argument --coupling: invalid choice: 'x' "
                     "(choose from 'gravity', 'coulomb')"),
    "--model nope": ([*_BOUNDS, "--model", "nope"], 2, "invalid-input",
                     "interferobounds bounds: argument --model: invalid choice: 'nope' "
                     "(choose from 'displacement', 'phase', 'both')"),
    # A quantity is refused as its flag is read, naming the flag: by its
    # sign, dimension or syntax, or a token beyond the double range, which
    # reads as inf.  A sweep reads the flag it varies too, and --r under an
    # eta sweep.
    "--m-a -1mp": (["bounds", "--m-a", "-1mp", "--d", "1lp", "--r", "1lp"], 2, "invalid-input",
                   "nonpositive mass --m-a '-1mp'"),
    "--dx-min -1lp": ([*_BOUNDS, "--dx-min", "-1lp"], 2, "invalid-input",
                      "nonpositive length --dx-min '-1lp'"),
    # Flags the chosen model does not read are checked all the same.
    "--sigma0 -1lp": ([*_PHASE, "--t-max", "1tp", "--steps", "2", "--sigma0", "-1lp"], 2,
                      "invalid-input", "nonpositive length --sigma0 '-1lp'"),
    "--t-max -1tp": ([*_PHASE, "--t-max", "-1tp", "--steps", "2"], 2, "invalid-input",
                     "nonpositive time --t-max '-1tp'"),
    "sweep --from -1lp": ([*_R_SWEEP, "--from", "-1lp", "--to", "1e8lp", "--points", "3"], 2,
                          "invalid-input", "nonpositive length --from '-1lp'"),
    "eta sweep --r -5lp": (["sweep", "--sweep", "eta", "--r", "-5lp", "--m-a", "1mp", "--d", "1lp",
                            "--from", "0.1", "--to", "0.9", "--points", "2"], 2, "invalid-input",
                           "nonpositive length --r '-5lp'"),
    # A negative SI value whose Planck value overflows: the error names the
    # sign, not the size.
    "--r -1e300m": (["bounds", "--m-a", "1mp", "--d", "1lp", "--r", "-1e300m"], 2, "invalid-input",
                    "nonpositive length --r '-1e300m'"),
    "simulate --r -1e289m": (["simulate", "--m-a", "1.4684145617443765e+48mp",
                              "--m-b", "7.12580595340144e+252kg", "--d", "3.8161681044464944e+121m",
                              "--r", "-1.0820264477987957e+289m", "--model", "displacement",
                              "--t-max", "2.315552542351297e+48s", "--steps", "1",
                              "--sigma0", "1.0730909198330734e+226m"], 2, "invalid-input",
                             "nonpositive length --r '-1.0820264477987957e+289m'"),
    "--m-a 1lp": (["bounds", "--m-a", "1lp", "--d", "1lp", "--r", "1lp"], 2, "invalid-input",
                  "'1lp' has dimension length, expected mass"),
    "causal --t-a 1mp": (["causal", "--t-a", "1mp", "--t-b", "1tp", "--r", "1lp"], 2,
                         "invalid-input", "'1mp' has dimension mass, expected time"),
    "--m-a '1e6 mp'": (["bounds", "--m-a", "1e6 mp", "--d", "1lp", "--r", "1lp"], 2,
                       "invalid-input", "cannot parse quantity '1e6 mp'"),
    "sweep --r xyz": (["sweep", "--sweep", "r", "--r", "xyz", "--m-a", "1e9mp", "--d", "1e4lp",
                       "--from", "1e6lp", "--to", "1e8lp", "--points", "2"], 2, "invalid-input",
                      "cannot parse quantity 'xyz'"),
    "--m-a 1e999kg": (["bounds", "--m-a", "1e999kg", "--d", "1lp", "--r", "1e3lp"], 2,
                      "invalid-input", "quantity value must be finite, got inf"),
    "--m-a 1e999mp": (["bounds", "--m-a", "1e999mp", "--d", "1lp", "--r", "1e3lp"], 2,
                      "invalid-input", "planck value must be finite, got inf"),
    "--units si --m-a 1e999": (["bounds", "--units", "si", "--m-a", "1e999", "--d", "1",
                                "--r", "1e3"], 2, "invalid-input",
                               "quantity value must be finite, got inf"),
    "sweep --from 1e999m": ([*_R_SWEEP, "--from", "1e999m", "--to", "1e8lp", "--points", "2"], 2,
                            "invalid-input", "quantity value must be finite, got inf"),
    # A zero is refused by its field's check; causal has no --d.
    "--dx-min 0lp": ([*_BOUNDS, "--dx-min", "0lp"], 2, "invalid-input",
                     "nonpositive length delta_x_min = 0.0"),
    "--sigma0 0lp": ([*_PHASE, "--t-max", "1tp", "--steps", "2", "--sigma0", "0lp"], 2,
                     "invalid-input", "nonpositive length sigma0 = 0.0"),
    "causal --r 0lp": (["causal", "--t-a", "1tp", "--t-b", "1tp", "--r", "0lp"], 2,
                       "invalid-input", "nonpositive length r = 0.0"),
    # Ratio, slack and eps are checked by the command that reads them, not
    # by argparse, in the library's words; a negative value in exponent form
    # too.  The largest double's negative is nonpositive, not non-finite.
    "--r-over-d-min nan": ([*_BOUNDS, "--r-over-d-min", "nan"], 2, "invalid-input",
                           "non-finite ratio r_over_d_min = nan"),
    "--r-over-d-min -1": ([*_BOUNDS, "--r-over-d-min", "-1"], 2, "invalid-input",
                          "nonpositive ratio r_over_d_min = -1.0"),
    "--r-over-d-min -1e2": ([*_BOUNDS_6, "--r-over-d-min", "-1e2"], 2, "invalid-input",
                            "nonpositive ratio r_over_d_min = -100.0"),
    "--r-over-d-min -DBL_MAX": ([*_BOUNDS, "--r-over-d-min", f"-{_DBL_MAX}"], 2, "invalid-input",
                                "nonpositive ratio r_over_d_min = -1.7976931348623157e+308"),
    "--slack nan": ([*_BOUNDS_6, "--slack", "nan"], 2, "invalid-input",
                    "slack must be finite and positive, got nan"),
    # The phase model never reads slack, but the JSON echo would hold it.
    "phase --slack inf": ([*_BOUNDS_6, "--model", "phase", "--slack", "inf"], 2, "invalid-input",
                          "slack must be finite and positive, got inf"),
    "--slack -1": ([*_BOUNDS_6, "--slack", "-1"], 2, "invalid-input",
                   "slack must be finite and positive, got -1.0"),
    "--slack -1e-3": ([*_BOUNDS_6, "--slack", "-1e-3"], 2, "invalid-input",
                      "slack must be finite and positive, got -0.001"),
    "eta sweep --slack 0": (["sweep", "--sweep", "eta", "--from", "0.1", "--to", "0.9",
                             "--points", "2", "--m-a", "1mp", "--d", "1lp", "--model", "phase",
                             "--slack", "0"], 2, "invalid-input",
                            "slack must be finite and positive, got 0.0"),
    "displacement --eps 5": (["simulate", "--model", "displacement", "--m-a", "1e9mp",
                              "--d", "1e6lp", "--r", "1e8lp", "--t-max", "1tp", "--steps", "1",
                              "--eps", "5"], 2, "invalid-input", "eps must lie in (0, 1), got 5.0"),
    "phase --eps 5": ([*_PHASE, "--t-max", "1tp", "--steps", "2", "--eps", "5"], 2,
                      "invalid-input", "eps must lie in (0, 1), got 5.0"),
    "--eps nan": ([*_PHASE, "--t-max", "1tp", "--steps", "2", "--eps", "nan"], 2,
                  "invalid-input", "eps must lie in (0, 1), got nan"),
    "--eps -1e-3": ([*_PHASE, "--t-max", "1tp", "--steps", "2", "--eps", "-1e-3"], 2,
                    "invalid-input", "eps must lie in (0, 1), got -0.001"),
    # The checks each subcommand makes before it computes.
    "sweep without --d": (["sweep", "--sweep", "m_a", "--from", "1mp", "--to", "2mp",
                           "--points", "2", "--r", "1e3lp"], 2, "invalid-input",
                          "missing required parameter --d"),
    "sweep without --m-a": (["sweep", "--sweep", "r", "--d", "1e4lp", "--from", "1e6lp",
                             "--to", "1e8lp", "--points", "2"], 2, "invalid-input",
                            "missing required parameter --m-a"),
    "eta sweep --from abc": (["sweep", "--sweep", "eta", "--from", "abc", "--to", "0.9",
                              "--points", "2", "--m-a", "1mp", "--d", "1lp"], 2, "invalid-input",
                             "eta from must be a plain number, got 'abc'"),
    "eta sweep from > to": ([*_ETA, "--from", "0.5", "--to", "0.1", "--points", "5"], 2,
                            "invalid-input", "sweep needs from < to, got 0.5 .. 0.1"),
    "eta sweep --points 1": ([*_ETA, "--from", "0.1", "--to", "0.5", "--points", "1"], 2,
                             "invalid-input", "points must be >= 2, got 1"),
    "eta sweep --log from -0.5": ([*_ETA, "--from", "-0.5", "--to", "0.5", "--points", "5",
                                   "--log"], 2, "invalid-input", "log scale requires from > 0"),
    "r sweep from > to": ([*_R_SWEEP, "--from", "1e8lp", "--to", "1e6lp", "--points", "3"], 2,
                          "invalid-input", "sweep needs from < to, got 100000000.0 .. 1000000.0"),
    "r sweep --points 1": ([*_R_SWEEP, "--from", "1e6lp", "--to", "1e8lp", "--points", "1"], 2,
                           "invalid-input", "points must be >= 2, got 1"),
    "r sweep --log from 0lp": ([*_R_SWEEP, "--from", "0lp", "--to", "1e8lp", "--points", "3",
                                "--log"], 2, "invalid-input", "log scale requires from > 0"),
    "--steps 0": ([*_PHASE, "--t-max", "1tp", "--steps", "0"], 2, "invalid-input",
                  "steps must be >= 1, got 0"),
    "coulomb displacement without --dx-min": (["bounds", "--coupling", "coulomb", "--q-a", "1e3",
                                               "--q-b", "1e3", "--m-a", "1mp", "--d", "10lp",
                                               "--r", "2000lp"], 2, "invalid-input",
                                              "coulomb displacement bounds require an explicit "
                                              "delta_x_min"),
    "r/d 10": (["simulate", "--model", "phase", "--m-a", "1mp", "--d", "1lp", "--r", "10lp",
                "--t-max", "1tp", "--steps", "2"], 2, "invalid-input",
               "far-field formulas need r/d >= 100.0, got r/d = 10.0; set override_geometry to "
               "evaluate anyway"),
    # Finite inputs whose results leave the floating-point range.
    "r**3 overflows": (["bounds", "--m-a", "1e-300mp", "--d", "1e200lp", "--r", "1e300lp",
                        "--model", "displacement"], 2, "out-of-range",
                       _RANGE + "Numerical result out of range"),
    # K = m_a*m_b underflows to zero and divides.
    "m_a*m_b underflows": (["bounds", "--m-a", "1e-200mp", "--m-b", "1e-200mp", "--d", "1e3lp",
                            "--r", "1e6lp"], 2, "out-of-range",
                           _RANGE + "a divisor underflowed to zero"),
    # m_a*m_b underflows: tb_phase divides by zero before r_max_phase is reached.
    "phase m_a*m_b underflows": (["bounds", "--m-a", "1e-200mp", "--m-b", "1e-200mp",
                                  "--d", "1e300lp", "--r", "1e303lp", "--model", "phase"], 2,
                                 "out-of-range", _RANGE + "a divisor underflowed to zero"),
    # K*d/pi underflows to zero, below the least subnormal, though K*d does not.
    "K*d/pi underflows": (["bounds", "--m-a", "1e-150mp", "--m-b", "1e-150mp", "--d", "5e-24lp",
                           "--r", "1e-20lp", "--model", "phase"], 2, "out-of-range",
                          _RANGE + "an intermediate step of r_max_phase underflowed to zero"),
    # K = m_a*m_b underflows to zero, which would zero the phase at every t > 0.
    "simulate m_a*m_b underflows": (["simulate", "--model", "phase", "--m-a", "1e-300mp",
                                     "--m-b", "1e-300mp", "--d", "1e3lp", "--r", "1e6lp",
                                     "--t-max", "1e308tp", "--steps", "1", "--override-geometry"],
                                    2, "out-of-range", _RANGE + "an intermediate step of "
                                    "phase_difference underflowed to zero"),
    # Results overflow to inf and nan, which strict JSON cannot hold; CSV
    # rows of inf and nan.
    "bounds m_a*m_b overflows": (["bounds", "--m-a", "1e300mp", "--m-b", "1e300mp",
                                  "--d", "1e3lp", "--r", "1e6lp"], 2, "out-of-range",
                                 _RANGE + "a result is infinite or NaN"),
    "causal 1e308tp": (["causal", "--t-a", "1e308tp", "--t-b", "1e308tp", "--r", "1lp"], 2,
                       "out-of-range", _RANGE + "a result is infinite or NaN"),
    # The largest double is a valid slack; the bound it scales overflows.
    "--slack DBL_MAX": ([*_BOUNDS, "--slack", _DBL_MAX], 2, "out-of-range",
                        _RANGE + "a result is infinite or NaN"),
    "r sweep m_a*m_b overflows": (["sweep", "--sweep", "r", "--from", "1e6lp", "--to", "1e8lp",
                                   "--points", "2", "--m-a", "1e300mp", "--m-b", "1e300mp",
                                   "--d", "1e3lp"], 2, "out-of-range",
                                  _RANGE + "a CSV value is infinite or NaN"),
    "eta sweep 1e300": (["sweep", "--sweep", "eta", "--from", "0.1", "--to", "0.9",
                         "--points", "2", "--m-a", "1e300mp", "--d", "1e300lp"], 2,
                        "out-of-range", _RANGE + "a CSV value is infinite or NaN"),
    "displacement --t-max 1e300tp": (["simulate", "--model", "displacement", "--m-a", "1e9mp",
                                      "--d", "1e6lp", "--r", "1e8lp", "--t-max", "1e300tp",
                                      "--steps", "2"], 2, "out-of-range",
                                     _RANGE + "a CSV value is infinite or NaN"),
    # An infinite differential phase, whose cosine math.cos rejects.
    "phase cosine of inf": (["simulate", "--model", "phase", "--m-a", "1e300mp",
                             "--m-b", "1e300mp", "--d", "1e3lp", "--r", "1e6lp",
                             "--t-max", "1tp", "--steps", "2"], 2, "out-of-range",
                            _RANGE + "differential phase overflows at t = 0.5"),
    # Overflow inside the Gaussian oracle: the branch states' phase and the
    # force.
    "displacement auto 1e300mp": (["simulate", "--model", "displacement", "--m-a", "1e300mp",
                                   "--d", "1e3lp", "--r", "1e6lp", "--t-max", "auto",
                                   "--steps", "2"], 2, "out-of-range",
                                  _RANGE + "state fields must be finite"),
    "displacement force overflows": (["simulate", "--model", "displacement", "--m-a", "1e300mp",
                                      "--m-b", "1e300mp", "--d", "1e3lp", "--r", "1e6lp",
                                      "--t-max", "1tp", "--steps", "2"], 2, "out-of-range",
                                     _RANGE + "force must be finite, got inf"),
    # tb_phase as the series end time overflows to inf, or to inf/inf.
    "phase --t-max auto inf": (["simulate", "--model", "phase", "--m-a", "1e-200mp",
                                "--d", "1e3lp", "--r", "1e300lp", "--t-max", "auto",
                                "--steps", "2"], 2, "out-of-range",
                               _RANGE + "--t-max auto gives a non-finite end time tb_phase = inf"),
    "phase --t-max auto nan": (["simulate", "--model", "phase", "--m-a", "1e300mp",
                                "--m-b", "1e300mp", "--d", "1e300lp", "--r", "1e303lp",
                                "--t-max", "auto", "--steps", "2"], 2, "out-of-range",
                               _RANGE + "--t-max auto gives a non-finite end time tb_phase = nan"),
    # The coulomb source strength K/m_B underflows to zero.
    "coulomb K/m_B underflows": (["bounds", *_COULOMB, "--m-a", "1mp", "--d", "1e3lp",
                                  "--r", "1e6lp", "--dx-min", "1lp", "--model", "displacement"],
                                 2, "out-of-range",
                                 _RANGE + "K/m_B underflows to zero: K = 1e-300, m_B = 1e+100"),
    "eta sweep coulomb K/m_B underflows": (["sweep", "--sweep", "eta", "--from", "0.1",
                                            "--to", "0.5", "--points", "2", *_COULOMB,
                                            "--m-a", "1mp", "--d", "1e3lp", "--dx-min", "1lp",
                                            "--model", "displacement"], 2, "out-of-range",
                                           _RANGE + "K/m_B underflows to zero: K = 1e-300, "
                                           "m_B = 1e+100"),
    # 2*m_B*sigma0^2 overflows in the trap ground state.
    "2*m_B*sigma0^2 overflows": (["simulate", "--model", "displacement", "--m-a", "1e6mp",
                                  "--m-b", "1e200mp", "--d", "1e3lp", "--r", "1e6lp",
                                  "--sigma0", "1e60lp", "--t-max", "1tp", "--steps", "2"], 2,
                                 "out-of-range", _RANGE + "2*m*sigma_x^2 overflows at "
                                 "m = 1e+200, sigma_x = 1e+60"),
    # 2*m_B*sigma0^2 is subnormal, so the trap frequency overflows to +inf.
    # The oracle lets +inf through its positivity checks, as bounds does:
    # the ground state it gives is out of range, not an invalid input.
    "trap frequency overflows": (["simulate", "--m-a", "1.3894127935947606e+185mp",
                                  "--m-b", "8.049373009779168e-58mp",
                                  "--d", "8.340939717854801e+149lp",
                                  "--r", "9.198375045707938e+108lp", "--override-geometry",
                                  "--model", "displacement", "--t-max", "9.228942170527732e-24tp",
                                  "--steps", "4", "--sigma0", "1.5303858532943347e-127lp"], 2,
                                 "out-of-range", _RANGE + "state fields must be finite"),
    # tau*tau underflows to zero in the oracle's evolution, where tau*spp
    # does not: rounding, not the input, makes the evolved state invalid.
    "evolved state invalid": (["simulate", "--m-a", "1mp", "--m-b", "6.05e204mp", "--d", "1lp",
                               "--r", "1.2496e23lp", "--coupling", "coulomb", "--q-a", "1.707e63",
                               "--q-b", "7.77e-227", "--override-geometry", "--model",
                               "displacement", "--t-max", "auto", "--steps", "4",
                               "--sigma0", "3.43769e-145lp"], 2, "out-of-range",
                              _RANGE + "rounding made the evolved state invalid: covariance must "
                              "be positive definite"),
    # An SI time beyond the double range in Planck units.
    "--t-max 1e300s": ([*_PHASE, "--t-max", "1e300s", "--steps", "2"], 2, "out-of-range",
                       _RANGE + "1e+300 s is not representable in Planck units"),
    # The oracle's branches stay overlapping up to its bracket's cap.
    "displacement auto without convergence": (["simulate", "--model", "displacement",
                                               "--m-a", "1mp", "--d", "1lp", "--r", "1e12lp",
                                               "--t-max", "auto", "--steps", "2",
                                               "--override-geometry"], 3, "no-convergence",
                                              "branch overlap stayed above eps = 0.01 up to "
                                              "t = 1e6*R/c"),
    # An unambiguous abbreviation is accepted, and so are the cures the
    # coulomb and geometry errors name.
    "abbreviated --steps": ([*_PHASE, "--t-max", "1tp", "--ste", "1"], 0, None, None),
    "coulomb displacement --dx-min 1lp": (["bounds", "--coupling", "coulomb", "--q-a", "1e3",
                                           "--q-b", "1e3", "--m-a", "1mp", "--d", "10lp",
                                           "--r", "2000lp", "--dx-min", "1lp"], 0, None, None),
    "r/d 10 --override-geometry": (["simulate", "--model", "phase", "--m-a", "1mp", "--d", "1lp",
                                    "--r", "10lp", "--t-max", "1tp", "--steps", "2",
                                    "--override-geometry"], 0, None, None),
}


def usage_outcome(returncode, stdout, stderr):
    """(exit code, error code, message, stderr) of one run: a failure's
    error object, read from stdout; a success has neither code nor message."""
    if returncode == 0:
        return 0, None, None, stderr
    error = json.loads(stdout)["error"]
    return returncode, error["code"], error["message"], stderr


def _compared(message):
    """The part of a message that reads the same on every supported Python
    version: argparse words what follows an invalid choice differently."""
    return message and "".join(message.partition("invalid choice")[:2])


def usage_matches(name, outcome):
    """Whether outcome is what USAGE_CASES pins for the named case.  A
    message from argparse starts with its parser's prog, and stderr then
    starts with that parser's usage line; any other run leaves stderr empty."""
    _, *pinned, message = USAGE_CASES[name]
    *got, got_message, stderr = outcome
    if (message or "").startswith("interferobounds"):
        prog = message.partition(":")[0]
        stderr_ok = stderr.startswith(f"usage: {prog} ") and "Traceback" not in stderr
    else:
        stderr_ok = stderr == ""
    return stderr_ok and (*got, _compared(got_message)) == (*pinned, _compared(message))


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
