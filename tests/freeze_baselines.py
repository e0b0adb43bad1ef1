#!/usr/bin/env python3
"""Regenerate the frozen test baselines.

Writes the CLI golden files under tests/data/golden/ and the
orthogonalization-time ratio table under tests/data/.  Run from the
repository root after an intentional behavior change:

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

# Criterion grid for the wavepacket-oracle ratio table.
RATIO_GRID = {
    "m_a_planck": [10.0 ** e for e in range(6, 13)],
    "r_over_d": [10.0 ** e for e in range(2, 7)],
    "d_planck": 1e6,
    "m_b_planck": 1.0,
    "sigma0_planck": 1.0,
    "eps": 0.01,
}


def run_cli(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "interferobounds", *argv],
        capture_output=True,
        check=True,
    )
    return proc.stdout


def freeze_golden():
    golden = DATA / "golden"
    golden.mkdir(parents=True, exist_ok=True)
    for name, argv in GOLDEN_COMMANDS.items():
        (golden / name).write_bytes(run_cli(argv))
        print(f"wrote golden/{name}")


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
    freeze_ratio_table()
