"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `python3 -m pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import math
import pathlib
import subprocess
import sys
import time

import numpy as np

from interferobounds import bounds, causal, dynamics
from interferobounds.scenario import ScenarioParams
from interferobounds.units import (
    CHARGE,
    CODATA,
    LENGTH,
    MASS,
    TIME,
    Quantity,
    from_planck,
    to_planck,
)

from eta_oracle import optimize_eta
from freeze_baselines import GOLDEN_COMMANDS

DATA = pathlib.Path(__file__).resolve().parent / "data"
GOLDEN = DATA / "golden"


def _report(n: int, ok: bool, desc: str) -> None:
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {n} failed: {desc}"


def test_criterion_1_eta_optimization():
    t0 = time.perf_counter()
    opt = optimize_eta(grid_points=1_000_001)
    elapsed = time.perf_counter() - t0

    grid = np.linspace(0.0, 1.0, 1_000_001)
    values = 4.0 * (grid ** 2 - grid ** 3)
    brute_idx = int(np.argmax(values))

    ok = (
        abs(opt.coefficient - 16.0 / 27.0) < 1e-9
        and abs(opt.eta_star - 2.0 / 3.0) < 1e-9
        and abs(opt.eta_star - float(grid[brute_idx])) < 1e-6
        and abs(opt.coefficient - float(values[brute_idx])) < 1e-9
        and elapsed < 1.0
    )
    _report(
        1,
        ok,
        f"eta* = {opt.eta_star:.12f}, coeff = {opt.coefficient:.12f}, "
        f"1e6-grid cross-check, runtime {elapsed:.3f}s",
    )


def test_criterion_2_factor_of_eight():
    rng = np.random.default_rng(101)
    ok = True
    for _ in range(1000):
        m_a = float(10.0 ** rng.uniform(-3, 12))
        d = float(10.0 ** rng.uniform(-3, 12))
        ratio = bounds.ta_min_round_trip(m_a, d) / bounds.ta_min_one_way(m_a, d)
        if ratio != 8.0:
            ok = False
            break
    _report(2, ok, "ta_min_round_trip / ta_min_one_way == 8.0 bit-identically, 1000 pairs")


def test_criterion_3_factor_of_two_causality():
    rng = np.random.default_rng(103)
    ok = True
    for _ in range(10_000):
        r = float(10.0 ** rng.uniform(-3, 9))
        total = r * float(rng.uniform(1.0 + 1e-9, 2.0))
        w = float(rng.uniform(0.0, 1.0))
        t_a, t_b = total * w, total * (1.0 - w)
        if not (r < t_a + t_b <= 2.0 * r):
            continue
        p = ScenarioParams(m_a=1.0, d=r, r=r, t_a=t_a, t_b=t_b)
        one_way = causal.meets_one_way_bound(t_a, t_b, r)
        round_trip = causal.check_no_signalling(p).no_signalling_ok
        if not one_way or round_trip:
            ok = False
            break
    # Closed upper boundary: exactly 2R/c is still a round-trip violation.
    p = ScenarioParams(m_a=1.0, d=1.0, r=1.0, t_a=1.5, t_b=0.5)
    ok = ok and causal.meets_one_way_bound(1.5, 0.5, 1.0)
    ok = ok and not causal.check_no_signalling(p).no_signalling_ok
    # Above the round-trip budget both criteria hold.
    for _ in range(2000):
        r = float(10.0 ** rng.uniform(-3, 9))
        total = r * float(rng.uniform(2.0 + 1e-9, 10.0))
        w = float(rng.uniform(0.0, 1.0))
        t_a, t_b = total * w, total * (1.0 - w)
        if not t_a + t_b > 2.0 * r:
            continue
        p = ScenarioParams(m_a=1.0, d=r, r=r, t_a=t_a, t_b=t_b)
        if not (
            causal.meets_one_way_bound(t_a, t_b, r)
            and causal.check_no_signalling(p).no_signalling_ok
        ):
            ok = False
            break
    _report(
        3,
        ok,
        "T_A+T_B in (R/c, 2R/c]: one-way ok and round-trip violated, 10k scenarios; "
        "> 2R/c: both ok",
    )


def test_criterion_4_identity_web():
    rng = np.random.default_rng(107)
    worst = 0.0
    for _ in range(100):
        m_a = float(10.0 ** rng.uniform(0, 10))
        d = float(10.0 ** rng.uniform(-2, 6))
        for eta in np.linspace(0.1, 0.9, 9):
            eta = float(eta)
            r = 2.0 * eta * eta * m_a * d
            p = ScenarioParams(m_a=m_a, d=d, r=r, override_geometry=True)
            tb_e = bounds.tb_eta(eta, m_a, d)
            tb_d = bounds.tb_displacement(p)
            budget = bounds.ta_tb_min_round_trip(r)
            ta = bounds.ta_lower_bound(eta, m_a, d)
            worst = max(
                worst,
                abs(tb_e - tb_d) / tb_e,
                abs(tb_e - eta * budget) / tb_e,
                abs(ta - (budget - tb_e)) / ta,
            )
    _report(4, worst < 1e-12, f"eta identity web, worst relative error {worst:.3e}")


def test_criterion_5_backreaction_radius():
    rng = np.random.default_rng(109)
    ok = True
    for _ in range(10_000):
        m_a = float(10.0 ** rng.uniform(0, 10))
        d = float(10.0 ** rng.uniform(-2, 4))
        r = float(10.0 ** rng.uniform(-1, 12))
        p = ScenarioParams(m_a=m_a, d=d, r=r, override_geometry=True)
        free = causal.backreaction_free(bounds.tb_displacement(p), r)
        if free != (r < bounds.r_max_displacement(m_a, d)):
            ok = False
            break
    # Documented strictness: the exact radius itself is not back-reaction
    # free (tb equals the light time there).
    m_a, d = 8.0, 2.0
    r_edge = bounds.r_max_displacement(m_a, d)
    p_edge = ScenarioParams(m_a=m_a, d=d, r=r_edge, override_geometry=True)
    ok = ok and not causal.backreaction_free(bounds.tb_displacement(p_edge), r_edge)
    _report(5, ok, "backreaction_free(tb_displacement, R) iff R < m_a*d/2, 10k points")


def test_criterion_6_phase_model():
    p = ScenarioParams(m_a=3.0, m_b=5.0, d=10.0, r=4000.0)
    t_exact = bounds.tb_phase(p, "exact")

    # Independent zero finder on cos(delta_phi/2) via the oracle.
    def cos_half(t):
        return math.cos(0.5 * dynamics.phase_evolution(p, t).delta_phi)

    lo, hi = 0.0, t_exact * 3.0
    assert cos_half(lo) > 0.0 > cos_half(hi)
    while hi - lo > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        if cos_half(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    t_zero = 0.5 * (lo + hi)

    ratio_ok = True
    rng = np.random.default_rng(113)
    for _ in range(200):
        q = ScenarioParams(
            m_a=float(10.0 ** rng.uniform(0, 6)),
            m_b=float(10.0 ** rng.uniform(0, 6)),
            d=float(10.0 ** rng.uniform(-2, 3)),
            r=float(10.0 ** rng.uniform(2, 9)),
            override_geometry=True,
        )
        ratio = bounds.tb_phase(q, "exact") / bounds.tb_phase(q, "approx")
        if abs(ratio - (q.r + q.d) / q.r) > 1e-12 * ratio:
            ratio_ok = False
            break

    planck_pair_ok = True
    for rd in (100.0, 1e3, 1e6, 1e9):
        q = ScenarioParams(m_a=1.0, m_b=1.0, d=1.0, r=rd)
        if bounds.feasibility_report(q, "phase").phase_backreaction_free:
            planck_pair_ok = False

    ok = (
        abs(t_zero - t_exact) < 1e-9 * t_exact
        and ratio_ok
        and planck_pair_ok
    )
    _report(
        6,
        ok,
        f"phase zero at tb_phase(exact) (rel err {abs(t_zero - t_exact) / t_exact:.2e}), "
        "exact/approx = (R+d)/R, Planck-mass pair never back-reaction free",
    )


def test_criterion_7_gaussian_oracle_vs_closed_form():
    baseline = json.loads((DATA / "ortho_ratio_baseline.json").read_text())
    grid = baseline["grid"]
    ok = True
    worst_drift = 0.0
    for i, m_a in enumerate(grid["m_a_planck"]):
        for j, rd in enumerate(grid["r_over_d"]):
            p = ScenarioParams(
                m_a=m_a,
                m_b=grid["m_b_planck"],
                d=grid["d_planck"],
                r=grid["d_planck"] * rd,
            )
            ratio = dynamics.orthogonalization_time(
                p, grid["sigma0_planck"], grid["eps"]
            ) / bounds.tb_displacement(p)
            if not 0.01 <= ratio <= 10.0:
                ok = False
            frozen = baseline["ratios"][i][j]
            drift = abs(ratio - frozen) / frozen
            worst_drift = max(worst_drift, drift)
    ok = ok and worst_drift < 1e-6
    _report(
        7,
        ok,
        f"orthogonalization/tb_displacement in [0.01, 10] on the log grid, "
        f"baseline drift {worst_drift:.2e}",
    )


def test_criterion_8_order_one_factor_audit():
    p = ScenarioParams(m_a=2.0, m_b=3.0, d=1.0, r=1e4)
    force_ratio = bounds.differential_force(p, "exact") / bounds.differential_force(
        p, "approx"
    )
    phase_ratio = bounds.phase_difference(p, 1.0, "exact") / bounds.phase_difference(
        p, 1.0, "approx"
    )
    ok = abs(force_ratio - 2.0) < 1e-3 and abs(phase_ratio - 1.0) < 1e-3
    _report(
        8,
        ok,
        f"at R/d = 1e4: force exact/approx = {force_ratio:.6f} (~2), "
        f"phase exact/approx = {phase_ratio:.6f} (~1)",
    )


def test_criterion_9_units_round_trip():
    rng = np.random.default_rng(127)
    dims = (LENGTH, MASS, TIME, CHARGE)
    worst = 0.0
    for i in range(100_000):
        dim = dims[i % 4]
        x = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-40.0, 40.0))
        if i % 2 == 0:
            back = to_planck(from_planck(x, dim))
        else:
            back = from_planck(to_planck(Quantity(x, dim)), dim).value
        worst = max(worst, abs(back - x) / abs(x))

    c_ref, hbar_ref, g_ref = 299792458.0, 1.054571817e-34, 6.67430e-11
    m_p_ref = math.sqrt(hbar_ref * c_ref / g_ref)
    l_p_ref = math.sqrt(hbar_ref * g_ref / c_ref ** 3)
    t_p_ref = l_p_ref / c_ref
    consts_ok = (
        abs(CODATA.m_p.value - m_p_ref) < 1e-9 * m_p_ref
        and abs(CODATA.l_p.value - l_p_ref) < 1e-9 * l_p_ref
        and abs(CODATA.t_p.value - t_p_ref) < 1e-9 * t_p_ref
    )
    ok = worst < 1e-12 and consts_ok
    _report(
        9,
        ok,
        f"SI<->Planck round trip over 1e5 random quantities, worst rel err {worst:.2e}; "
        "Planck scales match CODATA-derived references",
    )


def test_criterion_10_cli_golden_files():
    ok = True
    for name, argv in GOLDEN_COMMANDS.items():
        first = subprocess.run(
            [sys.executable, "-m", "interferobounds", *argv], capture_output=True
        )
        second = subprocess.run(
            [sys.executable, "-m", "interferobounds", *argv], capture_output=True
        )
        if not (
            first.returncode == 0
            and first.stdout == second.stdout
            and first.stdout == (GOLDEN / name).read_bytes()
        ):
            ok = False
            break

    bad = subprocess.run(
        [sys.executable, "-m", "interferobounds", "bounds",
         "--m-a", "-1mp", "--d", "1lp", "--r", "1lp"],
        capture_output=True,
    )
    err = json.loads(bad.stdout)
    ok = (
        ok
        and bad.returncode == 2
        and err["error"]["code"] == "invalid-input"
        and "nonpositive mass" in err["error"]["message"]
    )
    _report(
        10,
        ok,
        "four subcommands byte-identical to golden files across runs; "
        "invalid input exits 2 with the documented error object",
    )
