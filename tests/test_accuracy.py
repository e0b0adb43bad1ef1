"""Printed numbers against a 50-digit mpmath reference."""

import json
import math
import random

import mpmath
import pytest

from interferobounds import bounds, cli, dynamics
from interferobounds.scenario import CouplingKind

from mp_reference import (
    crossing_reference,
    displacement_reference,
    eta_reference,
    phase_reference,
    provenance_reference,
    report_reference,
    ulps,
)
from series_draws import report_draw, series_draw

# The worst error over 20,000 draws of this domain was 3.33 ulp.
REPORT_ULPS = 4.0
# The worst errors over 20,000 draws of these domains were 1.96 ulp in
# tb_eta, 2.76 in ta_lower_bound, 2.02 in ta_tb_total, 2.02 in r_implied and
# 3.25 in delta_phi.
ETA_ULPS = PHASE_ULPS = 4.0
# The displacement series keeps the oracle's float expressions for its
# means and width.  mean_x_r = 0.5*(K/((R+d)*(R+d)))*t*(t/m_B) rounds eight
# times (R+d counts twice), and the worst over 20,000 draws of this domain
# was 4.29 ulp there, against 2.84 in mean_x_l and 2.39 in sigma_x.
SERIES_ULPS = 5.0
# The closed-form overlap: worst 2.6e-14 relative over 20,000 draws.
OVERLAP_RTOL = 1e-12
# orthogonalization_time bisects to 1e-9 relative width.  On the
# benchmark's domain (m_B = sigma0 = 1) the worst error over 18,000 draws
# was 7.0e-10.  With series_draw's m_B and sigma0 the oracle's own
# cancellation dominates: the worst over 30,000 draws was 3.7e-6.
ORTH_RTOL_BENCH = 2e-9
ORTH_RTOL_SERIES = 1e-5


def _check_report(p, slack, provenance=None):
    """{field: error in ulp} of each report field against the exact value
    of its provenance, by default the printed one; a boolean must equal
    its exact verdict, so its error is 0."""
    got = bounds.report_values(p, "both", slack)
    exact = report_reference(p, slack, provenance)
    assert set(exact) == set(got)
    errors = {}
    for name, reference in exact.items():
        if isinstance(reference, bool):
            assert got[name] is reference, (name, p, slack, got[name])
            errors[name] = 0.0
        else:
            errors[name] = ulps(got[name], reference)
            assert errors[name] <= REPORT_ULPS, (name, p, slack, got[name], reference)
    return errors


def test_report_values_are_within_a_few_ulp_of_mpmath():
    rng = random.Random(67)
    worst, couplings = {}, set()
    for _ in range(4000):
        p, slack = report_draw(rng)
        couplings.add(p.coupling)
        for name, error in _check_report(p, slack).items():
            worst[name] = max(worst.get(name, 0.0), error)
    # Every field was compared, under both couplings, and the rounded ones
    # are not all exact.
    assert set(worst) == set(bounds.report_provenance(CouplingKind.GRAVITY))
    assert max(worst.values()) > 1.0
    assert couplings == set(CouplingKind)


@pytest.mark.parametrize("field, old, new", [
    ("ta_min_round_trip", "(16/27)", "(16/28)"), ("tb_phase_exact", "R*(R+d)", "R*(R-d)")])
def test_a_doctored_provenance_fails_the_report_comparison(field, old, new):
    doctored = {}
    for coupling in CouplingKind:
        doctored[coupling] = provenance = bounds.report_provenance(coupling)
        assert old in provenance[field]
        provenance[field] = provenance[field].replace(old, new)
    rng = random.Random(67)
    with pytest.raises(AssertionError, match=field):
        for _ in range(4000):
            p, slack = report_draw(rng)
            _check_report(p, slack, doctored[p.coupling])


def test_the_evaluated_provenance_is_the_printed_one(capsys):
    # Each model prints its rows of the "both" provenance, in order, and
    # the CLI prints what report_provenance and ETA_COLUMNS hold.
    scenario = ["--m-a", "1e6mp", "--m-b", "2mp", "--d", "1e3lp", "--r", "1e6lp", "--dx-min",
                "1lp", "--q-a", "3", "--q-b", "5"]
    for coupling in CouplingKind:
        both = bounds.report_provenance(coupling)
        covered = set()
        for model in ("displacement", "phase", "both"):
            provenance = bounds.report_provenance(coupling, model)
            assert list(provenance.items()) == [(f, x) for f, x in both.items() if f in provenance]
            covered |= set(provenance)
            argv = ["bounds", *scenario, "--coupling", coupling.value, "--model", model]
            assert cli.main(argv) == 0
            assert json.loads(capsys.readouterr().out)["provenance"] == provenance
        assert covered == set(both)
    assert cli.main(["sweep", "--sweep", "eta", "--from", "0.1", "--to", "0.9", "--points", "2",
                     *scenario]) == 0
    printed = [line.split(": ", 1)[1].split(" = ", 1)
               for line in capsys.readouterr().out.splitlines() if line.startswith("# provenance: ")]
    assert printed == [list(column) for column in bounds.ETA_COLUMNS]


def test_eta_columns_are_within_a_few_ulp_of_mpmath():
    rng = random.Random(71)
    worst = {}
    for _ in range(4000):
        # eta uniform in (0, 1), log-uniform from 1e-6, where eta^3 is tiny,
        # or with 1 - eta log-uniform from 1e-12, where eta^2 - eta^3 cancels.
        kind = rng.randrange(3)
        if kind == 0:
            eta = rng.random()
        elif kind == 1:
            eta = 10.0 ** rng.uniform(-6, 0)
        else:
            eta = 1.0 - 10.0 ** rng.uniform(-12, 0)
        m_a, d = 10.0 ** rng.uniform(-30, 30), 10.0 ** rng.uniform(-30, 30)
        got = dict(zip(dict(bounds.ETA_COLUMNS), bounds.eta_row(eta, m_a, d)))
        exact = eta_reference(eta, m_a, d)
        assert set(exact) == set(got)
        for name, reference in exact.items():
            error = ulps(got[name], reference)
            assert error <= ETA_ULPS, (name, eta, m_a, d, got[name], reference)
            worst[name] = max(worst.get(name, 0.0), error)
    assert set(worst) == set(got) and max(worst.values()) > 1.0


def _causal_draw(rng):
    """T_A, T_B and R: half of them within 1e-16 to 1 relative of the
    round-trip edge T_A + T_B = 2R, on either side; the rest log-uniform."""
    r = 10.0 ** rng.uniform(-30, 30)
    if rng.random() < 0.5:
        total = 2.0 * r * (1.0 + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-16, 0))
        t_b = total * rng.random()
        return total - t_b, t_b, r
    return 10.0 ** rng.uniform(-30, 30), 10.0 ** rng.uniform(-30, 30), r


def test_causal_results_are_their_printed_provenance(capsys):
    rng = random.Random(89)
    worst = 0.0
    for _ in range(500):
        t_a, t_b, r = _causal_draw(rng)
        assert cli.main(["causal", "--t-a", f"{t_a!r}tp", "--t-b", f"{t_b!r}tp",
                         "--r", f"{r!r}lp"]) == 0
        env = json.loads(capsys.readouterr().out)
        provenance = env["provenance"]
        del provenance["events"]  # a units note, not a formula
        exact = provenance_reference(provenance, {"T_A": t_a, "T_B": t_b, "R": r})
        results = env["results"]
        assert results["one_way"]["bound"] == exact.pop("one_way.bound")
        assert results["round_trip"]["bound"] == exact.pop("round_trip.bound")
        assert results["backreaction_free"] is exact.pop("backreaction_free")
        # The margin is (-R + T_A + T_B) - R, rounded twice, so near the
        # edge its relative error has no bound (ROADMAP item 2); its
        # absolute error is within 2 ulp of the larger side (the worst over
        # 20,000 draws was 1.44).
        error = abs(results["round_trip"]["margin"] - exact.pop("round_trip.margin"))
        worst = max(worst, float(error) / math.ulp(max(t_a + t_b, 2.0 * r)))
        assert worst <= 2.0, (t_a, t_b, r)
        assert not exact, exact  # every printed formula was compared
    assert worst > 0.5


def test_exact_phase_difference_is_within_a_few_ulp_of_mpmath():
    rng = random.Random(73)
    worst = 0.0
    for _ in range(4000):
        # Far field only: phase_difference applies the geometry gate.
        p, _ = report_draw(rng, r_over_d_from=2)
        t = 10.0 ** rng.uniform(-30, 30)
        got = bounds.phase_difference(p, t, "exact")
        error = ulps(got, phase_reference(p, t))
        assert error <= PHASE_ULPS, (p, t, got)
        worst = max(worst, error)
    assert worst > 1.0


def test_displacement_series_is_within_a_few_ulp_of_mpmath():
    rng = random.Random(79)
    header = ("t", "mean_x_l", "mean_x_r", "sigma_x", "overlap_magnitude")
    worst = {}
    for _ in range(4000):
        p, sigma0, t = series_draw(rng)
        (row,) = dynamics.displacement_series(p, sigma0, [t])
        exact = displacement_reference(p, sigma0, t)
        assert set(exact) == set(header[1:])
        for name, got in zip(header[1:], row[1:]):
            if name == "overlap_magnitude":
                error = float(abs(mpmath.mpf(got) - exact[name]) / exact[name])
                assert error <= OVERLAP_RTOL, (p, sigma0, t, got, exact[name])
            else:
                error = ulps(got, exact[name])
                assert error <= SERIES_ULPS, (name, p, sigma0, t, got, exact[name])
            worst[name] = max(worst.get(name, 0.0), error)
    assert set(worst) == set(header[1:]) and worst["mean_x_r"] > 1.0


def test_orthogonalization_time_is_the_mpmath_crossing():
    rng = random.Random(83)
    for m_b_decades, rtol in ((0, ORTH_RTOL_BENCH), (3, ORTH_RTOL_SERIES)):
        worst = 0.0
        for _ in range(1500):
            # m_b_decades=0 is the benchmark's domain: m_B = sigma0 = 1.
            p, sigma0, _ = series_draw(rng, m_b_decades=m_b_decades)
            if m_b_decades == 0:
                sigma0 = 1.0
            got = dynamics.orthogonalization_time(p, sigma0, 0.01)
            exact = crossing_reference(p, sigma0, 0.01)
            error = float(abs(mpmath.mpf(got) - exact) / exact)
            assert error <= rtol, (p, sigma0, got, exact)
            worst = max(worst, error)
        # The bisection width shows: the comparison is not vacuous.
        assert worst > 1e-11
