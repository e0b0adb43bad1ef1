import math
import random

import numpy as np
import pytest

from interferobounds import bounds
from interferobounds.bounds import (
    differential_force,
    displacement_shift,
    eta_row,
    eta_series,
    feasibility_report,
    phase_difference,
    r_implied,
    r_max_displacement,
    r_max_phase,
    report_provenance,
    report_series,
    report_values,
    ta_lower_bound,
    ta_min_one_way,
    ta_min_round_trip,
    ta_tb_min_one_way,
    ta_tb_min_round_trip,
    tb_displacement,
    tb_eta,
    tb_phase,
)
from interferobounds.errors import GeometryError, InvalidInputError
from interferobounds.scenario import CouplingKind, ScenarioParams, replace_swept
from interferobounds.units import from_planck, to_planck

from eta_oracle import optimize_eta
from scenario_copy import validated_copy
from series_draws import report_draw


def scenario(**kw):
    base = dict(m_a=1.0, d=1.0, r=1000.0)
    base.update(kw)
    return ScenarioParams(**base)


# --- one-way / round-trip floors -------------------------------------------


def test_round_trip_is_twice_one_way():
    rng = np.random.default_rng(3)
    for _ in range(50):
        r = float(10.0 ** rng.uniform(-6, 12))
        assert ta_tb_min_round_trip(r) == 2.0 * ta_tb_min_one_way(r)


def test_timing_floor_si_values():
    r = to_planck(3e8, "length")
    one_way = from_planck(ta_tb_min_one_way(r), "time")
    round_trip = from_planck(ta_tb_min_round_trip(r), "time")
    assert one_way == pytest.approx(1.0007, rel=1e-4)
    assert round_trip == pytest.approx(2.0014, rel=1e-4)


# --- differential force ------------------------------------------------------


def test_differential_force_exact_over_approx_series():
    # Series oracle: ratio = 2*(1 - 1.5*(d/r)) + O((d/r)^2).
    p = scenario(d=1.0, r=1e4)
    ratio = differential_force(p, "exact") / differential_force(p, "approx")
    eps = 1.0 / 1e4
    assert ratio == pytest.approx(2.0 * (1.0 - 1.5 * eps), abs=5 * eps ** 2)
    assert ratio == pytest.approx(1.9997, abs=1e-4)


def test_differential_force_vanishes_with_separation():
    prev = None
    for d in (1e-6, 1e-9, 1e-12):
        p = scenario(d=d, r=1.0, override_geometry=True)
        exact = differential_force(p, "exact")
        approx = differential_force(p, "approx")
        assert 0.0 <= exact < 3.0 * d
        assert approx == pytest.approx(d, rel=1e-12)
        if prev is not None:
            assert exact < prev
        prev = exact


def test_differential_force_ratio_approaches_two_monotonically():
    ratios = []
    for rd in (1e2, 1e3, 1e4, 1e6):
        p = scenario(d=1.0, r=rd)
        ratios.append(differential_force(p, "exact") / differential_force(p, "approx"))
    assert all(a < b for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] == pytest.approx(2.0, abs=1e-5)


# Every far-field function, in each of its modes, as a call on one scenario.
_GATED = {
    "differential_force approx": lambda p: differential_force(p, "approx"),
    "differential_force exact": lambda p: differential_force(p, "exact"),
    "tb_displacement": lambda p: tb_displacement(p, 2.0),
    "tb_phase approx": lambda p: tb_phase(p, "approx"),
    "tb_phase exact": lambda p: tb_phase(p, "exact"),
    "phase_difference approx": lambda p: phase_difference(p, 3.0, "approx"),
    "phase_difference exact": lambda p: phase_difference(p, 3.0, "exact"),
}


def test_geometry_gate_requires_override():
    near = scenario(d=1.0, r=10.0)
    twin = scenario(d=1.0, r=10.0, override_geometry=True)
    message = ("far-field formulas need r/d >= 100.0, got r/d = 10.0; "
               "set override_geometry to evaluate anyway")
    for name, call in _GATED.items():
        with pytest.raises(GeometryError) as got:
            call(near)
        assert str(got.value) == message, name
        assert call(twin) > 0.0, name
    # The report evaluates past the gate and flags the geometry instead.
    for model in ("displacement", "phase", "both"):
        assert report_values(near, model) == report_values(twin, model)
        assert feasibility_report(near, model) == feasibility_report(twin, model)
    assert report_values(near)["geometry_valid"] is False


def test_report_builds_no_scenario(monkeypatch):
    built = []
    post_init = ScenarioParams.__post_init__
    monkeypatch.setattr(ScenarioParams, "__post_init__",
                        lambda self: built.append(self) or post_init(self))
    scenarios = [
        scenario(d=1.0, r=10.0),
        scenario(m_a=1e6, d=1e6, r=1e8, m_b=3.0),
        scenario(coupling=CouplingKind.COULOMB, q_a=1e3, q_b=10.0, delta_x_min=2.0),
    ]
    assert len(built) == 3
    for p in scenarios:
        for model in ("displacement", "phase", "both"):
            report_values(p, model, 2.0)
            feasibility_report(p, model, 0.5)
    assert len(built) == 3


# --- displacement shift ------------------------------------------------------


def test_displacement_shift_quadratic_scaling():
    base = displacement_shift(1.3, 2.1, 1.7)
    assert displacement_shift(1.3, 2.1, 3.4) == pytest.approx(4.0 * base, rel=1e-12)


# --- tb_displacement ---------------------------------------------------------


def test_tb_displacement_inverse_sqrt_mass_scaling():
    p = scenario(m_a=1.0, d=1.0, r=1e4)
    p4 = validated_copy(p, m_a=4.0)
    assert tb_displacement(p4) == pytest.approx(0.5 * tb_displacement(p), rel=1e-12)


def test_tb_displacement_matches_tb_eta_on_grid():
    rng = np.random.default_rng(5)
    for _ in range(20):
        m_a = float(10.0 ** rng.uniform(0, 9))
        d = float(10.0 ** rng.uniform(-3, 6))
        for eta in np.linspace(0.1, 0.9, 9):
            r = 2.0 * eta * eta * m_a * d
            p = ScenarioParams(m_a=m_a, d=d, r=r, override_geometry=True)
            assert tb_displacement(p) == pytest.approx(
                tb_eta(float(eta), m_a, d), rel=1e-12
            )


def test_tb_displacement_slack_scaling():
    p = scenario(m_a=1.0, d=1.0, r=1e4)
    assert tb_displacement(p, slack=4.0) == pytest.approx(
        2.0 * tb_displacement(p), rel=1e-12
    )


def test_tb_displacement_survives_an_overflowed_pair_coupling():
    # m_a*m_b overflows to inf, which used to give 0.0; K/m_B is m_a itself.
    p = ScenarioParams(m_a=1e200, m_b=1e200, d=1.0, r=1e10)
    exact = 1.414213562373095e-85
    assert abs(tb_displacement(p) - exact) <= 4 * math.ulp(exact)
    assert report_values(p, "displacement")["tb_displacement"] == tb_displacement(p)


@pytest.mark.parametrize("coulomb", [False, True])
def test_tb_displacement_at_unit_probe_mass_keeps_the_pair_form(coulomb):
    # At m_B = 1, K/m_B is K exactly, so sqrt(2*slack*dx*R^3/((K/m_B)*d))
    # rounds as sqrt(2*slack*dx*m_B*R^3/(K*d)) does, bit for bit.
    rng = np.random.default_rng(59)
    draws = np.vstack([
        10.0 ** rng.uniform(-30.0, 30.0, size=(4, 2000)),
        10.0 ** rng.uniform([[2.0], [-3.0]], [[20.0], [3.0]], size=(2, 2000)),
        rng.uniform(0.1, 10.0, size=(1, 2000)),
    ])
    for m_a, q_a, q_b, d, r_over_d, dx, slack in draws.T.tolist():
        charges = dict(coupling=CouplingKind.COULOMB, q_a=q_a, q_b=q_b) if coulomb else {}
        p = scenario(m_a=m_a, d=d, r=d * r_over_d, delta_x_min=dx, **charges)
        pair_form = math.sqrt(2.0 * slack * dx * p.m_b * p.r ** 3 / (p.pair_coupling * d))
        assert tb_displacement(p, slack) == pair_form


@pytest.mark.parametrize("slack", [0.0, -1.0, math.nan, math.inf])
def test_slack_must_be_finite_and_positive(slack):
    message = f"slack must be finite and positive, got {slack!r}"
    # No delta_x_min, and K*d underflows to zero: any arithmetic before the
    # slack check would raise a different error.
    unreadable = ScenarioParams(m_a=1.0, d=1e-200, r=1e-190, coupling=CouplingKind.COULOMB,
                                q_a=1e-200, q_b=1e-200)
    for call in (
        lambda: tb_displacement(scenario(r=1e4), slack),
        lambda: tb_displacement(scenario(r=10.0), slack),
        lambda: r_max_displacement(1.0, 1.0, slack),
        lambda: report_values(unreadable, "displacement", slack),
        lambda: feasibility_report(unreadable, "both", slack),
        lambda: feasibility_report(unreadable, "phase", slack),
    ):
        with pytest.raises(InvalidInputError) as got:
            call()
        assert str(got.value) == message
    with pytest.raises(InvalidInputError, match="explicit delta_x_min"):
        report_values(unreadable, "displacement")


def test_tb_displacement_coulomb_with_explicit_floor_matches_gravity():
    ok = ScenarioParams(m_a=1.0, d=1.0, r=1e4, coupling=CouplingKind.COULOMB, q_a=10.0,
                        q_b=10.0, delta_x_min=1.0)
    # Same coupling K = 100 as a gravity pair with m_a*m_b = 100.
    grav = ScenarioParams(m_a=100.0, d=1.0, r=1e4)
    assert tb_displacement(ok) == pytest.approx(tb_displacement(grav), rel=1e-12)


# --- eta family --------------------------------------------------------------


def test_eta_family_equals_closed_forms_bit_for_bit():
    rng = np.random.default_rng(43)
    for _ in range(2000):
        eta = float(rng.uniform(1e-6, 1.0 - 1e-6))
        m_a = float(10.0 ** rng.uniform(-160, 160))
        d = float(10.0 ** rng.uniform(-160, 160))
        tb = 4.0 * eta ** 3 * m_a * d
        ta = 4.0 * eta * eta * (1.0 - eta) * m_a * d
        r = 2.0 * eta * eta * m_a * d
        assert (tb_eta(eta, m_a, d), ta_lower_bound(eta, m_a, d), r_implied(eta, m_a, d)) == (
            tb, ta, r)
        assert eta_row(eta, m_a, d) == (tb, ta, 4.0 * eta * eta * m_a * d, r)


def test_optimize_eta_matches_analytic():
    opt = optimize_eta()
    assert opt.eta_star == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert opt.coefficient == pytest.approx(16.0 / 27.0, abs=1e-9)
    assert "golden-section" in opt.method


def test_optimize_eta_coefficient_bounds_grid_of_ta():
    etas = np.linspace(1e-6, 1.0 - 1e-6, 200_001)
    m_a, d = 3.0, 7.0
    ta = 4.0 * (etas ** 2 - etas ** 3) * m_a * d
    coeff_grid = float(np.max(ta) / (m_a * d))
    assert optimize_eta().coefficient == pytest.approx(coeff_grid, abs=1e-9)


# --- strongest floors --------------------------------------------------------


def test_ta_min_linear_scaling():
    base = ta_min_round_trip(2.0, 3.0)
    assert ta_min_round_trip(4.0, 3.0) == pytest.approx(2.0 * base, rel=1e-12)
    assert ta_min_round_trip(2.0, 6.0) == pytest.approx(2.0 * base, rel=1e-12)


def test_gravity_source_strength_is_exactly_m_a():
    rng = np.random.default_rng(53)
    for m_a, m_b in 10.0 ** rng.uniform(-300.0, 300.0, size=(2000, 2)):
        p = scenario(m_a=float(m_a), m_b=float(m_b))
        assert p.effective_source_mass == m_a
    # m_a*m_b overflows, and used to take K/m_B with it.
    assert scenario(m_a=1e200, m_b=1e200).effective_source_mass == 1e200


# --- back-reaction radii -----------------------------------------------------


def test_r_max_displacement_planck_mass_marginal():
    # m_a = 2 gives r_max = d: incompatible with r >> d, so only sources
    # far above the Planck mass admit back-reaction-free measurements.
    d = 5.0
    r_max = r_max_displacement(2.0, d)
    assert r_max == d
    p = ScenarioParams(m_a=2.0, d=d, r=r_max, override_geometry=True)
    assert not p.geometry_valid


# --- phase model -------------------------------------------------------------


def test_phase_difference_modes_ratio():
    rng = np.random.default_rng(31)
    for _ in range(100):
        r = float(10.0 ** rng.uniform(1, 8))
        d = r / float(10.0 ** rng.uniform(2, 5))
        p = ScenarioParams(m_a=2.0, m_b=3.0, d=d, r=r, override_geometry=True)
        t = float(10.0 ** rng.uniform(0, 6))
        exact = phase_difference(p, t, "exact")
        approx = phase_difference(p, t, "approx")
        assert exact / approx == pytest.approx(r / (r + d), rel=1e-12)


def test_phase_difference_zero_time_and_linearity():
    p = scenario(m_a=2.0, m_b=3.0, d=1.0, r=1e4)
    assert phase_difference(p, 0.0) == 0.0
    base = phase_difference(p, 2.0)
    assert phase_difference(p, 4.0) == pytest.approx(2.0 * base, rel=1e-12)
    doubled_k = validated_copy(p, m_a=4.0)
    assert phase_difference(doubled_k, 2.0) == pytest.approx(2.0 * base, rel=1e-12)


def test_phase_difference_approx_ratio_at_1e4():
    p = scenario(d=1.0, r=1e4)
    ratio = phase_difference(p, 1.0, "exact") / phase_difference(p, 1.0, "approx")
    assert ratio == pytest.approx(0.9999, abs=1e-5)


def test_tb_phase_planck_substitution():
    p = ScenarioParams(m_a=1.0, m_b=1.0, d=10.0, r=1000.0)
    assert tb_phase(p, "approx") == pytest.approx(math.pi * 1000.0 ** 2 / 10.0, rel=1e-12)
    assert tb_phase(p, "exact") / tb_phase(p, "approx") == pytest.approx(
        (1000.0 + 10.0) / 1000.0, rel=1e-12
    )


def test_tb_phase_planck_mass_pair_contradiction():
    # With m_a = m_b = m_P the phase back-reaction radius is d/pi, which
    # contradicts r >> d: the pair coupling must far exceed one.
    p = ScenarioParams(m_a=1.0, m_b=1.0, d=10.0, r=1000.0)
    r_max = r_max_phase(p.m_a, p.m_b, p.d)
    assert r_max == pytest.approx(10.0 / math.pi, rel=1e-12)
    assert r_max < p.d < p.r


def test_r_max_phase_values_and_symmetry():
    assert r_max_phase(1.0, 1.0, 3.0) == pytest.approx(3.0 / math.pi, rel=1e-12)
    assert r_max_phase(20.0 * math.pi, 5.0, 1.0) == pytest.approx(100.0, rel=1e-12)
    assert r_max_phase(3.0, 7.0, 2.0) == r_max_phase(7.0, 3.0, 2.0)


# --- homogeneity -------------------------------------------------------------


def test_bounds_scaling_exponents():
    rng = np.random.default_rng(37)
    for _ in range(50):
        m_a = float(10.0 ** rng.uniform(0, 8))
        d = float(10.0 ** rng.uniform(-2, 4))
        s = float(10.0 ** rng.uniform(-2, 2))
        assert ta_min_round_trip(s * m_a, d) == pytest.approx(
            s * ta_min_round_trip(m_a, d), rel=1e-12
        )
        assert r_max_displacement(m_a, s * d) == pytest.approx(
            s * r_max_displacement(m_a, d), rel=1e-12
        )
        p = ScenarioParams(m_a=m_a, d=d, r=1e6 * d)
        ps = validated_copy(p, r=s * 1e6 * d, override_geometry=True)
        assert tb_displacement(ps) == pytest.approx(
            s ** 1.5 * tb_displacement(p), rel=1e-12
        )
        assert tb_phase(ps, "approx") == pytest.approx(
            s ** 2 * tb_phase(p, "approx"), rel=1e-12
        )


# --- feasibility report ------------------------------------------------------


def test_report_example_values():
    p = ScenarioParams(m_a=1e6, d=1e6, r=1e8)
    rep = feasibility_report(p)
    assert rep.r_max_displacement == pytest.approx(5e11, rel=1e-12)
    assert rep.displacement_backreaction_free is True
    assert rep.geometry_valid is True
    assert rep.ta_min_round_trip / rep.ta_min_one_way == 8.0
    assert rep.source_planck_ratio == 1e6
    assert rep.provenance["tb_displacement"].startswith("sqrt(")


def test_report_phase_infeasible_for_planck_masses():
    for rd in (100.0, 1e4, 1e8):
        p = ScenarioParams(m_a=1.0, m_b=1.0, d=1.0, r=rd)
        rep = feasibility_report(p, "phase")
        assert rep.phase_backreaction_free is False
        assert rep.tb_displacement is None


def test_report_model_subsets():
    p = ScenarioParams(m_a=1e6, d=1e6, r=1e8)
    disp = feasibility_report(p, "displacement")
    assert disp.tb_phase_exact is None
    assert disp.tb_displacement is not None


def test_report_coulomb_substitution():
    p = ScenarioParams(
        m_a=1.0,
        m_b=1.0,
        d=10.0,
        r=2000.0,
        coupling=CouplingKind.COULOMB,
        q_a=1e3,
        q_b=1e3,
    )
    rep = feasibility_report(p, "phase")
    assert rep.pair_planck_ratio == 1e6
    assert rep.r_max_phase == pytest.approx(1e6 * 10.0 / math.pi, rel=1e-12)
    assert rep.phase_backreaction_free is True
    assert rep.provenance["source_planck_ratio"] == "q_A/q_P"


def test_report_flag_consistency_random():
    rng = np.random.default_rng(41)
    for _ in range(200):
        p = ScenarioParams(
            m_a=float(10.0 ** rng.uniform(0, 10)),
            d=float(10.0 ** rng.uniform(-2, 4)),
            r=float(10.0 ** rng.uniform(0, 12)),
            m_b=float(10.0 ** rng.uniform(-2, 4)),
        )
        rep = feasibility_report(p)
        assert rep.displacement_backreaction_free == (
            p.r < rep.r_max_displacement
        )
        assert rep.phase_backreaction_free == (p.r < rep.r_max_phase)
        assert rep.geometry_valid == (p.r / p.d >= p.r_over_d_min)


def test_report_provenance_names_an_unknown_coupling():
    with pytest.raises(InvalidInputError) as expected:
        ScenarioParams(m_a=1.0, d=1.0, r=1.0, coupling="foo")
    with pytest.raises(InvalidInputError) as got:
        report_provenance("foo")
    assert str(got.value) == str(expected.value) == "unknown coupling 'foo'"
    for model in ("displacement", "phase", "both"):
        assert report_provenance("coulomb", model) == report_provenance(CouplingKind.COULOMB, model)


def _far_field_draws(rng):
    """Scenarios in the report's own domain, half of them coulomb."""
    for coulomb in (False, True) * 50:
        kw = dict(
            m_a=float(10.0 ** rng.uniform(6, 12)),
            d=float(10.0 ** rng.uniform(0, 6)),
            m_b=float(10.0 ** rng.uniform(-2, 4)),
        )
        kw["r"] = kw["d"] * float(10.0 ** rng.uniform(2, 6))
        if coulomb:
            kw.update(
                coupling=CouplingKind.COULOMB,
                q_a=float(10.0 ** rng.uniform(3, 6)),
                q_b=float(10.0 ** rng.uniform(0, 3)),
                delta_x_min=float(10.0 ** rng.uniform(0.5, 3)),
            )
        yield ScenarioParams(**kw)


@pytest.mark.parametrize("slack", [1.0, 2.5])
def test_report_fields_equal_their_public_functions(slack):
    # The rows call unchecked bodies on the validated fields.  Far-field
    # draws, the accuracy test's extreme ones (1e+-30, near field and
    # coulomb included) and the perturbation draws, where rows raise: each
    # row must give its public function's value, or its error.
    report_rng, perturbation_rng = random.Random(47), np.random.default_rng(53)
    scenarios = [
        *_far_field_draws(np.random.default_rng(43)),
        *(report_draw(report_rng)[0] for _ in range(300)),
        *(_perturbation_draw(perturbation_rng, coulomb)[0] for coulomb in (False, True) * 150),
    ]
    for p in scenarios:
        # The public functions that take a scenario apply the geometry gate.
        ungated = validated_copy(p, override_geometry=True)
        public = {
            "tb_displacement": lambda: tb_displacement(ungated, slack),
            "ta_min_round_trip": lambda: ta_min_round_trip(p.effective_source_mass, p.d),
            "ta_min_one_way": lambda: ta_min_one_way(p.effective_source_mass, p.d),
            "r_max_displacement": lambda: r_max_displacement(p.effective_source_mass, p.d, slack),
            "tb_phase_exact": lambda: tb_phase(ungated, "exact"),
            "tb_phase_approx": lambda: tb_phase(ungated, "approx"),
            "r_max_phase": lambda: r_max_phase(p.source_strength, p.probe_strength, p.d),
        }
        rows = _row_outcomes(p, slack)
        for field, call in public.items():
            x = _outcome(call)
            assert rows[field] == (x if type(x) is tuple else (type(x), repr(x))), (field, p, slack)


@pytest.mark.parametrize("coulomb", [False, True])
@pytest.mark.parametrize("name", ["m_a", "m_b", "d", "r"])
def test_replace_swept_rejects_what_replace_rejects(name, coulomb):
    kw = dict(m_a=1e9, d=1e4, r=1e8, m_b=2.0, override_geometry=True)
    if coulomb:
        kw.update(coupling=CouplingKind.COULOMB, q_a=1e3, q_b=10.0, delta_x_min=3.0)
    base = ScenarioParams(**kw)
    for value in (0.0, -0.0, -1.0, math.nan, math.inf, -math.inf, 5e-324, 3.5):
        try:
            expected = validated_copy(base, **{name: value})
        except InvalidInputError as exc:
            with pytest.raises(InvalidInputError) as got:
                replace_swept(base, name, value)
            assert str(got.value) == str(exc)
        else:
            got = replace_swept(base, name, value)
            assert type(got) is ScenarioParams
            assert vars(got) == vars(expected)
            assert got == expected and hash(got) == hash(expected)
    assert base == ScenarioParams(**kw)
    with pytest.raises(InvalidInputError, match="cannot sweep"):
        replace_swept(base, "q_a", 1.0)


# --- report and eta series --------------------------------------------------


def _row_outcomes(p, slack):
    """Each report row's value, or the type and message of what it raises,
    with every row before it evaluated the same way.  A row that reads a
    row that raised gets that row's outcome, as the report raises it."""
    values, outcomes = {}, {}
    for field, _, _, value in bounds._REPORT:
        try:
            values[field] = value(p, slack, values)
            outcomes[field] = (type(values[field]), repr(values[field]))
        except KeyError as exc:
            outcomes[field] = outcomes[exc.args[0]]
        except Exception as exc:
            outcomes[field] = (type(exc), str(exc))
    return outcomes


def _perturbation_draw(rng, coulomb):
    """A seeded scenario: half of the draws far-field, half anywhere in the
    double range, where rows overflow, underflow and raise."""
    lo, hi = (-300.0, 300.0) if rng.random() < 0.5 else (-2.0, 12.0)
    kw = {name: float(10.0 ** rng.uniform(lo, hi)) for name in ("m_a", "m_b", "d", "r")}
    if coulomb:
        kw.update(coupling=CouplingKind.COULOMB, q_a=float(10.0 ** rng.uniform(lo, hi)),
                  q_b=float(10.0 ** rng.uniform(lo, hi)))
        if rng.random() < 0.8:
            kw["delta_x_min"] = float(10.0 ** rng.uniform(lo, hi))
    return ScenarioParams(**kw), float(rng.choice((1.0, 2.5, 10.0 ** rng.uniform(-3, 3))))


@pytest.mark.parametrize("coulomb", [False, True])
@pytest.mark.parametrize("name", ["m_a", "m_b", "d", "r"])
def test_report_series_constants_hold_at_every_value_of_the_swept_field(name, coulomb):
    # Each field report_series finds constant must give the same bits, or
    # raise the same error, whatever the value of name: a read it cannot
    # see would print a stale value.
    rng = np.random.default_rng(4701 + 2 * ["m_a", "m_b", "d", "r"].index(name) + coulomb)
    set_up = 0
    for _ in range(300):
        p, slack = _perturbation_draw(rng, coulomb)
        series = []
        for model in ("displacement", "phase", "both"):
            try:
                series.append(report_series(p, model, slack, name, [getattr(p, name)])[0])
            except (ArithmeticError, InvalidInputError):
                pass  # the first value fails: the series prints no constant
        set_up += len(series)
        for _ in range(3):
            lo, hi = rng.choice(((-300.0, 300.0), (-2.0, 12.0)))
            moved = _row_outcomes(replace_swept(p, name, float(10.0 ** rng.uniform(lo, hi))), slack)
            for constants in series:
                for field, x in constants.items():
                    assert moved[field] == (type(x), repr(x)), (field, p, slack)
    assert set_up >= 300


def _varying(coupling, model, name):
    kw = dict(m_a=1e9, d=1e4, r=1e8, m_b=2.0, coupling=coupling)
    if coupling is CouplingKind.COULOMB:
        kw.update(q_a=1e3, q_b=10.0, delta_x_min=3.0)
    constants, _ = report_series(ScenarioParams(**kw), model, 1.0, name, [kw[name]])
    return [field for field in report_values(ScenarioParams(**kw), model) if field not in constants]


_DISPLACEMENT = ["tb_displacement", "ta_min_round_trip", "ta_min_one_way", "r_max_displacement",
                 "displacement_backreaction_free"]
_PHASE = ["tb_phase_exact", "tb_phase_approx", "r_max_phase", "phase_backreaction_free"]
# The rows of a "both" report that read each swept field, by coupling.
_READERS = {
    ("m_a", CouplingKind.GRAVITY): [
        *_DISPLACEMENT, *_PHASE, "source_planck_ratio", "pair_planck_ratio",
        "source_exceeds_planck", "pair_exceeds_planck_sq"],
    ("m_a", CouplingKind.COULOMB): [],
    # Gravity's K/m_B is m_a: no displacement row reads m_b.
    ("m_b", CouplingKind.GRAVITY): [
        *_PHASE, "probe_planck_ratio", "pair_planck_ratio", "probe_exceeds_planck",
        "pair_exceeds_planck_sq"],
    ("m_b", CouplingKind.COULOMB): _DISPLACEMENT,
    ("d", CouplingKind.GRAVITY): [*_DISPLACEMENT, *_PHASE, "geometry_valid"],
    ("d", CouplingKind.COULOMB): [*_DISPLACEMENT, *_PHASE, "geometry_valid"],
    ("r", CouplingKind.GRAVITY): [
        "tb_displacement", "displacement_backreaction_free", "tb_phase_exact",
        "tb_phase_approx", "phase_backreaction_free", "geometry_valid"],
    ("r", CouplingKind.COULOMB): [
        "tb_displacement", "displacement_backreaction_free", "tb_phase_exact",
        "tb_phase_approx", "phase_backreaction_free", "geometry_valid"],
}


def test_report_series_evaluates_only_the_rows_that_read_the_swept_field():
    for (name, coupling), readers in _READERS.items():
        for model in ("displacement", "phase", "both"):
            fields = report_provenance(coupling, model)
            expected = [field for field in readers if field in fields]
            assert _varying(coupling, model, name) == expected, (name, coupling, model)


def _outcome(fn, *args):
    """fn(*args), or the type and message of what it raises."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def test_report_series_equals_report_values_at_every_point():
    rng = np.random.default_rng(4702)
    later_faults = 0
    for coulomb in (False, True) * 200:
        p, slack = _perturbation_draw(rng, coulomb)
        name = str(rng.choice(["m_a", "m_b", "d", "r"]))
        model = str(rng.choice(["displacement", "phase", "both"]))
        values = [float(10.0 ** rng.uniform(-100, 100)) * getattr(p, name) for _ in range(6)]
        expected = [
            _outcome(lambda v: report_values(replace_swept(p, name, v), model, slack), value)
            for value in values
        ]
        series = _outcome(report_series, p, model, slack, name, values)
        if not isinstance(expected[0], dict):
            assert series == expected[0]
            continue
        constants, rows = series
        for value, full in zip(values, expected):
            row = _outcome(next, rows)
            if not isinstance(full, dict):
                assert row == full
                later_faults += 1
                break
            assert row == (value, *[x for f, x in full.items() if f not in constants])
            assert {f: x for f, x in full.items() if f in constants} == constants
    assert later_faults >= 5


def test_report_series_checks_each_value_and_hands_out_no_scenario():
    p = ScenarioParams(m_a=1e9, d=1e4, r=1e8)
    _, rows = report_series(p, "both", 1.0, "r", [1e6, 1e7, -1.0, 1e8])
    assert [row[0] for row in (next(rows), next(rows))] == [1e6, 1e7]
    with pytest.raises(InvalidInputError) as got:
        next(rows)
    with pytest.raises(InvalidInputError) as expected:
        replace_swept(p, "r", -1.0)
    assert str(got.value) == str(expected.value) == "nonpositive length r = -1.0"
    assert p == ScenarioParams(m_a=1e9, d=1e4, r=1e8)
    with pytest.raises(InvalidInputError, match="at least one value"):
        report_series(p, "both", 1.0, "r", [])
    with pytest.raises(InvalidInputError, match="cannot sweep"):
        report_series(p, "both", 1.0, "q_a", [1.0])


def test_eta_series_checks_m_a_and_d_once_and_each_eta():
    def untouched():
        raise AssertionError("the etas were read before m_a and d were checked")
        yield

    for m_a, d, message in ((0.0, 1.0, "nonpositive mass m_a = 0.0"),
                            (1.0, math.nan, "non-finite length d = nan")):
        with pytest.raises(InvalidInputError) as got:
            eta_series(m_a, d, untouched())
        assert str(got.value) == message
    rng = np.random.default_rng(4703)
    etas = [float(e) for e in rng.uniform(0.0, 1.0, 500)]
    m_a, d = float(10.0 ** rng.uniform(-100, 100)), float(10.0 ** rng.uniform(-100, 100))
    assert list(eta_series(m_a, d, etas)) == [(e, *eta_row(e, m_a, d)) for e in etas]
    rows = eta_series(m_a, d, [0.5, 1.0])
    assert next(rows) == (0.5, *eta_row(0.5, m_a, d))
    with pytest.raises(InvalidInputError, match=r"open interval \(0, 1\), got 1.0"):
        next(rows)
