"""Seeded inputs for the four benchmark workloads, and the checks on their outputs.

Every input is drawn from the documented far-field domain: source mass
m_a from 1e6 to 1e12 m_P, path separation d from 1 to 1e6 l_P, and r/d
from 1e2 to 1e6, all log-uniform.  Coulomb cases draw q_a from 1e3 to 1e6
q_P, q_b from 1 to 1e3 q_P and a trap floor dx_min from 1 to 1e3 l_P.  The
probe mass stays at its default of 1 m_P.  Draws are never filtered by
outcome: an input that fails is a failed operation.

The checks use closed forms written here, independently of the package:
tb_eta = 4*eta^3*m*d, r_max_displacement = m*d/2,
tb_phase_exact = pi*r*(r+d)/(K*d), and the closed-form orthogonalization
time of two equal-width Gaussian branches under constant forces.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field, replace

# Relative tolerance for formulas that differ from the package only by the
# order of floating-point operations.
FORMULA_RTOL = 1e-12
# The package bisects the orthogonalization time to 1e-9 relative width.
ORTH_RTOL = 1e-6
# Spot checks per large CSV output.
SPOT_ROWS = 64

EPS = 0.01  # near-orthogonality threshold, the CLI default
SIGMA0 = 1.0  # initial probe width in l_P, the CLI default
M_B = 1.0  # probe mass in m_P, the CLI default


def _loguniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


@dataclass(frozen=True)
class Scenario:
    """One draw from the far-field domain, in Planck units."""

    m_a: float
    d: float
    r: float
    coulomb: bool = False
    q_a: float | None = None
    q_b: float | None = None
    dx_min: float | None = None

    @property
    def k(self) -> float:
        """Pair coupling K."""
        return self.q_a * self.q_b if self.coulomb else self.m_a * M_B

    def flags(self, skip: str = "") -> list[str]:
        """CLI flags for this scenario, without the swept one."""
        out = []
        for name, flag, value, unit in (
            ("m_a", "--m-a", self.m_a, "mp"),
            ("d", "--d", self.d, "lp"),
            ("r", "--r", self.r, "lp"),
        ):
            if name != skip:
                out += [flag, f"{value!r}{unit}"]
        if self.coulomb:
            out += [
                "--coupling", "coulomb",
                "--q-a", repr(self.q_a),
                "--q-b", repr(self.q_b),
                "--dx-min", f"{self.dx_min!r}lp",
            ]
        return out

    def with_value(self, name: str, value: float) -> "Scenario":
        return replace(self, **{name: value})


def draw_scenario(rng: random.Random, coulomb: bool) -> Scenario:
    m_a = _loguniform(rng, 1e6, 1e12)
    d = _loguniform(rng, 1.0, 1e6)
    r = d * _loguniform(rng, 1e2, 1e6)
    if not coulomb:
        return Scenario(m_a, d, r)
    return Scenario(
        m_a, d, r, True,
        _loguniform(rng, 1e3, 1e6),
        _loguniform(rng, 1.0, 1e3),
        _loguniform(rng, 1.0, 1e3),
    )


# --- closed forms ----------------------------------------------------------------


def r_max_displacement(s: Scenario) -> float:
    return s.k / M_B * s.d / 2.0


def tb_phase_exact(s: Scenario) -> float:
    return math.pi * s.r * (s.r + s.d) / (s.k * s.d)


def tb_eta(eta: float, s: Scenario) -> float:
    return 4.0 * eta ** 3 * (s.k / M_B) * s.d


def orthogonalization_time(s: Scenario) -> float:
    """Crossing |<L|R>| = eps for branches under the exact differential force.

    ln(1/|<L|R>|) = (dF^2/2)*(sigma0^2*t^2 + t^4/(16*m_B^2*sigma0^2)),
    a quadratic in t^2 solved in its cancellation-free form.
    """
    d_force = s.k * s.d * (2.0 * s.r + s.d) / (s.r * s.r * (s.r + s.d) ** 2)
    ln_inv = math.log(1.0 / EPS)
    a = d_force * d_force / (32.0 * M_B * M_B * SIGMA0 * SIGMA0)
    b = d_force * d_force * SIGMA0 * SIGMA0 / 2.0
    return math.sqrt(2.0 * ln_inv / (b + math.sqrt(b * b + 4.0 * a * ln_inv)))


def _close(got: float, want: float, rtol: float) -> bool:
    return abs(got - want) <= rtol * abs(want)


# --- CLI operations ----------------------------------------------------------------


@dataclass(frozen=True)
class CliOp:
    """One CLI invocation and what its output must satisfy."""

    kind: str
    argv: list[str]
    scenario: Scenario | None = None
    rows: int = 0  # CSV data rows expected; 0 for JSON output
    extra: dict = field(default_factory=dict)


def _bounds_op(rng, coulomb: bool, model: str) -> CliOp:
    s = draw_scenario(rng, coulomb)
    return CliOp(f"bounds-{model}", ["bounds", *s.flags(), "--model", model], s,
                 extra={"model": model})


def _causal_op(rng) -> CliOp:
    r = _loguniform(rng, 1e2, 1e12)
    # T_A + T_B at least 5% away from the 2R/c boundary on either side.
    share = rng.uniform(0.5, 0.95) if rng.random() < 0.5 else rng.uniform(1.05, 1.5)
    total = 2.0 * r * share
    t_a = total * rng.uniform(0.1, 0.9)
    t_b = total - t_a
    argv = ["causal", "--t-a", f"{t_a!r}tp", "--t-b", f"{t_b!r}tp", "--r", f"{r!r}lp"]
    return CliOp("causal", argv, extra={"r": r, "t_a": t_a, "t_b": t_b})


def _sweep_op(rng, name: str, coulomb: bool, points: int) -> CliOp:
    s = draw_scenario(rng, coulomb)
    if name == "eta":
        lo = rng.uniform(0.001, 0.01)
        hi = rng.uniform(0.99, 0.999)
        argv = ["sweep", "--sweep", "eta", "--from", repr(lo), "--to", repr(hi),
                "--points", str(points), *s.flags(skip="r")]
        return CliOp("sweep-eta", argv, s, points)
    if name == "r":
        lo, hi = s.d * 1e2, s.d * 1e6
        unit = "lp"
    elif name == "d":
        # Every grid point stays inside the domain: 1 <= d <= 1e6 and
        # 1e2 <= r/d <= 1e6.
        lo, hi = max(1.0, s.r / 1e6), min(1e6, s.r / 1e2)
        unit = "lp"
    else:
        lo, hi = 1e6, 1e12
        unit = "mp"
    argv = ["sweep", "--sweep", name, "--from", f"{lo!r}{unit}", "--to", f"{hi!r}{unit}",
            "--points", str(points), "--log", *s.flags(skip=name)]
    return CliOp(f"sweep-{name}", argv, s, points, {"swept": name})


def _simulate_op(rng, model: str, coulomb: bool, steps: int) -> CliOp:
    s = draw_scenario(rng, coulomb)
    argv = ["simulate", "--model", model, *s.flags(), "--t-max", "auto",
            "--steps", str(steps)]
    return CliOp(f"simulate-{model}", argv, s, steps + 1, {"model": model})


def oneshot_ops(rng: random.Random, scale: float = 1.0) -> list[CliOp]:
    """Twelve single invocations of every subcommand, in a seeded order."""
    ops = [
        _bounds_op(rng, False, "displacement"),
        _bounds_op(rng, False, "phase"),
        _bounds_op(rng, False, "both"),
        _bounds_op(rng, True, "phase"),
        _bounds_op(rng, True, "both"),
        _causal_op(rng),
        _causal_op(rng),
        _sweep_op(rng, "r", False, 16),
        _sweep_op(rng, "d", True, 16),
        _sweep_op(rng, "eta", False, 16),
        _simulate_op(rng, "displacement", False, 16),
        _simulate_op(rng, "phase", rng.random() < 0.5, 16),
    ]
    rng.shuffle(ops)
    return ops[: max(2, round(len(ops) * scale))]


def _size(n: int, scale: float) -> int:
    return max(4, round(n * scale))


def sweep_ops(rng: random.Random, scale: float = 1.0) -> list[CliOp]:
    """Three large sweeps sized to take about the same time each."""
    return [
        _sweep_op(rng, "r", False, _size(30_000, scale)),
        _sweep_op(rng, rng.choice(("m_a", "d")), True, _size(30_000, scale)),
        _sweep_op(rng, "eta", rng.random() < 0.5, _size(200_000, scale)),
    ]


def simulate_ops(rng: random.Random, scale: float = 1.0) -> list[CliOp]:
    """One displacement and one phase series, sized to take about the same time."""
    return [
        _simulate_op(rng, "displacement", rng.random() < 0.5, _size(22_000, scale)),
        _simulate_op(rng, "phase", rng.random() < 0.5, _size(220_000, scale)),
    ]


def library_scenarios(rng: random.Random, scale: float = 1.0) -> list[tuple[Scenario, float, float]]:
    """Scenarios with T_A and T_B at least 5% away from the 2R/c boundary."""
    out = []
    for _ in range(_size(400, scale)):
        s = draw_scenario(rng, rng.random() < 0.25)
        share = rng.uniform(0.5, 0.95) if rng.random() < 0.5 else rng.uniform(1.05, 1.5)
        total = 2.0 * s.r * share
        t_a = total * rng.uniform(0.1, 0.9)
        out.append((s, t_a, total - t_a))
    return out


# --- output checks -------------------------------------------------------------------


class CheckFailed(Exception):
    pass


def _reject_constant(name: str):
    raise CheckFailed(f"non-strict JSON constant {name}")


def strict_json(text: str) -> dict:
    try:
        obj = json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:
        raise CheckFailed(f"invalid JSON: {exc}") from None
    if isinstance(obj, dict) and "error" in obj:
        raise CheckFailed(f"JSON error object: {obj['error']}")
    return obj


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def check_cli_output(op: CliOp, stdout: bytes) -> None:
    """Validate one invocation's stdout; raises CheckFailed."""
    text = stdout.decode("utf-8")
    if op.rows == 0:
        obj = strict_json(text)
        if op.kind == "causal":
            _check_causal(op, obj["results"])
        else:
            _check_report(op.scenario, op.extra["model"], obj["results"])
        return
    if text.lstrip().startswith("{"):
        strict_json(text)  # an error object raises here
    lines = text.split("\n")
    _expect(lines[-1] == "", "CSV output does not end with a newline")
    lines.pop()
    comments = [line for line in lines if line.startswith("#")]
    body = lines[len(comments):]
    _expect(len(comments) + len(body) == len(lines), "comment line after the header")
    header, rows = body[0].split(","), body[1:]
    _expect(len(rows) == op.rows, f"{len(rows)} CSV rows, expected {op.rows}")
    step = max(1, len(rows) // SPOT_ROWS)
    picks = sorted(set(range(0, len(rows), step)) | {len(rows) - 1})
    sample = {i: dict(zip(header, map(float, rows[i].split(",")))) for i in picks}
    if op.kind.startswith("sweep"):
        _check_sweep(op, sample.values())
    else:
        _check_simulate(op, comments, sample[len(rows) - 1])


def _check_report(s: Scenario, model: str, res: dict) -> None:
    if model in ("displacement", "both"):
        _expect(_close(res["r_max_displacement"], r_max_displacement(s), FORMULA_RTOL),
                "r_max_displacement differs from m*d/2")
    if model in ("phase", "both"):
        _expect(_close(res["tb_phase_exact"], tb_phase_exact(s), FORMULA_RTOL),
                "tb_phase_exact differs from pi*r*(r+d)/(K*d)")


def _check_causal(op: CliOp, res: dict) -> None:
    r, t_a, t_b = op.extra["r"], op.extra["t_a"], op.extra["t_b"]
    _expect(res["one_way"]["bound"] == r, "one-way bound is not R/c")
    _expect(res["round_trip"]["bound"] == 2.0 * r, "round-trip bound is not 2R/c")
    _expect(res["round_trip"]["ok"] == (t_a + t_b > 2.0 * r), "wrong no-signalling verdict")


def _check_sweep(op: CliOp, rows) -> None:
    s = op.scenario
    for row in rows:
        if op.kind == "sweep-eta":
            _expect(_close(row["tb_eta"], tb_eta(row["eta"], s), FORMULA_RTOL),
                    "tb_eta differs from 4*eta^3*m*d")
        else:
            name = op.extra["swept"]
            _check_report(s.with_value(name, row[name]), "both", row)


def _check_simulate(op: CliOp, comments: list[str], last: dict) -> None:
    s = op.scenario
    words = next(c for c in comments if c.startswith("# simulate")).split()
    t_max = float(words[words.index("t_max") + 1])
    if op.extra["model"] == "displacement":
        _expect(_close(t_max, orthogonalization_time(s), ORTH_RTOL),
                "auto t_max differs from the closed-form orthogonalization time")
    else:
        _expect(_close(t_max, tb_phase_exact(s), FORMULA_RTOL),
                "auto t_max differs from pi*r*(r+d)/(K*d)")
        _expect(_close(last["delta_phi"], math.pi, FORMULA_RTOL),
                "final differential phase is not pi")
    # The CLI computes the last time as t_max*steps/steps.
    _expect(_close(last["t"], t_max, FORMULA_RTOL), "series does not end at t_max")


def check_library(s: Scenario, t_a: float, t_b: float, result) -> None:
    report, t_orth, record, verdict = result
    _check_report(s, "both", report.as_dict())
    _expect(_close(t_orth, orthogonalization_time(s), ORTH_RTOL),
            "orthogonalization_time differs from the closed form")
    _expect(_close(record.delta_phi, math.pi, FORMULA_RTOL),
            "phase at tb_phase is not pi")
    _expect(verdict.no_signalling_ok == (t_a + t_b > 2.0 * s.r), "wrong no-signalling verdict")
    _expect(abs(verdict.margin - (t_a + t_b - 2.0 * s.r)) <= FORMULA_RTOL * 4.0 * s.r,
            "no-signalling margin differs from T_A + T_B - 2R/c")


def library_digest_text(result) -> str:
    """Exact text of a library result, for the determinism digest."""
    report, t_orth, record, verdict = result
    return repr((sorted(report.as_dict().items()), t_orth, record, verdict)) + "\n"
