"""Command line front end.

Subcommands: bounds (JSON feasibility report), sweep (CSV over one
parameter), simulate (CSV wavepacket or phase time series), causal (JSON
timing verdict).  Inputs accept unit suffixes kg, m, s, C (SI) and mp, lp,
tp (Planck); bare numbers follow --units (default planck).  Output is
deterministic: identical invocations produce identical bytes.

Exit codes: 0 success, 2 invalid input or a result out of floating-point
range, 3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import replace

from . import __version__, bounds, causal, dynamics
from .errors import ConvergenceError, InvalidInputError
from .scenario import ScenarioParams, _check_positive, replace_swept
from .units import CHARGE, LENGTH, MASS, TIME, Quantity, _si_unit, from_planck, to_planck

# Each kind of quantity: its dimension and Planck suffix; units names its SI unit.
# Charges take no Planck suffix; a bare number under --units planck is one.
_KINDS = {
    "mass": (MASS, "mp"),
    "length": (LENGTH, "lp"),
    "time": (TIME, "tp"),
    "charge": (CHARGE, None),
}
# Unit suffix -> (kind, unit system).
_SUFFIXES = {_si_unit(dim): (kind, "si") for kind, (dim, _) in _KINDS.items()}
_SUFFIXES.update({unit: (kind, "planck") for kind, (_, unit) in _KINDS.items() if unit})
_TOKEN_RE = re.compile(
    rf"^([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)({'|'.join(_SUFFIXES)})?$"
)

# Each flag (by argparse dest) that takes a quantity, and the quantity's kind.
_QUANTITY_FLAGS = {
    "m_a": "mass",
    "m_b": "mass",
    "d": "length",
    "r": "length",
    "q_a": "charge",
    "q_b": "charge",
    "dx_min": "length",
    "t_a": "time",
    "t_b": "time",
    "sigma0": "length",
}


def _parse_quantity(flag: str, text: str, kind: str, units_mode: str) -> tuple[float, float]:
    """Parse the token given to flag into (planck_value, si_value).  The
    CLI's one sign check: a negative number is refused here, before any unit
    conversion.  Zero is left to whatever reads the value."""
    match = _TOKEN_RE.match(text.strip())
    if match is None:
        raise InvalidInputError(f"cannot parse quantity {text!r}")
    value = float(match.group(1))
    if value < 0.0:
        raise InvalidInputError(f"nonpositive {kind} {flag} {text!r}")
    suffix = match.group(2)
    if suffix is None:
        system = units_mode
    else:
        suffix_kind, system = _SUFFIXES[suffix]
        if suffix_kind != kind:
            raise InvalidInputError(f"{text!r} has dimension {suffix_kind}, expected {kind}")
    dim = _KINDS[kind][0]
    if system == "planck":
        return value, from_planck(value, dim).value
    return to_planck(Quantity(value, dim)), value


def _read_quantities(args, names) -> tuple[dict, dict]:
    """Parse the named quantity flags that were given into ({name: planck
    value}, input echo).  m_a, d and r must be given wherever they are named."""
    planck: dict = {}
    echo: dict = {"units": args.units}
    for name in names:
        raw = getattr(args, name)
        flag = f"--{name.replace('_', '-')}"
        if raw is None:
            if name in ("m_a", "d", "r"):
                raise InvalidInputError(f"missing required parameter {flag}")
            continue
        kind = _QUANTITY_FLAGS[name]
        p_val, si_val = _parse_quantity(flag, raw, kind, args.units)
        planck[name] = p_val
        echo[name] = {"planck": p_val, "si": si_val, "si_unit": _si_unit(_KINDS[kind][0])}
    return planck, echo


def _parse_bare(text: str, name: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise InvalidInputError(f"{name} must be a plain number, got {text!r}") from None


def _checked_float(check):
    """An argparse type: a float that check accepts, so that --slack and
    --eps are checked even where a model echoes or ignores them."""

    def parse(text: str) -> float:
        try:
            value = float(text)
            check(value)
        except ValueError as exc:  # InvalidInputError is a ValueError
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    return parse


# How every number is written as text: 17 significant digits give back the
# same double when read, and a bool prints as 1 or 0.
_NUMBER = "%.17g"


def _fmt(value) -> str:
    return _NUMBER % value


def _scenario_from_args(args, skip: tuple[str, ...] = ()):
    """Build ScenarioParams from parsed flags; returns (params, input_echo)."""
    names = [n for n in ("m_a", "m_b", "d", "r", "q_a", "q_b", "dx_min") if n not in skip]
    planck, echo = _read_quantities(args, names)
    echo["coupling"] = args.coupling
    echo["r_over_d_min"] = args.r_over_d_min
    params = ScenarioParams(
        m_a=planck.get("m_a", 1.0),
        d=planck.get("d", 1.0),
        r=planck.get("r", 1.0),
        m_b=planck.get("m_b", 1.0),
        coupling=args.coupling,
        q_a=planck.get("q_a"),
        q_b=planck.get("q_b"),
        delta_x_min=planck.get("dx_min"),
        r_over_d_min=args.r_over_d_min,
        override_geometry=args.override_geometry,
    )
    return params, echo


def _envelope(command: str, input_echo: dict, results: dict, provenance: dict) -> dict:
    return {
        "tool": "interferobounds",
        "version": __version__,
        "command": command,
        "input": input_echo,
        "results": results,
        "provenance": provenance,
    }


def _emit(args, text: str) -> None:
    data = text.encode("utf-8")
    out = getattr(args, "out", None)
    if out:
        try:
            with open(out, "wb") as fh:
                fh.write(data)
        except OSError as exc:
            raise InvalidInputError(
                f"cannot write --out {out!r}: {exc.strerror or exc}"
            ) from None
    else:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()


def _emit_json(args, payload: dict) -> None:
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        raise ArithmeticError("a result is infinite or NaN") from None
    _emit(args, text + "\n")


def _csv(comments: list[str], header: list[str], rows) -> str:
    """CSV text; each row is formatted as it arrives, so a generator of
    rows is never held whole.  Raises ArithmeticError if a value is
    infinite or NaN, before anything is written."""
    template = ",".join([_NUMBER] * len(header))
    body = "\n".join([template % row for row in rows])
    # A finite number written with _NUMBER holds no letter n; inf and nan do.
    if "n" in body:
        raise ArithmeticError("a CSV value is infinite or NaN")
    lines = [f"# {c}" for c in comments]
    return "\n".join([*lines, ",".join(header), body, ""])


def _cmd_bounds(args) -> int:
    params, echo = _scenario_from_args(args)
    echo["model"] = args.model
    echo["slack"] = args.slack
    report = bounds.feasibility_report(params, args.model, args.slack)
    env = _envelope("bounds", echo, report.as_dict(), report.provenance)
    _emit_json(args, env)
    return 0


def _cmd_causal(args) -> int:
    planck, echo = _read_quantities(args, ("r", "t_a", "t_b"))
    r_p, ta_p, tb_p = planck["r"], planck["t_a"], planck["t_b"]
    strict = echo["strict"] = not args.non_strict
    # Masses and separation are irrelevant to the timing checks.
    params = ScenarioParams(m_a=1.0, d=r_p, r=r_p, t_a=ta_p, t_b=tb_p)
    verdict = causal.check_no_signalling(params, strict=strict)
    timeline = causal.build_timeline(params)
    results = {
        "events": [{"label": e.label, "t": e.t, "x": e.x} for e in timeline.events()],
        "one_way": {
            "bound": bounds.ta_tb_min_one_way(r_p),
            "ok": causal.meets_one_way_bound(ta_p, tb_p, r_p, strict=strict),
        },
        "round_trip": {
            "bound": bounds.ta_tb_min_round_trip(r_p),
            "ok": verdict.no_signalling_ok,
            "margin": verdict.margin,
            "explanation": verdict.explanation,
        },
        "backreaction_free": causal.backreaction_free(tb_p, r_p),
    }
    provenance = {
        "one_way.bound": "R/c",
        "round_trip.bound": "2*R/c",
        "round_trip.margin": "T_A + T_B - 2*R/c",
        "backreaction_free": "T_B < R/c",
        "events": "t in t_P, x in l_P",
    }
    _emit_json(args, _envelope("causal", echo, results, provenance))
    return 0


def _grid(lo: float, hi: float, points: int, log: bool):
    """points values from lo to hi, evenly spaced on a linear or log scale."""
    if points < 2:
        raise InvalidInputError(f"points must be >= 2, got {points}")
    if not lo < hi:
        raise InvalidInputError(f"sweep needs from < to, got {lo!r} .. {hi!r}")
    n = points - 1
    if not log:
        return (lo + i * (hi - lo) / n for i in range(points))
    if lo <= 0.0:
        raise InvalidInputError("log scale requires from > 0")
    la, lb = math.log10(lo), math.log10(hi)
    return (10.0 ** (la + i * (lb - la) / n) for i in range(points))


def _cmd_sweep(args) -> int:
    name = args.sweep
    params, _ = _scenario_from_args(args, skip=("r",) if name == "eta" else (name,))
    if name == "eta":
        lo = _parse_bare(args.sweep_from, "eta from")
        hi = _parse_bare(args.to, "eta to")
        provenance = dict(bounds.ETA_COLUMNS)
        m_eff, d = params.effective_source_mass, params.d

        def row(eta):
            return (eta, *bounds.eta_row(eta, m_eff, d))

    else:
        kind = _QUANTITY_FLAGS[name]
        lo, _ = _parse_quantity("--from", args.sweep_from, kind, args.units)
        hi, _ = _parse_quantity("--to", args.to, kind, args.units)
        provenance = bounds.report_provenance(params.coupling, args.model)
        # Set once, so report_values need not copy each row's params again.
        base = replace(params, override_geometry=True)

        def row(value):
            p = replace_swept(base, name, value)
            return (value, *bounds.report_values(p, args.model, args.slack).values())

    grid = _grid(lo, hi, args.points, args.log)
    comments = [
        f"interferobounds {__version__}",
        f"sweep {name} from {_fmt(lo)} to {_fmt(hi)} points {args.points} "
        f"scale {'log' if args.log else 'linear'} (planck units)",
    ]
    comments.extend(f"provenance: {c} = {f}" for c, f in provenance.items())
    _emit(args, _csv(comments, [name, *provenance], map(row, grid)))
    return 0


def _cmd_simulate(args) -> int:
    params, _ = _scenario_from_args(args)
    sigma0 = _read_quantities(args, ("sigma0",))[0]["sigma0"]
    _check_positive("sigma0", "length", sigma0)
    if args.steps < 1:
        raise InvalidInputError(f"steps must be >= 1, got {args.steps}")

    if args.t_max == "auto":
        if args.model == "displacement":
            t_max = dynamics.orthogonalization_time(params, sigma0, args.eps)
        else:
            t_max = bounds.tb_phase(params, "exact")
    else:
        t_max, _ = _parse_quantity("--t-max", args.t_max, "time", args.units)

    times = (
        [0.0]
        if t_max == 0.0
        else [t_max * i / args.steps for i in range(args.steps + 1)]
    )
    if not math.isfinite(times[-1]):
        raise ArithmeticError(f"the time grid to t-max {t_max!r} in {args.steps} steps overflows")
    comments = [
        f"interferobounds {__version__}",
        f"simulate {args.model} t_max {_fmt(t_max)} steps {args.steps} (planck units)",
    ]
    if args.model == "displacement":
        header = ["t", "mean_x_l", "mean_x_r", "sigma_x", "overlap_magnitude"]
        comments.append("positive x points from the probe toward the source")

        def row(t):
            pair = dynamics.displacement_branches(params, sigma0, t)
            left, right = pair.left, pair.right
            return t, left.mean_x, right.mean_x, left.sigma_x, pair.overlap_magnitude

    else:
        header = ["t", "delta_phi", "overlap_magnitude"]

        def row(t):
            rec = dynamics.phase_evolution(params, t)
            return t, rec.delta_phi, rec.overlap_magnitude

    _emit(args, _csv(comments, header, map(row, times)))
    return 0


def _add_units_flags(sp) -> None:
    sp.add_argument("--units", choices=("si", "planck"), default="planck",
                    help="system for bare numbers (suffixed values override)")
    sp.add_argument("--out", default=None, help="write output bytes to this file")


def _add_scenario_flags(sp, required: tuple[str, ...] = ()) -> None:
    sp.add_argument("--m-a", required="m_a" in required, help="source mass")
    sp.add_argument("--m-b", default="1mp", help="probe mass (default 1mp)")
    sp.add_argument("--d", required="d" in required, help="path separation")
    sp.add_argument("--r", required="r" in required, help="source-probe distance")
    sp.add_argument("--coupling", choices=("gravity", "coulomb"), default="gravity")
    sp.add_argument("--q-a", default=None, help="source charge (coulomb)")
    sp.add_argument("--q-b", default=None, help="probe charge (coulomb)")
    sp.add_argument("--dx-min", default=None,
                    help="trap confinement floor (default 1lp for gravity)")
    sp.add_argument("--r-over-d-min", type=float, default=100.0,
                    help="far-field validity threshold for R/d")
    sp.add_argument("--override-geometry", action="store_true",
                    help="evaluate far-field formulas even when R/d is below the threshold")


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors become invalid-input errors, so
    they reach stdout as the JSON error object; subparsers inherit this."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise InvalidInputError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="interferobounds",
        description="Timing, causality, and separation bounds for mass and "
        "charge interferometry, with wavepacket cross-checks.",
    )
    ap.add_argument("--version", action="version", version=f"interferobounds {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bounds", help="JSON feasibility report for one scenario")
    _add_scenario_flags(b, required=("m_a", "d", "r"))
    b.add_argument("--model", choices=("displacement", "phase", "both"), default="both")
    b.add_argument("--slack", type=_checked_float(bounds._check_slack), default=1.0,
                   help="multiplier on the displacement target (default 1)")
    _add_units_flags(b)
    b.set_defaults(func=_cmd_bounds)

    s = sub.add_parser("sweep", help="CSV of bounds over one swept parameter")
    _add_scenario_flags(s)
    s.add_argument("--sweep", required=True, choices=("m_a", "m_b", "d", "r", "eta"))
    s.add_argument("--from", dest="sweep_from", required=True, help="sweep start")
    s.add_argument("--to", required=True, help="sweep end")
    s.add_argument("--points", type=int, required=True)
    s.add_argument("--log", action="store_true", help="logarithmic grid")
    s.add_argument("--model", choices=("displacement", "phase", "both"), default="both")
    s.add_argument("--slack", type=_checked_float(bounds._check_slack), default=1.0)
    _add_units_flags(s)
    s.set_defaults(func=_cmd_sweep)

    m = sub.add_parser("simulate", help="CSV time series from the wavepacket or phase oracle")
    _add_scenario_flags(m, required=("m_a", "d", "r"))
    m.add_argument("--model", choices=("displacement", "phase"), required=True)
    m.add_argument("--t-max", required=True,
                   help="series end time, or 'auto' for the model's orthogonalization time")
    m.add_argument("--steps", type=int, required=True)
    m.add_argument("--sigma0", default="1lp", help="initial probe width (default 1lp)")
    m.add_argument("--eps", type=_checked_float(dynamics._check_eps), default=0.01,
                   help="near-orthogonality threshold for auto t-max")
    _add_units_flags(m)
    m.set_defaults(func=_cmd_simulate)

    c = sub.add_parser("causal", help="JSON timing verdict and event table")
    c.add_argument("--t-a", required=True, help="interferometer duration")
    c.add_argument("--t-b", required=True, help="probe measurement duration")
    c.add_argument("--r", required=True, help="source-probe distance")
    c.add_argument("--non-strict", action="store_true",
                   help="count the exact boundary as satisfying the bounds")
    _add_units_flags(c)
    c.set_defaults(func=_cmd_causal)

    return ap


_VALUE_FLAGS = frozenset(
    [*(f"--{name.replace('_', '-')}" for name in _QUANTITY_FLAGS), "--t-max", "--from", "--to"]
)


def _merge_negative_values(argv: list[str]) -> list[str]:
    # argparse mistakes a negative quantity like -1mp for an option; fold it
    # into --flag=value form so validation can reject it with a clear error.
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in _VALUE_FLAGS and tok.startswith("-") and _TOKEN_RE.match(tok):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def _emit_error(code: str, exc: Exception) -> None:
    sys.stdout.write(
        json.dumps({"error": {"code": code, "message": str(exc)}}, indent=2, sort_keys=True)
        + "\n"
    )


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _build_parser().parse_args(_merge_negative_values(list(argv)))
        return args.func(args)
    except ArithmeticError as exc:
        # Overflow, underflow to a zero divisor, or a result that strict
        # JSON cannot hold; caught first, because a NonFiniteError is also an
        # InvalidInputError.  float ** raises OverflowError(errno, text).
        # Every input is checked positive, so a zero divisor is an underflow.
        if isinstance(exc, ZeroDivisionError):
            detail = "a divisor underflowed to zero"
        else:
            detail = exc.args[-1] if exc.args else exc
        _emit_error("out-of-range", f"result outside the floating-point range: {detail}")
        return 2
    except InvalidInputError as exc:
        _emit_error("invalid-input", exc)
        return 2
    except ConvergenceError as exc:
        _emit_error("no-convergence", exc)
        return 3
