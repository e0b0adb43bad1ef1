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
import os
import re
import sys
from itertools import chain

from . import __version__, bounds, causal
from .errors import ConvergenceError, InvalidInputError
from .scenario import _SWEPT_FIELDS, CouplingKind, ScenarioParams, _check_positive
from .units import KINDS, from_planck, to_planck

# Unit suffix -> (kind, unit system), from the units table.
_SUFFIXES = {si: (kind, "si") for kind, (si, _, _) in KINDS.items()}
_SUFFIXES.update({planck: (kind, "planck") for kind, (_, planck, _) in KINDS.items() if planck})
_TOKEN_RE = re.compile(
    rf"^([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)({'|'.join(_SUFFIXES)})?$"
)

# Each flag (by argparse dest) that takes a quantity, and the quantity's kind.
_QUANTITY_FLAGS = {
    **_SWEPT_FIELDS,
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
    if system == "planck":
        return value, from_planck(value, kind)
    return to_planck(value, kind), value


def _read_quantities(args, names) -> tuple[dict, dict]:
    """Parse the named quantity flags that were given into ({name: planck
    value}, input echo)."""
    planck: dict = {}
    echo: dict = {"units": args.units}
    for name in names:
        raw = getattr(args, name)
        if raw is None:
            continue
        kind = _QUANTITY_FLAGS[name]
        p_val, si_val = _parse_quantity(f"--{name.replace('_', '-')}", raw, kind, args.units)
        planck[name] = p_val
        echo[name] = {"planck": p_val, "si": si_val, "si_unit": KINDS[kind][0]}
    return planck, echo


def _parse_bare(text: str, name: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise InvalidInputError(f"{name} must be a plain number, got {text!r}") from None


# How every number is written as text: 17 significant digits give back the
# same double when read, and a bool prints as 1 or 0.
_NUMBER = "%.17g"


def _fmt(value) -> str:
    return _NUMBER % value


def _scenario_from_args(args):
    """Build ScenarioParams from parsed flags; returns (params, input_echo)."""
    planck, echo = _read_quantities(args, ("m_a", "m_b", "d", "r", "q_a", "q_b", "dx_min"))
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
    try:
        if out:
            with open(out, "wb") as fh:
                fh.write(data)
        elif sys.stdout is None:  # fd 1 was closed when Python started
            raise OSError("stdout is closed")
        elif hasattr(sys.stdout, "buffer"):
            sys.stdout.buffer.write(data)
            sys.stdout.buffer.flush()
        else:  # a text stream without a binary buffer, such as io.StringIO
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:
        target = f"--out {out!r}" if out else "stdout"
        raise InvalidInputError(f"cannot write {target}: {exc.strerror or exc}") from None


def _json(payload: dict) -> str:
    """Strict JSON text, or ArithmeticError if a value is infinite or NaN."""
    try:
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:
        raise ArithmeticError("a result is infinite or NaN") from None


def _csv(comments: list[str], header: list[str], rows, constants=None) -> str:
    """CSV text, or ArithmeticError if a value is infinite or NaN.

    constants maps the columns that hold one value on every row to that
    value, which is formatted once, into the row template; each row then
    holds the other columns only.  The formatted body is held whole until
    the scan passes, which is what keeps such a CSV from being written at
    all."""
    constants = constants or {}
    template = ",".join([_fmt(constants[c]) if c in constants else _NUMBER for c in header])
    body = "\n".join([template % row for row in rows])
    # A finite number written with _NUMBER holds no letter n; inf and nan do.
    if "n" in body:
        raise ArithmeticError("a CSV value is infinite or NaN")
    lines = [f"# {c}" for c in comments]
    return "\n".join([*lines, ",".join(header), body, ""])


def _cmd_bounds(args) -> int:
    bounds._check_slack(args.slack)
    params, echo = _scenario_from_args(args)
    echo["model"] = args.model
    echo["slack"] = args.slack
    report = bounds.feasibility_report(params, args.model, args.slack)
    env = _envelope("bounds", echo, report.as_dict(), report.provenance)
    _emit(args, _json(env))
    return 0


def _cmd_causal(args) -> int:
    planck, echo = _read_quantities(args, ("r", "t_a", "t_b"))
    r_p, ta_p, tb_p = planck["r"], planck["t_a"], planck["t_b"]
    strict = echo["strict"] = not args.non_strict
    # Masses and separation are irrelevant to the timing checks.
    params = ScenarioParams(m_a=1.0, d=1.0, r=r_p, t_a=ta_p, t_b=tb_p)
    verdict = causal.check_no_signalling(params, strict=strict)
    timeline = causal.build_timeline(params)
    results = {
        "events": [{"label": e.label, "t": e.t, "x": e.x} for e in timeline],
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
    _emit(args, _json(_envelope("causal", echo, results, provenance)))
    return 0


def _grid(lo: float, hi: float, points: int, log: bool):
    """points values from exactly lo to exactly hi, evenly spaced on a
    linear or log scale; between finite ends >= 0, none overflows."""
    if points < 2:
        raise InvalidInputError(f"points must be >= 2, got {points}")
    if not lo < hi:
        raise InvalidInputError(f"sweep needs from < to, got {lo!r} .. {hi!r}")
    n = points - 1
    if not log:
        inner = (lo + (hi - lo) * (i / n) for i in range(1, n))
    elif lo <= 0.0:
        raise InvalidInputError("log scale requires from > 0")
    else:
        la, lb = math.log10(lo), math.log10(hi)
        inner = (10.0 ** (la + i * (lb - la) / n) for i in range(1, n))
    return chain((lo,), inner, (hi,))


def _cmd_sweep(args) -> int:
    bounds._check_slack(args.slack)
    name = args.sweep
    # The swept flag need not be given (nor --r for eta), but is read if it is.
    swept = "r" if name == "eta" else name
    for needed in ("m_a", "d", "r"):
        if needed != swept and getattr(args, needed) is None:
            raise InvalidInputError(f"missing required parameter --{needed.replace('_', '-')}")
    params, _ = _scenario_from_args(args)
    if name == "eta":
        lo = _parse_bare(args.sweep_from, "eta from")
        hi = _parse_bare(args.to, "eta to")
        provenance = dict(bounds.ETA_COLUMNS)
        m_eff = params.effective_source_mass
        grid = _grid(lo, hi, args.points, args.log)
        constants, rows = None, bounds.eta_series(m_eff, params.d, grid)
    else:
        kind = _QUANTITY_FLAGS[name]
        lo, _ = _parse_quantity("--from", args.sweep_from, kind, args.units)
        hi, _ = _parse_quantity("--to", args.to, kind, args.units)
        provenance = bounds.report_provenance(params.coupling, args.model)
        grid = _grid(lo, hi, args.points, args.log)
        # The columns that do not read the swept field are evaluated and
        # formatted once; each row carries the others.
        constants, rows = bounds.report_series(params, args.model, args.slack, name, grid)

    comments = [
        f"interferobounds {__version__}",
        f"sweep {name} from {_fmt(lo)} to {_fmt(hi)} points {args.points} "
        f"scale {'log' if args.log else 'linear'} (planck units)",
    ]
    comments.extend(f"provenance: {c} = {f}" for c, f in provenance.items())
    _emit(args, _csv(comments, [name, *provenance], rows, constants))
    return 0


def _cmd_simulate(args) -> int:
    from . import dynamics  # only simulate pays for importing it

    dynamics._check_eps(args.eps)
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

    if not math.isfinite(t_max):
        raise ArithmeticError(f"the time grid to t-max {t_max!r} in {args.steps} steps overflows")
    times = [0.0] if t_max == 0.0 else _grid(0.0, t_max, args.steps + 1, False)
    comments = [
        f"interferobounds {__version__}",
        f"simulate {args.model} t_max {_fmt(t_max)} steps {args.steps} (planck units)",
    ]
    if args.model == "displacement":
        header = ["t", "mean_x_l", "mean_x_r", "sigma_x", "overlap_magnitude"]
        comments.append("positive x points from the probe toward the source")
        rows = dynamics.displacement_series(params, sigma0, times)
    else:
        header = ["t", "delta_phi", "overlap_magnitude"]
        rows = dynamics.phase_series(params, times)
    _emit(args, _csv(comments, header, rows))
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
    sp.add_argument("--coupling", choices=[k.value for k in CouplingKind], default="gravity")
    sp.add_argument("--q-a", default=None, help="source charge (coulomb)")
    sp.add_argument("--q-b", default=None, help="probe charge (coulomb)")
    sp.add_argument("--dx-min", default=None,
                    help="trap confinement floor (default 1lp for gravity)")
    sp.add_argument("--r-over-d-min", type=float, default=100.0,
                    help="far-field validity threshold for R/d")
    sp.add_argument("--override-geometry", action="store_true",
                    help="evaluate far-field formulas even when R/d is below the threshold")


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors become invalid-input errors (the
    JSON object on stdout) and whose help and version text leaves via _emit."""

    def _print_message(self, message: str, file=None) -> None:
        # Only help and version text comes here; error() writes its own usage.
        _emit(None, message)

    def error(self, message: str):
        try:  # the usage line goes to stderr, and is dropped if it is closed or full
            sys.stderr.write(self.format_usage())
        except (AttributeError, OSError):
            pass
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
    b.add_argument("--model", choices=tuple(bounds._ROWS), default="both")
    b.add_argument("--slack", type=float, default=1.0,
                   help="multiplier on the displacement target (default 1)")
    _add_units_flags(b)
    b.set_defaults(func=_cmd_bounds)

    s = sub.add_parser("sweep", help="CSV of bounds over one swept parameter")
    _add_scenario_flags(s)
    s.add_argument("--sweep", required=True, choices=(*_SWEPT_FIELDS, "eta"))
    s.add_argument("--from", dest="sweep_from", required=True, help="sweep start")
    s.add_argument("--to", required=True, help="sweep end")
    s.add_argument("--points", type=int, required=True)
    s.add_argument("--log", action="store_true", help="logarithmic grid")
    s.add_argument("--model", choices=tuple(bounds._ROWS), default="both")
    s.add_argument("--slack", type=float, default=1.0)
    _add_units_flags(s)
    s.set_defaults(func=_cmd_sweep)

    m = sub.add_parser("simulate", help="CSV time series from the wavepacket or phase oracle")
    _add_scenario_flags(m, required=("m_a", "d", "r"))
    m.add_argument("--model", choices=("displacement", "phase"), required=True)
    m.add_argument("--t-max", required=True,
                   help="series end time, or 'auto' for the model's orthogonalization time")
    m.add_argument("--steps", type=int, required=True)
    m.add_argument("--sigma0", default="1lp", help="initial probe width (default 1lp)")
    m.add_argument("--eps", type=float, default=0.01,
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


def _merge_negative_values(argv: list[str]) -> list[str]:
    # argparse mistakes a negative value like -1mp or -1e-3 for an option;
    # fold it into --flag=value form so the flag's own check reads it.
    out: list[str] = []
    for tok in argv:
        if out and out[-1].startswith("--") and tok.startswith("-") and _TOKEN_RE.match(tok):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def _emit_error(code: str, exc: Exception) -> None:
    # To stdout, even when --out is given; to stderr if stdout cannot take it.
    text = _json({"error": {"code": code, "message": str(exc)}})
    try:
        _emit(None, text)
    except InvalidInputError:
        # Python flushes stdout again at exit, and would print the failure
        # then; pointing its descriptor at devnull drops the bytes it holds.
        if sys.stdout:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        if sys.stderr:
            sys.stderr.write(text)


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
