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
from functools import partial
from itertools import chain, islice

from . import __version__, bounds, causal
from .errors import ConvergenceError, InvalidInputError
from .scenario import _FIELDS, _SWEPT_FIELDS, CouplingKind, ScenarioParams, _check_positive
from .units import KINDS, from_planck, to_planck

# Unit suffix -> (kind, unit system), from the units table.
_SUFFIXES = {si: (kind, "si") for kind, (si, _, _) in KINDS.items()}
_SUFFIXES.update({planck: (kind, "planck") for kind, (_, planck, _) in KINDS.items() if planck})
_TOKEN_RE = re.compile(
    rf"^([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)({'|'.join(_SUFFIXES)})?$"
)

# bounds and simulate require these flags; sweep, which may leave out its swept one, checks them.
_REQUIRED_FLAGS = [f for f in _FIELDS if not f.optional and f.default is None]


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


def _read_fields(args) -> tuple[dict, dict]:
    """({field: planck value}, input echo keyed by flag dest) of the field
    flags this subcommand has and was given, read in table order.  A field
    a sweep may vary that no flag set, such as causal's m_a, is 1.0."""
    planck = dict.fromkeys(_SWEPT_FIELDS, 1.0)
    echo: dict = {"units": args.units}
    for f in _FIELDS:
        dest = f.flag[2:].replace("-", "_")
        raw = getattr(args, dest, None)
        if raw is None:
            continue
        if f.kind in KINDS:
            value, si_val = _parse_quantity(f.flag, raw, f.kind, args.units)
            echo[dest] = {"planck": value, "si": si_val, "si_unit": KINDS[f.kind][0]}
        else:  # a bare number, which argparse read
            value = echo[dest] = raw
        planck[f.name] = value
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
    planck, echo = _read_fields(args)
    echo["coupling"] = args.coupling
    return ScenarioParams(**planck, coupling=args.coupling,
                          override_geometry=args.override_geometry), echo


def _envelope(command: str, input_echo: dict, results: dict, provenance: dict) -> dict:
    return {
        "tool": "interferobounds",
        "version": __version__,
        "command": command,
        "input": input_echo,
        "results": results,
        "provenance": provenance,
    }


def _emit(args, blocks) -> None:
    """Write blocks, a text or a list of encoded blocks, to --out or stdout,
    one write a block."""
    if isinstance(blocks, str):
        blocks = [blocks.encode("utf-8")]
    out = getattr(args, "out", None)
    try:
        if out:
            with open(out, "wb") as fh:
                for block in blocks:
                    fh.write(block)
        elif sys.stdout is None:  # fd 1 was closed when Python started
            raise OSError("stdout is closed")
        elif hasattr(sys.stdout, "buffer"):
            for block in blocks:
                sys.stdout.buffer.write(block)
            sys.stdout.buffer.flush()
        else:  # a text stream without a binary buffer, such as io.StringIO
            for block in blocks:
                sys.stdout.write(block.decode("utf-8"))
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


# Lines in one CSV block: the rows are formatted and encoded a block at a
# time, and a series is split only into parts of whole blocks.
_BLOCK = 4096


def _head(comments: list[str], header: list[str]) -> bytes:
    """The comment lines and the header line of a CSV, encoded."""
    return "".join([f"# {c}\n" for c in comments] + [",".join(header), "\n"]).encode("utf-8")


def _csv(header: list[str], rows, constants=None) -> list[bytes]:
    """The rows, as encoded blocks of _BLOCK lines.

    constants maps the columns that hold one value on every row to that
    value, which is formatted once, into the row template; each row then
    holds the other columns only."""
    constants = constants or {}
    line = ",".join([_fmt(constants[c]) if c in constants else _NUMBER for c in header]) + "\n"
    rows, blocks = iter(rows), []
    while text := "".join([line % row for row in islice(rows, _BLOCK)]):
        blocks.append(text.encode("utf-8"))
    return blocks


def _part_count(rows: int) -> int:
    """How many parts a series of rows is computed in: one per CPU this
    process may use, each of at least one block.  One where a child cannot
    be forked safely: without os.fork, or beside a second thread, which the
    child would lack.  As CPython's own fork warning does on Linux, the
    threads are counted in /proc, so those of a native library count too."""
    if rows < 2 * _BLOCK or not hasattr(os, "fork"):
        return 1
    try:
        if len(os.listdir("/proc/self/task")) > 1:
            return 1
        return min(len(os.sched_getaffinity(0)), rows // _BLOCK)
    except (AttributeError, OSError):
        return 1


def _fork(part, start: int, stop: int, children: dict) -> int | None:
    """A child that sends the blocks of part(start, stop) down a pipe and
    exits 0, or sends nothing and exits 1 if the part raises: its pid, with
    the read end of its pipe entered in children.  None if no child can be
    started."""
    try:
        read, write = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        return None
    if pid == 0:
        # The child never returns: whatever happens, it ends here, without
        # running the caller's handlers or flushing the stdout it shares.
        code = 1
        try:
            for fd in (read, *children.values()):
                os.close(fd)
            blocks = part(start, stop)
            with open(write, "wb") as pipe:
                for block in blocks:
                    pipe.write(block)
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    children[pid] = read
    return pid


def _collect(pid: int, children: dict) -> list[bytes] | None:
    """The bytes child pid sent, in pieces, or None if it failed; reaps it
    and closes its pipe."""
    read, pieces = children[pid], []
    while piece := os.read(read, 1 << 16):
        pieces.append(piece)
    _, status = os.waitpid(pid, 0)
    os.close(read)
    del children[pid]
    return pieces if status == 0 else None


def _split(rows: int, part) -> list[bytes]:
    """The blocks of part(0, rows), computed in contiguous parts by row
    index, one per CPU this process may use (see _part_count), or
    ArithmeticError if a value in them is infinite or NaN.

    part(start, stop) lays out and formats rows start to stop - 1 alone.
    The first part runs here, each later one in a forked child.  A child
    fails only when a row raises; its part then runs here again, so the
    error of the first row in row order that raises one is raised, as one
    part would.  Only after every part has run are the blocks scanned,
    once: a row's error comes before an infinite or NaN value anywhere in
    the series.  No child outlives this call."""
    parts = _part_count(rows)
    edges = [rows * k // parts for k in range(parts + 1)]
    children: dict = {}
    try:
        later = [(start, stop, _fork(part, start, stop, children))
                 for start, stop in zip(edges[1:-1], edges[2:])]
        blocks = part(0, edges[1])
        for start, stop, pid in later:
            pieces = None if pid is None else _collect(pid, children)
            # No child, or one that failed: the part again, here.
            blocks += part(start, stop) if pieces is None else pieces
    finally:
        for pid, read in children.items():  # only after an error: stop the rest
            os.close(read)
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)
    # A finite number written with _NUMBER holds no letter n; inf and nan do.
    if any(b"n" in block for block in blocks):
        raise ArithmeticError("a CSV value is infinite or NaN")
    return blocks


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
    planck, echo = _read_fields(args)
    strict = echo["strict"] = not args.non_strict
    p = ScenarioParams(**planck)
    verdict = causal.check_no_signalling(p, strict=strict)
    timeline = causal.build_timeline(p)
    results = {
        "events": [{"label": e.label, "t": e.t, "x": e.x} for e in timeline],
        "one_way": {
            "bound": bounds.ta_tb_min_one_way(p.r),
            "ok": causal.meets_one_way_bound(p.t_a, p.t_b, p.r, strict=strict),
        },
        "round_trip": {
            "bound": bounds.ta_tb_min_round_trip(p.r),
            "ok": verdict.no_signalling_ok,
            "margin": verdict.margin,
            "explanation": verdict.explanation,
        },
        "backreaction_free": causal.backreaction_free(p.t_b, p.r),
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


def _grid(lo: float, hi: float, points: int, log: bool, start: int = 0, stop: int | None = None):
    """Points start to stop - 1, by default all, of points values from
    exactly lo to exactly hi, evenly spaced on a linear or log scale.  Point
    i is the same expression whichever points are laid out; between finite
    ends >= 0, none overflows."""
    if points < 2:
        raise InvalidInputError(f"points must be >= 2, got {points}")
    if not lo < hi:
        raise InvalidInputError(f"sweep needs from < to, got {lo!r} .. {hi!r}")
    n = points - 1
    stop = points if stop is None else stop
    indices = range(max(start, 1), min(stop, n))
    if not log:
        inner = (lo + (hi - lo) * (i / n) for i in indices)
    elif lo <= 0.0:
        raise InvalidInputError("log scale requires from > 0")
    else:
        la, lb = math.log10(lo), math.log10(hi)
        inner = (10.0 ** (la + i * (lb - la) / n) for i in indices)
    return chain((lo,) if start <= 0 < stop else (), inner, (hi,) if start <= n < stop else ())


def _cmd_sweep(args) -> int:
    bounds._check_slack(args.slack)
    name = args.sweep
    # The swept flag need not be given (nor --r for eta), but is read if it is.
    swept = "r" if name == "eta" else name
    for f in _REQUIRED_FLAGS:
        if f.name != swept and getattr(args, f.flag[2:].replace("-", "_")) is None:
            raise InvalidInputError(f"missing required parameter {f.flag}")
    params, _ = _scenario_from_args(args)
    if name == "eta":
        lo = _parse_bare(args.sweep_from, "eta from")
        hi = _parse_bare(args.to, "eta to")
        provenance = dict(bounds.ETA_COLUMNS)
        m_eff = params.effective_source_mass

        def series(grid):
            return None, bounds.eta_series(m_eff, params.d, grid)
    else:
        kind = _SWEPT_FIELDS[name]
        lo, _ = _parse_quantity("--from", args.sweep_from, kind, args.units)
        hi, _ = _parse_quantity("--to", args.to, kind, args.units)
        provenance = bounds.report_provenance(params.coupling, args.model)

        # The columns that do not read the swept field are evaluated and
        # formatted once a part; each row carries the others.
        series = partial(bounds.report_series, params, args.model, args.slack, name)

    header = [name, *provenance]

    def part(start, stop):
        constants, rows = series(_grid(lo, hi, args.points, args.log, start, stop))
        return _csv(header, rows, constants)

    comments = [
        f"interferobounds {__version__}",
        f"sweep {name} from {_fmt(lo)} to {_fmt(hi)} points {args.points} "
        f"scale {'log' if args.log else 'linear'} (planck units)",
    ]
    comments.extend(f"provenance: {c} = {f}" for c, f in provenance.items())
    _emit(args, [_head(comments, header), *_split(args.points, part)])
    return 0


def _cmd_simulate(args) -> int:
    from . import dynamics  # only simulate pays for importing it

    dynamics._check_eps(args.eps)
    params, _ = _scenario_from_args(args)
    sigma0, _ = _parse_quantity("--sigma0", args.sigma0, "length", args.units)
    _check_positive("sigma0", "length", sigma0)
    if args.steps < 1:
        raise InvalidInputError(f"steps must be >= 1, got {args.steps}")

    if args.t_max == "auto":
        if args.model == "displacement":
            t_max = dynamics.orthogonalization_time(params, sigma0, args.eps)
        else:
            t_max = bounds.tb_phase(params, "exact")
            # The one end time that can be inf or nan: an explicit --t-max
            # refuses inf, and orthogonalization_time stays below its cap.
            if not math.isfinite(t_max):
                raise ArithmeticError(
                    f"--t-max auto gives a non-finite end time tb_phase = {t_max!r}")
    else:
        t_max, _ = _parse_quantity("--t-max", args.t_max, "time", args.units)

    rows = 1 if t_max == 0.0 else args.steps + 1
    comments = [
        f"interferobounds {__version__}",
        f"simulate {args.model} t_max {_fmt(t_max)} steps {args.steps} (planck units)",
    ]
    if args.model == "displacement":
        header = ["t", "mean_x_l", "mean_x_r", "sigma_x", "overlap_magnitude"]
        comments.append("positive x points from the probe toward the source")
        series = partial(dynamics.displacement_series, params, sigma0)
    else:
        header = ["t", "delta_phi", "overlap_magnitude"]
        series = partial(dynamics.phase_series, params)

    def part(start, stop):
        times = (0.0,) if t_max == 0.0 else _grid(0.0, t_max, rows, False, start, stop)
        return _csv(header, series(times))

    _emit(args, [_head(comments, header), *_split(rows, part)])
    return 0


def _add_units_flags(sp) -> None:
    sp.add_argument("--units", choices=("si", "planck"), default="planck",
                    help="system for bare numbers (suffixed values override)")
    sp.add_argument("--out", default=None, help="write output bytes to this file")


def _add_field_flags(sp, fields, required) -> None:
    """A flag for each field table row in fields; those in required must be given."""
    for f in fields:
        sp.add_argument(f.flag, required=f in required, default=f.default, help=f.help,
                        type=None if f.kind in KINDS else float)


def _add_scenario_flags(sp, required=()) -> None:
    """The flags of every field but the times, which causal alone reads,
    with --coupling after those of the fields a sweep may vary."""
    _add_field_flags(sp, [f for f in _FIELDS if f.name in _SWEPT_FIELDS], required)
    sp.add_argument("--coupling", choices=[k.value for k in CouplingKind], default="gravity")
    rest = [f for f in _FIELDS if f.name not in _SWEPT_FIELDS and f.kind != "time"]
    _add_field_flags(sp, rest, required)
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
    _add_scenario_flags(b, _REQUIRED_FLAGS)
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
    _add_scenario_flags(m, _REQUIRED_FLAGS)
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
    # causal reads the times and r alone, and needs each of them.
    timing = [f for f in _FIELDS if f.kind == "time"] + [f for f in _FIELDS if f.name == "r"]
    _add_field_flags(c, timing, timing)
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
