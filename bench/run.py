#!/usr/bin/env python3
"""interferobounds benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 bench/run.py --workload oneshot --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository; the package is imported from its
src/ directory.  Inputs come from --seed only.  Load is a closed loop from
one process: one CLI child or one library call in flight at a time.

A run repeats the workload's seeded operation list (a round) while the
next round still fits in --seconds, always at least once.  The first round
checks every output (see ops.py); later rounds must reproduce its bytes.
The seven golden invocations are compared byte for byte with
tests/data/golden/ on every run.

--trace 0 reports the end-to-end metrics, measured untraced:
  setup_s          median over fresh processes, one after each round and at least
                   SETUP_REPEATS, of importing interferobounds.cli and exiting
                   (library: importing the package and finishing the first
                   scenario's calls)
  latency_p50_ms   median wall time of one operation: one CLI process, or one
                   scenario's library calls
  latency_tail_ms  median over rounds of each round's highest percentile with at
                   least ten samples beyond it, or of its maximum when a round
                   has fewer than 21 operations; the record line names the
                   percentile and the sample count per round
  wall_s           wall time of the timed operations divided by the number of
                   rounds
  rows_per_s       CSV data rows emitted divided by the timed wall time (library:
                   one row per scenario)
  peak_rss_mb      peak resident memory of the process that did the work
--trace 1 runs each round in this process, alternating untraced and traced
rounds, and reports per-layer counts and self times per round.  Start-up is
measured in fresh processes.  The traced stdout must equal the subprocess
stdout byte for byte, and the layer self times must add up to the traced wall
time within SELF_TIME_TOLERANCE.

The second-to-last stdout line is a JSON run record (machine, digests, the
failures); the last is the result.  Records and the spans of the first traced
round are written under bench/out/.  Runs use no CPU pinning and drop no
caches.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import ops
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "data" / "golden"
OUT = ROOT / "bench" / "out"

SETUP_REPEATS = 5
OP_TIMEOUT_S = 60.0
SELF_TIME_TOLERANCE = 0.05
MAX_REPORTED_FAILURES = 20
# Left out of the printed record line; the record file keeps them.
BULKY_RECORD_KEYS = ("output_digests", "op_walls_s", "untraced_walls_s", "traced_walls_s")

# The pinned invocations behind tests/data/golden/.
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
}

CLI_WORKLOADS = {
    "oneshot": ops.oneshot_ops,
    "sweep": ops.sweep_ops,
    "simulate": ops.simulate_ops,
}
WORKLOADS = (*CLI_WORKLOADS, "library")


# --- child processes -----------------------------------------------------------------


@dataclass
class Child:
    returncode: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    maxrss_mb: float


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def run_child(args: list[str]) -> Child:
    """Run `python args...` to completion; wall time and peak RSS of the child."""
    with tempfile.TemporaryFile(dir=OUT) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], stdout=subprocess.PIPE, stderr=err,
            env=child_env(), cwd=ROOT,
        )
        killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            out = proc.stdout.read()
        except BaseException:
            proc.kill()
            raise
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return Child(proc.returncode, out, err.read(), wall, usage.ru_maxrss / 1024.0)


def fresh_samples(args: list[str], repeats: int, from_stdout: bool = False) -> list[float]:
    """Wall times of fresh processes, or the float each one prints."""
    values = []
    for _ in range(repeats):
        child = run_child(args)
        if child.returncode != 0:
            raise RuntimeError(f"start-up probe {args!r} failed: {child.stderr[-500:]!r}")
        values.append(float(child.stdout) if from_stdout else child.wall_s)
    return values


def fresh_median(args: list[str], repeats: int, from_stdout: bool = False) -> float:
    return statistics.median(fresh_samples(args, repeats, from_stdout))


def _timed_import(module: str) -> list[str]:
    return ["-c", f"import time; t = time.perf_counter(); import {module}; "
                  f"print(repr(time.perf_counter() - t))"]


# --- operations ------------------------------------------------------------------------


@dataclass
class Outcome:
    wall_s: float
    output: bytes
    error: str | None
    maxrss_mb: float = 0.0


class Tally:
    """Operations attempted and failed, with the first failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, label: str, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.failures) < MAX_REPORTED_FAILURES:
                self.failures.append(f"{label}: {error}")


def cli_subprocess(op: ops.CliOp, check: bool) -> Outcome:
    child = run_child(["-m", "interferobounds", *op.argv])
    error = None
    if child.returncode != 0:
        error = f"exit {child.returncode}: {child.stdout[:300]!r} {child.stderr[-300:]!r}"
    elif b"Traceback" in child.stderr:
        error = f"traceback on stderr: {child.stderr[-300:]!r}"
    elif check:
        error = _checked(ops.check_cli_output, op, child.stdout)
    return Outcome(child.wall_s, child.stdout, error, child.maxrss_mb)


def _checked(fn, *args) -> str | None:
    try:
        fn(*args)
    except (ops.CheckFailed, KeyError, ValueError, IndexError, StopIteration) as exc:
        return f"check failed: {type(exc).__name__}: {exc}"
    return None


def cli_in_process(pkg, op: ops.CliOp, check: bool, tracer=None) -> Outcome:
    sink = spans.Sink(tracer)
    saved = sys.stdout
    sys.stdout = sink
    start = time.perf_counter()
    error = None
    try:
        code = pkg.cli.main(list(op.argv))
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # an operation boundary: record and go on
        code, error = None, f"{type(exc).__name__}: {exc}"
    finally:
        wall = time.perf_counter() - start
        sys.stdout = saved
    out = sink.getvalue()
    if error is None and code != 0:
        error = f"exit {code}"
    if error is None and check:
        error = _checked(ops.check_cli_output, op, out)
    return Outcome(wall, out, error)


@dataclass(frozen=True)
class LibraryItem:
    scenario: ops.Scenario
    t_a: float
    t_b: float
    params: object  # ScenarioParams


def library_call(pkg, p):
    """One scenario through the package's public API."""
    report = pkg.bounds.feasibility_report(p)
    t_orth = pkg.dynamics.orthogonalization_time(p)
    record = pkg.dynamics.phase_evolution(p, pkg.bounds.tb_phase(p))
    verdict = pkg.causal.check_no_signalling(p)
    return report, t_orth, record, verdict


def library_in_process(pkg, item: LibraryItem, check: bool) -> Outcome:
    start = time.perf_counter()
    try:
        result = library_call(pkg, item.params)
    except Exception as exc:  # an operation boundary: record and go on
        return Outcome(time.perf_counter() - start, b"", f"{type(exc).__name__}: {exc}")
    wall = time.perf_counter() - start
    error = _checked(ops.check_library, item.scenario, item.t_a, item.t_b, result) if check else None
    return Outcome(wall, ops.library_digest_text(result).encode("utf-8"), error)


def _params_kwargs(s: ops.Scenario, t_a: float, t_b: float) -> dict:
    """ScenarioParams arguments, with the coupling by name."""
    return {"m_a": s.m_a, "d": s.d, "r": s.r, "coupling": "coulomb" if s.coulomb else "gravity",
            "q_a": s.q_a, "q_b": s.q_b, "delta_x_min": s.dx_min, "t_a": t_a, "t_b": t_b}


def import_package():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import interferobounds
    import interferobounds.cli  # noqa: F401  (binds the cli attribute)

    return interferobounds


class Workload:
    """The seeded operation list of one workload and how to run each item."""

    def __init__(self, name: str, seed: int, scale: float) -> None:
        self.name = name
        rng = random.Random(f"{name}:{seed}")
        self.pkg = None
        if name in CLI_WORKLOADS:
            self.items = CLI_WORKLOADS[name](rng, scale)
            self.rows_per_round = sum(op.rows for op in self.items)
            self.setup_args = ["-c", "import interferobounds.cli"]
            return
        self.pkg = import_package()
        from interferobounds.scenario import CouplingKind, ScenarioParams

        self.items = []
        for s, t_a, t_b in ops.library_scenarios(rng, scale):
            kwargs = _params_kwargs(s, t_a, t_b)
            kwargs["coupling"] = CouplingKind(kwargs["coupling"])
            self.items.append(LibraryItem(s, t_a, t_b, ScenarioParams(**kwargs)))
        self.rows_per_round = len(self.items)
        first = self.items[0]
        self.setup_args = ["-c", (
            "from interferobounds import bounds, causal, dynamics\n"
            "from interferobounds.scenario import CouplingKind, ScenarioParams\n"
            f"kwargs = {_params_kwargs(first.scenario, first.t_a, first.t_b)!r}\n"
            "kwargs['coupling'] = CouplingKind(kwargs['coupling'])\n"
            "p = ScenarioParams(**kwargs)\n"
            "bounds.feasibility_report(p)\n"
            "dynamics.orthogonalization_time(p)\n"
            "dynamics.phase_evolution(p, bounds.tb_phase(p))\n"
            "causal.check_no_signalling(p)\n"
        )]

    @property
    def is_cli(self) -> bool:
        return self.name in CLI_WORKLOADS

    def label(self, i: int) -> str:
        item = self.items[i]
        return f"{self.name}[{i}] {item.kind}" if self.is_cli else f"{self.name}[{i}] library"

    def untraced(self, item, check: bool) -> Outcome:
        """The operation as a user runs it: a CLI process, or a library call."""
        if self.is_cli:
            return cli_subprocess(item, check)
        return library_in_process(self.pkg, item, check)

    def in_process(self, item, check: bool, tracer=None) -> Outcome:
        """The operation in this process; tracer records the CLI's writes."""
        if self.pkg is None:
            self.pkg = import_package()
        if self.is_cli:
            return cli_in_process(self.pkg, item, check, tracer)
        return library_in_process(self.pkg, item, check)


def run_round(workload: Workload, execute, reference: list[str] | None, tally: Tally):
    """One pass over the operation list; checks outputs when there is no reference."""
    outcomes, digests = [], []
    for i, item in enumerate(workload.items):
        outcome = execute(item, reference is None)
        digest = hashlib.sha256(outcome.output).hexdigest()
        if outcome.error is None and reference is not None and digest != reference[i]:
            outcome.error = "output bytes differ from the checked round"
        tally.record(workload.label(i), outcome.error)
        outcomes.append(outcome)
        digests.append(digest)
    return outcomes, digests


def check_goldens(tally: Tally) -> None:
    for name, argv in GOLDEN_COMMANDS.items():
        child = run_child(["-m", "interferobounds", *argv])
        ok = child.returncode == 0 and child.stdout == (GOLDEN / name).read_bytes()
        tally.record(f"golden {name}", None if ok else "differs from the golden file")


# --- metrics ---------------------------------------------------------------------------


def tail_latency(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, sample count) of the highest percentile with at
    least ten samples beyond it.

    Below 21 samples that percentile would lie under the median, or not
    exist, so the maximum is reported instead.
    """
    xs = sorted(samples)
    if len(xs) < 21:
        return xs[-1], 100.0, len(xs)
    k = len(xs) - 11
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs)


def end_to_end(workload: Workload, seconds: float, tally: Tally, repeats: int, record: dict) -> dict:
    fresh_samples(workload.setup_args, 1)  # compiles bytecode once
    check_goldens(tally)

    reference = None
    round_walls, op_walls, setup, child_rss = [], [], [], [0.0]
    start = time.perf_counter()
    while True:
        outcomes, digests = run_round(workload, workload.untraced, reference, tally)
        reference = reference or digests
        round_walls.append(sum(o.wall_s for o in outcomes))
        op_walls.append([o.wall_s for o in outcomes])
        child_rss += [o.maxrss_mb for o in outcomes]
        # Set-up probes spread over the run, so one slow moment moves few of them.
        setup += fresh_samples(workload.setup_args, 1)
        if time.perf_counter() - start + round_walls[-1] > seconds:
            break
    setup += fresh_samples(workload.setup_args, repeats - len(setup))
    # The library workload does its work in this process.
    peak_rss = max(child_rss) if workload.is_cli else _self_maxrss_mb()

    latencies = [w for walls in op_walls for w in walls]
    # Per round, so that a rare host stall, which pooled rounds would rank
    # among the top ten samples, moves one round's tail and not the median.
    tails = [tail_latency(walls) for walls in op_walls]
    tail = statistics.median(t for t, _, _ in tails)
    _, percentile, count = tails[0]
    wall = sum(latencies) / len(op_walls)
    record.update(
        digests=reference, rounds=len(round_walls), round_walls_s=round_walls,
        op_walls_s=op_walls if workload.is_cli else None,
        latency_tail={"percentile": percentile, "samples_per_round": count,
                      "round_tails_ms": [t * 1e3 for t, _, _ in tails]},
        setup_samples_s=setup,
    )
    return {
        "setup_s": (statistics.median(setup), "s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_tail_ms": (tail * 1e3, "ms"),
        "wall_s": (wall, "s"),
        "rows_per_s": (workload.rows_per_round / wall, "1/s"),
        "peak_rss_mb": (peak_rss, "MB"),
    }


def _self_maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _layer_metrics(summary: dict, rows: int, write_bytes: int, orth_overlaps: int) -> dict:
    count, self_s = summary["count"], summary["self_s"]

    def n(*names):
        return sum(count.get(x, 0) for x in names)

    def t(*names):
        return sum((self_s.get(x, 0.0) for x in names), 0.0)

    def layer(prefix, exclude=()):
        names = [x for x in count if x.startswith(prefix) and x not in exclude]
        return n(*names), t(*names)

    report = "bounds.feasibility_report"
    orth = "dynamics.orthogonalization_time"
    named_dynamics = ("dynamics.GaussianState", "dynamics.overlap",
                      "dynamics.displacement_branches", orth, "dynamics.phase_evolution")
    units_calls, units_self = layer("units.")
    _, scenario_self = layer("scenario.")
    formula_calls, formula_self = layer("bounds.", exclude=(report,))
    evolve_calls, evolve_self = layer("dynamics.", exclude=named_dynamics)
    causal_calls, causal_self = layer("causal.")
    orth_calls = n(orth)
    return {
        "cli.parse_s": (t("cli.parse"), "s"),
        "cli.self_s": (t("cli.main"), "s"),
        "cli.self_us_per_row": (t("cli.main") / rows * 1e6 if rows else 0.0, "us/row"),
        "cli.write_s": (t("cli.write"), "s"),
        "cli.write_bytes": (write_bytes, "bytes"),
        "units.calls": (units_calls, "count"),
        "units.self_s": (units_self, "s"),
        "scenario.params_built": (n("scenario.ScenarioParams"), "count"),
        "scenario.self_s": (scenario_self, "s"),
        "bounds.report_calls": (n(report), "count"),
        "bounds.report_self_s": (t(report), "s"),
        "bounds.formula_calls": (formula_calls, "count"),
        "bounds.formula_self_s": (formula_self, "s"),
        "dynamics.states_built": (n("dynamics.GaussianState"), "count"),
        "dynamics.state_self_s": (t("dynamics.GaussianState"), "s"),
        "dynamics.evolve_calls": (evolve_calls, "count"),
        "dynamics.evolve_self_s": (evolve_self, "s"),
        "dynamics.overlap_calls": (n("dynamics.overlap"), "count"),
        "dynamics.overlap_self_s": (t("dynamics.overlap"), "s"),
        "dynamics.branches_calls": (n("dynamics.displacement_branches"), "count"),
        "dynamics.branches_self_s": (t("dynamics.displacement_branches"), "s"),
        "dynamics.orth_calls": (orth_calls, "count"),
        "dynamics.orth_evals": (orth_overlaps / orth_calls if orth_calls else 0.0, "count"),
        "dynamics.orth_self_s": (t(orth), "s"),
        "dynamics.phase_calls": (n("dynamics.phase_evolution"), "count"),
        "dynamics.phase_self_s": (t("dynamics.phase_evolution"), "s"),
        "causal.calls": (causal_calls, "count"),
        "causal.self_s": (causal_self, "s"),
    }


def per_layer(workload: Workload, seconds: float, tally: Tally, repeats: int, record: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics; also returns the self-consistency problems found."""
    fresh_median(["-c", "import interferobounds.cli"], 1)  # compiles bytecode once
    startup = {
        "cli.interpreter_s": (fresh_median(["-c", "pass"], repeats), "s"),
        "cli.import_s": (fresh_median(_timed_import("interferobounds.cli"), repeats, True), "s"),
        "cli.import_numpy_s": (fresh_median(_timed_import("numpy"), repeats, True), "s"),
    }
    check_goldens(tally)

    reference = None
    if workload.is_cli:
        _, reference = run_round(workload, workload.untraced, None, tally)

    tracer = spans.Tracer()
    untraced_walls, traced_walls, rounds = [], [], []
    problems = set()
    start = time.perf_counter()
    while True:
        outcomes, digests = run_round(workload, workload.in_process, reference, tally)
        reference = reference or digests
        untraced_walls.append(sum(o.wall_s for o in outcomes))

        undo = spans.install(tracer, workload.pkg)
        try:
            outcomes, _ = run_round(
                workload, lambda item, check: workload.in_process(item, check, tracer),
                reference, tally)
        finally:
            spans.uninstall(undo)
        traced = sum(o.wall_s for o in outcomes)
        traced_walls.append(traced)
        summary = tracer.summarize()
        share = summary["total_self_s"] / traced
        if abs(1.0 - share) > SELF_TIME_TOLERANCE:
            problems.add(f"layer self times sum to {share:.4f} of the traced wall time")
        write_bytes = sum(len(o.output) for o in outcomes) if workload.is_cli else 0
        rows = workload.rows_per_round if workload.is_cli else 0
        metrics = _layer_metrics(summary, rows, write_bytes, tracer.descendants_of(
            "dynamics.orthogonalization_time", "dynamics.overlap"))
        metrics["trace.self_share"] = (share, "ratio")
        if not rounds:
            # One file per workload, so repeated runs do not pile up spans.
            tracer.write(OUT / f"spans-{workload.name}.bin")
            record["spans"] = {"file": f"bench/out/spans-{workload.name}.bin",
                               "names": tracer.names, "count": len(tracer)}
        elif any(metrics[k] != rounds[0][k] for k in metrics if metrics[k][1] in ("count", "bytes")):
            problems.add("per-layer counts differ between traced rounds")
        rounds.append(metrics)
        tracer.clear()
        if time.perf_counter() - start + untraced_walls[-1] + traced > seconds:
            break

    out = dict(startup)
    for key, (value, unit) in rounds[0].items():
        if unit in ("s", "us/row", "ratio"):
            value = statistics.median(r[key][0] for r in rounds)
        out[key] = (value, unit)
    out["trace.overhead_ratio"] = (
        statistics.median(traced_walls) / statistics.median(untraced_walls), "ratio")
    record.update(digests=reference, rounds=len(rounds),
                  untraced_walls_s=untraced_walls, traced_walls_s=traced_walls)
    return out, sorted(problems)


# --- run -------------------------------------------------------------------------------


def machine() -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "commit": _git_commit(),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_pinning": "none",
        "cache_dropping": "none",
    }


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        scale: float = 1.0, setup_repeats: int = SETUP_REPEATS) -> tuple[dict, dict]:
    """One benchmark run; returns (record, result)."""
    OUT.mkdir(parents=True, exist_ok=True)
    record = {"workload": workload_name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "machine": machine(), "loadavg_start": os.getloadavg()}
    tally = Tally()
    workload = Workload(workload_name, seed, scale)
    problems = []
    if trace:
        metrics, problems = per_layer(workload, seconds, tally, setup_repeats, record)
    else:
        metrics = end_to_end(workload, seconds, tally, setup_repeats, record)
    digests = record.pop("digests")
    record.update(
        loadavg_end=os.getloadavg(),
        round_digest=hashlib.sha256("".join(digests).encode()).hexdigest(),
        output_digests=digests,
        fail_ratio=tally.failed / tally.attempted,
        failures=tally.failures,
        problems=problems,
    )
    result = {
        "correct": tally.failed == 0 and not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    stem = f"{workload_name}-seed{seed}-trace{int(trace)}"
    (OUT / f"{stem}.json").write_text(json.dumps({"record": record, "result": result}, indent=1))
    return record, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    missing = [p for p in (SRC / "interferobounds" / "cli.py", GOLDEN) if not p.exists()]
    if missing:
        print(f"bench: not a source checkout, missing {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2
    record, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    shown = {k: v for k, v in record.items() if k not in BULKY_RECORD_KEYS}
    print(json.dumps({"record": shown}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
