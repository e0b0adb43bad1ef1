"""Run CLI invocations in this process, each under several CPU counts, and
print what each gave as one JSON list.

    python tests/split_runner.py < cases.json

Each case is {"argv": [...], "cpus": [1, 2, ...], "out": a path or null,
"thread": true to keep a second thread alive meanwhile}.  Each run gives
{"code", "stdout", "forks", "csv_calls", "children_left", "out"}: stdout
is the text of a failed run and the SHA-256 of a good one's bytes; forks
counts the children cli forked; csv_calls counts the parts cli._csv
formatted in this process, not in a child; children_left is whether any
child of this process was left unreaped; out is the SHA-256 of the --out
file, or null if there is none (the file is removed after each run).

tests/test_csv_split.py runs it in a fresh interpreter: a series is split
only in a process without a second thread, and the test process has
numpy's.
"""

import hashlib
import io
import json
import os
import sys
import threading

from interferobounds import cli


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(argv: list[str], cpus: int, out: str | None = None) -> dict:
    """cli.main(argv) with os.sched_getaffinity giving cpus CPUs."""
    forks, csv_calls = [], []
    real_fork, real_affinity, real_csv = os.fork, os.sched_getaffinity, cli._csv
    saved = sys.stdout

    def fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    def csv(*args, **kwargs):
        # A forked child appends to its own copy of the list.
        csv_calls.append(None)
        return real_csv(*args, **kwargs)

    os.fork, os.sched_getaffinity, cli._csv = fork, lambda pid: set(range(cpus)), csv
    sys.stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    try:
        code = cli.main([*argv, *(["--out", out] if out else [])])
        sys.stdout.flush()
        stdout = sys.stdout.buffer.getvalue()
    finally:
        os.fork, os.sched_getaffinity, cli._csv, sys.stdout = (
            real_fork, real_affinity, real_csv, saved)
    try:
        os.waitpid(-1, os.WNOHANG)
        left = True
    except ChildProcessError:
        left = False
    written = None
    if out and os.path.exists(out):
        with open(out, "rb") as fh:
            written = _digest(fh.read())
        os.remove(out)
    return {"code": code, "stdout": _digest(stdout) if code == 0 else stdout.decode(),
            "forks": len(forks), "csv_calls": len(csv_calls), "children_left": left,
            "out": written}


def run_case(case: dict) -> list[dict]:
    stop = threading.Event()
    waiter = threading.Thread(target=stop.wait) if case.get("thread") else None
    if waiter:
        waiter.start()
    try:
        return [run(case["argv"], cpus, case.get("out")) for cpus in case["cpus"]]
    finally:
        stop.set()
        if waiter:
            waiter.join(timeout=10.0)


def main() -> None:
    results = [run_case(case) for case in json.load(sys.stdin)]
    json.dump(results, sys.stdout)


if __name__ == "__main__":
    main()
