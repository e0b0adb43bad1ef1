"""In-memory span tracer and the wrappers that attach it to the package.

A span is (name, parent, start, end).  Wrappers are installed from outside
the package: around the public functions of each layer module, on every
module attribute that binds them (cli imports to_planck, from_planck and
ScenarioParams by name), and on the __post_init__ of ScenarioParams and
GaussianState.  A layer's self time is its span's duration minus the time
its child spans cover; calls are single-threaded, so children nest and
never overlap.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import io
import time
from array import array
from collections import defaultdict

LAYERS = ("units", "scenario", "bounds", "dynamics", "causal")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def __len__(self) -> int:
        return len(self.start)

    def clear(self) -> None:
        for arr in (self.name, self.parent, self.start, self.end):
            del arr[:]

    def write(self, path) -> None:
        """Raw spans: uint16 name ids, int32 parents (-1 for a root), then
        float64 starts and ends, each as one native-endian block."""
        with open(path, "wb") as fh:
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)

    def summarize(self) -> dict:
        """Per span name: count and self time; plus total self time."""
        n = len(self.start)
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        count: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for i, nid in enumerate(self.name):
            name = self.names[nid]
            count[name] += 1
            self_s[name] += dur[i] - child[i]
        return {"count": dict(count), "self_s": dict(self_s),
                "total_self_s": sum(self_s.values())}

    def descendants_of(self, ancestor: str, name: str) -> int:
        """Number of `name` spans that have an `ancestor` span above them."""
        if ancestor not in self._ids or name not in self._ids:
            return 0
        aid, nid = self._ids[ancestor], self._ids[name]
        hits = 0
        for i, k in enumerate(self.name):
            if k != nid:
                continue
            p = self.parent[i]
            while p >= 0 and self.name[p] != aid:
                p = self.parent[p]
            hits += p >= 0
        return hits


class _Bytes:
    def __init__(self, write) -> None:
        self.write = write

    def flush(self) -> None:
        pass


class Sink:
    """Stand-in for sys.stdout that keeps the bytes the CLI writes.

    With a tracer, every write is a cli.write span.
    """

    def __init__(self, tracer: Tracer | None = None) -> None:
        self._out = io.BytesIO()
        write = self._out.write
        self.buffer = _Bytes(tracer.wrap("cli.write", write) if tracer else write)

    def write(self, text: str) -> int:
        return self.buffer.write(text.encode("utf-8"))

    def flush(self) -> None:
        pass

    def getvalue(self) -> bytes:
        return self._out.getvalue()


def _public_functions(module) -> list:
    return [
        (attr, value)
        for attr, value in vars(module).items()
        if not attr.startswith("_")
        and inspect.isfunction(value)
        and value.__module__ == module.__name__
    ]


def install(tracer: Tracer, package) -> list:
    """Wrap the package's layers; returns what uninstall needs to undo it."""
    modules = {name: getattr(package, name) for name in (*LAYERS, "cli")}
    bindings = [package, *modules.values()]
    undo = []

    def rebind(fn, wrapper) -> None:
        for module in bindings:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
                    undo.append((module, attr, fn))

    for layer in LAYERS:
        for attr, fn in _public_functions(modules[layer]):
            rebind(fn, tracer.wrap(f"{layer}.{attr}", fn))
    rebind(modules["cli"].main, tracer.wrap("cli.main", modules["cli"].main))
    for cls, name in (
        (modules["scenario"].ScenarioParams, "scenario.ScenarioParams"),
        (modules["dynamics"].GaussianState, "dynamics.GaussianState"),
    ):
        undo.append((cls, "__post_init__", cls.__post_init__))
        cls.__post_init__ = tracer.wrap(name, cls.__post_init__)
    parse = argparse.ArgumentParser.parse_args
    undo.append((argparse.ArgumentParser, "parse_args", parse))
    argparse.ArgumentParser.parse_args = tracer.wrap("cli.parse", parse)
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
