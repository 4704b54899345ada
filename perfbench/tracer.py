"""Span tracer that wraps a program's public functions from outside.

``Tracer.install`` replaces every module-level binding of each target
function, in every module of the traced package, with a wrapper that records
a span: name, start, end, parent span and run id.  Modules import helpers
with ``from .x import y``, so patching only the defining module would miss
the copies bound elsewhere.  ``Tracer.uninstall`` puts the originals back.

Spans stay in memory, in flat arrays, until the run ends.  A span's self
time is its duration minus the durations of its direct children; since the
traced program runs on one thread, children never overlap.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from typing import Callable

# counter(args, kwargs, result) -> {counter name: amount}
CounterFn = Callable[[tuple, dict, object], dict]


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = {}
        self.run_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, counter: CounterFn | None = None) -> Callable:
        """Return ``fn`` wrapped so that each call records a span named ``name``."""
        nid = len(self.names)
        self.names.append(name)
        clock, stack, counts = self.clock, self._stack, self.counts
        name_id, parent, run, start, end = self.name_id, self.parent, self.run, self.start, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            run.append(self.run_id)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if counter is not None:
                for key, amount in counter(args, kwargs, result).items():
                    counts[key] = counts.get(key, 0) + amount
            return result

        return wrapper

    def install(
        self, package: str, targets: dict[str, Callable], counters: dict[str, CounterFn]
    ) -> None:
        """Wrap each ``targets[name]`` and patch every binding of it in ``package``."""
        wrappers = {
            id(fn): self.wrap(name, fn, counters.get(name)) for name, fn in targets.items()
        }
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == package or modname.startswith(package + ".")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per name: number of calls, total span time and self time, in seconds."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            row = out[self.names[self.name_id[i]]]
            dur = self.end[i] - self.start[i]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child[i]
        return out

    def dump(self, path: str) -> None:
        """Write every span as a tab-separated line; parent -1 marks a root."""
        names = self.names
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart\tend\tparent\trun\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{names[self.name_id[i]]}\t{self.start[i]!r}\t{self.end[i]!r}"
                    f"\t{self.parent[i]}\t{self.run[i]}\n"
                )
