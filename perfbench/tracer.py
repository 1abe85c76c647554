"""Span tracer for the benchmark's traced run.

`Tracer.install` wraps every public function and every public method of a
public class in the stabledyn modules. A function that another module
imported by name (``from .integrate import rk4_solve_batch``) is replaced
in every namespace that holds it, so calls through any import path are
recorded. Each call leaves one span (name, start, end, parent span); all
spans of one tracer share its run id. Spans are kept in flat arrays and
written out once, when the run ends.

The tracer keeps one span stack, so it assumes the traced program runs on
one thread; the benchmark always passes ``--threads 1`` to the CLI.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

MODULES = ("nnet", "field", "integrate", "benchmarks", "training", "control", "analysis", "cli")


class Tracer:
    def __init__(self, run_id: str, clock=time.perf_counter_ns):
        self.run_id = run_id
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.counts: dict[str, float] = {}
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def add(self, counter: str, amount: float = 1) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + amount

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, before=None, after=None):
        """Return `fn` wrapped to record one span per call.

        ``before(tracer, args, kwargs)`` may return replacement (args, kwargs);
        ``after(tracer, args, kwargs, result)`` updates counters.
        """
        nid = self._intern(name)
        clock, stack = self.clock, self._stack
        name_ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(self, args, kwargs)
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(self, args, kwargs, result)
            return result

        traced.__traced_original__ = fn
        return traced

    def install(self, hooks: dict | None = None) -> None:
        """Wrap the public functions and methods of every stabledyn module.

        ``hooks`` maps a span name to its (before, after) pair.
        """
        hooks = hooks or {}
        modules = {short: sys.modules[f"stabledyn.{short}"] for short in MODULES}
        wrapped: dict[int, object] = {}  # id(original) -> wrapper; originals stay alive
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{short}.{attr}"
                    wrapped[id(obj)] = self.wrap(name, obj, *hooks.get(name, (None, None)))
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            name = f"{short}.{attr}.{meth}"
                            self._patch(obj, meth, self.wrap(name, fn, *hooks.get(name, (None, None))))
        # replace each function in every namespace that holds it
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._patch(mod, attr, wrapped[id(obj)])

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def arrays(self):
        """(name_id, parent, start, end) as int64 numpy arrays."""
        return tuple(np.array(a, dtype=np.int64)
                     for a in (self.name_id, self.parent, self.start, self.end))

    def save(self, path) -> None:
        name_id, parent, start, end = self.arrays()
        np.savez(path, run_id=np.array(self.run_id), names=np.array(self.names, dtype=str),
                 name_id=name_id, parent=parent, start_ns=start, end_ns=end)


class SpanStats:
    """Per-span durations, self times and group queries over a tracer's spans."""

    def __init__(self, names, name_id, parent, start, end):
        self.names = list(names)
        self.name_id = np.asarray(name_id, dtype=np.int64)
        self.parent = np.asarray(parent, dtype=np.int64)
        self.dur = (np.asarray(end, dtype=np.int64) - np.asarray(start, dtype=np.int64)) * 1e-9
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=self.dur[has_parent],
                            minlength=len(self.dur))
        self.self_time = self.dur - child

    @classmethod
    def of(cls, tracer: Tracer) -> "SpanStats":
        return cls(tracer.names, *tracer.arrays())

    def _mask(self, names) -> np.ndarray:
        wanted = set(names)
        return np.isin(self.name_id, [i for i, n in enumerate(self.names) if n in wanted])

    def _entries(self, names) -> np.ndarray:
        """Spans of the group `names` whose parent is outside the group."""
        mask = self._mask(names)
        parent_in = np.zeros_like(mask)
        has_parent = self.parent >= 0
        parent_in[has_parent] = mask[self.parent[has_parent]]
        return mask & ~parent_in

    def calls(self, *names) -> int:
        """Entries into a group, so a group function calling another counts once."""
        return int(np.count_nonzero(self._entries(names)))

    def self_s(self, *names) -> float:
        return float(self.self_time[self._mask(names)].sum())

    def total_s(self, *names) -> float:
        """Wall time inside a group, counting nested group spans once."""
        return float(self.dur[self._entries(names)].sum())

    def total_within_s(self, names, ancestors) -> float:
        """Wall time in spans of `names` that run inside a span of `ancestors`."""
        mask = self._mask(names)
        anc_mask = self._mask(ancestors)
        inside = np.zeros_like(mask)
        cur = np.where(mask, self.parent, -1)
        while np.any(cur >= 0):
            live = cur >= 0
            inside[live] |= anc_mask[cur[live]]
            cur = np.where(live & ~inside, self.parent[np.maximum(cur, 0)], -1)
        return float(self.dur[mask & inside].sum())
