"""Spans around the calls into splaysim's public functions, from outside.

The package imports across modules with ``from .circle import as_phases``,
so one function object sits in several module namespaces.  The tracer
rebinds it in every ``splaysim.*`` namespace that holds it (and on the
class, for methods), records one span per call, and puts the originals
back on uninstall.  Spans stay in memory until drained.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time

#: The traced public functions, by module.  A dotted name is a method.
TRACED = {
    "circle": ("as_phases", "shortest_arc_length", "min_pairwise_geodesic", "gap_profile"),
    "prc": ("paper_prc", "prc_from_spec"),
    "model": ("validate_prc", "jump_map", "in_jump_set", "in_splay_set"),
    "sim": ("run", "Perturbation.sample", "write_trajectory_csv", "write_events_csv",
            "read_trajectory_csv"),
    "analysis": ("lyapunov", "vtilde", "verify_monotone", "closeness"),
    "experiments": ("theorem1_corpus",),
    "cli": ("cmd_simulate", "cmd_closeness"),
}

LAYER_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)


class Counters:
    """Work counted at the traced boundaries, from arguments and results."""

    def __init__(self):
        self.jumps = 0
        self.samples = 0
        self.csv_bytes_written = 0
        self.csv_bytes_read = 0
        self.validated_ns: list[int] = []

    def observe(self, name, args, kwargs, result) -> None:
        if name == "sim.run":
            self.jumps += result.jumps
            self.samples += len(result.ts)
        elif name in ("sim.write_trajectory_csv", "sim.write_events_csv"):
            self.csv_bytes_written += os.path.getsize(_arg(args, kwargs, 1, "path"))
        elif name == "sim.read_trajectory_csv":
            self.csv_bytes_read += os.path.getsize(_arg(args, kwargs, 0, "path"))
        elif name == "model.validate_prc":
            self.validated_ns.append(int(_arg(args, kwargs, 1, "n")))


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


class Tracer:
    """Rebinds the traced functions and records (name, start, end, parent) spans.

    Recording happens only while ``enabled`` is true, so checks run between
    timed calls stay out of the spans.
    """

    def __init__(self, package: str = "splaysim", targets=None, clock=time.perf_counter):
        self.package = package
        self.targets = TRACED if targets is None else targets
        self.clock = clock
        self.enabled = False
        self.spans: list = []
        self.counters = Counters()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        targets = {mod: importlib.import_module(f"{self.package}.{mod}")
                   for mod in self.targets}
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == self.package
                                         or name.startswith(self.package + "."))]
        for mod, names in self.targets.items():
            module = targets[mod]
            for name in names:
                owner_name, _, method = name.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name)
                    self._rebind(owner, method, f"{mod}.{name}")
                    continue
                original = getattr(module, name)
                wrapped = self._wrap(f"{mod}.{name}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._set(m, attr, original, wrapped)

    def _rebind(self, owner, attr, label) -> None:
        original = owner.__dict__[attr]
        self._set(owner, attr, original, self._wrap(label, original))

    def _set(self, owner, attr, original, wrapped) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def drain(self):
        """Hand over the spans and counters recorded so far and start afresh."""
        spans, counters = self.spans, self.counters
        self.spans, self.counters = [], Counters()
        return spans, counters

    def _wrap(self, name, fn):
        tracer = self
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            spans, stack = tracer.spans, tracer._stack
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            tracer.counters.observe(name, args, kwargs, result)
            return result

        return traced


def layer_times(spans) -> dict[str, tuple[int, float, float]]:
    """Per span name: (calls, total seconds, self seconds).

    Self time is a span's duration minus the durations of its direct
    children (in one thread children never overlap).  The total counts only
    spans with no ancestor of the same name, so recursion is not counted twice.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, list] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        entry = out.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[2] += (end - start) - child[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            entry[1] += end - start
    return {name: tuple(v) for name, v in out.items()}
