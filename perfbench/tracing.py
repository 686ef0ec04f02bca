"""In-memory spans around moprox's layers, installed from outside src/.

Each hook replaces a function under the name its caller looks it up by:
solver.py binds eval_smooth and solve_direction when it is imported, so
those are patched in moprox.solver; armijo_backtrack imports eval_full when
it is called, so that one is patched in moprox.problems. A hook whose target
no longer exists is recorded as absent and its metrics are reported as such.

A span is (job, name, parent, start, end); spans stay in memory and are
written once, at exit. A layer's self time is its spans' time minus the
time of their direct child spans.
"""

from __future__ import annotations

import importlib
import inspect
import math
import time
from collections import Counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.job = []
        self.name = []
        self.parent = []
        self.start = []
        self.end = []
        self._stack = [-1]
        self.current_job = -1
        self.counts = Counter()

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span; return its result, recording failures."""
        sid = len(self.start)
        self.job.append(self.current_job)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        except BaseException:
            self.counts[name + ".failed"] += 1
            raise
        finally:
            self.end[sid] = time.perf_counter()
            self._stack.pop()

    def arrays(self) -> dict:
        return {
            "job": np.asarray(self.job, dtype=np.int64),
            "name": np.asarray(self.name, dtype=np.int64),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "start": np.asarray(self.start),
            "end": np.asarray(self.end),
            "names": np.asarray(self.names),
        }

    def layer_times(self) -> dict:
        """name -> (calls, seconds, self seconds)."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        out = {}
        for nid, name in enumerate(self.names):
            sel = a["name"] == nid
            out[name] = (int(np.count_nonzero(sel)), float(dur[sel].sum()),
                         float((dur[sel] - child[sel]).sum()))
        return out

    def write(self, path) -> None:
        np.savez(path, **self.arrays())


# (module, attribute, span name)
HOOKS = (
    ("moprox.zoo", "generate_instance", "zoo.generate_instance"),
    ("moprox.solver", "solve", "solver.solve"),
    ("moprox.solver", "eval_smooth", "problems.eval_smooth"),
    ("moprox.solver", "solve_direction", "subproblem.solve_direction"),
    ("moprox.solver", "armijo_backtrack", "solver.armijo_backtrack"),
    ("moprox.problems", "eval_full", "problems.eval_full"),
    ("moprox.subproblem", "inner_minimize", "subproblem.inner_minimize"),
    ("moprox.subproblem", "_model_values_hi", "subproblem.certificate"),
    ("moprox.cli", "write_trace_csv", "cli.write_trace_csv"),
)


def _count_direction(tracer: Tracer, result) -> None:
    tracer.counts["subproblem.snaps"] += result.dual_iters
    tracer.counts["subproblem.inner_iters"] += result.inner_iters


def _make_wrapper(tracer: Tracer, name: str, fn):
    if name == "subproblem.solve_direction":
        def wrapper(*args, **kwargs):
            try:
                result = tracer.call(name, fn, *args, **kwargs)
            except Exception as exc:
                # a ConvergenceError carries the best result it reached
                best = getattr(exc, "best", None)
                if best is not None:
                    _count_direction(tracer, best)
                raise
            _count_direction(tracer, result)
            return result
    elif name == "solver.armijo_backtrack":
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            t = tracer.call(name, fn, *args, **kwargs)
            gamma = signature.bind(*args, **kwargs).arguments["gamma"]
            tracer.counts["solver.halvings"] += round(math.log(t) / math.log(gamma))
            return t
    elif name == "solver.solve":
        def wrapper(*args, **kwargs):
            trace = tracer.call(name, fn, *args, **kwargs)
            tracer.counts["solver.outer_steps"] += trace.steps_taken
            return trace
    else:
        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, *args, **kwargs)
    return wrapper


class Hooks:
    """Install every hook on enter and restore the originals on exit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.absent = []
        self._saved = []

    def __enter__(self):
        for module_name, attr, name in HOOKS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(name)
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, _make_wrapper(self.tracer, name, fn))
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()
        return False
