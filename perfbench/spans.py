"""In-memory span recorder for traced benchmark runs.

A span is one call into a public function of the package: name, start,
end and the span that was open when it began. Spans live in flat arrays
while the run goes on and are written out once, when it ends.

`Tracer.install` wraps the public functions listed in `TRACED` by replacing
the module (or class) attribute, so both the benchmark's calls and the
package's own cross-module calls (``fulfillment.solve_dlp`` calling
``simplex.solve``, say) are recorded. `Tracer.uninstall` restores every
original. Untraced runs use `NullTracer`, which installs nothing.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from contextlib import contextmanager

import numpy as np

from corround import fulfillment, instances, optimal, rounding, setcover, simplex
from corround.streams import RandomStream

LAYERS = ("simplex", "fulfillment", "rounding", "optimal", "setcover", "instances", "streams")


def _lp_size(args, kwargs, sol):
    problem = args[0]
    nnz = sum(len(coef) if isinstance(coef, dict) else int(np.count_nonzero(coef))
              for coef, _, _ in problem.constraints)
    return {
        "iterations": int(sol.iterations),
        "rows": len(problem.constraints),
        "cols": int(problem.n),
        "nnz": int(nnz),
        "max_violation": float(sol.max_violation),
    }


# (owner, attribute, span name, counter hook); the span's layer is the part
# of the name before the first dot
TRACED = (
    (simplex, "solve", "simplex.solve", _lp_size),
    (fulfillment, "build_dlp", "fulfillment.build_dlp", None),
    (fulfillment, "solve_dlp", "fulfillment.solve_dlp", None),
    (fulfillment, "simulate", "fulfillment.simulate", None),
    (fulfillment.DLPlan, "check", "fulfillment.check", None),
    (rounding, "validate", "rounding.validate", None),
    (rounding, "select_scheme", "rounding.select_scheme", None),
    (rounding, "independent_round", "rounding.independent_round", None),
    (rounding, "dilate_round", "rounding.dilate_round", None),
    (rounding, "force_open_round", "rounding.force_open_round", None),
    (rounding, "mc_estimate", "rounding.mc_estimate", None),
    (optimal, "build_lp", "optimal.build_lp", None),
    (optimal, "solve_optimal_alpha", "optimal.solve_optimal_alpha", None),
    (optimal, "sample_optimal", "optimal.sample_optimal", None),
    (optimal.OptimalSchemeSolution, "verify", "optimal.verify", None),
    (setcover, "marginals_from_fractional_cover", "setcover.marginals", None),
    (setcover, "batch_cover_usage", "setcover.batch_cover_usage", None),
    (setcover, "hard_instance", "setcover.hard_instance", None),
    (instances, "build_instance", "instances.build_instance", None),
    (RandomStream, "uniform", "streams.uniform", None),
    (RandomStream, "derive", "streams.derive", None),
)


class NullTracer:
    """Tracer stand-in for untraced runs: records nothing."""

    @contextmanager
    def span(self, name, **attrs):
        yield


class Tracer:
    """Spans of one run, kept in parallel arrays until `write`."""

    def __init__(self, workload: str):
        self.workload = workload
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.parent = array("q")
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.attrs: dict[int, dict] = {}
        self._stack = [-1]
        self._saved: list = []

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        sid = len(self.parent)
        self.parent.append(self._stack[-1])
        self.name.append(nid)
        self.end.append(0)
        self._stack.append(sid)
        self.start.append(time.perf_counter_ns())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name, **attrs):
        sid = self._open(self._name_id(name))
        if attrs:
            self.attrs[sid] = attrs
        try:
            yield sid
        finally:
            self._close(sid)

    def wrap(self, fn, name, hook=None):
        nid = self._name_id(name)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = open_(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                close(sid)
            if hook is not None:
                self.attrs[sid] = hook(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        for owner, attr, name, hook in TRACED:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, hook))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def span_cost_ns(self, calls: int = 20000) -> float:
        """Extra time one traced call costs, measured on a no-op function."""

        def noop():
            return None

        traced = self.wrap(noop, "bench.calibrate")
        mark = len(self.parent)
        t0 = time.perf_counter_ns()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter_ns()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter_ns()
        # calibration spans are not part of the run
        for arr in (self.parent, self.name, self.start, self.end):
            del arr[mark:]
        return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)

    # ------------------------------------------------------------------
    # analysis

    def arrays(self):
        parent = np.frombuffer(self.parent, dtype=np.int64).copy()
        name = np.frombuffer(self.name, dtype=np.int64).copy()
        dur = (np.frombuffer(self.end, dtype=np.int64)
               - np.frombuffer(self.start, dtype=np.int64)) / 1e9
        return parent, name, dur

    def self_times(self) -> dict[str, float]:
        """Seconds per layer of span duration not covered by child spans."""
        parent, name, dur = self.arrays()
        child = np.zeros(dur.size)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        own = dur - child
        layer_of = np.array([n.split(".")[0] for n in self.names])
        out: dict[str, float] = {}
        for layer in np.unique(layer_of):
            ids = np.flatnonzero(layer_of == layer)
            out[str(layer)] = float(own[np.isin(name, ids)].sum())
        return out

    def durations(self, name: str, parent: str | None = None, within: str | None = None):
        """(span ids, durations in s) of spans called ``name``.

        ``parent`` keeps spans whose direct parent has that name; ``within``
        keeps spans with an ancestor of that name.
        """
        par, nm, dur = self.arrays()
        nid = self._name_ids.get(name)
        if nid is None:
            return np.empty(0, dtype=np.int64), np.empty(0)
        ids = np.flatnonzero(nm == nid)
        if parent is not None:
            pid = self._name_ids.get(parent, -1)
            ids = ids[(par[ids] >= 0) & (nm[np.maximum(par[ids], 0)] == pid)]
        if within is not None:
            ids = np.array([s for s in ids if self.ancestor(s, within) >= 0], dtype=np.int64)
        return ids, dur[ids]

    def ancestor(self, sid: int, name: str) -> int:
        """Nearest enclosing span called ``name``, or -1."""
        nid = self._name_ids.get(name, -2)
        p = self.parent[sid]
        while p >= 0:
            if self.name[p] == nid:
                return p
            p = self.parent[p]
        return -1

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        parent, name, _ = self.arrays()
        np.savez_compressed(
            path,
            parent=parent,
            name=name,
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            names=np.array(self.names),
            workload=np.array(self.workload),
            attrs=np.array(json.dumps({str(k): v for k, v in self.attrs.items()})),
        )
