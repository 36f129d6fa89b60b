"""Span recorder for the traced run.

Each span records a name, start, end, parent span and op id, plus one
count and one flag taken from the wrapped call's arguments or result
(rows clipped, ADMM iterations, converged, polish accepted). Spans are kept
in flat in-memory arrays and written once, when the run ends.

Wrappers are installed where callers look names up: `project.py` and
`probe.py` bind their helpers with `from ... import`, so each module's own
binding is replaced, not only the defining module's. A target that no
longer exists is skipped and the metrics built on it read `absent`.
"""

from __future__ import annotations

import importlib
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np


def _rows(args, out):
    return args[0].shape[0], 1


def _solve_stats(args, out):
    stats = out[1]
    return stats.iterations, int(stats.converged)


def _accepted(args, out):
    return int(out is not None), int(out is not None)


# (module, attribute, span name, extractor); a class attribute is written
# "Class.method"
TARGETS = (
    ("sliceproj.project", "psd_clip_rows", "symmat.psd_clip", _rows),
    ("sliceproj.symmat", "psd_clip_rows", "symmat.psd_clip", _rows),
    ("sliceproj.project", "jacobi_eig", "symmat.jacobi", None),
    ("sliceproj.cones", "make_cone", "cones.make_cone", None),
    ("sliceproj.cones", "ConeModel.solve_gram", "cones.gram_solve", None),
    ("sliceproj.project", "cho_factor", "project.factor", None),
    ("sliceproj.project", "cho_solve", "project.linsolve", None),
    ("sliceproj.project", "_project_cone_arr", "project.cone", _solve_stats),
    ("sliceproj.probe", "_project_cone_arr", "project.cone", _solve_stats),
    ("sliceproj.project", "_attempt_polish", "project.polish", _accepted),
    ("sliceproj.project", "_newton_polish", "project.newton", None),
    ("sliceproj.project", "_dykstra_flat", "project.dykstra", _solve_stats),
    ("sliceproj.probe", "residual_numeric", "probe.residual", None),
)

CALIBRATION = "bench.calibration"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.count = array("q")
        self.flag = array("q")
        self.stack: list[int] = []
        self.calib: list[tuple] = []
        self.current_op = -1
        self.present: set[str] = set()
        self._undo: list = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.current_op)
        self.start.append(0.0)
        self.end.append(0.0)
        self.count.append(0)
        self.flag.append(1)
        self.stack.append(idx)
        return idx

    def wrap(self, fn, name: str, extract=None):
        nid = self.name_id(name)
        start, end, count, flag, stack = (self.start, self.end, self.count,
                                          self.flag, self.stack)
        opener = self._open

        def traced(*args, **kwargs):
            idx = opener(nid)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if extract is not None:
                count[idx], flag[idx] = extract(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def call(self, name: str, fn, *args):
        """Run fn(*args) inside a span; used for the benchmark's op spans."""
        return self.wrap(fn, name)(*args)

    def note_calibration(self, t0: float, t1: float) -> None:
        """Called from the SIGALRM handler, which may interrupt `_open`
        half-way, so it only appends to its own list; the intervals become
        child spans of the span open at the time in `arrays`."""
        self.calib.append((t0, t1, self.stack[-1] if self.stack else -1,
                           self.current_op))

    def install(self) -> None:
        for module_name, attr, name, extract in TARGETS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None) if owner is not None else None
            if fn is None:
                continue
            setattr(owner, leaf, self.wrap(fn, name, extract))
            self._undo.append((owner, leaf, fn))
            self.present.add(name)

    def uninstall(self) -> None:
        for owner, leaf, fn in reversed(self._undo):
            setattr(owner, leaf, fn)
        self._undo.clear()

    def arrays(self) -> dict:
        cols = {
            "name": np.frombuffer(self.name, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "op": np.frombuffer(self.op, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "count": np.frombuffer(self.count, dtype=np.int64).copy(),
            "flag": np.frombuffer(self.flag, dtype=np.int64).copy(),
        }
        if not self.calib:
            return cols
        t0, t1, parent, op = (np.array(c) for c in zip(*self.calib))
        # a handler that ran just after a span took its end time still saw
        # that span open: move such intervals up to an enclosing span
        for i in range(len(parent)):
            j = parent[i]
            while j >= 0 and not (cols["start"][j] <= t0[i]
                                  and t1[i] <= cols["end"][j]):
                j = cols["parent"][j]
            parent[i] = j
        k = len(t0)
        extra = {"name": np.full(k, self.name_id(CALIBRATION)), "parent": parent,
                 "op": op, "start": t0, "end": t1,
                 "count": np.zeros(k, dtype=np.int64),
                 "flag": np.ones(k, dtype=np.int64)}
        return {key: np.concatenate([cols[key], extra[key]]) for key in cols}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())


class SpanTable:
    """Aggregates over the recorded spans: counts, self time, sums."""

    def __init__(self, tracer: Tracer, op_factor: np.ndarray,
                 default_factor: float):
        a = tracer.arrays()
        self.names = tracer.names
        self.present = tracer.present
        self.name = a["name"]
        self.parent = a["parent"]
        self.count = a["count"]
        self.flag = a["flag"]
        dur = a["end"] - a["start"]
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        ops = a["op"]
        factor = np.full(len(dur), default_factor)
        in_op = ops >= 0
        factor[in_op] = op_factor[ops[in_op]]
        # self time in calibrated seconds; the calibration handler is a
        # child span, so no layer is charged for it
        self.self_s = (dur - child) * factor
        self.dur = dur
        self.factor = factor
        self.wall_s = float(a["end"].max() - a["start"].min()) if len(dur) else 0.0

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.name), dtype=bool)
        return self.name == self.names.index(name)

    def calls(self, name: str) -> int:
        return int(self.mask(name).sum())

    def self_time(self, name: str) -> float:
        return float(self.self_s[self.mask(name)].sum())

    def child_of(self, name: str, parent_name: str) -> np.ndarray:
        """Mask of the `name` spans whose parent is a `parent_name` span."""
        m = self.mask(name)
        parents = self.parent[m]
        ok = parents >= 0
        sel = np.zeros(len(self.name), dtype=bool)
        idx = np.flatnonzero(m)[ok]
        sel[idx] = self.mask(parent_name)[parents[ok]]
        return sel

    def net_duration(self, name: str) -> float:
        """Inclusive calibrated duration of `name` spans, minus the
        calibration handler runs nested anywhere inside them."""
        m = self.mask(name)
        total = float((self.dur[m] * self.factor[m]).sum())
        for i in np.flatnonzero(self.mask(CALIBRATION)):
            j = self.parent[i]
            while j >= 0:
                if m[j]:
                    total -= self.dur[i] * self.factor[j]
                    break
                j = self.parent[j]
        return total
