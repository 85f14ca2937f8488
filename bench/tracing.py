"""Spans around the calls into bmsched's layers, installed from outside.

The child of a traced run calls :meth:`Tracer.install`, which replaces each
function in ``SPANNED`` by a wrapper that records a span (name, start, end,
parent), in the module that defines it and in every bmsched module that
imported it by name.  Spans stay in memory until :meth:`Tracer.dump` writes
them out; :func:`aggregate` turns them into per-layer metrics in the parent.
``kalman.parallel_sum`` only gets a call counter: a span would cost more than
the call.
"""

import json
import sys
import time
from array import array

SPANNED = {
    "two_measure": ("optimize_two", "cost_pair", "classify_regime", "critical_spacing",
                    "optimal_gap", "equilibrium_gap"),
    "numerics": ("golden_section_min", "bisect_root", "grid_oracle_1", "grid_oracle_2"),
    "one_measure": ("optimal_instant_1", "cost_single"),
    "kalman": ("cost", "variance_profile"),
    "experiments": ("run_sweep",),
    "cli": ("run", "render_csv", "render_json"),
}
COUNTED = {"kalman": ("parallel_sum",)}
OPTIMIZE_TWO = "two_measure.optimize_two"
ROOT = "op"  # one per benchmark operation; its spans share it as their root


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        # counters as one-element lists, so wrappers update them cheaply
        self.counters = {"kalman.parallel_sum.calls": [0], "numerics.grid_oracle_2.cells": [0]}
        self.cut = {key: 0 for key in self.counters}
        self.cut_roots = []
        self._snapshot = {}

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _spanned(self, fn, name):
        nid = self._id(name)
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self.stack
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(perf())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = perf()
                stack.pop()

        return wrapper

    def _optimize_two(self, fn):
        """Span named after the regime the solve returned (.r1/.r2/.r3); it
        keeps the name .err when the solve raised."""
        ids = {r: self._id(f"{OPTIMIZE_TWO}.r{r}") for r in "123"}
        names = self.name
        index = []  # span index of each open solve

        def solve(*args, **kwargs):
            sol = fn(*args, **kwargs)
            names[index[-1]] = ids[sol.regime.value]
            return sol

        spanned = self._spanned(solve, f"{OPTIMIZE_TWO}.err")

        def wrapper(*args, **kwargs):
            index.append(len(names))
            try:
                return spanned(*args, **kwargs)
            finally:
                index.pop()

        return wrapper

    def _grid_oracle_2(self, fn):
        cells = self.counters["numerics.grid_oracle_2.cells"]

        def counted(params, sensors, step):
            m = max(1, int(round(params.horizon / step))) + 1  # numerics._lattice
            cells[0] += m * m
            return fn(params, sensors, step)

        return self._spanned(counted, "numerics.grid_oracle_2")

    def _counted(self, fn, key):
        cell = self.counters[key]

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "bmsched" or name.startswith("bmsched.")]
        for table in (SPANNED, COUNTED):
            for mod, fnames in table.items():
                home = sys.modules[f"bmsched.{mod}"]
                for fname in fnames:
                    orig = getattr(home, fname)
                    qual = f"{mod}.{fname}"
                    if qual == OPTIMIZE_TWO:
                        wrapper = self._optimize_two(orig)
                    elif qual == "numerics.grid_oracle_2":
                        wrapper = self._grid_oracle_2(orig)
                    elif table is COUNTED:
                        wrapper = self._counted(orig, f"{qual}.calls")
                    else:
                        wrapper = self._spanned(orig, qual)
                    for m in modules:
                        if m.__dict__.get(fname) is orig:
                            setattr(m, fname, wrapper)

    def begin_op(self):
        self._snapshot = {key: cell[0] for key, cell in self.counters.items()}
        i = len(self.start)
        self.name.append(self._id(ROOT))
        self.parent.append(-1)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        self.stack[:] = [-1, i]
        return i

    def end_op(self, root, cut):
        """Close the operation's root span.  An operation cut off by the
        deadline is marked so that its spans and counts, which depend on how
        far it got, stay out of the per-layer metrics."""
        now = time.perf_counter()
        self.end[root] = now
        self.stack[:] = [-1]
        if not cut:
            return
        self.cut_roots.append(root)
        # the timer may have fired between the appends of a wrapper
        n = min(len(self.name), len(self.parent), len(self.start), len(self.end))
        for arr in (self.name, self.parent, self.start, self.end):
            del arr[n:]
        for i in range(root, n):
            if self.end[i] == 0.0:
                self.end[i] = now
        for key, cell in self.counters.items():
            self.cut[key] += cell[0] - self._snapshot[key]
            cell[0] = self._snapshot[key]

    def dump(self, workdir):
        for field in ("name", "parent", "start", "end"):
            with open(f"{workdir}/spans.{field}", "wb") as fh:
                getattr(self, field).tofile(fh)
        meta = {
            "names": self.names,
            "spans": len(self.start),
            "counters": {key: cell[0] for key, cell in self.counters.items()},
            "cut_counters": self.cut,
            "cut_roots": self.cut_roots,
        }
        with open(f"{workdir}/spans.json", "w", encoding="utf-8") as fh:
            json.dump(meta, fh)
        return {"spans": len(self.start), "cut_ops": len(self.cut_roots)}


def load(workdir):
    with open(f"{workdir}/spans.json", encoding="utf-8") as fh:
        meta = json.load(fh)
    arrays = {}
    for field, code in (("name", "i"), ("parent", "i"), ("start", "d"), ("end", "d")):
        arr = array(code)
        with open(f"{workdir}/spans.{field}", "rb") as fh:
            arr.fromfile(fh, meta["spans"])
        arrays[field] = arr
    return meta, arrays


def aggregate(meta, arrays):
    """Per-name calls, total and self seconds, plus calls made inside
    completed regime-3 solves, over the operations not cut off by the deadline.

    Self time is a span's duration minus the durations of its direct children.
    A direct recursion (``cli.render_json``) adds its calls but not its
    nested duration to the total.
    """
    names = meta["names"]
    name, parent, start, end = arrays["name"], arrays["parent"], arrays["start"], arrays["end"]
    n = len(start)
    cut = set(meta["cut_roots"])
    is_opt2 = [nm.startswith(OPTIMIZE_TWO) for nm in names]
    r3 = names.index(f"{OPTIMIZE_TWO}.r3") if f"{OPTIMIZE_TWO}.r3" in names else -2
    root = [0] * n
    solve = [-1] * n  # innermost enclosing optimize_two span, excluding the span itself
    child = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p < 0:
            root[i] = i
            continue
        root[i] = root[p]
        solve[i] = p if is_opt2[name[p]] else solve[p]
        child[p] += end[i] - start[i]
    stats = {}
    in_r3 = {}
    for i in range(n):
        if root[i] in cut or parent[i] < 0:
            continue
        nm = names[name[i]]
        dur = end[i] - start[i]
        keys = [nm, OPTIMIZE_TWO] if is_opt2[name[i]] else [nm]
        for key in keys:
            s = stats.setdefault(key, [0, 0.0, 0.0])
            s[0] += 1
            if name[parent[i]] != name[i]:
                s[1] += dur
            s[2] += dur - child[i]
        if solve[i] >= 0 and name[solve[i]] == r3:
            in_r3[nm] = in_r3.get(nm, 0) + 1
    return stats, in_r3
