"""Correctness gate: every output against the answer recorded at unit scale
in ``reference.json.gz``.

Tolerances: instants within ``INSTANT_TOL * T`` and costs within
``COST_TOL * sigma2 * T**2`` of the reference (the problem is scale-free, so
both are relative by construction), oracle argmins within the CLI default
tolerances, and every sweep gain at least ``-GAIN_FLOOR`` (this last check
needs no reference).  Each function returns one failure label per operation,
or None when the operation passed.
"""

from __future__ import annotations

import csv
import json

import inputs

INSTANT_TOL = 1e-6
COST_TOL = 1e-9
GAIN_FLOOR = 1e-12
INPUT_TOL = 1e-11  # a sweep row's own coordinates, printed to 12 digits


def _near(x: float, ref: float, tol: float) -> bool:
    return abs(x - ref) <= tol  # False for NaN


def check_single(op: tuple, args: list, rec: list, ref: dict) -> str | None:
    kind, idx = op[0], op[1]
    status = rec[0]
    if status != "ok":
        return status
    sigma2, T = args[0], args[1]
    out = rec[2:]
    tt, jj = INSTANT_TOL * T, COST_TOL * sigma2 * T * T
    if kind == "two":
        t1, t2, cost = ref["two"][idx][:3]
        ok = (_near(out[0], t1 * T, tt) and _near(out[1], t2 * T, tt)
              and _near(out[2], cost * sigma2 * T * T, jj))
    elif kind == "one":
        t, cost = ref["one"][idx]
        ok = _near(out[0], t * T, tt) and _near(out[1], cost * sigma2 * T * T, jj)
    else:
        ok = _near(out[0], ref["cost"][idx] * sigma2 * T * T, jj)
    return None if ok else "wrong"


def check_oracle(op: tuple, args: list, rec: list, ref: dict) -> str | None:
    kind, idx = op
    status = rec[0]
    if status != "ok":
        return status
    sigma2, T = args[1], args[2]
    tt, jj, tol = INSTANT_TOL * T, COST_TOL * sigma2 * T * T, inputs.ORACLE_TOL[kind]
    out, r = rec[2:], ref[kind][idx]
    if kind == "one":
        oracle, closed = [out[0]], [out[1]]
        ok = _near(out[0], r[0], tol) and _near(out[1], r[1], tt) and _near(out[2], r[2], jj)
    else:
        oracle, closed = out[0:2], out[2:4]
        ok = (_near(out[0], r[0], tol) and _near(out[1], r[1], tol)
              and _near(out[2], r[2], tt) and _near(out[3], r[3], tt)
              and _near(out[4], r[4], jj))
    if not all(_near(c, o, tol) for c, o in zip(closed, oracle)):
        return "oracle-mismatch"
    return None if ok else "wrong"


# ---------------------------------------------------------------- sweeps


def _axis_index(x: float, base: tuple[float, float, int]) -> int:
    lo, hi, n = base
    return round((x - lo) / ((hi - lo) / (n - 1)))


def _read_rows(path: str, fmt: str) -> list[list[float]]:
    with open(path, encoding="utf-8") as fh:
        if fmt == "json":
            return json.load(fh)["rows"]
        reader = csv.reader(fh)
        next(reader)
        return [[float(x) for x in row] for row in reader]


def _gain_rows(rows, ref, lead):
    """gain1/gain2 rows: lead coordinates, then cost_regular, cost_optimal,
    gain.  ``lead(row)`` gives the reference index of the row's cell, or None
    when the coordinates are off the base lattice."""
    fails = []
    for row in rows:
        at = lead(row)
        if at is None:
            fails.append("wrong")
            continue
        reg, opt = ref[at]
        *_, j_reg, j_opt, gain = row
        ok = (_near(j_reg, reg, COST_TOL) and _near(j_opt, opt, COST_TOL)
              and _near(gain, (reg - opt) / reg, COST_TOL))
        fails.append(None if ok and gain >= -GAIN_FLOOR else "wrong")
    return fails


def _on_lattice(x: float, base) -> int | None:
    i = _axis_index(x, base)
    lo, hi, n = base
    step = (hi - lo) / (n - 1)
    return i if 0 <= i < n and _near(x, lo + i * step, INPUT_TOL * max(1.0, abs(x))) else None


def check_sweep(stem: str, path: str, code: int, ref: dict) -> list[str | None]:
    """One label per expected row of the sweep written to ``path``."""
    expected = inputs.sweep_cells(stem)
    if code != 0:
        return [f"exit-{code}"] * expected
    kind = stem.split("_")[0]
    try:
        rows = _read_rows(path, "json" if kind == "descent" else "csv")
    except (OSError, ValueError, KeyError, StopIteration):
        return ["unreadable"] * expected
    if len(rows) != expected:
        return ["wrong"] * expected
    sweeps = ref["sweeps"]
    if kind == "gain2":
        n = inputs.GAIN_BASE[2]

        def lead(row):
            idx = [_on_lattice(x, inputs.GAIN_BASE) for x in row[1:3]]
            if None in idx or row[0] not in inputs.GAIN2_PANELS:
                return None
            return (inputs.GAIN2_PANELS.index(row[0]) * n + idx[0]) * n + idx[1]

        return _gain_rows(rows, sweeps["gain2"], lead)
    if kind == "gain1":
        n = inputs.GAIN1_BASE[2]

        def lead(row):
            idx = [_on_lattice(x, inputs.GAIN1_BASE) for x in row[0:2]]
            return None if None in idx else idx[0] * n + idx[1]

        return _gain_rows(rows, sweeps["gain1"], lead)
    if kind == "instants":
        fails = []
        for T, t1, t2 in rows:
            i = _on_lattice(T, inputs.T_BASE)
            ok = i is not None and all(
                _near(t, r, INSTANT_TOL * T) for t, r in zip((t1, t2), sweeps["instants"][i]))
            fails.append(None if ok else "wrong")
        return fails
    seed = stem.split("_")[1]
    T, sigma2 = 10.0, 1.0
    fails = []
    for row, r in zip(rows, sweeps["descent"][seed]):
        ok = (all(_near(x, y, INPUT_TOL * max(1.0, y)) for x, y in zip(row[:3], r[:3]))
              and _near(row[5], r[3], INSTANT_TOL * T)
              and _near(row[6], r[4], COST_TOL * sigma2 * T * T))
        fails.append(None if ok else "wrong")
    return fails
