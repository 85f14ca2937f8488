"""Exact results of the solvers, stored in tests/golden/solutions.json.

Re-record, from the repository root, with

    PYTHONPATH=src python3 tests/_golden.py

The grid oracles' records (argmin, minimum, whether refinement moved it, and
the coordinatewise lattice minima of ``lattice_cwlms``, from the test helper
tests/_lattice.py) are kept apart, in tests/golden/oracles.json.  Their inputs
are a fixed list, not a draw: every horizon regime, zero and ``inf`` sensors,
v0 = 0, and lattice steps 4e-3 and 2e-3.

The instances are seeded draws over all three two-measure regimes, at time
and variance scales 10^U(-2, 2) and with zero variances mixed in.  They were
drawn once, when the file was first recorded; a re-recording solves the
stored instances again.  ``optimize_two`` and ``descend_two`` share their
instances, and the descent's records include its trace.  Inputs and
results are stored as ``float.hex`` (an error as its type and message), so that
``test_golden_solutions_are_bit_identical`` can demand exact equality.  Only
re-record when a change is meant to move results, and say so where the
change is described.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from _lattice import lattice_cwlms
from bmsched.kalman import ModelParams
from bmsched.numerics import grid_oracle_1, grid_oracle_2
from bmsched.one_measure import optimal_instant_1
from bmsched.two_measure import (
    cost_pair,
    critical_duration_2_first,
    critical_duration_2_second,
    descend_two,
    optimal_gap,
    optimize_two,
)

PATH = Path(__file__).parent / "golden" / "solutions.json"
ORACLE_PATH = Path(__file__).parent / "golden" / "oracles.json"
SEED = 20261018
PER_REGIME = 100


def _hex(x: float | None) -> str | None:
    return None if x is None else float(x).hex()


def _iterations_digest(iterations) -> str:
    """sha256 of every float of a descent trace, in ``float.hex`` form."""
    text = ";".join(",".join(float(x).hex() for x in it) for it in iterations)
    return hashlib.sha256(text.encode()).hexdigest()


def _solution(sol) -> dict:
    return {
        "regime": sol.regime.value,
        "t1_opt": _hex(sol.t1_opt),
        "t2_opt": _hex(sol.t2_opt),
        "cost_at_opt": _hex(sol.cost_at_opt),
        "T2_crit": _hex(sol.T2_crit),
        "T1_crit": _hex(sol.T1_crit),
    }


def solve_descend_two(args) -> dict:
    sol = descend_two(*args)
    trace = sol.trace
    return {
        **_solution(sol),
        "iterations": None if trace is None else len(trace.iterations),
        "iterations_sha256": None if trace is None else _iterations_digest(trace.iterations),
        "final_gap": None if trace is None else _hex(trace.final_gap),
    }


def solve_optimal_instant_1(args) -> dict:
    sol = optimal_instant_1(*args)
    return {
        "t_opt": _hex(sol.t_opt),
        "regime": sol.regime.value,
        "cost_at_opt": _hex(sol.cost_at_opt),
        "critical_duration": _hex(sol.critical_duration),
    }


SOLVERS = {
    "optimize_two": lambda args: _solution(optimize_two(*args)),
    "descend_two": solve_descend_two,
    "optimal_instant_1": solve_optimal_instant_1,
    "cost_pair": lambda args: {"cost": _hex(cost_pair(*args))},
    "optimal_gap": lambda args: {"gap": _hex(optimal_gap(*args))},
}


def _oracle(res, cwlms=None) -> dict:
    return {
        "argmin": [_hex(x) for x in res.argmin],
        "min_value": _hex(res.min_value),
        "refined": res.refined,
        "lattice_cwlms": None if cwlms is None else [[_hex(a), _hex(b)] for a, b in cwlms],
    }


# args are (sigma2, T, v0, v1, step) and (sigma2, T, v0, v1, v2, step)
ORACLES = {
    "grid_oracle_1": lambda a: _oracle(grid_oracle_1(ModelParams(*a[:3]), a[3], a[4])),
    "grid_oracle_2": lambda a: _oracle(grid_oracle_2(ModelParams(*a[:3]), a[3:5], a[5]),
                                       lattice_cwlms(ModelParams(*a[:3]), a[3:5], a[5])),
}


def solve(name: str, args) -> dict:
    """Results of one stored call; an error is stored as its type and message."""
    try:
        return {**SOLVERS, **ORACLES}[name](args)
    except (ValueError, RuntimeError) as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}


def _draw(rng, regime: int):
    """(sigma2, T, v0, v1, v2) whose horizon lies in the given regime."""
    while True:
        sigma2 = float(10.0 ** rng.uniform(-2.0, 2.0))
        scale = float(10.0 ** rng.uniform(-2.0, 2.0))
        v = [float(rng.uniform(0.0, 4.0)) * scale for _ in range(3)]
        for k in range(3):
            if rng.uniform() < 0.1:
                v[k] = 0.0
        v0, v1, v2 = v
        t2c = critical_duration_2_second(sigma2, v0, v1, v2)
        t1c = critical_duration_2_first(sigma2, v0, v1, v2)
        if regime == 1:
            T = t2c * float(rng.uniform(0.1, 1.0))
        elif regime == 2:
            T = t2c + (t1c - t2c) * float(rng.uniform(0.01, 0.99))
        elif t1c > 0.0:
            T = t1c * float(rng.uniform(1.05, 4.0))
        else:
            T = scale / sigma2 * float(rng.uniform(0.1, 4.0))
        if T > 0.0:
            return sigma2, T, v0, v1, v2


def inputs() -> dict:
    """The seeded inputs of every solver, in recording order."""
    rng = np.random.default_rng(SEED)
    doc = {name: [] for name in SOLVERS}
    for regime in (1, 2, 3):
        for _ in range(PER_REGIME):
            args = _draw(rng, regime)
            T = args[1]
            t1, t2 = sorted(float(x) for x in rng.uniform(0.0, T, size=2))
            doc["optimize_two"].append(args)
            doc["descend_two"].append(args)
            doc["optimal_instant_1"].append(args[:4])
            doc["cost_pair"].append((*args, t1, t2))
            doc["optimal_gap"].append((*args, t1))
    return doc


def oracle_inputs() -> dict:
    """The oracles' inputs: each sensor set at horizons in every regime it has."""
    inf = float("inf")
    doc = {name: [] for name in ORACLES}
    steps = (4e-3, 2e-3)
    for sigma2, v0, v1, v2 in [
        (1.3, 1.0, 1.0, 2.0),
        (0.7, 0.6, 0.15, 0.15),
        (1.0, 0.8, 0.0, 0.4),
        (1.0, 0.8, 0.4, 0.0),
        (0.8, 0.0, 0.5, 1.5),
        (1.0, 0.0, 0.0, 0.0),
    ]:
        t2c = critical_duration_2_second(sigma2, v0, v1, v2)
        t1c = critical_duration_2_first(sigma2, v0, v1, v2)
        horizons = [T for T in (0.5 * t2c, 0.5 * (t2c + t1c), 1.5 * t1c) if T > 0.0]
        if t1c == 0.0:
            horizons.append(1.2)
        for k, T in enumerate(horizons):
            doc["grid_oracle_2"].append((sigma2, T, v0, v1, v2, steps[k % 2]))
    for k, (sigma2, v0, v1, v2) in enumerate([
        (1.0, 1.0, inf, 1.0),
        (1.0, 1.0, 1.0, inf),
        (1.0, 0.5, inf, inf),
        (1.0, 0.0, 0.0, inf),
    ]):
        for T in (0.3, 1.2):
            doc["grid_oracle_2"].append((sigma2, T, v0, v1, v2, steps[k % 2]))
    for k, (sigma2, v0, v1) in enumerate([
        (1.3, 1.0, 1.0), (0.7, 2.0, 0.5), (1.0, 0.0, 0.5), (1.0, 1.0, 0.0), (1.0, 1.0, inf),
    ]):
        for T in (0.1, 0.7, 3.0):
            doc["grid_oracle_1"].append((sigma2, T, v0, v1, steps[k % 2]))
    return doc


def _dumps(doc: dict) -> str:
    """JSON with one record per line, so that a re-recording diffs by record."""
    sections = []
    for name, records in doc.items():
        lines = ",\n".join("  " + json.dumps(r, separators=(",", ":")) for r in records)
        sections.append(f" {json.dumps(name)}: [\n{lines}\n ]")
    return "{\n" + ",\n".join(sections) + "\n}\n"


def load(path: Path = PATH) -> dict:
    """Stored records: solver name -> list of (args, expected results)."""
    doc = json.loads(path.read_text())
    return {
        name: [
            (tuple(float.fromhex(x) for x in r["args"]),
             {k: v for k, v in r.items() if k != "args"})
            for r in records
        ]
        for name, records in doc.items()
    }


if __name__ == "__main__":
    # A re-recording solves the stored inputs again: drawing them anew would
    # let a change to the critical durations that _draw calls change them.
    for path, first_inputs in ((PATH, inputs), (ORACLE_PATH, oracle_inputs)):
        if path.exists():
            arg_lists = {name: [args for args, _ in records] for name, records in load(path).items()}
        else:
            arg_lists = first_inputs()
        recorded = {
            name: [{"args": [_hex(x) for x in args], **solve(name, args)} for args in arg_list]
            for name, arg_list in arg_lists.items()
        }
        path.write_text(_dumps(recorded))
        print(f"wrote {path}")
