#!/usr/bin/env python3
"""Record the reference answers the benchmark checks every run against.

    python3 bench/make_reference.py          # writes bench/reference.json.gz

Solves every pool member of ``inputs.py`` at unit scale and every point of the
sweep base lattices with the bmsched in ``src/``, and stores the answers
with the pool fingerprint and the commit they came from.  Rerun it only when
the pools or lattices change, never to absorb a changed answer.
"""

from __future__ import annotations

import gzip
import json
import os
import pathlib
import platform
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import inputs  # noqa: E402
from bmsched import experiments, kalman, numerics, one_measure, two_measure  # noqa: E402

OUT = HERE / "reference.json.gz"


def _single() -> tuple[dict, list[str]]:
    pools = inputs.single_pools()
    two = []
    for v0, v1, v2 in pools["two"]:
        sol = two_measure.optimize_two(1.0, 1.0, v0, v1, v2)
        two.append([sol.t1_opt, sol.t2_opt, sol.cost_at_opt, sol.regime.value])
    one = []
    for v0, v1 in pools["one"]:
        sol = one_measure.optimal_instant_1(1.0, 1.0, v0, v1)
        one.append([sol.t_opt, sol.cost_at_opt])
    cost = []
    for v0, sensors, instants in pools["cost"]:
        params = kalman.ModelParams(1.0, 1.0, v0)
        cost.append(kalman.cost(params, kalman.SensorSet(sensors),
                                kalman.Schedule(instants)).total)
    return {"two": two, "one": one, "cost": cost}, [r[3] for r in two]


def _oracle() -> dict:
    pools = inputs.oracle_pools()
    one = []
    for sigma2, T, v0, v1 in pools["one"]:
        orc = numerics.grid_oracle_1(kalman.ModelParams(sigma2, T, v0), v1,
                                     inputs.ORACLE_STEP["one"])
        sol = one_measure.optimal_instant_1(sigma2, T, v0, v1)
        one.append([orc.argmin[0], sol.t_opt, sol.cost_at_opt])
    two = []
    for sigma2, T, v0, v1, v2 in pools["two"]:
        orc = numerics.grid_oracle_2(kalman.ModelParams(sigma2, T, v0), (v1, v2),
                                     inputs.ORACLE_STEP["two"])
        sol = two_measure.optimize_two(sigma2, T, v0, v1, v2)
        two.append([orc.argmin[0], orc.argmin[1], sol.t1_opt, sol.t2_opt, sol.cost_at_opt])
    return {"one": one, "two": two}


def _sweeps() -> dict:
    def rows(kind, **kw):
        return experiments.run_sweep(experiments.SweepSpec(kind=kind, **kw)).rows

    gain2 = rows("gain2", fixed={"sigma2": 1.0, "T": 1.0},
                 swept={"v1": inputs.GAIN_BASE, "v2": inputs.GAIN_BASE})
    gain1 = rows("gain1", fixed={"sigma2": 1.0, "T": 1.0},
                 swept={"v0": inputs.GAIN1_BASE, "v1": inputs.GAIN1_BASE})
    inst = rows("instants_vs_T", fixed={"sigma2": 1.0, "v0": 1.0, "v1": 1.0, "v2": 1.0},
                swept={"T": inputs.T_BASE})
    descent = {}
    for stem, spec in inputs.sweep_specs().items():
        if spec["kind"] == "descent_stats":
            found = rows("descent_stats", fixed=spec["fixed"], seed=spec["seed"])
            descent[str(spec["seed"])] = [[r[0], r[1], r[2], r[5], r[6]] for r in found]
    return {
        "gain2": [[r[3], r[4]] for r in gain2],
        "gain1": [[r[2], r[3]] for r in gain1],
        "instants": [[r[1], r[2]] for r in inst],
        "descent": descent,
    }


def _meta() -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {"commit": commit, "python": platform.python_version(),
            "numpy": np.__version__, "nproc": os.cpu_count()}


def main() -> None:
    single, regimes = _single()
    doc = {
        "meta": _meta(),
        "pools_sha256": inputs.pools_fingerprint(),
        "single": single,
        "two_regimes": regimes,
        "oracle": _oracle(),
        "sweeps": _sweeps(),
    }
    # mtime=0 keeps the file byte-identical across regenerations
    with gzip.GzipFile(OUT, "wb", mtime=0) as fh:
        fh.write(json.dumps(doc).encode())
    print(f"wrote {OUT.relative_to(ROOT)} ({OUT.stat().st_size} bytes)")


if __name__ == "__main__":
    main()
