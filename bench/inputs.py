"""Seeded inputs for the three workloads.

Every input is drawn from a fixed pool (or, for the sweeps, a fixed base
lattice) generated from ``MASTER_SEED``; ``reference.json.gz`` records the
answer of each pool member, so every input a run can produce has a recorded
reference.  A run's ``--seed`` chooses which members are used, in which order
and, for single-solves, at which time and variance scale.  Only the standard
library is used here, so the parent process never imports numpy or bmsched.
"""

from __future__ import annotations

import hashlib
import json
import random

MASTER_SEED = 1902_06126
POOL_SIZE = 256

# single-solves: each dimensionless instance (sigma2 = T = 1, variances drawn
# from the paper's gain-map cube [0, 5]) is scaled by 10^U(-2, 2) in time and,
# independently, in variance, a range on which every call succeeds.  The
# traced run's scale probe draws one pass at 10^U(-8, 8), the ROADMAP's
# robustness range, on which regime-3 two-measure solves hang, raise or
# answer off their unit-scale solution.
SINGLE_KINDS = ("two", "one", "cost")
SCALE_DECADES = 2.0
PROBE_DECADES = 8.0
MAX_MEASUREMENTS = 16

# oracle-verify: the distributions of ``bmsched oracle-check`` (criterion 5)
# with the CLI's default grid steps and tolerances.
ORACLE_STEP = {"one": 1e-5, "two": 2e-3}
ORACLE_TOL = {"one": 1e-4, "two": 4e-3}
ORACLE_PER_PASS = 32  # trials of each kind per pass, one per T stratum

# paper-sweeps: sub-lattices of fixed base lattices, so every row has a
# recorded reference.  Base lattices are (lo, hi, count) as in a sweep spec.
GAIN_BASE = (0.0, 5.0, 21)  # gain2 (v1, v2), step 0.25
GAIN1_BASE = (0.0, 5.0, 41)  # gain1 (v0, v1), step 0.125
T_BASE = (0.05, 5.0, 100)  # instants_vs_T, step 0.05
GAIN2_PANELS = (0.0, 2.0, 5.0)
DESCENT_SEEDS = 16
DESCENT_RUNS = 5


def single_pools() -> dict[str, list]:
    rng = random.Random(MASTER_SEED)
    two = [[rng.uniform(0, 5), rng.uniform(0, 5), rng.uniform(0, 5)] for _ in range(POOL_SIZE)]
    one = [[rng.uniform(0, 5), rng.uniform(0, 5)] for _ in range(POOL_SIZE)]
    cost = []
    for _ in range(POOL_SIZE):
        n = rng.randint(1, MAX_MEASUREMENTS)
        sensors = [rng.uniform(0, 5) for _ in range(n)]
        instants = sorted(rng.random() for _ in range(n))
        cost.append([rng.uniform(0, 5), sensors, instants])
    return {"two": two, "one": one, "cost": cost}


def oracle_pools() -> dict[str, list]:
    """[sigma2, T, v0, v1(, v2)] drawn as ``bmsched oracle-check`` draws them."""
    rng = random.Random(MASTER_SEED + 1)
    one, two = [], []
    for _ in range(POOL_SIZE):
        sigma2, v0, v1 = rng.uniform(0.5, 2.0), rng.uniform(0.0, 3.0), rng.uniform(0.05, 3.0)
        one.append([sigma2, rng.uniform(0.2, 3.0), v0, v1])
    for _ in range(POOL_SIZE):
        sigma2, v0 = rng.uniform(0.5, 2.0), rng.uniform(0.0, 3.0)
        v1, v2 = rng.uniform(0.05, 3.0), rng.uniform(0.05, 3.0)
        two.append([sigma2, rng.uniform(0.1, 4.0), v0, v1, v2])
    return {"one": one, "two": two}


def pools_fingerprint() -> str:
    blob = json.dumps([single_pools(), oracle_pools()]).encode()
    return hashlib.sha256(blob).hexdigest()


def _stratified(rng: random.Random, m: int, lo: float, hi: float) -> list[float]:
    """m draws of U(lo, hi), one from each of m equal strata, in random order."""
    vals = [lo + (hi - lo) * (k + rng.random()) / m for k in range(m)]
    rng.shuffle(vals)
    return vals


# ---------------------------------------------------------------- single-solves


def single_args(kind: str, inst: list, a: float, b: float) -> list:
    """Arguments of one library call: time scaled by a, variance by b."""
    sigma2, T = b / a, a
    if kind != "cost":
        return [sigma2, T] + [v * b for v in inst]
    v0, sensors, instants = inst
    return [sigma2, T, v0 * b, [v * b for v in sensors], [t * a for t in instants]]


def single_stream(seed: int, regimes: list[str], passes: int,
                  decades: float = SCALE_DECADES) -> list[tuple]:
    """(kind, pool index, time exponent, variance exponent) per operation.

    A pass calls every pool member of every kind once, interleaving the kinds.
    Scale exponents are stratified within each pass, and separately within
    each unit-scale regime of the two-measure pool, so every pass puts the
    same share of each regime at large and at small scales.
    """
    rng = random.Random(seed)
    ops = []
    for _ in range(passes):
        lanes = []
        for kind in SINGLE_KINDS:
            order = rng.sample(range(POOL_SIZE), POOL_SIZE)
            groups: dict[str, list[int]] = {}
            for idx in order:
                groups.setdefault(regimes[idx] if kind == "two" else "", []).append(idx)
            scale = {}
            for members in groups.values():
                las = _stratified(rng, len(members), -decades, decades)
                lbs = _stratified(rng, len(members), -decades, decades)
                for idx, la, lb in zip(members, las, lbs):
                    scale[idx] = (la, lb)
            lanes.append([(kind, idx) + scale[idx] for idx in order])
        for trio in zip(*lanes):
            ops.extend(trio)
    return ops


# ---------------------------------------------------------------- oracle-verify


def oracle_stream(seed: int, pools: dict[str, list], passes: int) -> list[tuple]:
    """(kind, pool index) per trial.  A pass holds ORACLE_PER_PASS trials of
    each kind, one from each stratum of the pool sorted by horizon T, so each
    pass has nearly the same spread of lattice sizes.  Each stratum hands out
    its members in a seeded order without repeats, so every POOL_SIZE /
    ORACLE_PER_PASS passes use the whole pool, including its largest lattice,
    which sets the peak memory."""
    rng = random.Random(seed)
    width = POOL_SIZE // ORACLE_PER_PASS
    strata = {}
    for kind, pool in pools.items():
        by_T = sorted(range(len(pool)), key=lambda i: pool[i][1])
        strata[kind] = [by_T[k * width:(k + 1) * width] for k in range(ORACLE_PER_PASS)]
    ops, order = [], {}
    for p in range(passes):
        lanes = []
        for kind in ("one", "two"):
            if p % width == 0:
                order[kind] = [rng.sample(s, width) for s in strata[kind]]
            picks = [members[p % width] for members in order[kind]]
            rng.shuffle(picks)
            lanes.append([(kind, idx) for idx in picks])
        for pair in zip(*lanes):
            ops.extend(pair)
    return ops


# ---------------------------------------------------------------- paper-sweeps


def _sub_axis(base: tuple[float, float, int], offset: int, stride: int, count: int):
    lo, hi, n = base
    step = (hi - lo) / (n - 1)
    start = lo + offset * step
    return [start, start + (count - 1) * stride * step, count]


def sweep_specs() -> dict[str, dict]:
    """Every spec a suite can use, keyed by a file-name stem."""
    specs = {}
    for o1 in range(3):
        for o2 in range(3):
            specs[f"gain2_{o1}_{o2}"] = {
                "kind": "gain2",
                "fixed": {"sigma2": 1.0, "T": 1.0},
                "swept": {"v1": _sub_axis(GAIN_BASE, o1, 3, 7),
                          "v2": _sub_axis(GAIN_BASE, o2, 3, 7)},
            }
    for o1 in range(5):
        for o2 in range(5):
            specs[f"gain1_{o1}_{o2}"] = {
                "kind": "gain1",
                "fixed": {"sigma2": 1.0, "T": 1.0},
                "swept": {"v0": _sub_axis(GAIN1_BASE, o1, 4, 10),
                          "v1": _sub_axis(GAIN1_BASE, o2, 4, 10)},
            }
    for o in range(10):
        specs[f"instants_{o}"] = {
            "kind": "instants_vs_T",
            "fixed": {"sigma2": 1.0, "v0": 1.0, "v1": 1.0, "v2": 1.0},
            "swept": {"T": _sub_axis(T_BASE, o, 10, 10)},
        }
    for s in range(DESCENT_SEEDS):
        specs[f"descent_{s}"] = {
            "kind": "descent_stats",
            "fixed": {"sigma2": 1.0, "T": 10.0, "runs": float(DESCENT_RUNS)},
            "seed": s,
        }
    return specs


def _bag(rng: random.Random, options: list[str], count: int) -> list[str]:
    """count draws that use every option once, in a seeded order, before any
    option repeats."""
    out = []
    while len(out) < count:
        out += rng.sample(options, len(options))
    return out[:count]


def sweep_stream(seed: int, suites: int) -> list[tuple[str, ...]]:
    """Spec stems per suite: one gain2 (all three panels), gain1,
    instants_vs_T and descent_stats sweep, each at a seeded offset.  Each
    kind cycles through all its offsets before it repeats one, so every run
    of a few dozen suites has nearly the same mix of cheap and costly
    sweeps, whatever the seed."""
    rng = random.Random(seed)
    return list(zip(
        _bag(rng, [f"gain2_{a}_{b}" for a in range(3) for b in range(3)], suites),
        _bag(rng, [f"gain1_{a}_{b}" for a in range(5) for b in range(5)], suites),
        _bag(rng, [f"instants_{o}" for o in range(10)], suites),
        _bag(rng, [f"descent_{s}" for s in range(DESCENT_SEEDS)], suites),
    ))


def sweep_cells(stem: str) -> int:
    """Rows a sweep writes: cells for the maps, horizons, descent runs."""
    kind = stem.split("_")[0]
    return {"gain2": 3 * 49, "gain1": 100, "instants": 10, "descent": DESCENT_RUNS}[kind]
