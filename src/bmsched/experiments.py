"""Desk-scale numerical experiments: gain maps against naive schedules, bound
comparisons, optimal instants as the horizon grows, coordinate-descent
convergence statistics, and the window iteration.

Every experiment is driven by a :class:`SweepSpec` and returns a
:class:`SweepResult` whose rows are exactly reproducible from the spec (all
randomness comes from the recorded seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import one_measure, two_measure
from .two_measure import DescentTrace

__all__ = [
    "SWEEP_KINDS",
    "GAIN2_DEFAULT_PANELS",
    "SweepSpec",
    "SweepResult",
    "gain_one_measure",
    "gain_two_measures",
    "bounds_comparison",
    "instants_vs_T",
    "descent_statistics",
    "windows_experiment",
    "run_sweep",
]

# prior-variance panels of the two-measure gain map
GAIN2_DEFAULT_PANELS = (0.0, 2.0, 5.0)


@dataclass(frozen=True)
class SweepSpec:
    """What to sweep: fixed parameter values plus (min, max, count) ranges."""

    kind: str
    fixed: dict[str, float] = field(default_factory=dict)
    swept: dict[str, tuple[float, float, int]] = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.kind not in SWEEP_KINDS:
            raise ValueError(f"kind must be one of {SWEEP_KINDS}, got {self.kind!r}")
        for name, rng in self.swept.items():
            lo, hi, count = rng
            if not (hi > lo):
                raise ValueError(f"swept range {name} must be nondegenerate, got {rng}")
            if int(count) < 2:
                raise ValueError(f"swept range {name} needs count >= 2, got {count}")

    def axis(self, name: str, default: tuple[float, float, int]) -> list[float]:
        """Evenly spaced values of a swept parameter, as Python floats: the
        scalar solvers run about 1.7x slower on ``np.float64`` operands."""
        lo, hi, count = self.swept.get(name, default)
        return np.linspace(lo, hi, int(count)).tolist()

    def value(self, name: str, default: float) -> float:
        return float(self.fixed.get(name, default))


@dataclass(frozen=True)
class SweepResult:
    """Plot-ready experiment output: one row per cell (or per run), named
    columns, and recomputable scalar summaries.  ``details`` carries optional
    per-run structures (descent traces) that do not fit a flat row."""

    kind: str
    columns: tuple[str, ...]
    rows: tuple[tuple[float, ...], ...]
    summary: dict[str, float]
    details: tuple[DescentTrace, ...] | None = None


def _require_kind(spec: SweepSpec, kind: str) -> None:
    if spec.kind != kind:
        raise ValueError(f"spec.kind must be {kind!r}, got {spec.kind!r}")


def gain_one_measure(spec: SweepSpec) -> SweepResult:
    """Relative gain of the optimal instant over measuring at T/2, on a
    (v0, v1) grid."""
    _require_kind(spec, "gain1")
    sigma2 = spec.value("sigma2", 1.0)
    T = spec.value("T", 1.0)
    v0s = spec.axis("v0", (0.0, 5.0, 101))
    v1s = spec.axis("v1", (0.0, 5.0, 101))
    rows = []
    best = (-math.inf, 0.0, 0.0)
    for v0 in v0s:
        for v1 in v1s:
            j_reg = one_measure.cost_single(sigma2, T, v0, v1, 0.5 * T)
            j_opt = one_measure.optimal_instant_1(sigma2, T, v0, v1).cost_at_opt
            gain = (j_reg - j_opt) / j_reg
            rows.append((v0, v1, j_reg, j_opt, gain))
            if gain > best[0]:
                best = (gain, v0, v1)
    summary = {"max_gain": best[0], "argmax_v0": best[1], "argmax_v1": best[2]}
    return SweepResult(
        kind=spec.kind,
        columns=("v0", "v1", "cost_regular", "cost_optimal", "gain"),
        rows=tuple(rows),
        summary=summary,
    )


def gain_two_measures(spec: SweepSpec) -> SweepResult:
    """Relative gain of the optimal two-measure schedule over the regular
    (T/3, 2T/3) schedule, on a (v1, v2) grid for each prior-variance panel."""
    _require_kind(spec, "gain2")
    sigma2 = spec.value("sigma2", 1.0)
    T = spec.value("T", 1.0)
    panels = (spec.value("v0", 0.0),) if "v0" in spec.fixed else GAIN2_DEFAULT_PANELS
    v1s = spec.axis("v1", (0.0, 5.0, 101))
    v2s = spec.axis("v2", (0.0, 5.0, 101))
    rows = []
    best = (-math.inf, 0.0, 0.0, 0.0)
    for v0 in panels:
        for v1 in v1s:
            for v2 in v2s:
                j_reg = two_measure.cost_pair(
                    sigma2, T, v0, v1, v2, T / 3.0, 2.0 * T / 3.0
                )
                sol = two_measure.optimize_two(sigma2, T, v0, v1, v2)
                gain = (j_reg - sol.cost_at_opt) / j_reg
                rows.append((v0, v1, v2, j_reg, sol.cost_at_opt, gain))
                if gain > best[0]:
                    best = (gain, v0, v1, v2)
    summary = {
        "max_gain": best[0],
        "argmax_v0": best[1],
        "argmax_v1": best[2],
        "argmax_v2": best[3],
    }
    return SweepResult(
        kind=spec.kind,
        columns=("v0", "v1", "v2", "cost_regular", "cost_optimal", "gain"),
        rows=tuple(rows),
        summary=summary,
    )


def bounds_comparison(spec: SweepSpec) -> SweepResult:
    """Costs of measuring at 0, at T/2 and at the optimum, against the
    schedule-independent lower bound, swept over v0."""
    _require_kind(spec, "bounds1")
    sigma2 = spec.value("sigma2", 1.0)
    T = spec.value("T", 1.0)
    v1 = spec.value("v1", 1.0)
    v0s = spec.axis("v0", (0.0, 2.0, 101))
    rows = []
    for v0 in v0s:
        j0 = one_measure.cost_single(sigma2, T, v0, v1, 0.0)
        jmid = one_measure.cost_single(sigma2, T, v0, v1, 0.5 * T)
        jopt = one_measure.optimal_instant_1(sigma2, T, v0, v1).cost_at_opt
        lower = one_measure.lower_bound(sigma2, T, v0, v1)
        rows.append((v0, j0, jmid, jopt, lower))
    worst_margin = min(row[3] - row[4] for row in rows)
    return SweepResult(
        kind=spec.kind,
        columns=("v0", "cost_at_zero", "cost_at_half", "cost_optimal", "lower_bound"),
        rows=tuple(rows),
        summary={"min_margin_over_bound": worst_margin},
    )


def instants_vs_T(spec: SweepSpec) -> SweepResult:
    """Optimal two-measure instants as functions of the horizon length."""
    _require_kind(spec, "instants_vs_T")
    sigma2 = spec.value("sigma2", 1.0)
    v0 = spec.value("v0", 1.0)
    v1 = spec.value("v1", 1.0)
    v2 = spec.value("v2", 1.0)
    Ts = spec.axis("T", (0.05, 5.0, 100))
    rows = []
    for T in Ts:
        sol = two_measure.optimize_two(sigma2, T, v0, v1, v2)
        rows.append((T, sol.t1_opt, sol.t2_opt))
    t2c = two_measure.critical_duration_2_second(sigma2, v0, v1, v2)
    t1c = two_measure.critical_duration_2_first(sigma2, v0, v1, v2)
    return SweepResult(
        kind=spec.kind,
        columns=("T", "t1_opt", "t2_opt"),
        rows=tuple(rows),
        summary={"T2_crit": t2c, "T1_crit": t1c},
    )


def _draw_regime3_triples(
    rng: np.random.Generator, sigma2: float, T: float, n: int
) -> list[tuple[float, float, float]]:
    """Rejection-sample (v0, v1, v2) uniformly on the regime-3 part of
    [1, 10]^3 (first critical duration below T)."""
    out = []
    while len(out) < n:
        v0, v1, v2 = rng.uniform(1.0, 10.0, size=3).tolist()
        if two_measure.critical_duration_2_first(sigma2, v0, v1, v2) < T:
            out.append((v0, v1, v2))
    return out


def descent_statistics(spec: SweepSpec) -> SweepResult:
    """Convergence statistics of the coordinate descent
    (:func:`two_measure.descend_two`) on random regime-3 instances; one row
    per run, full traces in ``details``."""
    _require_kind(spec, "descent_stats")
    sigma2 = spec.value("sigma2", 1.0)
    T = spec.value("T", 10.0)
    runs = int(spec.value("runs", 100))
    step_threshold = spec.value("step_threshold", 2e-6)
    rng = np.random.default_rng(spec.seed)
    triples = _draw_regime3_triples(rng, sigma2, T, runs)
    rows = []
    traces = []
    for v0, v1, v2 in triples:
        trace = two_measure.descend_two(sigma2, T, v0, v1, v2).trace
        assert trace is not None
        traces.append(trace)
        first_small = math.nan
        for k, (_, _, _, d1, d2) in enumerate(trace.iterations):
            if k == 0:
                continue
            if d1 < step_threshold and d2 < step_threshold:
                first_small = float(k)
                break
        costs = [it[2] for it in trace.iterations]
        max_increase = max(
            (costs[k + 1] - costs[k] for k in range(len(costs) - 1)), default=0.0
        )
        rows.append(
            (
                v0,
                v1,
                v2,
                float(len(trace.iterations) - 1),
                first_small,
                abs(trace.final_gap),
                max_increase,
            )
        )
    summary = {
        "seed": float(spec.seed),
        "max_iterations_to_threshold": max(row[4] for row in rows),
        "max_final_gap": max(row[5] for row in rows),
        "max_cost_increase": max(row[6] for row in rows),
    }
    return SweepResult(
        kind=spec.kind,
        columns=(
            "v0",
            "v1",
            "v2",
            "iterations",
            "iterations_to_step_threshold",
            "final_gap",
            "max_cost_increase",
        ),
        rows=tuple(rows),
        summary=summary,
        details=tuple(traces),
    )


def windows_experiment(spec: SweepSpec) -> SweepResult:
    """Window-by-window iteration: prior variance and relative measurement
    instant per window."""
    _require_kind(spec, "windows")
    sigma2 = spec.value("sigma2", 1.0)
    T = spec.value("T", 7.0 / 6.0)
    v1 = spec.value("v1", 1.0)
    v0 = spec.value("v0", 0.5)
    n = int(spec.value("max_windows", 60))
    it = one_measure.iterate_windows(sigma2, T, v1, v0, n)
    rows = [
        (float(k), it.v0_sequence[k], it.relative_instants[k]) for k in range(n)
    ]
    summary = {
        "settled_at": float(it.settled_at) if it.settled_at is not None else math.nan,
        "final_v0": it.v0_sequence[-1],
        "v0_crit": one_measure.window_v0_crit(sigma2, T, v1),
        "v0_stationary": one_measure.window_v0_stationary(sigma2, T, v1),
    }
    return SweepResult(
        kind=spec.kind,
        columns=("window", "v0_at_start", "relative_instant"),
        rows=tuple(rows),
        summary=summary,
    )


_DISPATCH = {
    "gain1": gain_one_measure,
    "gain2": gain_two_measures,
    "bounds1": bounds_comparison,
    "instants_vs_T": instants_vs_T,
    "descent_stats": descent_statistics,
    "windows": windows_experiment,
}
SWEEP_KINDS = tuple(_DISPATCH)


def run_sweep(spec: SweepSpec) -> SweepResult:
    return _DISPATCH[spec.kind](spec)
