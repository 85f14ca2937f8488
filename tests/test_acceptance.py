"""Acceptance gate: one test per criterion, each at its stated tolerance,
printing one pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from _lattice import lattice_cwlms
from _props import (
    check_one_measure_derivative,
    check_one_measure_shape_properties,
    check_scaling_equivariance,
    check_two_measure_derivative,
    draw_two_measure_instance,
)
from bmsched import experiments, numerics, one_measure, two_measure
from bmsched.kalman import ModelParams

SQRT2 = math.sqrt(2.0)

# worked-example rows: label -> (v0, v1, v2, T, t1_expected, t2_expected, T1_crit)
WORKED_ROWS = {
    "b": (1.0, 1.0, 1.0, 71.0 / 18.0, 1.0401, 2.4092, 7.0 / 6.0),
    "c": (3.0, 1.0, 1.0, 317.0 / 76.0, 0.0, 2.0, 4.6500),
    # Erratum: the paper prints t2 = 2.985 for row d.  That pair is not
    # stationary (dJ/dt1 = -0.39 there, J is 0.42 above the optimum), and its
    # t1 = 1.1211 is the optimal first instant only for t2 = 2.2985: the
    # printed value drops the second digit.  test_criterion_01_row_d_erratum
    # checks this on the model's cost, written out without bmsched.
    "d": (1.0, 3.0, 1.0, 317.0 / 76.0, 1.1211, 2.2985, 1.1878),
    "e": (1.0, 1.0, 3.0, 123.0 / 34.0, 1.1968, 2.4269, 0.8630),
    "f": (0.0, 1.0, 1.0, 3.5, 1.5107, 2.4196, 0.0),
}


def _report(tag: str, ok: bool, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'}{suffix}")


@pytest.fixture(scope="module")
def worked_examples():
    start = time.perf_counter()
    solutions = {
        label: two_measure.optimize_two(1.0, row[3], row[0], row[1], row[2])
        for label, row in WORKED_ROWS.items()
    }
    return solutions, time.perf_counter() - start


@pytest.mark.parametrize("label", list(WORKED_ROWS))
def test_criterion_01_worked_examples(worked_examples, label):
    solutions, _ = worked_examples
    v0, v1, v2, T, t1_exp, t2_exp, t1crit_exp = WORKED_ROWS[label]
    sol = solutions[label]
    ok = (
        abs(sol.t1_opt - t1_exp) <= 1e-3
        and abs(sol.t2_opt - t2_exp) <= 1e-3
        and abs(sol.T1_crit - t1crit_exp) <= 1e-3
    )
    _report(
        f"1[{label}]",
        ok,
        f"got ({sol.t1_opt:.4f}, {sol.t2_opt:.4f}), T1_crit {sol.T1_crit:.4f}",
    )
    assert abs(sol.t1_opt - t1_exp) <= 1e-3
    assert abs(sol.T1_crit - t1crit_exp) <= 1e-3
    assert abs(sol.t2_opt - t2_exp) <= 1e-3


ROW_D_PRINTED_T2 = 2.985


def _model_cost_two(sigma2, T, v0, v1, v2, t1, t2):
    """Integral of the estimator variance, measuring at t1 <= t2.

    Written out from the model alone: the variance grows at rate sigma2 and
    each measurement applies the scalar Kalman update v * vk / (v + vk).
    """
    cost, var, last = 0.0, v0, 0.0
    for t, vk in ((t1, v1), (t2, v2)):
        gap = t - last
        cost += var * gap + 0.5 * sigma2 * gap * gap
        var += sigma2 * gap
        var = var * vk / (var + vk)
        last = t
    gap = T - last
    return cost + var * gap + 0.5 * sigma2 * gap * gap


def test_criterion_01_row_d_erratum():
    v0, v1, v2, T, t1, t2, _ = WORKED_ROWS["d"]

    def cost(a, b):
        return _model_cost_two(1.0, T, v0, v1, v2, a, b)

    def gradient(a, b, h=1e-6):
        return (
            (cost(a + h, b) - cost(a - h, b)) / (2.0 * h),
            (cost(a, b + h) - cost(a, b - h)) / (2.0 * h),
        )

    excess = cost(t1, ROW_D_PRINTED_T2) - cost(t1, t2)
    slope_printed, _ = gradient(t1, ROW_D_PRINTED_T2)
    grad_corrected = math.hypot(*gradient(t1, t2))
    ok = excess > 0.4 and abs(slope_printed) > 0.3 and grad_corrected < 1e-3
    _report(
        "1[d erratum]",
        ok,
        f"printed pair costs {excess:.4f} more, dJ/dt1 there {slope_printed:.3f}, "
        f"|grad J| at corrected pair {grad_corrected:.1e}",
    )
    assert excess > 0.4
    assert abs(slope_printed) > 0.3
    assert grad_corrected < 1e-3


def test_criterion_01_runtime(worked_examples):
    _, elapsed = worked_examples
    _report("1[runtime]", elapsed < 1.0, f"{elapsed:.3f} s for all rows")
    assert elapsed < 1.0


def test_criterion_02_critical_durations():
    t2c = two_measure.critical_duration_2_second(1.0, 1.0, 1.0, 1.0)
    t1c = two_measure.critical_duration_2_first(1.0, 1.0, 1.0, 1.0)
    sol = two_measure.optimize_two(1.0, 7.0 / 6.0, 1.0, 1.0, 1.0)
    ok = (
        abs(t2c - 0.3) <= 1e-10
        and abs(t1c - 7.0 / 6.0) <= 1e-10
        and abs(sol.t1_opt - 0.0) <= 1e-8
        and abs(sol.t2_opt - 0.5) <= 1e-8
    )
    _report("2", ok, f"T2_crit {t2c:.12f}, T1_crit {t1c:.12f}")
    assert abs(t2c - 0.3) <= 1e-10
    assert abs(t1c - 7.0 / 6.0) <= 1e-10
    assert abs(sol.t1_opt) <= 1e-8
    assert abs(sol.t2_opt - 0.5) <= 1e-8


def test_criterion_03_one_measure_boundary():
    above = one_measure.optimal_instant_1(1.0, 1.0, SQRT2 + 1e-9, 1.0).t_opt
    below = one_measure.optimal_instant_1(1.0, 1.0, SQRT2 - 1e-6, 1.0).t_opt
    lo, hi = 1.0, 2.0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if one_measure.optimal_instant_1(1.0, 1.0, mid, 1.0).t_opt > 0.0:
            lo = mid
        else:
            hi = mid
    crossover = 0.5 * (lo + hi)
    ok = above == 0.0 and below > 0.0 and abs(crossover - SQRT2) <= 1e-8
    _report("3", ok, f"crossover {crossover:.10f}")
    assert above == 0.0
    assert below > 0.0
    assert abs(crossover - SQRT2) <= 1e-8


def test_criterion_04_cubic_identity():
    cub = two_measure.cubic_coeffs(1.0, 1.0, 1.0)
    assert (cub.a, cub.b, cub.c, cub.d) == (-12.0, -40.0, -25.0, 24.0)
    half = Fraction(1, 2)
    residue = (
        Fraction(-12) * half**3
        + Fraction(-40) * half**2
        + Fraction(-25) * half
        + Fraction(24)
    )
    spacing = two_measure.critical_spacing(1.0, 1.0, 1.0, 1.0)
    ok = residue == 0 and abs(spacing - 0.5) <= 1e-10
    _report("4", ok, f"root {spacing:.12f}")
    assert residue == 0
    assert abs(spacing - 0.5) <= 1e-10


def test_criterion_05_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst_one = 0.0
    for _ in range(200):
        sigma2 = float(rng.uniform(0.5, 2.0))
        T = float(rng.uniform(0.2, 3.0))
        v0 = float(rng.uniform(0.0, 3.0))
        v1 = float(rng.uniform(0.05, 3.0))
        oracle = numerics.grid_oracle_1(ModelParams(sigma2, T, v0), v1, step=1e-5)
        sol = one_measure.optimal_instant_1(sigma2, T, v0, v1)
        worst_one = max(worst_one, abs(sol.t_opt - oracle.argmin[0]))

    worst_two = 0.0
    cwlm_counts = []
    regimes = {r: 0 for r in two_measure.TwoMeasureRegime}
    for _ in range(100):
        sigma2, T, v0, v1, v2 = draw_two_measure_instance(rng)
        oracle = numerics.grid_oracle_2(ModelParams(sigma2, T, v0), (v1, v2), step=2e-3)
        sol = two_measure.optimize_two(sigma2, T, v0, v1, v2)
        regimes[sol.regime] += 1
        worst_two = max(
            worst_two,
            abs(sol.t1_opt - oracle.argmin[0]),
            abs(sol.t2_opt - oracle.argmin[1]),
        )
        cwlms = lattice_cwlms(ModelParams(sigma2, T, v0), (v1, v2), step=2e-3)
        cwlm_counts.append(len(cwlms))
    elapsed = time.perf_counter() - start

    ok = (
        worst_one < 1e-4
        and worst_two < 4e-3
        and all(c == 1 for c in cwlm_counts)
        and elapsed < 120.0
    )
    _report(
        "5",
        ok,
        f"one {worst_one:.2e}, two {worst_two:.2e}, "
        f"regime counts {[regimes[r] for r in two_measure.TwoMeasureRegime]}, "
        f"{elapsed:.1f} s",
    )
    assert worst_one < 1e-4
    assert worst_two < 4e-3
    assert all(c == 1 for c in cwlm_counts)
    assert all(regimes[r] >= 3 for r in two_measure.TwoMeasureRegime)
    assert elapsed < 120.0


def test_criterion_06_descent_convergence():
    spec = experiments.SweepSpec(
        kind="descent_stats", fixed={"runs": 100, "T": 10.0}, seed=20260811
    )
    result = experiments.descent_statistics(spec)
    ok = (
        len(result.rows) == 100
        and result.summary["max_iterations_to_threshold"] <= 10
        and result.summary["max_cost_increase"] <= 1e-11
        and result.summary["max_final_gap"] < 1e-6
    )
    _report(
        "6",
        ok,
        f"max iters {result.summary['max_iterations_to_threshold']:.0f}, "
        f"max gap {result.summary['max_final_gap']:.2e}",
    )
    assert len(result.rows) == 100
    assert result.summary["max_iterations_to_threshold"] <= 10
    assert result.summary["max_cost_increase"] <= 1e-11
    assert result.summary["max_final_gap"] < 1e-6


def test_criterion_07_bounds():
    grid = np.linspace(0.0, 5.0, 50)
    ok = True
    for v0 in grid:
        for v1 in grid:
            sol = one_measure.optimal_instant_1(1.0, 1.0, float(v0), float(v1))
            lower = one_measure.lower_bound(1.0, 1.0, float(v0), float(v1))
            upper = one_measure.upper_bound(1.0, 1.0, float(v0))
            if not (lower < sol.cost_at_opt <= upper + 1e-12):
                ok = False
    _report("7", ok, "50x50 grid")
    assert ok


def test_criterion_08_gain_maxima():
    start = time.perf_counter()
    gain1 = experiments.gain_one_measure(
        experiments.SweepSpec(
            kind="gain1", swept={"v0": (0.0, 5.0, 101), "v1": (0.0, 5.0, 101)}
        )
    )
    gain2 = experiments.gain_two_measures(
        experiments.SweepSpec(
            kind="gain2", swept={"v1": (0.0, 5.0, 101), "v2": (0.0, 5.0, 101)}
        )
    )
    elapsed = time.perf_counter() - start
    max1 = gain1.summary["max_gain"]
    max2 = gain2.summary["max_gain"]
    ok = abs(max1 - 0.81) <= 0.03 and abs(max2 - 0.86) <= 0.03 and elapsed < 300.0
    _report("8", ok, f"max gains {max1:.4f} / {max2:.4f}, {elapsed:.1f} s")
    assert abs(max1 - 0.81) <= 0.03
    assert abs(max2 - 0.86) <= 0.03
    assert all(row[4] >= -1e-12 for row in gain1.rows)
    assert all(row[5] >= -1e-12 for row in gain2.rows)
    assert elapsed < 300.0


def test_criterion_09_window_periodicity():
    it = one_measure.iterate_windows(1.0, 7.0 / 6.0, 1.0, 0.5, 60)
    v_star = one_measure.window_v0_stationary(1.0, 7.0 / 6.0, 1.0)
    settled = it.settled_at
    ok = (
        it.v0_sequence[0] == 0.5
        and abs(it.v0_sequence[1] - 7.0 / 6.0) <= 1e-9
        and abs(it.v0_sequence[2] - 1.5415) <= 1e-3
        and settled is not None
        and len(it.relative_instants) - settled >= 50
        and all(t == 0.0 for t in it.relative_instants[settled:])
        and abs(it.v0_sequence[-1] - v_star) <= 1e-8
    )
    _report(
        "9", ok, f"settled at {settled}, final v0 off by "
        f"{abs(it.v0_sequence[-1] - v_star):.2e}"
    )
    assert it.v0_sequence[0] == 0.5
    assert abs(it.v0_sequence[1] - 7.0 / 6.0) <= 1e-9
    assert abs(it.v0_sequence[2] - 1.5415) <= 1e-3
    assert settled is not None
    assert len(it.relative_instants) - settled >= 50
    assert all(t == 0.0 for t in it.relative_instants[settled:])
    assert abs(it.v0_sequence[-1] - v_star) <= 1e-8
    assert abs(v_star - 1.8109) <= 1e-4


def test_criterion_10_property_suites():
    check_one_measure_shape_properties(500, seed=101)
    check_scaling_equivariance(500, seed=102)
    check_one_measure_derivative(1000, seed=103)
    check_two_measure_derivative(1000, seed=104)
    _report("10", True, "500-sample shape suites, 1000-point derivative checks")
