import inspect
import itertools
import math
import re
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import _golden
from _lattice import lattice_cwlms
from _props import check_two_measure_derivative, deadline, draw_two_measure_instance
from bmsched import kalman, numerics, one_measure, two_measure
from bmsched.kalman import ModelParams, parallel_sum
from bmsched.two_measure import (
    DescentOptions,
    TwoMeasureRegime,
    classify_regime,
    cost_derivative_t1,
    cost_pair,
    critical_duration_2_first,
    critical_duration_2_second,
    critical_spacing,
    cubic_coeffs,
    descend_two,
    equilibrium_gap,
    optimal_gap,
    optimize_two,
)

# worked-example table: (v0, v1, v2, T) -> optimum, regime, first critical duration
ROW_B = (1.0, 1.0, 1.0, 71.0 / 18.0)
ROW_C = (3.0, 1.0, 1.0, 317.0 / 76.0)
ROW_D = (1.0, 3.0, 1.0, 317.0 / 76.0)
ROW_E = (1.0, 1.0, 3.0, 123.0 / 34.0)
ROW_F = (0.0, 1.0, 1.0, 3.5)


def test_cubic_coefficients_unit_case():
    cub = cubic_coeffs(1.0, 1.0, 1.0)
    assert (cub.a, cub.b, cub.c, cub.d) == (-12.0, -40.0, -25.0, 24.0)
    # x = 1/2 is a root, exactly, in rational arithmetic
    half = Fraction(1, 2)
    assert (
        Fraction(-12) * half**3
        + Fraction(-40) * half**2
        + Fraction(-25) * half
        + Fraction(24)
    ) == 0
    assert cub.evaluate(0.5) == 0.0


def test_cubic_degenerates_when_prior_is_exact():
    cub = cubic_coeffs(0.0, 1.7, 2.3)
    assert cub.d == 0.0
    assert cub.c <= 0.0
    assert critical_spacing(1.0, 0.0, 1.7, 2.3) == 0.0
    assert critical_duration_2_first(1.0, 0.0, 1.7, 2.3) == pytest.approx(0.0, abs=1e-12)


def test_cubic_sign_pattern():
    rng = np.random.default_rng(21)
    for _ in range(1000):
        v0, v1, v2 = rng.uniform(1e-3, 10.0, size=3)
        cub = cubic_coeffs(float(v0), float(v1), float(v2))
        assert cub.a < 0.0
        assert cub.d > 0.0


def test_critical_spacing_examples():
    assert critical_spacing(1.0, 1.0, 1.0, 1.0) == pytest.approx(0.5, abs=1e-10)
    # 4/3 is an exact root of the v0 = 2 cubic
    assert critical_spacing(1.0, 2.0, 1.0, 1.0) == pytest.approx(4.0 / 3.0, abs=1e-10)
    assert critical_spacing(1.0, 2.0, 1.0, 1.0) > 0.5
    # the cubic is positive before the root and negative after
    cub = cubic_coeffs(1.0, 1.0, 1.0)
    assert cub.evaluate(0.25) > 0.0
    assert cub.evaluate(0.75) < 0.0


def _spacing_40_digits(sigma2, v0, v1, v2):
    """critical_spacing at 40 digits: the positive root of the boundary cubic,
    from all its roots; and whether all three are real."""
    with mpmath.workdps(40):
        s, v0, v1, v2 = (mpmath.mpf(x) for x in (sigma2, v0, v1, v2))
        r1, r2 = v1 / v0, v2 / v0
        a = -((1 + r1) ** 2) * (1 + 2 * r1)
        b = (1 + r1) * (1 - 3 * ((1 + r1) * (1 + 2 * r1) * r2 + r1 * r1))
        c = r2 * b + (2 + 3 * r1) * (r1 + r2 + r1 * r2)
        d = (r1 + r2) * (1 + r1) * (r1 + 2 * r2 + 3 * r1 * r2)
        roots = mpmath.polyroots([a, b, c, d], maxsteps=200, extraprec=200)
        real = [mpmath.re(x) for x in roots if abs(mpmath.im(x)) <= 1e-30 * abs(x)]
        (y,) = [x for x in real if x > 0]
        return float(y * v0 / s), len(real) == 3


def test_critical_spacing_matches_a_40_digit_root():
    """Over time and variance scales 10^(+-8) and ratios v1/v0, v2/v0 in
    10^(+-4), with zero sensors mixed in, the closed-form spacing is within
    1e-13 (relative) of the cubic's root.  At the first case a bisection
    that stops on an absolute width in sigma2*t2 is off by 1.4e-5."""
    rng = np.random.default_rng(61)
    cases = [(1.0, 5.69e-6, 8.22e-4, 2.75e-3), (1.0, 1.0, 0.0, 0.0)]
    for _ in range(300):
        sigma2, v0 = 10.0 ** rng.uniform(-8.0, 8.0, size=2)
        v1, v2 = v0 * 10.0 ** rng.uniform(-4.0, 4.0, size=2)
        zero = rng.uniform()
        cases.append((sigma2, v0, 0.0 if zero < 0.1 else v1, 0.0 if 0.1 <= zero < 0.2 else v2))
    three_real = 0
    for sigma2, v0, v1, v2 in cases:
        sigma2, v0, v1, v2 = map(float, (sigma2, v0, v1, v2))
        exact, all_real = _spacing_40_digits(sigma2, v0, v1, v2)
        got = critical_spacing(sigma2, v0, v1, v2)
        assert abs(got - exact) <= 1e-13 * exact, (sigma2, v0, v1, v2)
        three_real += all_real
    # both the trigonometric (three real roots) and Cardano's form ran
    assert 50 <= three_real <= len(cases) - 50


def test_critical_spacing_stays_finite_at_extreme_ratios():
    # the ratios v1/v0 and v2/v0 are capped inside the closed form, so no
    # intermediate overflows; sigma2*t2/v0 always lies in [0, 1]
    rng = np.random.default_rng(63)
    for _ in range(2000):
        v1, v2 = (float(x) for x in 10.0 ** rng.uniform(-300.0, 300.0, size=2))
        y = critical_spacing(1.0, 1.0, v1, v2)
        assert 0.0 <= y <= 1.0 + 1e-15, (v1, v2)
    assert critical_spacing(1.0, 5e-324, 1.0, 1.0) == 0.0
    assert critical_spacing(1.0, 1.0, 0.0, 0.0) == 1.0


def test_critical_spacing_increases_with_prior_variance():
    rng = np.random.default_rng(22)
    for _ in range(100):
        v1, v2 = rng.uniform(0.05, 5.0, size=2)
        lo, hi = sorted(rng.uniform(1e-3, 5.0, size=2))
        assert critical_spacing(1.0, float(hi), float(v1), float(v2)) > critical_spacing(
            1.0, float(lo), float(v1), float(v2)
        ) - 1e-12


def test_critical_duration_second():
    assert critical_duration_2_second(1.0, 1.0, 1.0, 1.0) == pytest.approx(0.3, abs=1e-10)
    assert critical_duration_2_second(1.0, 0.0, 2.0, 3.0) == 0.0
    # merged prior 3||1 = 3/4 gives 21/44
    assert critical_duration_2_second(1.0, 3.0, 1.0, 1.0) == pytest.approx(
        21.0 / 44.0, abs=1e-12
    )


def test_critical_duration_first():
    assert critical_duration_2_first(1.0, 1.0, 1.0, 1.0) == pytest.approx(
        7.0 / 6.0, abs=1e-10
    )
    # 4.65 is exact for this row (the cubic root is 9/4)
    assert critical_duration_2_first(1.0, 3.0, 1.0, 1.0) == pytest.approx(4.65, abs=1e-10)
    assert critical_duration_2_first(1.0, 1.0, 3.0, 1.0) == pytest.approx(1.1878, abs=1e-3)
    assert critical_duration_2_first(1.0, 1.0, 1.0, 3.0) == pytest.approx(0.8630, abs=1e-3)
    # always beyond the second critical duration
    rng = np.random.default_rng(23)
    for _ in range(50):
        v0, v1, v2 = rng.uniform(1e-2, 5.0, size=3)
        assert critical_duration_2_first(1.0, *map(float, (v0, v1, v2))) > (
            critical_duration_2_second(1.0, *map(float, (v0, v1, v2)))
        )


def test_classify_regime():
    assert classify_regime(1.0, 0.2, 1.0, 1.0, 1.0) is TwoMeasureRegime.REGIME1
    assert classify_regime(1.0, 0.5, 1.0, 1.0, 1.0) is TwoMeasureRegime.REGIME2
    assert classify_regime(1.0, 1.5, 1.0, 1.0, 1.0) is TwoMeasureRegime.REGIME3
    # ties go to the lower regime
    assert classify_regime(1.0, 0.3, 1.0, 1.0, 1.0) is TwoMeasureRegime.REGIME1


def test_equilibrium_gap():
    assert equilibrium_gap(1.0, 1.0, 1.0, 1.0, 0.0) == pytest.approx(0.5, abs=1e-10)
    assert equilibrium_gap(1.0, 0.0, 1.0, 1.0, 0.0) == 0.0
    grid = np.linspace(0.0, 5.0, 40)
    vals = [equilibrium_gap(1.0, 0.7, 1.3, 0.9, float(t)) for t in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_optimal_gap():
    # at the first critical duration the two gap curves meet at t1 = 0
    T1c = critical_duration_2_first(1.0, 1.0, 1.0, 1.0)
    assert optimal_gap(1.0, T1c, 1.0, 1.0, 1.0, 0.0) == pytest.approx(0.5, abs=1e-9)
    assert optimal_gap(1.0, 2.0, 1.0, 1.0, 1.0, 2.0) == 0.0
    assert optimal_gap(1.0, 2.0, 1.0, 1.0, 1.0, 5.0) == 0.0
    rng = np.random.default_rng(24)
    for _ in range(100):
        sigma2 = float(rng.uniform(0.3, 3.0))
        T = float(rng.uniform(0.5, 5.0))
        v0, v1, v2 = (float(x) for x in rng.uniform(0.01, 4.0, size=3))
        grid = np.linspace(0.0, T, 25)
        vals = [optimal_gap(sigma2, T, v0, v1, v2, float(t)) for t in grid]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_cost_derivative_matches_finite_difference():
    check_two_measure_derivative(1000)


def test_cost_derivative_vanishes_at_interior_optimum():
    for row in (ROW_B, ROW_E, ROW_F):
        v0, v1, v2, T = row
        sol = optimize_two(1.0, T, v0, v1, v2)
        d = cost_derivative_t1(1.0, T, v0, v1, v2, sol.t1_opt, sol.t2_opt)
        assert abs(d) < 1e-7


def test_cost_derivative_positive_on_diagonal():
    # with the second measurement pinned, leaving the diagonal helps
    rng = np.random.default_rng(25)
    found = 0
    for _ in range(500):
        sigma2 = float(rng.uniform(0.3, 3.0))
        T = float(rng.uniform(0.5, 5.0))
        v0, v1, v2 = (float(x) for x in rng.uniform(0.01, 4.0, size=3))
        t = float(rng.uniform(1e-3, T - 1e-3))
        post1 = parallel_sum(v1, v0 + sigma2 * t)
        binding = T - t <= one_measure.critical_duration_1(sigma2, post1, v2)
        if not binding:
            continue
        found += 1
        assert cost_derivative_t1(sigma2, T, v0, v1, v2, t, t) > 0.0
    assert found > 20


@pytest.mark.parametrize(
    "row,expected",
    [
        (ROW_B, (1.0401, 2.4092)),
        (ROW_E, (1.1968, 2.4269)),
        (ROW_F, (1.5107, 2.4196)),
        # the printed optimum for this row drops a digit: the stationarity
        # system and the brute-force oracle both give t2 = 2.2985, not 2.985
        (ROW_D, (1.1211, 2.2985)),
    ],
)
def test_optimize_interior_rows(row, expected):
    v0, v1, v2, T = row
    sol = optimize_two(1.0, T, v0, v1, v2)
    assert sol.regime is TwoMeasureRegime.REGIME3
    assert sol.t1_opt == pytest.approx(expected[0], abs=1e-3)
    assert sol.t2_opt == pytest.approx(expected[1], abs=1e-3)


def test_optimize_boundary_rows():
    v0, v1, v2, T = ROW_C
    sol = optimize_two(1.0, T, v0, v1, v2)
    assert sol.regime is TwoMeasureRegime.REGIME2
    assert sol.t1_opt == 0.0
    assert sol.t2_opt == pytest.approx(2.0, abs=1e-10)
    assert sol.T1_crit == pytest.approx(4.65, abs=1e-10)

    small = optimize_two(1.0, 0.2, 1.0, 1.0, 1.0)
    assert small.regime is TwoMeasureRegime.REGIME1
    assert (small.t1_opt, small.t2_opt) == (0.0, 0.0)


def test_regime_label_and_solve_path_agree_at_first_critical_duration():
    # The regime label and the path the solve takes (closed form or descent)
    # come from one comparison of T with T1_crit, including within rounding
    # of it; a horizon equal to T1_crit belongs to regime 2.  Here T1_crit is
    # 7/6 exactly, and the cancellation-free duration gives fl(7/6): the
    # label is regime 2, with t1 = 0.
    sol = optimize_two(1.0, 7.0 / 6.0, 1.0, 1.0, 1.0)
    assert sol.T1_crit == 7.0 / 6.0
    assert sol.regime is classify_regime(1.0, 7.0 / 6.0, 1.0, 1.0, 1.0)
    assert sol.regime is TwoMeasureRegime.REGIME2
    assert sol.t1_opt == 0.0

    rng = np.random.default_rng(41)
    for _ in range(200):
        v0, v1, v2 = 10.0 ** rng.uniform(-1.0, 1.0, size=3)
        t1_crit = critical_duration_2_first(1.0, v0, v1, v2)
        horizons = (
            t1_crit,
            math.nextafter(t1_crit, 0.0),
            math.nextafter(t1_crit, math.inf),
            t1_crit * (1.0 - 1e-12),
            t1_crit * (1.0 + 1e-12),
        )
        for T in horizons:
            sol = optimize_two(1.0, T, v0, v1, v2)
            assert sol.regime is classify_regime(1.0, T, v0, v1, v2)
            if sol.regime is TwoMeasureRegime.REGIME2:
                assert sol.t1_opt == 0.0
            sol = descend_two(1.0, T, v0, v1, v2)
            assert sol.regime is classify_regime(1.0, T, v0, v1, v2)
            assert (sol.regime is TwoMeasureRegime.REGIME3) == (sol.trace is not None)


def test_optimize_descent_start_matches_table():
    # the first line-search iterate of the descent, per worked example
    v0, v1, v2, T = ROW_B
    sol = descend_two(1.0, T, v0, v1, v2)
    assert sol.trace is not None
    t1_first, t2_first = sol.trace.iterations[0][0], sol.trace.iterations[0][1]
    assert t2_first == pytest.approx(2.0, abs=1e-10)
    assert t1_first == pytest.approx(0.8668, abs=1e-3)


def test_stationarity_gap_brackets_regime3():
    rng = np.random.default_rng(26)
    checked = 0
    while checked < 200:
        sigma2, T, v0, v1, v2 = draw_two_measure_instance(rng)
        if classify_regime(sigma2, T, v0, v1, v2) is not TwoMeasureRegime.REGIME3:
            continue
        checked += 1
        at_zero = optimal_gap(sigma2, T, v0, v1, v2, 0.0) - equilibrium_gap(
            sigma2, v0, v1, v2, 0.0
        )
        at_T = optimal_gap(sigma2, T, v0, v1, v2, T) - equilibrium_gap(
            sigma2, v0, v1, v2, T
        )
        assert at_zero > 0.0
        assert at_T < 0.0


def test_descent_and_reduced_root_agree():
    rng = np.random.default_rng(27)
    checked = 0
    while checked < 50:
        sigma2, T, v0, v1, v2 = draw_two_measure_instance(rng)
        root = optimize_two(sigma2, T, v0, v1, v2)
        if root.regime is not TwoMeasureRegime.REGIME3:
            continue
        checked += 1
        sol = descend_two(sigma2, T, v0, v1, v2)
        assert sol.regime is TwoMeasureRegime.REGIME3
        assert abs(sol.t1_opt - root.t1_opt) < 1e-6
        assert abs(sol.t2_opt - root.t2_opt) < 1e-6
        assert abs(sol.trace.final_gap) < 1e-6
        assert sol.t2_opt - sol.t1_opt >= 1e-6  # measurements repel


def test_unique_coordinatewise_minimum_on_grid():
    rng = np.random.default_rng(28)
    per_regime = {r: 0 for r in TwoMeasureRegime}
    while min(per_regime.values()) < 4:
        sigma2, T, v0, v1, v2 = draw_two_measure_instance(rng)
        sol = optimize_two(sigma2, T, v0, v1, v2)
        if per_regime[sol.regime] >= 4:
            continue
        per_regime[sol.regime] += 1
        cwlms = lattice_cwlms(ModelParams(sigma2, T, v0), (v1, v2), step=4e-3)
        assert len(cwlms) == 1
        cwlm = cwlms[0]
        assert abs(cwlm[0] - sol.t1_opt) <= 8e-3
        assert abs(cwlm[1] - sol.t2_opt) <= 8e-3


def test_diagonal_points_improvable_on_grid():
    step = 2e-3
    rng = np.random.default_rng(29)
    for _ in range(100):
        sigma2 = float(rng.uniform(0.3, 3.0))
        T = float(rng.uniform(0.5, 4.0))
        v0, v1, v2 = (float(x) for x in rng.uniform(0.01, 4.0, size=3))
        t = float(rng.uniform(step, T - step))
        here = cost_pair(sigma2, T, v0, v1, v2, t, t)
        left = cost_pair(sigma2, T, v0, v1, v2, t - step, t)
        up = cost_pair(sigma2, T, v0, v1, v2, t, t + step)
        assert min(left, up) < here


def test_instants_continuous_and_monotone_in_horizon():
    v0 = v1 = v2 = 1.0
    t2c = critical_duration_2_second(1.0, v0, v1, v2)
    t1c = critical_duration_2_first(1.0, v0, v1, v2)
    prev = (0.0, 0.0)
    for T in np.concatenate(
        [
            np.linspace(0.05, t2c + 0.05, 30),
            np.linspace(t1c - 0.05, t1c + 0.05, 30),
            np.linspace(1.3, 3.0, 20),
        ]
    ):
        sol = optimize_two(1.0, float(T), v0, v1, v2)
        assert sol.t1_opt >= prev[0] - 1e-9
        assert sol.t2_opt >= prev[1] - 1e-9
        # continuity across the regime boundaries: small T steps, small moves
        assert sol.t1_opt - prev[0] < 1e-3 + 0.1
        prev = (sol.t1_opt, sol.t2_opt)
    # at the first critical duration the schedule is the critical pair
    sol = optimize_two(1.0, t1c, v0, v1, v2)
    assert sol.t1_opt == pytest.approx(0.0, abs=1e-6)
    assert sol.t2_opt == pytest.approx(critical_spacing(1.0, v0, v1, v2), abs=1e-6)


def test_boundary_jumps_are_small():
    v0 = v1 = v2 = 1.0
    for crit in (
        critical_duration_2_second(1.0, v0, v1, v2),
        critical_duration_2_first(1.0, v0, v1, v2),
    ):
        lo = optimize_two(1.0, crit - 5e-7, v0, v1, v2)
        hi = optimize_two(1.0, crit + 5e-7, v0, v1, v2)
        assert abs(hi.t1_opt - lo.t1_opt) < 1e-3
        assert abs(hi.t2_opt - lo.t2_opt) < 1e-3


def test_t2_update_matches_line_minimum():
    rng = np.random.default_rng(30)
    for _ in range(50):
        sigma2, T, v0, v1, v2 = draw_two_measure_instance(rng)
        t1 = float(rng.uniform(0.0, 0.8 * T))
        closed = t1 + optimal_gap(sigma2, T, v0, v1, v2, t1)
        golden = numerics.golden_section_min(
            lambda u: cost_pair(sigma2, T, v0, v1, v2, t1, u), t1, T, tol=1e-11
        )
        line_cost = lambda u: cost_pair(sigma2, T, v0, v1, v2, t1, u)
        assert line_cost(closed) <= line_cost(golden) + 1e-12
        assert abs(closed - golden) < 1e-5 or line_cost(closed) < line_cost(golden)


def test_t1_line_search_roots_the_slope(monkeypatch):
    """Every t1 line search of 300 random regime-3 descents returns a t1 that
    costs no more than the best point of a 4001-point lattice of [0, t2] (up
    to rounding), within 1e-12*max(1, t2) of a sign change of the t1 slope,
    in at most 10 slope evaluations on average."""
    searches, evaluations = [], [0]
    line_search, slope_factor = two_measure._line_search_t1, two_measure._slope_factor

    def recording(*args):
        t1 = line_search(*args)
        searches.append((args, t1))
        return t1

    def counting(*args):
        evaluations[0] += 1
        return slope_factor(*args)

    monkeypatch.setattr(two_measure, "_line_search_t1", recording)
    monkeypatch.setattr(two_measure, "_slope_factor", counting)
    rng = np.random.default_rng(62)
    runs = 0
    while runs < 300:
        sigma2 = float(10.0 ** rng.uniform(-1.0, 1.0))
        scale = float(10.0 ** rng.uniform(-1.0, 1.0))
        v0, v1, v2 = (float(x) * scale for x in rng.uniform(0.0, 5.0, size=3))
        T = critical_duration_2_first(sigma2, v0, v1, v2) + scale / sigma2 * float(
            rng.uniform(0.05, 5.0)
        )
        if descend_two(sigma2, T, v0, v1, v2).regime is TwoMeasureRegime.REGIME3:
            runs += 1
    monkeypatch.undo()
    assert evaluations[0] <= 10 * len(searches)
    sigma2 = T = 1.0  # the descent searches in units of T
    for (v0, v1, v2, t2), t1 in searches:
        assert 0.0 <= t1 <= t2
        lattice = np.linspace(0.0, t2, 4001)
        best = float(np.min(kalman._cost_two(sigma2, T, v0, v1, v2, lattice, t2)))
        assert cost_pair(sigma2, T, v0, v1, v2, t1, t2) <= best * (1.0 + 1e-14)
        reach = 1e-12 * max(1.0, t2)
        if t1 - reach > 0.0:
            assert two_measure._t1_slope_factor(sigma2, T, v0, v1, v2, t1 - reach, t2) < 0.0
        if t1 + reach < t2:
            assert two_measure._t1_slope_factor(sigma2, T, v0, v1, v2, t1 + reach, t2) > 0.0


def test_regime1_cost_equals_merged_single_measure():
    rng = np.random.default_rng(31)
    for _ in range(100):
        v0 = float(rng.uniform(0.5, 5.0))
        v1, v2 = (float(x) for x in rng.uniform(0.05, 5.0, size=2))
        t2c = critical_duration_2_second(1.0, v0, v1, v2)
        if t2c <= 0.02:
            continue
        T = float(rng.uniform(0.5 * t2c, t2c))
        sol = optimize_two(1.0, T, v0, v1, v2)
        assert sol.regime is TwoMeasureRegime.REGIME1
        merged = one_measure.cost_single(1.0, T, v0, parallel_sum(v1, v2), 0.0)
        assert math.isclose(sol.cost_at_opt, merged, rel_tol=1e-13)


def test_cross_check_disagreement_still_raises(monkeypatch):
    """A descent answer 1e-4 off disagrees with the reduced root."""
    line_search = two_measure._line_search_t1
    monkeypatch.setattr(
        two_measure, "_line_search_t1", lambda *args: line_search(*args) + 1e-4
    )
    v0, v1, v2, T = ROW_B
    with pytest.raises(RuntimeError, match="disagree"):
        descend_two(1.0, T, v0, v1, v2)


def test_descent_iteration_behavior():
    rng = np.random.default_rng(32)
    runs = 0
    while runs < 20:
        v0, v1, v2 = (float(x) for x in rng.uniform(1.0, 10.0, size=3))
        if critical_duration_2_first(1.0, v0, v1, v2) >= 10.0:
            continue
        runs += 1
        sol = descend_two(1.0, 10.0, v0, v1, v2)
        trace = sol.trace
        assert trace is not None and trace.converged
        costs = [it[2] for it in trace.iterations]
        assert all(b <= a + 1e-11 for a, b in zip(costs, costs[1:]))
        small = [
            k
            for k, it in enumerate(trace.iterations)
            if k > 0 and it[3] < 2e-6 and it[4] < 2e-6
        ]
        assert small and small[0] <= 10
        assert abs(trace.final_gap) < 1e-6


def test_nonconvergence_raises():
    with pytest.raises(RuntimeError):
        descend_two(1.0, ROW_B[3], 1.0, 1.0, 1.0, options=DescentOptions(max_iterations=1))


def test_domain_errors():
    with pytest.raises(ValueError):
        cost_pair(1.0, 1.0, 1.0, 1.0, 1.0, 0.7, 0.2)
    with pytest.raises(ValueError):
        optimize_two(1.0, 1.0, -1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        optimize_two(1.0, 1.0, 1.0, math.inf, 1.0)
    with pytest.raises(ValueError):
        cubic_coeffs(1.0, -0.1, 1.0)


# a valid call of every public function of kalman, one_measure and
# two_measure that takes scalars or sequences of them; t1 = 2 lets
# sigma2*t1 outweigh a negative v0 where the two are summed
_VALID_CALLS = [
    (kalman.ModelParams, (1.0, 3.0, 1.0)),
    (kalman.SensorSet, ([1.0, 1.0],)),
    (kalman.Schedule, ([0.5, 1.0],)),
    (kalman.parallel_sum, (1.0, 1.0)),
    (kalman.equivalent_sensor_variance, ([1.0, 1.0],)),
    (one_measure.cost_single, (1.0, 3.0, 1.0, 1.0, 2.0)),
    (one_measure.cost_derivative, (1.0, 3.0, 1.0, 1.0, 2.0)),
    (one_measure.critical_duration_1, (1.0, 1.0, 1.0)),
    (one_measure.optimal_instant_1, (1.0, 3.0, 1.0, 1.0)),
    (one_measure.duration_from_instant, (1.0, 2.0, 1.0, 1.0)),
    (one_measure.lower_bound, (1.0, 3.0, 1.0, 1.0)),
    (one_measure.upper_bound, (1.0, 3.0, 1.0)),
    (one_measure.window_v0_crit, (1.0, 3.0, 1.0)),
    (one_measure.window_v0_stationary, (1.0, 3.0, 1.0)),
    (one_measure.window_map, (1.0, 3.0, 1.0, 1.0)),
    (one_measure.iterate_windows, (1.0, 3.0, 1.0, 1.0, 3)),
    (cost_pair, (1.0, 3.0, 1.0, 1.0, 1.0, 2.0, 2.5)),
    (cost_derivative_t1, (1.0, 3.0, 1.0, 1.0, 1.0, 2.0, 2.5)),
    (cubic_coeffs, (1.0, 1.0, 1.0)),
    (critical_spacing, (1.0, 1.0, 1.0, 1.0)),
    (critical_duration_2_second, (1.0, 1.0, 1.0, 1.0)),
    (critical_duration_2_first, (1.0, 1.0, 1.0, 1.0)),
    (classify_regime, (1.0, 3.0, 1.0, 1.0, 1.0)),
    (optimal_gap, (1.0, 3.0, 1.0, 1.0, 1.0, 2.0)),
    (equilibrium_gap, (1.0, 1.0, 1.0, 1.0, 2.0)),
    (optimize_two, (1.0, 3.0, 1.0, 1.0, 1.0)),
    (descend_two, (1.0, 3.0, 1.0, 1.0, 1.0)),
]


# each argument's rule: whether it rejects a value, given the whole call,
# and the message it raises then, formatted with the argument's name and
# value and with the call's arguments by name
_RULES = {
    "positive": (lambda v, call: not 0.0 < v < math.inf,
                 "{name} must be positive and finite, got {value}"),
    "finite": (lambda v, call: not 0.0 <= v < math.inf,
               "{name} must be finite and >= 0, got {value}"),
    "domain": (lambda v, call: not v >= 0.0, "{name} must be >= 0, got {value}"),
    "order": (lambda v, call: not 0.0 <= call["t1"] <= call["t2"] <= call["T"],
              "need 0 <= t1 <= t2 <= T, got t1={t1}, t2={t2}, T={T}"),
    "operand": (lambda v, call: not v >= 0.0,
                "parallel_sum operand {name} must be >= 0, got {value}"),
    "sensors": (lambda v, call: not v >= 0.0,
                "sensor variances must be >= 0 (or inf), got {value}"),
    # the valid call's instants are [0.5, 1.0]; a bad value replaces the last
    "instants": (lambda v, call: not v >= 0.5,
                 "instants must be nondecreasing and >= 0, got (0.5, {value})"),
}
# the functions that classify or solve two-measure schedules need finite
# variances (and instants)
_FINITE = {cubic_coeffs, critical_spacing, critical_duration_2_second,
           critical_duration_2_first, classify_regime, optimize_two, descend_two,
           equilibrium_gap}


def _rule(fn, name):
    if fn in (kalman.SensorSet, kalman.equivalent_sensor_variance):
        return "sensors"
    if fn is kalman.Schedule:
        return "instants"
    if fn is kalman.parallel_sum:
        return "operand"
    if name in ("sigma2", "T", "horizon"):
        return "positive"
    if fn in (cost_pair, cost_derivative_t1) and name in ("t1", "t2"):
        return "order"
    if name == "prior_variance" or fn in _FINITE:
        return "finite"
    return "domain"


def _replaced(args, k, value):
    """args with argument k replaced; a sequence gets value as its last entry."""
    arg = args[k]
    value = arg[:-1] + [value] if isinstance(arg, list) else value
    return args[:k] + (value,) + args[k + 1:]


def _bad_argument_cases():
    for fn, args in _VALID_CALLS:
        names = list(inspect.signature(fn).parameters)
        for k, arg in enumerate(args):
            if isinstance(arg, int):  # a count, not a variance or an instant
                continue
            rejects, message = _RULES[_rule(fn, names[k])]
            for bad in (-1.0, math.nan, math.inf, -math.inf, 0.0):
                bad_args = _replaced(args, k, bad)
                call = dict(zip(names, bad_args))
                if not rejects(bad, call):
                    continue
                yield pytest.param(
                    fn, args, bad_args, message.format(name=names[k], value=bad, **call),
                    id=f"{fn.__name__}-{names[k]}-{bad}",
                )


@pytest.mark.parametrize("fn, valid, args, message", list(_bad_argument_cases()))
def test_every_argument_is_validated_under_its_own_name(fn, valid, args, message):
    fn(*valid)
    with pytest.raises(ValueError) as info:
        fn(*args)
    assert str(info.value) == message


def _accepted_sensor_cases():
    for fn, args in _VALID_CALLS:
        names = list(inspect.signature(fn).parameters)
        for k, name in enumerate(names):
            if name not in ("v1", "v2", "variances"):
                continue
            rejects, _ = _RULES[_rule(fn, name)]
            for value in (0.0, -0.0, math.inf):
                if not rejects(value, {}):
                    yield pytest.param(fn, _replaced(args, k, value),
                                       id=f"{fn.__name__}-{name}-{value}")


@pytest.mark.parametrize("fn, args", list(_accepted_sensor_cases()))
def test_exact_and_useless_sensors_are_accepted(fn, args):
    # a sensor of variance 0 (or -0.0) is exact and one of variance inf
    # carries no information; the two-measure solvers take only finite ones
    fn(*args)


_PROBE_VALUES = (-1.0, 0.0, -0.0, 5e-324, 1e-300, 1e-200, 0.5, 1.0, 4.0, 1e200, 1e300,
                 sys.float_info.max, math.inf, -math.inf, math.nan)


def _probe_calls(base):
    """``base`` with each argument, and each pair of arguments, replaced by
    every value of ``_PROBE_VALUES``; each distinct argument tuple once, with
    -0.0 told apart from 0.0."""
    calls = {}
    for k in (1, 2):
        for where in itertools.combinations(range(len(base)), k):
            for values in itertools.product(_PROBE_VALUES, repeat=k):
                args = list(base)
                for i, x in zip(where, values):
                    args[i] = x
                calls.setdefault(tuple(x.hex() for x in args), tuple(args))
    return list(calls.values())


def test_scalar_costs_are_finite_or_raise():
    """On 11,926 calls around sigma2 = 1, T = 3, unit variances, t1 = 1 and
    t2 = 2, at extreme, signed, infinite and NaN arguments, the scalar costs
    and the solvers return a finite cost or raise ValueError (a domain
    error, overflow included) or RuntimeError (a solver failure); an
    overflowing cost never comes back as inf or NaN."""
    probes = [
        (one_measure.cost_single, (1.0, 3.0, 1.0, 1.0, 1.0)),
        (one_measure.optimal_instant_1, (1.0, 3.0, 1.0, 1.0)),
        (cost_pair, (1.0, 3.0, 1.0, 1.0, 1.0, 1.0, 2.0)),
        (optimize_two, (1.0, 3.0, 1.0, 1.0, 1.0)),
        (descend_two, (1.0, 3.0, 1.0, 1.0, 1.0)),
    ]
    calls = finite = 0
    for fn, base in probes:
        for args in _probe_calls(base):
            calls += 1
            try:
                result = fn(*args)
            except (ValueError, RuntimeError):
                continue
            cost = result if isinstance(result, float) else result.cost_at_opt
            assert math.isfinite(cost), (fn.__name__, args)
            finite += 1
    assert calls == 11_926
    assert finite == 3_200


def test_golden_solutions_are_bit_identical():
    """optimize_two, descend_two (with its trace), optimal_instant_1,
    cost_pair and optimal_gap reproduce tests/golden/solutions.json bit for
    bit, errors included."""
    for name, records in _golden.load().items():
        for args, expected in records:
            assert _golden.solve(name, args) == expected, (name, args)


def test_first_critical_duration_is_zero_without_prior_variance():
    # with v0 = 0 every horizon is regime 3; the duration used to carry a
    # rounding residue (1.39e-17 here) that labelled tiny horizons regime 2
    assert critical_duration_2_first(24.15, 0.0, 1.107, 2.221) == 0.0
    sol = optimize_two(24.15, 9.85e-18, 0.0, 1.107, 2.221)
    assert sol.regime is TwoMeasureRegime.REGIME3
    assert sol.T1_crit == 0.0


def test_large_scale_solves_end():
    # optimize_two(1, 1e6, 1e5, 1e5, 1e5) used to hang in the cross-check's
    # bisection, whose absolute bracket width lies below the float spacing
    unit = optimize_two(1.0, 1.0, 0.1, 0.1, 0.1)
    with deadline(1.0):
        sol = optimize_two(1.0, 1e6, 1e5, 1e5, 1e5)
    assert abs(sol.t1_opt / 1e6 - unit.t1_opt) <= 1e-12
    assert abs(sol.t2_opt / 1e6 - unit.t2_opt) <= 1e-12
    with deadline(1.0):
        sol = descend_two(1.0, 1e6, 1e5, 1e5, 1e5)
    assert abs(sol.t1_opt / 1e6 - unit.t1_opt) <= 1e-9
    assert abs(sol.t2_opt / 1e6 - unit.t2_opt) <= 1e-9


@pytest.mark.parametrize(
    "args", [(1e308, 1.0, 1.0, 1.0, 1.0), (1.0, 1.0, 1e-300, 1e-300, 1e-300)]
)
def test_regime3_root_survives_an_underflowing_slope(args):
    # in units of sigma2*T the variances are about 1e-300, and the square in
    # the t1 slope underflows to 0
    sol = optimize_two(*args)
    assert sol.regime is TwoMeasureRegime.REGIME3
    assert sol.t1_opt == pytest.approx(1.0 / 3.0, rel=1e-9)
    assert sol.t2_opt == pytest.approx(2.0 / 3.0, rel=1e-9)


def test_regime3_root_survives_an_underflowing_time_and_variance_scale():
    # sigma2*T = 1e-400 underflows to 0, by which the dimensionless variances
    # used to be divided (ZeroDivisionError); they are now (v/sigma2)/T
    unit = optimize_two(1.0, 1.0, 0.0, 0.0, 0.0)
    sol = optimize_two(1e-200, 1e-200, 0.0, 0.0, 0.0)
    assert unit.regime is sol.regime is TwoMeasureRegime.REGIME3
    assert (unit.t1_opt, unit.t2_opt) == pytest.approx((1.0 / 3.0, 2.0 / 3.0), rel=1e-12)
    assert sol.t1_opt / 1e-200 == pytest.approx(unit.t1_opt, rel=1e-12)
    assert sol.t2_opt / 1e-200 == pytest.approx(unit.t2_opt, rel=1e-12)
    # the descent runs in the same units; with stop rules in absolute time it
    # accepted (0, 0) at this scale
    sol = descend_two(1e-200, 1e-200, 0.0, 0.0, 0.0)
    assert sol.regime is TwoMeasureRegime.REGIME3
    assert abs(sol.t1_opt / 1e-200 - 1.0 / 3.0) <= 1e-8
    assert abs(sol.t2_opt / 1e-200 - 2.0 / 3.0) <= 1e-8


def _regime3_golden_args():
    return [args for args, expected in _golden.load()["optimize_two"]
            if expected.get("regime") == "3"]


def test_regime3_root_takes_few_evaluations(monkeypatch):
    """Chandrupatla's method finds the reduced regime-3 root in about 6.4
    slope evaluations, the one at u = 0 included (the slope at u = 1 is
    known, not evaluated), on the golden regime-3 instances.  Brent's method
    took about 8 counting both ends, and bisection to the same bracket 46."""
    calls = [0]
    slope_factor = two_measure._slope_factor

    def counting(*args):
        calls[0] += 1
        return slope_factor(*args)

    monkeypatch.setattr(two_measure, "_slope_factor", counting)
    counts = []
    for args in _regime3_golden_args():
        calls[0] = 0
        optimize_two(*args)
        counts.append(calls[0])
    assert len(counts) >= 100
    assert sum(counts) / len(counts) <= 7.25
    assert max(counts) <= 9


@pytest.mark.parametrize("time_scale", [1.0, 1e-8, 1e8])
@pytest.mark.parametrize("variance_scale", [1.0, 1e-8, 1e8])
def test_regime3_root_evaluates_the_slope_at_zero_once(monkeypatch, time_scale, variance_scale):
    # the guard's slope at u = 0 is also the root's g(lo), computed once; its
    # g(hi), the slope at u = 1, is a0 + 1.0, never evaluated, and bit-equal
    # to the slope evaluated there
    evaluated_at = []
    slope_factor = two_measure._slope_factor

    def recording(*args):
        evaluated_at.append(args[3])
        return slope_factor(*args)

    instances = [(1.0, 1.0, 0.0, 1.0, 1.0)] + _regime3_golden_args()
    for sigma2, T, v0, v1, v2 in instances:
        sigma2 *= variance_scale / time_scale
        T *= time_scale
        v0, v1, v2 = (v * variance_scale for v in (v0, v1, v2))
        evaluated_at.clear()
        monkeypatch.setattr(two_measure, "_slope_factor", recording)
        sol = optimize_two(sigma2, T, v0, v1, v2)
        monkeypatch.undo()
        assert sol.regime is TwoMeasureRegime.REGIME3
        assert evaluated_at.count(0.0) == 1
        assert 1.0 not in evaluated_at
        a0, a1, a2 = (v / (sigma2 * T) for v in (v0, v1, v2))
        gap = two_measure._optimal_gap(1.0, 1.0, a0, a1, a2, 1.0)
        at_one = two_measure._t1_slope_factor(1.0, 1.0, a0, a1, a2, 1.0, 1.0 + gap)
        assert (a0 + 1.0).hex() == at_one.hex()


def _bits_or_error(f, *args):
    """The result's bits, or the type and message of the error it raises."""
    try:
        return f(*args).hex()
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


def _composed_curve_slope(a0, a1, a2, u):
    # the reduced root's slope as the helpers compose it
    g = a0 + u
    post1 = kalman._parallel_sum(a1, g)
    u2 = u + two_measure._optimal_gap(1.0, 1.0, a0, a1, a2, u)
    return two_measure._slope_factor(
        1.0, 1.0, a2, u, u2, g, one_measure._noise_ratio(a1, g), post1
    )


def test_reduced_slope_is_the_composed_slope_bit_for_bit():
    # zero, subnormal, tiny, ordinary, huge and infinite dimensionless
    # variances; a0 = 0 with u = 0 gives g = 0 (and -0.0 with both -0.0), and
    # a0 = inf gives g = inf
    operands = [0.0, 5e-324, 1e-300, 0.5, 3.0, 1e300, math.inf]
    errors = 0
    for a0 in [-0.0, 0.0, 1e-300, 0.5, 1e300, math.inf]:
        for a1, a2 in itertools.product(operands, repeat=2):
            for u in [-0.0, 0.0, 1e-300, 0.37, 1.0]:
                curve = _bits_or_error(two_measure._reduced_slope, a0, a1, a2, None, u)
                assert curve == _bits_or_error(_composed_curve_slope, a0, a1, a2, u), (
                    a0, a1, a2, u
                )
                for u2 in [u, 0.5 * (u + 1.0), 1.0]:
                    fixed = _bits_or_error(two_measure._reduced_slope, a0, a1, a2, u2, u)
                    composed = _bits_or_error(
                        two_measure._t1_slope_factor, 1, 1, a0, a1, a2, u, u2
                    )
                    assert fixed == composed, (a0, a1, a2, u, u2)
                    errors += isinstance(fixed, tuple)
    # the parallel sum of two infinite operands is among the errors matched
    with pytest.raises(ValueError, match="both be inf"):
        two_measure._reduced_slope(math.inf, math.inf, 1.0, None, 0.5)
    assert errors > 0


@pytest.mark.parametrize(
    "args",
    [
        # v0 = 0 and a horizon so short that the regime-2 instant, the
        # descent's start, rounds to 0
        (0.02270379470214179, 1.1952541310982844e-14, 0.0, 8.243413924809195, 4.6223331865292545),
        (0.08764500068280252, 8.199630497495901e-15, 0.0, 8.756076974741031, 6.441609743641338),
    ],
)
def test_descent_at_tiny_horizons_without_prior_variance(args):
    # the t1 line search used to get the empty bracket [0, 0] and raise
    sol = descend_two(*args)
    assert sol.regime is TwoMeasureRegime.REGIME3
    assert 0.0 <= sol.t1_opt <= sol.t2_opt <= args[1]


def _stationary_point(sigma2, T, v0, v1, v2, t1, t2):
    """Stationary point of the two-measure cost at 40 digits, by Newton's
    method from (t1, t2).  The gradient is written out from the model (growth
    at rate sigma2, update v*vk/(v+vk)), not taken from bmsched."""
    with mpmath.workdps(40):
        s, T, v0, v1, v2 = (mpmath.mpf(x) for x in (sigma2, T, v0, v1, v2))

        def gradient(x1, x2):
            g = v0 + s * x1
            post1, dpost1 = v1 * g / (v1 + g), s * v1**2 / (v1 + g) ** 2
            h = post1 + s * (x2 - x1)
            post2, dpost2 = v2 * h / (v2 + h), v2**2 / (v2 + h) ** 2
            rest = T - x2
            d1 = (s * x1 + v0 - s * (x2 - x1) + dpost1 * (x2 - x1) - post1
                  + rest * dpost2 * (dpost1 - s))
            d2 = s * (x2 - x1) + post1 - s * rest - post2 + rest * dpost2 * s
            return d1, d2

        root = mpmath.findroot(gradient, (mpmath.mpf(t1), mpmath.mpf(t2)))
        return float(root[0]), float(root[1])


def test_regime3_solutions_match_a_40_digit_stationary_point():
    """Row B, and the 10 golden regime-3 instances on which optimize_two and
    the descent differ most, lie within 1e-12*T of the stationary point."""
    golden = _golden.load()
    moved = []
    for (args, new), (_, old) in zip(golden["optimize_two"], golden["descend_two"]):
        if new.get("regime") != "3" or old.get("regime") != "3":
            continue
        move = max(abs(float.fromhex(new[k]) - float.fromhex(old[k])) for k in ("t1_opt", "t2_opt"))
        moved.append((move / args[1], args))
    moved.sort(reverse=True)
    v0, v1, v2, T = ROW_B
    cases = [(1.0, T, v0, v1, v2)] + [args for _, args in moved[:10]]
    for sigma2, T, v0, v1, v2 in cases:
        sol = optimize_two(sigma2, T, v0, v1, v2)
        assert sol.regime is TwoMeasureRegime.REGIME3
        b1, b2 = _stationary_point(sigma2, T, v0, v1, v2, sol.t1_opt, sol.t2_opt)
        assert abs(sol.t1_opt - b1) <= 1e-12 * T, (sigma2, T, v0, v1, v2)
        assert abs(sol.t2_opt - b2) <= 1e-12 * T, (sigma2, T, v0, v1, v2)


_variance = st.one_of(st.just(0.0), st.floats(min_value=0.01, max_value=5.0))


@pytest.mark.parametrize(
    "solve, tol", [(optimize_two, 1e-12), (descend_two, 1e-8)], ids=["root", "descent"]
)
@settings(max_examples=200, deadline=None)
@given(
    v0=st.floats(min_value=0.01, max_value=5.0),
    v1=_variance,
    v2=_variance,
    stretch=st.floats(min_value=1.0 + 1e-9, max_value=4.0),
    time_decades=st.floats(min_value=-8.0, max_value=8.0),
    variance_decades=st.floats(min_value=-8.0, max_value=8.0),
)
def test_regime3_instants_are_scale_invariant(
    solve, tol, v0, v1, v2, stretch, time_decades, variance_decades
):
    # T1_crit comes from the closed-form root of the boundary cubic, exact to
    # about 1e-15 relative at every scale, so a horizon 1e-9 past it is regime
    # 3 at every scale too.  The descent steps, stops and cross-checks in
    # units of T, so rounding of the dimensionless variances can only flip its
    # stop test by one step, below step_tol = 1e-9 of T.
    T = stretch * critical_duration_2_first(1.0, v0, v1, v2)
    unit = solve(1.0, T, v0, v1, v2)
    a, b = 10.0**time_decades, 10.0**variance_decades
    sol = solve(b / a, T * a, v0 * b, v1 * b, v2 * b)
    assert unit.regime is sol.regime is TwoMeasureRegime.REGIME3
    assert abs(sol.t1_opt / (T * a) - unit.t1_opt / T) <= tol
    assert abs(sol.t2_opt / (T * a) - unit.t2_opt / T) <= tol


@settings(max_examples=200, deadline=None)
@given(
    v0=st.floats(min_value=0.01, max_value=5.0),
    v1=_variance,
    v2=_variance,
    regime=st.sampled_from([TwoMeasureRegime.REGIME1, TwoMeasureRegime.REGIME2]),
    position=st.floats(min_value=0.0, max_value=1.0),
    time_decades=st.floats(min_value=-8.0, max_value=8.0),
    variance_decades=st.floats(min_value=-8.0, max_value=8.0),
)
def test_regime1_and_2_instants_are_scale_invariant(
    v0, v1, v2, regime, position, time_decades, variance_decades
):
    # a horizon at least 1e-9 (relative) inside the regime's interval of
    # unit-scale horizons; both critical durations are exact to about 1e-15
    # relative at every scale, so the label does not change either
    t2_crit = critical_duration_2_second(1.0, v0, v1, v2)
    t1_crit = critical_duration_2_first(1.0, v0, v1, v2)
    if regime is TwoMeasureRegime.REGIME1:
        lo, hi = 1e-9 * t2_crit, (1.0 - 1e-9) * t2_crit
    else:
        lo, hi = (1.0 + 1e-9) * t2_crit, (1.0 - 1e-9) * t1_crit
    assume(0.0 < lo < hi)
    T = lo + position * (hi - lo)
    unit = optimize_two(1.0, T, v0, v1, v2)
    a, b = 10.0**time_decades, 10.0**variance_decades
    sol = optimize_two(b / a, T * a, v0 * b, v1 * b, v2 * b)
    assert unit.regime is sol.regime is regime
    assert sol.t1_opt == unit.t1_opt == 0.0
    assert abs(sol.t2_opt / (T * a) - unit.t2_opt / T) <= 1e-12
