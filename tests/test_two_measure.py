import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _golden
from _props import check_two_measure_derivative, deadline, draw_two_measure_instance
from bmsched import numerics, one_measure, two_measure
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
    solve_stationarity,
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
    # of it; a horizon equal to T1_crit belongs to regime 2.
    sol = optimize_two(1.0, 7.0 / 6.0, 1.0, 1.0, 1.0)
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


def test_solve_stationarity_examples():
    t1, t2 = solve_stationarity(1.0, ROW_B[3], *ROW_B[:3])
    assert t1 == pytest.approx(1.0401, abs=1e-3)
    assert t2 == pytest.approx(2.4092, abs=1e-3)
    # the printed optimum for this row drops a digit: the stationarity system
    # and the brute-force oracle both give t2 = 2.2985, not 2.985
    t1, t2 = solve_stationarity(1.0, ROW_D[3], *ROW_D[:3])
    assert t1 == pytest.approx(1.1211, abs=1e-3)
    assert t2 == pytest.approx(2.2985, abs=1e-3)
    with pytest.raises(ValueError):
        solve_stationarity(1.0, 0.5, 1.0, 1.0, 1.0)


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


def test_descent_and_bisection_agree():
    rng = np.random.default_rng(27)
    checked = 0
    while checked < 50:
        sigma2, T, v0, v1, v2 = draw_two_measure_instance(rng)
        sol = optimize_two(sigma2, T, v0, v1, v2)
        if sol.regime is not TwoMeasureRegime.REGIME3:
            continue
        checked += 1
        b1, b2 = solve_stationarity(sigma2, T, v0, v1, v2)
        assert abs(sol.t1_opt - b1) < 1e-6
        assert abs(sol.t2_opt - b2) < 1e-6
        assert abs(sol.trace.final_gap if sol.trace else 0.0) < 1e-6
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
        oracle = numerics.grid_oracle_2(ModelParams(sigma2, T, v0), (v1, v2), step=4e-3)
        assert oracle.lattice_cwlms is not None
        assert len(oracle.lattice_cwlms) == 1
        cwlm = oracle.lattice_cwlms[0]
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


def test_cross_check_certificate_accepts_regime3_solutions():
    """On random regime-3 instances the bracket certificate accepts the
    descent's answer, and the stationarity bisection indeed lies within the
    cross-check tolerance of it."""
    rng = np.random.default_rng(41)
    runs = 0
    while runs < 200:
        sigma2 = float(10.0 ** rng.uniform(-1.0, 1.0))
        scale = float(10.0 ** rng.uniform(-1.0, 1.0))
        v0, v1, v2 = (float(x) * scale for x in rng.uniform(0.0, 5.0, size=3))
        T = critical_duration_2_first(sigma2, v0, v1, v2) + scale / sigma2 * float(
            rng.uniform(0.05, 5.0)
        )
        if classify_regime(sigma2, T, v0, v1, v2) is not TwoMeasureRegime.REGIME3:
            continue
        runs += 1
        sol = optimize_two(sigma2, T, v0, v1, v2)
        t1, t2 = sol.t1_opt, sol.t2_opt
        assert two_measure._cross_check_certified(sigma2, T, v0, v1, v2, t1, t2)
        b1, b2 = solve_stationarity(sigma2, T, v0, v1, v2)
        assert max(abs(b1 - t1), abs(b2 - t2)) <= two_measure._CROSS_CHECK_TOL


def test_cross_check_disagreement_still_raises(monkeypatch):
    """A descent answer 1e-4 off fails the certificate, and the fallback
    bisection reports the disagreement."""
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
        try:
            sol = descend_two(1.0, 1e6, 1e5, 1e5, 1e5)
        except RuntimeError:
            pass
        else:
            assert abs(sol.t1_opt / 1e6 - unit.t1_opt) <= 1e-9


def test_regime3_root_takes_few_evaluations(monkeypatch):
    """Brent's method finds the reduced regime-3 root in about 8 slope
    evaluations, endpoints included (bisection to the same bracket takes
    46), on the golden regime-3 instances."""
    counts = []

    def counting(g, lo, hi, tol):
        calls = 0

        def counted(u):
            nonlocal calls
            calls += 1
            return g(u)

        try:
            return numerics.brent_root(counted, lo, hi, tol)
        finally:
            counts.append(calls)

    monkeypatch.setattr(two_measure, "brent_root", counting)
    for args, expected in _golden.load()["optimize_two"]:
        if expected.get("regime") == "3":
            optimize_two(*args)
    assert len(counts) >= 100
    assert sum(counts) / len(counts) <= 8.0
    assert max(counts) <= 12


def test_regime3_root_evaluates_the_slope_at_zero_once(monkeypatch):
    # the guard's slope at u = 0 is also Brent's g(lo); it is computed once
    at_zero = []
    slope_factor = two_measure._t1_slope_factor

    def recording(*args):
        if args[5] == 0.0:
            at_zero.append(args)
        return slope_factor(*args)

    monkeypatch.setattr(two_measure, "_t1_slope_factor", recording)
    sol = optimize_two(1.0, 1.0, 0.0, 1.0, 1.0)
    assert sol.regime is TwoMeasureRegime.REGIME3
    assert len(at_zero) == 1


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


@settings(max_examples=200, deadline=None)
@given(
    v0=st.floats(min_value=0.01, max_value=5.0),
    v1=_variance,
    v2=_variance,
    stretch=st.floats(min_value=1.05, max_value=4.0),
    time_decades=st.floats(min_value=-8.0, max_value=8.0),
    variance_decades=st.floats(min_value=-8.0, max_value=8.0),
)
def test_regime3_instants_are_scale_invariant(v0, v1, v2, stretch, time_decades, variance_decades):
    # T >= 1.05*T1_crit keeps clear of the regime-2/3 boundary, which
    # critical_spacing locates with an absolute stop rule
    T = stretch * critical_duration_2_first(1.0, v0, v1, v2)
    unit = optimize_two(1.0, T, v0, v1, v2)
    a, b = 10.0**time_decades, 10.0**variance_decades
    sol = optimize_two(b / a, T * a, v0 * b, v1 * b, v2 * b)
    assert unit.regime is sol.regime is TwoMeasureRegime.REGIME3
    assert abs(sol.t1_opt / (T * a) - unit.t1_opt / T) <= 1e-12
    assert abs(sol.t2_opt / (T * a) - unit.t2_opt / T) <= 1e-12
