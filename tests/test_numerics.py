import math
import tracemalloc

import pytest

import _golden
from _props import deadline
from bmsched import numerics
from bmsched.kalman import ModelParams
from bmsched.numerics import (
    GOLDEN_RATIO_CONJUGATE,
    RootBudgetExceeded,
    bisect_root,
    brent_root,
    finite_diff,
    golden_section_min,
    grid_oracle_1,
    grid_oracle_2,
)
from bmsched.two_measure import cost_pair, equilibrium_gap, optimal_gap


def test_golden_section_smooth():
    assert golden_section_min(lambda x: (x - 0.3) ** 2, 0.0, 1.0, 1e-10) == pytest.approx(
        0.3, abs=1e-10
    )


def test_golden_section_nonsmooth():
    assert golden_section_min(lambda x: abs(x - 0.7), 0.0, 1.0, 1e-10) == pytest.approx(
        0.7, abs=1e-10
    )


def test_golden_section_on_descent_start():
    # first line search of the worked interior example
    f = lambda u: cost_pair(1.0, 71.0 / 18.0, 1.0, 1.0, 1.0, u, 2.0)
    x = golden_section_min(f, 0.0, 2.0, 1e-10)
    assert x == pytest.approx(0.8668, abs=1e-3)


def test_golden_section_bracket_shrinks_by_golden_ratio():
    trace: list = []
    golden_section_min(lambda x: (x - 0.4) ** 2, 0.0, 1.0, 1e-8, trace=trace)
    widths = [hi - lo for lo, hi in trace]
    assert widths[0] == pytest.approx(GOLDEN_RATIO_CONJUGATE, rel=1e-12)
    for a, b in zip(widths, widths[1:]):
        assert b == pytest.approx(GOLDEN_RATIO_CONJUGATE * a, rel=1e-9)


def test_golden_section_evaluation_budget():
    calls = 0

    def f(x):
        nonlocal calls
        calls += 1
        return (x - 0.123) ** 2

    lo, hi, tol = 0.0, 1.0, 1e-9
    golden_section_min(f, lo, hi, tol)
    budget = math.ceil(math.log((hi - lo) / tol) / math.log(1.0 / GOLDEN_RATIO_CONJUGATE)) + 2
    assert calls <= budget


def test_golden_section_errors():
    with pytest.raises(ValueError):
        golden_section_min(lambda x: x, 1.0, 1.0, 1e-8)
    with pytest.raises(ValueError):
        golden_section_min(lambda x: x, 0.0, 1.0, 0.0)


def test_bisect_root_linear():
    assert bisect_root(lambda x: x - 0.25, 0.0, 1.0, 1e-12) == pytest.approx(0.25, abs=1e-12)


def test_bisect_root_on_boundary_cubic():
    # unit-variance boundary cubic has its positive root at 1/2
    f = lambda x: ((-12.0 * x - 40.0) * x - 25.0) * x + 24.0
    assert bisect_root(f, 0.0, 3.0, 1e-12) == pytest.approx(0.5, abs=1e-11)


def test_bisect_root_on_stationarity_gap():
    T = 71.0 / 18.0
    g = lambda t1: optimal_gap(1.0, T, 1.0, 1.0, 1.0, t1) - equilibrium_gap(
        1.0, 1.0, 1.0, 1.0, t1
    )
    assert bisect_root(g, 0.0, T, 1e-10) == pytest.approx(1.0401, abs=1e-3)


def test_bisect_root_interval_halves_and_residual_shrinks():
    trace: list = []
    g = lambda x: math.tanh(x - 0.3)
    root = bisect_root(g, -1.0, 1.0, 1e-12, trace=trace)
    widths = [hi - lo for lo, hi in trace]
    for a, b in zip(widths, widths[1:]):
        assert b == pytest.approx(0.5 * a, rel=1e-9)
    assert abs(g(root)) < 1e-10


def test_bisect_root_ends_below_float_spacing():
    # near 1e6 adjacent floats are 1.2e-10 apart, so a 1e-12 bracket is never
    # reached; the bisection stops at adjacent floats around the root
    with deadline(1.0):
        root = bisect_root(lambda x: x - (1e6 + 0.3), 1e6, 1e6 + 1.0, tol=1e-12)
    assert abs(root - (1e6 + 0.3)) <= math.ulp(1e6)


def test_golden_section_ends_below_float_spacing():
    with deadline(1.0):
        x = golden_section_min(lambda x: (x - (1e6 + 0.3)) ** 2, 1e6, 1e6 + 1.0, 1e-12)
    assert abs(x - (1e6 + 0.3)) <= math.ulp(1e6)


def test_bisect_root_errors():
    with pytest.raises(ValueError):
        bisect_root(lambda x: x + 2.0, 0.0, 1.0, 1e-10)
    with pytest.raises(ValueError):
        bisect_root(lambda x: x, 1.0, 0.0, 1e-10)


def test_bisect_root_compares_signs_not_products():
    # g(lo)*g(hi) and g(lo)*g(mid) underflow to 0 when both values are tiny
    with pytest.raises(ValueError):
        bisect_root(lambda x: 1e-200 * (x + 1.0), 0.0, 1.0, 1e-10)
    root = bisect_root(lambda x: 1e-200 * (x - 0.3), 0.0, 1.0, 1e-12)
    assert abs(root - 0.3) <= 1e-12


def test_brent_root_linear():
    assert brent_root(lambda x: x - 0.25, 0.0, 1.0, 1e-12) == pytest.approx(0.25, abs=1e-12)


def test_brent_root_on_boundary_cubic():
    f = lambda x: ((-12.0 * x - 40.0) * x - 25.0) * x + 24.0
    assert brent_root(f, 0.0, 3.0, 1e-12) == pytest.approx(0.5, abs=1e-11)


def test_brent_root_on_stationarity_gap():
    T = 71.0 / 18.0
    g = lambda t1: optimal_gap(1.0, T, 1.0, 1.0, 1.0, t1) - equilibrium_gap(
        1.0, 1.0, 1.0, 1.0, t1
    )
    assert brent_root(g, 0.0, T, 1e-10) == pytest.approx(1.0401, abs=1e-3)


def test_brent_root_returns_exact_zeros_as_is():
    assert brent_root(lambda x: x - 0.25, 0.25, 1.0, 1e-12) == 0.25
    assert brent_root(lambda x: x - 1.0, 0.25, 1.0, 1e-12) == 1.0
    # the first secant step from [0, 1] lands on the zero at 0.25 exactly
    calls = []

    def g(x):
        calls.append(x)
        return 2.0 * x - 0.5

    assert brent_root(g, 0.0, 1.0, 1e-12) == 0.25
    assert calls == [0.0, 1.0, 0.25]


@pytest.mark.parametrize(
    "g",
    [
        lambda x: math.tanh(x - 0.3),
        lambda x: (x - 0.7) ** 3,  # triple root: interpolation stalls, bisection takes over
        lambda x: math.exp(4.0 * x) - 3.0,
        lambda x: x - 1e-3 / (x + 1e-9),
    ],
)
def test_brent_root_final_bracket_certifies_the_root(g):
    # the root lies within tol + 4*eps*|root| of the returned point: the
    # increasing g changes sign across that distance
    tol = 1e-13
    root = brent_root(g, 0.0, 1.0, tol)
    reach = tol + 4.0 * math.ulp(1.0) * abs(root)
    assert g(root) == 0.0 or g(root - reach) < 0.0 < g(root + reach)


def test_brent_root_ends_below_float_spacing():
    # near 1e6 a 1e-12 bracket is narrower than the float spacing; the search
    # stops at a bracket of a few ulps instead
    r = 1e6 + 0.3
    with deadline(1.0):
        root = brent_root(lambda x: (x - r) ** 3, 1e6, 1e6 + 1.0, tol=1e-12)
    assert abs(root - r) <= 1e-12 + 4.0 * math.ulp(1.0) * r


def test_brent_root_errors():
    with pytest.raises(ValueError, match="sign change"):
        brent_root(lambda x: x + 2.0, 0.0, 1.0, 1e-10)
    with pytest.raises(ValueError, match="sign change"):
        brent_root(lambda x: 1e-200 * (x + 1.0), 0.0, 1.0, 1e-10)  # product underflows
    with pytest.raises(ValueError):
        brent_root(lambda x: x, 1.0, 0.0, 1e-10)
    with pytest.raises(ValueError):
        brent_root(lambda x: x, -1.0, 1.0, 0.0)


def test_brent_root_budget_raises_a_runtime_error(monkeypatch):
    monkeypatch.setattr(numerics, "BRENT_MAX_EVALUATIONS", 1)
    with pytest.raises(RootBudgetExceeded, match="within 1 evaluations") as info:
        brent_root(lambda x: math.tanh(x - 0.3), 0.0, 1.0, 1e-13)
    assert isinstance(info.value, RuntimeError)


def test_finite_diff():
    assert finite_diff(lambda x: x * x, 1.0, 1e-6) == pytest.approx(2.0, abs=1e-6)
    with pytest.raises(ValueError):
        finite_diff(lambda x: x, 0.0, 0.0)


def test_grid_oracle_1_examples():
    oracle = grid_oracle_1(ModelParams(1.0, 1.0, math.sqrt(2.0)), 1.0, step=1e-4)
    assert oracle.argmin[0] == 0.0

    oracle = grid_oracle_1(ModelParams(1.0, 7.0 / 6.0, 0.5), 1.0, step=1e-4)
    assert oracle.argmin[0] == pytest.approx(0.5, abs=1e-4)

    oracle = grid_oracle_1(ModelParams(1.0, 1.0, 0.0), 1.0, step=1e-4)
    assert oracle.argmin[0] == pytest.approx(0.6180, abs=1e-4)


def test_grid_oracle_1_deterministic():
    a = grid_oracle_1(ModelParams(1.3, 2.1, 0.7), 0.9, step=1e-3)
    b = grid_oracle_1(ModelParams(1.3, 2.1, 0.7), 0.9, step=1e-3)
    assert a == b


def test_grid_oracle_2_interior_example():
    params = ModelParams(1.0, 71.0 / 18.0, 1.0)
    oracle = grid_oracle_2(params, (1.0, 1.0), step=2e-3)
    assert oracle.argmin[0] == pytest.approx(1.0401, abs=4e-3)
    assert oracle.argmin[1] == pytest.approx(2.4092, abs=4e-3)
    assert oracle.lattice_cwlms is not None
    assert len(oracle.lattice_cwlms) == 1
    assert oracle.min_value <= cost_pair(1.0, 71.0 / 18.0, 1.0, 1.0, 1.0, 1.0401, 2.4092)


def test_grid_oracle_2_boundary_regimes():
    both_zero = grid_oracle_2(ModelParams(1.0, 0.2, 1.0), (1.0, 1.0), step=2e-3)
    assert both_zero.argmin == (0.0, 0.0)

    second_only = grid_oracle_2(ModelParams(1.0, 0.5, 1.0), (1.0, 1.0), step=2e-3)
    assert second_only.argmin[0] == 0.0
    assert second_only.argmin[1] > 0.0


def test_grid_oracle_2_deterministic():
    params = ModelParams(1.0, 1.5, 1.0)
    a = grid_oracle_2(params, (0.8, 1.7), step=4e-3)
    b = grid_oracle_2(params, (0.8, 1.7), step=4e-3)
    assert a == b


def test_grid_oracle_2_refinement_never_increases():
    params = ModelParams(1.0, 1.5, 1.0)
    oracle = grid_oracle_2(params, (1.0, 1.0), step=1e-2)
    lattice_best = cost_pair(1.0, 1.5, 1.0, 1.0, 1.0, *oracle.argmin)
    assert oracle.min_value <= lattice_best + 1e-15


def test_golden_oracles_are_bit_identical():
    """grid_oracle_1 and grid_oracle_2 reproduce tests/golden/oracles.json
    bit for bit: argmin, minimum, refinement flag and lattice minima."""
    for name, records in _golden.load(_golden.ORACLE_PATH).items():
        for args, expected in records:
            assert _golden.solve(name, args) == expected, (name, args)


def test_grid_oracle_2_memory_is_about_one_cost_matrix():
    # the m x m cost matrix takes 8m^2 bytes; the fill and the scan for
    # lattice minima work in blocks, so they add little on top of it
    m = 2001
    tracemalloc.start()
    try:
        grid_oracle_2(ModelParams(1.3, 4.0, 1.0), (1.0, 2.0), 2e-3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 8 * m * m


def test_grid_oracle_input_validation():
    with pytest.raises(ValueError):
        grid_oracle_1(ModelParams(1.0, 1.0, 1.0), 1.0, step=0.0)
    with pytest.raises(ValueError):
        grid_oracle_2(ModelParams(1.0, 1.0, 1.0), (1.0, 1.0, 1.0), step=1e-3)
