import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _golden
from _lattice import _block_nodes, lattice_cwlms
from _props import deadline, finite_diff
from bmsched import kalman, numerics
from bmsched.kalman import ModelParams
from bmsched.numerics import (
    GOLDEN_RATIO_CONJUGATE,
    RootBudgetExceeded,
    bisect_root,
    bracketed_root,
    golden_section_min,
    grid_oracle_1,
    grid_oracle_2,
)
from bmsched.one_measure import cost_single
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
    # the two interior points of a bracket of width w lie (2*rho - 1)*w apart;
    # each new point pairs with the old interior point nearest to it
    rho = GOLDEN_RATIO_CONJUGATE
    points: list = []
    golden_section_min(lambda x: points.append(x) or (x - 0.4) ** 2, 0.0, 1.0, 1e-8)
    pair = points[:2]
    widths = [abs(pair[1] - pair[0])]
    for x in points[2:]:
        kept = min(pair, key=lambda p: abs(p - x))
        pair = [kept, x]
        widths.append(abs(x - kept))
    assert len(widths) > 30
    assert widths[0] == pytest.approx(2.0 * rho - 1.0, rel=1e-12)
    for a, b in zip(widths, widths[1:]):
        assert b == pytest.approx(rho * a, rel=1e-9)


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
    # after the two ends, g is called at the midpoints of the brackets, and
    # consecutive midpoints lie a quarter of the earlier bracket apart
    points: list = []
    g = lambda x: math.tanh(x - 0.3)
    root = bisect_root(lambda x: points.append(x) or g(x), -1.0, 1.0, 1e-12)
    assert points[:3] == [-1.0, 1.0, 0.0]
    steps = [abs(b - a) for a, b in zip(points[2:], points[3:])]
    assert len(steps) > 30
    assert steps[0] == 0.5
    for a, b in zip(steps, steps[1:]):
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


def _root(g, lo, hi, tol):
    """bracketed_root with the end values computed here."""
    return bracketed_root(g, lo, hi, g(lo), g(hi), tol)


def test_bracketed_root_linear():
    assert _root(lambda x: x - 0.25, 0.0, 1.0, 1e-12) == pytest.approx(0.25, abs=1e-12)


def test_bracketed_root_on_boundary_cubic():
    f = lambda x: ((-12.0 * x - 40.0) * x - 25.0) * x + 24.0
    assert _root(f, 0.0, 3.0, 1e-12) == pytest.approx(0.5, abs=1e-11)


def test_bracketed_root_on_stationarity_gap():
    T = 71.0 / 18.0
    g = lambda t1: optimal_gap(1.0, T, 1.0, 1.0, 1.0, t1) - equilibrium_gap(
        1.0, 1.0, 1.0, 1.0, t1
    )
    assert _root(g, 0.0, T, 1e-10) == pytest.approx(1.0401, abs=1e-3)


def test_bracketed_root_returns_exact_zeros_as_is():
    # a zero end value is returned without a call of g
    never = lambda x: pytest.fail("g evaluated")
    assert bracketed_root(never, 0.25, 1.0, 0.0, 0.75, 1e-12) == 0.25
    assert bracketed_root(never, 0.25, 1.0, -0.75, 0.0, 1e-12) == 1.0
    # the first step, the secant of the two ends, lands on the zero at 0.25
    calls = []

    def g(x):
        calls.append(x)
        return 2.0 * x - 0.5

    assert bracketed_root(g, 0.0, 1.0, -0.5, 1.5, 1e-12) == 0.25
    assert calls == [0.25]


def test_bracketed_root_evaluates_only_inside_the_bracket():
    calls = []

    def g(x):
        calls.append(x)
        return math.tanh(x - 0.3)

    bracketed_root(g, 0.0, 1.0, g(0.0), g(1.0), 1e-13)
    assert all(0.0 < x < 1.0 for x in calls[2:])


ROOT_CASES = [
    lambda x: math.tanh(x - 0.3),
    lambda x: (x - 0.7) ** 3,  # triple root: interpolation stalls, bisection takes over
    lambda x: math.exp(4.0 * x) - 3.0,
    lambda x: x - 1e-3 / (x + 1e-9),
    lambda x: -1.0 if x < 1.0 / 3.0 else 1.0,  # a step: no root, one sign change
    lambda x: x - 0.3 if x < 0.3 else 1e-3 * (x - 0.3),  # a kink at the root
]


@pytest.mark.parametrize("g", ROOT_CASES)
def test_bracketed_root_final_bracket_certifies_the_root(g):
    # the sign change lies within tol + 4*eps*|root| of the returned point:
    # the increasing g changes sign across that distance
    tol = 1e-13
    root = _root(g, 0.0, 1.0, tol)
    reach = tol + 4.0 * math.ulp(1.0) * abs(root)
    assert g(root) == 0.0 or g(root - reach) < 0.0 < g(root + reach)


@pytest.mark.parametrize("g", ROOT_CASES[1:2] + ROOT_CASES[4:])
def test_bracketed_root_ends_well_within_its_budget_on_hard_cases(g):
    # a triple root, a step and a kink at tol 1e-13: bisection alone takes 44
    # evaluations there, and the interpolation steps may add a few more
    calls = []

    def counted(x):
        calls.append(x)
        return g(x)

    _root(counted, 0.0, 1.0, 1e-13)
    assert len(calls) - 2 <= 64 < numerics.ROOT_MAX_EVALUATIONS


def test_bracketed_root_ends_below_float_spacing():
    # near 1e6 a 1e-12 bracket is narrower than the float spacing; the search
    # stops at a bracket of a few ulps instead
    r = 1e6 + 0.3
    with deadline(1.0):
        root = _root(lambda x: (x - r) ** 3, 1e6, 1e6 + 1.0, tol=1e-12)
    assert abs(root - r) <= 1e-12 + 4.0 * math.ulp(1.0) * r


def test_bracketed_root_errors():
    with pytest.raises(ValueError, match="sign change"):
        _root(lambda x: x + 2.0, 0.0, 1.0, 1e-10)
    with pytest.raises(ValueError, match="sign change"):
        _root(lambda x: 1e-200 * (x + 1.0), 0.0, 1.0, 1e-10)  # product underflows
    with pytest.raises(ValueError):
        _root(lambda x: x, 1.0, 0.0, 1e-10)
    with pytest.raises(ValueError):
        _root(lambda x: x, -1.0, 1.0, 0.0)


def test_bracketed_root_budget_raises_a_runtime_error(monkeypatch):
    monkeypatch.setattr(numerics, "ROOT_MAX_EVALUATIONS", 1)
    with pytest.raises(RootBudgetExceeded, match="within 1 evaluations") as info:
        _root(lambda x: math.tanh(x - 0.3), 0.0, 1.0, 1e-13)
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
    assert len(lattice_cwlms(params, (1.0, 1.0), step=2e-3)) == 1
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
    """grid_oracle_1, grid_oracle_2 and lattice_cwlms reproduce
    tests/golden/oracles.json bit for bit: argmin, minimum, refinement flag
    and lattice minima."""
    for name, records in _golden.load(_golden.ORACLE_PATH).items():
        for args, expected in records:
            assert _golden.solve(name, args) == expected, (name, args)


@pytest.mark.parametrize("block_cells", [1, 997])
def test_golden_oracles_do_not_depend_on_the_block_size(monkeypatch, block_cells):
    """With one row per block, every coordinatewise-minimum rim crosses a
    block boundary; an odd block size splits rows unevenly.  Both reproduce
    tests/golden/oracles.json."""
    monkeypatch.setattr(numerics, "_BLOCK_CELLS", block_cells)
    records = _golden.load(_golden.ORACLE_PATH)
    for name in ("grid_oracle_1", "grid_oracle_2"):
        for args, expected in records[name]:
            assert _golden.solve(name, args) == expected, (name, args, block_cells)


def _traced_peak(f, *args) -> int:
    tracemalloc.start()
    try:
        f(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


@pytest.mark.parametrize("oracle", [grid_oracle_2, lattice_cwlms])
def test_grid_oracle_2_memory_is_about_one_cost_matrix(oracle):
    # well below one m x m cost matrix, at any m: such a matrix would take
    # 8m^2 bytes (about 31 MiB at m = 2001 and 122 MiB at m = 4001), but the
    # triangle is filled (and scanned) in row blocks of about _BLOCK_CELLS
    # cells, and each block is dropped once searched
    for step in (2e-3, 1e-3):
        peak = _traced_peak(oracle, ModelParams(1.3, 4.0, 1.0), (1.0, 2.0), step)
        assert peak <= 8 * 2**20, step


@pytest.mark.parametrize("params, sensors, step, expected", [
    # the largest lattice of the benchmark's oracle pool
    ((1.0179193774900273, 3.9583694138909227, 1.1172010692074625),
     (1.250526723407277, 2.29926210583218), 2e-3,
     (("0x1.3522227b21c87p+0", "0x1.45c86d21119ebp+1"), "0x1.ac27bc1e771dcp+2", True)),
    # a flat cost: every lattice point is a coordinatewise minimum
    ((1.0, 2.0, 0.5), (math.inf, math.inf), 4e-3,
     (("0x1.374bc6a7ef9dbp-4", "0x1.ab020c49ba5e3p+0"), "0x1.7fffffffffffep+1", False)),
], ids=["pool-largest", "flat"])
def test_grid_oracle_2_runs_no_coordinatewise_scan(params, sensors, step, expected):
    """The coordinatewise scan lives in the test helper tests/_lattice.py, not
    in the package, and grid_oracle_2 gives the bits it gave when it ran that
    scan too."""
    for name in ("lattice_cwlms", "_block_nodes", "_merge_touching"):
        assert not hasattr(numerics, name), name
    assert "lattice_cwlms" not in numerics.__all__
    oracle = grid_oracle_2(ModelParams(*params), sensors, step)
    argmin, min_value, refined = expected
    assert tuple(x.hex() for x in oracle.argmin) == argmin
    assert oracle.min_value.hex() == min_value
    assert oracle.refined is refined


def test_grid_oracle_1_memory_is_about_the_lattice():
    # the lattice t is one array of 8n bytes; its costs are evaluated and
    # searched in blocks of _BLOCK_CELLS points
    n = 300_001
    peak = _traced_peak(grid_oracle_1, ModelParams(1.3, 3.0, 1.0), 1.0, 1e-5)
    assert peak <= 2.5 * 8 * n


@pytest.mark.parametrize("v0", [0.0, 0.7])
@pytest.mark.parametrize(
    "sensors", [(0.9, 1.3), (0.0, 1.3), (0.9, 0.0), (math.inf, 1.3), (0.9, math.inf),
                (math.inf, math.inf), (0.0, math.inf)]
)
def test_lattice_kernels_round_as_on_one_cells_floats(v0, sensors):
    """Both cost kernels, written in place on a block, give every cell the
    bits they give on that cell's Python floats, which is what the oracles'
    refinement compares lattice costs with.  The lattice starts at 0, so the
    pre-measurement variance v0 + sigma2*t1 is 0 on its first row at v0 = 0."""
    rng = np.random.default_rng(16)
    sigma2, T = 1.7, 2.3
    v1, v2 = sensors
    t = np.sort(rng.uniform(0.0, T, 160))
    t[0], t[-1] = 0.0, T
    rows, cols = t[:70, None], t[None, 70:]  # every cell has t1 <= t2
    block = kalman._cost_two(sigma2, T, v0, v1, v2, rows, cols)
    assert np.isfinite(block).all()
    for (i, j), cost in np.ndenumerate(block):
        cell = kalman._cost_two(sigma2, T, v0, v1, v2, float(t[i]), float(t[70 + j]))
        assert float(cost).hex() == cell.hex(), (i, j)
    line = kalman._cost_one(sigma2, T, v0, v1, t)
    for k, cost in enumerate(line):
        assert float(cost).hex() == kalman._cost_one(sigma2, T, v0, v1, float(t[k])).hex()
    # the scalar API runs the same kernels, so it prices each cell the same
    for (i, j), cost in np.ndenumerate(block):
        scalar = cost_pair(sigma2, T, v0, v1, v2, float(t[i]), float(t[70 + j]))
        assert scalar.hex() == float(cost).hex(), (i, j)
    for k, cost in enumerate(line):
        assert cost_single(sigma2, T, v0, v1, float(t[k])).hex() == float(cost).hex()


def test_oracle_minima_are_scalar_costs_at_their_argmin():
    """grid_oracle_1 and grid_oracle_2 report as their minimum the bits that
    cost_single and cost_pair give at their argmin, refined or not."""
    for params, sensors, step in [
        ((1.0179193774900273, 3.9583694138909227, 1.1172010692074625),
         (1.250526723407277, 2.29926210583218), 2e-3),
        ((1.0, 71.0 / 18.0, 1.0), (1.0, 1.0), 1e-2),
        ((0.3, 2.0, 0.0), (0.0, 0.7), 1e-2),
        ((1.0, 2.0, 0.5), (math.inf, math.inf), 4e-3),
        # refined minima that a scalar formula of its own rounds differently
        ((2.423508511283672, 1.8654069898952415, 0.5662719520571262),
         (3.9540912877605985, 0.24437172360771134), 0.03730813979790483),
        ((0.10743832658005177, 7.29603310919821, 0.28385050156148545),
         (0.33811675894728044, 1.4749370833215716), 0.1459206621839642),
    ]:
        sigma2, T, v0 = params
        two = grid_oracle_2(ModelParams(*params), sensors, step)
        assert two.min_value.hex() == cost_pair(sigma2, T, v0, *sensors, *two.argmin).hex()
        one = grid_oracle_1(ModelParams(*params), sensors[0], step)
        assert one.min_value.hex() == cost_single(sigma2, T, v0, sensors[0], *one.argmin).hex()


def test_block_nodes_compare_the_last_row_with_the_row_below():
    """A cell of a block's last row that beats its left, right and upper
    neighbors is no coordinatewise minimum when the row below, which the
    next block holds, beats it."""
    inf = math.inf
    # rows 1 and 2 of a 5 x 5 lattice from column 1 on; cell (2, 1) lies
    # below the diagonal
    block = np.array([[3.0, 2.0, 2.0, 3.0],
                      [inf, 2.0, 1.0, 2.0]])
    above = np.full(4, 3.0)  # row 0 from column 1 on
    nodes = {}
    rim = _block_nodes(1, block, above, np.array([0.5, 3.0]), nodes)
    assert (2, 3) not in nodes
    assert rim.tolist() == [1.0, 2.0]  # row 2 from column 3 on: the next block's above
    # with a row below that does not beat it, the same cell is a node
    nodes = {}
    _block_nodes(1, block, above, np.array([3.0, 3.0]), nodes)
    assert nodes[2, 3] == 1.0


def test_grid_oracles_leave_their_lattice_unchanged(monkeypatch):
    """The kernels overwrite their temporaries, never the lattice they read."""
    lattices = []

    def recorded(T, step):
        t = lattice(T, step)
        lattices.append((t, t.copy()))
        return t

    lattice = numerics._lattice
    monkeypatch.setattr(numerics, "_lattice", recorded)
    params = ModelParams(1.3, 1.7, 0.0)
    for sensors in [(0.9, 1.3), (0.0, 0.0), (math.inf, math.inf)]:
        grid_oracle_2(params, sensors, step=1e-2)
        grid_oracle_1(params, sensors[0], step=1e-3)
    assert len(lattices) == 6
    for t, before in lattices:
        assert np.array_equal(t, before)


def test_grid_oracles_reject_an_overflowing_lattice():
    # sigma2*t overflows, so the lattice costs are inf or NaN (v*inf/(v + inf))
    with pytest.raises(ValueError, match="lattice cost overflows"):
        grid_oracle_1(ModelParams(1e308, 3.0, 1.0), 1.0, step=1e-4)
    with pytest.raises(ValueError, match="lattice cost overflows"):
        grid_oracle_2(ModelParams(1e308, 3.0, 1.0), (1.0, 1.0), step=1e-2)
    with pytest.raises(ValueError, match="lattice cost overflows"):
        lattice_cwlms(ModelParams(1e308, 3.0, 1.0), (1.0, 1.0), step=1e-2)
    # finite costs near the top of the float range still give an answer
    assert math.isfinite(grid_oracle_2(ModelParams(1e300, 3.0, 1.0), (1.0, 1.0), 1e-2).min_value)


def test_grid_oracle_input_validation():
    with pytest.raises(ValueError):
        grid_oracle_1(ModelParams(1.0, 1.0, 1.0), 1.0, step=0.0)
    params = ModelParams(1.0, 1.0, 1.0)
    for two in (grid_oracle_2, lattice_cwlms):
        with pytest.raises(ValueError):
            two(params, (1.0, 1.0, 1.0), step=1e-3)
        with pytest.raises(ValueError):
            two(params, (1.0, 1.0), step=0.0)
        for sensors in [(-0.5, 1.0), (1.0, math.nan), (-1.0, -1.0)]:
            with pytest.raises(ValueError, match="must be >= 0"):
                two(params, sensors, step=1e-2)
    for sensor in [-0.5, math.nan]:
        with pytest.raises(ValueError, match="must be >= 0"):
            grid_oracle_1(params, sensor, step=1e-2)
    # inf is a sensor that carries no information, as in the golden records
    assert grid_oracle_2(params, (math.inf, 1.0), step=1e-2).min_value > 0
    assert grid_oracle_1(params, math.inf, step=1e-2).min_value > 0


def _fill_every_block(blocks, bounds, fill):
    """numerics._filled_minima without its skips: every block's first minimum."""
    return [fill(block) for block in blocks]


class _LatticeMin(Exception):
    """Carries an oracle's lattice minimum out before its refinement, which
    depends on nothing else."""


def _stop_at_lattice_min(minima, first_min=numerics._first_min):
    raise _LatticeMin(first_min(minima))


def _lattice_outcome(oracle, *args):
    """An oracle's lattice minimum (position and cost bits), or its error."""
    try:
        oracle(*args)
    except _LatticeMin as stop:
        position, cost = stop.args[0]
        return position, cost.hex()
    except ValueError as e:
        return "ValueError", str(e)


def _oracle_draws(n, seed):
    """Seeded oracle inputs (params, sensors, one-instant step, two-instant
    step): time and variance scales of 10^U(-3, 3), v0 = 0 in a quarter of
    them, zero and inf sensors, and steps of 2e-3, 4e-3 and 1e-5 horizons
    (2e-3 and 4e-3 for two instants).  Every fifth draw has sigma2 =
    10^U(296, 308), T = 10^U(-1, 6) and variances up to sigma2*T, and about
    half of those overflow.  Of the others, every tenth has T = 10^U(153,
    154.5), where T**2 overflows, and sigma2 = 10^U(-12, -8), and every tenth
    a subnormal sigma2 = 10^U(-323.5, -300) and T = 10^U(0, 12).  Three fixed
    draws of those kinds come first."""
    # T**2 overflows where the costs do not
    yield ModelParams(1e-10, 2.5e154, 0.0), [1e146, 1e146], 2.5e149, 5e151
    yield ModelParams(3.2e-9, 2.4e154, 0.0), [1.1e144, 1.9e143], 2.4e149, 4.8e151
    # subnormal costs, whose rounding a relative margin does not cover
    yield ModelParams(1e-321, 1e4, 0.0), [0.0, 0.0], 1e4 / 65536, 20.0
    rng = np.random.default_rng(seed)
    special = {0: ((296, 308), (-1, 6)), 1: ((-12, -8), (153, 154.5)),
               3: ((-323.5, -300), (0, 12))}
    for k in range(n):
        t_scale, v_scale = 10.0 ** rng.uniform(-3, 3, 2)
        sigma2 = v_scale / t_scale
        scales = special.get(k % 10 if k % 5 else 0)
        if scales:
            sigma2, t_scale = (10.0 ** rng.uniform(*scale) for scale in scales)
            v_scale = min(sigma2 * t_scale * 10.0 ** rng.uniform(-3, 0), 5e307)
        T = t_scale * rng.uniform(0.2, 4.0)
        v0 = 0.0 if k % 4 == 0 else v_scale * rng.uniform(0.0, 2.0)
        sensors = [0.0 if u < 0.1 else math.inf if u < 0.2 else v_scale * rng.uniform(0.0, 3.0)
                   for u in rng.uniform(size=2)]
        steps = T * (2e-3, 4e-3, 1e-5)[k % 3], T * (2e-3, 4e-3)[k % 2]
        yield ModelParams(sigma2, T, v0), sensors, *steps


def _lattice_outcomes(params, sensors, one_step, two_step, block_cells):
    if block_cells == 1:  # a block per lattice point or row: 50 steps per horizon
        one_step = two_step = 2e-2 * params.horizon
    return (_lattice_outcome(grid_oracle_1, params, sensors[0], one_step),
            _lattice_outcome(grid_oracle_2, params, sensors, two_step))


@pytest.fixture(scope="module")
def full_fill_outcomes():
    """The oracle draws, and their lattice outcomes when every block is filled,
    at the draws' steps (997 and 2**15 cells) and at 50 steps per horizon (1)."""
    draws = list(_oracle_draws(300, seed=27))
    with pytest.MonkeyPatch.context() as m:
        m.setattr(numerics, "_first_min", _stop_at_lattice_min)
        m.setattr(numerics, "_filled_minima", _fill_every_block)
        outcomes = {cells: [_lattice_outcomes(*draw, cells) for draw in draws]
                    for cells in (1, 997, 1 << 15)}
    return draws, outcomes


@pytest.mark.parametrize("block_cells", [1, 997, 1 << 15])
def test_pruned_oracles_equal_the_full_fill(monkeypatch, full_fill_outcomes, block_cells):
    """Both oracles, which skip the blocks their bounds rule out, find the
    lattice minimum (its position and bits) or the error of a fill of every
    block, on 300 seeded draws and three fixed ones each."""
    draws, outcomes = full_fill_outcomes
    full = outcomes[block_cells]
    assert sum(two[0] == "ValueError" for _, two in full) >= 30  # overflow is covered
    monkeypatch.setattr(numerics, "_first_min", _stop_at_lattice_min)
    monkeypatch.setattr(numerics, "_BLOCK_CELLS", block_cells)
    for draw, expected in zip(draws, full):
        assert _lattice_outcomes(*draw, block_cells) == expected, draw


def _scaled(*decades):
    """Floats of 10^U(lo, hi) for each (lo, hi)."""
    return st.one_of(*(st.floats(lo, hi).map(lambda x: 10.0**x) for lo, hi in decades))


# 2**±300, the ends of numerics._in_range, lie at 10^±90.3
_variance = st.one_of(st.just(0.0), st.just(math.inf), _scaled((-3, 3), (-95, -85), (85, 95)))


@settings(max_examples=300, deadline=None)
@given(sigma2=_scaled((-3, 3), (-95, -85), (85, 95), (296, 308), (-323.5, -300)),
       T=_scaled((-2, 2), (-95, -85), (85, 95), (150, 155)),
       v0=_variance.filter(math.isfinite), v1=_variance, v2=_variance,
       m=st.integers(2, 60), block_cells=st.integers(1, 9))
# T**2 overflows where the costs do not
@example(sigma2=1e-10, T=2.5e154, v0=0.0, v1=1e146, v2=1e146, m=60, block_cells=3)
# subnormal costs
@example(sigma2=1e-321, T=1e4, v0=0.0, v1=0.0, v2=0.0, m=60, block_cells=3)
# the ends of the range
@example(sigma2=2.0**300, T=2.0**300, v0=2.0**300, v1=2.0**300, v2=2.0**300, m=60, block_cells=3)
@example(sigma2=2.0**-300, T=2.0**-294, v0=2.0**-300, v1=2.0**-300, v2=2.0**-300, m=60,
         block_cells=3)
def test_lattice_costs_are_at_least_their_bounds(sigma2, T, v0, v1, v2, m, block_cells):
    """Every cost of a two-instant lattice row is at least the row's bound, and
    every cost of a one-instant block its block's, both shrunk for rounding.
    The bounds are finite, and the costs normal floats, where the inputs are
    in numerics._in_range; elsewhere every bound is -inf."""
    t = numerics._lattice(T, T / (m - 1))
    with np.errstate(all="ignore"):
        rows = np.array(numerics._two_bounds(sigma2, T, v0, v1, v2, t,
                                             [(i, i + 1) for i in range(m)]))
        J = kalman._cost_two(sigma2, T, v0, v1, v2, t[:, None], t[None, :])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(numerics, "_BLOCK_CELLS", block_cells)
            blocks = np.array(numerics._one_bounds(sigma2, T, v0, v1, t))
        line = kalman._cost_one(sigma2, T, v0, v1, t)
    i, j = np.triu_indices(m)  # the triangle t1 <= t2
    for costs, bounds, sensors in [(J[i, j], rows[i], (v1, v2)),
                                   (line, np.repeat(blocks, block_cells)[:m], (v1,))]:
        if numerics._in_range(sigma2, T, t[1], v0, *sensors):
            assert np.isfinite(bounds).all() and np.isfinite(costs).all()
            assert (costs >= np.finfo(float).tiny).all()
            assert (costs >= bounds * numerics._BOUND_SHRINK).all()
        else:
            assert (bounds == -math.inf).all()


def _array_calls(monkeypatch, kernel):
    """The shapes of the t1 arrays that numerics passes to a cost kernel."""
    shapes = []
    wrapped = getattr(numerics, kernel)
    t1 = {"_cost_one": 4, "_cost_two": 5}[kernel]

    def recorded(*args):
        if isinstance(args[t1], np.ndarray):
            shapes.append(args[t1].shape)
        return wrapped(*args)

    monkeypatch.setattr(numerics, kernel, recorded)
    return shapes


def test_oracles_fill_only_the_blocks_their_bounds_admit(monkeypatch):
    """The two-instant oracle fills 48 of its 65 row blocks here, and
    lattice_cwlms all 65; the one-instant oracle 6 of its 10 blocks.  A
    change that fills every block again, or prunes differently, changes these counts."""
    params = ModelParams(1.3, 4.0, 1.0)
    two = _array_calls(monkeypatch, "_cost_two")
    grid_oracle_2(params, (1.0, 2.0), 2e-3)
    assert sum(len(shape) == 2 for shape in two) == 48
    assert len(list(numerics._row_blocks(2001))) == 65
    two.clear()
    lattice_cwlms(params, (1.0, 2.0), 2e-3)
    assert sum(len(shape) == 2 for shape in two) == 65
    one = _array_calls(monkeypatch, "_cost_one")
    grid_oracle_1(ModelParams(1.3, 3.0, 1.0), 1.0, 1e-5)
    assert one == [(numerics._BLOCK_CELLS,)] * 6
