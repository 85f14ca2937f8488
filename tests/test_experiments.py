import math

import pytest

from bmsched import one_measure, two_measure
from bmsched.experiments import (
    GAIN2_DEFAULT_PANELS,
    SweepSpec,
    bounds_comparison,
    descent_statistics,
    gain_one_measure,
    gain_two_measures,
    instants_vs_T,
    run_sweep,
    windows_experiment,
)

SQRT2 = math.sqrt(2.0)


def test_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(kind="nope")
    with pytest.raises(ValueError):
        SweepSpec(kind="gain1", swept={"v0": (1.0, 1.0, 5)})
    with pytest.raises(ValueError):
        SweepSpec(kind="gain1", swept={"v0": (0.0, 1.0, 1)})


def test_gain_one_measure_small_grid():
    spec = SweepSpec(kind="gain1", swept={"v0": (0.0, 5.0, 21), "v1": (0.0, 5.0, 21)})
    result = gain_one_measure(spec)
    assert len(result.rows) == 21 * 21
    assert all(row[4] >= -1e-12 for row in result.rows)
    # best corner: terrible prior, perfect sensor, measure immediately
    assert result.summary["max_gain"] == pytest.approx(0.8181818, abs=2e-2)
    assert (result.summary["argmax_v0"], result.summary["argmax_v1"]) == (5.0, 0.0)
    # a cell whose optimum is exactly T/2 gains nothing
    v0 = 0.0
    v1 = 1.0
    T = one_measure.duration_from_instant(1.0, 0.5, v0, v1)
    j_reg = one_measure.cost_single(1.0, T, v0, v1, 0.5)
    j_opt = one_measure.optimal_instant_1(1.0, T, v0, v1).cost_at_opt
    assert j_reg == pytest.approx(j_opt, rel=1e-12)


def test_gain_two_measures_small_grid():
    spec = SweepSpec(kind="gain2", swept={"v1": (0.0, 5.0, 11), "v2": (0.0, 5.0, 11)})
    result = gain_two_measures(spec)
    assert len(result.rows) == len(GAIN2_DEFAULT_PANELS) * 11 * 11
    assert all(row[5] >= -1e-12 for row in result.rows)
    assert result.summary["max_gain"] == pytest.approx(0.8636364, abs=2e-2)
    # near-symmetric sensors with no prior information gain little
    sym = [row for row in result.rows if row[0] == 0.0 and row[1] == row[2] and row[1] > 0]
    assert sym and max(row[5] for row in sym) < 0.12


def test_gain_two_measures_single_panel():
    spec = SweepSpec(
        kind="gain2",
        fixed={"v0": 2.0},
        swept={"v1": (0.0, 5.0, 6), "v2": (0.0, 5.0, 6)},
    )
    result = gain_two_measures(spec)
    assert len(result.rows) == 36
    assert all(row[0] == 2.0 for row in result.rows)


def test_bounds_comparison():
    spec = SweepSpec(kind="bounds1", swept={"v0": (0.0, 2.0, 41)})
    result = bounds_comparison(spec)
    assert len(result.rows) == 41
    for v0, j0, jmid, jopt, lower in result.rows:
        assert lower < jopt
        assert jopt <= min(j0, jmid) + 1e-12
    assert result.summary["min_margin_over_bound"] > 0.0
    # at the boundary prior the immediate measurement is optimal
    j0 = one_measure.cost_single(1.0, 1.0, SQRT2, 1.0, 0.0)
    jopt = one_measure.optimal_instant_1(1.0, 1.0, SQRT2, 1.0).cost_at_opt
    assert j0 == pytest.approx(jopt, rel=1e-12)


def test_instants_vs_T():
    spec = SweepSpec(kind="instants_vs_T", swept={"T": (0.05, 5.0, 34)})
    result = instants_vs_T(spec)
    assert result.summary["T2_crit"] == pytest.approx(0.3, abs=1e-10)
    assert result.summary["T1_crit"] == pytest.approx(7.0 / 6.0, abs=1e-10)
    prev = (0.0, 0.0)
    for T, t1, t2 in result.rows:
        assert t1 >= prev[0] - 1e-9
        assert t2 >= prev[1] - 1e-9
        prev = (t1, t2)
    # spot values at the two critical horizons
    from bmsched.two_measure import optimize_two

    at_second = optimize_two(1.0, 0.3, 1.0, 1.0, 1.0)
    assert (at_second.t1_opt, at_second.t2_opt) == (0.0, 0.0)
    at_first = optimize_two(1.0, 7.0 / 6.0, 1.0, 1.0, 1.0)
    assert at_first.t1_opt == pytest.approx(0.0, abs=1e-8)
    assert at_first.t2_opt == pytest.approx(0.5, abs=1e-8)
    tail = optimize_two(1.0, 5.0, 1.0, 1.0, 1.0)
    assert tail.t1_opt > 0.0 and tail.t2_opt > tail.t1_opt


def test_descent_statistics_small():
    spec = SweepSpec(kind="descent_stats", fixed={"runs": 10}, seed=5)
    result = descent_statistics(spec)
    assert len(result.rows) == 10
    assert result.details is not None and len(result.details) == 10
    assert result.summary["max_iterations_to_threshold"] <= 10
    assert result.summary["max_final_gap"] < 1e-6
    assert result.summary["max_cost_increase"] <= 1e-11
    for trace in result.details:
        decs = [
            trace.iterations[k][2] - trace.iterations[k + 1][2]
            for k in range(len(trace.iterations) - 1)
        ]
        assert all(d >= -1e-11 for d in decs)


def test_windows_experiment():
    spec = SweepSpec(kind="windows", fixed={"T": 7.0 / 6.0, "v0": 0.5, "max_windows": 20})
    result = windows_experiment(spec)
    assert len(result.rows) == 20
    v_seq = [row[1] for row in result.rows]
    assert v_seq[0] == 0.5
    assert v_seq[1] == pytest.approx(7.0 / 6.0, abs=1e-12)
    assert v_seq[2] == pytest.approx(1.5415, abs=1e-3)
    assert result.summary["settled_at"] == 3
    # starting at the stationary point changes nothing
    v_star = result.summary["v0_stationary"]
    stat = windows_experiment(
        SweepSpec(kind="windows", fixed={"T": 7.0 / 6.0, "v0": v_star, "max_windows": 8})
    )
    starts = [row[1] for row in stat.rows]
    assert all(abs(v - v_star) < 1e-9 for v in starts)
    # any admissible start settles eventually
    for v0 in (0.0, 3.3, 10.0):
        res = windows_experiment(
            SweepSpec(kind="windows", fixed={"T": 7.0 / 6.0, "v0": v0, "max_windows": 60})
        )
        assert not math.isnan(res.summary["settled_at"])


def test_results_are_reproducible():
    for spec in (
        SweepSpec(kind="gain1", swept={"v0": (0.0, 5.0, 5), "v1": (0.0, 5.0, 5)}),
        SweepSpec(kind="descent_stats", fixed={"runs": 3}, seed=11),
        SweepSpec(kind="windows", fixed={"max_windows": 10}),
        SweepSpec(kind="bounds1", swept={"v0": (0.0, 2.0, 7)}),
    ):
        first = run_sweep(spec)
        second = run_sweep(spec)
        assert first.rows == second.rows
        assert first.summary == second.summary


SCALAR_SOLVERS = {
    one_measure: ("cost_single", "optimal_instant_1", "lower_bound"),
    two_measure: (
        "cost_pair",
        "optimize_two",
        "descend_two",
        "critical_duration_2_first",
        "critical_duration_2_second",
    ),
}


def test_sweeps_pass_python_floats_to_the_solvers(monkeypatch):
    """Swept values reach the scalar solvers as ``float``, not ``np.float64``
    (a subclass of float, on which their arithmetic runs about 1.7x slower)."""
    seen = set()

    def recording(fn, name):
        def record(*args, **kwargs):
            seen.update((name, type(a).__name__) for a in (*args, *kwargs.values()))
            return fn(*args, **kwargs)

        return record

    for module, names in SCALAR_SOLVERS.items():
        for name in names:
            monkeypatch.setattr(module, name, recording(getattr(module, name), name))
    for spec in (
        SweepSpec(kind="gain1", swept={"v0": (0.0, 5.0, 3), "v1": (0.0, 5.0, 3)}),
        SweepSpec(kind="gain2", swept={"v1": (0.0, 5.0, 3), "v2": (0.0, 5.0, 3)}),
        SweepSpec(kind="bounds1", swept={"v0": (0.0, 2.0, 3)}),
        SweepSpec(kind="instants_vs_T", swept={"T": (0.05, 5.0, 4)}),
        SweepSpec(kind="descent_stats", fixed={"runs": 2}, seed=3),
    ):
        run_sweep(spec)
    called = {name for name, _ in seen}
    assert called == {name for names in SCALAR_SOLVERS.values() for name in names}
    assert {type_name for _, type_name in seen} == {"float"}, sorted(seen)
