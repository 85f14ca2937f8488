import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _props import (
    check_one_measure_derivative,
    check_one_measure_shape_properties,
    check_scaling_equivariance,
)
from bmsched import numerics, one_measure
from bmsched.kalman import ModelParams, Schedule, SensorSet, variance_profile
from bmsched.one_measure import (
    Regime,
    cost_derivative,
    cost_single,
    critical_duration_1,
    duration_from_instant,
    iterate_windows,
    lower_bound,
    optimal_instant_1,
    upper_bound,
    window_map,
    window_v0_crit,
    window_v0_stationary,
)

SQRT2 = math.sqrt(2.0)


def test_critical_duration_examples():
    # the unit horizon is critical exactly at v0 = sqrt(2)
    assert critical_duration_1(1.0, SQRT2, 1.0) == pytest.approx(1.0, rel=1e-14)
    assert critical_duration_1(1.0, 0.0, 1.7) == 0.0
    assert critical_duration_1(1.0, 0.5, 1.0) == pytest.approx(0.3, rel=1e-14)
    # limit sensors
    assert critical_duration_1(2.0, 3.0, math.inf) == pytest.approx(0.75, rel=1e-14)
    assert critical_duration_1(1.0, 3.0, 0.0) == pytest.approx(3.0, rel=1e-14)
    with pytest.raises(ValueError):
        critical_duration_1(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        critical_duration_1(1.0, -1.0, 1.0)


def test_critical_duration_against_slope_sign_change():
    # independent route: bisect the horizon at which the slope at 0 changes sign
    for v0, v1 in [(0.5, 1.0), (2.0, 0.7), (1.3, 3.1)]:
        lo, hi = 1e-9, 50.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if cost_derivative(1.0, mid, v0, v1, 0.0) > 0:
                lo = mid
            else:
                hi = mid
        assert critical_duration_1(1.0, v0, v1) == pytest.approx(0.5 * (lo + hi), abs=1e-9)


def test_optimal_instant_examples():
    sol = optimal_instant_1(1.0, 1.0, SQRT2, 1.0)
    assert sol.t_opt == 0.0
    assert sol.regime is Regime.BOUNDARY

    sol = optimal_instant_1(1.0, 7.0 / 6.0, 0.5, 1.0)
    assert sol.t_opt == pytest.approx(0.5, abs=1e-12)
    assert sol.regime is Regime.REGIME2

    # frozen from a 1e-6-step grid search with golden refinement
    sol = optimal_instant_1(1.0, 1.0, 0.0, 1.0)
    assert sol.t_opt == pytest.approx(0.6180339887498949, abs=1e-6)

    assert optimal_instant_1(1.0, 0.2, 2.0, 1.0).regime is Regime.REGIME1


@pytest.mark.parametrize(
    "args",
    [
        # horizons so short that v0 + v1 is about 1e16 sigma2*T, where the
        # numerator sqrt(disc) - b of the closed form cancels
        (0.02270379470214179, 1.1952541310982844e-14, 0.0, 8.243413924809195),
        (24.15366429762885, 9.847880040046877e-18, 0.0, 1.1070755342900154),
        (0.08764500068280252, 8.199630497495901e-15, 0.0, 8.756076974741031),
    ],
)
def test_optimal_instant_at_tiny_horizons_matches_50_digits(args):
    with mpmath.workdps(50):
        s, T, v0, v1 = (mpmath.mpf(x) for x in args)
        # the slope's increasing factor times v0 + s*t + v1, a quadratic in t
        a = 2 * s * s
        b = s * (3 * (v0 + v1) - s * T)
        c = v0 * (v0 + v1) - s * T * (v0 + 2 * v1)
        exact = float((-b + mpmath.sqrt(b * b - 4 * a * c)) / (2 * a))
    sol = optimal_instant_1(*args)
    assert sol.regime is Regime.REGIME2
    assert abs(sol.t_opt - exact) <= 1e-13 * args[1]


@pytest.mark.parametrize(
    "args",
    [
        (1.0, 0.2, 2.0, 1.0),  # regime 1
        (1.0, 1.0, SQRT2, 1.0),  # on the critical duration
        (1.0, 7.0 / 6.0, 0.5, 1.0),  # regime 2
        (1.0, 1.0, 0.0, 1.0),  # no prior variance: critical duration 0
        (2.0, 3.0, 1.0, math.inf),  # a useless sensor
        (1.0, 3.0, 1.0, 0.0),  # an exact sensor
    ],
)
def test_optimal_instant_evaluates_the_critical_duration_once(monkeypatch, args):
    calls = [0]
    critical = one_measure._critical_duration_1

    def counting(*a):
        calls[0] += 1
        return critical(*a)

    monkeypatch.setattr(one_measure, "_critical_duration_1", counting)
    sol = optimal_instant_1(*args)
    monkeypatch.undo()
    assert calls[0] == 1
    sigma2, T, v0, v1 = args
    t_crit = critical(sigma2, v0, v1)
    assert sol.critical_duration.hex() == t_crit.hex()
    assert sol.t_opt.hex() == one_measure._optimal_instant(sigma2, T, v0, v1).hex()
    expected = Regime.REGIME1 if T < t_crit else Regime.BOUNDARY if T == t_crit else Regime.REGIME2
    assert sol.regime is expected


_scale = st.floats(min_value=1e-50, max_value=1e50)
_prior_variance = st.one_of(st.just(0.0), st.floats(min_value=1e-100, max_value=1e100))


@settings(max_examples=500, deadline=None)
@given(
    sigma2=_scale,
    T=_scale,
    v0=_prior_variance,
    v1=st.one_of(_prior_variance, st.just(math.inf)),
    stretch=st.floats(min_value=0.5, max_value=2.0),
)
# one ulp past these critical durations the stationary point rounds below 0
@example(sigma2=0.2, T=1.0, v0=1.861, v1=5.446, stretch=1.0)
@example(sigma2=5.754, T=1.0, v0=9.415, v1=0.739, stretch=1.0)
def test_optimal_instant_is_positive_zero_up_to_the_critical_duration(
    sigma2, T, v0, v1, stretch
):
    # besides T, horizons near the critical duration: stretched, and up to 3
    # ulps off it, where the stationary point rounds to either sign of 0
    t_crit = one_measure._critical_duration_1(sigma2, v0, v1)
    horizons = [T]
    if t_crit > 0.0:
        horizons.append(stretch * t_crit)
        below = above = t_crit
        for _ in range(3):
            below, above = math.nextafter(below, 0.0), math.nextafter(above, math.inf)
            horizons += [below, above]
    for T in horizons:
        t = one_measure._optimal_instant(sigma2, T, v0, v1)
        if T <= t_crit:
            assert t.hex() == (0.0).hex(), T
        else:
            assert 0.0 <= t <= T, T
        assert math.copysign(1.0, t) == 1.0, T  # never -0.0


def test_duration_from_instant_examples():
    assert duration_from_instant(1.0, 0.5, 0.5, 1.0) == pytest.approx(7.0 / 6.0, rel=1e-14)
    for v0, v1 in [(0.5, 1.0), (2.0, 0.3), (0.0, 1.0)]:
        assert duration_from_instant(1.0, 0.0, v0, v1) == pytest.approx(
            critical_duration_1(1.0, v0, v1), rel=1e-13, abs=1e-15
        )


def test_duration_from_instant_inverts_optimal_instant():
    rng = np.random.default_rng(8)
    for _ in range(300):
        sigma2 = float(rng.uniform(0.3, 3.0))
        v0 = float(rng.uniform(0.0, 4.0))
        v1 = float(rng.uniform(0.0, 4.0))
        t1 = float(rng.uniform(1e-3, 5.0))
        T = duration_from_instant(sigma2, t1, v0, v1)
        back = optimal_instant_1(sigma2, T, v0, v1)
        assert abs(back.t_opt - t1) < 1e-10


def test_bounds_examples():
    assert lower_bound(1.0, 1.0, 1.0, 1.0) == pytest.approx(math.sqrt(0.5), rel=1e-14)
    assert lower_bound(1.0, 1.0, 0.0, 2.0) == 0.0
    assert upper_bound(1.0, 1.0, 0.5) == 1.0
    assert upper_bound(2.0, 1.0, 0.0) == 1.0


def test_bounds_bracket_every_schedule():
    rng = np.random.default_rng(9)
    for _ in range(100):
        sigma2 = float(rng.uniform(0.3, 3.0))
        T = float(rng.uniform(0.2, 4.0))
        v0 = float(rng.uniform(0.0, 4.0))
        v1 = float(rng.uniform(0.0, 4.0))
        lower = lower_bound(sigma2, T, v0, v1)
        upper = upper_bound(sigma2, T, v0)
        for t1 in rng.uniform(0.0, T, size=10):
            value = cost_single(sigma2, T, v0, v1, float(t1))
            assert lower < value
            assert value <= upper * (1.0 + 1e-12)
        # the upper bound is attained exactly at t1 = T and only there
        assert cost_single(sigma2, T, v0, v1, T) == upper
        sol = optimal_instant_1(sigma2, T, v0, v1)
        assert lower < sol.cost_at_opt


def test_window_v0_crit_examples():
    # frozen from bisection on v0 for the sign change of the optimal instant
    assert window_v0_crit(1.0, 7.0 / 6.0, 1.0) == pytest.approx(1.6131299792238183, abs=1e-9)
    assert window_v0_crit(1.0, 2.3, 0.0) == pytest.approx(2.3, rel=1e-14)
    for T, v1 in [(7.0 / 6.0, 1.0), (0.7, 2.0), (3.0, 0.4)]:
        v0c = window_v0_crit(1.0, T, v1)
        assert critical_duration_1(1.0, v0c, v1) == pytest.approx(T, abs=1e-10)


def test_window_v0_crit_against_instant_sign_change():
    for T, v1 in [(7.0 / 6.0, 1.0), (2.0, 0.5)]:
        lo, hi = 0.0, 100.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if optimal_instant_1(1.0, T, mid, v1).t_opt > 0:
                lo = mid
            else:
                hi = mid
        assert window_v0_crit(1.0, T, v1) == pytest.approx(0.5 * (lo + hi), abs=1e-9)


def test_window_v0_stationary_examples():
    v_star = window_v0_stationary(1.0, 7.0 / 6.0, 1.0)
    assert v_star == pytest.approx(1.8109099885546862, abs=1e-9)
    assert window_v0_stationary(1.0, 1.7, 0.0) == pytest.approx(1.7, rel=1e-14)
    for T, v1 in [(7.0 / 6.0, 1.0), (0.9, 2.2)]:
        v_star = window_v0_stationary(1.0, T, v1)
        assert abs(window_map(1.0, T, v1, v_star) - v_star) < 1e-10
        assert v_star > window_v0_crit(1.0, T, v1)


def test_window_map_examples():
    T = 7.0 / 6.0
    assert window_map(1.0, T, 1.0, 0.5) == pytest.approx(T, abs=1e-12)
    assert window_map(1.0, T, 1.0, T) == pytest.approx(1.5415, abs=1e-3)
    v_star = window_v0_stationary(1.0, T, 1.0)
    assert window_map(1.0, T, 1.0, v_star) == pytest.approx(v_star, abs=1e-10)
    # both branch expressions agree at the threshold
    v0c = window_v0_crit(1.0, T, 1.0)
    homographic = ((1.0 + T) * v0c + T) / (v0c + 1.0)
    assert window_map(1.0, T, 1.0, v0c) == pytest.approx(homographic, rel=1e-12)


def test_iterate_windows_settles():
    it = iterate_windows(1.0, 7.0 / 6.0, 1.0, 0.5, 6)
    assert it.relative_instants[0] == pytest.approx(0.5, abs=1e-12)
    assert it.relative_instants[1] == pytest.approx(0.2033, abs=1e-3)
    assert it.settled_at == 3
    assert all(t == 0.0 for t in it.relative_instants[3:])
    assert it.v0_sequence[0] == 0.5
    assert it.v0_sequence[1] == pytest.approx(7.0 / 6.0, abs=1e-12)

    # starting above the threshold settles immediately
    it2 = iterate_windows(1.0, 7.0 / 6.0, 1.0, 2.0, 3)
    assert it2.settled_at == 0
    assert all(t == 0.0 for t in it2.relative_instants)


def test_iterate_windows_converges_to_stationary_point():
    rng = np.random.default_rng(10)
    for _ in range(50):
        T = float(rng.uniform(0.3, 3.0))
        v1 = float(rng.uniform(0.0, 3.0))
        v0 = float(rng.uniform(0.0, 10.0))
        it = iterate_windows(1.0, T, v1, v0, 60)
        assert it.settled_at is not None
        v_star = window_v0_stationary(1.0, T, v1)
        assert abs(it.v0_sequence[-1] - v_star) < 1e-8
        # once above the threshold, the sequence stays above it
        v0c = window_v0_crit(1.0, T, v1)
        crossed = False
        for v, t in zip(it.v0_sequence, it.relative_instants):
            if crossed:
                assert t == 0.0
            if v >= v0c:
                crossed = True


def test_end_of_horizon_variance_is_maximal():
    # with the measurement at its optimum the variance peaks at the horizon
    rng = np.random.default_rng(12)
    for _ in range(100):
        sigma2 = float(rng.uniform(0.3, 3.0))
        v0 = float(rng.uniform(0.0, 4.0))
        v1 = float(rng.uniform(0.0, 4.0))
        t_crit = critical_duration_1(sigma2, v0, v1)
        T = t_crit + float(rng.uniform(0.0, 4.0)) + 1e-9
        sol = optimal_instant_1(sigma2, T, v0, v1)
        prof = variance_profile(
            ModelParams(sigma2, T, v0), SensorSet([v1]), Schedule([sol.t_opt])
        )
        samples = [prof.value(float(t)) for t in np.linspace(0.0, T, 200)]
        assert prof.value(T) >= max(samples) - 1e-12


def test_variance_at_critical_horizon_dominates_prior():
    for v0, v1 in [(1.0, 1.0), (2.0, 0.5), (1.5, 0.0)]:
        T = critical_duration_1(1.0, v0, v1)
        prof = variance_profile(ModelParams(1.0, T, v0), SensorSet([v1]), Schedule([0.0]))
        if v1 == 0.0:
            assert prof.value(T) == pytest.approx(v0, rel=1e-14)
        else:
            assert prof.value(T) > v0


def test_oracle_agreement_small():
    rng = np.random.default_rng(14)
    for _ in range(25):
        sigma2 = float(rng.uniform(0.5, 2.0))
        T = float(rng.uniform(0.2, 3.0))
        v0 = float(rng.uniform(0.0, 3.0))
        v1 = float(rng.uniform(0.05, 3.0))
        oracle = numerics.grid_oracle_1(ModelParams(sigma2, T, v0), v1, step=1e-5)
        sol = optimal_instant_1(sigma2, T, v0, v1)
        assert abs(sol.t_opt - oracle.argmin[0]) < 1e-4


def test_shape_properties():
    check_one_measure_shape_properties(60)


def test_scaling_equivariance():
    check_scaling_equivariance(60)


def test_derivative_matches_finite_difference():
    check_one_measure_derivative(200)


def test_domain_errors():
    with pytest.raises(ValueError):
        optimal_instant_1(1.0, -1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        optimal_instant_1(1.0, 1.0, -0.5, 1.0)
    with pytest.raises(ValueError):
        cost_single(1.0, 1.0, 1.0, 1.0, 1.5)
    with pytest.raises(ValueError):
        duration_from_instant(1.0, -0.1, 1.0, 1.0)
    with pytest.raises(ValueError):
        iterate_windows(1.0, 1.0, 1.0, 1.0, 0)
