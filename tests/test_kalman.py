import copy
import dataclasses
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmsched.kalman import (
    CostBreakdown,
    ModelParams,
    Schedule,
    SensorSet,
    cost,
    equivalent_sensor_variance,
    parallel_sum,
    posterior_variance_sequence,
    variance_profile,
)
from bmsched.one_measure import OneMeasureSolution, Regime
from bmsched.two_measure import TwoMeasureRegime, TwoMeasureSolution

positive = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False)


def test_parallel_sum_examples():
    assert parallel_sum(1.0, 1.0) == 0.5
    assert parallel_sum(0.7, math.inf) == 0.7
    assert parallel_sum(0.5, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-15)


def test_parallel_sum_zero_and_errors():
    assert parallel_sum(0.0, 3.0) == 0.0
    assert parallel_sum(0.0, math.inf) == 0.0
    with pytest.raises(ValueError):
        parallel_sum(-1.0, 1.0)
    with pytest.raises(ValueError):
        parallel_sum(math.inf, math.inf)


@given(positive, positive)
def test_parallel_sum_commutative(a, b):
    assert parallel_sum(a, b) == parallel_sum(b, a)


@given(positive, positive)
def test_parallel_sum_below_min(a, b):
    assert parallel_sum(a, b) <= min(a, b) * (1.0 + 1e-15)


@given(positive, positive, positive)
def test_parallel_sum_associative(a, b, c):
    left = parallel_sum(parallel_sum(a, b), c)
    right = parallel_sum(a, parallel_sum(b, c))
    assert math.isclose(left, right, rel_tol=1e-15)


def test_equivalent_sensor_variance():
    assert equivalent_sensor_variance([1.0, 1.0]) == 0.5
    assert equivalent_sensor_variance([2.0, 2.0, 2.0]) == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert equivalent_sensor_variance([0.5, math.inf]) == 0.5
    with pytest.raises(ValueError):
        equivalent_sensor_variance([])


def test_posterior_sequence_examples():
    params = ModelParams(1.0, 1.0, 0.5)
    assert posterior_variance_sequence(params, SensorSet([1.0]), Schedule([0.0])) == [
        pytest.approx(1.0 / 3.0, rel=1e-15)
    ]
    # three equal sensors, near-uniform schedule: the drop levels repeat
    posts = posterior_variance_sequence(
        params, SensorSet([1.0, 1.0, 1.0]), Schedule([0.128, 0.369, 0.611])
    )
    for p in posts:
        assert p == pytest.approx(0.3856, abs=1e-3)
    # a no-information sensor leaves the variance untouched
    params2 = ModelParams(1.0, 1.0, 2.0)
    assert posterior_variance_sequence(
        params2, SensorSet([math.inf]), Schedule([0.5])
    ) == [2.5]


def test_posterior_sequence_validation():
    params = ModelParams(1.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        posterior_variance_sequence(params, SensorSet([1.0, 1.0]), Schedule([0.5]))
    with pytest.raises(ValueError):
        posterior_variance_sequence(params, SensorSet([1.0]), Schedule([1.5]))
    with pytest.raises(ValueError):
        Schedule([0.5, 0.2])
    with pytest.raises(ValueError):
        SensorSet([-0.1])
    with pytest.raises(ValueError):
        ModelParams(0.0, 1.0, 1.0)


@pytest.mark.parametrize(
    "variances, shown",
    [([1.0, math.nan], "nan"), ([-0.1], "-0.1"), ([0.5, -math.inf], "-inf")],
)
def test_sensor_set_rejects_negative_and_nan(variances, shown):
    message = f"sensor variances must be >= 0 (or inf), got {shown}"
    with pytest.raises(ValueError, match=re.escape(message)):
        SensorSet(variances)


@pytest.mark.parametrize(
    "instants", [[0.5, 0.2], [math.nan], [0.1, math.nan, 0.3], [-0.1]]
)
def test_schedule_rejects_decreasing_negative_and_nan(instants):
    message = f"instants must be nondecreasing and >= 0, got {tuple(instants)}"
    with pytest.raises(ValueError, match=re.escape(message)):
        Schedule(instants)


@pytest.mark.parametrize(
    "make", [list, tuple, np.array, lambda xs: (x for x in xs)],
    ids=["list", "tuple", "ndarray", "generator"],
)
def test_constructors_store_tuples_of_python_floats(make):
    sensors = SensorSet(make([0.0, 1, math.inf, 2.5]))
    sched = Schedule(make([0, 0.0, 0.5, 0.5, 1]))
    assert sensors.variances == (0.0, 1.0, math.inf, 2.5)
    assert sched.instants == (0.0, 0.0, 0.5, 0.5, 1.0)
    for stored in (sensors.variances, sched.instants):
        assert type(stored) is tuple
        assert all(type(x) is float for x in stored)


def test_profile_matches_figure_geometry():
    # drop levels and breakpoints of the equal-sensor profile
    params = ModelParams(1.0, 1.0, 0.5)
    prof = variance_profile(
        params, SensorSet([1.0, 1.0, 1.0]), Schedule([0.127483, 0.369409, 0.611335])
    )
    assert len(prof.segments) == 4
    starts = [seg.start_time for seg in prof.segments]
    assert starts == [0.0, 0.127483, 0.369409, 0.611335]
    assert prof.value(0.0) == 0.5
    assert prof.post_measure_variances[0] == pytest.approx(0.385554, abs=1e-5)
    assert prof.post_measure_variances[2] == pytest.approx(0.385553, abs=1e-5)
    for t_k, post in zip((0.127483, 0.369409, 0.611335), prof.post_measure_variances):
        assert prof.value(t_k) == post


def test_profile_edge_schedules():
    params = ModelParams(1.0, 1.0, 0.5)
    # measuring only at the horizon leaves a single untouched segment
    prof = variance_profile(params, SensorSet([1.0]), Schedule([1.0]))
    assert len(prof.segments) == 1
    assert prof.value(1.0) == 0.5 + 1.0
    # coincident measurements at 0 fuse into the equivalent sensor
    prof2 = variance_profile(params, SensorSet([1.0, 1.0]), Schedule([0.0, 0.0]))
    merged = equivalent_sensor_variance([0.5, 1.0, 1.0])
    assert prof2.value(0.0) == pytest.approx(merged, rel=1e-15)
    assert len(prof2.segments) == 1


def test_cost_examples():
    params = ModelParams(1.0, 1.0, 0.5)
    breakdown = cost(params, SensorSet([1.0]), Schedule([0.0]))
    assert breakdown.total == pytest.approx(5.0 / 6.0, rel=1e-14)
    assert breakdown.triangular == pytest.approx(0.5, rel=1e-14)
    assert breakdown.rectangular == pytest.approx(1.0 / 3.0, rel=1e-14)
    # measuring at the horizon gives the no-information cost
    for v0 in (0.0, 0.7, 2.0):
        p = ModelParams(1.0, 1.0, v0)
        assert cost(p, SensorSet([1.3]), Schedule([1.0])).total == pytest.approx(
            v0 * 1.0 + 0.5, rel=1e-14
        )


def test_cost_matches_grid_oracle_minimum():
    # the tabulated two-measure optimum must sit at the brute-force minimum
    from bmsched.numerics import grid_oracle_2

    params = ModelParams(1.0, 71.0 / 18.0, 1.0)
    value = cost(params, SensorSet([1.0, 1.0]), Schedule([1.0401, 2.4092])).total
    oracle = grid_oracle_2(params, (1.0, 1.0), step=1e-3)
    assert value == pytest.approx(oracle.min_value, abs=1e-6)


def _random_case(rng, n):
    params = ModelParams(
        float(rng.uniform(0.2, 3.0)),
        float(rng.uniform(0.3, 4.0)),
        float(rng.uniform(0.0, 3.0)),
    )
    instants = np.sort(rng.uniform(0.0, params.horizon, size=n))
    sensors = rng.uniform(0.01, 5.0, size=n)
    return params, SensorSet(sensors), Schedule(instants)


def _segment_sum(params, sensors, sched):
    # the integral as the sum over variance_profile's segments, in time order
    tri = 0.0
    rect = 0.0
    for seg in variance_profile(params, sensors, sched).segments:
        dt = seg.end_time - seg.start_time
        tri += 0.5 * params.sigma2 * dt * dt
        rect += seg.start_variance * dt
    return CostBreakdown(total=tri + rect, triangular=tri, rectangular=rect)


def _scaled_edge_case(rng, n):
    # time and variance scales at 10^U(-8, 8); some instants moved to 0, to
    # the horizon or onto their neighbour, some sensors made 0 or inf
    tau = 10.0 ** rng.uniform(-8.0, 8.0)
    scale = 10.0 ** rng.uniform(-8.0, 8.0)
    horizon = tau * float(rng.uniform(0.3, 4.0))
    params = ModelParams(
        scale / tau * float(rng.uniform(0.2, 3.0)),
        horizon,
        scale * float(rng.choice([0.0, rng.uniform(0.0, 3.0)])),
    )
    instants = sorted(float(t) for t in rng.uniform(0.0, horizon, size=n))
    for k in range(n):
        roll = rng.uniform()
        if roll < 0.1:
            instants[k] = 0.0
        elif roll < 0.2:
            instants[k] = horizon
        elif roll < 0.35 and k > 0:
            instants[k] = instants[k - 1]
    variances = [scale * float(v) for v in rng.uniform(0.01, 5.0, size=n)]
    for k in range(n):
        roll = rng.uniform()
        if roll < 0.1:
            variances[k] = 0.0
        elif roll < 0.2:
            variances[k] = math.inf
    return params, SensorSet(variances), Schedule(sorted(instants))


def _bits(breakdown):
    return tuple(
        float.hex(x)
        for x in (breakdown.total, breakdown.triangular, breakdown.rectangular)
    )


def _seeded_schedules():
    # 340 schedules at scales 10^U(-8, 8) with edge cases, plus four fixed ones
    rng = np.random.default_rng(17)
    cases = [
        (ModelParams(1.0, 1.0, 0.5), SensorSet([]), Schedule([])),
        (ModelParams(1e-8, 1e8, 0.0), SensorSet([]), Schedule([])),
        (ModelParams(1.0, 1.0, 0.5), SensorSet([1.0, 0.0]), Schedule([0.0, 1.0])),
        (
            ModelParams(1.3, 2.0, 0.7),
            SensorSet([math.inf, 1.0, 0.0, math.inf]),
            Schedule([0.0, 0.5, 0.5, 2.0]),
        ),
    ]
    for n in range(17):
        cases += [_scaled_edge_case(rng, n) for _ in range(20)]
    return cases


def test_cost_rounds_as_the_profile_segment_sum():
    for params, sensors, sched in _seeded_schedules():
        assert _bits(cost(params, sensors, sched)) == _bits(
            _segment_sum(params, sensors, sched)
        ), (params, sensors, sched)


def _two_pass_profile(params, sensors, sched):
    # the posteriors in one walk, then the segments from them in a second
    posts = []
    var, prev_t = params.prior_variance, 0.0
    for t, v in zip(sched.instants, sensors.variances):
        var = parallel_sum(v, var + params.sigma2 * (t - prev_t))
        posts.append(var)
        prev_t = t
    segments = []
    start_t, start_v = 0.0, params.prior_variance
    for t, post in zip(sched.instants, posts):
        if t > start_t:
            segments.append((start_t, t, start_v))
        start_t, start_v = t, post
    if params.horizon > start_t:
        segments.append((start_t, params.horizon, start_v))
    return segments, posts


def test_profile_walk_rounds_as_the_two_pass_construction():
    hexes = lambda xs: [float.hex(x) for x in xs]
    for params, sensors, sched in _seeded_schedules():
        segments, posts = _two_pass_profile(params, sensors, sched)
        prof = variance_profile(params, sensors, sched)
        assert [hexes(seg) for seg in prof.segments] == [
            hexes(seg) for seg in segments
        ], (params, sensors, sched)
        assert hexes(prof.post_measure_variances) == hexes(posts)
        seq = posterior_variance_sequence(params, sensors, sched)
        assert hexes(seq) == hexes(posts)


def test_cost_raises_when_the_total_overflows():
    params = ModelParams(1e308, 3.0, 1.0)
    with pytest.raises(ValueError, match="overflows"):
        cost(params, SensorSet([1.0]), Schedule([1.0]))
    # the largest finite totals still come back
    params = ModelParams(1e307, 3.0, 1.0)
    assert math.isfinite(cost(params, SensorSet([]), Schedule([])).total)


def test_closed_form_cost_equals_profile_integral():
    rng = np.random.default_rng(3)
    for _ in range(250):
        for n in (1, 2, 3, 5):
            params, sensors, sched = _random_case(rng, n)
            breakdown = cost(params, sensors, sched)
            prof = variance_profile(params, sensors, sched)
            integral = 0.0
            for seg in prof.segments:
                dt = seg.end_time - seg.start_time
                integral += 0.5 * (prof.value(seg.start_time) + (
                    seg.start_variance + params.sigma2 * dt
                )) * dt
            assert breakdown.total == pytest.approx(integral, rel=1e-12)
            assert breakdown.total == pytest.approx(
                breakdown.triangular + breakdown.rectangular, rel=1e-12
            )
            assert breakdown.triangular >= 0 and breakdown.rectangular >= 0


def test_extra_measurement_never_hurts():
    rng = np.random.default_rng(4)
    for _ in range(200):
        n = int(rng.integers(1, 4))
        params, sensors, sched = _random_case(rng, n)
        base = cost(params, sensors, sched).total
        t_new = float(rng.uniform(0.0, params.horizon))
        v_new = float(rng.uniform(0.01, 5.0))
        instants = sorted(sched.instants + (t_new,))
        k = instants.index(t_new)
        variances = list(sensors.variances)
        variances.insert(k, v_new)
        extended = cost(params, SensorSet(variances), Schedule(instants)).total
        assert extended <= base * (1.0 + 1e-12)


def test_simultaneous_measurements_merge():
    rng = np.random.default_rng(5)
    for _ in range(200):
        params, _, _ = _random_case(rng, 1)
        t = float(rng.uniform(0.0, params.horizon))
        v1, v2 = rng.uniform(0.01, 5.0, size=2)
        both = cost(params, SensorSet([v1, v2]), Schedule([t, t])).total
        merged = cost(
            params, SensorSet([parallel_sum(v1, v2)]), Schedule([t])
        ).total
        assert math.isclose(both, merged, rel_tol=1e-13)


def test_cost_degrades_with_worse_information():
    rng = np.random.default_rng(6)
    for _ in range(200):
        n = int(rng.integers(1, 4))
        params, sensors, sched = _random_case(rng, n)
        base = cost(params, sensors, sched).total
        worse_prior = ModelParams(
            params.sigma2, params.horizon, params.prior_variance + rng.uniform(0.1, 2.0)
        )
        assert cost(worse_prior, sensors, sched).total >= base - 1e-12
        k = int(rng.integers(0, n))
        variances = list(sensors.variances)
        variances[k] += float(rng.uniform(0.1, 2.0))
        assert cost(params, SensorSet(variances), sched).total >= base - 1e-12


def test_cost_breakdown_type():
    assert CostBreakdown(1.0, 0.4, 0.6).total == 1.0


# Each case: the record, its fields by position (a trailing default left out),
# the same by keyword, its repr, a valid change for dataclasses.replace, and an
# invalid one with the message the record's own check raises (None: no check).
RECORD_CASES = {
    "ModelParams": (
        ModelParams, (1.0, 3.0, 0.5),
        dict(sigma2=1.0, horizon=3.0, prior_variance=0.5),
        "ModelParams(sigma2=1.0, horizon=3.0, prior_variance=0.5)",
        dict(horizon=2.0),
        (dict(sigma2=0.0), "sigma2 must be positive and finite, got 0.0"),
    ),
    "CostBreakdown": (
        CostBreakdown, (1.0, 0.25, 0.75),
        dict(total=1.0, triangular=0.25, rectangular=0.75),
        "CostBreakdown(total=1.0, triangular=0.25, rectangular=0.75)",
        dict(total=2.0), None,
    ),
    "SensorSet": (
        SensorSet, ((1.0, math.inf),), dict(variances=(1.0, math.inf)),
        "SensorSet(variances=(1.0, inf))",
        dict(variances=(0.5,)),
        (dict(variances=(-1.0,)), "sensor variances must be >= 0 (or inf), got -1.0"),
    ),
    "Schedule": (
        Schedule, ((0.5, 2.0),), dict(instants=(0.5, 2.0)),
        "Schedule(instants=(0.5, 2.0))",
        dict(instants=(1.0,)),
        (dict(instants=(2.0, 0.5)),
         "instants must be nondecreasing and >= 0, got (2.0, 0.5)"),
    ),
    "OneMeasureSolution": (
        OneMeasureSolution, (1.5, Regime.REGIME2, 2.25, 0.5),
        dict(t_opt=1.5, regime=Regime.REGIME2, cost_at_opt=2.25, critical_duration=0.5),
        "OneMeasureSolution(t_opt=1.5, regime=<Regime.REGIME2: '2'>, cost_at_opt=2.25,"
        " critical_duration=0.5)",
        dict(t_opt=0.0, regime=Regime.REGIME1), None,
    ),
    "TwoMeasureSolution": (
        TwoMeasureSolution, (1.0, 2.0, TwoMeasureRegime.REGIME3, 1.5, 0.25, 0.75),
        dict(t1_opt=1.0, t2_opt=2.0, regime=TwoMeasureRegime.REGIME3, cost_at_opt=1.5,
             T2_crit=0.25, T1_crit=0.75, trace=None),
        "TwoMeasureSolution(t1_opt=1.0, t2_opt=2.0, regime=<TwoMeasureRegime.REGIME3: '3'>,"
        " cost_at_opt=1.5, T2_crit=0.25, T1_crit=0.75, trace=None)",
        dict(t1_opt=0.0), None,
    ),
}


@pytest.mark.parametrize("case", RECORD_CASES.values(), ids=RECORD_CASES.keys())
def test_records_keep_the_frozen_dataclass_contract(case):
    cls, args, kwargs, shown, change, invalid = case
    record = cls(*args)
    assert [f.name for f in dataclasses.fields(cls)] == list(kwargs)
    assert record == cls(**kwargs)
    assert hash(record) == hash(cls(**kwargs))
    assert repr(record) == shown
    assert dataclasses.astuple(record) == tuple(kwargs.values())
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, next(iter(kwargs)), None)
    changed = dataclasses.replace(record, **change)
    assert changed == cls(**{**kwargs, **change}) and changed != record
    if invalid is not None:
        bad, message = invalid
        with pytest.raises(ValueError, match=re.escape(message)):
            dataclasses.replace(record, **bad)
    for copied in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert type(copied) is cls and copied == record and repr(copied) == shown
