"""Exact variance bookkeeping for a scalar Kalman filter with scheduled measurements.

The latent state is a Brownian motion with diffusion rate ``sigma2``, so the
estimator variance grows linearly at slope ``sigma2`` between measurements and
drops at each measurement according to the scalar Kalman update.  Everything
here is deterministic: only variances are propagated, never state estimates.

Besides :func:`cost`, the only cost formulas are ``_cost_one`` and
``_cost_two``, for one and two measurements.  They take floats, or numpy
blocks that they fill in place with the operations, in the order, they take
on one cell's floats, so a scalar cost rounds as a grid oracle's lattice cell
(squares are products: CPython's float ``** 2`` calls C ``pow``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import inf
from typing import NamedTuple, Sequence

__all__ = [
    "ModelParams",
    "SensorSet",
    "Schedule",
    "ProfileSegment",
    "VarianceProfile",
    "CostBreakdown",
    "parallel_sum",
    "equivalent_sensor_variance",
    "posterior_variance_sequence",
    "variance_profile",
    "cost",
]


# The three rules an argument can be held to, one message-producing helper
# each.  Callers guard with the rule's chained comparison (``v >= 0.0``,
# ``0.0 < v < math.inf``, ``0.0 <= v < math.inf``), which NaN fails, and call
# a helper only when that guard fails, to raise for the first argument, in
# the order given, that breaks its rule.


def _check_domain(**kwargs: float) -> None:
    """Raise for the first argument that is NaN or negative (``inf`` passes)."""
    for name, value in kwargs.items():
        if math.isnan(value) or value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")


def _check_positive(**kwargs: float) -> None:
    """Raise for the first argument that is not positive and finite."""
    for name, value in kwargs.items():
        if not (value > 0) or math.isinf(value):
            raise ValueError(f"{name} must be positive and finite, got {value}")


def _check_finite(**kwargs: float) -> None:
    """Raise for the first argument that is not finite and >= 0."""
    for name, value in kwargs.items():
        if math.isnan(value) or math.isinf(value) or value < 0:
            raise ValueError(f"{name} must be finite and >= 0, got {value}")


# Records built per scalar call write their own __init__ (fields in order, with defaults,
# stored in __dict__): the generated frozen one pays object.__setattr__, ~1 us a record.
@dataclass(frozen=True, init=False)
class ModelParams:
    """Process model: diffusion rate, horizon length and prior variance."""

    sigma2: float
    horizon: float
    prior_variance: float

    def __init__(self, sigma2, horizon, prior_variance):
        if not (0.0 < sigma2 < math.inf and 0.0 < horizon < math.inf
                and 0.0 <= prior_variance < math.inf):
            _check_positive(sigma2=sigma2, horizon=horizon)
            _check_finite(prior_variance=prior_variance)
        self.__dict__["sigma2"] = sigma2
        self.__dict__["horizon"] = horizon
        self.__dict__["prior_variance"] = prior_variance


@dataclass(frozen=True, init=False)  # __init__: see ModelParams
class SensorSet:
    """Ordered measurement-noise variances, one per scheduled measurement.

    An entry of ``math.inf`` is a sensor that carries no information (its
    Kalman gain is zero).
    """

    variances: tuple[float, ...]

    def __init__(self, variances: Sequence[float]):
        self.__dict__["variances"] = tuple(map(float, variances))
        for v in self.variances:
            if not v >= 0:  # also rejects NaN
                raise ValueError(f"sensor variances must be >= 0 (or inf), got {v}")

    def __len__(self) -> int:
        return len(self.variances)


@dataclass(frozen=True, init=False)  # __init__: see ModelParams
class Schedule:
    """Nondecreasing measurement instants; validity against a horizon is
    checked where a :class:`ModelParams` is available."""

    instants: tuple[float, ...]

    def __init__(self, instants: Sequence[float]):
        self.__dict__["instants"] = tuple(map(float, instants))
        prev = 0.0
        for t in self.instants:
            if not t >= prev:  # also rejects NaN
                raise ValueError(
                    f"instants must be nondecreasing and >= 0, got {self.instants}"
                )
            prev = t

    def __len__(self) -> int:
        return len(self.instants)

    def check_against(self, params: ModelParams) -> None:
        if self.instants and self.instants[-1] > params.horizon:
            raise ValueError(
                f"instants must not exceed the horizon {params.horizon}, "
                f"got {self.instants}"
            )


class ProfileSegment(NamedTuple):
    start_time: float
    end_time: float
    start_variance: float


@dataclass(frozen=True)
class VarianceProfile:
    """Piecewise-linear estimator variance v(t) on [0, T].

    One segment per inter-measurement gap of positive length; the segments
    tile [0, T].  Within a segment
    ``v(t) = start_variance + sigma2 * (t - start_time)``.
    """

    sigma2: float
    segments: tuple[ProfileSegment, ...]
    post_measure_variances: tuple[float, ...]

    def value(self, t: float) -> float:
        """v(t); at a measurement instant this is the post-update variance."""
        lo, hi = self.segments[0].start_time, self.segments[-1].end_time
        if not (lo <= t <= hi):
            raise ValueError(f"t must lie in [{lo}, {hi}], got {t}")
        chosen = None
        for seg in self.segments:
            if seg.start_time <= t <= seg.end_time:
                chosen = seg
        assert chosen is not None
        return chosen.start_variance + self.sigma2 * (t - chosen.start_time)


@dataclass(frozen=True, init=False)  # __init__: see ModelParams
class CostBreakdown:
    """Integral of v(t), split into the per-segment triangle and rectangle areas."""

    total: float
    triangular: float
    rectangular: float

    def __init__(self, total, triangular, rectangular):
        self.__dict__["total"] = total
        self.__dict__["triangular"] = triangular
        self.__dict__["rectangular"] = rectangular


def parallel_sum(a: float, b: float) -> float:
    """Posterior variance of fusing two independent estimates: a*b/(a+b).

    Zero absorbs (a perfect estimate stays perfect) and ``inf`` is the
    identity (a useless estimate changes nothing).  The result never exceeds
    either input.
    """
    if not a >= 0.0:  # also rejects NaN
        raise ValueError(f"parallel_sum operand a must be >= 0, got {a}")
    if not b >= 0.0:
        raise ValueError(f"parallel_sum operand b must be >= 0, got {b}")
    return _parallel_sum(a, b)


# Hot bodies (unchecked, run per slope evaluation or per solve) stay in one frame and
# compute no value twice where they can.  They may test ``x == inf`` for infinity only
# where x >= 0, as the callers' checks make every operand here.
def _parallel_sum(a: float, b: float) -> float:
    """:func:`parallel_sum` for operands already known to be >= 0 (or inf)."""
    if a == 0.0 or b == 0.0:
        return 0.0
    if a == inf:
        if b == inf:
            raise ValueError("parallel_sum operands cannot both be inf")
        return b
    if b == inf:
        return a
    return a * b / (a + b)


def equivalent_sensor_variance(variances: Sequence[float]) -> float:
    """Noise variance of activating several sensors simultaneously (left fold
    of :func:`parallel_sum`); every entry is validated as a :class:`SensorSet`
    entry."""
    entries = SensorSet(variances).variances
    if not entries:
        raise ValueError("variances must be non-empty")
    acc = entries[0]
    for v in entries[1:]:
        acc = _parallel_sum(acc, v)
    return acc


def _check_inputs(params: ModelParams, sensors: SensorSet, sched: Schedule) -> None:
    if len(sensors) != len(sched):
        raise ValueError(
            f"sensors and instants must have equal length, "
            f"got {len(sensors)} sensors and {len(sched)} instants"
        )
    sched.check_against(params)


def posterior_variance_sequence(
    params: ModelParams, sensors: SensorSet, sched: Schedule
) -> list[float]:
    """Post-measurement variances, one per instant (the
    ``post_measure_variances`` of :func:`variance_profile`)."""
    return list(variance_profile(params, sensors, sched).post_measure_variances)


def variance_profile(
    params: ModelParams, sensors: SensorSet, sched: Schedule
) -> VarianceProfile:
    """Full piecewise-linear v(t) on [0, horizon].

    Starting from the prior variance, the pre-measurement variance at t_k is
    the previous posterior plus sigma2 times the elapsed time, and the
    posterior is its parallel sum with the sensor variance v_k; one walk over
    the schedule steps the posterior and closes each segment.  Zero-length
    gaps (a measurement at 0, coincident instants, a measurement exactly at
    the horizon) produce no segment of their own; the drops they cause still
    appear in ``post_measure_variances``.
    """
    _check_inputs(params, sensors, sched)
    segments = []
    posts = []
    start_t, start_v = 0.0, params.prior_variance
    for t, v in zip(sched.instants, sensors.variances):
        if t > start_t:
            segments.append(ProfileSegment(start_t, t, start_v))
        pre = start_v + params.sigma2 * (t - start_t)
        # SensorSet, ModelParams and Schedule make both operands >= 0
        start_t, start_v = t, _parallel_sum(v, pre)
        posts.append(start_v)
    if params.horizon > start_t:
        segments.append(ProfileSegment(start_t, params.horizon, start_v))
    return VarianceProfile(params.sigma2, tuple(segments), tuple(posts))


def cost(params: ModelParams, sensors: SensorSet, sched: Schedule) -> CostBreakdown:
    """Integral of v(t) over the horizon.

    Each segment of :func:`variance_profile` contributes a rectangle (start
    variance times duration) and a triangle (sigma2 * duration^2 / 2).  One
    walk over the schedule steps the posterior and sums both areas, segment
    by segment in time order, so the result rounds exactly as the segment sum
    over ``variance_profile(...).segments`` does.  An overflowing total raises
    ``ValueError``.
    """
    _check_inputs(params, sensors, sched)
    sigma2 = params.sigma2
    tri = 0.0
    rect = 0.0
    start_t, start_v = 0.0, params.prior_variance
    for t, v in zip(sched.instants, sensors.variances):
        if t > start_t:
            dt = t - start_t
            tri += 0.5 * sigma2 * dt * dt
            rect += start_v * dt
        pre = start_v + sigma2 * (t - start_t)
        # SensorSet, ModelParams and Schedule make both operands >= 0
        start_t, start_v = t, _parallel_sum(v, pre)
    if params.horizon > start_t:
        dt = params.horizon - start_t
        tri += 0.5 * sigma2 * dt * dt
        rect += start_v * dt
    total = tri + rect
    if not math.isfinite(total):
        raise ValueError(f"the cost overflows: its total is {total}")
    return CostBreakdown(total, tri, rect)


_SCALAR = (float, int)  # no array; a constant, as a tuple in the call is rebuilt per call


def _post_variance(v_sensor: float, pre):
    """Parallel sum of a scalar sensor variance and pre-measurement variances:
    one float, or an array overwritten with the result (0 and inf handled)."""
    if isinstance(pre, _SCALAR):
        return _parallel_sum(v_sensor, pre)
    if v_sensor == 0.0:
        pre.fill(0.0)
    elif not math.isinf(v_sensor):  # v*0/(v + 0) is already 0 for finite v > 0
        den = pre + v_sensor
        pre *= v_sensor
        pre /= den
    return pre


def _cost_one(sigma2: float, T: float, v0: float, v1: float, t1):
    """Cost of one measurement at t1 (a float or an array); inf or NaN on overflow."""
    half = 0.5 * sigma2
    J = half * t1
    J *= t1
    J += v0 * t1
    rest = T - t1
    post = _post_variance(v1, v0 + sigma2 * t1)
    post *= rest
    rest *= rest
    rest *= half
    J += rest
    J += post
    return J


def _cost_two(sigma2, T, v0, v1, v2, t1, t2):
    """Cost of measurements at t1 <= t2 (floats or arrays); inf or NaN on overflow."""
    half = 0.5 * sigma2
    gap = t2 - t1
    g1 = _post_variance(v1, v0 + sigma2 * t1)
    pre = sigma2 * gap
    pre += g1
    g2 = _post_variance(v2, pre)
    rest = T - t2
    g2 *= rest
    J = gap * gap
    J *= half
    J += half * t1 * t1 + v0 * t1
    gap *= g1
    J += gap
    J += half * (rest * rest)
    J += g2
    return J
