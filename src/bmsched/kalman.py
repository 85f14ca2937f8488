"""Exact variance bookkeeping for a scalar Kalman filter with scheduled measurements.

The latent state is a Brownian motion with diffusion rate ``sigma2``, so the
estimator variance grows linearly at slope ``sigma2`` between measurements and
drops at each measurement according to the scalar Kalman update.  Everything
here is deterministic: only variances are propagated, never state estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


def _check_domain(**kwargs: float) -> None:
    for name, value in kwargs.items():
        if math.isnan(value) or value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")


def _check_positive(**kwargs: float) -> None:
    for name, value in kwargs.items():
        if not (value > 0) or math.isinf(value):
            raise ValueError(f"{name} must be positive and finite, got {value}")


def _check_finite(**kwargs: float) -> None:
    for name, value in kwargs.items():
        if math.isnan(value) or math.isinf(value) or value < 0:
            raise ValueError(f"{name} must be finite and >= 0, got {value}")


@dataclass(frozen=True)
class ModelParams:
    """Process model: diffusion rate, horizon length and prior variance."""

    sigma2: float
    horizon: float
    prior_variance: float

    def __post_init__(self):
        _check_positive(sigma2=self.sigma2, horizon=self.horizon)
        _check_finite(prior_variance=self.prior_variance)


@dataclass(frozen=True)
class SensorSet:
    """Ordered measurement-noise variances, one per scheduled measurement.

    An entry of ``math.inf`` is a sensor that carries no information (its
    Kalman gain is zero).
    """

    variances: tuple[float, ...]

    def __init__(self, variances: Sequence[float]):
        object.__setattr__(self, "variances", tuple(map(float, variances)))
        for v in self.variances:
            if not v >= 0:  # also rejects NaN
                raise ValueError(f"sensor variances must be >= 0 (or inf), got {v}")

    def __len__(self) -> int:
        return len(self.variances)


@dataclass(frozen=True)
class Schedule:
    """Nondecreasing measurement instants; validity against a horizon is
    checked where a :class:`ModelParams` is available."""

    instants: tuple[float, ...]

    def __init__(self, instants: Sequence[float]):
        object.__setattr__(self, "instants", tuple(map(float, instants)))
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


@dataclass(frozen=True)
class CostBreakdown:
    """Integral of v(t), split into the per-segment triangle and rectangle areas."""

    total: float
    triangular: float
    rectangular: float


def parallel_sum(a: float, b: float) -> float:
    """Posterior variance of fusing two independent estimates: a*b/(a+b).

    Zero absorbs (a perfect estimate stays perfect) and ``inf`` is the
    identity (a useless estimate changes nothing).  The result never exceeds
    either input.
    """
    if math.isnan(a) or a < 0:
        raise ValueError(f"parallel_sum operand a must be >= 0, got {a}")
    if math.isnan(b) or b < 0:
        raise ValueError(f"parallel_sum operand b must be >= 0, got {b}")
    return _parallel_sum(a, b)


def _parallel_sum(a: float, b: float) -> float:
    """:func:`parallel_sum` for operands already known to be >= 0 (or inf)."""
    if a == 0.0 or b == 0.0:
        return 0.0
    if math.isinf(a):
        if math.isinf(b):
            raise ValueError("parallel_sum operands cannot both be inf")
        return b
    if math.isinf(b):
        return a
    return a * b / (a + b)


def equivalent_sensor_variance(variances: Sequence[float]) -> float:
    """Noise variance of activating several sensors simultaneously (left fold
    of :func:`parallel_sum`)."""
    if len(variances) == 0:
        raise ValueError("variances must be non-empty")
    acc = float(variances[0])
    if math.isnan(acc) or acc < 0:
        raise ValueError(f"sensor variances must be >= 0 (or inf), got {acc}")
    for v in variances[1:]:
        acc = parallel_sum(acc, float(v))
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
    """Post-measurement variances, one per instant.

    Starting from the prior variance, the pre-measurement variance at t_k is
    the previous posterior plus sigma2 times the elapsed time, and the
    posterior is its parallel sum with the sensor variance v_k.
    """
    _check_inputs(params, sensors, sched)
    out = []
    var = params.prior_variance
    prev_t = 0.0
    for t, v in zip(sched.instants, sensors.variances):
        pre = var + params.sigma2 * (t - prev_t)
        # SensorSet, ModelParams and Schedule make both operands >= 0
        var = _parallel_sum(v, pre)
        out.append(var)
        prev_t = t
    return out


def variance_profile(
    params: ModelParams, sensors: SensorSet, sched: Schedule
) -> VarianceProfile:
    """Full piecewise-linear v(t) on [0, horizon].

    Zero-length gaps (a measurement at 0, coincident instants, a measurement
    exactly at the horizon) produce no segment of their own; the drops they
    cause still appear in ``post_measure_variances``.
    """
    posts = posterior_variance_sequence(params, sensors, sched)
    segments = []
    start_t, start_v = 0.0, params.prior_variance
    for t, post in zip(sched.instants, posts):
        if t > start_t:
            segments.append(ProfileSegment(start_t, t, start_v))
        start_t, start_v = t, post
    if params.horizon > start_t:
        segments.append(ProfileSegment(start_t, params.horizon, start_v))
    return VarianceProfile(params.sigma2, tuple(segments), tuple(posts))


def cost(params: ModelParams, sensors: SensorSet, sched: Schedule) -> CostBreakdown:
    """Integral of v(t) over the horizon.

    Each segment of :func:`variance_profile` contributes a rectangle (start
    variance times duration) and a triangle (sigma2 * duration^2 / 2).  One
    walk over the schedule steps the posterior and sums both areas, segment
    by segment in time order, so the result rounds exactly as the segment sum
    over ``variance_profile(...).segments`` does.
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
    return CostBreakdown(total=tri + rect, triangular=tri, rectangular=rect)
