"""Closed forms for the optimal instant of a single measurement.

For one measurement at t1 in [0, T] the integral cost is an explicit rational
function of t1.  Its minimizer is either t1 = 0 (short horizons, "regime 1")
or the unique interior stationary point ("regime 2"); the boundary between the
two is a critical horizon length.  This module also provides the cost bounds
and the window-by-window iteration in which one measurement is placed
optimally in each of a sequence of windows of fixed length.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .kalman import _check_domain, _check_positive, _cost_one, _parallel_sum

__all__ = [
    "Regime",
    "OneMeasureSolution",
    "WindowIteration",
    "cost_single",
    "cost_derivative",
    "critical_duration_1",
    "optimal_instant_1",
    "duration_from_instant",
    "lower_bound",
    "upper_bound",
    "window_v0_crit",
    "window_v0_stationary",
    "window_map",
    "iterate_windows",
]


class Regime(enum.Enum):
    """Where the single-measure optimum sits: at 0, interior, or exactly on
    the critical horizon."""

    REGIME1 = "1"
    REGIME2 = "2"
    BOUNDARY = "boundary"


@dataclass(frozen=True)
class OneMeasureSolution:
    t_opt: float
    regime: Regime
    cost_at_opt: float
    critical_duration: float


@dataclass(frozen=True)
class WindowIteration:
    """Trace of placing one optimal measurement per window of fixed length.

    ``v0_sequence[k]`` is the prior variance at the start of window k (so it
    has one more entry than ``relative_instants``); ``settled_at`` is the
    first window index from which every relative instant is exactly 0, or
    None if that never happens in the computed range.
    """

    window_length: float
    sensor_variance: float
    v0_sequence: tuple[float, ...]
    relative_instants: tuple[float, ...]
    settled_at: int | None


def _noise_ratio(v1: float, g: float) -> float:
    """v1 / (v1 + g) with its 0/0 and inf limits."""
    if v1 == 0.0:
        return 0.0
    if math.isinf(v1):
        return 1.0
    return v1 / (v1 + g)


def cost_single(sigma2: float, T: float, v0: float, v1: float, t1: float) -> float:
    """Integral cost of measuring once at t1 with sensor variance v1."""
    if not (0.0 < sigma2 < math.inf and 0.0 < T < math.inf
            and v0 >= 0.0 and v1 >= 0.0 and 0.0 <= t1 <= T):
        _check_positive(sigma2=sigma2, T=T)
        _check_domain(v0=v0, v1=v1, t1=t1)
        # the only rule left to break is t1 <= T
        raise ValueError(f"t1 must lie in [0, T], got t1={t1}, T={T}")
    return _cost_single(sigma2, T, v0, v1, t1)


def _cost_single(sigma2: float, T: float, v0: float, v1: float, t1: float) -> float:
    """:func:`cost_single` for operands it would accept; ValueError on overflow."""
    J = _cost_one(sigma2, T, v0, v1, t1)
    if not J < math.inf:  # also NaN
        raise ValueError(f"the cost overflows: it is {J}")
    return J


def cost_derivative(sigma2: float, T: float, v0: float, v1: float, t1: float) -> float:
    """d/dt1 of :func:`cost_single`.

    Product of the nonnegative factor (v0 + sigma2*t1)/(v0 + v1 + sigma2*t1)
    and an increasing factor, so the cost decreases up to the optimum and
    increases after it.
    """
    if not (0.0 < sigma2 < math.inf and 0.0 < T < math.inf
            and v0 >= 0.0 and v1 >= 0.0 and t1 >= 0.0):
        _check_positive(sigma2=sigma2, T=T)
        _check_domain(v0=v0, v1=v1, t1=t1)
    g = v0 + sigma2 * t1
    ratio = _noise_ratio(v1, g)
    first = 1.0 - ratio  # == g / (g + v1), stable when v1 is 0 or inf
    second = g - sigma2 * (T - t1) * (ratio + 1.0)
    return first * second


def critical_duration_1(sigma2: float, v0: float, v1: float) -> float:
    """Largest horizon for which measuring immediately is optimal.

    Equals v0 / (sigma2 * (v1/(v0+v1) + 1)); increasing in v0, decreasing in
    v1 and sigma2.  Zero when v0 = 0.
    """
    if not (0.0 < sigma2 < math.inf and v0 >= 0.0 and v1 >= 0.0):
        _check_positive(sigma2=sigma2)
        _check_domain(v0=v0, v1=v1)
    return _critical_duration_1(sigma2, v0, v1)


def _critical_duration_1(sigma2: float, v0: float, v1: float) -> float:
    if v0 == 0.0:
        return 0.0
    ratio = 1.0 if math.isinf(v1) else v1 / (v0 + v1)
    return v0 / (sigma2 * (ratio + 1.0))


def _optimal_instant(sigma2: float, T: float, v0: float, v1: float) -> float:
    """The instant of :func:`optimal_instant_1`, for operands it would accept:
    0 up to the critical duration, the interior stationary point past it."""
    if T <= _critical_duration_1(sigma2, v0, v1):
        return 0.0
    if math.isinf(v1):
        t_opt = max(0.0, (2.0 * sigma2 * T - v0) / (3.0 * sigma2))
    else:
        # Discriminant in factored form (sigma2*T+v0+v1)(sigma2*T+v0+9*v1)
        # to avoid cancellation for large v1.  The numerator sqrt(disc) - b,
        # with b = 3*(v0+v1) - sigma2*T, cancels when b > 0 is close to
        # sqrt(disc); there it is taken as (disc - b^2)/(sqrt(disc) + b),
        # with disc - b^2 expanded symbolically.
        sT = sigma2 * T
        disc = (sT + v0 + v1) * (sT + v0 + 9.0 * v1)
        b = 3.0 * (v0 + v1) - sT
        if b > 0.0:
            num = 8.0 * (sT * (v0 + 2.0 * v1) - v0 * (v0 + v1)) / (math.sqrt(disc) + b)
        else:
            num = sT - 3.0 * v0 - 3.0 * v1 + math.sqrt(disc)
        t_opt = max(0.0, num / (4.0 * sigma2))
    if t_opt > T:
        # reached only by rounding at horizons of a few ulps, or by overflow
        raise ValueError(f"t1 must lie in [0, T], got t1={t_opt}, T={T}")
    return t_opt


def optimal_instant_1(sigma2: float, T: float, v0: float, v1: float) -> OneMeasureSolution:
    """Optimal instant for a single measurement on [0, T].

    For an infinitely noisy sensor the cost is flat in t1; the analytic limit
    max(0, (2*sigma2*T - v0)/(3*sigma2)) of the optimizer is returned in that
    case.
    """
    if not (0.0 < sigma2 < math.inf and 0.0 < T < math.inf and v0 >= 0.0 and v1 >= 0.0):
        _check_positive(sigma2=sigma2, T=T)
        _check_domain(v0=v0, v1=v1)
    t_opt = _optimal_instant(sigma2, T, v0, v1)
    t_crit = _critical_duration_1(sigma2, v0, v1)
    if T < t_crit:
        regime = Regime.REGIME1
    elif T == t_crit:
        regime = Regime.BOUNDARY
    else:
        regime = Regime.REGIME2
    return OneMeasureSolution(
        t_opt=t_opt,
        regime=regime,
        cost_at_opt=_cost_single(sigma2, T, v0, v1, t_opt),
        critical_duration=t_crit,
    )


def duration_from_instant(sigma2: float, t1: float, v0: float, v1: float) -> float:
    """Horizon length whose interior optimum is exactly t1 (inverse of the
    optimal-instant map on regime 2; at t1 = 0 it reduces to the critical
    duration)."""
    if not (0.0 < sigma2 < math.inf and t1 >= 0.0 and v0 >= 0.0 and v1 >= 0.0):
        _check_positive(sigma2=sigma2)
        _check_domain(t1=t1, v0=v0, v1=v1)
    return _duration_from_instant(sigma2, t1, v0, v1)


def _duration_from_instant(sigma2: float, t1: float, v0: float, v1: float) -> float:
    """:func:`duration_from_instant` for operands it would accept, written as
    2*t1 + (v0 - v1*p/(p + 2*v1))/sigma2 with p = v0 + sigma2*t1, which does
    not cancel when v1 dwarfs p."""
    if math.isinf(v1):
        # limit of the rational form below
        return 2.0 * t1 + (v0 - sigma2 * t1) / (2.0 * sigma2)
    if v1 == 0.0:
        return 2.0 * t1 + v0 / sigma2
    p = v0 + sigma2 * t1
    return 2.0 * t1 + (v0 - v1 * p / (p + 2.0 * v1)) / sigma2


def lower_bound(sigma2: float, T: float, v0: float, v1: float) -> float:
    """Schedule-independent lower bound sqrt(sigma2 * (v0||v1) * T^3); strictly
    below the cost of every schedule."""
    if not (0.0 < sigma2 < math.inf and 0.0 < T < math.inf and v0 >= 0.0 and v1 >= 0.0):
        _check_positive(sigma2=sigma2, T=T)
        _check_domain(v0=v0, v1=v1)
    return math.sqrt(sigma2 * _parallel_sum(v0, v1) * T**3)


def upper_bound(sigma2: float, T: float, v0: float) -> float:
    """Cost of never gaining information: v0*T + sigma2*T^2/2 (attained by
    measuring at t1 = T)."""
    if not (0.0 < sigma2 < math.inf and 0.0 < T < math.inf and v0 >= 0.0):
        _check_positive(sigma2=sigma2, T=T)
        _check_domain(v0=v0)
    return _cost_one(sigma2, T, v0, 0.0, T)  # an exact sensor, so no inf*0


def window_v0_crit(sigma2: float, T: float, v1: float) -> float:
    """Smallest prior variance for which the optimal instant in a window of
    length T is 0 (solves critical_duration_1 == T for v0)."""
    if not (0.0 < sigma2 < math.inf and 0.0 < T < math.inf and v1 >= 0.0):
        _check_positive(sigma2=sigma2, T=T)
        _check_domain(v1=v1)
    sT = sigma2 * T
    return 0.5 * (sT - v1 + math.sqrt((v1 - sT) ** 2 + 8.0 * sigma2 * v1 * T))


def window_v0_stationary(sigma2: float, T: float, v1: float) -> float:
    """Fixed point of :func:`window_map`; strictly above window_v0_crit."""
    if not (0.0 < sigma2 < math.inf and 0.0 < T < math.inf and v1 >= 0.0):
        _check_positive(sigma2=sigma2, T=T)
        _check_domain(v1=v1)
    sT = sigma2 * T
    return 0.5 * (sT + math.sqrt(sT * sT + 4.0 * sigma2 * v1 * T))


def window_map(sigma2: float, T: float, v1: float, v0: float) -> float:
    """Variance at the end of a window of length T after one optimally placed
    measurement, as a function of the variance v0 at the window start.

    Below window_v0_crit the measurement happens at the interior optimum;
    from window_v0_crit on it happens at 0 and the map becomes the homography
    ((v1 + sigma2*T) * v0 + sigma2*v1*T) / (v0 + v1).  Both expressions agree
    at the threshold.
    """
    if not (0.0 < sigma2 < math.inf and 0.0 < T < math.inf and v1 >= 0.0 and v0 >= 0.0):
        _check_positive(sigma2=sigma2, T=T)
        _check_domain(v1=v1, v0=v0)
    if v0 < window_v0_crit(sigma2, T, v1):
        t_opt = _optimal_instant(sigma2, T, v0, v1)
        post = _parallel_sum(v1, v0 + sigma2 * t_opt)
        return post + sigma2 * (T - t_opt)
    if math.isinf(v1):
        return v0 + sigma2 * T
    return ((v1 + sigma2 * T) * v0 + sigma2 * v1 * T) / (v0 + v1)


def iterate_windows(
    sigma2: float, T: float, v1: float, v0: float, max_windows: int
) -> WindowIteration:
    """Apply :func:`window_map` repeatedly, recording the measurement instant
    relative to each window's start.

    Once the v0 sequence passes window_v0_crit every later relative instant is
    exactly 0 and the sequence converges monotonically to
    window_v0_stationary.
    """
    if max_windows < 1:
        raise ValueError(f"max_windows must be >= 1, got {max_windows}")
    if not (0.0 < sigma2 < math.inf and 0.0 < T < math.inf and v1 >= 0.0 and v0 >= 0.0):
        _check_positive(sigma2=sigma2, T=T)
        _check_domain(v1=v1, v0=v0)
    v_seq = [v0]
    instants = []
    for _ in range(max_windows):
        v = v_seq[-1]
        instants.append(_optimal_instant(sigma2, T, v, v1))
        v_seq.append(window_map(sigma2, T, v1, v))
    settled: int | None = None
    for k in range(len(instants) - 1, -1, -1):
        if instants[k] != 0.0:
            break
        settled = k
    return WindowIteration(
        window_length=T,
        sensor_variance=v1,
        v0_sequence=tuple(v_seq),
        relative_instants=tuple(instants),
        settled_at=settled,
    )
