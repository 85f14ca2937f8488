"""Optimal instants for two measurements.

Three regimes exist depending on the horizon length T.  For short horizons
both measurements happen at 0; past a first critical duration only the second
one leaves 0; past a second critical duration both are interior.  The
regime-2/3 boundary is governed by a cubic in sigma2*t2 whose coefficient sign
pattern (one sign change) guarantees a unique positive root.  That root is
taken in closed form (trigonometric or Cardano form, then one Newton step), in
units of v0, so both critical durations are explicit.  The optimizers
compare T with the two critical durations once and take the path of the
regime that comparison gives; regimes 1 and 2 are closed-form.

In regime 3 the optimum solves a two-equation stationarity system.
``optimize_two`` solves it in dimensionless units (u = t/T, a_k =
v_k/(sigma2*T)) as one root: for a fixed first instant the best second one is
closed-form, so the optimal u1 is the single sign change of the t1 slope
along that curve.  ``descend_two`` keeps the paper's algorithm as the
reference: coordinate descent in the same units, whose t1 line searches find
the sign change of the t1 slope on [0, u2], cross-checked against that root.
It returns the descent's trace.  Both root one slope body, ``_reduced_slope``:
its value at the two ends of the interval first, then Chandrupatla's method on
the bracket they give, in about 6 to 7 slope evaluations.

Each public function validates its own arguments, under their own names, and
then calls unchecked bodies (``_cost_pair``, ``_optimal_gap``,
``_critical_spacing`` and the one-measure and parallel-sum bodies they use).
A valid call costs one chained comparison; the ``kalman`` helpers that word
the errors run only when it fails.
The optimizers validate once on entry, and their inner loops call only these
bodies, with the same arithmetic, so they return the same bits.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from functools import partial

from .kalman import _check_domain, _check_finite, _check_positive, _cost_two, _parallel_sum
from .numerics import bracketed_root
from .one_measure import _critical_duration_1, _duration_from_instant, _noise_ratio
from .one_measure import _optimal_instant

__all__ = [
    "TwoMeasureRegime",
    "CubicCoeffs",
    "DescentOptions",
    "DescentTrace",
    "TwoMeasureSolution",
    "cost_pair",
    "cost_derivative_t1",
    "cubic_coeffs",
    "critical_spacing",
    "critical_duration_2_second",
    "critical_duration_2_first",
    "classify_regime",
    "optimal_gap",
    "equilibrium_gap",
    "optimize_two",
    "descend_two",
]


class TwoMeasureRegime(enum.Enum):
    REGIME1 = "1"  # both measurements at 0
    REGIME2 = "2"  # first at 0, second interior
    REGIME3 = "3"  # both interior


@dataclass(frozen=True)
class CubicCoeffs:
    """Coefficients of the boundary cubic a*x^3 + b*x^2 + c*x + d in
    x = sigma2*t2.  For positive variances a < 0 and d > 0, so there is a
    single sign change and hence a unique positive root."""

    a: float
    b: float
    c: float
    d: float

    def evaluate(self, x: float) -> float:
        return ((self.a * x + self.b) * x + self.c) * x + self.d


# largest distance in t1/T or t2/T allowed between the descent and the root
_CROSS_CHECK_TOL = 1e-5
# bracket width of the root of a slope on [0, hi], with hi <= 1 in units of T
_ROOT_TOL = 1e-13


@dataclass(frozen=True)
class DescentOptions:
    """Stop rules of :func:`descend_two`; ``step_tol`` is a fraction of T."""

    step_tol: float = 1e-9
    max_iterations: int = 200


@dataclass(frozen=True)
class DescentTrace:
    """Per-iteration record of the coordinate descent.

    Iteration 0 is the starting point (its step sizes are NaN); later entries
    hold (t1, t2, cost, |step in t1|, |step in t2|) at the caller's scale.
    ``final_gap`` is optimal_gap - equilibrium_gap at the returned t1 and
    vanishes at the regime-3 optimum.
    """

    iterations: tuple[tuple[float, float, float, float, float], ...]
    converged: bool
    final_gap: float


@dataclass(frozen=True, init=False)  # __init__: see kalman.ModelParams
class TwoMeasureSolution:
    """Optimal instants and their cost.  Regime "1" (both at 0) holds up to
    ``T2_crit``, "2" (``t1_opt`` = 0) up to ``T1_crit`` and "3" (both interior)
    past it.  ``trace`` is set only by :func:`descend_two`, in regime 3."""

    t1_opt: float
    t2_opt: float
    regime: TwoMeasureRegime
    cost_at_opt: float
    T2_crit: float
    T1_crit: float
    trace: DescentTrace | None = None

    def __init__(self, t1_opt, t2_opt, regime, cost_at_opt, T2_crit, T1_crit, trace=None):
        self.__dict__["t1_opt"] = t1_opt
        self.__dict__["t2_opt"] = t2_opt
        self.__dict__["regime"] = regime
        self.__dict__["cost_at_opt"] = cost_at_opt
        self.__dict__["T2_crit"] = T2_crit
        self.__dict__["T1_crit"] = T1_crit
        self.__dict__["trace"] = trace


def cost_pair(
    sigma2: float, T: float, v0: float, v1: float, v2: float, t1: float, t2: float
) -> float:
    """Integral cost of measuring at t1 and t2 (0 <= t1 <= t2 <= T)."""
    if not (0.0 < sigma2 < math.inf and 0.0 < T < math.inf
            and v0 >= 0.0 and v1 >= 0.0 and v2 >= 0.0):
        _check_positive(sigma2=sigma2, T=T)
        _check_domain(v0=v0, v1=v1, v2=v2)
    return _cost_pair(sigma2, T, v0, v1, v2, t1, t2)


def _cost_pair(
    sigma2: float, T: float, v0: float, v1: float, v2: float, t1: float, t2: float
) -> float:
    """:func:`cost_pair` for validated sigma2, T and variances; the order of
    the instants is still checked, and an overflow raises ValueError."""
    if not (0.0 <= t1 <= t2 <= T):
        raise ValueError(f"need 0 <= t1 <= t2 <= T, got t1={t1}, t2={t2}, T={T}")
    J = _cost_two(sigma2, T, v0, v1, v2, t1, t2)
    if not J < math.inf:  # also NaN
        raise ValueError(f"the cost overflows: it is {J}")
    return J


def cost_derivative_t1(
    sigma2: float, T: float, v0: float, v1: float, v2: float, t1: float, t2: float
) -> float:
    """Partial derivative of :func:`cost_pair` with respect to t1.

    With g = v0 + sigma2*t1 and post1 = v1 || g:

        (g / (g + v1)) * (g - (1 + v1/(v1+g)) * sigma2
            * (v2^2*(T - t2)/(v2 + sigma2*(t2-t1) + post1)^2 + (t2 - t1)))
    """
    if not (0.0 < sigma2 < math.inf and 0.0 < T < math.inf
            and v0 >= 0.0 and v1 >= 0.0 and v2 >= 0.0):
        _check_positive(sigma2=sigma2, T=T)
        _check_domain(v0=v0, v1=v1, v2=v2)
    if not (0.0 <= t1 <= t2 <= T):
        raise ValueError(f"need 0 <= t1 <= t2 <= T, got t1={t1}, t2={t2}, T={T}")
    first = 1.0 - _noise_ratio(v1, v0 + sigma2 * t1)  # == g / (g + v1)
    return first * _t1_slope_factor(sigma2, T, v0, v1, v2, t1, t2)


def _t1_slope_factor(
    sigma2: float, T: float, v0: float, v1: float, v2: float, t1: float, t2: float
) -> float:
    """Sign-carrying factor of :func:`cost_derivative_t1` (the derivative with
    its nonnegative prefactor g/(g+v1) removed, so it stays informative where
    the prefactor vanishes)."""
    g = v0 + sigma2 * t1
    ratio, post1 = _noise_ratio(v1, g), _parallel_sum(v1, g)
    return _slope_factor(sigma2, T, v2, t1, t2, g, ratio, post1)


def _slope_factor(
    sigma2: float, T: float, v2: float, t1: float, t2: float, g: float, ratio: float,
    post1: float,
) -> float:
    """:func:`_t1_slope_factor` given g, v1/(v1 + g) and post1 = v1 || g."""
    denom = v2 + sigma2 * (t2 - t1) + post1
    if denom == 0.0:
        inner = t2 - t1
    elif denom * denom == 0.0:  # the square underflows, but not the ratio
        inner = (v2 / denom) ** 2 * (T - t2) + (t2 - t1)
    else:
        inner = v2 * v2 * (T - t2) / (denom * denom) + (t2 - t1)
    return g - (1.0 + ratio) * sigma2 * inner


def _slope_sign_change(slope, hi: float, slope_hi: float | None = None) -> float:
    """Minimizer over [0, hi] of a function whose slope changes sign at most
    once, from - to +: 0 when the slope at 0 is already >= 0, hi when the
    slope at hi (``slope_hi``, if known) is still <= 0, and otherwise the
    root of ``slope`` by Chandrupatla's method to a bracket of 1e-13 (both
    callers work in units of T, with hi <= 1).  The root is found
    deterministically, where a search on the function itself would wander
    over the region of width ~sqrt(eps*J) in which it is flat to float
    precision.  When hi = 0, 0 is the only point of the interval.
    """
    if hi == 0.0:
        return 0.0
    s_lo = slope(0.0)
    if s_lo >= 0.0:
        return 0.0
    s_hi = slope(hi) if slope_hi is None else slope_hi
    if s_hi <= 0.0:
        return hi
    return bracketed_root(slope, 0.0, hi, s_lo, s_hi, tol=_ROOT_TOL)


def _reduced_slope(a0: float, a1: float, a2: float, u2: float | None, u: float) -> float:
    """``_t1_slope_factor(1, 1, a0, a1, a2, u, u2)``, with u2 = u + optimal_gap(u) when
    None: the one slope body of the regime-3 root and of the descent's line search."""
    g = a0 + u
    prior = _parallel_sum(a1, g)
    u2 = u + _optimal_instant(1.0, 1.0 - u, prior, a2) if u2 is None else u2
    return _slope_factor(1.0, 1.0, a2, u, u2, g, _noise_ratio(a1, g), prior)


def _line_search_t1(a0: float, a1: float, a2: float, u2: float) -> float:
    """Minimize u1 -> cost over [0, u2] at sigma2 = T = 1.  The cost is quasi-convex
    in t1 (its slope, a nonnegative prefactor times :func:`_t1_slope_factor`,
    changes sign at most once, from - to +), so this is the sign change of
    :func:`_reduced_slope`.  An empty interval, u2 = 0, gives 0."""
    return _slope_sign_change(partial(_reduced_slope, a0, a1, a2, u2), u2)


def cubic_coeffs(v0: float, v1: float, v2: float) -> CubicCoeffs:
    """Boundary cubic coefficients, exact polynomials in the variances."""
    if not (0.0 <= v0 < math.inf and 0.0 <= v1 < math.inf and 0.0 <= v2 < math.inf):
        _check_finite(v0=v0, v1=v1, v2=v2)
    return CubicCoeffs(*_cubic_coeffs(v0, v1, v2))


def _cubic_coeffs(v0: float, v1: float, v2: float) -> tuple[float, float, float, float]:
    s, w, sq = v0 + v1, v0 + 2.0 * v1, v0 * v0
    a = -(s**2) * w  # a power, not s * s: the two round differently
    b = s * (v0**3 - 3.0 * (s * w * v2 + v0 * v1 * v1))
    c = v2 * b + sq * (2.0 * v0 + 3.0 * v1) * (v0 * v1 + v0 * v2 + v1 * v2)
    d = sq * (v1 + v2) * s * (v0 * v1 + 2.0 * v0 * v2 + 3.0 * v1 * v2)
    return a, b, c, d


# cap on v1/v0 and v2/v0 in critical_spacing: it keeps every intermediate of
# the closed form finite, and the root y depends smoothly on v0/v1 and v0/v2
# near 0, so the cap moves y by about 1/_RATIO_CAP (absolute)
_RATIO_CAP = 1e30


def _largest_real_root(p2: float, p1: float, p0: float) -> float:
    """Largest real root of y^3 + p2*y^2 + p1*y + p0: the trigonometric form
    when all three roots are real, Cardano's form (with the sum taken
    without cancellation) when two are complex."""
    shift = p2 / 3.0
    q = (p1 - p2 * shift) / 3.0  # of the depressed cubic z^3 + 3q*z + 2h
    h = 0.5 * ((2.0 * shift * shift - p1) * shift + p0)
    disc = h * h + q * q * q
    if disc < 0.0:  # three real roots, so q < 0
        m = math.sqrt(-q)
        cos3 = max(-1.0, min(1.0, -h / (m * m * m)))
        z = 2.0 * m * math.cos(math.acos(cos3) / 3.0)
    else:
        w = -math.copysign(abs(h) + math.sqrt(disc), h)
        u = math.copysign(abs(w) ** (1.0 / 3.0), w)
        z = u - q / u
    return z - shift


def _check_spacing_args(sigma2: float, v0: float, v1: float, v2: float) -> None:
    """Argument check of the critical spacing and both critical durations."""
    if not (0.0 < sigma2 < math.inf
            and 0.0 <= v0 < math.inf and 0.0 <= v1 < math.inf and 0.0 <= v2 < math.inf):
        _check_positive(sigma2=sigma2)
        _check_finite(v0=v0, v1=v1, v2=v2)


def critical_spacing(sigma2: float, v0: float, v1: float, v2: float) -> float:
    """Largest second-measure instant t2 for which (0, t2) can be optimal.

    sigma2 * t2 / v0 is the unique positive root y of the boundary cubic
    written in y, A*y^3 + B*y^2 + C*y + D with coefficients that depend only
    on v1/v0 and v2/v0; A < 0 <= D.  So y is the largest real root of that
    cubic, and 1/y that of its reverse in 1/y.  The closed form
    (trigonometric or Cardano form) gives the largest real root to a few
    ulps of the largest root magnitude, so y is taken from the cubic when it
    exceeds g = (D/-A)^(1/3), the geometric mean of the root magnitudes (the
    cubic is positive at g), and from the reverse otherwise; one Newton step
    on the cubic then polishes it.  No loop runs, and y is within about
    1e-15 (relative) of a 40-digit root for ratios up to about 1e25.  Zero
    when v0 = 0.
    """
    _check_spacing_args(sigma2, v0, v1, v2)
    return _critical_spacing(sigma2, v0, v1, v2)


def _critical_spacing(sigma2: float, v0: float, v1: float, v2: float) -> float:
    """:func:`critical_spacing` for validated operands."""
    if v0 == 0.0:
        return 0.0
    r1, r2 = v1 / v0, v2 / v0
    r1, r2 = _RATIO_CAP if r1 > _RATIO_CAP else r1, _RATIO_CAP if r2 > _RATIO_CAP else r2
    A, B, C, D = _cubic_coeffs(1.0, r1, r2)
    g = (D / -A) ** (1.0 / 3.0)
    if ((A * g + B) * g + C) * g + D > 0.0 or D == 0.0:
        y = _largest_real_root(B / A, C / A, D / A)
    else:
        y = 1.0 / _largest_real_root(C / D, B / D, A / D)
    y -= (((A * y + B) * y + C) * y + D) / ((3.0 * A * y + 2.0 * B) * y + C)
    return v0 * y / sigma2


def critical_duration_2_second(sigma2: float, v0: float, v1: float, v2: float) -> float:
    """Largest horizon for which both measurements at 0 is optimal; equals the
    one-measure critical duration with prior v0 || v1 and sensor v2."""
    _check_spacing_args(sigma2, v0, v1, v2)
    return _critical_duration_1(sigma2, _parallel_sum(v0, v1), v2)


def critical_duration_2_first(sigma2: float, v0: float, v1: float, v2: float) -> float:
    """Largest horizon for which the first measurement stays at 0."""
    _check_spacing_args(sigma2, v0, v1, v2)
    return _critical_duration_2_first(sigma2, v0, v1, v2, _parallel_sum(v0, v1))


def _critical_duration_2_first(
    sigma2: float, v0: float, v1: float, v2: float, prior: float
) -> float:
    """:func:`critical_duration_2_first` given prior = v0 || v1."""
    if v0 == 0.0:
        # every horizon is regime 3; the formula below would leave a rounding
        # residue of either sign
        return 0.0
    spacing = _critical_spacing(sigma2, v0, v1, v2)
    return _duration_from_instant(sigma2, spacing, prior, v2)


def _classify(
    sigma2: float, T: float, v0: float, v1: float, v2: float
) -> tuple[TwoMeasureRegime, float, float]:
    """Validate once, then the regime of horizon T with both critical
    durations (T2_crit, T1_crit); a horizon exactly equal to a critical
    duration belongs to the lower regime."""
    if not (0.0 < sigma2 < math.inf and 0.0 < T < math.inf
            and 0.0 <= v0 < math.inf and 0.0 <= v1 < math.inf and 0.0 <= v2 < math.inf):
        _check_positive(sigma2=sigma2, T=T)
        _check_finite(v0=v0, v1=v1, v2=v2)
    prior = _parallel_sum(v0, v1)
    t2_crit = _critical_duration_1(sigma2, prior, v2)
    t1_crit = _critical_duration_2_first(sigma2, v0, v1, v2, prior)
    if T <= t2_crit:
        return TwoMeasureRegime.REGIME1, t2_crit, t1_crit
    if T <= t1_crit:
        return TwoMeasureRegime.REGIME2, t2_crit, t1_crit
    return TwoMeasureRegime.REGIME3, t2_crit, t1_crit


def classify_regime(
    sigma2: float, T: float, v0: float, v1: float, v2: float
) -> TwoMeasureRegime:
    """Regime of the optimal schedule; a horizon exactly equal to a critical
    duration belongs to the lower regime."""
    return _classify(sigma2, T, v0, v1, v2)[0]


def optimal_gap(
    sigma2: float, T: float, v0: float, v1: float, v2: float, t1: float
) -> float:
    """Best spacing t2 - t1 when the first measurement is pinned at t1
    (one-measure reduction over the remaining horizon); nonincreasing in t1
    and continued by 0 for t1 >= T."""
    if not (0.0 < sigma2 < math.inf and 0.0 < T < math.inf
            and t1 >= 0.0 and v0 >= 0.0 and v1 >= 0.0 and v2 >= 0.0):
        _check_positive(sigma2=sigma2, T=T)
        _check_domain(t1=t1, v0=v0, v1=v1, v2=v2)
    return _optimal_gap(sigma2, T, v0, v1, v2, t1)


def _optimal_gap(
    sigma2: float, T: float, v0: float, v1: float, v2: float, t1: float
) -> float:
    """:func:`optimal_gap` for validated operands.  At t1 = 0 it is t2 of the
    regime-2 schedule (0, t2): the one-measure optimum for the prior v0 || v1
    and sensor v2."""
    if t1 >= T:
        return 0.0
    prior = _parallel_sum(v0 + sigma2 * t1, v1)
    return _optimal_instant(sigma2, T - t1, prior, v2)


def equilibrium_gap(
    sigma2: float, v0: float, v1: float, v2: float, t1: float
) -> float:
    """Spacing that makes the first measurement stationary when it happens at
    t1 (critical spacing for the inflated prior v0 + sigma2*t1); strictly
    increasing in t1."""
    if not (0.0 < sigma2 < math.inf
            and 0.0 <= v0 < math.inf and 0.0 <= v1 < math.inf and 0.0 <= v2 < math.inf
            and 0.0 <= t1 < math.inf):
        _check_positive(sigma2=sigma2)
        _check_finite(v0=v0, v1=v1, v2=v2, t1=t1)
    return _critical_spacing(sigma2, v0 + sigma2 * t1, v1, v2)


def _solve(sigma2, T, v0, v1, v2, interior) -> TwoMeasureSolution:
    """Validate once, classify once, and solve: closed forms in regimes 1 and
    2, and ``interior(sigma2, T, v0, v1, v2) -> (t1, t2, trace)`` in regime 3."""
    regime, t2_crit, t1_crit = _classify(sigma2, T, v0, v1, v2)
    trace = None
    if regime is TwoMeasureRegime.REGIME1:
        t1 = t2 = 0.0
    elif regime is TwoMeasureRegime.REGIME2:
        t1, t2 = 0.0, _optimal_gap(sigma2, T, v0, v1, v2, 0.0)
    else:
        t1, t2, trace = interior(sigma2, T, v0, v1, v2)
    cost = _cost_pair(sigma2, T, v0, v1, v2, t1, t2)
    return TwoMeasureSolution(t1, t2, regime, cost, t2_crit, t1_crit, trace)


def _reduced(sigma2: float, T: float, v0: float, v1: float, v2: float) -> tuple[float, ...]:
    """a_k = v_k/(sigma2*T), or (v_k/sigma2)/T where sigma2*T is subnormal or
    underflows to 0; at sigma2 = T = 1 they are the v_k, bit for bit."""
    scale = sigma2 * T
    if scale >= sys.float_info.min:
        return v0 / scale, v1 / scale, v2 / scale
    return v0 / sigma2 / T, v1 / sigma2 / T, v2 / sigma2 / T


def _reduced_root(
    sigma2: float, T: float, v0: float, v1: float, v2: float
) -> tuple[float, float, None]:
    """Regime-3 optimum as the sign change of the reduced t1 slope.

    In units u = t/T and a_k = v_k/(sigma2*T) the problem has sigma2 = T = 1.
    For a fixed u the best second instant is u + optimal_gap(u), so by the
    envelope theorem the slope of the reduced cost is the t1 slope there; it
    changes sign once on [0, 1] (at u = 1 the gap is 0, and the slope is
    a0 + 1 > 0 bit for bit, so it is not evaluated), and the final bracket,
    1e-13 plus a few ulps wide, certifies the root.  At sigma2 = T = 1 it
    returns u1 and u2 bit for bit.
    """
    a0, a1, a2 = _reduced(sigma2, T, v0, v1, v2)
    u1 = _slope_sign_change(partial(_reduced_slope, a0, a1, a2, None), 1.0, a0 + 1.0)
    return u1 * T, (u1 + _optimal_gap(1.0, 1.0, a0, a1, a2, u1)) * T, None


def optimize_two(
    sigma2: float, T: float, v0: float, v1: float, v2: float
) -> TwoMeasureSolution:
    """Optimal schedule of two measurements on [0, T].

    The regime comes from comparing T with the two critical durations T2_crit
    and T1_crit (see :func:`classify_regime`), and the solve takes that
    regime's path.  Regime 1 returns (0, 0) and regime 2 returns (0, t2) with
    t2 = optimal_gap(0), the one-measure optimum for the merged prior
    v0 || v1; both are closed-form.  Regime 3 solves the problem in
    dimensionless units u = t/T, where it reduces to one root: the single
    sign change, on [0, 1], of the t1 slope along the curve
    u -> (u, u + optimal_gap(u)), found by Chandrupatla's method
    (:func:`numerics.bracketed_root`) in about 6.4 evaluations of the slope
    body ``_reduced_slope`` to a bracket of 1e-13 (a fraction of T) plus a
    few ulps, as in the t1 line search of :func:`descend_two`, which roots
    the same body.  Its answer is the same fraction of T at every time and
    variance scale, and the loop always ends: past its evaluation budget the
    root raises :class:`numerics.RootBudgetExceeded`, a ``RuntimeError``.
    The result carries no trace; :func:`descend_two` runs the paper's
    coordinate descent instead.

    The arguments are validated once, here.
    """
    return _solve(sigma2, T, v0, v1, v2, _reduced_root)


def _descend(
    sigma2: float, T: float, v0: float, v1: float, v2: float, opts: DescentOptions
) -> tuple[float, float, DescentTrace]:
    """Coordinate descent from the regime-2 schedule in units of T,
    cross-checked against the reduced regime-3 root; see :func:`descend_two`."""
    a0, a1, a2 = _reduced(sigma2, T, v0, v1, v2)

    def step(u1: float, u2: float, d1: float, d2: float) -> tuple[float, ...]:
        t1, t2 = u1 * T, u2 * T
        return t1, t2, _cost_pair(sigma2, T, v0, v1, v2, t1, t2), d1 * T, d2 * T

    u2 = _optimal_gap(1.0, 1.0, a0, a1, a2, 0.0)
    u1 = _line_search_t1(a0, a1, a2, u2)
    steps = [step(u1, u2, math.nan, math.nan)]
    d1 = d2 = math.nan
    for _ in range(opts.max_iterations):
        u2_new = u1 + _optimal_gap(1.0, 1.0, a0, a1, a2, u1)
        u1_new = _line_search_t1(a0, a1, a2, u2_new)
        d1, d2 = abs(u1_new - u1), abs(u2_new - u2)
        u1, u2 = u1_new, u2_new
        steps.append(step(u1, u2, d1, d2))
        if d1 < opts.step_tol and d2 < opts.step_tol:
            break
    else:
        raise RuntimeError(
            f"coordinate descent did not converge within {opts.max_iterations} "
            f"iterations (last steps {d1:.3e}, {d2:.3e} of T)"
        )

    b1, b2, _ = _reduced_root(1.0, 1.0, a0, a1, a2)
    if max(abs(b1 - u1), abs(b2 - u2)) > _CROSS_CHECK_TOL:
        raise RuntimeError(
            "coordinate descent and the reduced regime-3 root disagree: "
            f"descent t/T = ({u1}, {u2}) vs root ({b1}, {b2})"
        )

    gap = _optimal_gap(1.0, 1.0, a0, a1, a2, u1) - _critical_spacing(1.0, a0 + u1, a1, a2)
    trace = DescentTrace(iterations=tuple(steps), converged=True, final_gap=gap * T)
    return steps[-1][0], steps[-1][1], trace


def descend_two(
    sigma2: float,
    T: float,
    v0: float,
    v1: float,
    v2: float,
    options: DescentOptions | None = None,
) -> TwoMeasureSolution:
    """Optimal schedule of two measurements by the paper's coordinate descent.

    The reference algorithm.  The regime decision and the closed forms of
    regimes 1 and 2 are those of :func:`optimize_two`.  Regime 3 runs
    coordinate descent from the regime-2 schedule in the units of
    :func:`optimize_two` (u = t/T, a_k = v_k/(sigma2*T)): the t2 update is
    the one-measure reduction (:func:`optimal_gap`), and the t1 update finds
    the sign change of the t1 slope on [0, u2] with the bracketed root of
    :func:`optimize_two` (the cost is quasi-convex in t1, so its minimizer is
    that sign change or an end of the interval).

    Every stop rule is a fraction of T.  Iteration stops when both
    coordinate steps drop below ``options.step_tol`` times T, and the result
    is always cross-checked against the reduced root of :func:`optimize_two`,
    which solves the same stationarity system: either instant more than
    1e-5*T away from it, like non-convergence, raises ``RuntimeError``.  So
    t/T and the pass or fail do not depend on the time and variance scale,
    up to rounding.  In regime 3 the solution carries the descent's trace.
    """
    opts = options or DescentOptions()
    return _solve(sigma2, T, v0, v1, v2, lambda *args: _descend(*args, opts))
