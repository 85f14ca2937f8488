"""Optimal instants for two measurements.

Three regimes exist depending on the horizon length T.  For short horizons
both measurements happen at 0; past a first critical duration only the second
one leaves 0; past a second critical duration both are interior.  The
regime-2/3 boundary is governed by a cubic in sigma2*t2 whose coefficient sign
pattern (one sign change) guarantees a unique positive root.  The optimizers
compare T with the two critical durations once and take the path of the
regime that comparison gives; regimes 1 and 2 are closed-form.

In regime 3 the optimum solves a two-equation stationarity system.
``optimize_two`` solves it in dimensionless units (u = t/T, a_k =
v_k/(sigma2*T)) as one root: for a fixed first instant the best second one is
closed-form, so the optimal u1 is the single sign change of the t1 slope
along that curve, which Brent's method finds in about 8 slope evaluations.
``descend_two`` keeps the paper's algorithm as the reference: coordinate
descent with golden-section line searches, always cross-checked against the
stationarity system (a bracket around the descent's answer certifies that
the stationarity root lies within tolerance, and only when the certificate
fails does a bisection on the stationarity gap locate the root).  It returns
the descent's trace.

The public functions validate their arguments.  The optimizers validate once
on entry; their inner loops then call unchecked bodies (``_cost_pair``,
``_optimal_gap`` and the one-measure and parallel-sum bodies they use) with
the same arithmetic, so they return the same bits.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from .kalman import _check_domain, _check_finite, _check_positive
from .kalman import _parallel_sum, parallel_sum
from .numerics import bisect_root, brent_root, golden_section_min
from .one_measure import _noise_ratio, _optimal_instant, critical_duration_1
from .one_measure import duration_from_instant, optimal_instant_1

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
    "solve_stationarity",
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


# bracket width of the golden-section t1 line search
_GOLDEN_TOL = 1e-10
# bracket width of the stationarity bisection
_STATIONARITY_TOL = 1e-12
# largest allowed distance between the descent and the stationarity solution
_CROSS_CHECK_TOL = 1e-5
# half-width, in t1, of the bracket that certifies the cross-check
_CERTIFICATE_RADIUS = _CROSS_CHECK_TOL / 4
# bracket width, in u = t1/T, of the reduced regime-3 root
_ROOT_TOL = 1e-13


@dataclass(frozen=True)
class DescentOptions:
    step_tol: float = 1e-9
    max_iterations: int = 200


@dataclass(frozen=True)
class DescentTrace:
    """Per-iteration record of the coordinate descent.

    Iteration 0 is the starting point (its step sizes are NaN); later entries
    hold (t1, t2, cost, |step in t1|, |step in t2|).  ``final_gap`` is
    optimal_gap - equilibrium_gap at the returned t1 and vanishes at the
    regime-3 optimum.
    """

    iterations: tuple[tuple[float, float, float, float, float], ...]
    converged: bool
    final_gap: float


@dataclass(frozen=True)
class TwoMeasureSolution:
    t1_opt: float
    t2_opt: float
    regime: TwoMeasureRegime
    cost_at_opt: float
    T2_crit: float
    T1_crit: float
    trace: DescentTrace | None = field(default=None)


def cost_pair(
    sigma2: float, T: float, v0: float, v1: float, v2: float, t1: float, t2: float
) -> float:
    """Integral cost of measuring at t1 and t2 (0 <= t1 <= t2 <= T)."""
    _check_positive(sigma2=sigma2, T=T)
    _check_domain(v0=v0, v1=v1, v2=v2)
    return _cost_pair(sigma2, T, v0, v1, v2, t1, t2)


def _cost_pair(
    sigma2: float, T: float, v0: float, v1: float, v2: float, t1: float, t2: float
) -> float:
    """:func:`cost_pair` for validated sigma2, T and variances; the order of
    the instants is still checked."""
    if not (0.0 <= t1 <= t2 <= T):
        raise ValueError(f"need 0 <= t1 <= t2 <= T, got t1={t1}, t2={t2}, T={T}")
    gap = t2 - t1
    post1 = _parallel_sum(v1, v0 + sigma2 * t1)
    post2 = _parallel_sum(v2, post1 + sigma2 * gap)
    return (
        0.5 * sigma2 * t1 * t1
        + v0 * t1
        + 0.5 * sigma2 * gap * gap
        + post1 * gap
        + 0.5 * sigma2 * (T - t2) ** 2
        + post2 * (T - t2)
    )


def cost_derivative_t1(
    sigma2: float, T: float, v0: float, v1: float, v2: float, t1: float, t2: float
) -> float:
    """Partial derivative of :func:`cost_pair` with respect to t1.

    With g = v0 + sigma2*t1 and post1 = v1 || g:

        (g / (g + v1)) * (g - (1 + v1/(v1+g)) * sigma2
            * (v2^2*(T - t2)/(v2 + sigma2*(t2-t1) + post1)^2 + (t2 - t1)))
    """
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
    ratio = _noise_ratio(v1, g)
    post1 = _parallel_sum(v1, g)
    denom = v2 + sigma2 * (t2 - t1) + post1
    inner = (t2 - t1) if denom == 0.0 else v2 * v2 * (T - t2) / (denom * denom) + (t2 - t1)
    return g - (1.0 + ratio) * sigma2 * inner


def _line_search_t1(
    sigma2: float, T: float, v0: float, v1: float, v2: float, t2: float
) -> float:
    """Minimize t1 -> cost over [0, t2]: golden-section search, then a
    derivative-sign polish.

    Near the minimum the cost is flat to float precision over a region of
    width ~sqrt(eps*J), so the golden result wanders there and consecutive
    line searches would never agree to 1e-9.  Bisecting the analytic slope
    inside a narrow bracket around the golden result pins the minimizer
    deterministically.  When t2 = 0 (a horizon so short that the regime-2
    instant rounds to 0), 0 is the only point of the interval.
    """
    if t2 == 0.0:
        return 0.0
    x = golden_section_min(
        lambda u: _cost_pair(sigma2, T, v0, v1, v2, u, t2), 0.0, t2, _GOLDEN_TOL
    )
    width = 1e-6 * max(1.0, t2)
    lo, hi = max(0.0, x - width), min(t2, x + width)
    slope_lo = _t1_slope_factor(sigma2, T, v0, v1, v2, lo, t2)
    if slope_lo >= 0.0:
        return lo
    slope_hi = _t1_slope_factor(sigma2, T, v0, v1, v2, hi, t2)
    if slope_hi <= 0.0:
        return hi
    return bisect_root(
        lambda u: _t1_slope_factor(sigma2, T, v0, v1, v2, u, t2),
        lo,
        hi,
        tol=1e-13 * max(1.0, hi),
    )


def cubic_coeffs(v0: float, v1: float, v2: float) -> CubicCoeffs:
    """Boundary cubic coefficients, exact polynomials in the variances."""
    _check_finite(v0=v0, v1=v1, v2=v2)
    a = -((v0 + v1) ** 2) * (v0 + 2.0 * v1)
    b = (v0 + v1) * (v0**3 - 3.0 * ((v0 + v1) * (v0 + 2.0 * v1) * v2 + v0 * v1 * v1))
    c = v2 * b + v0 * v0 * (2.0 * v0 + 3.0 * v1) * (v0 * v1 + v0 * v2 + v1 * v2)
    d = v0 * v0 * (v1 + v2) * (v0 + v1) * (v0 * v1 + 2.0 * v0 * v2 + 3.0 * v1 * v2)
    return CubicCoeffs(a, b, c, d)


def critical_spacing(sigma2: float, v0: float, v1: float, v2: float) -> float:
    """Largest second-measure instant t2 for which (0, t2) can be optimal.

    sigma2 * t2 is the unique positive root of the boundary cubic, bracketed
    by a coefficient bound and isolated by bisection (the cubic is positive
    before the root and negative after, so the bracket is unconditionally
    safe).  Zero when v0 = 0.
    """
    _check_positive(sigma2=sigma2)
    _check_finite(v0=v0, v1=v1, v2=v2)
    if v0 == 0.0:
        return 0.0
    cub = cubic_coeffs(v0, v1, v2)
    hi = 1.0 + (abs(cub.b) + abs(cub.c) + abs(cub.d)) / abs(cub.a)
    lo = 0.0
    while hi - lo > 1e-12 * max(hi, 1.0):
        mid = 0.5 * (lo + hi)
        if cub.evaluate(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi) / sigma2


def critical_duration_2_second(sigma2: float, v0: float, v1: float, v2: float) -> float:
    """Largest horizon for which both measurements at 0 is optimal; equals the
    one-measure critical duration with prior v0 || v1 and sensor v2."""
    _check_positive(sigma2=sigma2)
    _check_finite(v0=v0, v1=v1, v2=v2)
    return critical_duration_1(sigma2, parallel_sum(v0, v1), v2)


def critical_duration_2_first(sigma2: float, v0: float, v1: float, v2: float) -> float:
    """Largest horizon for which the first measurement stays at 0."""
    _check_positive(sigma2=sigma2)
    _check_finite(v0=v0, v1=v1, v2=v2)
    if v0 == 0.0:
        # every horizon is regime 3; the formula below would leave a rounding
        # residue of either sign
        return 0.0
    spacing = critical_spacing(sigma2, v0, v1, v2)
    return duration_from_instant(sigma2, spacing, parallel_sum(v0, v1), v2)


def _regime(T: float, t2_crit: float, t1_crit: float) -> TwoMeasureRegime:
    """Regime of horizon T given both critical durations; a horizon exactly
    equal to a critical duration belongs to the lower regime."""
    if T <= t2_crit:
        return TwoMeasureRegime.REGIME1
    if T <= t1_crit:
        return TwoMeasureRegime.REGIME2
    return TwoMeasureRegime.REGIME3


def classify_regime(
    sigma2: float, T: float, v0: float, v1: float, v2: float
) -> TwoMeasureRegime:
    """Regime of the optimal schedule; a horizon exactly equal to a critical
    duration belongs to the lower regime."""
    _check_positive(sigma2=sigma2, T=T)
    return _regime(
        T,
        critical_duration_2_second(sigma2, v0, v1, v2),
        critical_duration_2_first(sigma2, v0, v1, v2),
    )


def optimal_gap(
    sigma2: float, T: float, v0: float, v1: float, v2: float, t1: float
) -> float:
    """Best spacing t2 - t1 when the first measurement is pinned at t1
    (one-measure reduction over the remaining horizon); nonincreasing in t1
    and continued by 0 for t1 >= T."""
    _check_positive(sigma2=sigma2, T=T)
    _check_domain(t1=t1)
    if t1 >= T:
        return 0.0
    prior = parallel_sum(v0 + sigma2 * t1, v1)
    return optimal_instant_1(sigma2, T - t1, prior, v2).t_opt


def _optimal_gap(
    sigma2: float, T: float, v0: float, v1: float, v2: float, t1: float
) -> float:
    """:func:`optimal_gap` for validated operands (and 0 <= t1)."""
    if t1 >= T:
        return 0.0
    prior = _parallel_sum(v0 + sigma2 * t1, v1)
    return _optimal_instant(sigma2, T - t1, prior, v2)[0]


def equilibrium_gap(
    sigma2: float, v0: float, v1: float, v2: float, t1: float
) -> float:
    """Spacing that makes the first measurement stationary when it happens at
    t1 (critical spacing for the inflated prior v0 + sigma2*t1); strictly
    increasing in t1."""
    _check_domain(t1=t1)
    return critical_spacing(sigma2, v0 + sigma2 * t1, v1, v2)


def _stationarity_root(
    sigma2: float, T: float, v0: float, v1: float, v2: float
) -> tuple[float, float]:
    def gap_mismatch(t1: float) -> float:
        return _optimal_gap(sigma2, T, v0, v1, v2, t1) - equilibrium_gap(
            sigma2, v0, v1, v2, t1
        )

    # Exactly on the regime-2/3 boundary (up to rounding) the root is t1 = 0.
    if gap_mismatch(0.0) <= 0.0:
        return 0.0, equilibrium_gap(sigma2, v0, v1, v2, 0.0)
    t1 = bisect_root(gap_mismatch, 0.0, T, tol=_STATIONARITY_TOL)
    return t1, t1 + equilibrium_gap(sigma2, v0, v1, v2, t1)


def _cross_check_certified(
    sigma2: float, T: float, v0: float, v1: float, v2: float, t1: float, t2: float
) -> bool:
    """Whether the stationarity root provably lies within ``_CROSS_CHECK_TOL``
    of the descent's (t1, t2), so that bisecting for it can be skipped.

    The gap mismatch m = optimal_gap - equilibrium_gap strictly decreases in
    t1.  So if m(lo) > 0 (or lo = 0) and m(hi) < 0, the root b1 lies in
    [lo, hi] = [t1 - r, t1 + r] clipped to [0, T], and, t1 + equilibrium_gap(t1)
    being increasing, its b2 = b1 + equilibrium_gap(b1) lies in
    [lo + eq(lo), hi + eq(hi)].  An acceptance therefore implies that the
    bisection would have passed the cross-check.
    """
    lo, hi = max(0.0, t1 - _CERTIFICATE_RADIUS), min(T, t1 + _CERTIFICATE_RADIUS)
    # equilibrium_gap is a bisection that stops at a bracket of 1e-12*max(x, 1)
    # in x = sigma2*t2, which is 1e-12*max(t2, 1/sigma2) in time; closer to 0
    # than ten times that, a sign of m or a distance is not trusted
    slack = 1e-11 * max(t2, 1.0 / sigma2)
    eq_hi = equilibrium_gap(sigma2, v0, v1, v2, hi)
    if not _optimal_gap(sigma2, T, v0, v1, v2, hi) - eq_hi < -slack:
        return False
    eq_lo = equilibrium_gap(sigma2, v0, v1, v2, lo)
    if lo > 0.0 and not _optimal_gap(sigma2, T, v0, v1, v2, lo) - eq_lo > slack:
        return False
    # the bisection for b1 stops at a bracket of _STATIONARITY_TOL
    reach = max(t2 - (lo + eq_lo), hi + eq_hi - t2)
    return reach <= _CROSS_CHECK_TOL - slack - 2.0 * _STATIONARITY_TOL


def solve_stationarity(
    sigma2: float, T: float, v0: float, v1: float, v2: float
) -> tuple[float, float]:
    """Regime-3 optimum from the stationarity system.

    The gap between optimal_gap (nonincreasing in t1) and equilibrium_gap
    (strictly increasing) changes sign exactly once on [0, T]; bisection on it
    gives t1, and t2 = t1 + equilibrium_gap(t1).
    """
    _check_positive(sigma2=sigma2, T=T)
    if classify_regime(sigma2, T, v0, v1, v2) is not TwoMeasureRegime.REGIME3:
        raise ValueError(
            "solve_stationarity requires regime 3 "
            f"(T={T} does not exceed the first critical duration)"
        )
    return _stationarity_root(sigma2, T, v0, v1, v2)


def _merged_prior_instant(
    sigma2: float, T: float, v0: float, v1: float, v2: float
) -> float:
    """t2 of the regime-2 schedule (0, t2): the one-measure optimum for the
    prior v0 || v1 and sensor v2."""
    return _optimal_instant(sigma2, T, _parallel_sum(v0, v1), v2)[0]


def _solve(sigma2, T, v0, v1, v2, interior) -> TwoMeasureSolution:
    """Validate once, classify once, and solve: closed forms in regimes 1 and
    2, and ``interior(sigma2, T, v0, v1, v2) -> (t1, t2, trace)`` in regime 3."""
    _check_positive(sigma2=sigma2, T=T)
    _check_finite(v0=v0, v1=v1, v2=v2)
    t2_crit = critical_duration_2_second(sigma2, v0, v1, v2)
    t1_crit = critical_duration_2_first(sigma2, v0, v1, v2)
    regime = _regime(T, t2_crit, t1_crit)
    trace = None
    if regime is TwoMeasureRegime.REGIME1:
        t1 = t2 = 0.0
    elif regime is TwoMeasureRegime.REGIME2:
        t1, t2 = 0.0, _merged_prior_instant(sigma2, T, v0, v1, v2)
    else:
        t1, t2, trace = interior(sigma2, T, v0, v1, v2)
    return TwoMeasureSolution(
        t1_opt=t1,
        t2_opt=t2,
        regime=regime,
        cost_at_opt=_cost_pair(sigma2, T, v0, v1, v2, t1, t2),
        T2_crit=t2_crit,
        T1_crit=t1_crit,
        trace=trace,
    )


def _reduced_root(
    sigma2: float, T: float, v0: float, v1: float, v2: float
) -> tuple[float, float, None]:
    """Regime-3 optimum as the sign change of the reduced t1 slope.

    In units u = t/T and a_k = v_k/(sigma2*T) the problem has sigma2 = T = 1.
    For a fixed u the best second instant is u + optimal_gap(u), so by the
    envelope theorem the slope of the reduced cost is the t1 slope there; it
    changes sign once on [0, 1] (it is a0 + 1 > 0 at u = 1), and the final
    bracket of Brent's method, 1e-13 plus a few ulps wide, certifies the root.
    """
    scale = sigma2 * T
    a0, a1, a2 = v0 / scale, v1 / scale, v2 / scale

    def slope(u: float) -> float:
        gap = _optimal_gap(1.0, 1.0, a0, a1, a2, u)
        return _t1_slope_factor(1.0, 1.0, a0, a1, a2, u, u + gap)

    s0 = slope(0.0)
    if s0 >= 0.0:
        u1 = 0.0
    else:  # Brent's g(lo) is the slope at 0 already in hand
        u1 = brent_root(lambda u: s0 if u == 0.0 else slope(u), 0.0, 1.0, tol=_ROOT_TOL)
    return u1 * T, (u1 + _optimal_gap(1.0, 1.0, a0, a1, a2, u1)) * T, None


def optimize_two(
    sigma2: float, T: float, v0: float, v1: float, v2: float
) -> TwoMeasureSolution:
    """Optimal schedule of two measurements on [0, T].

    The regime comes from comparing T with the two critical durations T2_crit
    and T1_crit (see :func:`classify_regime`), and the solve takes that
    regime's path.  Regime 1 returns (0, 0) and regime 2 returns (0, t2) with
    t2 the one-measure optimum for the merged prior; both are closed-form.
    Regime 3 solves the problem in dimensionless units u = t/T, where it
    reduces to one root: the single sign change, on [0, 1], of the t1 slope
    along the curve u -> (u, u + optimal_gap(u)), found by Brent's method
    (:func:`numerics.brent_root`) to a bracket of 1e-13 plus a few ulps.  Its
    answer is therefore the same fraction of T at every time and variance
    scale, and the loop always ends: past its evaluation budget the root
    raises :class:`numerics.RootBudgetExceeded`, a ``RuntimeError``.  The
    result carries no trace; :func:`descend_two` runs the paper's coordinate
    descent instead.

    The arguments are validated once, here.
    """
    return _solve(sigma2, T, v0, v1, v2, _reduced_root)


def _descend(
    sigma2: float, T: float, v0: float, v1: float, v2: float, opts: DescentOptions
) -> tuple[float, float, DescentTrace]:
    """Coordinate descent from the regime-2 schedule, cross-checked against
    the stationarity system; see :func:`descend_two`."""
    t2 = _merged_prior_instant(sigma2, T, v0, v1, v2)
    t1 = _line_search_t1(sigma2, T, v0, v1, v2, t2)
    steps = [(t1, t2, _cost_pair(sigma2, T, v0, v1, v2, t1, t2), math.nan, math.nan)]
    d1 = d2 = math.nan
    converged = False
    for _ in range(opts.max_iterations):
        t2_new = t1 + _optimal_gap(sigma2, T, v0, v1, v2, t1)
        t1_new = _line_search_t1(sigma2, T, v0, v1, v2, t2_new)
        d1, d2 = abs(t1_new - t1), abs(t2_new - t2)
        t1, t2 = t1_new, t2_new
        steps.append((t1, t2, _cost_pair(sigma2, T, v0, v1, v2, t1, t2), d1, d2))
        if d1 < opts.step_tol and d2 < opts.step_tol:
            converged = True
            break
    if not converged:
        raise RuntimeError(
            f"coordinate descent did not converge within {opts.max_iterations} "
            f"iterations (last steps {d1:.3e}, {d2:.3e})"
        )

    if not _cross_check_certified(sigma2, T, v0, v1, v2, t1, t2):
        b1, b2 = _stationarity_root(sigma2, T, v0, v1, v2)
        if max(abs(b1 - t1), abs(b2 - t2)) > _CROSS_CHECK_TOL:
            raise RuntimeError(
                "coordinate descent and the stationarity solver disagree: "
                f"descent ({t1}, {t2}) vs bisection ({b1}, {b2})"
            )

    gap_residual = _optimal_gap(sigma2, T, v0, v1, v2, t1) - equilibrium_gap(
        sigma2, v0, v1, v2, t1
    )
    trace = DescentTrace(
        iterations=tuple(steps), converged=converged, final_gap=gap_residual
    )
    return t1, t2, trace


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
    coordinate descent from the regime-2 schedule: the t2 update is the
    one-measure reduction, the t1 update is a golden-section line search, and
    iteration stops when both coordinate steps drop below
    ``options.step_tol``.  The result is always cross-checked against the
    stationarity system of :func:`solve_stationarity`: a bracket of the
    stationarity root around the descent's t1 certifies agreement within
    tolerance, and the bisection runs only when that certificate fails.  A
    disagreement, like non-convergence, raises ``RuntimeError``.  In regime 3
    the solution carries the descent's trace.

    The stop rules are absolute widths in time, so at large time scales the
    descent can fail to converge where :func:`optimize_two` does not.
    """
    opts = options or DescentOptions()
    return _solve(sigma2, T, v0, v1, v2, lambda *args: _descend(*args, opts))
