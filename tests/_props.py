"""Randomized property suites shared between the module tests and the
acceptance suite (which runs them at full sample counts), and a deadline for
calls that must end."""

from __future__ import annotations

import math
import signal
from contextlib import contextmanager

import numpy as np

from bmsched import numerics, one_measure, two_measure


def check_one_measure_shape_properties(n_samples: int, seed: int = 7) -> None:
    """Monotonicity, concavity, asymptote and limit behavior of the optimal
    single-measurement instant."""
    rng = np.random.default_rng(seed)
    for _ in range(n_samples):
        sigma2 = float(rng.uniform(0.3, 3.0))
        v0 = float(rng.uniform(0.0, 4.0))
        v1 = float(rng.uniform(0.0, 4.0))
        t_crit = one_measure.critical_duration_1(sigma2, v0, v1)

        def t_opt(T, s2=sigma2, a=v0, b=v1):
            return one_measure.optimal_instant_1(s2, T, a, b).t_opt

        # nondecreasing in T, constant 0 below the critical duration
        T_lo = max(t_crit, 0.05)
        Ts = np.linspace(0.2 * T_lo, T_lo + 5.0, 40)
        vals = [t_opt(float(T)) for T in Ts]
        assert all(b - a >= -1e-12 for a, b in zip(vals, vals[1:]))
        if t_crit > 0:
            assert t_opt(0.5 * t_crit) == 0.0
            assert t_opt(t_crit) == 0.0

        # strictly increasing and concave past the critical duration
        Ts = np.linspace(T_lo + 1e-6, T_lo + 6.0, 50)
        vals = np.array([t_opt(float(T)) for T in Ts])
        diffs = np.diff(vals)
        assert np.all(diffs > 0)
        assert np.all(np.diff(diffs) <= 1e-9)

        # monotone in the variances
        T = float(rng.uniform(0.2, 6.0))
        lo, hi = sorted(rng.uniform(0.0, 4.0, size=2))
        assert (
            one_measure.optimal_instant_1(sigma2, T, hi, v1).t_opt
            <= one_measure.optimal_instant_1(sigma2, T, lo, v1).t_opt + 1e-12
        )
        assert (
            one_measure.optimal_instant_1(sigma2, T, v0, hi).t_opt
            >= one_measure.optimal_instant_1(sigma2, T, v0, lo).t_opt - 1e-12
        )

        # dominated by the asymptote whenever interior
        t = t_opt(T)
        if t > 0:
            assert t < (sigma2 * T + v1 - v0) / (2.0 * sigma2)

        # asymptote reached for very long horizons
        T_far = 1e6
        asym = (sigma2 * T_far + v1 - v0) / (2.0 * sigma2)
        assert abs(t_opt(T_far) - asym) < 1e-3

        # nearly-useless sensor matches the analytic limit
        limit = max(0.0, (2.0 * sigma2 * T - v0) / (3.0 * sigma2))
        assert abs(one_measure.optimal_instant_1(sigma2, T, v0, 1e9).t_opt - limit) < 1e-4


def check_scaling_equivariance(n_samples: int, seed: int = 11) -> None:
    """Stretching time by alpha while dividing the diffusion rate by alpha
    stretches the optimal instant by alpha."""
    rng = np.random.default_rng(seed)
    for _ in range(n_samples):
        sigma2 = float(rng.uniform(0.3, 3.0))
        T = float(rng.uniform(0.1, 6.0))
        v0 = float(rng.uniform(0.0, 4.0))
        v1 = float(rng.uniform(0.0, 4.0))
        base = one_measure.optimal_instant_1(sigma2, T, v0, v1).t_opt
        for alpha in (0.1, 2.0, 10.0):
            scaled = one_measure.optimal_instant_1(sigma2 / alpha, alpha * T, v0, v1).t_opt
            assert math.isclose(scaled, alpha * base, rel_tol=1e-9, abs_tol=1e-12)


def check_one_measure_derivative(n_points: int, seed: int = 13) -> None:
    """Analytic slope of the one-measure cost against central differences,
    and stationarity at interior optima."""
    rng = np.random.default_rng(seed)
    h = 1e-6
    for _ in range(n_points):
        sigma2 = float(rng.uniform(0.3, 3.0))
        T = float(rng.uniform(0.5, 5.0))
        v0 = float(rng.uniform(0.0, 4.0))
        v1 = float(rng.uniform(0.0, 4.0))
        t1 = float(rng.uniform(2 * h, T - 2 * h))
        exact = one_measure.cost_derivative(sigma2, T, v0, v1, t1)
        approx = numerics.finite_diff(
            lambda u: one_measure.cost_single(sigma2, T, v0, v1, u), t1, h
        )
        assert abs(exact - approx) < 1e-5
        sol = one_measure.optimal_instant_1(sigma2, T, v0, v1)
        if sol.t_opt > 0:
            assert abs(one_measure.cost_derivative(sigma2, T, v0, v1, sol.t_opt)) < 1e-8


def check_two_measure_derivative(n_points: int, seed: int = 17) -> None:
    """Analytic t1 slope of the two-measure cost against central differences."""
    rng = np.random.default_rng(seed)
    h = 1e-6
    for _ in range(n_points):
        sigma2 = float(rng.uniform(0.3, 3.0))
        T = float(rng.uniform(0.5, 5.0))
        v0 = float(rng.uniform(0.0, 4.0))
        v1 = float(rng.uniform(0.0, 4.0))
        v2 = float(rng.uniform(0.0, 4.0))
        t2 = float(rng.uniform(0.3 * T, T - 2 * h))
        t1 = float(rng.uniform(2 * h, t2 - 2 * h))
        exact = two_measure.cost_derivative_t1(sigma2, T, v0, v1, v2, t1, t2)
        approx = numerics.finite_diff(
            lambda u: two_measure.cost_pair(sigma2, T, v0, v1, v2, u, t2), t1, h
        )
        assert abs(exact - approx) < 1e-5


def draw_two_measure_instance(rng: np.random.Generator) -> tuple[float, float, float, float, float]:
    """Random (sigma2, T, v0, v1, v2) spanning all three regimes, with the
    horizon capped so oracle grids stay affordable."""
    sigma2 = 1.0
    v0 = float(rng.uniform(0.0, 3.0))
    v1 = float(rng.uniform(0.05, 3.0))
    v2 = float(rng.uniform(0.05, 3.0))
    t2c = two_measure.critical_duration_2_second(sigma2, v0, v1, v2)
    t1c = two_measure.critical_duration_2_first(sigma2, v0, v1, v2)
    u = float(rng.uniform())
    if u < 0.25 and t2c > 0.05:
        T = float(rng.uniform(0.5 * t2c, t2c))
    elif u < 0.5:
        T = float(rng.uniform(t2c, max(t1c, t2c + 0.1)))
    else:
        lo = min(t1c, 4.0)
        T = float(rng.uniform(lo, min(lo + 3.0, 4.25))) + 0.05
    T = min(max(T, 0.05), 4.3)
    return sigma2, T, v0, v1, v2


class DeadlineExceeded(Exception):
    """Raised inside a call that outlived :func:`deadline`."""


@contextmanager
def deadline(seconds: float):
    """Raise :class:`DeadlineExceeded` in the body after ``seconds`` of wall
    time, so that a test of a loop that must end fails instead of hanging."""

    def expire(signum, frame):
        raise DeadlineExceeded(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
