"""Generic numeric kernels and brute-force grid oracles.

The oracles evaluate the integral cost directly from the variance recursion on
a dense lattice, independently of any closed-form optimizer, so they can serve
as ground truth in tests.  Both oracles stream their lattice through blocks of
about ``_BLOCK_CELLS`` points that stay in cache and keep no full cost array:
the one-instant oracle keeps each block's minimum, and the two-instant oracle
fills only the triangle t1 <= t2 of its m x m lattice, in row blocks, keeping
each block's minimum.  So their memory is a few blocks (the lattice itself is
one array of m points), whatever m is.  The lattice costs come from the
kernels of ``kalman``; an overflowing one raises ValueError.

The oracles skip each block whose lower bound, less a relative 1e-12 for
rounding, exceeds the least cost filled before it: every cost term is >= 0 and
each posterior variance grows with the instants before it, so a convex quadratic
bounds each lattice row's (two instants) or block's (one instant) costs from
below.  Where an input could leave the normal floats every block is filled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .kalman import ModelParams, _check_domain, _cost_one, _cost_two, _post_variance

__all__ = [
    "GOLDEN_RATIO_CONJUGATE",
    "GridOracleResult",
    "golden_section_min",
    "bisect_root",
    "bracketed_root",
    "RootBudgetExceeded",
    "grid_oracle_1",
    "grid_oracle_2",
]

GOLDEN_RATIO_CONJUGATE = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class GridOracleResult:
    """Argmin of an exhaustive lattice search, optionally refined locally."""

    argmin: tuple[float, ...]
    min_value: float
    grid_step: float
    refined: bool


def golden_section_min(
    f: Callable[[float], float], lo: float, hi: float, tol: float
) -> float:
    """Minimize a quasi-convex function on [lo, hi] to within tol.

    The bracket shrinks by the golden ratio conjugate per iteration with one
    function evaluation each.  The search also stops when an iteration
    leaves the bracket no narrower, which happens only once it spans a few
    floats (a tol below their spacing would otherwise never be met).
    """
    if not lo < hi:
        raise ValueError(f"golden_section_min needs lo < hi, got [{lo}, {hi}]")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    rho = GOLDEN_RATIO_CONJUGATE
    a, b = lo, hi
    c = b - rho * (b - a)
    d = a + rho * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        width = b - a
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - rho * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + rho * (b - a)
            fd = f(d)
        if b - a >= width:
            break
    return 0.5 * (a + b)


def bisect_root(g: Callable[[float], float], lo: float, hi: float, tol: float) -> float:
    """Root of a sign-changing function by bisection, to within tol.

    The bisection also stops when lo and hi are adjacent floats, whose
    midpoint is one of them (a tol below their spacing would otherwise never
    be met).  No path of the package calls it.  It stays until the benchmark's
    tracer, bench/tracing.py, which spans it by name, is re-pointed (ROADMAP
    item 1).
    """
    if not lo < hi:
        raise ValueError(f"bisect_root needs lo < hi, got [{lo}, {hi}]")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    glo, ghi = g(lo), g(hi)
    if glo == 0.0:
        return lo
    if ghi == 0.0:
        return hi
    # signs, not the sign of glo*ghi, which underflows to 0 for tiny values
    if (glo > 0) == (ghi > 0):
        raise ValueError(f"bisect_root needs a sign change, got g(lo)={glo}, g(hi)={ghi}")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        gm = g(mid)
        if gm == 0.0:
            return mid
        if (glo > 0) != (gm > 0):
            hi, ghi = mid, gm
        else:
            lo, glo = mid, gm
    return 0.5 * (lo + hi)


class RootBudgetExceeded(RuntimeError):
    """:func:`bracketed_root` spent its evaluations without meeting its tol."""


# evaluations bracketed_root may spend inside its bracket: a simple root of a
# smooth function takes about five, and a triple root, a step or a kink on
# [0, 1] to 1e-13 44 to 59 (bisection there takes 44)
ROOT_MAX_EVALUATIONS = 200
_EPS = math.ulp(1.0)


def bracketed_root(
    g: Callable[[float], float], lo: float, hi: float, g_lo: float, g_hi: float, tol: float
) -> float:
    """Root of g on [lo, hi] by Chandrupatla's method, to within tol, given
    g_lo = g(lo) and g_hi = g(hi) of opposite signs.

    The first step is the secant of the two ends; each later one takes the
    inverse quadratic interpolation of the bracket's ends and the end it
    dropped last where Chandrupatla's test finds it monotone, and bisects
    otherwise, at least tol/2 + 2*eps*|x| inside the bracket (T. R.
    Chandrupatla, *Advances in Engineering Software* 28 (1997) 145-149).
    It returns an exact zero of g, or one end of a sign-change bracket no
    wider than tol + 4*eps*|x|; beyond ``ROOT_MAX_EVALUATIONS`` evaluations
    inside [lo, hi] it raises :class:`RootBudgetExceeded`.
    """
    if not lo < hi:
        raise ValueError(f"bracketed_root needs lo < hi, got [{lo}, {hi}]")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if g_lo == 0.0:
        return lo
    if g_hi == 0.0:
        return hi
    # signs, not the sign of g_lo*g_hi, which underflows to 0 for tiny values
    if (g_lo > 0) == (g_hi > 0):
        raise ValueError(
            f"bracketed_root needs a sign change, got g(lo)={g_lo}, g(hi)={g_hi}"
        )
    # a is the newest point, b the other end of the bracket, c the end dropped last
    a, fa, b, fb = lo, g_lo, hi, g_hi
    t = fa / (fa - fb)
    eps2, half_tol = 2.0 * _EPS, 0.5 * tol
    evaluations = 0
    while True:
        best = a if abs(fa) < abs(fb) else b
        tol1 = eps2 * abs(best) + half_tol
        ba = b - a
        width = abs(ba)
        if width <= 2.0 * tol1:
            return best
        if evaluations == ROOT_MAX_EVALUATIONS:
            raise RootBudgetExceeded(
                f"bracketed_root did not reach tol={tol} within {ROOT_MAX_EVALUATIONS} "
                f"evaluations (bracket [{min(a, b)}, {max(a, b)}])"
            )
        if evaluations:
            xi = (a - b) / (c - b)
            phi = (fa - fb) / (fc - fb)
            psi = 1.0 - phi
            if phi * phi < xi and psi * psi < 1.0 - xi:
                t = (fa / (fb - fa) * fc / (fb - fc)
                     + (c - a) / ba * fa / (fc - fa) * fb / (fc - fb))
            else:
                t = 0.5
        tl = tol1 / width
        if not tl < t < 1.0 - tl:  # also a NaN interpolant
            t = 1.0 - tl if t > 0.5 else tl
        x = a + t * ba
        fx = g(x)
        evaluations += 1
        if fx == 0.0:
            return x
        if (fx > 0) == (fa > 0):
            c, fc = a, fa
        else:
            c, fc = b, fb
            b, fb = a, fa
        a, fa = x, fx


# lattice points per block of every oracle's fill and scan: 256 kB per float64
# temporary, which stays in cache.  On the benchmark's pools (2 CPUs, numpy 2.4)
# 2**14 to 2**16 time alike; 2**13 prunes finer but makes more calls, and it
# and 2**17 are slower
_BLOCK_CELLS = 1 << 15


def _lattice(T: float, step: float) -> np.ndarray:
    if not step > 0:
        raise ValueError(f"step must be positive, got {step}")
    n = max(1, int(round(T / step)))
    return np.linspace(0.0, T, n + 1)


# the kernels sum at most six non-negative terms in about a dozen roundings, so
# costs and bounds lie within a relative 2e-15 of exact where no product of three
# values is subnormal or overflows: where _in_range holds for every value
_BOUND_SHRINK = 1.0 - 1e-12


def _in_range(*values) -> bool:
    return all(2.0**-300 <= v <= 2.0**300 for v in values if 0.0 < v < math.inf)


def _filled_minima(blocks, bounds, fill):
    """fill(block), a block's first minimum (position, cost), of each block but
    those whose shrunk bound exceeds the least cost filled before them."""
    minima, best = [], math.inf
    for block, bound in zip(blocks, bounds):
        if not best < bound * _BOUND_SHRINK:
            minima.append(fill(block))
            best = min(best, minima[-1][1])
    return minima


def _first_min(minima):
    """The (position, cost) pair, out of each block's first minimum in lattice
    order, that one ``np.argmin`` over the whole lattice would pick: the first
    minimum, or the first NaN; ValueError if it is not finite (overflow)."""
    b = int(np.argmin([cost for _, cost in minima]))
    position, cost = minima[b]
    if not np.isfinite(cost):
        raise ValueError(f"the lattice cost overflows: its minimum is {cost}")
    return position, float(cost)


@np.errstate(all="ignore")  # _first_min rejects an overflowing lattice cost
def grid_oracle_1(params: ModelParams, sensor: float, step: float) -> GridOracleResult:
    """Exhaustive search of the one-measurement cost over a t1 lattice,
    followed by a golden-section refinement inside the winning cells.

    The lattice costs are evaluated and searched in blocks of
    ``_BLOCK_CELLS`` points, so memory is the lattice plus one block; only
    the blocks whose lower bound admits the minimum are filled.
    """
    s, T, v0 = params.sigma2, params.horizon, params.prior_variance
    if not sensor >= 0.0:
        _check_domain(sensor=sensor)
    t = _lattice(T, step)
    minima = _filled_minima(
        range(0, len(t), _BLOCK_CELLS), _one_bounds(s, T, v0, sensor, t),
        lambda k0: _block_min(k0, _cost_one(s, T, v0, sensor, t[k0 : k0 + _BLOCK_CELLS])))
    (k,), best_J = _first_min(minima)
    best_t = float(t[k])
    lo, hi = float(t[max(0, k - 1)]), float(t[min(len(t) - 1, k + 1)])
    refined = False
    if hi > lo:
        cand = golden_section_min(
            lambda x: _cost_one(s, T, v0, sensor, x), lo, hi, tol=1e-10
        )
        cand_J = _cost_one(s, T, v0, sensor, cand)
        # keep the lattice point on ties so boundary optima stay exact
        if cand_J < best_J:
            best_t, best_J = cand, cand_J
            refined = True
    return GridOracleResult(
        argmin=(best_t,), min_value=best_J, grid_step=step, refined=refined
    )


def _one_bounds(s, T, v0, v1, t):
    """The least on each block of t of sigma2*(x**2 + (T - x)**2)/2 + v0*x +
    (v1 || v0)*(T - x), at its vertex clipped to the block (-inf outside _in_range)."""
    n, B = len(t), _BLOCK_CELLS
    if not _in_range(s, T, t[1], v0, v1):
        return [-math.inf] * -(-n // B)
    first, last = t[::B], t[np.minimum(np.arange(B - 1, n + B - 1, B), n - 1)]
    half, c = 0.5 * s, _post_variance(v1, v0)
    x = np.clip(0.5 * T + 0.5 * (c - v0) / s, first, last)
    rest = T - x
    return ((half * x) * x + v0 * x + (half * rest) * rest + c * rest).tolist()


def _two_args(params: ModelParams, sensors: Sequence[float]):
    """(sigma2, T, v0, v1, v2) of a two-instant oracle, the sensors checked."""
    if len(sensors) != 2:
        raise ValueError(f"sensors must have exactly 2 entries, got {len(sensors)}")
    v1, v2 = float(sensors[0]), float(sensors[1])
    if not (v1 >= 0.0 and v2 >= 0.0):
        _check_domain(v1=v1, v2=v2)
    return params.sigma2, params.horizon, params.prior_variance, v1, v2


def _row_blocks(m: int):
    """The row blocks [i0, i1) of the triangle t1 <= t2 of an m x m lattice,
    each of about ``_BLOCK_CELLS`` cells."""
    i0 = 0
    while i0 < m:
        i1 = min(m, i0 + max(1, _BLOCK_CELLS // (m - i0)))
        yield i0, i1
        i0 = i1


def _triangle_block(s, T, v0, v1, v2, t, i0, i1):
    """The costs of rows i0 to i1 - 1 of the triangle t1 <= t2 of the lattice
    t x t, from column i0 on, the cells below the diagonal set to inf."""
    rows = t[i0:i1, None]
    Jb = _cost_two(s, T, v0, v1, v2, rows, t[None, i0:])
    corner = Jb[:, : i1 - i0]
    corner[t[None, i0:i1] < rows] = np.inf
    return Jb


def _two_bounds(s, T, v0, v1, v2, t, blocks):
    """The least row bound of each row block (-inf outside _in_range): row t1's
    is the least over d in [0, L = T - t1] of sigma2*(t1**2 + d**2 + (L - d)**2)/2
    + v0*t1 + g1*d + (v2 || g1)*(L - d), g1 = v1 || (v0 + sigma2*t1)."""
    if not _in_range(s, T, t[1], v0, v1, v2):
        return [-math.inf] * len(blocks)
    half, g1 = 0.5 * s, _post_variance(v1, v0 + s * t)
    h = _post_variance(v2, g1.copy())
    L = T - t
    d = np.clip(0.5 * L + 0.5 * (h - g1) / s, 0.0, L)
    e = L - d
    rows = (half * t) * t + v0 * t + (half * d) * d + g1 * d + (half * e) * e + h * e
    return np.minimum.reduceat(rows, [i0 for i0, _ in blocks]).tolist()


def _block_min(i0, Jb):
    """The lattice position and cost of the first minimum of block Jb: of a
    one-instant block from point i0, or a row block from row and column i0."""
    k = np.unravel_index(int(np.argmin(Jb)), Jb.shape)
    return tuple(int(i) + i0 for i in k), Jb[k]


@np.errstate(all="ignore")  # _first_min rejects overflow; cells below t1 <= t2 are masked
def grid_oracle_2(
    params: ModelParams, sensors: Sequence[float], step: float
) -> GridOracleResult:
    """Exhaustive search of the two-measurement cost over the lattice on the
    triangle 0 <= t1 <= t2 <= T, plus coordinatewise refinement.

    The lattice contains the boundary lines t1 = 0, t2 = T and the diagonal
    exactly.  The triangle of the m x m lattice is filled in row blocks of
    about ``_BLOCK_CELLS`` cells, and each block is dropped once its minimum
    is taken.  So memory is a few blocks, whatever m is, and no m x m cost
    matrix exists.  Only the blocks whose lower bound admits the minimum are
    filled.
    """
    s, T, v0, v1, v2 = _two_args(params, sensors)
    t = _lattice(T, step)
    blocks = list(_row_blocks(len(t)))
    minima = _filled_minima(
        blocks, _two_bounds(s, T, v0, v1, v2, t, blocks),
        lambda b: _block_min(b[0], _triangle_block(s, T, v0, v1, v2, t, *b)))
    (i, j), best_J = _first_min(minima)
    best = (float(t[i]), float(t[j]))

    def J_scalar(x1, x2):
        return _cost_two(s, T, v0, v1, v2, x1, x2)

    # coordinatewise golden refinement around the winning node; each move is
    # kept only if it strictly improves, so exact boundary optima stay put
    (x1, x2), val = best, best_J
    for _ in range(8):
        moved = 0.0
        lo1, hi1 = max(0.0, x1 - step), min(x2, x1 + step)
        if hi1 > lo1:
            cand = golden_section_min(lambda u: J_scalar(u, x2), lo1, hi1, tol=1e-10)
            cand_J = J_scalar(cand, x2)
            if cand_J < val:
                moved = max(moved, abs(cand - x1))
                x1, val = cand, cand_J
        lo2, hi2 = max(x1, x2 - step), min(T, x2 + step)
        if hi2 > lo2:
            cand = golden_section_min(lambda u: J_scalar(x1, u), lo2, hi2, tol=1e-10)
            cand_J = J_scalar(x1, cand)
            if cand_J < val:
                moved = max(moved, abs(cand - x2))
                x2, val = cand, cand_J
        if moved < 1e-9:
            break
    refined = val < best_J
    if refined:
        best, best_J = (x1, x2), val

    return GridOracleResult(argmin=best, min_value=best_J, grid_step=step, refined=refined)
