"""Generic numeric kernels and brute-force grid oracles.

The oracles evaluate the integral cost directly from the variance recursion on
a dense lattice, independently of any closed-form optimizer, so they can serve
as ground truth in tests.  The two-instant oracle fills and scans only the
triangle t1 <= t2 of its m x m cost matrix, in row blocks of about
``_BLOCK_CELLS`` cells that stay in cache, so its memory is about the matrix
(8m^2 bytes) plus one block.  Both oracles refine their lattice winner on
Python floats, through the same cost expressions as the lattice, so a
refined cost rounds exactly as a lattice cell would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .kalman import ModelParams, _parallel_sum

__all__ = [
    "GOLDEN_RATIO_CONJUGATE",
    "GridOracleResult",
    "golden_section_min",
    "bisect_root",
    "brent_root",
    "RootBudgetExceeded",
    "finite_diff",
    "grid_oracle_1",
    "grid_oracle_2",
]

GOLDEN_RATIO_CONJUGATE = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class GridOracleResult:
    """Argmin of an exhaustive lattice search, optionally refined locally.

    For the two-instant oracle, ``lattice_cwlms`` lists every lattice point
    that no single-coordinate step can improve; lattice points of that kind
    that touch (8-connectivity) are one minimum at grid resolution and are
    reported once, by their best node.
    """

    argmin: tuple[float, ...]
    min_value: float
    grid_step: float
    refined: bool
    lattice_cwlms: tuple[tuple[float, float], ...] | None = None


def golden_section_min(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float,
    trace: list | None = None,
) -> float:
    """Minimize a quasi-convex function on [lo, hi] to within tol.

    The bracket shrinks by the golden ratio conjugate per iteration with one
    function evaluation each; if ``trace`` is a list, the bracket (lo, hi) is
    appended after every shrink.  The search also stops when an iteration
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
        if trace is not None:
            trace.append((a, b))
        if b - a >= width:
            break
    return 0.5 * (a + b)


def bisect_root(
    g: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float,
    trace: list | None = None,
) -> float:
    """Root of a sign-changing function by bisection, to within tol.

    The bisection also stops when lo and hi are adjacent floats, whose
    midpoint is one of them (a tol below their spacing would otherwise never
    be met).
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
        if trace is not None:
            trace.append((lo, hi))
    return 0.5 * (lo + hi)


class RootBudgetExceeded(RuntimeError):
    """:func:`brent_root` used up ``BRENT_MAX_EVALUATIONS`` without meeting
    its tolerance."""


# evaluations brent_root may spend inside its bracket: a simple root of a smooth
# function takes about ten, a triple root on [0, 1] to 1e-13 about 110 (its
# interpolation steps shrink the bracket slowly), and bisection there 44
BRENT_MAX_EVALUATIONS = 200
_EPS = math.ulp(1.0)


def brent_root(g: Callable[[float], float], lo: float, hi: float, tol: float) -> float:
    """Root of a sign-changing function by Brent's method, to within tol.

    Each step takes the inverse quadratic (or secant) interpolation of the
    last three points when it lands well inside the bracket and shrinks it
    fast enough, and a bisection step otherwise (R. P. Brent, *Algorithms for
    Minimization without Derivatives*, 1973, ch. 4).  The returned point b
    ends one side of a sign-change bracket no wider than tol + 4*eps*|b|, or
    is an exact zero of g.  Beyond ``BRENT_MAX_EVALUATIONS`` evaluations
    inside [lo, hi] it raises :class:`RootBudgetExceeded`.
    """
    if not lo < hi:
        raise ValueError(f"brent_root needs lo < hi, got [{lo}, {hi}]")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    a, b = lo, hi
    fa, fb = g(a), g(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    # signs, not the sign of fa*fb, which underflows to 0 for tiny values
    if (fa > 0) == (fb > 0):
        raise ValueError(f"brent_root needs a sign change, got g(lo)={fa}, g(hi)={fb}")
    # b is the best point so far, c the other end of the bracket, a the
    # previous b; d is the last step and e the one before it
    c, fc = a, fa
    d = e = b - a
    evaluations = 0
    while True:
        if (fb > 0) == (fc > 0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 2.0 * _EPS * abs(b) + 0.5 * tol
        xm = 0.5 * (c - b)
        if abs(xm) <= tol1 or fb == 0.0:
            return b
        if evaluations == BRENT_MAX_EVALUATIONS:
            raise RootBudgetExceeded(
                f"brent_root did not reach tol={tol} within {BRENT_MAX_EVALUATIONS} "
                f"evaluations (bracket [{min(b, c)}, {max(b, c)}])"
            )
        interpolated = False
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:  # secant
                p, q = 2.0 * xm * s, 1.0 - s
            else:  # inverse quadratic
                q, r = fa / fc, fb / fc
                p = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0:
                q = -q
            p = abs(p)
            interpolated = 2.0 * p < min(3.0 * xm * q - abs(tol1 * q), abs(e * q))
        if interpolated:
            e, d = d, p / q
        else:
            d = e = xm
        a, fa = b, fb
        b += d if abs(d) > tol1 else math.copysign(tol1, xm)
        fb = g(b)
        evaluations += 1


def finite_diff(f: Callable[[float], float], x: float, h: float) -> float:
    """Central difference (f(x+h) - f(x-h)) / (2h)."""
    if not h > 0:
        raise ValueError(f"h must be positive, got {h}")
    return (f(x + h) - f(x - h)) / (2.0 * h)


# cells per block of the two-instant fill and scan: 512 kB per float64
# temporary, which stays in cache; on the benchmark's oracle pool a call takes
# about 21 ms at 2**15 or 2**16 cells, 27 ms at 2**18 and 40 ms at 2**20
_BLOCK_CELLS = 1 << 16


def _lattice(T: float, step: float) -> np.ndarray:
    if not step > 0:
        raise ValueError(f"step must be positive, got {step}")
    n = max(1, int(round(T / step)))
    return np.linspace(0.0, T, n + 1)


def _post_variance(v_sensor: float, pre):
    """Parallel sum of a scalar sensor variance and pre-measurement variances,
    an array or one float (handles the 0 and inf conventions)."""
    if isinstance(pre, float):
        return _parallel_sum(v_sensor, pre)
    if v_sensor == 0.0:
        return np.zeros_like(pre)
    if math.isinf(v_sensor):
        return pre.copy()
    with np.errstate(divide="ignore", invalid="ignore"):
        out = v_sensor * pre / (v_sensor + pre)
    return np.where(pre == 0.0, 0.0, out)


def _cost_one_lattice(sigma2: float, T: float, v0: float, v1: float, t1):
    post = _post_variance(v1, v0 + sigma2 * t1)
    return (
        0.5 * sigma2 * t1 * t1
        + v0 * t1
        + 0.5 * sigma2 * (T - t1) ** 2
        + post * (T - t1)
    )


def _cost_two_lattice(sigma2, T, v0, v1, v2, t1, t2):
    gap = t2 - t1
    g1 = _post_variance(v1, v0 + sigma2 * t1)
    g2 = _post_variance(v2, g1 + sigma2 * gap)
    return (
        0.5 * sigma2 * t1 * t1
        + v0 * t1
        + 0.5 * sigma2 * gap ** 2
        + g1 * gap
        + 0.5 * sigma2 * (T - t2) ** 2
        + g2 * (T - t2)
    )


def grid_oracle_1(params: ModelParams, sensor: float, step: float) -> GridOracleResult:
    """Exhaustive search of the one-measurement cost over a t1 lattice,
    followed by a golden-section refinement inside the winning cells."""
    s, T, v0 = params.sigma2, params.horizon, params.prior_variance
    t = _lattice(T, step)
    J = _cost_one_lattice(s, T, v0, sensor, t)
    k = int(np.argmin(J))
    best_t, best_J = float(t[k]), float(J[k])
    lo = float(t[max(0, k - 1)])
    hi = float(t[min(len(t) - 1, k + 1)])
    refined = False
    if hi > lo:
        cand = golden_section_min(
            lambda x: _cost_one_lattice(s, T, v0, sensor, x), lo, hi, tol=1e-10
        )
        cand_J = _cost_one_lattice(s, T, v0, sensor, cand)
        # keep the lattice point on ties so boundary optima stay exact
        if cand_J < best_J:
            best_t, best_J = cand, cand_J
            refined = True
    return GridOracleResult(
        argmin=(best_t,), min_value=best_J, grid_step=step, refined=refined
    )


def _blocks(m: int):
    """Row blocks [i0, i1) of the triangle j >= i of an m x m lattice, each
    holding about ``_BLOCK_CELLS`` cells of columns i0 and above."""
    i0 = 0
    while i0 < m:
        i1 = min(m, i0 + max(1, _BLOCK_CELLS // (m - i0)))
        yield i0, i1
        i0 = i1


def _cwlm_nodes(J: np.ndarray, tol: float = 1e-12) -> list[tuple[int, int]]:
    """Lattice points not improvable by one axis step, in row-major order.

    Comparisons are against the 4 axis neighbors that lie inside the domain
    (J is inf outside); ties within tol count as no improvement.  Only the
    triangle j >= i holds finite values, so the scan visits it in the fill's
    row blocks: rows [i0, i1) and columns i0 and above, read with a one-cell
    rim of neighbors, so each block's temporaries stay in cache.
    """
    m = J.shape[0]
    nodes = []
    for i0, i1 in _blocks(m):
        rim = max(i0 - 1, 0)
        W = J[rim : min(i1 + 1, m), rim:]
        Wt = W + tol
        ok = np.isfinite(W)
        ok[:-1, :] &= W[:-1, :] <= Wt[1:, :]
        ok[1:, :] &= W[1:, :] <= Wt[:-1, :]
        ok[:, :-1] &= W[:, :-1] <= Wt[:, 1:]
        ok[:, 1:] &= W[:, 1:] <= Wt[:, :-1]
        inner = ok[i0 - rim : i1 - rim, i0 - rim :]
        if inner.any():
            nodes.extend((int(a) + i0, int(b) + i0) for a, b in np.argwhere(inner))
    return nodes


def _merge_touching(nodes: list[tuple[int, int]], J: np.ndarray) -> list[tuple[int, int]]:
    """One representative (the best node) per 8-connected group of nodes."""
    nodeset = set(nodes)
    seen: set[tuple[int, int]] = set()
    reps = []
    for nd in nodes:
        if nd in seen:
            continue
        stack = [nd]
        seen.add(nd)
        comp = []
        while stack:
            i, j = stack.pop()
            comp.append((i, j))
            for di in (-1, 0, 1):
                for dj in (-1, 0, 1):
                    nb = (i + di, j + dj)
                    if nb in nodeset and nb not in seen:
                        seen.add(nb)
                        stack.append(nb)
        reps.append(min(comp, key=lambda ij: J[ij]))
    reps.sort()
    return reps


def grid_oracle_2(
    params: ModelParams, sensors: Sequence[float], step: float
) -> GridOracleResult:
    """Exhaustive search of the two-measurement cost over the lattice on the
    triangle 0 <= t1 <= t2 <= T, plus coordinatewise refinement.

    The lattice contains the boundary lines t1 = 0, t2 = T and the diagonal
    exactly.  Also reports the lattice points that are coordinatewise
    unimprovable (see :class:`GridOracleResult`).

    The cost matrix J is m x m and inf below the diagonal (t2 < t1); only
    the triangle is filled and scanned, in row blocks of about
    ``_BLOCK_CELLS`` cells, so memory is about J (8m^2 bytes) plus one
    block's temporaries.
    """
    if len(sensors) != 2:
        raise ValueError(f"sensors must have exactly 2 entries, got {len(sensors)}")
    s, T, v0 = params.sigma2, params.horizon, params.prior_variance
    v1, v2 = float(sensors[0]), float(sensors[1])
    t = _lattice(T, step)
    m = len(t)
    J = np.full((m, m), np.inf)
    for i0, i1 in _blocks(m):
        rows = t[i0:i1, None]
        Jb = _cost_two_lattice(s, T, v0, v1, v2, rows, t[None, i0:])
        corner = Jb[:, : i1 - i0]
        corner[t[None, i0:i1] < rows] = np.inf
        J[i0:i1, i0:] = Jb

    k = int(np.argmin(J))
    i, j = divmod(k, m)
    best = (float(t[i]), float(t[j]))
    best_J = float(J[i, j])

    reps = _merge_touching(_cwlm_nodes(J), J)
    cwlms = tuple((float(t[a]), float(t[b])) for a, b in reps)

    def J_scalar(x1, x2):
        return _cost_two_lattice(s, T, v0, v1, v2, x1, x2)

    # coordinatewise golden refinement around the winning node; each move is
    # kept only if it strictly improves, so exact boundary optima stay put
    refined = False
    x1, x2 = best
    val = best_J
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
    if val < best_J:
        best, best_J = (x1, x2), val
        refined = True

    return GridOracleResult(
        argmin=best,
        min_value=best_J,
        grid_step=step,
        refined=refined,
        lattice_cwlms=cwlms,
    )
