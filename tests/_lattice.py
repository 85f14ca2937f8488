"""The coordinatewise lattice minima of the two-measurement cost: a test
reference, not part of the package.

:func:`lattice_cwlms` runs the fill of :func:`bmsched.numerics.grid_oracle_2`,
from the same helpers, over every row block, and scans each block for the
lattice points that no single-coordinate step improves.  The golden oracle
records (tests/_golden.py) and the acceptance tests use it to count the cost's
local minima at grid resolution.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from bmsched.kalman import ModelParams
from bmsched.numerics import (
    _block_min,
    _first_min,
    _lattice,
    _row_blocks,
    _triangle_block,
    _two_args,
)


def _block_nodes(i0, Jb, above, below, nodes, tol=1e-12):
    """Add to ``nodes`` the cells of row block Jb (rows i0 to i1 - 1, columns
    i0 and above) that no axis step improves, mapped to their costs, in
    row-major order.  Return Jb's last row from column i1 on, which is the
    next block's ``above``.

    Comparisons are against the 4 axis neighbors that lie inside the domain
    (cells below the diagonal are inf); ties within tol count as no
    improvement.  ``above`` is row i0 - 1 from column i0 on and ``below`` row
    i1 from column i1 on, None past the lattice's edge: the rest of those
    rows, like the column left of the block, lies below the diagonal.
    """
    Jt = Jb + tol
    ok = np.isfinite(Jb)
    ok[:-1, :] &= Jb[:-1, :] <= Jt[1:, :]
    ok[1:, :] &= Jb[1:, :] <= Jt[:-1, :]
    ok[:, :-1] &= Jb[:, :-1] <= Jt[:, 1:]
    ok[:, 1:] &= Jb[:, 1:] <= Jt[:, :-1]
    k = Jb.shape[0]  # the column of i1
    if above is not None:
        ok[0, :] &= Jb[0, :] <= above + tol
    if below is not None:
        ok[-1, k:] &= Jb[-1, k:] <= below + tol
    rows, cols = np.divmod(np.flatnonzero(ok), ok.shape[1])
    for a, b, cost in zip(rows.tolist(), cols.tolist(), Jb[ok].tolist()):
        nodes[a + i0, b + i0] = cost
    return Jb[-1, k:].copy()


def _merge_touching(nodes: dict[tuple[int, int], float]) -> list[tuple[int, int]]:
    """One representative (the best node) per 8-connected group of nodes;
    ``nodes`` maps each node to its cost, in row-major order."""
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
                    if nb in nodes and nb not in seen:
                        seen.add(nb)
                        stack.append(nb)
        reps.append(min(comp, key=nodes.__getitem__))
    reps.sort()
    return reps


@np.errstate(all="ignore")  # _first_min rejects overflow; cells below t1 <= t2 are masked
def lattice_cwlms(
    params: ModelParams, sensors: Sequence[float], step: float
) -> tuple[tuple[float, float], ...]:
    """The coordinatewise lattice minima of the two-measurement cost, on the
    lattice :func:`grid_oracle_2` searches: every lattice point of the
    triangle t1 <= t2 that no single-coordinate step improves by more than
    1e-12.  Such points that touch (8-connectivity) are one minimum at grid
    resolution and are reported once, by their best node, in (t1, t2) order.

    Every row block of :func:`grid_oracle_2` is filled; a block's scan waits
    for the next block's first row, its lower rim, so the fill keeps about
    two blocks.  The minima found are kept, though: on a flat cost every
    lattice point is one, and memory and time grow as m^2.
    """
    s, T, v0, v1, v2 = _two_args(params, sensors)
    t = _lattice(T, step)
    minima = []
    nodes: dict[tuple[int, int], float] = {}
    held = above = None
    for i0, i1 in _row_blocks(len(t)):
        Jb = _triangle_block(s, T, v0, v1, v2, t, i0, i1)
        minima.append(_block_min(i0, Jb))
        if held is not None:
            above = _block_nodes(*held, above, Jb[0], nodes)
        held = (i0, Jb)
    _block_nodes(*held, above, None, nodes)
    _first_min(minima)
    return tuple((float(t[a]), float(t[b])) for a, b in _merge_touching(nodes))
