"""The tau-grid: one cell grid answers every tau query.

The tau-graph has an edge between every pair of points at distance <= tau.
Cubic cells of side tau/2 are cliques of it, and every tau-neighbour of a
point lies inside the 5x5x5 block of cells around its own. Each occupied
cell's block is found once, as 25 runs of occupied cells, and hoods, the
flat cell-pair list, ``around`` (the cells in the hood of any of a set of
cells) and ``label_hoods`` (EM's hood rows per cluster) read it, in passes
of ``HOOD_CHUNK`` point pairs. A labelling's points sorted by (cell, label)
form label runs with bounding boxes (label 0 forms none; one label: a run
per cell). ``settle`` tests points against runs, the boxes deciding what
they can: for connectivity's contact test (<= tau), and through ``confirm``
for EM's gate (< tau) and fragment growth's frontier queries (<= tau).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

# A hair over 1: float rounding in ``points / side`` then cannot put two points
# at distance <= tau three cells apart on an axis.
_SIDE_SLACK = 1.0 + 2.0 ** -30
# The size of one batched pass, unless a single hood or row holds more: point
# pairs for a distance test (fragment growth's hoods, ``settle``'s runs), or
# (query, cell) pairs for ``_within``'s lookups of label runs.
HOOD_CHUNK = 1 << 15


class GridError(ValueError):
    """A tau that is not positive, or that puts a cell index or code beyond int64."""


def grid_side(points: np.ndarray, tau: float, name: str = "tau") -> float:
    """The side of the grid's cells over ``points``, a hair over tau/2. A
    tau that is not positive, or that puts a cell index or the difference of
    two beyond int64, raises a GridError that calls it ``name``."""
    if not tau > 0:
        raise GridError(f"{name} {tau:g} is not positive")
    side = 0.5 * tau * _SIDE_SLACK
    extent = np.abs(points).max(initial=0.0)
    if not extent < 2.0 ** 61 * side:
        raise GridError(f"{name} {tau:g} is too small for int64 cells of coordinates "
                        f"up to {extent:g}")
    return side


class CliqueGrid:
    """Points bucketed into cubic cells of side (a hair over) tau/2.

    A cell's diagonal is about 0.87 tau, so every cell is a clique of the
    tau-graph, and two points within tau lie at most two cells apart on each
    axis: the 125 cells of the 5x5x5 block around a cell (its hood) hold every
    tau-neighbour of its points. Occupied cells are kept as sorted unique int64
    codes; ``order[starts[c]:starts[c + 1]]`` lists the points of cell c in
    index order and ``cell_of[i]`` is the cell of point i. A (dx, dy) column of
    a hood is five consecutive codes: ``runs[c, j]`` bounds the occupied cells
    of column j of c's hood. ``near_runs`` does the same for the 3x3x3 block
    of cells around c, in 9 columns of three codes.
    """

    def __init__(self, points: np.ndarray, tau: float):
        self.points = points
        self.tau = tau
        self.tau_sq = tau * tau
        cells = np.floor(points / grid_side(points, tau)).astype(np.int64)
        for axis in range(3):
            # gaps above 3 cells shrink to 3: cells within two of each other
            # keep their distance, and every axis spans fewer than 3n cells
            values, inverse = np.unique(cells[:, axis], return_inverse=True)
            steps = np.minimum(np.diff(values), 3)
            cells[:, axis] = np.concatenate(([2], 2 + np.cumsum(steps)))[inverse]
        dims = [int(v) + 3 for v in cells.max(axis=0, initial=0)]
        if dims[0] * dims[1] * dims[2] >= 2 ** 63:
            raise GridError(f"tau {tau:g} puts the points in too many cells for int64 codes")
        self.strides = np.array([dims[1] * dims[2], dims[2], 1], dtype=np.int64)
        codes = cells @ self.strides
        # cached hoods and cell pairs repeat indices many times: half the bytes when it fits
        self._index_dtype = np.int32 if len(points) < 2 ** 31 else np.intp
        self.order = np.argsort(codes, kind="stable").astype(self._index_dtype)
        sorted_codes = codes[self.order]
        first = np.flatnonzero(np.diff(sorted_codes, prepend=-1))  # codes are >= 0
        self.codes = sorted_codes[first]
        self.starts = np.append(first, len(codes))
        self.cell_of = np.searchsorted(self.codes, codes)
        self._hoods: list[np.ndarray | None] = [None] * len(self.codes)
        self.runs = self._block_runs(2)

    def _block_runs(self, r: int) -> np.ndarray:
        """For each occupied cell, the bounds of the occupied cells in each
        (dx, dy) column of the (2r + 1)^3 block around it, columns in
        lexicographic order; cell indices lie in [2, dim - 3], so r <= 2."""
        steps = np.arange(-r, r + 1)
        columns = (steps[:, None] * self.strides[0] + steps * self.strides[1]).ravel()
        bounds = (columns[:, None] + np.array([-r, r + 1])).ravel()  # dz in [-r, r + 1)
        return np.searchsorted(self.codes, self.codes[:, None] + bounds).reshape(
            -1, len(columns), 2).astype(self._index_dtype)

    @cached_property
    def near_runs(self) -> np.ndarray:
        """``runs`` of the 3x3x3 blocks: about a third of a hood's points in
        the blobs of fragment growth."""
        return self._block_runs(1)

    def hood_runs(self, points, runs=None) -> tuple[np.ndarray, np.ndarray]:
        """Bounds (lo, hi) of the runs of sorted positions that hold the hood
        (or the block of another run table ``runs``) of each of ``points`` in
        turn: ``order[expand(lo, hi)]`` lists them."""
        runs = self.runs if runs is None else runs
        return self.starts[runs[self.cell_of[points]]].reshape(-1, 2).T

    def hood(self, point: int) -> np.ndarray:
        """Indices of the points in the 125 cells around the cell of ``point``
        (a superset of its tau-neighbours, itself included); cached per cell."""
        cell = int(self.cell_of[point])
        members = self._hoods[cell]
        if members is None:
            members = self._hoods[cell] = self.order[expand(*self.hood_runs(point))]
        return members

    def around(self, cells: np.ndarray) -> np.ndarray:
        """One bool per occupied cell: True for each cell in the hood of one
        of the occupied cells ``cells`` (so for each cell whose hood holds one)."""
        near = np.zeros(len(self.codes), dtype=bool)
        near[expand(*self.runs[cells].reshape(-1, 2).T)] = True
        return near

    @cached_property
    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Every occupied cell c with each occupied cell d of its hood (c itself
        included), as two flat index arrays with c ascending. The relation is
        symmetric: d > c lists each pair of distinct neighbours once."""
        lo, hi = self.runs.reshape(-1, 2).T
        c = np.repeat(np.arange(len(self.codes)).repeat(25), hi - lo)
        return c.astype(self._index_dtype), expand(lo, hi).astype(self._index_dtype)


class LabelRuns:
    """One labelling's labelled points sorted by (cell, label): the members of
    cluster j >= 1 in cell c form the run ``points[starts[r]:starts[r + 1]]``
    of the r with ``keys[r] == c * width + j``, and ``low[r]`` and
    ``high[r]`` are the corners of their bounding box."""

    def __init__(self, grid: CliqueGrid, labels: np.ndarray):
        self.width = int(labels.max(initial=0)) + 1
        # the grid's order is by cell already: only each cell's labels sort;
        # a point labelled 0 is in no run
        at = grid.order[labels[grid.order] > 0]
        key = grid.cell_of[at] * self.width + labels[at]
        order = np.argsort(key, kind="stable")
        key = key[order]
        self.points = grid.points[at[order]]
        first = np.flatnonzero(np.diff(key, prepend=-1))  # keys are >= 0
        self.keys = key[first]
        self.starts = np.append(first, len(key))
        self.low = np.minimum.reduceat(self.points, first)
        self.high = np.maximum.reduceat(self.points, first)


def label_hoods(grid: CliqueGrid, runs: LabelRuns, count: int):
    """For each label j in 1..``count`` in turn: the points whose hood holds a
    member of j, ascending, in the grid's index dtype, and whether their own
    cell holds one; the cells of j are read off its label runs ``runs``."""
    cell, label = np.divmod(runs.keys, runs.width)
    order = np.argsort(label, kind="stable")
    for runs_of_j in np.split(order, np.cumsum(np.bincount(label, minlength=count + 1))[:-1])[1:]:
        cells = cell.take(runs_of_j)
        rows = np.flatnonzero(grid.around(cells).take(grid.cell_of))
        own = np.zeros(len(grid.codes), dtype=bool)
        own[cells] = True
        yield rows.astype(grid._index_dtype), own.take(grid.cell_of.take(rows))


def confirm(grid: CliqueGrid, runs: LabelRuns, rows: np.ndarray,
            cols: np.ndarray, closed: bool = False) -> np.ndarray:
    """The exact tau-test for a batch of queries: entry q is True iff point
    ``rows[q]`` lies within tau of a point labelled ``cols[q] + 1``: for their
    difference d = (x, y, z), EM's ``sqrt(x*x + y*y + z*z) < tau``, or if
    ``closed`` fragment growth's ``d . d <= tau^2`` (``_within_tau``'s bits).

    ``runs`` holds the labelling's (cell, cluster) runs. The 3x3x3 block of
    cells around the query's cell is searched first, then its hood.
    """
    passes = np.zeros(len(rows), dtype=bool)
    todo = np.flatnonzero(cols + 1 < runs.width)  # a larger id has no member
    for block in (grid.near_runs, grid.runs):
        if todo.size:
            passes[todo] = _within(grid, runs, rows[todo], cols[todo] + 1, block, closed)
            todo = todo[~passes[todo]]
    return passes


def _within(grid: CliqueGrid, runs: LabelRuns, rows: np.ndarray, ids: np.ndarray,
            block: np.ndarray, closed: bool) -> np.ndarray:
    """Entry q is True iff point ``rows[q]`` lies within tau (by ``confirm``'s
    test, strict or ``closed``) of a point labelled ``ids[q]`` in the cells
    that the run table ``block`` (the grid's ``near_runs`` or ``runs``) lists
    around the point's cell. Queries that share a cell and a cluster form a
    group, which lists those cells once; ``settle`` tests each query of the
    group against each run of its label found there."""
    hit = np.zeros(len(rows), dtype=bool)
    key = grid.cell_of[rows] * runs.width + ids
    by_group = np.argsort(key, kind="stable")
    key = key[by_group]
    first = np.flatnonzero(np.diff(key, prepend=-1))
    size = np.diff(np.append(first, len(key)))
    cell, label = np.divmod(key[first], runs.width)
    lo, hi = block[cell].reshape(-1, 2).T
    w = block.shape[1]
    listed = (hi - lo).reshape(-1, w).sum(axis=1)
    for a, b in pass_bounds(size * listed, HOOD_CHUNK):
        g = np.repeat(np.arange(a, b), listed[a:b])
        wanted = expand(lo[w * a:w * b], hi[w * a:w * b]) * runs.width + label[g]
        r = np.minimum(np.searchsorted(runs.keys, wanted), len(runs.keys) - 1)
        found = runs.keys.take(r) == wanted  # a point of the group's label is in that cell
        g, r = g[found], r[found]
        # every query of a group, with each run the group found
        q = by_group[expand(first[g], first[g] + size[g])]
        settle(grid, runs, rows[q], q, np.repeat(r, size[g]), hit, closed)
    return hit


def settle(grid: CliqueGrid, runs: LabelRuns, p: np.ndarray, owner: np.ndarray,
           r: np.ndarray, hit: np.ndarray, closed: bool) -> None:
    """The grid's exact tau-test: set ``hit[owner[e]]`` if point ``p[e]`` lies
    within tau (``confirm``'s test, strict or ``closed``) of a member of run
    ``r[e]``. Below tau at its box's farthest corner, entry e passes; beyond
    tau at its nearest point, it fails; else, unless its owner is hit, each
    member gets the exact test, about ``HOOD_CHUNK`` point pairs per pass.
    The bounds keep a 1e-9 margin on tau^2, which covers their rounding and
    the exact test's for a normal tau^2; for another tau no box decides."""
    limit = grid.tau_sq
    inside, outside = ((limit * (1.0 - 1e-9), limit * (1.0 + 1e-9))
                       if 1e-290 < limit < 1e290 else (0.0, np.inf))
    at = grid.points.take(p, axis=0)
    low, high = runs.low.take(r, axis=0), runs.high.take(r, axis=0)
    far = np.maximum(at - low, high - at)
    hit[owner[np.einsum("ij,ij->i", far, far) < inside]] = True
    near = np.maximum(np.maximum(low - at, at - high), 0.0)
    e = np.flatnonzero(~hit[owner] & ~(np.einsum("ij,ij->i", near, near) > outside))
    start, stop = runs.starts[r[e]], runs.starts[r[e] + 1]
    for a, b in pass_bounds(stop - start, HOOD_CHUNK):
        t = np.arange(a, b)[~hit[owner[e[a:b]]]]
        m = expand(start[t], stop[t])
        t = e[np.repeat(t, stop[t] - start[t])]
        diff = grid.points.take(p[t], axis=0) - runs.points.take(m, axis=0)
        x, y, z = diff.T
        hit[owner[t[np.einsum("ij,ij->i", diff, diff) <= grid.tau_sq if closed
                    else np.sqrt(x * x + y * y + z * z) < grid.tau]]] = True


def expand(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The runs ``np.arange(lo[i], hi[i])``, concatenated in order of i."""
    counts = hi - lo
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts - lo, counts)


def pass_bounds(lengths, chunk: int) -> list[tuple[int, int]]:
    """Bounds [a, b) of the passes over rows of these lengths: each ends after the
    last row ending within a multiple of ``chunk``; a longer row is one pass."""
    ends = np.cumsum(lengths, dtype=np.int64)
    marks = np.arange(chunk, ends.max(initial=0), chunk)
    bounds = np.unique(np.r_[0, np.searchsorted(ends, marks, "right"), len(ends)]).tolist()
    return list(zip(bounds[:-1], bounds[1:]))
