"""Proximity-graph clustering machinery.

Connectivity at radius ``tau`` means the graph with an edge between every
pair of points at distance <= tau is connected. One grid serves every tau
query: cubic cells of side tau/2, each a clique of that graph, with every
tau-neighbour of a point inside the 5x5x5 block of cells around its own.
Each occupied cell's block is found once, as 25 runs of occupied cells, and
hoods, the flat cell-pair list, ``around`` (the cells in the hood of any of a
set of cells: EM's hood pairs per cluster, fragment growth's frontier) and
components (hook-and-compress joins of pairs whose first points lie within
tau, then of those still apart, but for two one-point cells, that
``_settle`` finds in contact) read it, in passes of ``_HOOD_CHUNK`` point
pairs. A labelling's points sorted by (cell, label) form label runs with
bounding boxes (label 0 forms none; one label: a run per cell); their keys
list each cluster's cells. ``_settle`` tests points against runs, the boxes
deciding what they can: for components (<= tau), and through ``_confirm``
for EM's gate (< tau) and fragment growth's frontier queries (<= tau).

Fragment growth is a priority flood with static keys: each fragment pops its
nearest unassigned tau-neighbour by (squared distance to its seed, index).
While that point is also the fragment's nearest unassigned point overall,
the flood is a walk down each fragment's presorted points, so growth plans
a batch of such steps, checks them together (a point sharing a cell with an
earlier point of its fragment passes at once, the rest get an exact distance
test over the 3x3x3 block of cells around them, and those with no neighbour
there one over their whole hood) and keeps the valid prefix. Only a fragment
whose step failed pops from a heap of its frontier, and only until the
heap's top is again its next point in presorted order; it pops what the
plain heap flood would, so the splits are the same. The O(n^2) brute-force
oracles live in the test suite.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .geometry import make_rng

@dataclass(frozen=True, eq=False)
class Clustering:
    """A hard partition of correspondence indices.

    ``labels[i]`` is the cluster id of index i: 0 means unassigned/outlier,
    ids 1..num_clusters are clusters. Empty ids may appear transiently (e.g.
    after a reassignment step empties a cluster); ``keep`` removes them.
    """

    labels: np.ndarray
    num_clusters: int = field(default=-1)

    def __post_init__(self):
        labels = np.array(self.labels, dtype=np.int64).reshape(-1)
        if labels.size and labels.min() < 0:
            raise ValueError("labels must be nonnegative")
        k = self.num_clusters
        if k < 0:
            k = int(labels.max()) if labels.size else 0
        elif labels.size and labels.max() > k:
            raise ValueError("label exceeds num_clusters")
        labels.flags.writeable = False
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "num_clusters", k)

    def __len__(self) -> int:
        return self.labels.shape[0]

    def sizes(self) -> np.ndarray:
        """Counts per label, index 0..num_clusters."""
        return np.bincount(self.labels, minlength=self.num_clusters + 1)

    def members(self, cluster_id: int) -> np.ndarray:
        return np.flatnonzero(self.labels == cluster_id)

    def groups(self) -> list[np.ndarray]:
        """``members(j)`` for each id j in 1..num_clusters, as slices of one
        stable argsort of the labels."""
        order = np.argsort(self.labels, kind="stable")
        return np.split(order, np.cumsum(self.sizes())[:-1])[1:]

    def keep(self, mask) -> "Clustering":
        """Keep the clusters flagged in ``mask`` (one bool per id 1..K).

        Survivors are renumbered 1..K' in id order and the points of dropped
        clusters get label 0. Returns ``self`` when every cluster is kept.
        """
        mask = np.asarray(mask, dtype=bool)
        return self if mask.all() else self.renumber(np.flatnonzero(mask) + 1)

    def by_size(self) -> "Clustering":
        """Renumber the nonempty clusters 1..K' by decreasing size, ties going
        to the smaller first member index; label 0 is untouched."""
        sizes = self.sizes()
        first_member = np.full(self.num_clusters + 1, len(self), dtype=np.int64)
        np.minimum.at(first_member, self.labels, np.arange(len(self)))
        ids = np.flatnonzero(sizes[1:]) + 1
        return self.renumber(ids[np.lexsort((first_member[ids], -sizes[ids]))])

    def renumber(self, ids) -> "Clustering":
        """Cluster ``ids[r]`` (each in 1..K) becomes cluster r + 1; the points
        of every other cluster get label 0."""
        remap = np.zeros(self.num_clusters + 1, dtype=np.int64)
        remap[ids] = np.arange(1, len(ids) + 1)
        return Clustering(remap[self.labels], num_clusters=len(ids))

    def contingency(self, truth) -> np.ndarray:
        """Point counts per (cluster id 0..K, true label 0..M): a (K+1) x (M+1)
        table, where M is the largest true label."""
        truth = np.asarray(truth, dtype=np.int64).reshape(-1)
        if truth.shape != self.labels.shape:
            raise ValueError("prediction and truth must have equal length")
        cols = int(truth.max()) + 1 if truth.size else 1
        counts = np.bincount(self.labels * cols + truth,
                             minlength=(self.num_clusters + 1) * cols)
        return counts.reshape(self.num_clusters + 1, cols)


# A hair over 1: float rounding in ``points / side`` then cannot put two points
# at distance <= tau three cells apart on an axis.
_SIDE_SLACK = 1.0 + 2.0 ** -30
# Fragment-growth steps planned before one vectorised check: long enough to
# amortise the check, short enough that the steps undone at a miss cost little.
_BATCH = 512
# Growth attempts, each from fresh seeds, before a split is declared impossible.
_MAX_RETRIES = 32
# The size of one batched pass, unless a single hood or row holds more: point
# pairs for a distance test (fragment growth's hoods, ``_settle``'s runs), or
# (query, cell) pairs for ``_within``'s lookups of label runs.
_HOOD_CHUNK = 1 << 15


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


class _CliqueGrid:
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
        self.sorted_points = points[self.order]
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
        turn: ``order[_expand(lo, hi)]`` lists them."""
        runs = self.runs if runs is None else runs
        return self.starts[runs[self.cell_of[points]]].reshape(-1, 2).T

    def hood(self, point: int) -> np.ndarray:
        """Indices of the points in the 125 cells around the cell of ``point``
        (a superset of its tau-neighbours, itself included); cached per cell."""
        cell = int(self.cell_of[point])
        members = self._hoods[cell]
        if members is None:
            members = self._hoods[cell] = self.order[_expand(*self.hood_runs(point))]
        return members

    def around(self, cells: np.ndarray) -> np.ndarray:
        """One bool per occupied cell: True for each cell in the hood of one
        of the occupied cells ``cells`` (so for each cell whose hood holds one)."""
        near = np.zeros(len(self.codes), dtype=bool)
        near[_expand(*self.runs[cells].reshape(-1, 2).T)] = True
        return near

    @cached_property
    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Every occupied cell c with each occupied cell d of its hood (c itself
        included), as two flat index arrays with c ascending. The relation is
        symmetric: d > c lists each pair of distinct neighbours once."""
        lo, hi = self.runs.reshape(-1, 2).T
        c = np.repeat(np.arange(len(self.codes)).repeat(25), hi - lo)
        return c.astype(self._index_dtype), _expand(lo, hi).astype(self._index_dtype)


class _LabelRuns:
    """One labelling's labelled points sorted by (cell, label): the members of
    cluster j >= 1 in cell c form the run ``points[starts[r]:starts[r + 1]]``
    of the r with ``keys[r] == c * width + j``, and ``low[r]`` and
    ``high[r]`` are the corners of their bounding box."""

    def __init__(self, grid: _CliqueGrid, labels: np.ndarray):
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


def _confirm(grid: _CliqueGrid, runs: _LabelRuns, rows: np.ndarray,
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


def _within(grid: _CliqueGrid, runs: _LabelRuns, rows: np.ndarray, ids: np.ndarray,
            block: np.ndarray, closed: bool) -> np.ndarray:
    """Entry q is True iff point ``rows[q]`` lies within tau (by ``_confirm``'s
    test, strict or ``closed``) of a point labelled ``ids[q]`` in the cells
    that the run table ``block`` (the grid's ``near_runs`` or ``runs``) lists
    around the point's cell. Queries that share a cell and a cluster form a
    group, which lists those cells once; ``_settle`` tests each query of the
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
    for a, b in _passes(size * listed, _HOOD_CHUNK):
        g = np.repeat(np.arange(a, b), listed[a:b])
        wanted = _expand(lo[w * a:w * b], hi[w * a:w * b]) * runs.width + label[g]
        r = np.minimum(np.searchsorted(runs.keys, wanted), len(runs.keys) - 1)
        found = runs.keys.take(r) == wanted  # a point of the group's label is in that cell
        g, r = g[found], r[found]
        # every query of a group, with each run the group found
        q = by_group[_expand(first[g], first[g] + size[g])]
        _settle(grid, runs, rows[q], q, np.repeat(r, size[g]), hit, closed)
    return hit


def _settle(grid: _CliqueGrid, runs: _LabelRuns, p: np.ndarray, owner: np.ndarray,
            r: np.ndarray, hit: np.ndarray, closed: bool) -> None:
    """The grid's exact tau-test: set ``hit[owner[e]]`` if point ``p[e]`` lies
    within tau (``_confirm``'s test, strict or ``closed``) of a member of run
    ``r[e]``. Below tau at its box's farthest corner, entry e passes; beyond
    tau at its nearest point, it fails; else, unless its owner is hit, each
    member gets the exact test, about ``_HOOD_CHUNK`` point pairs per pass.
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
    for a, b in _passes(stop - start, _HOOD_CHUNK):
        t = np.arange(a, b)[~hit[owner[e[a:b]]]]
        m = _expand(start[t], stop[t])
        t = e[np.repeat(t, stop[t] - start[t])]
        diff = grid.points.take(p[t], axis=0) - runs.points.take(m, axis=0)
        x, y, z = diff.T
        hit[owner[t[np.einsum("ij,ij->i", diff, diff) <= grid.tau_sq if closed
                    else np.sqrt(x * x + y * y + z * z) < grid.tau]]] = True


def _expand(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The runs ``np.arange(lo[i], hi[i])``, concatenated in order of i."""
    counts = hi - lo
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts - lo, counts)


def _passes(lengths, chunk: int) -> list[tuple[int, int]]:
    """Bounds [a, b) of the passes over rows of these lengths: each ends after the
    last row ending within a multiple of ``chunk``; a longer row is one pass."""
    ends = np.cumsum(lengths, dtype=np.int64)
    marks = np.arange(chunk, ends.max(initial=0), chunk)
    bounds = np.unique(np.r_[0, np.searchsorted(ends, marks, "right"), len(ends)]).tolist()
    return list(zip(bounds[:-1], bounds[1:]))


def _join(parent: np.ndarray, c: np.ndarray, d: np.ndarray) -> None:
    """Merge the sets of c[i] and d[i] for every i in the flat forest ``parent``
    (each cell points at its root, the smallest cell of its set), in place. Each
    round hooks every root onto the smallest root it shares a pair still apart
    with (never a larger one, so no cycle forms), then pointer-jumps until flat."""
    while (apart := parent[c] != parent[d]).any():
        c, d = c[apart], d[apart]
        rc, rd = parent[c], parent[d]
        np.minimum.at(parent, np.maximum(rc, rd), np.minimum(rc, rd))
        while not np.array_equal(up := parent[parent], parent):
            parent[:] = up


def connected_components(points, tau: float) -> tuple[np.ndarray, int]:
    """Component id per point of the tau-proximity graph, plus component count.

    Components are numbered 0..count-1 in order of their smallest member index.
    A tau the cell grid cannot index the points with raises GridError.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    grid = _CliqueGrid(pts, tau)
    # Neighbouring cells whose first points lie within tau join first: the
    # contact step's test of those two points (it negates d; d . d keeps its bits).
    c, d = grid.pairs
    c, d = c[d > c], d[d > c]
    witness = grid.sorted_points[grid.starts[:-1]]
    diff = witness[d] - witness[c]
    near = np.einsum("ij,ij->i", diff, diff) <= grid.tau_sq
    parent = np.arange(len(grid.codes))
    _join(parent, c[near], d[near])
    # Each point of c gets the contact step against d, a run of its own, for
    # the pairs still apart; the witness tested two one-point cells already.
    rest = ~near & (parent[c] != parent[d])
    size = np.diff(grid.starts)
    rest[rest] = size[c[rest]] + size[d[rest]] > 2
    c, d = c[rest], d[rest]
    if len(c):
        owner = np.repeat(np.arange(len(c)), size[c])
        touching = np.zeros(len(c), dtype=bool)
        _settle(grid, _LabelRuns(grid, np.ones(len(pts), dtype=np.int64)),
                grid.order[_expand(grid.starts[c], grid.starts[c + 1])], owner, d[owner],
                touching, closed=True)
        _join(parent, c[touching], d[touching])
    _, first, inverse = np.unique(parent[grid.cell_of], return_index=True,
                                  return_inverse=True)
    # each point's smallest fellow member, ranked
    firsts, comp = np.unique(first[inverse], return_inverse=True)
    return comp, int(firsts.size)


def is_connected(points, tau: float) -> bool:
    """True iff the tau-proximity graph over ``points`` is connected.

    Empty and singleton sets count as connected.
    """
    return connected_components(points, tau)[1] <= 1


def euclidean_cluster(cs, tau: float) -> Clustering:
    """Connected components of the tau-ball graph over the a-points.

    Clusters are labeled 1..K by decreasing size, ties broken by smallest
    member index; every point gets a positive label.
    """
    comp, count = connected_components(cs.a, tau)
    return Clustering(comp + 1, num_clusters=count).by_size()


def fragment_connected_set(points, tau: float, target_sizes, seed) -> np.ndarray:
    """Split a tau-connected point set into tau-connected fragments of given sizes.

    Grows fragments simultaneously from farthest-point seeds through the
    tau-proximity graph, always extending the fragment with the largest
    remaining deficit (ties to the lowest fragment) by its nearest unassigned
    tau-neighbour: smallest squared distance to its seed, then smallest
    index. Each fragment is tau-connected by construction: a point joins only
    through a tau-neighbour already in the fragment. ``_scan`` walks each
    fragment's points in that order and pops from a heap only for a
    fragment whose next point has no such neighbour, with the same pops.
    Returns a fragment id (0..k-1) per point. Retries with fresh seeds when
    a fragment stalls below its target; raises ValueError when the targets
    cannot be met after ``_MAX_RETRIES`` attempts.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    n = pts.shape[0]
    targets = [int(t) for t in target_sizes]
    if any(t < 1 for t in targets):
        raise ValueError("every target size must be at least 1")
    if sum(targets) != n:
        raise ValueError(f"target sizes must sum to {n}, got {sum(targets)}")
    k = len(targets)
    if k == 1:
        return np.zeros(n, dtype=np.int64)

    rng = make_rng(seed)
    grid = _CliqueGrid(pts, tau)

    for _ in range(_MAX_RETRIES):
        # to_seed[j]: every point's squared distance to seed j, its growth key
        seeds, to_seed = _farthest_point_seeds(pts, k, rng)
        if len(set(seeds)) < k:
            continue  # duplicate seed (tiny sets); retry with new seeds
        assignment = np.full(n, -1, dtype=np.int64)
        assignment[seeds] = np.arange(k)
        if _scan(grid, assignment, targets, to_seed):
            return assignment
    raise ValueError("cannot split set into connected fragments with the requested sizes")


def _farthest_point_seeds(pts: np.ndarray, k: int, rng: np.random.Generator):
    seeds = [int(rng.integers(pts.shape[0]))]
    to_seed = [np.sum((pts - pts[seeds[0]]) ** 2, axis=1)]
    dist = to_seed[0]
    while len(seeds) < k:
        seeds.append(int(np.argmax(dist)))
        to_seed.append(np.sum((pts - pts[seeds[-1]]) ** 2, axis=1))
        dist = np.minimum(dist, to_seed[-1])
    return seeds, to_seed


def _within_tau(grid: _CliqueGrid, probe: np.ndarray, keep, runs=None) -> np.ndarray:
    """Entry t is True iff a point m that passes the mask ``keep(t, m)`` lies
    within tau of ``probe[t]``.

    Only the points of each probe's hood are compared, or of its 3x3x3 block
    when ``runs`` is ``grid.near_runs``: whole blocks, read as runs of the run
    table, about ``_HOOD_CHUNK`` points per pass. The distance test is
    ``absorb``'s on the same operands, so the two agree bit for bit."""
    hit = np.zeros(len(probe), dtype=bool)
    lo, hi = grid.hood_runs(probe, runs)
    w = len(lo) // len(probe)  # runs per probe
    lengths = (hi - lo).reshape(-1, w).sum(axis=1)
    for a, b in _passes(lengths, _HOOD_CHUNK):
        m = grid.order[_expand(lo[w * a:w * b], hi[w * a:w * b])]
        t = np.repeat(np.arange(a, b), lengths[a:b])
        mask = keep(t, m)
        t, m = t[mask], m[mask]
        diff = grid.points.take(probe[t], axis=0) - grid.points.take(m, axis=0)
        near = np.einsum("ij,ij->i", diff, diff) <= grid.tau_sq
        hit[t[near]] = True
    return hit


def _frontier(grid: _CliqueGrid, assignment: np.ndarray, new: np.ndarray) -> np.ndarray:
    """The unassigned points within tau (``d . d <= tau^2``) of the points
    ``new``: one closed ``_confirm`` query, against the runs of ``new``
    alone, over the unassigned points of the hoods of their cells."""
    near = grid.around(np.unique(grid.cell_of[new]))
    rows = np.flatnonzero((assignment < 0) & near[grid.cell_of])
    labels = np.zeros(len(assignment), dtype=np.int64)
    labels[new] = 1
    return rows[_confirm(grid, _LabelRuns(grid, labels), rows,
                         np.zeros(len(rows), dtype=np.int64), closed=True)]


def _scan(grid, assignment, targets, to_seed) -> bool:
    """Grow the fragments from their seeds in heap-flood order; True when
    every fragment reaches its target, False when one stalls below it.

    A fragment pops by a cursor down its presorted points for as long as the
    cursor's point has a tau-neighbour among the fragment's earlier points.
    Steps are planned up to ``_BATCH`` at a time and checked together; the
    first that fails is undone with every step after it, and the next batch
    plans at most 2 + twice the steps kept. The fragment that missed pops
    from its heap instead: ``_frontier`` queues the points within tau of the
    points it gained since it last queued, and ``absorb`` those of each point
    it pops. When the heap's top is again its next point in presorted order,
    it goes back to its cursor and keeps the heap for its next miss. A
    fragment whose heap empties below its target can never grow again, so
    the attempt ends there."""
    n, k = len(assignment), len(targets)
    ranked = [np.argsort(key, kind="stable").tolist() for key in to_seed]
    cursor = [0] * k
    taken = (assignment >= 0).tolist()
    deficit = [t - 1 for t in targets]
    # cell_has[j, c]: fragment j has a point in cell c, so within tau of all of c
    cell_has = np.zeros((k, len(grid.codes)), dtype=bool)
    cell_has[assignment[assignment >= 0], grid.cell_of[assignment >= 0]] = True
    # step[i]: batch position of point i, -1 for points placed before the batch
    step = np.full(n, -1, dtype=np.int64)
    # placed[i]: the batch that kept point i (-1 for the seeds); fragment j
    # has queued from its points placed before batch mark[j]
    placed = np.full(n, -1, dtype=np.int64)
    mark = [-1] * k
    # heaps[j]: fragment j's queue as (key, index) pairs, popped while
    # popping[j]; open_[j, i]: j has not queued i
    heaps: list[list[tuple[float, int]]] = [[] for _ in range(k)]
    popping = [False] * k
    open_ = np.ones((k, n), dtype=bool)

    def queue(j: int, fresh: np.ndarray) -> list[int]:
        open_[j, fresh] = False
        fresh = fresh.tolist()
        for key, nb in zip(to_seed[j].take(fresh).tolist(), fresh):
            heapq.heappush(heaps[j], (key, nb))
        return fresh

    def absorb(j: int, i: int) -> list[int]:
        """Queue in j's heap the unassigned points within tau of i that j has
        not queued."""
        cand = grid.hood(i)
        cand = cand[open_[j].take(cand) & (assignment.take(cand) < 0)]
        diff = grid.points.take(cand, axis=0) - grid.points[i]
        return queue(j, cand[np.einsum("ij,ij->i", diff, diff) <= grid.tau_sq])

    def undo(p: int) -> None:
        """Undo the batch's steps from p on, latest first: a heap gets back
        what they popped and loses what they queued."""
        back: dict[int, list] = {}
        for s in range(len(batch) - 1, p - 1, -1):
            j = frags[s]
            taken[batch[s]] = False
            deficit[j] += 1
            cursor[j] = before[s]
            if s in popped:
                out, fresh = popped[s]
                popping[j] = True
                open_[j, fresh] = True
                back.setdefault(j, []).append((out, fresh))
        for j, steps in back.items():
            gone = {i for _, fresh in steps for i in fresh}
            heap = heaps[j] + [e for out, _ in steps for e in out]
            heaps[j][:] = [e for e in heap if e[1] not in gone]
            heapq.heapify(heaps[j])

    remaining, limit, rounds = n - k, _BATCH, 0
    while remaining > 0:
        # per step: its point, its fragment and that fragment's cursor before
        # it; popped[s] = (entries popped, points queued) for a heap's steps
        batch, frags, before, popped = [], [], [], {}
        stalled = False
        for s in range(min(limit, remaining)):
            j = deficit.index(max(deficit))  # the largest deficit, ties to the lowest j
            order, c = ranked[j], cursor[j]
            while taken[order[c]]:
                c += 1
            i = order[c]
            if popping[j]:
                heap, out = heaps[j], []
                while heap and taken[heap[0][1]]:
                    out.append(heapq.heappop(heap))  # taken since it was queued
                if not heap:  # a stall, unless an earlier step is undone
                    heap[:] = out
                    stalled = True
                    break
                if heap[0][1] == i:  # the order holds again: back to the cursor
                    popping[j] = False
                    popped[s] = (out, [])
                else:
                    out.append(heapq.heappop(heap))
                    i = out[-1][1]
                    popped[s] = (out, absorb(j, i))
                    c -= 1  # the cursor's point stays next
            before.append(cursor[j])
            cursor[j] = c + 1
            taken[i] = True
            deficit[j] -= 1
            batch.append(i)
            frags.append(j)
        if not batch:
            return False
        points, owners = np.array(batch), np.array(frags)
        assignment[points] = owners
        step[points] = np.arange(len(points))
        cells = grid.cell_of[points]
        # own cell: the fragment had a point there before, or gains one earlier
        # in the batch; a heap pops only points within tau of its fragment
        valid = np.ones(len(points), dtype=bool)
        valid[np.unique(owners * len(grid.codes) + cells, return_index=True)[1]] = False
        valid |= cell_has[owners, cells]
        valid[list(popped)] = True
        rest = np.flatnonzero(~valid)
        # the 3x3x3 block around a step holds most first neighbours: the whole
        # hood is read only for the steps with none there
        for runs in (grid.near_runs, grid.runs):
            if not rest.size:
                break
            owner = owners[rest]
            valid[rest] = _within_tau(grid, points[rest], lambda t, m: (
                (assignment.take(m) == owner.take(t)) & (step.take(m) < rest.take(t))), runs)
            rest = rest[~valid[rest]]
        good = len(points) if valid.all() else int(np.argmin(valid))
        step[points] = -1
        cell_has[owners[:good], cells[:good]] = True
        placed[points[:good]] = rounds
        remaining -= good
        limit = min(_BATCH, 2 * good + 2)
        if good == len(points):
            if stalled:
                return False
        else:
            assignment[points[good:]] = -1
            undo(good)
            j = frags[good]  # its cursor's point has no tau-neighbour in it
            fresh = _frontier(grid, assignment,
                              np.flatnonzero((assignment == j) & (placed >= mark[j])))
            mark[j] = rounds + 1
            queue(j, fresh[open_[j, fresh]])
            popping[j] = True
        rounds += 1
    return True
