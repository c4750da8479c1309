"""Clusterings, tau-connectivity and fragment growth, on ``multireg.grid``.

Components of the tau-graph are hook-and-compress joins of the grid's cell
pairs whose first points lie within tau, then of those still apart, but for
two one-point cells, that the grid's ``settle`` finds in contact (<= tau).

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

import numpy as np

from . import grid as tau_grid
from .geometry import make_rng
from .grid import CliqueGrid, LabelRuns, confirm, expand, pass_bounds, settle

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


# Fragment-growth steps planned before one vectorised check: long enough to
# amortise the check, short enough that the steps undone at a miss cost little.
_BATCH = 512
# Growth attempts, each from fresh seeds, before a split is declared impossible.
_MAX_RETRIES = 32


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
    grid = CliqueGrid(pts, tau)
    # Neighbouring cells whose first points lie within tau join first: the
    # contact step's test of those two points (it negates d; d . d keeps its bits).
    c, d = grid.pairs
    c, d = c[d > c], d[d > c]
    witness = pts[grid.order[grid.starts[:-1]]]
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
        settle(grid, LabelRuns(grid, np.ones(len(pts), dtype=np.int64)),
               grid.order[expand(grid.starts[c], grid.starts[c + 1])], owner, d[owner],
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
    grid = CliqueGrid(pts, tau)

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


def _within_tau(grid: CliqueGrid, probe: np.ndarray, keep, runs=None) -> np.ndarray:
    """Entry t is True iff a point m that passes the mask ``keep(t, m)`` lies
    within tau of ``probe[t]``.

    Only the points of each probe's hood are compared, or of its 3x3x3 block
    when ``runs`` is ``grid.near_runs``: whole blocks, read as runs of the run
    table, about ``HOOD_CHUNK`` points per pass. The distance test is
    ``absorb``'s on the same operands, so the two agree bit for bit."""
    hit = np.zeros(len(probe), dtype=bool)
    lo, hi = grid.hood_runs(probe, runs)
    w = len(lo) // len(probe)  # runs per probe
    lengths = (hi - lo).reshape(-1, w).sum(axis=1)
    for a, b in pass_bounds(lengths, tau_grid.HOOD_CHUNK):
        m = grid.order[expand(lo[w * a:w * b], hi[w * a:w * b])]
        t = np.repeat(np.arange(a, b), lengths[a:b])
        mask = keep(t, m)
        t, m = t[mask], m[mask]
        diff = grid.points.take(probe[t], axis=0) - grid.points.take(m, axis=0)
        near = np.einsum("ij,ij->i", diff, diff) <= grid.tau_sq
        hit[t[near]] = True
    return hit


def _frontier(grid: CliqueGrid, assignment: np.ndarray, new: np.ndarray) -> np.ndarray:
    """The unassigned points within tau (``d . d <= tau^2``) of the points
    ``new``: one closed ``confirm`` query, against the runs of ``new``
    alone, over the unassigned points of the hoods of their cells."""
    near = grid.around(np.unique(grid.cell_of[new]))
    rows = np.flatnonzero((assignment < 0) & near[grid.cell_of])
    labels = np.zeros(len(assignment), dtype=np.int64)
    labels[new] = 1
    return rows[confirm(grid, LabelRuns(grid, labels), rows,
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
