"""Proximity-graph clustering machinery.

Connectivity at radius ``tau`` means the graph with an edge between every
pair of points at distance <= tau is connected. Components are found with a
uniform spatial hash (cell size tau, 27-cell neighborhoods) and a BFS flood
fill; the O(n^2) brute-force BFS lives in the test suite as the oracle.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from .geometry import make_rng


@dataclass(frozen=True, eq=False)
class Clustering:
    """A hard partition of correspondence indices.

    ``labels[i]`` is the cluster id of index i: 0 means unassigned/outlier,
    ids 1..num_clusters are clusters. Empty ids may appear transiently (e.g.
    after a reassignment step empties a cluster); ``compact`` removes them.
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

    def keep(self, mask) -> "Clustering":
        """Keep the clusters flagged in ``mask`` (one bool per id 1..K).

        Survivors are renumbered 1..K' in id order and the points of dropped
        clusters get label 0. Returns ``self`` when every cluster is kept.
        """
        mask = np.asarray(mask, dtype=bool)
        if mask.all():
            return self
        kept = int(np.count_nonzero(mask))
        remap = np.zeros(self.num_clusters + 1, dtype=np.int64)
        remap[1:][mask] = np.arange(1, kept + 1)
        return Clustering(remap[self.labels], num_clusters=kept)

    def compact(self) -> "Clustering":
        """Drop empty cluster ids, renumbering survivors in order."""
        return self.keep(self.sizes()[1:] > 0)

    def by_size(self) -> "Clustering":
        """Renumber the nonempty clusters 1..K' by decreasing size, ties going
        to the smaller first member index; label 0 is untouched."""
        sizes = self.sizes()
        first_member = np.full(self.num_clusters + 1, len(self), dtype=np.int64)
        np.minimum.at(first_member, self.labels, np.arange(len(self)))
        ids = np.flatnonzero(sizes[1:]) + 1
        order = ids[np.lexsort((first_member[ids], -sizes[ids]))]
        remap = np.zeros(self.num_clusters + 1, dtype=np.int64)
        remap[order] = np.arange(1, order.size + 1)
        return Clustering(remap[self.labels], num_clusters=order.size)

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


class _SpatialHash:
    """Uniform grid with cell size tau; neighbor candidates come from 27 cells."""

    def __init__(self, points: np.ndarray, tau: float):
        self.points = points
        self.tau = tau
        keys = np.floor(points / tau).astype(np.int64)
        cells: dict[tuple[int, int, int], list[int]] = {}
        for i, key in enumerate(map(tuple, keys)):
            cells.setdefault(key, []).append(i)
        self.cells = {k: np.asarray(v, dtype=np.intp) for k, v in cells.items()}
        self.keys = keys
        self._hood_cache: dict[tuple[int, int, int], np.ndarray] = {}

    def candidates(self, index: int) -> np.ndarray:
        """Indices whose cells touch the cell of ``index`` (superset of tau-neighbors)."""
        key = tuple(self.keys[index])
        hood = self._hood_cache.get(key)
        if hood is None:
            parts = []
            kx, ky, kz = key
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    for dz in (-1, 0, 1):
                        cell = self.cells.get((kx + dx, ky + dy, kz + dz))
                        if cell is not None:
                            parts.append(cell)
            hood = np.concatenate(parts) if parts else np.empty(0, dtype=np.intp)
            self._hood_cache[key] = hood
        return hood

    def neighbors(self, index: int) -> np.ndarray:
        """Indices (excluding ``index``) within tau of point ``index``."""
        cand = self.candidates(index)
        diff = self.points[cand] - self.points[index]
        mask = np.einsum("ij,ij->i", diff, diff) <= self.tau * self.tau
        hits = cand[mask]
        return hits[hits != index]


def connected_components(points, tau: float) -> tuple[np.ndarray, int]:
    """Component id per point of the tau-proximity graph, plus component count."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    n = pts.shape[0]
    comp = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return comp, 0
    grid = _SpatialHash(pts, tau)
    tau_sq = tau * tau
    count = 0
    for start in range(n):
        if comp[start] >= 0:
            continue
        comp[start] = count
        stack = [start]
        while stack:
            i = stack.pop()
            cand = grid.candidates(i)
            cand = cand[comp[cand] < 0]
            if cand.size == 0:
                continue
            diff = pts[cand] - pts[i]
            hits = cand[np.einsum("ij,ij->i", diff, diff) <= tau_sq]
            comp[hits] = count
            stack.extend(hits.tolist())
        count += 1
    return comp, count


def is_connected(points, tau: float) -> bool:
    """True iff the tau-proximity graph over ``points`` is connected.

    Empty and singleton sets count as connected.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if pts.shape[0] <= 1:
        return True
    _, count = connected_components(pts, tau)
    return count == 1


def euclidean_cluster(cs, tau: float) -> Clustering:
    """Connected components of the tau-ball graph over the a-points.

    Clusters are labeled 1..K by decreasing size, ties broken by smallest
    member index; every point gets a positive label.
    """
    comp, count = connected_components(cs.a, tau)
    return Clustering(comp + 1, num_clusters=count).by_size()


def fragment_connected_set(points, tau: float, target_sizes, seed, max_retries: int = 32) -> np.ndarray:
    """Split a tau-connected point set into tau-connected fragments of given sizes.

    Grows fragments simultaneously from farthest-point seeds through the
    tau-proximity graph, always extending the fragment with the largest
    remaining deficit. Each fragment is tau-connected by construction: a point
    joins only through a tau-neighbour already in the fragment. Returns a
    fragment id (0..k-1) per point. Retries with fresh seeds when a growth
    attempt strands points; raises ValueError when the targets cannot be met
    after ``max_retries`` attempts.
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
    grid = _SpatialHash(pts, tau)

    for _ in range(max_retries):
        seeds = _farthest_point_seeds(pts, k, rng)
        assignment = _grow_fragments(pts, grid, seeds, targets)
        if assignment is not None:
            return assignment
    raise ValueError("cannot split set into connected fragments with the requested sizes")


def _farthest_point_seeds(pts: np.ndarray, k: int, rng: np.random.Generator) -> list[int]:
    seeds = [int(rng.integers(pts.shape[0]))]
    dist = np.sum((pts - pts[seeds[0]]) ** 2, axis=1)
    while len(seeds) < k:
        nxt = int(np.argmax(dist))
        seeds.append(nxt)
        dist = np.minimum(dist, np.sum((pts - pts[nxt]) ** 2, axis=1))
    return seeds


def _grow_fragments(pts, grid, seeds, targets):
    n = pts.shape[0]
    k = len(targets)
    assignment = np.full(n, -1, dtype=np.int64)
    sizes = [0] * k
    frontiers: list[list[tuple[float, int]]] = [[] for _ in range(k)]
    queued = np.zeros((k, n), dtype=bool)  # caps heap growth on dense graphs

    def absorb(j: int, i: int):
        assignment[i] = j
        sizes[j] += 1
        seed_pt = pts[seeds[j]]
        fresh = grid.neighbors(i)
        fresh = fresh[(assignment[fresh] < 0) & ~queued[j][fresh]]
        if fresh.size == 0:
            return
        queued[j][fresh] = True
        dists = np.sum((pts[fresh] - seed_pt) ** 2, axis=1)
        for d, nb in zip(dists.tolist(), fresh.tolist()):
            heapq.heappush(frontiers[j], (d, nb))

    for j, s in enumerate(seeds):
        if assignment[s] >= 0:
            return None  # duplicate seed (tiny sets); retry with new seeds
        absorb(j, s)

    remaining = n - k
    while remaining > 0:
        order = sorted(range(k), key=lambda j: (-(targets[j] - sizes[j]), j))
        grew = False
        for j in order:
            if sizes[j] >= targets[j]:
                continue
            while frontiers[j]:
                _, i = heapq.heappop(frontiers[j])
                if assignment[i] < 0:
                    absorb(j, i)
                    remaining -= 1
                    grew = True
                    break
            if grew:
                break
        if not grew:
            return None
    if sizes != targets:
        return None
    return assignment


@dataclass(frozen=True)
class InitialClusteringReport:
    """Checks an initial partition against the EM convergence preconditions."""

    cluster_sizes: tuple[int, ...]
    cluster_connected: tuple[bool, ...]
    cluster_size_ok: tuple[bool, ...]
    cluster_pure: tuple[bool, ...]
    object_dominance: tuple[float, ...]
    object_dominance_ok: tuple[bool, ...]
    fully_assigned: bool
    passed: bool


def check_initial_clustering(clustering: Clustering, a_points, true_labels, tau: float,
                             alpha: float, min_size: int) -> InitialClusteringReport:
    """Verify the three initial-clustering conditions against ground truth.

    Per cluster: tau-connectivity over a-points and size >= ``min_size``.
    Per ground-truth object: among the clusters intersecting it, the largest
    must strictly exceed ``alpha`` times every other. Additionally every
    cluster must sit inside a single object or consist purely of outliers,
    and every index must be assigned to some cluster.
    """
    pts = np.asarray(a_points, dtype=np.float64).reshape(-1, 3)
    truth = np.asarray(true_labels, dtype=np.int64).reshape(-1)
    if len(clustering) != pts.shape[0] or truth.shape[0] != pts.shape[0]:
        raise ValueError("clustering, points and labels must have equal length")

    table = clustering.contingency(truth)
    sizes = table[1:].sum(axis=1)
    connected = [is_connected(pts[clustering.members(j)], tau)
                 for j in range(1, clustering.num_clusters + 1)]
    size_ok = sizes >= min_size
    pure = np.count_nonzero(table[1:], axis=1) == 1

    dominance, dominance_ok = [], []
    for g in range(1, table.shape[1]):
        hit = np.sort(sizes[table[1:, g] > 0])[::-1]
        if hit.size == 0:
            dominance.append(0.0)
            dominance_ok.append(False)
        elif hit.size == 1:
            dominance.append(float("inf"))
            dominance_ok.append(True)
        else:
            dominance.append(float(hit[0] / hit[1]))
            dominance_ok.append(bool(hit[0] > alpha * hit[1]))

    fully_assigned = bool(np.all(clustering.labels > 0)) if len(clustering) else True
    passed = (fully_assigned and all(connected) and bool(size_ok.all())
              and bool(pure.all()) and all(dominance_ok))
    return InitialClusteringReport(
        cluster_sizes=tuple(sizes.tolist()),
        cluster_connected=tuple(connected),
        cluster_size_ok=tuple(size_ok.tolist()),
        cluster_pure=tuple(pure.tolist()),
        object_dominance=tuple(dominance),
        object_dominance_ok=tuple(dominance_ok),
        fully_assigned=fully_assigned,
        passed=passed,
    )
