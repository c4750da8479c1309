"""Shared test helpers: the brute-force connectivity, fragment-growth and
distance oracles, the per-cluster k-d proximity gate, the dense (n, k)
hood masks and log-scores of EM's classification step, the row-wise forms of
the ball sampler and the Horn diagnostics, the norm form of the random walk,
the small geometry and clustering helpers only tests use, the check of an
initial clustering against the EM preconditions, the per-cluster IoU loop,
the scene text as one string, and the result and bench CSV readers."""

import csv
import heapq
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.spatial import cKDTree

from multireg.clustering import Clustering, is_connected
from multireg.geometry import RigidTransform, make_rng
from multireg.horn import SIGMA_FLOOR, horn_register
from multireg.io import _scene_blocks


def brute_force_connected(points, tau):
    """O(n^2) BFS over the full distance matrix; the oracle for is_connected."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    n = pts.shape[0]
    if n <= 1:
        return True
    diff = pts[:, None, :] - pts[None, :, :]
    adjacency = np.sqrt(np.sum(diff * diff, axis=2)) <= tau
    visited = np.zeros(n, dtype=bool)
    stack = [0]
    visited[0] = True
    while stack:
        i = stack.pop()
        for j in np.flatnonzero(adjacency[i] & ~visited):
            visited[j] = True
            stack.append(int(j))
    return bool(visited.all())


def brute_force_components(points, tau):
    """O(n^2) BFS over the full distance matrix; the oracle for
    connected_components. Component ids follow the smallest member index."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    n = pts.shape[0]
    diff = pts[:, None, :] - pts[None, :, :]
    adjacency = np.sqrt(np.sum(diff * diff, axis=2)) <= tau
    comp = np.full(n, -1, dtype=np.int64)
    count = 0
    for start in range(n):
        if comp[start] >= 0:
            continue
        comp[start] = count
        stack = [start]
        while stack:
            i = stack.pop()
            for j in np.flatnonzero(adjacency[i] & (comp < 0)):
                comp[j] = count
                stack.append(int(j))
        count += 1
    return comp, count


def brute_force_fragments(points, tau, target_sizes, seed, max_retries=32):
    """The heap growth of fragment_connected_set over brute-force neighbour
    lists: the same farthest-point seeds, heap order (distance to seed, index)
    and retries. Returns the fragment id per point and the attempt (1-based)
    that succeeded; raises ValueError when every attempt strands points."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    n = pts.shape[0]
    targets = [int(t) for t in target_sizes]
    neighbours = _neighbours(pts, tau)
    rng = make_rng(seed)
    for attempt in range(1, max_retries + 1):
        seeds = [int(rng.integers(n))]
        dist = np.sum((pts - pts[seeds[0]]) ** 2, axis=1)
        while len(seeds) < len(targets):
            seeds.append(int(np.argmax(dist)))
            dist = np.minimum(dist, np.sum((pts - pts[seeds[-1]]) ** 2, axis=1))
        assignment = _heap_growth(pts, neighbours, seeds, targets)
        if assignment is not None:
            return assignment, attempt
    raise ValueError("cannot split set into connected fragments with the requested sizes")


def heap_growth_to_stall(points, tau, seeds, targets):
    """One attempt of brute_force_fragments' heap growth from these seeds,
    stopped where the fragment with the largest deficit (ties to the lowest)
    has no unassigned tau-neighbour left: the fragment id per point then, -1
    for the points still unassigned; the whole split if no fragment stalls."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    return _heap_growth(pts, _neighbours(pts, tau), seeds, [int(t) for t in targets],
                        stop_at_stall=True)


def _neighbours(pts, tau):
    neighbours = []
    for i in range(pts.shape[0]):
        diff = pts - pts[i]
        hits = np.flatnonzero(np.einsum("ij,ij->i", diff, diff) <= tau * tau)
        neighbours.append(hits[hits != i])
    return neighbours


def _heap_growth(pts, neighbours, seeds, targets, stop_at_stall=False):
    n, k = pts.shape[0], len(targets)
    assignment = np.full(n, -1, dtype=np.int64)
    sizes = [0] * k
    frontiers = [[] for _ in range(k)]
    queued = np.zeros((k, n), dtype=bool)

    def absorb(j, i):
        assignment[i] = j
        sizes[j] += 1
        fresh = neighbours[i]
        fresh = fresh[(assignment[fresh] < 0) & ~queued[j][fresh]]
        queued[j][fresh] = True
        dists = np.sum((pts[fresh] - pts[seeds[j]]) ** 2, axis=1)
        for d, nb in zip(dists.tolist(), fresh.tolist()):
            heapq.heappush(frontiers[j], (d, nb))

    for j, s in enumerate(seeds):
        if assignment[s] >= 0:
            return None
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
            if grew or stop_at_stall:
                break
        if not grew:
            return assignment if stop_at_stall else None
    return assignment if sizes == targets else None


def distance_to_cluster(cluster_points, point) -> float:
    """Minimum Euclidean distance from ``point`` to any cluster member; the
    oracle for the E-step proximity gate.

    An empty cluster is at distance +inf by convention.
    """
    pts = np.asarray(cluster_points, dtype=np.float64).reshape(-1, 3)
    if pts.shape[0] == 0:
        return float("inf")
    p = np.asarray(point, dtype=np.float64).reshape(3)
    return float(np.sqrt(np.min(np.sum((pts - p) ** 2, axis=1))))


def kd_tree_gate(points, labels, k, tau):
    """(n, k) mask: point i lies strictly within tau of a point labelled j + 1.

    One cKDTree per cluster, every point queried against it: the E-step gate
    before the tau/2 cell grid, kept as its reference on inputs too large for
    ``distance_to_cluster``.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    labels = np.asarray(labels)
    passes = np.empty((pts.shape[0], k), dtype=bool)
    for j in range(1, k + 1):
        dist, _ = cKDTree(pts[labels == j]).query(pts, k=1, distance_upper_bound=tau)
        passes[:, j - 1] = dist < tau
    return passes


def dense_occupancy(grid, labels, k):
    """(n, k) masks ``own`` and ``hood``: entry (i, j) is True iff a point
    labelled j + 1 lies in point i's cell, or in its hood, read from each
    point's hood listing; the oracle for the per-cluster own-cell masks and
    hood rows of ``em._hood_scores``."""
    labels = np.asarray(labels)
    in_cell = np.zeros((len(grid.codes), k + 1), dtype=bool)
    in_cell[grid.cell_of, labels] = True
    hood = np.zeros((len(labels), k + 1), dtype=bool)
    for i in range(len(labels)):
        hood[i, labels[grid.hood(i)]] = True
    return in_cell[grid.cell_of, 1:], hood[:, 1:]


def dense_log_scores(cs, models, pairs):
    """(n, k) log-scores log pi_j - 3 log sigma_j - |b_i - R_j a_i - t_j|^2 /
    (2 sigma_j^2) at the entries of the (n, k) mask ``pairs``, -inf elsewhere:
    column j is computed over the rows ``flatnonzero(pairs[:, j])``, as the
    dense classification step scored its hood pairs. The oracle for the
    per-cluster scores of ``em._hood_scores``."""
    scores = np.full((len(cs), len(models)), -np.inf)
    for j, model in enumerate(models):
        rows = np.flatnonzero(pairs[:, j])
        residual = cs.b.take(rows, axis=0) - model.transform.apply(cs.a.take(rows, axis=0))
        sq = np.einsum("ij,ij->i", residual, residual)
        scores[rows, j] = (np.log(model.weight) - 3.0 * np.log(model.sigma_hat)
                           - sq / (2.0 * model.sigma_hat ** 2))
    return scores


def horn_fit_per_set(a, b):
    """(rotation, translation) of one (m, 3) set, with the arithmetic of the
    single-set Horn solver that the stacked kernel replaced: its bit-level
    oracle."""
    a_mean, b_mean = a.mean(axis=0), b.mean(axis=0)
    u, _, vt = np.linalg.svd(((b - b_mean).T @ (a - a_mean)) / a.shape[0])
    d = np.sign(np.linalg.det(u @ vt))
    rotation = u @ np.diag([1.0, 1.0, 1.0 if d == 0 else d]) @ vt
    return rotation, b_mean - rotation @ a_mean


def ransac_single_per_trial(cs, active_indices, cfg, rng):
    """One Horn fit per drawn 3-point sample, scored before the next draw: the
    sRANSAC model search before the stacked minimal fits, kept as their oracle.

    Returns (refit transform, inliers, best trial index, every trial's
    transform); ties go to the earliest trial, and None stands for the refit
    and inliers when the best consensus is below ``min_model_inliers``.
    """
    active = np.asarray(active_indices, dtype=np.intp).reshape(-1)
    a_act, b_act = cs.a[active], cs.b[active]
    best_count, best_trial, best_mask, trials = -1, None, None, []
    for trial in range(cfg.max_trials):
        pick = rng.choice(active.size, size=3, replace=False)
        transform = horn_register(cs.subset(active[pick])).transform
        trials.append(transform)
        residual = b_act - transform.apply(a_act)
        mask = np.linalg.norm(residual, axis=1) <= cfg.inlier_threshold
        if int(mask.sum()) > best_count:
            best_count, best_trial, best_mask = int(mask.sum()), trial, mask
    if best_count < cfg.min_model_inliers:
        return None, None, best_trial, trials
    inliers = active[best_mask]
    return horn_register(cs.subset(inliers)).transform, inliers, best_trial, trials


def ball_sample_by_row_sums(rng, radius, size=None):
    """``random_point_in_ball`` with each candidate's squared radius summed
    across its 3-wide row and the accepted rows taken by a boolean mask: the
    form that the column sums and ``compress`` replaced, kept as their
    bit-level oracle (same draws, same accepted points)."""
    n = 1 if size is None else size
    pts = np.empty((n, 3))
    filled = 0
    while filled < n:
        cand = rng.uniform(-radius, radius, size=(2 * (n - filled) + 8, 3))
        ok = cand[np.sum(cand * cand, axis=1) <= radius * radius]
        take = min(len(ok), n - filled)
        pts[filled:filled + take] = ok[:take]
        filled += take
    return pts[0] if size is None else pts


def noise_std_by_var(residuals, sigma_floor=SIGMA_FLOOR):
    """``estimate_noise_std`` through ``var(axis=0)``: the form the per-column
    sums replaced, kept as their bit-level oracle."""
    r = np.asarray(residuals, dtype=np.float64).reshape(-1, 3)
    return max(float(np.sqrt(r.var(axis=0).mean())), sigma_floor)


def eager_diagnostics(cs, sigma_floor=SIGMA_FLOOR):
    """(sigma_hat, lambda_min) of ``horn_register(cs)`` computed as the fit
    once did on every call, before they became read-on-demand properties."""
    est = horn_register(cs, sigma_floor)
    sigma_hat = noise_std_by_var(cs.b - est.transform.apply(cs.a), sigma_floor)
    a_centered = cs.a - cs.a.mean(axis=0)
    second_moment = (a_centered.T @ a_centered) / len(cs)
    return sigma_hat, max(float(np.linalg.eigvalsh(second_moment)[0]), 0.0)


def random_walk_blob_by_norm(rng, center, count, tau, radius):
    """The random-walk blob of ``scenes`` with every length taken by
    ``np.linalg.norm``: the form ``math.sqrt(v.dot(v))`` replaced, kept as its
    bit-level oracle (same draws, same points)."""
    pts = np.empty((count, 3))
    x = center.copy()
    pts[0] = x
    for k in range(1, count):
        direction = rng.standard_normal(3)
        norm = np.linalg.norm(direction)
        while norm < 1e-12:
            direction = rng.standard_normal(3)
            norm = np.linalg.norm(direction)
        x = x + direction / norm * rng.uniform(0.0, tau / 2.0)
        off = x - center
        dist = np.linalg.norm(off)
        if dist > radius:
            x = center + off * (radius / dist)
        pts[k] = x
    return pts


def rotation_about_axis(axis, angle: float) -> np.ndarray:
    """Rotation matrix for ``angle`` radians about the unit vector ``axis`` (Rodrigues)."""
    u = np.asarray(axis, dtype=np.float64)
    norm = np.linalg.norm(u)
    if norm == 0:
        raise ValueError("axis must be nonzero")
    u = u / norm
    k = np.array([
        [0.0, -u[2], u[1]],
        [u[2], 0.0, -u[0]],
        [-u[1], u[0], 0.0],
    ])
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def compose(first: RigidTransform, second: RigidTransform) -> RigidTransform:
    """Transform equal to applying ``second`` first, then ``first``."""
    return RigidTransform(first.rotation @ second.rotation,
                          first.rotation @ second.translation + first.translation)


def inverse(t: RigidTransform) -> RigidTransform:
    """The transform that undoes ``t``."""
    rt = t.rotation.T
    return RigidTransform(rt, -(rt @ t.translation))


def almost_equal(s: RigidTransform, t: RigidTransform, tol: float = 1e-12) -> bool:
    return (float(np.linalg.norm(s.rotation - t.rotation)) <= tol
            and float(np.linalg.norm(s.translation - t.translation)) <= tol)


def compact(clustering: Clustering) -> Clustering:
    """Drop empty cluster ids, renumbering survivors in order."""
    return clustering.keep(clustering.sizes()[1:] > 0)


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


def iou_per_cluster_by_loop(pred: Clustering, truth):
    """One predicted cluster at a time, with Python ints: the per-cluster
    form of ``metrics.iou_per_cluster``, its reference."""
    table = pred.contingency(truth)
    sizes, true_sizes = table.sum(axis=1), table.sum(axis=0)
    ids, ious = [], []
    for j in np.flatnonzero(sizes[1:]) + 1:
        inter = table[j, 1:]
        ids.append(int(j))
        if inter.size == 0 or inter.max() == 0:
            ious.append(0.0)
            continue
        g = int(np.argmax(inter)) + 1
        overlap = int(inter[g - 1])
        ious.append(overlap / (int(sizes[j]) + int(true_sizes[g]) - overlap))
    return tuple(ids), tuple(ious)


def scene_to_text(scene) -> str:
    """The text that ``write_scene`` writes for ``scene``, as one string."""
    return "".join(_scene_blocks(scene))


def read_result(path) -> dict[str, str]:
    record: dict[str, str] = {}
    with open(path, "r", encoding="ascii") as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            key, sep, value = line.partition(" = ")
            if not sep and line.endswith(" ="):  # empty value
                key, value = line[:-2], ""
            record[key] = value
    return record


def read_bench_csv(path) -> list[dict[str, str]]:
    with open(path, "r", encoding="ascii") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
