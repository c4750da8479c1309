"""Multi-model baselines: sequential RANSAC and T-Linkage."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clustering import Clustering
from .geometry import CorrespondenceSet, make_rng, move, row_norms
from .horn import horn_stack

# Minimal samples fitted per stack; memory does not grow with the trial count.
FIT_BLOCK = 1024


@dataclass(frozen=True)
class RansacConfig:
    inlier_threshold: float
    max_trials: int = 100
    min_model_inliers: int = 10
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.inlier_threshold) and self.inlier_threshold > 0):
            raise ValueError("inlier_threshold must be finite and positive")
        if self.max_trials < 1:
            raise ValueError("max_trials must be at least 1")
        if self.min_model_inliers < 3:
            raise ValueError("min_model_inliers must be at least 3")


@dataclass(frozen=True)
class TLinkageConfig:
    tau_t: float
    tau: float
    num_hypotheses: int = 100
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.tau_t) and self.tau_t > 0):
            raise ValueError("tau_t must be finite and positive")
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ValueError("tau must be finite and positive")
        if self.num_hypotheses < 0:
            raise ValueError("num_hypotheses must be nonnegative")


def _minimal_fits(cs: CorrespondenceSet, draw, count: int):
    """Yield (rotation, translation) for ``count`` samples of ``draw()``, in order.

    Each block of FIT_BLOCK samples is drawn, then fitted as one ``horn_stack``
    (the bits of ``horn_register``); fits draw nothing, so the random stream
    is the one of a fit per draw.
    """
    for start in range(0, count, FIT_BLOCK):
        picks = np.array([draw() for _ in range(min(FIT_BLOCK, count - start))])
        yield from zip(*horn_stack(cs.a[picks], cs.b[picks]))


def ransac_single(cs: CorrespondenceSet, active_indices, cfg: RansacConfig,
                  rng: np.random.Generator | None = None):
    """Fit one rigid motion to the active points by consensus.

    Draws ``max_trials`` 3-point samples (one ``rng.choice`` each, in trial
    order) and fits them in stacks (``_minimal_fits``), keeps the trial with
    the most points within ``inlier_threshold`` of its model (ties go to the
    earliest trial). Returns that trial's inlier indices, or None when the
    best consensus is below ``min_model_inliers``.
    """
    active = np.asarray(active_indices, dtype=np.intp).reshape(-1)
    if active.size < 3:
        raise ValueError("need at least 3 active correspondences")
    rng = make_rng(cfg.seed) if rng is None else rng
    a_act, b_act = cs.a[active], cs.b[active]

    def draw():
        return active[rng.choice(active.size, size=3, replace=False)]

    best_count = -1
    best_mask = None
    for rotation, translation in _minimal_fits(cs, draw, cfg.max_trials):
        mask = row_norms(b_act - move(a_act, rotation, translation)) <= cfg.inlier_threshold
        count = int(mask.sum())
        if count > best_count:
            best_count = count
            best_mask = mask
    if best_count < cfg.min_model_inliers:
        return None
    return active[best_mask]


def sequential_ransac(cs: CorrespondenceSet, cfg: RansacConfig) -> Clustering:
    """Extract rigid motions greedily until no consensus remains.

    Each accepted model claims its inliers as the next cluster and removes
    them; whatever is left unexplained keeps label 0.
    """
    labels = np.zeros(len(cs), dtype=np.int64)
    rng = make_rng(cfg.seed)
    active = np.arange(len(cs), dtype=np.intp)
    next_id = 1
    while active.size >= max(3, cfg.min_model_inliers):
        inliers = ransac_single(cs, active, cfg, rng)
        if inliers is None:
            break
        labels[inliers] = next_id
        next_id += 1
        active = active[~np.isin(active, inliers)]
    return Clustering(labels, num_clusters=next_id - 1)


def _preference_matrix(cs: CorrespondenceSet, hypotheses, cfg: TLinkageConfig) -> np.ndarray:
    prefs = np.empty((len(cs), len(hypotheses)))
    # a residual over a tiny tau_t may overflow: exp(-inf) = 0 is its preference
    with np.errstate(over="ignore"):
        for h, (rotation, translation) in enumerate(hypotheses):
            residual = row_norms(cs.b - move(cs.a, rotation, translation))
            prefs[:, h] = np.where(residual <= 5.0 * cfg.tau, np.exp(-residual / cfg.tau_t), 0.0)
    return prefs


def tanimoto_distance(u, v) -> float:
    """1 - <u,v> / (|u|^2 + |v|^2 - <u,v>); two zero vectors are at distance 1."""
    u = np.asarray(u, dtype=np.float64).reshape(-1)
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    if u.shape != v.shape:
        raise ValueError("preference vectors must have equal length")
    dot = float(u @ v)
    denom = float(u @ u) + float(v @ v) - dot
    if denom <= 0.0:
        return 1.0
    return 1.0 - dot / denom


def _gram_to_tanimoto(gram, sq_rows, sq_cols) -> np.ndarray:
    """Turn inner products into Tanimoto distances in place, with the same
    arithmetic as ``tanimoto_distance``; a denominator <= 0 gives 1."""
    denom = sq_rows + sq_cols
    denom -= gram
    ok = denom > 0.0
    np.divide(gram, denom, out=gram, where=ok)
    gram[~ok] = 0.0
    return np.subtract(1.0, gram, out=gram)


def _tanimoto_merge(prefs: np.ndarray) -> list[list[int]]:
    """Agglomerate the rows of ``prefs`` (k x H); returns the groups of row
    indices, in survivor order.

    The pair at the smallest Tanimoto distance below 1 merges first, exact
    ties going to the lowest (i, j) in row-major order; the survivor is the
    lower index i, its preference becomes the element-wise min of the two
    rows, and row j is retired. Distances live in one k x k upper-triangular
    matrix: a merge masks row and column j and recomputes row i with one
    matrix-vector product, so each merge costs O(k^2) (the argmin) plus
    O(k H), and memory is O(k^2).
    """
    prefs = np.array(prefs, dtype=np.float64)
    k = prefs.shape[0]
    groups = [[c] for c in range(k)]
    dist = prefs @ prefs.T
    sq = dist.diagonal().copy()
    _gram_to_tanimoto(dist, sq[:, None], sq)
    dist[np.tri(k, dtype=bool)] = np.inf
    dist[dist >= 1.0] = np.inf
    live = np.ones(k, dtype=bool)
    while True:
        i, j = divmod(int(np.argmin(dist)), k)
        if dist[i, j] == np.inf:
            break
        groups[i] += groups[j]
        live[j] = False
        dist[j, :] = np.inf
        dist[:, j] = np.inf
        prefs[i] = np.minimum(prefs[i], prefs[j])
        sq[i] = prefs[i] @ prefs[i]
        row = _gram_to_tanimoto(prefs @ prefs[i], sq[i], sq)
        row[(row >= 1.0) | ~live] = np.inf
        dist[:i, i] = row[:i]
        dist[i, i + 1:] = row[i + 1:]
    return [groups[c] for c in np.flatnonzero(live)]


def tlinkage_cluster(cs: CorrespondenceSet, initial: Clustering,
                     cfg: TLinkageConfig) -> Clustering:
    """Agglomerate initial clusters by Tanimoto distance between preferences.

    Hypotheses are Horn fits on minimal samples drawn within single initial
    clusters (an ``integers`` then a ``choice`` draw each, in order, fitted in
    stacks by ``_minimal_fits``); a point's preference for a hypothesis decays
    as exp(-residual / tau_t) and is zero beyond 5 * tau, and a cluster's
    preference vector is the element-wise minimum over its members. The
    closest pair below distance 1 merges (merged preference = element-wise
    min) until every remaining pair is at distance 1; ties go to the lowest
    (i, j) pair of current cluster positions, in row-major order (see
    ``_tanimoto_merge``: O(k^2) per merge, O(k^2) memory for k initial
    clusters). The result is always a coarsening of the initial partition;
    zero hypotheses return the initial clustering unchanged.
    """
    rng = make_rng(cfg.seed)
    groups = [g for g in initial.groups() if g.size > 0]
    eligible = [g for g in groups if g.size >= 3]

    def draw():
        g = eligible[int(rng.integers(len(eligible)))]
        return g[rng.choice(g.size, size=3, replace=False)]

    hypotheses = list(_minimal_fits(cs, draw, cfg.num_hypotheses)) if eligible else []
    if not hypotheses:
        return Clustering(initial.labels, num_clusters=initial.num_clusters)

    # rebinding frees the n x H point preferences before the k x k matrix exists
    prefs = _preference_matrix(cs, hypotheses, cfg)
    prefs = np.array([prefs[g].min(axis=0) for g in groups])
    merged = _tanimoto_merge(prefs)
    labels = np.zeros(len(cs), dtype=np.int64)
    for new_id, group in enumerate(merged, start=1):
        for c in group:
            labels[groups[c]] = new_id
    return Clustering(labels, num_clusters=len(merged)).by_size()
