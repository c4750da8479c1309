"""Classification EM for multi-model registration.

Each iteration: prune undersized clusters, fit a rigid motion per cluster
(Horn), then hard-assign each correspondence to the cluster with the best
weighted Gaussian log-likelihood among those it lies close to (the proximity
gate). The loop stops when the assignment is a fixed point or the iteration
cap is hit. Clusters only ever shrink or merge; no new clusters are created.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .clustering import Clustering
from .geometry import MAX_ROWS, CorrespondenceSet, RigidTransform
from .grid import CliqueGrid, LabelRuns, confirm, label_hoods
from .horn import SIGMA_FLOOR, HornEstimate, horn_register


class NoViableClustersError(RuntimeError):
    """Every cluster fell below the pruning threshold."""


@dataclass(frozen=True)
class EMConfig:
    """Knobs for the EM loop.

    tau gates the likelihood: a correspondence farther than tau from every
    point of a cluster gets zero weight for it. Clusters smaller than m_min
    are dissolved before fitting (Horn needs >= 3 points, and tiny clusters
    make the variance estimate unstable).
    """

    tau: float
    m_min: int = 10
    max_iters: int = 100
    sigma_floor: float = SIGMA_FLOOR

    def __post_init__(self):
        # written so that NaN fails every check
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ValueError("tau must be finite and positive")
        if not 3 <= self.m_min <= MAX_ROWS:
            raise ValueError(f"m_min must lie in 3..{MAX_ROWS}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        # the scores divide by sigma_hat^2: a square that rounds to 0 (or to a
        # subnormal) could give 0/0 = NaN on a fit with zero residuals
        square = self.sigma_floor * self.sigma_floor
        if not (self.sigma_floor > 0 and sys.float_info.min <= square < math.inf):
            raise ValueError("sigma_floor must be positive, with a finite square of at least "
                             "the smallest normal float")


@dataclass(frozen=True)
class ClusterModel:
    """Per-cluster motion estimate, noise level and mixing weight."""

    transform: RigidTransform
    sigma_hat: float
    weight: float


@dataclass(frozen=True)
class IterationStats:
    iteration: int
    cluster_sizes: tuple[int, ...]
    weights: tuple[float, ...]
    sigmas: tuple[float, ...]
    assignment_changes: int


@dataclass(frozen=True)
class EMResult:
    clustering: Clustering
    models: tuple[ClusterModel, ...]
    iterations_run: int
    converged: bool
    assignment_changes: tuple[int, ...]
    trace: tuple[IterationStats, ...]


def fit_clusters(cs: CorrespondenceSet, clustering: Clustering,
                 sigma_floor: float = SIGMA_FLOOR) -> list[HornEstimate]:
    """One Horn fit per cluster id 1..K; its diagnostics are computed when read."""
    return [horn_register(cs.subset(members), sigma_floor=sigma_floor)
            for members in clustering.groups()]


def fit_models(cs: CorrespondenceSet, clustering: Clustering, cfg: EMConfig) -> list[ClusterModel]:
    """Fit a rigid motion and noise level per cluster; weights are size fractions.

    Weights are normalized over the assigned points only, so they sum to one
    across live clusters. A cluster smaller than 3 reaching this point is a
    pipeline bug: pruning must run first.
    """
    sizes = clustering.sizes()[1:].tolist()
    total_assigned = sum(sizes)
    if total_assigned == 0:
        raise NoViableClustersError("no viable clusters")
    for j, size in enumerate(sizes, start=1):
        if size < 3:
            raise RuntimeError(f"cluster {j} has {size} members; pruning must run before fitting")
    return [ClusterModel(est.transform, est.sigma_hat, size / total_assigned)
            for est, size in zip(fit_clusters(cs, clustering, cfg.sigma_floor), sizes)]


def _score(cs: CorrespondenceSet, model: ClusterModel, rows: np.ndarray) -> np.ndarray:
    """Log-scores log pi - 3 log sigma - |b_i - R a_i - t|^2 / (2 sigma^2) of
    ``model`` at ``rows``, i.e. log(pi phi(b_i | a_i)) up to a shared constant."""
    residual = cs.b.take(rows, axis=0) - model.transform.apply(cs.a.take(rows, axis=0))
    sq = np.einsum("ij,ij->i", residual, residual)
    return np.log(model.weight) - 3.0 * np.log(model.sigma_hat) - sq / (2.0 * model.sigma_hat ** 2)


def _log_scores(cs: CorrespondenceSet, models) -> np.ndarray:
    """(n, k) log-scores: column j is model j's ``_score`` at every row."""
    scores = np.empty((len(cs), len(models)))
    for j, model in enumerate(models):
        scores[:, j] = _score(cs, model, np.arange(len(cs)))
    return scores


def e_step(cs: CorrespondenceSet, clustering: Clustering, models, cfg: EMConfig) -> np.ndarray:
    """Weighted-likelihood responsibilities, gated by cluster proximity.

    Entry (i, j) is pi_j * phi_j(b_i | a_i) normalized over all clusters,
    multiplied by the indicator that a_i lies strictly within tau of cluster
    j's a-points (cluster memberships frozen at the start of the iteration).
    phi_j is the isotropic Gaussian density with mean R_j a_i + t_j and
    covariance sigma_j^2 I, evaluated in log space so far-away points cannot
    underflow the ratios. Rows whose indicators are all zero are all zero.

    This is the reference form of the E-step: every pair goes through the
    strict form of the grid's label-run query ``confirm``, one cluster at a
    time. ``run_em`` assigns through ``assign``, which never forms the ratios.
    """
    k = clustering.num_clusters
    if len(models) != k:
        raise ValueError("one model per cluster required")
    log_scores = _log_scores(cs, models)
    # a finite shift: a row of -inf log-scores gets zeros, not (-inf) - (-inf)
    unnorm = np.exp(log_scores - log_scores.max(axis=1, keepdims=True).clip(-sys.float_info.max))
    total = unnorm.sum(axis=1, keepdims=True)
    weights = np.divide(unnorm, total, out=np.zeros_like(unnorm), where=total > 0)
    grid = CliqueGrid(cs.a, cfg.tau)
    runs = LabelRuns(grid, clustering.labels)
    everyone = np.arange(len(cs))
    gated = np.zeros(weights.shape, dtype=bool)
    # an id with no members gates nothing
    for j in np.flatnonzero(clustering.sizes()[1:]).tolist():
        gated[:, j] = confirm(grid, runs, everyone, np.full(len(cs), j))
    return weights * gated


def m_step(weights: np.ndarray, previous: Clustering, cfg: EMConfig) -> Clustering:
    """Assign each point to its highest-weight cluster.

    Ties go to the lower cluster id; rows with no positive weight keep their
    previous label (including the outlier label 0).
    """
    labels = previous.labels.copy()
    has_mass = weights.max(axis=1) > 0.0
    labels[has_mass] = np.argmax(weights[has_mass], axis=1) + 1
    return Clustering(labels, num_clusters=previous.num_clusters)


def _hood_scores(cs: CorrespondenceSet, models, grid: CliqueGrid, runs: LabelRuns):
    """For each cluster j in id order: the rows whose hood holds a member of
    j, ascending (``rows``), whether their own cell holds one (``own``), and
    model j's ``_score`` at them; the grid's ``label_hoods`` reads the rows
    and flags off the label runs ``runs``."""
    for (rows, own), model in zip(label_hoods(grid, runs, len(models)), models):
        yield rows, own, _score(cs, model, rows)


def assign(cs: CorrespondenceSet, clustering: Clustering, models, grid: CliqueGrid) -> Clustering:
    """The classification step: each point goes to its best gated cluster.

    Point i takes the id maximising its log-score over the clusters whose gate
    it passes (strictly within tau of a member); ties go to the lower id, and
    a point that passes no gate, or whose gated scores are all -inf, keeps its
    label. This is ``m_step(e_step())`` without the normalisation, so
    underflow cannot change a label.

    Only hood pairs are scored, one cluster at a time, each cluster's cells
    read off the label runs of ``clustering`` on ``run_em``'s ``grid``, sorted
    once per call. A cluster with a member in the point's own cell passes;
    the best of these, by a strict > over the ids in order, is the point's
    own winner. The candidates are the other
    hood pairs that score at least the own winner's score: no other pair can
    win. They get the exact tau test best first, in descending score with
    ties to the lower id, and a row stops at its first pass: the argmax over
    gated entries is the first gated entry in that order or the own winner,
    so a candidate never tested could not have won. Round r tests the r-th
    candidate of every open row in one batch through the grid's strict
    ``confirm`` on the same runs. No (n, k) array is formed.
    """
    n = len(cs)
    runs = LabelRuns(grid, clustering.labels)
    best = np.full(n, -np.inf)  # the own winner's score
    won = np.full(n, -1)  # the own winner, -1 for none
    rest = []  # per cluster, the hood pairs outside the own cell
    for j, (rows, own, scores) in enumerate(_hood_scores(cs, models, grid, runs)):
        r, s = rows[own], scores[own]
        better = s > best.take(r)
        best[r[better]], won[r[better]] = s[better], j
        rest.append((rows[~own], scores[~own]))
    keep = [s >= best.take(r) for r, s in rest]
    row = np.concatenate([r[m] for (r, _), m in zip(rest, keep)])
    score = np.concatenate([s[m] for (_, s), m in zip(rest, keep)])
    col = np.repeat(np.arange(len(rest), dtype=np.int32), [np.count_nonzero(m) for m in keep])
    del rest, keep  # freed before the sort and the rounds
    # numpy orders complex numbers by real part, then imaginary part: one
    # stable sort puts the candidates by row, then by descending score, ties
    # in id order (faster than a lexsort, as the rows come in sorted runs)
    key = row.astype(np.complex128)
    key.imag = -score
    order = np.argsort(key, kind="stable")
    del key
    row, col, score = row[order], col[order], score[order]
    first = np.flatnonzero(np.diff(row, prepend=-1))
    count = np.diff(np.append(first, len(row)))
    passed = np.zeros(len(row), dtype=bool)
    open_rows = np.arange(len(first))
    for r in range(int(count.max(initial=0))):
        open_rows = open_rows[count[open_rows] > r]
        q = first[open_rows] + r
        passed[q] = confirm(grid, runs, row[q].astype(np.intp), col[q].astype(np.intp))
        open_rows = open_rows[~passed[q]]
    # a row's first pass wins over its own winner if it scores higher, or
    # the same with a lower id; -inf never wins
    i, j, s = row[passed], col[passed], score[passed]
    wins = (s > best[i]) | ((s == best[i]) & (j < won[i]))
    won[i[wins]] = j[wins]
    return Clustering(np.where(won >= 0, won + 1, clustering.labels), num_clusters=len(models))


def prune_small(clustering: Clustering, cfg: EMConfig) -> Clustering:
    """Dissolve clusters smaller than m_min to label 0 and compact the ids.

    Dissolved points become eligible for reassignment by later E-steps
    through the proximity gate of the surviving clusters.
    """
    return clustering.keep(clustering.sizes()[1:] >= cfg.m_min)


def run_em(cs: CorrespondenceSet, initial: Clustering, cfg: EMConfig) -> EMResult:
    """Iterate prune / fit / assign until the assignment stabilizes.

    Deterministic given its inputs. Raises NoViableClustersError when pruning
    removes every cluster. Initial clusters below m_min are legal input; the
    first prune dissolves them.
    """
    if len(initial) != len(cs):
        raise ValueError("initial clustering length must match the correspondences")
    clustering = initial
    trace: list[IterationStats] = []
    grid = CliqueGrid(cs.a, cfg.tau)

    for iteration in range(1, cfg.max_iters + 1):
        pruned = prune_small(clustering, cfg)
        if pruned.num_clusters == 0:
            raise NoViableClustersError("no viable clusters")
        models = fit_models(cs, pruned, cfg)
        updated = assign(cs, pruned, models, grid)
        changed = int(np.count_nonzero(updated.labels != pruned.labels))
        trace.append(IterationStats(
            iteration=iteration,
            cluster_sizes=tuple(int(s) for s in pruned.sizes()[1:]),
            weights=tuple(m.weight for m in models),
            sigmas=tuple(m.sigma_hat for m in models),
            assignment_changes=changed,
        ))
        clustering = updated
        if changed == 0:
            break

    clustering, models = _drop_empty(clustering, models)
    changes = tuple(stats.assignment_changes for stats in trace)
    return EMResult(
        clustering=clustering,
        models=tuple(models),
        iterations_run=len(changes),
        converged=changes[-1] == 0,
        assignment_changes=changes,
        trace=tuple(trace),
    )


def _drop_empty(clustering: Clustering, models: list[ClusterModel]):
    """Remove ids emptied by the last M-step (possible only on a cap exit)."""
    live = clustering.sizes()[1:] > 0
    if live.all():
        return clustering, models
    kept_models = [m for m, alive in zip(models, live) if alive]
    total = sum(m.weight for m in kept_models)
    kept_models = [ClusterModel(m.transform, m.sigma_hat, m.weight / total)
                   for m in kept_models]
    return clustering.keep(live), kept_models
