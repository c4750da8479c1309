"""Classification EM for multi-model registration.

Each iteration: prune undersized clusters, fit a rigid motion per cluster
(Horn), score every correspondence against every cluster with a weighted
Gaussian likelihood gated by proximity to the cluster, then hard-assign each
correspondence to its best cluster. The loop stops when the assignment is a
fixed point or the iteration cap is hit. Clusters only ever shrink or merge;
no new clusters are created.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clustering import Clustering, _CliqueGrid
from .geometry import CorrespondenceSet, RigidTransform
from .horn import SIGMA_FLOOR, horn_register


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
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.m_min < 3:
            raise ValueError("m_min must be at least 3")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.sigma_floor <= 0:
            raise ValueError("sigma_floor must be positive")


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


def fit_models(cs: CorrespondenceSet, clustering: Clustering, cfg: EMConfig) -> list[ClusterModel]:
    """Fit a rigid motion and noise level per cluster; weights are size fractions.

    Weights are normalized over the assigned points only, so they sum to one
    across live clusters. A cluster smaller than 3 reaching this point is a
    pipeline bug: pruning must run first.
    """
    sizes = clustering.sizes()
    total_assigned = int(sizes[1:].sum())
    if total_assigned == 0:
        raise NoViableClustersError("no viable clusters")
    models = []
    for j in range(1, clustering.num_clusters + 1):
        members = clustering.members(j)
        if members.size < 3:
            raise RuntimeError(
                f"cluster {j} has {members.size} members; pruning must run before fitting")
        est = horn_register(cs.subset(members), sigma_floor=cfg.sigma_floor)
        models.append(ClusterModel(
            transform=est.transform,
            sigma_hat=est.sigma_hat,
            weight=members.size / total_assigned,
        ))
    return models


def e_step(cs: CorrespondenceSet, clustering: Clustering, models, cfg: EMConfig,
           grid: _CliqueGrid | None = None) -> np.ndarray:
    """Weighted-likelihood responsibilities, gated by cluster proximity.

    Entry (i, j) is pi_j * phi_j(b_i | a_i) normalized over all clusters,
    multiplied by the indicator that a_i lies strictly within tau of cluster
    j's a-points (cluster memberships frozen at the start of the iteration).
    phi_j is the isotropic Gaussian density with mean R_j a_i + t_j and
    covariance sigma_j^2 I, evaluated in log space so far-away points cannot
    underflow the ratios. Rows whose indicators are all zero are all zero.

    ``grid`` is the tau/2 cell grid over ``cs.a`` at ``cfg.tau`` that decides
    the indicators; it is built here when not given. The a-points never change,
    so ``run_em`` builds one grid per run.
    """
    k = clustering.num_clusters
    if len(models) != k:
        raise ValueError("one model per cluster required")
    n = len(cs)
    log_scores = np.empty((n, k))
    for j, model in enumerate(models, start=1):
        residual = cs.b - model.transform.apply(cs.a)
        sq = np.einsum("ij,ij->i", residual, residual)
        log_scores[:, j - 1] = (np.log(model.weight) - 3.0 * np.log(model.sigma_hat)
                                - sq / (2.0 * model.sigma_hat ** 2))
    row_max = log_scores.max(axis=1, keepdims=True)
    unnorm = np.exp(log_scores - row_max)
    weights = unnorm / unnorm.sum(axis=1, keepdims=True)

    if grid is None:
        grid = _CliqueGrid(cs.a, cfg.tau)
    elif grid.tau != cfg.tau or grid.points is not cs.a:
        raise ValueError("the grid must be built over cs.a at cfg.tau")
    return weights * grid.near(clustering.labels, k)


def m_step(weights: np.ndarray, previous: Clustering, cfg: EMConfig) -> Clustering:
    """Assign each point to its highest-weight cluster.

    Ties go to the lower cluster id; rows with no positive weight keep their
    previous label (including the outlier label 0).
    """
    labels = previous.labels.copy()
    has_mass = weights.max(axis=1) > 0.0
    labels[has_mass] = np.argmax(weights[has_mass], axis=1) + 1
    return Clustering(labels, num_clusters=previous.num_clusters)


def prune_small(clustering: Clustering, cfg: EMConfig) -> Clustering:
    """Dissolve clusters smaller than m_min to label 0 and compact the ids.

    Dissolved points become eligible for reassignment by later E-steps
    through the proximity gate of the surviving clusters.
    """
    return clustering.keep(clustering.sizes()[1:] >= cfg.m_min)


def run_em(cs: CorrespondenceSet, initial: Clustering, cfg: EMConfig) -> EMResult:
    """Iterate prune / fit / E / M until the assignment stabilizes.

    Deterministic given its inputs. Raises NoViableClustersError when pruning
    removes every cluster. Initial clusters below m_min are legal input; the
    first prune dissolves them.
    """
    if len(initial) != len(cs):
        raise ValueError("initial clustering length must match the correspondences")
    clustering = initial
    changes: list[int] = []
    trace: list[IterationStats] = []
    models: list[ClusterModel] = []
    converged = False
    iterations = 0
    grid = _CliqueGrid(cs.a, cfg.tau)

    for iteration in range(1, cfg.max_iters + 1):
        pruned = prune_small(clustering, cfg)
        if pruned.num_clusters == 0:
            raise NoViableClustersError("no viable clusters")
        models = fit_models(cs, pruned, cfg)
        weights = e_step(cs, pruned, models, cfg, grid=grid)
        updated = m_step(weights, pruned, cfg)
        changed = int(np.count_nonzero(updated.labels != pruned.labels))
        changes.append(changed)
        trace.append(IterationStats(
            iteration=iteration,
            cluster_sizes=tuple(int(s) for s in pruned.sizes()[1:]),
            weights=tuple(m.weight for m in models),
            sigmas=tuple(m.sigma_hat for m in models),
            assignment_changes=changed,
        ))
        iterations = iteration
        clustering = updated
        if changed == 0:
            converged = True
            break

    clustering, models = _drop_empty(clustering, models)
    return EMResult(
        clustering=clustering,
        models=tuple(models),
        iterations_run=iterations,
        converged=converged,
        assignment_changes=tuple(changes),
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
