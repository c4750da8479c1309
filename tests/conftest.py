"""Shared test helpers: the brute-force connectivity and distance oracles."""

import numpy as np
import pytest


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


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
