"""A fixed reference load that measures how fast the host runs at the moment.

The development VM shares its cores with other tenants and changes speed by
up to 1.7x for minutes at a time; CPU time tracks wall time, so the program
cannot tell. ``run.py`` therefore times reference chunks after every set-up
and every untraced case and divides the host's current slowness out of its
timings.

The chunk's work never changes and does not touch ``multireg``, so a change
to the program leaves it alone. Its mix follows the program's hot paths:
breadth-first growth over a neighbour list (fragment growth, connected
components), many tiny numpy calls (the Tanimoto scan), 3x3 SVDs (Horn fits),
a gated Gaussian log-likelihood over a few thousand points (the E-step) and
text formatting and parsing of coordinates (scene files).
"""

from __future__ import annotations

import time

import numpy as np

# Median seconds of one chunk on the development VM (2-vCPU Xeon, 2.1 GHz,
# Python 3.11.7, numpy 2.4.6). Timings are scaled to a host of this speed.
REFERENCE_S = 0.1


def _chunk() -> float:
    rng = np.random.default_rng(12345)
    points = rng.random((2000, 3))
    centers = rng.random((40, 3))
    checksum = 0.0

    # breadth-first growth over a fixed neighbour list
    n = len(points)
    neighbours = [[(i * 7 + j * 13) % n for j in range(6)] for i in range(n)]
    for start in range(0, n, 500):
        seen = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for i in frontier:
                for j in neighbours[i]:
                    if j not in seen:
                        seen.add(j)
                        nxt.append(j)
            frontier = nxt
        checksum += len(seen)

    # many tiny numpy calls
    rows = points[:200]
    for i in range(len(rows) - 1):
        u, v = rows[i], rows[i + 1]
        dot = float(u @ v)
        checksum += 1.0 - dot / (float(u @ u) + float(v @ v) - dot)

    # 3x3 SVDs
    for i in range(0, 600, 3):
        h = points[i:i + 3].T @ points[i + 3:i + 6]
        checksum += float(np.linalg.svd(h, compute_uv=False)[0])

    # gated log-likelihood of every point under every center
    d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    logp = np.where(d2 < 0.1, -0.5 * d2 / 0.01, -np.inf)
    top = logp.max(axis=1, keepdims=True)
    top[~np.isfinite(top)] = 0.0
    checksum += float(np.log(np.exp(logp - top).sum(axis=1) + 1e-300).sum())

    # text round trip of the coordinates
    text = "\n".join(f"{x:.17g} {y:.17g} {z:.17g}" for x, y, z in points.tolist())
    checksum += sum(float(tok) for tok in text.split())
    return checksum


def time_chunk() -> float:
    """Seconds one reference chunk takes now."""
    start = time.perf_counter()
    for _ in range(4):
        _chunk()
    return time.perf_counter() - start
