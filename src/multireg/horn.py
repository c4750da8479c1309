"""Closed-form rigid registration (Horn's method).

Pipeline: center both clouds, build the cross-covariance, solve the rotation
by SVD with a reflection guard, and recover the translation from the means.
Each step works over leading stack axes: ``horn_stack`` fits T equal-size
sets at once (one stacked SVD; the minimal samples of sRANSAC and T-Linkage),
``horn_register`` fits one set with the same bits and offers the noise level
and conditioning, computed when read (the EM fit step and the bounds).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .geometry import CorrespondenceSet, RigidTransform, is_rotation

# Absolute floor for the estimated noise std; prevents division by zero in
# the Gaussian density when a cluster is noiseless.
SIGMA_FLOOR = 1e-8


@dataclass(frozen=True, eq=False)
class HornEstimate:
    """Registration result plus diagnostics.

    The diagnostics are computed on first read from the fit's inputs
    (``correspondences``, ``a_centered``, ``sigma_floor``) and then kept: the
    bounds read only ``lambda_min``, EM only ``sigma_hat``, and the
    per-cluster fits of the baselines neither.

    Attributes
    ----------
    transform : RigidTransform
        Estimated rotation and translation.
    sigma_hat : float
        Estimated per-axis noise std (floored at sigma_floor).
    lambda_min : float
        Smallest eigenvalue of the centered second-moment matrix of the
        a-points; measures geometric conditioning of the fit.
    """

    transform: RigidTransform
    correspondences: CorrespondenceSet = field(repr=False)
    a_centered: np.ndarray = field(repr=False)
    sigma_floor: float = SIGMA_FLOOR

    @cached_property
    def sigma_hat(self) -> float:
        cs = self.correspondences
        return estimate_noise_std(cs.b - self.transform.apply(cs.a), self.sigma_floor)

    @cached_property
    def lambda_min(self) -> float:
        a = self.a_centered
        second_moment = (a.T @ a) / a.shape[0]
        return max(float(np.linalg.eigvalsh(second_moment)[0]), 0.0)


def center(points) -> tuple[np.ndarray, np.ndarray]:
    """Subtract the mean over the point axis of (..., m, 3) points; returns
    (centered points, (..., 3) means)."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.shape[-2] == 0:
        raise ValueError("empty point set")
    # the running sum adds in point order, as mean(axis=-2) does, so the bits
    # are the same; mean's inner loop runs over each 3-wide row and is slower
    mean = pts.cumsum(axis=-2)[..., -1, :] / pts.shape[-2]
    return pts - mean[..., None, :], mean


def cross_covariance(a_centered, b_centered) -> np.ndarray:
    """(1/m) sum_i b'_i a'_i^T, per set of a (..., m, 3) stack.

    Under this convention the rotation maximizing <X, H> over SO(3) aligns
    b ~= X a, which is what exact recovery requires.
    """
    a = np.asarray(a_centered, dtype=np.float64)
    b = np.asarray(b_centered, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"centered clouds must match, got {a.shape} vs {b.shape}")
    if a.shape[-2] == 0:
        raise ValueError("empty point set")
    return (np.swapaxes(b, -1, -2) @ a) / a.shape[-2]


def solve_rotation(h) -> np.ndarray:
    """Rotation maximizing <X, H> over SO(3) via SVD, per matrix of a
    (..., 3, 3) stack.

    The det(U V^T) sign guard prevents reflections. Degenerate H (including
    H = 0, for which numpy's SVD yields the identity) still returns a valid
    rotation; callers needing a well-posed fit should check lambda_min.
    """
    H = np.asarray(h, dtype=np.float64)
    if H.shape[-2:] != (3, 3) or not np.isfinite(H).all():
        raise ValueError("cross-covariance must be a finite 3x3 matrix")
    u, _, vt = np.linalg.svd(H)
    d = np.sign(np.linalg.det(u @ vt))
    guard = np.zeros(H.shape)
    guard[..., 0, 0] = guard[..., 1, 1] = 1.0
    guard[..., 2, 2] = np.where(d == 0, 1.0, d)
    return u @ guard @ vt


def estimate_translation(r_hat, a_mean, b_mean) -> np.ndarray:
    """b_mean - R a_mean (equal to the average of b_i - R a_i), per fit of a stack."""
    R = np.asarray(r_hat, dtype=np.float64)
    a_mean = np.asarray(a_mean, dtype=np.float64)[..., None]
    return np.asarray(b_mean, dtype=np.float64) - (R @ a_mean)[..., 0]


def estimate_noise_std(residuals, sigma_floor: float = SIGMA_FLOOR) -> float:
    """Noise std from registration residuals.

    Averages the per-axis population variances and returns the square root,
    i.e. sqrt((1/3) sum_k (1/n) sum_i (r_ik - mean_k)^2), floored at
    ``sigma_floor``. This is the std parameter of the isotropic Gaussian
    density used by the EM weighting.
    """
    r = np.asarray(residuals, dtype=np.float64).reshape(-1, 3)
    n = r.shape[0]
    if n < 2:
        raise ValueError("insufficient residuals")
    # Population variance per axis, one column at a time. cumsum adds in row
    # order, as var(axis=0) does, so the bits are the same; var(axis=0) runs
    # its inner loop over each 3-wide row and is several times slower. Two
    # n-float buffers hold every intermediate.
    per_axis_var = np.empty(3)
    sums, deviation = np.empty(n), np.empty(n)
    for k in range(3):
        np.cumsum(r[:, k], out=sums)
        np.subtract(r[:, k], sums[-1] / n, out=deviation)
        np.multiply(deviation, deviation, out=deviation)
        per_axis_var[k] = np.cumsum(deviation, out=sums)[-1] / n
    return max(float(np.sqrt(per_axis_var.mean())), sigma_floor)


def _fit(a, b) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rotations, translations and centered a-points of (..., m, 3) pairs."""
    if np.shape(a)[-2] < 3:
        raise ValueError("underdetermined")
    a_centered, a_mean = center(a)
    b_centered, b_mean = center(b)
    rotations = solve_rotation(cross_covariance(a_centered, b_centered))
    return rotations, estimate_translation(rotations, a_mean, b_mean), a_centered


def horn_stack(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Fit T sets of m >= 3 pairs at once: (T, m, 3) ``a`` and ``b`` give the
    (T, 3, 3) rotations and (T, 3) translations, the bits ``horn_register``
    gives per set. Every fit passes the checks ``RigidTransform`` runs: an
    SO(3) rotation and a finite translation."""
    rotations, translations, _ = _fit(a, b)
    if not (is_rotation(rotations) and np.isfinite(translations).all()):
        raise ValueError("a fit is not a rigid transform")
    return rotations, translations


def horn_register(cs: CorrespondenceSet, sigma_floor: float = SIGMA_FLOOR) -> HornEstimate:
    """Register a correspondence set; requires at least 3 pairs."""
    r_hat, t_hat, a_centered = _fit(cs.a, cs.b)
    return HornEstimate(RigidTransform(r_hat, t_hat), cs, a_centered, sigma_floor)
