"""Closed-form single-model rigid registration (Horn's method).

Pipeline: center both clouds, build the cross-covariance, solve the rotation
by SVD with a reflection guard, recover the translation from the means, and
estimate the residual noise level. This is the inner solver used by the EM
fit step and by the RANSAC baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import CorrespondenceSet, RigidTransform

# Absolute floor for the estimated noise std; prevents division by zero in
# the Gaussian density when a cluster is noiseless.
SIGMA_FLOOR = 1e-8


@dataclass(frozen=True, eq=False)
class HornEstimate:
    """Registration result plus diagnostics.

    Attributes
    ----------
    transform : RigidTransform
        Estimated rotation and translation.
    sigma_hat : float
        Estimated per-axis noise std (floored at SIGMA_FLOOR).
    lambda_min : float
        Smallest eigenvalue of the centered second-moment matrix of the
        a-points; measures geometric conditioning of the fit.
    """

    transform: RigidTransform
    sigma_hat: float
    lambda_min: float


def center(points) -> tuple[np.ndarray, np.ndarray]:
    """Subtract the mean; returns (centered points, mean)."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if pts.shape[0] == 0:
        raise ValueError("empty point set")
    mean = pts.mean(axis=0)
    return pts - mean, mean


def cross_covariance(a_centered, b_centered) -> np.ndarray:
    """(1/m) sum_i b'_i a'_i^T.

    Under this convention the rotation maximizing <X, H> over SO(3) aligns
    b ~= X a, which is what exact recovery requires.
    """
    a = np.asarray(a_centered, dtype=np.float64).reshape(-1, 3)
    b = np.asarray(b_centered, dtype=np.float64).reshape(-1, 3)
    if a.shape != b.shape:
        raise ValueError(f"centered clouds must match, got {a.shape} vs {b.shape}")
    if a.shape[0] == 0:
        raise ValueError("empty point set")
    return (b.T @ a) / a.shape[0]


def solve_rotation(h) -> np.ndarray:
    """Rotation maximizing <X, H> over SO(3) via SVD.

    The det(U V^T) sign guard prevents reflections. Degenerate H (including
    H = 0, for which numpy's SVD yields the identity) still returns a valid
    rotation; callers needing a well-posed fit should check lambda_min.
    """
    H = np.asarray(h, dtype=np.float64)
    if H.shape != (3, 3) or not np.all(np.isfinite(H)):
        raise ValueError("cross-covariance must be a finite 3x3 matrix")
    u, _, vt = np.linalg.svd(H)
    d = np.sign(np.linalg.det(u @ vt))
    if d == 0:
        d = 1.0
    return u @ np.diag([1.0, 1.0, d]) @ vt


def estimate_translation(r_hat, a_mean, b_mean) -> np.ndarray:
    """b_mean - R a_mean (equal to the average of b_i - R a_i)."""
    R = np.asarray(r_hat, dtype=np.float64)
    return np.asarray(b_mean, dtype=np.float64) - R @ np.asarray(a_mean, dtype=np.float64)


def estimate_noise_std(residuals, sigma_floor: float = SIGMA_FLOOR) -> float:
    """Noise std from registration residuals.

    Averages the per-axis population variances and returns the square root,
    i.e. sqrt((1/3) sum_k (1/n) sum_i (r_ik - mean_k)^2), floored at
    ``sigma_floor``. This is the std parameter of the isotropic Gaussian
    density used by the EM weighting.
    """
    r = np.asarray(residuals, dtype=np.float64).reshape(-1, 3)
    if r.shape[0] < 2:
        raise ValueError("insufficient residuals")
    per_axis_var = r.var(axis=0)  # population (1/n) variance
    return max(float(np.sqrt(per_axis_var.mean())), sigma_floor)


def horn_register(cs: CorrespondenceSet, sigma_floor: float = SIGMA_FLOOR) -> HornEstimate:
    """Register a correspondence set; requires at least 3 pairs."""
    if len(cs) < 3:
        raise ValueError("underdetermined")
    a_centered, a_mean = center(cs.a)
    b_centered, b_mean = center(cs.b)
    h = cross_covariance(a_centered, b_centered)
    r_hat = solve_rotation(h)
    t_hat = estimate_translation(r_hat, a_mean, b_mean)
    residuals = cs.b - (cs.a @ r_hat.T + t_hat)
    sigma_hat = estimate_noise_std(residuals, sigma_floor)
    second_moment = (a_centered.T @ a_centered) / len(cs)
    lambda_min = float(np.linalg.eigvalsh(second_moment)[0])
    return HornEstimate(
        transform=RigidTransform(r_hat, t_hat),
        sigma_hat=sigma_hat,
        lambda_min=max(lambda_min, 0.0),
    )
