"""Core 3D types: rotations, rigid transforms, correspondence sets, seeded RNG.

Rotations are stored as 3x3 matrices throughout; unit quaternions are used
only internally to sample uniform random rotations. All value types are
immutable after construction (arrays are marked non-writeable), so they can
be shared freely between threads.

Sums and broadcasts over (n, 3) point arrays run down the three columns, which
is faster than across each 3-wide row and, adding left to right, gives the same
bits. The distance tests that use ``einsum("ij,ij->i")`` keep it: its sums round
otherwise in about a quarter of rows, and they fix the recorded labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Validity tolerance for SO(3) membership: well above double-precision SVD
# noise, well below any physically meaningful error.
SO3_TOL = 1e-9
# The most rows an (n, 3) float array can have: numpy counts its bytes in intp.
MAX_ROWS = int(np.iinfo(np.intp).max) // 24


def _as_array(x, shape, name: str) -> np.ndarray:
    arr = np.array(x, dtype=np.float64)
    if arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    arr.flags.writeable = False
    return arr


def make_rng(seed) -> np.random.Generator:
    """Return a Generator for ``seed``; pass Generators through unchanged."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def is_rotation(matrix, tol: float = SO3_TOL) -> bool:
    """True iff ``matrix`` is a 3x3 rotation, or a (..., 3, 3) stack of them:
    each has ||R^T R - I||_F <= tol and |det R - 1| <= tol."""
    R = np.asarray(matrix, dtype=np.float64)
    if R.shape[-2:] != (3, 3) or not np.isfinite(R).all():
        return False
    gap = R.swapaxes(-1, -2) @ R - np.eye(3)
    ortho = np.sqrt((gap * gap).sum(axis=(-2, -1)))
    return bool((ortho <= tol).all() and (abs(np.linalg.det(R) - 1.0) <= tol).all())


def require_rotation(matrix, tol: float = SO3_TOL) -> np.ndarray:
    """Validate and return ``matrix`` as a float64 rotation matrix."""
    R = np.asarray(matrix, dtype=np.float64)
    if not is_rotation(R, tol):
        raise ValueError("matrix is not a rotation (orthogonality/determinant check failed)")
    return R


def geodesic_distance(r1, r2) -> float:
    """Rotation angle in radians separating two rotations; result in [0, pi].

    Mathematically this is arccos((trace(R1^T R2) - 1) / 2) with the argument
    clamped to [-1, 1], but the arccos form cannot resolve angles below
    ~1e-8 in double precision (its derivative blows up at 1), so the angle is
    evaluated as atan2 of the sine (from the skew part) and cosine (from the
    trace), which is accurate at both ends of [0, pi]. Raises ValueError if
    either input fails the SO(3) check.
    """
    a = require_rotation(r1)
    b = require_rotation(r2)
    d = a.T @ b
    sin_angle = 0.5 * float(np.linalg.norm([
        d[2, 1] - d[1, 2], d[0, 2] - d[2, 0], d[1, 0] - d[0, 1]]))
    cos_angle = float(np.clip((np.trace(d) - 1.0) / 2.0, -1.0, 1.0))
    return float(np.arctan2(sin_angle, cos_angle))


def random_rotation(seed) -> np.ndarray:
    """Uniformly distributed random rotation from a normalized quaternion.

    Deterministic given an integer seed; passing a Generator draws from it.
    """
    rng = make_rng(seed)
    q = rng.standard_normal(4)
    while np.linalg.norm(q) < 1e-12:
        q = rng.standard_normal(4)
    w, x, y, z = q / np.linalg.norm(q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
    ])


def random_point_in_ball(rng: np.random.Generator, radius: float, size: int | None = None) -> np.ndarray:
    """Uniform sample(s) from the solid ball of given radius centered at origin."""
    n = 1 if size is None else size
    pts = np.empty((n, 3))
    filled = 0
    while filled < n:
        cand = rng.uniform(-radius, radius, size=(2 * (n - filled) + 8, 3))
        # rows taken by compress: the rows of cand[mask], faster
        x, y, z = cand.T
        ok = cand.compress(x * x + y * y + z * z <= radius * radius, axis=0)
        take = min(len(ok), n - filled)
        pts[filled:filled + take] = ok[:take]
        filled += take
    return pts[0] if size is None else pts


def row_norms(points: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of an (n, 3) array, summed down the columns."""
    x, y, z = points.T
    return np.sqrt(x * x + y * y + z * z)


def move(points: np.ndarray, rotation: np.ndarray, translation: np.ndarray) -> np.ndarray:
    """R p + t for a point (3,) or row-stacked points (n, 3): the matmul, then
    t[k] added down column k."""
    moved = points @ rotation.T
    for k in range(3):
        moved[..., k] += translation[k]
    return moved


def move_each(points: np.ndarray, labels: np.ndarray, transforms) -> np.ndarray:
    """Each row of (n, 3) ``points`` moved by the transform of its label:
    label j by ``transforms[j - 1]``; label-0 rows stay put."""
    moved = np.array(points, dtype=np.float64)
    for j, transform in enumerate(transforms, start=1):
        members = labels == j
        moved[members] = transform.apply(points[members])
    return moved


@dataclass(frozen=True, eq=False)
class RigidTransform:
    """A rotation plus translation; the motion hypothesis for one object."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rotation", _as_array(self.rotation, (3, 3), "rotation"))
        object.__setattr__(self, "translation", _as_array(self.translation, (3,), "translation"))
        require_rotation(self.rotation)

    @staticmethod
    def identity() -> "RigidTransform":
        return RigidTransform(np.eye(3), np.zeros(3))

    def apply(self, points) -> np.ndarray:
        """R p + t for a single point (3,) or row-stacked points (n, 3)."""
        return move(np.asarray(points, dtype=np.float64), self.rotation, self.translation)


@dataclass(frozen=True, eq=False)
class CorrespondenceSet:
    """Ordered point pairs (a_i, b_i); indices are stable for the whole run."""

    a: np.ndarray
    b: np.ndarray
    n: int = field(init=False)

    def __post_init__(self):
        a = np.array(self.a, dtype=np.float64).reshape(-1, 3)
        b = np.array(self.b, dtype=np.float64).reshape(-1, 3)
        if a.shape != b.shape:
            raise ValueError(f"a and b must have matching shapes, got {a.shape} vs {b.shape}")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError("correspondences must be finite")
        a.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "n", a.shape[0])

    def __len__(self) -> int:
        return self.n

    def subset(self, indices) -> "CorrespondenceSet":
        idx = np.asarray(indices, dtype=np.intp)
        return CorrespondenceSet(self.a[idx], self.b[idx])
