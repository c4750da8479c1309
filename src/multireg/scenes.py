"""Synthetic labeled scenes: several rigidly moving blobs plus gross outliers.

Each object's source points are a bounded random walk with step <= tau/2, so
every object is tau-connected by construction. Object blobs are placed with
gaps larger than ``separation_margin`` (> tau) and everything stays inside
the ball of radius ``bound_b``. Blob centres and outlier sources are
rejection samples, drawn and tested in batches that leave the generator
where one try at a time would. Targets are the rigidly moved sources plus
per-coordinate uniform noise on [-sigma, sigma]. An outlier pair has its
source farther than tau from every object and an arbitrary target drawn from
a ball of radius 3 * bound_b. A scene is accepted only when it meets the
paper's premise, checked in one tau-component pass: every tau-component of
the source points lies inside one object or among the outliers, and every
object is one component.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .clustering import Clustering, connected_components, fragment_connected_set
from .geometry import (MAX_ROWS, CorrespondenceSet, RigidTransform, make_rng, move_each,
                       random_point_in_ball, random_rotation, row_norms)

# Objects are confined to balls of this radius (in units of tau) around their
# centers, which keeps the separation bookkeeping simple.
_BLOB_RADIUS_FACTOR = 2.0
# Outlier sources keep at least this many tau of clearance from every object.
_OUTLIER_CLEARANCE_FACTOR = 1.5
# One try of random_point_in_ball(rng, r) draws (_BLOCK, 3) uniform blocks
# until one holds a row inside the ball; placement draws up to _MAX_BATCH
# blocks at once.
_BLOCK = 10
_MAX_BATCH = 4096
# validate_scene's slack on the noise and point-norm bounds, for rounding.
_VALIDATE_ATOL = 1e-12
# Scene draws, each validated, before generate_scene calls a spec infeasible.
_MAX_ATTEMPTS = 64


class InfeasibleSceneError(RuntimeError):
    """Raised when the requested scene cannot be packed into the bounding ball."""


class SplitSizeError(ValueError):
    """Raised when an object has too few points for the requested good split."""


@dataclass(frozen=True)
class SceneSpec:
    """Parameters of a synthetic scene; identical specs generate identical scenes."""

    num_objects: int
    points_per_object: tuple[int, ...]
    sigma: float
    tau: float
    bound_b: float
    num_outliers: int = 0
    separation_margin: float | None = None
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "points_per_object", tuple(int(p) for p in self.points_per_object))
        if self.num_objects < 1:
            raise ValueError("need at least one object")
        if len(self.points_per_object) != self.num_objects:
            raise ValueError("points_per_object length must equal num_objects")
        if not all(1 <= p <= MAX_ROWS for p in self.points_per_object):
            raise ValueError(f"points_per_object must each lie in 1..{MAX_ROWS}")
        # written so that NaN fails every check, and a sigma of -0.0 too (the
        # noise draw needs -sigma <= sigma bit for bit); the draws span 2 sigma
        # and 6 bound_b (outliers lie in the ball of radius 3 bound_b), and
        # blobs and the default separation_margin span 2 tau
        if not (math.isfinite(2.0 * self.sigma) and math.copysign(1.0, self.sigma) > 0):
            raise ValueError("sigma must be nonnegative, with 2*sigma finite")
        if not (math.isfinite(2.0 * self.tau) and self.tau > 0):
            raise ValueError("tau must be positive, with 2*tau finite")
        if not (math.isfinite(6.0 * self.bound_b) and self.bound_b > 0):
            raise ValueError("bound_b must be positive, with 6*bound_b finite")
        if not 0 <= self.num_outliers <= MAX_ROWS:
            raise ValueError(f"num_outliers must lie in 0..{MAX_ROWS}")
        if self.separation_margin is None:
            object.__setattr__(self, "separation_margin", 2.0 * self.tau)
        if not (math.isfinite(self.separation_margin) and self.separation_margin > self.tau):
            raise ValueError("separation_margin must be finite and exceed tau")

    @property
    def total_points(self) -> int:
        return sum(self.points_per_object) + self.num_outliers


@dataclass(frozen=True, eq=False)
class LabeledScene:
    """Ground truth: correspondences, per-index labels (0 = outlier), true motions."""

    correspondences: CorrespondenceSet
    true_labels: np.ndarray
    true_transforms: tuple[RigidTransform, ...]
    spec: SceneSpec

    def __post_init__(self):
        labels = np.array(self.true_labels, dtype=np.int64).reshape(-1)
        labels.flags.writeable = False
        object.__setattr__(self, "true_labels", labels)
        object.__setattr__(self, "true_transforms", tuple(self.true_transforms))
        if len(self.correspondences) != labels.shape[0]:
            raise ValueError("labels must match correspondence count")

    @property
    def num_objects(self) -> int:
        return len(self.true_transforms)

    def outlier_indices(self) -> np.ndarray:
        return np.flatnonzero(self.true_labels == 0)


@dataclass(frozen=True)
class SceneReport:
    """Pass/fail per generative condition, with the measured slack."""

    noise_bound_ok: bool
    separation_ok: bool
    point_bound_ok: bool
    outliers_ok: bool
    connectivity_ok: bool
    max_noise_residual: float
    max_point_norm: float
    passed: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "passed", self.noise_bound_ok and self.separation_ok
                           and self.point_bound_ok and self.outliers_ok and self.connectivity_ok)


def _random_walk_blob(rng: np.random.Generator, center: np.ndarray, count: int,
                      tau: float, radius: float) -> np.ndarray:
    # Every length is sqrt(v.dot(v)), the bits of np.linalg.norm(v). The draws
    # come first, in the order of one step at a time (half * random() is the
    # bits and the stream word of uniform(0, half)); a stacked (1, 3) @ (3, 1)
    # matmul is v.dot(v) per row; the walk then moves on floats, and a float
    # sum of squares only screens which steps need dot's bits.
    half, directions, scales = tau / 2.0, np.empty((count - 1, 3)), []
    for k in range(count - 1):
        d = rng.standard_normal(3)
        a, b, c = d.tolist()
        while a * a + b * b + c * c < 4e-24 and math.sqrt(d.dot(d)) < 1e-12:
            d = rng.standard_normal(3)
            a, b, c = d.tolist()
        directions[k] = d
        scales.append(half * rng.random())
    norms = _lengths(directions)
    # the screen's 1e-9 margin covers its rounding only for a normal radius^2;
    # otherwise every step takes dot's path
    limit = radius * radius * (1.0 - 1e-9)
    if not 1e-290 < limit < 1e290:
        limit = 0.0
    cx, cy, cz = x, y, z = center.tolist()
    pts = [x, y, z]
    for (dx, dy, dz), n, s in zip(directions.tolist(), norms.tolist(), scales):
        x, y, z = x + dx / n * s, y + dy / n * s, z + dz / n * s
        ox, oy, oz = x - cx, y - cy, z - cz
        if ox * ox + oy * oy + oz * oz >= limit:
            off = np.array((ox, oy, oz))
            dist = math.sqrt(off.dot(off))
            if dist > radius:
                f = radius / dist
                x, y, z = cx + ox * f, cy + oy * f, cz + oz * f
        pts += (x, y, z)
    return np.array(pts).reshape(count, 3)


def _lengths(vectors: np.ndarray) -> np.ndarray:
    """sqrt(v.dot(v)) for each row v of an (n, 3) array, the bits of
    np.linalg.norm(v): one stacked (1, 3) @ (3, 1) matmul."""
    return np.sqrt(np.matmul(vectors[:, None, :], vectors[:, :, None])).ravel()


def _ball_tries(rng: np.random.Generator, radius: float, blocks: int):
    """A batch of tries of ``random_point_in_ball(rng, radius)``, drawn as
    ``blocks`` of its (10, 3) uniform blocks at once: the point of each try
    the batch completes (the first row inside the ball of a block that has
    one), and ``stop(t)``, which leaves the generator just after try t.
    Blocks after the last complete try begin the next batch's first try."""
    state = rng.bit_generator.state
    cand = rng.uniform(-radius, radius, size=(blocks * _BLOCK, 3))
    x, y, z = cand.T
    inside = (x * x + y * y + z * z <= radius * radius).reshape(blocks, _BLOCK)
    ends = np.flatnonzero(inside.any(axis=1))

    def stop(t: int) -> None:
        rng.bit_generator.state = state
        rng.uniform(-radius, radius, size=((int(ends[t]) + 1) * _BLOCK, 3))

    return cand[ends * _BLOCK + inside[ends].argmax(axis=1)], stop


def _clear_of(points: np.ndarray, centers: np.ndarray, gap: float) -> np.ndarray:
    """Entry i is True iff np.linalg.norm(p - c) >= gap, in ``_lengths``'
    bits, for the row p = ``points[i]`` and every row c of ``centers``; one
    centre at a time, so memory stays O(len(points)) for any centre count."""
    clear = np.ones(len(points), dtype=bool)
    for c in centers:
        clear &= _lengths(points - c) >= gap
    return clear


def _place_centers(rng: np.random.Generator, count: int, avail_radius: float,
                   min_gap: float, tries: int) -> np.ndarray | None:
    """``count`` centres, each the next of up to ``tries`` tries of
    ``random_point_in_ball(rng, avail_radius)`` at least ``min_gap`` from every
    centre taken before it, or None. The tries run in batches; the generator
    ends where one try at a time would leave it."""
    centers = np.empty((count, 3))
    placed, batch = 0, 16 * count
    while tries > 0:
        cands, stop = _ball_tries(rng, avail_radius, min(tries, batch, _MAX_BATCH))
        clear = _clear_of(cands, centers[:placed], min_gap)
        t = 0
        while (hits := np.flatnonzero(clear[t:])).size:
            t += int(hits[0])
            centers[placed] = cands[t]
            placed += 1
            if placed == count:
                stop(t)
                return centers
            t += 1
            clear[t:] &= _clear_of(cands[t:], cands[t - 1:t], min_gap)
        tries -= len(cands)
        batch *= 4
    return None


def check_packing(spec: SceneSpec, num_objects: int) -> tuple[float, float]:
    """The radius of the ball that holds the blob centers of ``spec`` and the
    least gap between two centers, once ``num_objects`` blobs can be packed
    into its bounding ball; raises InfeasibleSceneError otherwise. Reads no
    point count, so the CLI bounds the objects before it repeats one count."""
    blob_radius = _BLOB_RADIUS_FACTOR * spec.tau
    avail_radius = spec.bound_b - blob_radius
    if avail_radius < 0:
        raise InfeasibleSceneError(f"infeasible scene spec: the blob radius {_BLOB_RADIUS_FACTOR:g} "
                                   f"* scene.tau {spec.tau:g} exceeds scene.bound_b {spec.bound_b:g}")
    min_gap = spec.separation_margin + 2.0 * blob_radius
    # balls of radius min_gap/2 around the centers are disjoint and lie in the
    # ball of radius avail_radius + min_gap/2, so their volumes bound the count
    ratio = 1.0 + 2.0 * avail_radius / min_gap
    if num_objects > ratio * ratio * ratio:
        raise InfeasibleSceneError(f"infeasible scene spec: {num_objects} objects cannot "
                                   f"be packed into the ball of radius {spec.bound_b:g}")
    return avail_radius, min_gap


def generate_scene(spec: SceneSpec) -> LabeledScene:
    """Generate a scene realizing every SceneSpec condition, or raise.

    Generation is rejected and retried until ``validate_scene`` passes;
    persistent failure (e.g. blobs that cannot be packed into the bounding
    ball with the required gaps) raises InfeasibleSceneError.
    """
    rng = make_rng(spec.seed)
    blob_radius = _BLOB_RADIUS_FACTOR * spec.tau
    avail_radius, min_gap = check_packing(spec, spec.num_objects)
    for _ in range(_MAX_ATTEMPTS):
        centers = _place_centers(rng, spec.num_objects, avail_radius, min_gap,
                                 tries=200 * spec.num_objects)
        if centers is None:
            continue
        blobs = [_random_walk_blob(rng, centers[j], spec.points_per_object[j],
                                   spec.tau, blob_radius)
                 for j in range(spec.num_objects)]
        transforms = []
        b_parts = []
        for blob in blobs:
            rot = random_rotation(rng)
            t = random_point_in_ball(rng, spec.bound_b)
            transform = RigidTransform(rot, t)
            noise = rng.uniform(-spec.sigma, spec.sigma, size=blob.shape)
            b_parts.append(transform.apply(blob) + noise)
            transforms.append(transform)

        object_points = np.vstack(blobs)
        outlier_a = _place_outliers(rng, spec, object_points)
        if outlier_a is None:
            continue
        outlier_b = (random_point_in_ball(rng, 3.0 * spec.bound_b, spec.num_outliers)
                     if spec.num_outliers else np.empty((0, 3)))

        a = np.vstack([object_points, outlier_a])
        b = np.vstack(b_parts + [outlier_b])
        labels = np.concatenate([
            np.repeat(np.arange(1, spec.num_objects + 1),
                      [spec.points_per_object[j] for j in range(spec.num_objects)]),
            np.zeros(spec.num_outliers, dtype=np.int64),
        ])
        scene = LabeledScene(CorrespondenceSet(a, b), labels, tuple(transforms), spec)
        if validate_scene(scene).passed:
            return scene
    raise InfeasibleSceneError(f"infeasible scene spec: no valid scene in {_MAX_ATTEMPTS} attempts "
                               f"({spec.num_objects} objects, min_gap {min_gap:g}, "
                               f"avail_radius {avail_radius:g})")


def _reach(blob: np.ndarray, clearance: float) -> float:
    """How far from ``blob[0]`` (a walk's start: its blob's centre) a point
    must lie to be ``clearance`` from every point of the blob: the blob's
    extent from there plus the clearance, and a 1e-9 relative margin for the
    rounding of both distances. Infinite when the square of the reach is
    near the ends of the normal range, where rounding is not relative."""
    reach = (float(row_norms(blob - blob[0]).max()) + clearance) * (1.0 + 1e-9)
    return reach if 1e-140 < reach < 1e140 else math.inf


def _place_outliers(rng: np.random.Generator, spec: SceneSpec,
                    object_points: np.ndarray) -> np.ndarray | None:
    """``spec.num_outliers`` sources, each the first of up to 500 tries of
    ``random_point_in_ball(rng, spec.bound_b)`` at least the clearance from
    every object point, or None when some outlier's tries all fail. The tries
    run in batches, as ``_place_centers``' do.

    A try is compared point by point only with the blobs within ``_reach`` of
    it; blob j is the next ``spec.points_per_object[j]`` rows of
    ``object_points``."""
    out = np.empty((spec.num_outliers, 3))
    if not spec.num_outliers:
        return out
    clearance = _OUTLIER_CLEARANCE_FACTOR * spec.tau
    blobs = np.split(object_points, np.cumsum(spec.points_per_object)[:-1])
    centers = [blob[0] for blob in blobs]
    reach = [_reach(blob, clearance) for blob in blobs]

    placed = failed = 0  # failed: the tries of the current outlier so far
    while True:
        cands, stop = _ball_tries(rng, spec.bound_b,
                                  min(2 * (spec.num_outliers - placed) + 16, _MAX_BATCH))
        near = np.array([row_norms(cands - c) <= r for c, r in zip(centers, reach)]).T
        for t, row in enumerate(near.tolist()):
            if all(row_norms(blobs[j] - cands[t]).min() >= clearance
                   for j, hit in enumerate(row) if hit):
                out[placed] = cands[t]
                placed, failed = placed + 1, 0
                if placed == spec.num_outliers:
                    stop(t)
                    return out
            else:
                failed += 1
                if failed == 500:
                    stop(t)
                    return None


def validate_scene(scene: LabeledScene) -> SceneReport:
    """Check every generative condition of the scene.

    Separation, outlier clearance and connectivity are the paper's premise,
    read off one tau-component pass over the a-points: every component holds
    points of one object or only outliers, and every object is one component.
    """
    spec = scene.spec
    a, b = scene.correspondences.a, scene.correspondences.b

    residual = (b - move_each(a, scene.true_labels, scene.true_transforms))[scene.true_labels > 0]
    max_noise = float(np.abs(residual).max()) if residual.size else 0.0
    max_norm = float(row_norms(a).max()) if len(a) else 0.0

    comp, count = connected_components(a, spec.tau)
    # held[c, g]: component c holds a point of label g (0 = outlier)
    held = Clustering(comp + 1, num_clusters=count).contingency(scene.true_labels)[1:] > 0
    objects = held[:, 1:]
    return SceneReport(
        noise_bound_ok=max_noise <= spec.sigma + _VALIDATE_ATOL,
        separation_ok=bool((objects.sum(axis=1) <= 1).all()),
        point_bound_ok=max_norm <= spec.bound_b + _VALIDATE_ATOL,
        outliers_ok=not (held[:, 0] & objects.any(axis=1)).any(),
        connectivity_ok=bool((objects.sum(axis=0) <= 1).all()),
        max_noise_residual=max_noise,
        max_point_norm=max_norm,
    )


def check_split(alpha: float, fragments: int) -> None:
    """Raise ValueError unless the pair can parametrise ``make_good_split``."""
    if not alpha > 1:
        raise ValueError("alpha must exceed 1")
    if int(fragments) < 1:
        raise ValueError("fragments must be at least 1")


def make_good_split(scene: LabeledScene, alpha: float, fragments_per_object: int,
                    seed) -> Clustering:
    """Split each object into connected fragments with one dominant fragment.

    With k fragments per object the dominant one gets roughly a 2*alpha : 1
    share against each of the others, so its size strictly exceeds alpha
    times every sibling. Outliers (if any) are grouped into their own
    tau-connected clusters. So every point has a cluster, and every cluster
    is tau-connected and lies inside one object or among the outliers: the
    paper's conditions on an initial clustering at the requested alpha.
    """
    check_split(alpha, fragments_per_object)
    k = int(fragments_per_object)
    # every object's sizes are checked before any fragment grows
    objects = []
    members = Clustering(scene.true_labels, num_clusters=scene.num_objects).groups()
    for g, idx in enumerate(members, start=1):
        n_g = idx.size
        if k == 1:
            sizes = [n_g]
        else:
            small = int(n_g // (2.0 * alpha + (k - 1)))
            big = n_g - (k - 1) * small
            if small < 1 or big <= alpha * small:
                raise SplitSizeError(
                    f"object {g} with {n_g} points is too small to split into "
                    f"{k} fragments at dominance ratio {alpha}")
            sizes = [big] + [small] * (k - 1)
        objects.append((idx, sizes))

    rng = make_rng(seed)
    labels = np.zeros(len(scene.correspondences), dtype=np.int64)
    next_id = 1
    for idx, sizes in objects:
        fragment = fragment_connected_set(scene.correspondences.a[idx], scene.spec.tau,
                                          sizes, rng)
        labels[idx] = next_id + fragment
        next_id += k

    outlier_idx = scene.outlier_indices()
    if outlier_idx.size:
        comp, count = connected_components(scene.correspondences.a[outlier_idx], scene.spec.tau)
        labels[outlier_idx] = next_id + comp
        next_id += count

    return Clustering(labels, num_clusters=next_id - 1)
