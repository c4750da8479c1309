import hashlib
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from conftest import (brute_force_components, check_initial_clustering, random_walk_blob_by_norm,
                      scene_to_text)
from multireg import scenes
from multireg.geometry import (CorrespondenceSet, RigidTransform, geodesic_distance,
                               random_point_in_ball, row_norms)
from multireg.horn import horn_register
from multireg.scenes import (InfeasibleSceneError, LabeledScene, SceneSpec, SplitSizeError,
                             generate_scene, make_good_split, validate_scene)


def _spec(**overrides):
    base = dict(num_objects=3, points_per_object=(60, 50, 40), sigma=0.01,
                tau=0.3, bound_b=4.0, num_outliers=0, seed=7)
    base.update(overrides)
    return SceneSpec(**base)


def test_single_object_noiseless_exact_recovery():
    spec = _spec(num_objects=1, points_per_object=(100,), sigma=0.0)
    scene = generate_scene(spec)
    est = horn_register(scene.correspondences)
    truth = scene.true_transforms[0]
    assert geodesic_distance(est.transform.rotation, truth.rotation) <= 1e-9
    assert np.linalg.norm(est.transform.translation - truth.translation) <= 1e-9


def test_generated_scene_validates():
    scene = generate_scene(_spec(num_outliers=8))
    report = validate_scene(scene)
    assert report.passed
    assert report.max_point_norm <= scene.spec.bound_b + 1e-12


def test_scene_determinism_byte_for_byte():
    spec = _spec(num_outliers=5)
    assert scene_to_text(generate_scene(spec)) == scene_to_text(generate_scene(spec))


def test_validate_scene_detects_relabeled_point():
    scene = generate_scene(_spec())
    labels = scene.true_labels.copy()
    labels[0] = 0  # an object point declared outlier sits well within tau of its object
    broken = LabeledScene(scene.correspondences, labels, scene.true_transforms, scene.spec)
    report = validate_scene(broken)
    assert not report.outliers_ok
    assert not report.passed


def _axis_scene(points, tau=0.5):
    """A noiseless scene of ``(x, label)`` points on the x axis."""
    x, labels = np.array(points, dtype=float).T
    labels = labels.astype(np.int64)
    a = np.column_stack([x, np.zeros_like(x), np.zeros_like(x)])
    k = int(labels.max())
    spec = SceneSpec(num_objects=k, points_per_object=np.bincount(labels)[1:], sigma=0.0,
                     tau=tau, bound_b=10.0, num_outliers=int(np.sum(labels == 0)))
    return LabeledScene(CorrespondenceSet(a, a), labels, (RigidTransform.identity(),) * k, spec)


def _flags_by_brute_force(scene):
    """(separation_ok, outliers_ok, connectivity_ok) over brute-force
    tau-components: no component holds two objects, none holds an outlier
    and an object point, and no object spans two components."""
    comp, count = brute_force_components(scene.correspondences.a, scene.spec.tau)
    labels = scene.true_labels
    held = [set(labels[comp == c].tolist()) for c in range(count)]
    spans = [set(comp[labels == g].tolist()) for g in range(1, scene.num_objects + 1)]
    return (all(len(h - {0}) <= 1 for h in held),
            all(h == {0} or 0 not in h for h in held),
            all(len(s) <= 1 for s in spans))


def _pairwise_verdict(scene):
    """The earlier form of the check: no pair at <= tau joins two labels, and
    every object is tau-connected on its own."""
    a, labels, tau = scene.correspondences.a, scene.true_labels, scene.spec.tau
    joins = (cdist(a, a) <= tau) & (labels[:, None] != labels[None, :])
    return not joins.any() and all(brute_force_components(a[labels == g], tau)[1] <= 1
                                   for g in range(1, scene.num_objects + 1))


# (separation_ok, outliers_ok, connectivity_ok) at tau = 0.5; the pairwise
# check read (True, False, True) for the objects joined through an outlier
# and (True, False, False) for the split object bridged by one
@pytest.mark.parametrize("points, flags", [
    pytest.param([(0, 1), (0.25, 1), (0.75, 2), (1, 2)], (False, True, True),
                 id="objects-tau-apart"),
    pytest.param([(0, 1), (0.25, 1), (0.75 + 1e-10, 2), (1 + 1e-10, 2)], (True, True, True),
                 id="objects-just-past-tau"),
    pytest.param([(0, 1), (0.25, 1), (0.75, 0)], (True, False, True),
                 id="outlier-tau-from-object"),
    pytest.param([(0, 1), (0.25, 1), (0.75, 0), (1.25, 2), (1.5, 2)], (False, False, True),
                 id="objects-joined-through-outlier"),
    pytest.param([(0, 1), (0.25, 1), (0.75, 0), (1.25, 1), (1.5, 1)], (True, False, True),
                 id="split-object-bridged-by-outlier"),
    pytest.param([(0, 1), (0.25, 1), (1.25, 1)], (True, True, False), id="split-object"),
    *(pytest.param(seed, (True, True, True), id=f"generated-{seed}") for seed in range(3)),
])
def test_validate_scene_flags_match_brute_force_components(points, flags):
    scene = (generate_scene(_spec(num_outliers=8, seed=points)) if isinstance(points, int)
             else _axis_scene(points))
    report = validate_scene(scene)
    got = (report.separation_ok, report.outliers_ok, report.connectivity_ok)
    assert got == _flags_by_brute_force(scene) == flags
    assert report.passed == all(flags) == _pairwise_verdict(scene)


def test_validate_scene_memory_is_linear(rng):
    # two dense, well-separated 5000-point objects plus a few outliers; a
    # dense pairwise distance matrix between the objects alone is 200 MB
    n = 5000
    first = rng.uniform(-1.0, 1.0, (n, 3))
    a = np.vstack([first, first + [10.0, 0.0, 0.0], rng.uniform(20.0, 21.0, (10, 3))])
    spec = SceneSpec(num_objects=2, points_per_object=(n, n), sigma=0.0, tau=0.3,
                     bound_b=40.0, num_outliers=10)
    scene = LabeledScene(CorrespondenceSet(a, a), np.repeat([1, 2, 0], [n, n, 10]),
                         (RigidTransform.identity(),) * 2, spec)
    tracemalloc.start()
    try:
        report = validate_scene(scene)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 50 * 2**20


def test_validate_scene_noise_bound_not_tight():
    scene = generate_scene(_spec())
    inflated_spec = SceneSpec(
        num_objects=scene.spec.num_objects,
        points_per_object=scene.spec.points_per_object,
        sigma=scene.spec.sigma * 10.0,
        tau=scene.spec.tau,
        bound_b=scene.spec.bound_b,
        num_outliers=scene.spec.num_outliers,
        separation_margin=scene.spec.separation_margin,
        seed=scene.spec.seed,
    )
    inflated = LabeledScene(scene.correspondences, scene.true_labels,
                            scene.true_transforms, inflated_spec)
    assert validate_scene(inflated).noise_bound_ok


def test_noise_empirics_match_uniform_variance():
    sigma = 0.3
    spec = _spec(num_objects=1, points_per_object=(100_000,), sigma=sigma, bound_b=6.0)
    scene = generate_scene(spec)
    truth = scene.true_transforms[0]
    noise = scene.correspondences.b - truth.apply(scene.correspondences.a)
    per_axis_var = noise.var(axis=0)
    np.testing.assert_allclose(per_axis_var, sigma ** 2 / 3.0, rtol=0.03)


def test_infeasible_packing_raises(monkeypatch):
    monkeypatch.setattr(scenes, "_MAX_ATTEMPTS", 4)
    # blobs of radius 2*tau cannot fit in a ball smaller than the blob
    with pytest.raises(InfeasibleSceneError, match="infeasible scene spec"):
        generate_scene(_spec(tau=0.3, bound_b=0.5))
    # or: too many objects for the separation to fit (centres 6 apart in a
    # ball of radius 1.5), though the volume bound admits them (1.5^3 >= 3):
    # every attempt fails, and the last error says what was tried
    with pytest.raises(InfeasibleSceneError) as err:
        generate_scene(_spec(num_objects=3, points_per_object=(10, 10, 10),
                             tau=1.0, bound_b=3.5))
    assert str(err.value) == ("infeasible scene spec: no valid scene in 4 attempts "
                              "(3 objects, min_gap 6, avail_radius 1.5)")


def test_provably_infeasible_object_count_fails_before_any_draw(monkeypatch):
    # tau 0.3 and B 4: centers 1.8 apart lie in a ball of radius 3.4, and the
    # disjoint balls of radius 0.9 around them fit in radius 4.3, so at most
    # (4.3 / 0.9)^3 < 110 objects fit
    def refuse(*args, **kwargs):
        raise AssertionError("a packing was tried")

    monkeypatch.setattr(scenes, "_place_centers", refuse)
    with pytest.raises(InfeasibleSceneError, match="200 objects"):
        generate_scene(_spec(num_objects=200, points_per_object=(5,) * 200))


def test_one_object_fits_with_no_room_to_spare():
    # B = 2 tau leaves the center no room: the bound (1 + 0)^3 = 1 admits it
    scene = generate_scene(_spec(num_objects=1, points_per_object=(50,), bound_b=0.6))
    assert validate_scene(scene).passed


def test_spec_validation():
    with pytest.raises(ValueError):
        _spec(separation_margin=0.2)  # must exceed tau
    with pytest.raises(ValueError):
        _spec(points_per_object=(60, 50))  # length mismatch
    with pytest.raises(ValueError):
        _spec(sigma=-0.1)


@pytest.mark.parametrize("field", ["sigma", "tau", "bound_b", "separation_margin"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_spec_rejects_nan_and_inf(field, value):
    with pytest.raises(ValueError, match=field):
        _spec(**{field: value})


class _Preset:
    """A generator whose first draws are preset: ``normals`` for
    ``standard_normal``, ``units`` for the unit draw of ``random`` and of a
    scalar ``uniform``."""

    def __init__(self, seed, normals=(), units=()):
        self._rng = np.random.default_rng(seed)
        self._normals = [np.array(v, dtype=float) for v in normals]
        self._units = list(units)

    def standard_normal(self, size):
        return self._normals.pop(0) if self._normals else self._rng.standard_normal(size)

    def random(self):
        return self._units.pop(0) if self._units else self._rng.random()

    def uniform(self, low, high):
        return low + (high - low) * self._units.pop(0) if self._units else self._rng.uniform(low, high)

    def __getattr__(self, name):
        return getattr(self._rng, name)


@pytest.mark.parametrize("seed, count, tau, radii, scale, preset", [
    # radius 0.5 clamps often, radius 10 never: both branches keep the bytes
    *(pytest.param(seed, 2000, 0.3, (0.5, 10.0), 1.0, (), id=str(seed)) for seed in range(4)),
    pytest.param(4, 1, 0.3, (0.5,), 1.0, (), id="one-point"),
    # radius^2 is 0, subnormal or huge (finite or not): every step takes
    # dot's path; the walks near 1e-160 and 1e153 clamp
    pytest.param(5, 500, 1e-170, (2e-170,), 1e-170, (), id="radius-squared-underflows"),
    pytest.param(6, 500, 1e-160, (2e-160,), 1e-160, (), id="radius-squared-subnormal"),
    pytest.param(7, 500, 1e152, (1e153, 1.5e154), 1e152, (), id="radius-squared-overflows"),
    # a zero and a 1e-13 direction are drawn again; 1.5e-12 passes the screen
    # and is kept
    pytest.param(8, 300, 0.3, (0.5,), 1.0, ((0, 0, 0), (1e-13, 0, 0), (1.5e-12, 0, 0)),
                 id="short-first-normals"),
])
def test_random_walk_matches_norm_form(seed, count, tau, radii, scale, preset):
    for radius in radii:
        center = np.random.default_rng(seed).uniform(-2, 2, 3) * scale
        rng, oracle_rng = _Preset(seed, preset), _Preset(seed, preset)
        walk = scenes._random_walk_blob(rng, center, count, tau, radius)
        oracle = random_walk_blob_by_norm(oracle_rng, center, count, tau, radius)
        assert walk.shape == (count, 3) and walk.tobytes() == oracle.tobytes()
        assert rng.bit_generator.state == oracle_rng.bit_generator.state


@pytest.mark.parametrize("unit", [0.25, np.nextafter(0.25, 1), np.nextafter(0.25, 0)])
def test_random_walk_clamps_from_one_ulp_past_the_sphere(unit):
    # steps of tau/2 = 1 along x: the first lands on the sphere of radius
    # 0.25, one ulp outside it or one ulp inside, the second past it
    for center in (np.zeros(3), np.array([0.3, -1.7, 2.9])):
        draws = dict(normals=[(1, 0, 0)] * 2, units=[unit] * 2)
        rng, oracle_rng = _Preset(0, **draws), _Preset(0, **draws)
        walk = scenes._random_walk_blob(rng, center, 3, 2.0, 0.25)
        assert walk.tobytes() == random_walk_blob_by_norm(oracle_rng, center, 3, 2.0, 0.25).tobytes()


def test_stacked_matmul_lengths_are_the_per_row_dot():
    # the walk's direction lengths: one stacked matmul for v.dot(v) per row
    rng = np.random.default_rng(3)
    d = rng.standard_normal((20000, 3)) * 10.0 ** rng.uniform(-150, 150, (20000, 3))
    stacked = np.matmul(d[:, None, :], d[:, :, None]).ravel()
    assert stacked.tobytes() == np.array([v.dot(v) for v in d]).tobytes()


def _place_outliers_by_row_norms(rng, spec, object_points):
    """``scenes._place_outliers`` with each clearance taken as
    ``row_norms(object_points - cand).min()``."""
    clearance = scenes._OUTLIER_CLEARANCE_FACTOR * spec.tau
    out = np.empty((spec.num_outliers, 3))
    for i in range(spec.num_outliers):
        for _ in range(500):
            cand = random_point_in_ball(rng, spec.bound_b)
            if row_norms(object_points - cand).min() >= clearance:
                out[i] = cand
                break
        else:
            return None
    return out


class _Script:
    """A generator whose 10-row uniform blocks each repeat one of ``points``,
    in order, and then ``rest`` for ever; its state counts the rows drawn."""

    def __init__(self, rest, points=()):
        self.rows = np.repeat(np.reshape(points, (-1, 3)), 10, axis=0)
        self.rest = rest
        self.bit_generator = SimpleNamespace(state=0)

    def uniform(self, low, high, size):
        start = self.bit_generator.state
        self.bit_generator.state = start + size[0]
        rows = np.tile(self.rest, (size[0], 1))
        head = self.rows[start:start + size[0]]
        rows[:len(head)] = head
        return rows


@pytest.mark.parametrize("seed", range(3))
def test_outlier_clearance_matches_row_norms_form(seed):
    # a small ball around the blob rejects many candidates
    spec = _spec(num_objects=1, points_per_object=(400,), num_outliers=40, bound_b=1.5)
    blob = scenes._random_walk_blob(np.random.default_rng(seed), np.zeros(3), 400, 0.3, 0.6)
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = scenes._place_outliers(rng, spec, blob)
    want = _place_outliers_by_row_norms(oracle_rng, spec, blob)
    assert got.tobytes() == want.tobytes()
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


def test_outlier_clearance_takes_the_exact_bound():
    # one object point at the origin, and every candidate the same point p:
    # a clearance 1.5 tau of exactly row_norms' distance passes, and the next
    # tau fails every try. For the last p, row_norms' sum (x^2 + y^2) + z^2
    # is one ulp above x^2 + (y^2 + z^2).
    for p in ((1.5, 0, 0), (0, 0, 3.0), (0.938, 1.392, 1.114)):
        dist = row_norms(np.array([p]))[0]
        tau = dist / scenes._OUTLIER_CLEARANCE_FACTOR
        assert tau * scenes._OUTLIER_CLEARANCE_FACTOR == dist
        assert np.nextafter(tau, 3) * scenes._OUTLIER_CLEARANCE_FACTOR > dist
        for tau, placed in ((tau, True), (np.nextafter(tau, 3), False)):
            spec = _spec(num_objects=1, points_per_object=(1,), num_outliers=1, tau=tau)
            got = scenes._place_outliers(_Script(p), spec, np.zeros((1, 3)))
            assert got.tolist() == [list(p)] if placed else got is None


def _place_centers_by_norm(rng, count, avail_radius, min_gap, tries):
    """``scenes._place_centers`` one try at a time, each gap taken by
    ``np.linalg.norm``."""
    centers = []
    for _ in range(tries):
        cand = random_point_in_ball(rng, avail_radius)
        if all(np.linalg.norm(cand - c) >= min_gap for c in centers):
            centers.append(cand)
            if len(centers) == count:
                return np.array(centers)
    return None


class _Squeezed:
    """A generator whose uniform rows with x above the lowest quarter of the
    range are moved to the corner (high, high, high), outside the ball: 43%
    of the 10-row blocks of ``random_point_in_ball`` then hold no row inside,
    so tries of several blocks, some running past a batch, are common."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.bit_generator = self._rng.bit_generator

    def uniform(self, low, high, size):
        rows = self._rng.uniform(low, high, size)
        rows[rows[:, 0] > low + 0.25 * (high - low)] = high
        return rows


def _blobs(seed, centers):
    """Random-walk blobs of 150 points and radius 0.6 around ``centers``."""
    rng = np.random.default_rng(seed)
    return np.vstack([scenes._random_walk_blob(rng, np.array(c, dtype=float), 150, 0.3, 0.6)
                      for c in centers])


@pytest.mark.parametrize("make_rng", [np.random.default_rng, _Squeezed], ids=["pcg64", "squeezed"])
@pytest.mark.parametrize("max_batch", [5, scenes._MAX_BATCH])
def test_batched_placement_matches_one_try_at_a_time(make_rng, max_batch, monkeypatch):
    # the same centres and outliers, or the same failure, and the generator
    # left in the same state; small batches put many tries across two
    monkeypatch.setattr(scenes, "_MAX_BATCH", max_batch)
    outcomes = set()
    for seed in range(24):
        # a few centres; a jam far below the packing bound; a tight ball
        for count, avail_radius, min_gap, tries in ((3, 3.4, 1.8, 600), (40, 3.4, 1.8, 400),
                                                    (6, 1.2, 1.0, 300)):
            rng, oracle_rng = make_rng(seed), make_rng(seed)
            got = scenes._place_centers(rng, count, avail_radius, min_gap, tries)
            want = _place_centers_by_norm(oracle_rng, count, avail_radius, min_gap, tries)
            assert (got is None) == (want is None)
            assert want is None or got.tobytes() == want.tobytes()
            assert rng.bit_generator.state == oracle_rng.bit_generator.state
            outcomes.add(("centers", want is None))
        # three blobs, outliers in a wide ball, a tight one and one that is
        # all blob (every outlier's tries fail)
        points = _blobs(seed, [(0, 0, 0), (1.6, 0, 0), (0, -1.6, 0.3)])
        for bound_b, num_outliers in ((4.0, 60), (2.3, 30), (0.5, 3)):
            spec = _spec(points_per_object=(150, 150, 150), num_outliers=num_outliers,
                         bound_b=bound_b)
            rng, oracle_rng = make_rng(seed), make_rng(seed)
            got = scenes._place_outliers(rng, spec, points)
            want = _place_outliers_by_row_norms(oracle_rng, spec, points)
            assert (got is None) == (want is None)
            assert want is None or got.tobytes() == want.tobytes()
            assert rng.bit_generator.state == oracle_rng.bit_generator.state
            outcomes.add(("outliers", want is None))
    assert outcomes == {(kind, failed) for kind in ("centers", "outliers")
                        for failed in (False, True)}


@pytest.mark.parametrize("scale", [1.0, 1e-160, 1e146])
def test_centre_gaps_take_the_norm_bits_at_the_bound(scale):
    # a gap of exactly the norm passes and the next float fails. At scale 1
    # the square root of (x^2 + y^2) + z^2 rounds below the norm for the
    # second offset and above it for the third; at the two other scales the
    # squares leave the normal range
    centers = np.array([[0.25, -1.5, 2.0], [-3.0, 1.0, 0.5]]) * scale
    for offset in ((1.5, 0, 0), (0.427, 0.918, 0.174), (1.74, 1.263, -1.989)):
        point = centers[0] + np.array(offset) * scale
        points = np.array([point, point + 10 * scale])
        gap = np.linalg.norm(point - centers[0])
        assert scenes._clear_of(points, centers, gap).tolist() == [True, True]
        assert scenes._clear_of(points, centers, np.nextafter(gap, np.inf)).tolist() == [
            False, True]


def test_outlier_reach_decides_as_every_point_does():
    # a blob walked from the origin, its farthest point moved onto a line
    # through the origin, and tries on that line beyond it: at the blob's
    # reach, one ulp inside and one outside it, and about where the reach
    # would be without its rounding margin. A try within reach is compared
    # point by point, one beyond it clears the blob unseen; each decision
    # must be the all-points test's. On the axes the tries lie exactly at
    # the reach.
    tau = 0.3
    clearance = scenes._OUTLIER_CLEARANCE_FACTOR * tau
    rng = np.random.default_rng(7)
    accepted = []
    for seed in range(8):
        walk = scenes._random_walk_blob(np.random.default_rng(seed), np.zeros(3), 60, tau, 0.6)
        norms = row_norms(walk)
        far, extent = int(np.argmax(norms)), norms.max()
        directions = np.concatenate([np.eye(3), rng.standard_normal((100, 3))])
        for u in directions / row_norms(directions)[:, None]:
            blob = walk.copy()
            blob[far] = extent * u
            reach = scenes._reach(blob, clearance)
            bare = row_norms(blob).max() + clearance
            if (u == 1).any():
                assert row_norms(reach * u[None])[0] == reach
            up = lambda r: np.nextafter(r, np.inf)
            cands = np.array([r * u for r in (reach, np.nextafter(reach, 0), up(reach),
                                              np.nextafter(bare, 0), bare, up(bare),
                                              up(up(bare)))])
            spec = _spec(num_objects=1, points_per_object=(60,), num_outliers=len(cands),
                         tau=tau)
            rng_got, rng_want = _Script([0, 0, -3.9], cands), _Script([0, 0, -3.9], cands)
            got = scenes._place_outliers(rng_got, spec, blob)
            want = _place_outliers_by_row_norms(rng_want, spec, blob)
            assert got.tobytes() == want.tobytes()
            assert rng_got.bit_generator.state == rng_want.bit_generator.state
            accepted.append((want[:, 2] != -3.9).sum())
    assert 0 < sum(accepted) < 7 * len(accepted)  # some tries pass, some fail


def test_good_split_single_fragment_equals_truth():
    scene = generate_scene(_spec())
    clustering = make_good_split(scene, alpha=2.0, fragments_per_object=1, seed=0)
    np.testing.assert_array_equal(clustering.labels, scene.true_labels)


def test_good_split_three_fragments_passes_check():
    scene = generate_scene(_spec(points_per_object=(120, 100, 90)))
    clustering = make_good_split(scene, alpha=2.0, fragments_per_object=3, seed=5)
    report = check_initial_clustering(clustering, scene.correspondences.a,
                                      scene.true_labels, scene.spec.tau,
                                      alpha=2.0, min_size=10)
    assert report.passed
    assert all(d > 2.0 for d in report.object_dominance)


def test_good_split_outliers_form_own_clusters():
    scene = generate_scene(_spec(num_outliers=6))
    clustering = make_good_split(scene, alpha=2.0, fragments_per_object=2, seed=2)
    outlier_labels = set(clustering.labels[scene.outlier_indices()].tolist())
    object_labels = set(clustering.labels[scene.true_labels > 0].tolist())
    assert outlier_labels.isdisjoint(object_labels)
    assert 0 not in outlier_labels


def test_good_split_deterministic():
    scene = generate_scene(_spec())
    s1 = make_good_split(scene, alpha=2.0, fragments_per_object=3, seed=6)
    s2 = make_good_split(scene, alpha=2.0, fragments_per_object=3, seed=6)
    np.testing.assert_array_equal(s1.labels, s2.labels)


# sha256 of the int64 little-endian labels of the criterion-4 good split
# (3 x 2000 points, tau 0.3, 3 fragments per object), recorded with the
# spatial-hash fragment growth that the tau/2 cell grid replaced
GOOD_SPLIT_SHA256 = {
    0: "6df598900e8c8c1d964b6ab9bed204e20a24dbaed5b6f38565e0fc6bd56b53c8",
    1: "ec7fd28e5aab624af41c27ab6f5c4866dd5b362a4c0557b4a73ea0476a244ba8",
    2: "926f41c9147be1f8f5573ff585877dd714521f92a6fdbfc04bd4f650261cf1f9",
}


@pytest.mark.parametrize("seed", sorted(GOOD_SPLIT_SHA256))
def test_good_split_matches_recorded_labels(seed):
    tau = 0.3
    scene = generate_scene(SceneSpec(num_objects=3, points_per_object=(2000, 2000, 2000),
                                     sigma=0.005 * tau, tau=tau, bound_b=4.0, seed=seed))
    split = make_good_split(scene, alpha=2.0, fragments_per_object=3, seed=seed + 1000)
    digest = hashlib.sha256(split.labels.astype("<i8").tobytes()).hexdigest()
    assert digest == GOOD_SPLIT_SHA256[seed]


def test_good_split_infeasible_ratio_errors():
    scene = generate_scene(_spec(num_objects=1, points_per_object=(4,)))
    with pytest.raises(ValueError, match="too small"):
        make_good_split(scene, alpha=2.0, fragments_per_object=2, seed=0)
    with pytest.raises(ValueError):
        make_good_split(scene, alpha=1.0, fragments_per_object=2, seed=0)


def test_good_split_checks_every_object_before_growing_fragments(monkeypatch):
    # object 1 (80 points) splits into 8 fragments, object 2 (10) cannot: the
    # split must fail before it grows any fragment of object 1
    calls, grow = [], scenes.fragment_connected_set
    monkeypatch.setattr(scenes, "fragment_connected_set",
                        lambda *args: calls.append(args) or grow(*args))
    scene = generate_scene(_spec(num_objects=2, points_per_object=(80, 10)))
    with pytest.raises(SplitSizeError, match="object 2 with 10 points"):
        make_good_split(scene, alpha=2.0, fragments_per_object=8, seed=0)
    assert calls == []
