import numpy as np
import pytest

from conftest import (almost_equal, ball_sample_by_row_sums, compose, inverse,
                      rotation_about_axis)
from multireg.geometry import (CorrespondenceSet, RigidTransform, geodesic_distance,
                               is_rotation, move, move_each, random_point_in_ball,
                               random_rotation, row_norms)


def test_apply_identity():
    t = RigidTransform.identity()
    np.testing.assert_array_equal(t.apply([1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])


def test_apply_quarter_turn_about_z():
    t = RigidTransform(rotation_about_axis([0, 0, 1], np.pi / 2), np.zeros(3))
    np.testing.assert_allclose(t.apply([1.0, 0.0, 0.0]), [0.0, 1.0, 0.0], atol=1e-15)


def test_apply_hand_computed_with_translation():
    # pi about x maps (0,1,0) to (0,-1,0); plus t=(1,1,1) gives (1,0,1)
    t = RigidTransform(rotation_about_axis([1, 0, 0], np.pi), np.ones(3))
    result = t.apply([0.0, 1.0, 0.0])
    np.testing.assert_allclose(result, [1.0, 0.0, 1.0], atol=1e-15)
    # cross-check by inverse round trip
    np.testing.assert_allclose(inverse(t).apply(result), [0.0, 1.0, 0.0], atol=1e-14)


@pytest.mark.parametrize("n", [0, 1, 2, 5000])
def test_column_forms_have_the_bits_of_the_row_forms(n):
    # every coordinate has its own magnitude, so the three terms of a row's
    # sum round differently
    rng = np.random.default_rng(n)
    pts = rng.standard_normal((n, 3)) * 10.0 ** rng.integers(-8, 9, size=(n, 3))
    rotation = random_rotation(rng)
    translation = rng.standard_normal(3) * 10.0 ** rng.integers(-8, 9, size=3)
    transform = RigidTransform(rotation, translation)
    norms = row_norms(pts)
    assert norms.shape == (n,) and norms.tobytes() == np.linalg.norm(pts, axis=1).tobytes()
    want = pts @ rotation.T + translation
    for got in (move(pts, rotation, translation), transform.apply(pts)):
        assert got.shape == (n, 3) and got.tobytes() == want.tobytes()
    single = rng.standard_normal(3) * 1e4
    got = transform.apply(single)
    assert got.shape == (3,) and got.tobytes() == (single @ rotation.T + translation).tobytes()
    assert transform.apply(single.tolist()).tobytes() == got.tobytes()


def test_move_each_moves_rows_by_their_label_and_leaves_label_0(rng):
    pts = rng.standard_normal((40, 3))
    pts.flags.writeable = False
    labels = rng.integers(0, 4, 40)
    transforms = [RigidTransform(random_rotation(rng), rng.standard_normal(3)) for _ in range(3)]
    moved = move_each(pts, labels, transforms)
    assert moved.shape == (40, 3)
    # the bits of one apply per label's rows (a lone row's matmul may round
    # otherwise), and close to each row moved alone
    assert moved[labels == 0].tobytes() == pts[labels == 0].tobytes()
    for j, transform in enumerate(transforms, start=1):
        assert moved[labels == j].tobytes() == transform.apply(pts[labels == j]).tobytes()
    for i, label in enumerate(labels):
        want = pts[i] if label == 0 else transforms[label - 1].apply(pts[i])
        np.testing.assert_allclose(moved[i], want, rtol=0, atol=1e-14)
    # a transform past the largest label moves nothing
    assert move_each(pts, np.zeros(40, dtype=int), transforms).tobytes() == pts.tobytes()


def test_compose_identity_and_inverse():
    t = RigidTransform(random_rotation(5), np.array([0.3, -0.7, 1.1]))
    assert almost_equal(compose(RigidTransform.identity(), t), t)
    assert almost_equal(compose(t, inverse(t)), RigidTransform.identity(), tol=1e-12)


def test_compose_matches_pointwise_application(rng):
    for seed in range(10):
        t1 = RigidTransform(random_rotation(seed), rng.uniform(-2, 2, 3))
        t2 = RigidTransform(random_rotation(seed + 100), rng.uniform(-2, 2, 3))
        composed = compose(t1, t2)
        points = rng.uniform(-5, 5, (100, 3))
        np.testing.assert_allclose(composed.apply(points), t1.apply(t2.apply(points)),
                                   atol=1e-12)


def test_compose_associative(rng):
    ts = [RigidTransform(random_rotation(s), rng.uniform(-1, 1, 3)) for s in range(3)]
    left = compose(compose(ts[0], ts[1]), ts[2])
    right = compose(ts[0], compose(ts[1], ts[2]))
    assert np.linalg.norm(left.rotation - right.rotation) <= 1e-12
    assert np.linalg.norm(left.translation - right.translation) <= 1e-12


def test_inverse_trivials_and_roundtrip(rng):
    assert almost_equal(inverse(RigidTransform.identity()), RigidTransform.identity())
    shift = RigidTransform(np.eye(3), np.array([1.0, 2.0, 3.0]))
    np.testing.assert_allclose(inverse(shift).translation, [-1.0, -2.0, -3.0])
    t = RigidTransform(random_rotation(9), rng.uniform(-3, 3, 3))
    points = rng.uniform(-5, 5, (100, 3))
    np.testing.assert_allclose(inverse(t).apply(t.apply(points)), points, atol=1e-12)


def test_geodesic_distance_examples():
    r = random_rotation(3)
    assert geodesic_distance(r, r) <= 1e-12
    assert geodesic_distance(np.eye(3), rotation_about_axis([1, 0, 0], np.pi)) == pytest.approx(np.pi)


def test_geodesic_axis_angle_oracle(rng):
    # axis-angle construction is its own oracle
    for _ in range(20):
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        assert geodesic_distance(np.eye(3), rotation_about_axis(axis, 0.3)) == pytest.approx(0.3, abs=1e-12)


def test_geodesic_symmetry_and_left_invariance(rng):
    for seed in range(10):
        r1, r2, q = random_rotation(seed), random_rotation(seed + 50), random_rotation(seed + 99)
        d = geodesic_distance(r1, r2)
        assert geodesic_distance(r2, r1) == pytest.approx(d, abs=1e-12)
        assert geodesic_distance(q @ r1, q @ r2) == pytest.approx(d, abs=1e-12)


def test_geodesic_rejects_non_rotation():
    with pytest.raises(ValueError):
        geodesic_distance(np.eye(3) * 2.0, np.eye(3))


def test_random_rotation_invariants_and_determinism():
    for seed in range(100):
        r = random_rotation(seed)
        assert is_rotation(r, tol=1e-9)
    np.testing.assert_array_equal(random_rotation(42), random_rotation(42))


def test_random_rotation_mean_trace_is_haar():
    # Quadrature oracle over the Haar angle density (1-cos t)/pi gives
    # E[trace] = E[1 + 2 cos t] = 0 exactly; check the sampler agrees.
    angles = np.linspace(0.0, np.pi, 20001)
    density = (1.0 - np.cos(angles)) / np.pi
    expected = np.trapezoid((1.0 + 2.0 * np.cos(angles)) * density, angles)
    assert expected == pytest.approx(0.0, abs=1e-6)
    traces = [np.trace(random_rotation(seed)) for seed in range(10_000)]
    assert abs(np.mean(traces) - expected) <= 0.1


def test_correspondence_set_validation_and_subset(rng):
    a = rng.uniform(-1, 1, (10, 3))
    b = rng.uniform(-1, 1, (10, 3))
    cs = CorrespondenceSet(a, b)
    assert len(cs) == 10
    sub = cs.subset([2, 5, 7])
    np.testing.assert_array_equal(sub.a, a[[2, 5, 7]])
    with pytest.raises(ValueError):
        CorrespondenceSet(a, b[:5])
    bad = a.copy()
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        CorrespondenceSet(bad, b)


def test_rigid_transform_rejects_invalid_rotation():
    with pytest.raises(ValueError):
        RigidTransform(np.eye(3) * 1.5, np.zeros(3))


@pytest.mark.parametrize("size", [None, 1, 3, 10_000])
def test_ball_sampler_matches_row_sum_oracle(size):
    rng, oracle_rng = np.random.default_rng(size or 0), np.random.default_rng(size or 0)
    for radius in (1.0, 2.5, 1e-3):
        got = random_point_in_ball(rng, radius, size)
        want = ball_sample_by_row_sums(oracle_rng, radius, size)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        # the same draws: both streams stand at the same position afterwards
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
