import numpy as np
import pytest

from conftest import (almost_equal, eager_diagnostics, horn_fit_per_set,
                      noise_std_by_column_sums, noise_std_by_var, rotation_about_axis)
from multireg.geometry import (CorrespondenceSet, RigidTransform, geodesic_distance,
                               is_rotation, random_rotation)
from multireg import horn
from multireg.horn import (SIGMA_FLOOR, center, cross_covariance, estimate_noise_std,
                           estimate_translation, horn_register, horn_stack, solve_rotation)


def test_center_examples():
    centered, mean = center([(1, 0, 0), (-1, 0, 0)])
    np.testing.assert_array_equal(mean, [0, 0, 0])
    np.testing.assert_array_equal(centered, [(1, 0, 0), (-1, 0, 0)])

    centered, mean = center([(2, 2, 2)])
    np.testing.assert_array_equal(mean, [2, 2, 2])
    np.testing.assert_array_equal(centered, [(0, 0, 0)])

    centered, mean = center([(0, 0, 0), (2, 0, 0), (4, 0, 0)])
    np.testing.assert_array_equal(mean, [2, 0, 0])
    np.testing.assert_array_equal(centered, [(-2, 0, 0), (0, 0, 0), (2, 0, 0)])


def test_center_empty_errors():
    with pytest.raises(ValueError, match="empty point set"):
        center(np.empty((0, 3)))


@pytest.mark.parametrize("shape", [(1, 3), (3, 3), (9, 3), (100, 3), (10_000, 3), (1024, 3, 3)])
def test_center_has_the_bits_of_the_mean(shape):
    rng = np.random.default_rng(shape[0])
    pts = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, shape)
    mean = pts.mean(axis=-2)
    centered, got = center(pts)
    assert got.shape == mean.shape and got.tobytes() == mean.tobytes()
    assert centered.tobytes() == (pts - mean[..., None, :]).tobytes()


def test_center_of_a_stack_is_each_set_centred_alone():
    pts = np.random.default_rng(5).uniform(-3, 3, (6, 40, 3))
    centered, mean = center(pts)
    for t in range(len(pts)):
        alone_centered, alone_mean = center(pts[t])
        assert centered[t].tobytes() == alone_centered.tobytes()
        assert mean[t].tobytes() == alone_mean.tobytes()


def test_center_mean_residual(rng):
    pts = rng.uniform(-5, 5, (1000, 3))
    centered, _ = center(pts)
    assert np.all(np.abs(centered.sum(axis=0)) <= 1e-10 * len(pts))


def test_cross_covariance_identity_and_linearity(rng):
    basis = np.array([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], dtype=float)
    a_c, _ = center(basis)
    h = cross_covariance(a_c, a_c)
    np.testing.assert_allclose(h, h.T, atol=1e-15)
    assert np.all(np.linalg.eigvalsh(h) >= -1e-15)

    r = random_rotation(11)
    h_rotated = cross_covariance(a_c, a_c @ r.T)
    np.testing.assert_allclose(h_rotated, r @ h, atol=1e-15)


def test_cross_covariance_two_term_hand_sum():
    a_c = np.array([(1, 0, 0), (-1, 0, 0)], dtype=float)
    quarter_turn = rotation_about_axis([0, 0, 1], np.pi / 2)
    b_c = a_c @ quarter_turn.T
    h = cross_covariance(a_c, b_c)
    np.testing.assert_allclose(h, [[0, 0, 0], [1, 0, 0], [0, 0, 0]], atol=1e-15)


def test_cross_covariance_length_mismatch():
    with pytest.raises(ValueError):
        cross_covariance(np.zeros((3, 3)), np.zeros((2, 3)))


def test_solve_rotation_identity_and_degenerate():
    np.testing.assert_allclose(solve_rotation(np.eye(3)), np.eye(3), atol=1e-15)
    assert is_rotation(solve_rotation(np.zeros((3, 3))))
    np.testing.assert_allclose(solve_rotation(np.zeros((3, 3))), np.eye(3), atol=1e-15)
    # rank-deficient inputs still give valid rotations
    assert is_rotation(solve_rotation(np.outer([1.0, 0, 0], [0, 1.0, 0])))
    assert is_rotation(solve_rotation(np.outer([1.0, 2, 3], [4.0, 5, 6])))


def test_horn_register_collinear_points_still_valid():
    a = np.array([(i * 0.5, 0.0, 0.0) for i in range(5)])
    est = horn_register(CorrespondenceSet(a, a + np.array([1.0, 0, 0])))
    assert is_rotation(est.transform.rotation)
    assert est.lambda_min == pytest.approx(0.0, abs=1e-15)


def test_solve_rotation_recovers_polar_factor(rng):
    # H = R A with A symmetric positive definite has unique maximizer R
    for seed in range(20):
        r = random_rotation(seed)
        q = random_rotation(seed + 1000)
        eigs = rng.uniform(0.5, 2.0, 3)
        spd = q @ np.diag(eigs) @ q.T
        np.testing.assert_allclose(solve_rotation(r @ spd), r, atol=1e-10)


def test_solve_rotation_is_the_maximizer(rng):
    # <solve_rotation(H), H> dominates <Q, H> for random rotations Q
    for seed in range(20):
        h = rng.uniform(-1, 1, (3, 3))
        best = solve_rotation(h)
        best_score = np.sum(best * h)
        for probe in range(200):
            q = random_rotation(1000 * seed + probe)
            assert np.sum(q * h) <= best_score + 1e-12


def test_estimate_translation():
    np.testing.assert_array_equal(
        estimate_translation(np.eye(3), np.ones(3), np.ones(3)), np.zeros(3))
    np.testing.assert_array_equal(
        estimate_translation(np.eye(3), np.zeros(3), np.array([1.0, 2.0, 3.0])),
        [1.0, 2.0, 3.0])


def test_estimate_noise_std_examples(rng):
    assert estimate_noise_std(np.ones((5, 3))) == SIGMA_FLOOR
    two_point = estimate_noise_std([(1, 0, 0), (-1, 0, 0)])
    assert two_point == pytest.approx(np.sqrt(1.0 / 3.0), abs=1e-12)
    # uniform noise on [-s, s] has per-axis variance s^2/3
    sigma = 0.3
    residuals = rng.uniform(-sigma, sigma, (100_000, 3))
    assert estimate_noise_std(residuals) == pytest.approx(sigma / np.sqrt(3.0), abs=0.003)
    with pytest.raises(ValueError, match="insufficient residuals"):
        estimate_noise_std([(1, 2, 3)])


@pytest.mark.parametrize("rows", [2, 10, 10_000, 100_000])
def test_estimate_noise_std_matches_var_oracle(rng, rows):
    for offset in (0.0, 5.0, -1e3):
        residuals = rng.uniform(-0.3, 0.3, (rows, 3)) + offset
        assert estimate_noise_std(residuals) == noise_std_by_var(residuals)
        # the oracle's own float() and max(): compare the raw bits too
        assert np.float64(estimate_noise_std(residuals)).tobytes() == \
               np.float64(noise_std_by_var(residuals)).tobytes()


@pytest.mark.parametrize("rows", [2, 3, 1000, 100_000])
def test_estimate_noise_std_buffers_match_column_sum_form(rng, rows):
    # the bench passes a fresh (n, 3) draw and EM a residual array b - R a + t,
    # both C-ordered, so each column is a stride-24 view; a row-strided view of
    # a wider array is checked too
    wide = rng.uniform(-0.3, 0.3, (2 * rows, 5)) + 7.0
    draw = rng.uniform(-1.0, 1.0, (rows, 3))
    cs, truth = _random_scene(rng, rows, 0.05)
    residuals = cs.b - truth.apply(cs.a)
    for r in (draw, residuals, wide[::2, 1:4]):
        assert np.float64(estimate_noise_std(r)).tobytes() == \
               np.float64(noise_std_by_column_sums(r)).tobytes()


@pytest.mark.parametrize("m, sigma", [(3, 0.1), (3, 0.0), (50, 0.0), (1000, 0.05),
                                      (10_000, 0.1)])
def test_lazy_diagnostics_match_eager_forms(rng, m, sigma):
    cs, _ = _random_scene(rng, m, sigma)
    sigma_hat, lambda_min = eager_diagnostics(cs)
    forward, backward = horn_register(cs), horn_register(cs)
    assert (forward.sigma_hat, forward.lambda_min) == (sigma_hat, lambda_min)
    assert (backward.lambda_min, backward.sigma_hat) == (lambda_min, sigma_hat)
    assert np.float64(forward.lambda_min).tobytes() == np.float64(lambda_min).tobytes()
    assert np.float64(forward.sigma_hat).tobytes() == np.float64(sigma_hat).tobytes()


def test_diagnostics_are_computed_once_on_read(monkeypatch, rng):
    cs, _ = _random_scene(rng, 20, 0.1)
    est = horn_register(cs)
    calls = []
    noise_std = horn.estimate_noise_std
    monkeypatch.setattr(horn, "estimate_noise_std",
                        lambda *args: calls.append(args) or noise_std(*args))
    assert est.sigma_hat == est.sigma_hat
    assert len(calls) == 1


def _random_scene(rng, m, sigma=0.0):
    rotation = random_rotation(rng)
    translation = rng.uniform(-2, 2, 3)
    a = rng.uniform(-1, 1, (m, 3))
    b = a @ rotation.T + translation + rng.uniform(-sigma, sigma, (m, 3))
    return CorrespondenceSet(a, b), RigidTransform(rotation, translation)


def test_horn_register_exact_recovery(rng):
    cs, truth = _random_scene(rng, 50)
    est = horn_register(cs)
    assert geodesic_distance(est.transform.rotation, truth.rotation) <= 1e-9
    assert np.linalg.norm(est.transform.translation - truth.translation) <= 1e-9
    assert est.lambda_min > 0


def test_horn_register_identity_case(rng):
    a = rng.uniform(-1, 1, (20, 3))
    est = horn_register(CorrespondenceSet(a, a))
    assert almost_equal(est.transform, RigidTransform.identity(), tol=1e-12)
    assert est.sigma_hat == SIGMA_FLOOR


def test_horn_register_underdetermined():
    with pytest.raises(ValueError, match="underdetermined"):
        horn_register(CorrespondenceSet(np.zeros((2, 3)), np.zeros((2, 3))))


def test_horn_register_equivariance(rng):
    cs, _ = _random_scene(rng, 40, sigma=0.05)
    base = horn_register(cs)
    for seed in range(20):
        q = random_rotation(seed)
        s = rng.uniform(-1, 1, 3)
        moved = CorrespondenceSet(cs.a, cs.b @ q.T + s)
        est = horn_register(moved)
        assert np.linalg.norm(est.transform.rotation - q @ base.transform.rotation) <= 1e-9
        expected_t = q @ base.transform.translation + s
        assert np.linalg.norm(est.transform.translation - expected_t) <= 1e-9


def test_second_moment_trace_inequality(rng):
    # (1/m) sum |R1 a - R2 a|^2 >= lambda_min * |R1 - R2|_F^2
    for seed in range(20):
        a = rng.uniform(-1, 1, (100, 3))
        a_c, _ = center(a)
        second_moment = (a_c.T @ a_c) / len(a)
        lam = np.linalg.eigvalsh(second_moment)[0]
        r1, r2 = random_rotation(seed), random_rotation(seed + 7)
        lhs = np.mean(np.sum((a_c @ (r1 - r2).T) ** 2, axis=1))
        rhs = lam * np.sum((r1 - r2) ** 2)
        assert lhs >= rhs - 1e-10


def test_horn_error_within_theory_bound(rng):
    # quick version of the consistency Monte-Carlo; the acceptance suite
    # runs the full 200-trial grid
    from multireg.bounds import rotation_error_bound, translation_error_bound
    delta = 0.05
    violations = 0
    for _ in range(20):
        cs, truth = _random_scene(rng, 2000, sigma=0.1)
        est = horn_register(cs)
        rot_err_sq = np.sum((est.transform.rotation - truth.rotation) ** 2)
        trans_err_sq = np.sum((est.transform.translation - truth.translation) ** 2)
        if rot_err_sq > rotation_error_bound(2000, 0.1, np.sqrt(3), delta, est.lambda_min):
            violations += 1
        if trans_err_sq > translation_error_bound(2000, 0.1, np.sqrt(3), delta):
            violations += 1
    assert violations == 0


def _assert_stack_matches_horn_register(a, b):
    """horn_stack on (T, m, 3) pairs gives the bits of one horn_register per
    set, and both give those of the single-set reference arithmetic."""
    rotations, translations = horn_stack(a, b)
    fits = [horn_register(CorrespondenceSet(x, y)).transform for x, y in zip(a, b)]
    reference = [horn_fit_per_set(x, y) for x, y in zip(a, b)]
    assert rotations.shape == (len(a), 3, 3) and translations.shape == (len(a), 3)
    assert np.array_equal(rotations, [f.rotation for f in fits])
    assert np.array_equal(translations, [f.translation for f in fits])
    # array_equal takes -0.0 == 0.0; the bytes tell the signed zeros apart
    for expected in ([(f.rotation, f.translation) for f in fits], reference):
        assert rotations.tobytes() == np.array([r for r, _ in expected]).tobytes()
        assert translations.tobytes() == np.array([t for _, t in expected]).tobytes()


def test_horn_stack_matches_horn_register_on_random_triples(rng):
    a = rng.uniform(-1, 1, (500, 3, 3))
    b = a @ random_rotation(5).T + rng.uniform(-2, 2, 3) + rng.normal(0, 0.05, a.shape)
    _assert_stack_matches_horn_register(a, b)
    _assert_stack_matches_horn_register(a, rng.uniform(-1, 1, a.shape))


def test_horn_stack_matches_horn_register_on_degenerate_triples(rng):
    # collinear triples (rank-1 H) and coincident ones (H = 0, so R = I)
    steps = np.array([0.0, 0.5, 2.0])[None, :, None]
    collinear = rng.uniform(-1, 1, (50, 1, 3)) + steps * rng.uniform(-1, 1, (50, 1, 3))
    _assert_stack_matches_horn_register(collinear, collinear @ random_rotation(6).T + 1.0)
    # quarter steps: the mean of three copies is exact, so H is exactly 0
    coincident = np.repeat(rng.integers(-8, 9, (50, 1, 3)) * 0.25, 3, axis=1)
    rotations, _ = horn_stack(coincident, rng.uniform(-1, 1, coincident.shape))
    np.testing.assert_array_equal(rotations, np.broadcast_to(np.eye(3), rotations.shape))
    _assert_stack_matches_horn_register(coincident, rng.uniform(-1, 1, coincident.shape))


def test_horn_stack_matches_horn_register_on_reflections(rng):
    # b mirrors a: the best orthogonal U V^T has det -1, so the guard flips it
    a = rng.uniform(-1, 1, (20, 5, 3))
    b = a * np.array([1.0, 1.0, -1.0])
    u, _, vt = np.linalg.svd(cross_covariance(*(center(x)[0] for x in (a, b))))
    assert np.all(np.linalg.det(u @ vt) < 0)
    _assert_stack_matches_horn_register(a, b)
    assert is_rotation(horn_stack(a, b)[0])


def test_horn_stack_matches_horn_register_on_one_large_set(rng):
    cs, _ = _random_scene(rng, 10_000, sigma=0.1)
    _assert_stack_matches_horn_register(cs.a[None], cs.b[None])


def test_horn_stack_checks_every_fit(monkeypatch, rng):
    a = rng.uniform(-1, 1, (4, 3, 3))
    with pytest.raises(ValueError, match="underdetermined"):
        horn_stack(a[:, :2], a[:, :2])
    # one reflection in the stack fails the SO(3) check RigidTransform runs
    solve = horn.solve_rotation
    monkeypatch.setattr(horn, "solve_rotation",
                        lambda h: solve(h) * np.where(np.arange(4) == 2, -1.0, 1.0)[:, None, None])
    with pytest.raises(ValueError, match="not a rigid transform"):
        horn_stack(a, a)
