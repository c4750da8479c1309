"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they pass. Tolerances are pinned here, not configurable.
"""

import math
import time

import numpy as np
import pytest

from conftest import brute_force_connected, check_initial_clustering, read_result, scene_to_text
from multireg.baselines import (RansacConfig, _gram_to_tanimoto, sequential_ransac,
                                tanimoto_distance)
from multireg.bounds import (dominance_margin, dominance_ratio_threshold,
                             hoeffding_bound, min_cluster_size_threshold,
                             rotation_error_bound, run_consistency_bench,
                             run_noise_ratio_bench, translation_error_bound)
from multireg.clustering import Clustering, _CliqueGrid, euclidean_cluster, is_connected
from multireg.em import EMConfig, assign, e_step, fit_models, m_step, run_em
from multireg.geometry import (CorrespondenceSet, geodesic_distance, is_rotation,
                               random_rotation)
from multireg.horn import horn_register
from multireg.io import read_scene, write_scene
from multireg.metrics import mask_iou
from multireg.scenes import SceneSpec, generate_scene, make_good_split

TAU = 0.3


def test_criterion_1_noiseless_exact_recovery():
    start = time.perf_counter()
    worst_rot = worst_trans = 0.0
    for seed in range(100):
        spec = SceneSpec(num_objects=1, points_per_object=(50,), sigma=0.0,
                         tau=TAU, bound_b=4.0, seed=seed)
        scene = generate_scene(spec)
        est = horn_register(scene.correspondences)
        truth = scene.true_transforms[0]
        worst_rot = max(worst_rot, geodesic_distance(est.transform.rotation, truth.rotation))
        worst_trans = max(worst_trans, float(np.linalg.norm(
            est.transform.translation - truth.translation)))
    elapsed = time.perf_counter() - start
    assert worst_rot <= 1e-9
    assert worst_trans <= 1e-9
    assert elapsed < 1.0
    print(f"PASS criterion 1: noiseless exact recovery over 100 scenes "
          f"(worst rot {worst_rot:.2e} rad, worst trans {worst_trans:.2e} m, "
          f"{elapsed:.2f}s)")


def test_criterion_2_consistency_bound():
    start = time.perf_counter()
    delta = 0.05
    _, summaries = run_consistency_bench([100, 1000, 10000], sigma=0.1, bound_b=1.0,
                                         delta=delta, trials=200, seed=20240_2)
    for s in summaries:
        assert s.violation_rate_rot <= 2 * delta, f"m={s.m}"
        assert s.violation_rate_trans <= 2 * delta, f"m={s.m}"
    # Rate check at the criterion's window [5, 20] around the theoretical 10:
    # the window matches the m^(-1/2) decay of the error norm (the squared
    # error decays like 1/m, i.e. strictly faster than the bound's rate).
    sq_ratio = summaries[0].median_rot_err_sq / summaries[2].median_rot_err_sq
    norm_ratio = math.sqrt(sq_ratio)
    assert 5.0 <= norm_ratio <= 20.0
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"PASS criterion 2: bound violation rates "
          f"{[s.violation_rate_rot for s in summaries]} rot / "
          f"{[s.violation_rate_trans for s in summaries]} trans (all <= {2*delta}); "
          f"median error norm ratio m=100/m=10000 is {norm_ratio:.1f} in [5, 20] "
          f"(squared-error ratio {sq_ratio:.0f}), {elapsed:.1f}s")


def test_criterion_3_noise_ratio_interval():
    start = time.perf_counter()
    delta = 0.1
    summary = run_noise_ratio_bench([100_000], delta=delta, trials=100, seed=20240_3)[0]
    center = 1.0 / math.sqrt(3.0)
    within = sum(abs(r - center) <= 0.01 for r in summary.ratios)
    elapsed = time.perf_counter() - start
    assert within >= 99
    assert summary.violation_rate <= delta
    assert elapsed < 10.0
    print(f"PASS criterion 3: noise-std ratio within 0.01 of 1/sqrt(3) in "
          f"{within}/100 trials; interval violation rate {summary.violation_rate} "
          f"<= {delta}, {elapsed:.1f}s")


def test_criterion_4_em_ground_truth_recovery():
    start = time.perf_counter()
    worst_rot = 0.0
    worst_iters = 0
    for seed in range(20):
        spec = SceneSpec(num_objects=3, points_per_object=(2000, 2000, 2000),
                         sigma=0.005 * TAU, tau=TAU, bound_b=4.0, seed=seed)
        scene = generate_scene(spec)
        split = make_good_split(scene, alpha=2.0, fragments_per_object=3,
                                seed=seed + 1000)
        report = check_initial_clustering(split, scene.correspondences.a,
                                          scene.true_labels, TAU, alpha=2.0,
                                          min_size=200)
        assert report.passed, f"seed {seed}: initialization not (tau, 2, 200)-good"
        result = run_em(scene.correspondences, split,
                        EMConfig(tau=TAU, m_min=10, max_iters=20))
        assert result.converged, f"seed {seed}: no convergence within 20 iterations"
        worst_iters = max(worst_iters, result.iterations_run)
        assert mask_iou(result.clustering, scene.true_labels) == 1.0, f"seed {seed}"
        for j in range(1, result.clustering.num_clusters + 1):
            members = result.clustering.members(j)
            g = int(np.bincount(scene.true_labels[members]).argmax())
            rot_err = geodesic_distance(result.models[j - 1].transform.rotation,
                                        scene.true_transforms[g - 1].rotation)
            worst_rot = max(worst_rot, rot_err)
    elapsed = time.perf_counter() - start
    assert worst_rot <= 5e-3
    assert elapsed < 30.0
    print(f"PASS criterion 4: EM recovered all objects on 20 seeds "
          f"(mask IoU 1.0, worst rotation error {worst_rot:.2e} rad, "
          f"<= {worst_iters} iterations, {elapsed:.1f}s)")


def test_criterion_5_em_beats_sequential_ransac():
    sigma = 0.05 * TAU
    em_ious, sr_ious = [], []
    for seed in range(10):
        spec = SceneSpec(num_objects=3, points_per_object=(200, 200, 200),
                         sigma=sigma, tau=TAU, bound_b=4.0, num_outliers=67,
                         seed=seed)
        scene = generate_scene(spec)
        init = euclidean_cluster(scene.correspondences, TAU)
        em = run_em(scene.correspondences, init, EMConfig(tau=TAU, m_min=10))
        em_ious.append(mask_iou(em.clustering, scene.true_labels))
        ransac_cfg = RansacConfig(inlier_threshold=math.sqrt(3.0) * sigma,
                                  max_trials=100, min_model_inliers=10, seed=seed)
        sr = sequential_ransac(scene.correspondences, ransac_cfg)
        sr_ious.append(mask_iou(sr, scene.true_labels))
    em_mean, sr_mean = float(np.mean(em_ious)), float(np.mean(sr_ious))
    assert em_mean >= sr_mean
    print(f"PASS criterion 5: mean mask IoU over 10 paired noisy scenes "
          f"(10% outliers): EM {em_mean:.3f} >= sequential RANSAC {sr_mean:.3f}")


def test_criterion_6a_so3_validity_everywhere(rng):
    checked = 0
    for seed in range(200):
        assert is_rotation(random_rotation(seed), tol=1e-9)
        checked += 1
    for seed in range(50):
        a = rng.uniform(-1, 1, (30, 3))
        b = a @ random_rotation(seed).T + rng.uniform(-0.01, 0.01, (30, 3))
        est = horn_register(CorrespondenceSet(a, b))
        assert is_rotation(est.transform.rotation, tol=1e-9)
        checked += 1
    spec = SceneSpec(num_objects=2, points_per_object=(80, 60), sigma=0.01,
                     tau=TAU, bound_b=4.0, seed=606)
    scene = generate_scene(spec)
    result = run_em(scene.correspondences,
                    make_good_split(scene, 2.0, 2, seed=1),
                    EMConfig(tau=TAU, m_min=10))
    for model in result.models:
        assert is_rotation(model.transform.rotation, tol=1e-9)
        checked += 1
    ransac_cfg = RansacConfig(inlier_threshold=0.05, max_trials=50,
                              min_model_inliers=10, seed=2)
    clustering = sequential_ransac(scene.correspondences, ransac_cfg)
    for j in range(1, clustering.num_clusters + 1):
        est = horn_register(scene.correspondences.subset(clustering.members(j)))
        assert is_rotation(est.transform.rotation, tol=1e-9)
        checked += 1
    print(f"PASS criterion 6a: SO(3) validity held for {checked} emitted rotations")


def test_criterion_6b_e_step_rows_normalize(rng):
    # one dense blob split in two: every point is within tau of both clusters
    a = rng.uniform(0, 0.25, (60, 3))
    b = a + np.array([0.5, 0.0, 0.0])
    cs = CorrespondenceSet(a, b)
    from multireg.clustering import Clustering
    clustering = Clustering(np.repeat([1, 2], 30))
    cfg = EMConfig(tau=TAU, m_min=10)
    weights = e_step(cs, clustering, fit_models(cs, clustering, cfg), cfg)
    sums = weights.sum(axis=1)
    assert np.all(np.abs(sums - 1.0) <= 1e-9)
    print(f"PASS criterion 6b: E-step rows sum to 1 within 1e-9 "
          f"(max deviation {np.max(np.abs(sums - 1.0)):.2e})")


def test_criterion_6b_assign_gives_the_m_step_labels(rng):
    # criterion 6b's input, through the classification step run_em takes
    a = rng.uniform(0, 0.25, (60, 3))
    cs = CorrespondenceSet(a, a + np.array([0.5, 0.0, 0.0]))
    clustering = Clustering(np.repeat([1, 2], 30))
    cfg = EMConfig(tau=TAU, m_min=10)
    models = fit_models(cs, clustering, cfg)
    expected = m_step(e_step(cs, clustering, models, cfg), clustering, cfg)
    labels = assign(cs, clustering, models, _CliqueGrid(a, TAU)).labels
    np.testing.assert_array_equal(labels, expected.labels)


def test_criterion_6c_connectivity_matches_bruteforce(rng):
    agreements = 0
    for _ in range(100):
        n = int(rng.integers(2, 201))
        pts = rng.uniform(-1, 1, (n, 3))
        tau = float(rng.uniform(0.05, 0.9))
        assert is_connected(pts, tau) == brute_force_connected(pts, tau)
        agreements += 1
    print(f"PASS criterion 6c: grid connectivity equals brute-force BFS on "
          f"{agreements}/100 random instances")


def test_criterion_6d_horn_equivariance(rng):
    a = rng.uniform(-1, 1, (50, 3))
    b = a @ random_rotation(64).T + np.array([0.2, -0.4, 0.8]) + rng.uniform(-0.02, 0.02, (50, 3))
    base = horn_register(CorrespondenceSet(a, b))
    worst = 0.0
    for seed in range(100):
        q = random_rotation(seed)
        s = rng.uniform(-1, 1, 3)
        est = horn_register(CorrespondenceSet(a, b @ q.T + s))
        rot_dev = float(np.linalg.norm(est.transform.rotation - q @ base.transform.rotation))
        trans_dev = float(np.linalg.norm(
            est.transform.translation - (q @ base.transform.translation + s)))
        worst = max(worst, rot_dev, trans_dev)
    assert worst <= 1e-9
    print(f"PASS criterion 6d: Horn equivariance under 100 rigid perturbations "
          f"(worst deviation {worst:.2e})")


def test_criterion_6e_tanimoto_axioms(rng):
    for _ in range(1000):
        u = rng.uniform(0.0, 1.0, 12)
        v = rng.uniform(0.0, 1.0, 12)
        d = tanimoto_distance(u, v)
        assert 0.0 <= d <= 1.0
        assert abs(d - tanimoto_distance(v, u)) <= 1e-15
        assert tanimoto_distance(u, u) <= 1e-15
    print("PASS criterion 6e: Tanimoto range/symmetry/identity on 1000 random pairs")


def test_criterion_6e_tanimoto_axioms_on_the_gram_form(rng):
    # criterion 6e's pairs, through the matrix _tanimoto_merge builds: the
    # Gram matrix, with sq its own diagonal
    for _ in range(1000):
        prefs = np.stack([rng.uniform(0.0, 1.0, 12), rng.uniform(0.0, 1.0, 12)])
        gram = prefs @ prefs.T
        sq = gram.diagonal().copy()
        d = _gram_to_tanimoto(gram, sq[:, None], sq)
        assert np.all((0.0 <= d) & (d <= 1.0))
        assert abs(d[0, 1] - d[1, 0]) <= 1e-15
        assert np.all(d.diagonal() <= 1e-15)


def test_criterion_7_formula_evaluators():
    checks = []

    def close(value, expected):
        checks.append((value, expected))
        assert value == pytest.approx(expected, rel=1e-12)

    # minimum-cluster-size variant "b" spot value
    close(min_cluster_size_threshold(alpha=3.0, delta=0.05, bound_b=1.0,
                                     lambda_min=1.0 / 3.0, sigma=0.1, variant="b"),
          2.5e8 * 4.0 * math.log(18.0 / 0.05) * 9.0)
    # variant "a" at alpha = 8 e^8: the exponent factor is exactly 1/2
    close(min_cluster_size_threshold(alpha=8.0 * math.exp(8.0), delta=0.05,
                                     bound_b=1.0, lambda_min=1.0 / 3.0, sigma=0.1,
                                     variant="a"),
          2.5e4 * math.log(18.0 / 0.05) * 9.0 * 0.5)
    # dominance threshold at zero margin: 8 e^6
    close(dominance_ratio_threshold(0.0), 8.0 * math.exp(6.0))
    # inverse consistency
    for c in (0.0, 0.25, 1.0):
        close(dominance_margin(dominance_ratio_threshold(c)), c if c else 0.0)
    # rotation / translation bound spot values
    close(rotation_error_bound(10_000, 0.1, 1.0, 0.05, 1.0 / 3.0),
          18.0 * 0.1 * 3.0 * math.sqrt((2.0 / 10_000) * math.log(360.0)))
    close(translation_error_bound(1200, 1.0, 1.0, 0.05),
          36.0 * math.sqrt((2.0 / 1200) * math.log(360.0)) + 0.01 * math.log(120.0))
    # Hoeffding with n chosen so the bound is exactly 1
    close(hoeffding_bound(2.0 * math.log(2.0 / 0.1), 1.0, 0.1), 1.0)
    print(f"PASS criterion 7: {len(checks)} formula spot values reproduced "
          f"(relative error <= 1e-12)")


def test_criterion_8_determinism_and_roundtrip(tmp_path):
    spec = SceneSpec(num_objects=2, points_per_object=(60, 40), sigma=0.01,
                     tau=TAU, bound_b=4.0, num_outliers=5, seed=88)
    scene_a, scene_b = generate_scene(spec), generate_scene(spec)
    assert scene_to_text(scene_a) == scene_to_text(scene_b)

    scene_path = tmp_path / "scene.txt"
    write_scene(scene_a, scene_path)
    loaded = read_scene(scene_path)
    assert scene_to_text(loaded) == scene_path.read_text()
    np.testing.assert_array_equal(loaded.correspondences.a, scene_a.correspondences.a)
    np.testing.assert_array_equal(loaded.correspondences.b, scene_a.correspondences.b)

    from multireg.cli import main
    result_path = tmp_path / "result.txt"
    labels_path = tmp_path / "labels.txt"
    blobs = []
    for _ in range(2):
        code = main(["run", "--seed", "7", "--algorithm", "em",
                     "--out", str(result_path),
                     "--set", f"scene.file={scene_path}",
                     "--set", "init.kind=good-split",
                     "--set", f"out_labels={labels_path}"])
        assert code == 0
        blobs.append((result_path.read_bytes(), labels_path.read_bytes()))
    assert blobs[0] == blobs[1]

    record = read_result(result_path)
    rewritten = "".join(f"{k} = {v}\n" for k, v in record.items())
    assert rewritten.encode() == blobs[0][0]

    bench_path = tmp_path / "bench.csv"
    bench_blobs = []
    for _ in range(2):
        code = main(["bench", "--seed", "11", "--out", str(bench_path),
                     "--set", "bench.m_values=50,100", "--set", "bench.trials=5"])
        assert code == 0
        bench_blobs.append(bench_path.read_bytes())
    assert bench_blobs[0] == bench_blobs[1]
    print("PASS criterion 8: byte-identical repeated outputs and lossless "
          "scene/clustering/result round-trips")
