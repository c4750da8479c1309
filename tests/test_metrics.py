import numpy as np
import pytest

from conftest import iou_per_cluster_by_loop, rotation_about_axis
from multireg.clustering import Clustering
from multireg.geometry import RigidTransform
from multireg.metrics import evaluate, iou_per_cluster, mask_iou, point_error, pose_error
from multireg.scenes import SceneSpec, generate_scene


def _scene(seed=31, sigma=0.0, outliers=0):
    spec = SceneSpec(num_objects=2, points_per_object=(60, 40), sigma=sigma,
                     tau=0.3, bound_b=4.0, num_outliers=outliers, seed=seed)
    return generate_scene(spec)


def test_mask_iou_perfect_and_set_arithmetic():
    truth = np.array([0, 1, 1, 1, 2, 2])
    assert mask_iou(Clustering(truth), truth) == pytest.approx(1.0)
    # pred {1,2,3} vs truth {2,3,4} as single clusters: 2 common / 4 total
    pred = Clustering([0, 1, 1, 1, 0, 0])
    true = np.array([0, 0, 1, 1, 1, 0])
    assert mask_iou(pred, true) == pytest.approx(0.5)


def test_mask_iou_split_object_halves():
    truth = np.array([1] * 10)
    pred = Clustering([1] * 5 + [2] * 5)
    assert mask_iou(pred, truth) == pytest.approx(0.5)


def test_mask_iou_ties_and_empty():
    assert mask_iou(Clustering(np.zeros(4, dtype=int)), np.array([1, 1, 2, 2])) == 0.0
    # tie on intersection goes to the lower truth id
    pred = Clustering([1, 1])
    truth = np.array([1, 2])
    ids, ious = iou_per_cluster(pred, truth)
    assert ids == (1,)
    assert ious[0] == pytest.approx(1.0 / 2.0)  # matched object 1: 1 common / 2 union


@pytest.mark.parametrize("num_objects", [0, 1, 4])
def test_iou_per_cluster_matches_per_cluster_loop(rng, num_objects):
    # random labels with empty ids, ties and clusters of outliers only
    for _ in range(20):
        n = int(rng.integers(1, 60))
        pred = Clustering(rng.integers(0, 8, n), num_clusters=9)
        truth = rng.integers(0, num_objects + 1, n)
        ids, ious = iou_per_cluster(pred, truth)
        assert (ids, ious) == iou_per_cluster_by_loop(pred, truth)
        assert all(type(i) is int for i in ids) and all(type(v) is float for v in ious)


def test_iou_per_cluster_without_true_objects():
    # every true label is 0 (M = 0): each nonempty cluster scores 0.0
    pred = Clustering([2, 2, 0, 4, 2], num_clusters=4)
    assert iou_per_cluster(pred, np.zeros(5, dtype=int)) == ((2, 4), (0.0, 0.0))
    assert mask_iou(pred, np.zeros(5, dtype=int)) == 0.0


def test_mask_iou_outlier_only_cluster_scores_zero():
    pred = Clustering([1, 1, 2, 2])
    truth = np.array([1, 1, 0, 0])
    ids, ious = iou_per_cluster(pred, truth)
    assert ious == (1.0, 0.0)
    assert mask_iou(pred, truth) == pytest.approx(0.5)


def test_point_error_zero_on_perfect_prediction():
    scene = _scene()
    pred = Clustering(scene.true_labels)
    overall, per_object, per_point = point_error(
        scene.correspondences, pred, list(scene.true_transforms), scene)
    assert overall <= 1e-9
    assert per_point <= 1e-9
    assert len(per_object) == 2


def test_point_error_translation_offset():
    scene = _scene()
    delta = np.array([0.1, -0.2, 0.05])
    models = [
        RigidTransform(scene.true_transforms[0].rotation,
                       scene.true_transforms[0].translation + delta),
        scene.true_transforms[1],
    ]
    overall, per_object, _ = point_error(
        scene.correspondences, Clustering(scene.true_labels), models, scene)
    assert per_object[0] == pytest.approx(np.linalg.norm(delta), abs=1e-12)
    assert per_object[1] <= 1e-12
    assert overall == pytest.approx(np.linalg.norm(delta) / 2.0, abs=1e-12)


def test_point_error_identity_fallback_for_unassigned():
    scene = _scene()
    labels = scene.true_labels.copy()
    labels[:] = 0  # nothing predicted
    overall, per_object, _ = point_error(
        scene.correspondences, Clustering(labels), [], scene)
    # every point contributes its full true displacement
    a = scene.correspondences.a
    expected = []
    for g in range(1, 3):
        idx = scene.true_labels == g
        moved = scene.true_transforms[g - 1].apply(a[idx])
        expected.append(np.linalg.norm(moved - a[idx], axis=1).mean())
    np.testing.assert_allclose(per_object, expected, atol=1e-12)
    assert overall == pytest.approx(np.mean(expected), abs=1e-12)


def test_point_error_scrambled_labels_bruteforce_crosscheck():
    scene = _scene()
    swapped = scene.true_labels.copy()
    swapped[scene.true_labels == 1] = 2
    swapped[scene.true_labels == 2] = 1
    models = list(scene.true_transforms)
    overall, per_object, _ = point_error(
        scene.correspondences, Clustering(swapped), models, scene)
    a = scene.correspondences.a
    expected = []
    for g, wrong in ((1, 2), (2, 1)):
        idx = scene.true_labels == g
        truth_moved = scene.true_transforms[g - 1].apply(a[idx])
        wrong_moved = models[wrong - 1].apply(a[idx])
        expected.append(np.linalg.norm(wrong_moved - truth_moved, axis=1).mean())
    np.testing.assert_allclose(per_object, expected, atol=1e-12)
    assert overall == pytest.approx(np.mean(expected), abs=1e-12)


def test_pose_error_zero_for_exact_models():
    scene = _scene()
    rot, trans, ids, _, _ = pose_error(Clustering(scene.true_labels),
                                       list(scene.true_transforms), scene)
    assert rot <= 1e-12
    assert trans <= 1e-12
    assert ids == (1, 2)


def test_pose_error_weighted_average_by_construction():
    # one predicted cluster covering two objects 50/50; true rotations sit
    # 0.2 rad on each side of the predicted rotation along one geodesic
    axis = np.array([0.0, 0.0, 1.0])
    base = rotation_about_axis(axis, 0.7)
    r_minus = rotation_about_axis(axis, 0.5)
    r_plus = rotation_about_axis(axis, 0.9)
    t = np.zeros(3)
    a = np.vstack([np.random.default_rng(1).uniform(0, 0.3, (10, 3)),
                   np.random.default_rng(2).uniform(5, 5.3, (10, 3))])
    b = np.vstack([a[:10] @ r_minus.T, a[10:] @ r_plus.T])
    from multireg.geometry import CorrespondenceSet
    scene_like = type("S", (), {})()
    spec = SceneSpec(num_objects=2, points_per_object=(10, 10), sigma=0.0,
                     tau=1.0, bound_b=10.0, seed=0)
    from multireg.scenes import LabeledScene
    scene = LabeledScene(CorrespondenceSet(a, b), np.array([1] * 10 + [2] * 10),
                         (RigidTransform(r_minus, t), RigidTransform(r_plus, t)), spec)
    pred = Clustering(np.ones(20, dtype=int))
    rot, trans, ids, per_rot, _ = pose_error(pred, [RigidTransform(base, t)], scene)
    assert ids == (1,)
    assert rot == pytest.approx(0.2, abs=1e-12)
    assert trans == pytest.approx(0.0, abs=1e-12)


def test_pose_error_excludes_outlier_only_clusters(rng):
    scene = _scene(outliers=12, seed=37)
    labels = scene.true_labels.copy()
    outliers = scene.outlier_indices()
    labels[outliers] = 3  # a predicted cluster made purely of outliers
    models = list(scene.true_transforms) + [RigidTransform.identity()]
    rot, trans, ids, _, _ = pose_error(Clustering(labels), models, scene)
    assert ids == (1, 2)
    assert rot <= 1e-12 and trans <= 1e-12


def test_pose_error_relabel_invariance():
    scene = _scene()
    labels = scene.true_labels.copy()
    permuted = labels.copy()
    permuted[labels == 1] = 2
    permuted[labels == 2] = 1
    models = list(scene.true_transforms)
    rot_a, trans_a, _, _, _ = pose_error(Clustering(labels), models, scene)
    rot_b, trans_b, _, _, _ = pose_error(
        Clustering(permuted), [models[1], models[0]], scene)
    assert rot_a == pytest.approx(rot_b, abs=1e-12)
    assert trans_a == pytest.approx(trans_b, abs=1e-12)


def test_evaluate_report_breakdowns_reproduce_scalars():
    scene = _scene(sigma=0.01, seed=41)
    pred = Clustering(scene.true_labels)
    report = evaluate(scene.correspondences, pred, list(scene.true_transforms), scene)
    assert report.mask_iou == pytest.approx(np.mean(report.per_cluster_iou), abs=1e-12)
    assert report.point_error == pytest.approx(np.mean(report.per_object_point_error), abs=1e-12)
    assert report.rotation_error == pytest.approx(
        np.mean(report.per_cluster_rotation_error), abs=1e-12)
    assert report.translation_error == pytest.approx(
        np.mean(report.per_cluster_translation_error), abs=1e-12)
    assert report.mask_iou == pytest.approx(1.0)
