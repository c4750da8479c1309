import numpy as np
import pytest

from conftest import distance_to_cluster
from multireg.clustering import Clustering
from multireg.em import (ClusterModel, EMConfig, NoViableClustersError, e_step,
                         fit_models, m_step, prune_small, run_em)
from multireg.geometry import CorrespondenceSet, RigidTransform, geodesic_distance
from multireg.metrics import mask_iou
from multireg.scenes import SceneSpec, generate_scene, make_good_split


def _scene(num_objects=2, points=(120, 80), sigma=0.0, outliers=0, seed=3, tau=0.3):
    spec = SceneSpec(num_objects=num_objects, points_per_object=points, sigma=sigma,
                     tau=tau, bound_b=4.0, num_outliers=outliers, seed=seed)
    return generate_scene(spec)


def test_fit_models_whole_scene_matches_truth():
    scene = _scene(num_objects=1, points=(100,))
    clustering = Clustering(np.ones(100, dtype=int))
    models = fit_models(scene.correspondences, clustering, EMConfig(tau=0.3))
    assert len(models) == 1
    truth = scene.true_transforms[0]
    assert geodesic_distance(models[0].transform.rotation, truth.rotation) <= 1e-9
    assert np.linalg.norm(models[0].transform.translation - truth.translation) <= 1e-9
    assert models[0].weight == 1.0


def test_fit_models_weights_are_size_fractions():
    scene = _scene(num_objects=2, points=(300, 100))
    clustering = Clustering(scene.true_labels)
    models = fit_models(scene.correspondences, clustering, EMConfig(tau=0.3))
    assert models[0].weight == pytest.approx(0.75)
    assert models[1].weight == pytest.approx(0.25)
    assert sum(m.weight for m in models) == pytest.approx(1.0, abs=1e-9)


def test_fit_models_sigma_tracks_uniform_noise():
    sigma = 0.05
    scene = _scene(num_objects=2, points=(200, 200), sigma=sigma, seed=11)
    split = make_good_split(scene, alpha=2.0, fragments_per_object=2, seed=4)
    models = fit_models(scene.correspondences, split, EMConfig(tau=0.3))
    expected = sigma / np.sqrt(3.0)
    for model in models:
        assert abs(model.sigma_hat - expected) <= 0.15 * expected


def test_fit_models_rejects_tiny_cluster():
    scene = _scene(num_objects=1, points=(20,))
    labels = np.ones(20, dtype=int)
    labels[:2] = 2
    with pytest.raises(RuntimeError, match="pruning"):
        fit_models(scene.correspondences, Clustering(labels), EMConfig(tau=0.3))


def _two_cluster_setup(tau=1.0):
    # two tight pads of a-points, everything within tau of both pads
    pad1 = np.array([(0.0, 0.0, 0.0), (0.02, 0.0, 0.0), (0.0, 0.02, 0.0),
                     (0.02, 0.02, 0.0), (0.01, 0.01, 0.0)])
    pad2 = pad1 + np.array([0.5, 0.0, 0.0])
    a = np.vstack([pad1, pad2])
    b = a.copy()
    labels = np.array([1] * 5 + [2] * 5)
    return CorrespondenceSet(a, b), Clustering(labels), EMConfig(tau=tau, m_min=3)


def test_e_step_identical_models_reduce_to_weights():
    cs, clustering, cfg = _two_cluster_setup()
    identity = RigidTransform.identity()
    models = [ClusterModel(identity, 0.1, 2.0 / 3.0), ClusterModel(identity, 0.1, 1.0 / 3.0)]
    weights = e_step(cs, clustering, models, cfg)
    np.testing.assert_allclose(weights[:, 0], 2.0 / 3.0, atol=1e-12)
    np.testing.assert_allclose(weights[:, 1], 1.0 / 3.0, atol=1e-12)


def test_e_step_gate_zeroes_far_points():
    cs, clustering, cfg = _two_cluster_setup()
    far = np.array([[100.0, 0.0, 0.0]])
    cs_far = CorrespondenceSet(np.vstack([cs.a, far]), np.vstack([cs.b, far]))
    clustering_far = Clustering(np.append(clustering.labels, 0),
                                num_clusters=clustering.num_clusters)
    identity = RigidTransform.identity()
    models = [ClusterModel(identity, 0.1, 0.5), ClusterModel(identity, 0.1, 0.5)]
    weights = e_step(cs_far, clustering_far, models, cfg)
    np.testing.assert_array_equal(weights[-1], [0.0, 0.0])
    # gated rows aside, the padded rows sum to one
    sums = weights[:-1].sum(axis=1)
    np.testing.assert_allclose(sums, 1.0, atol=1e-9)


def test_e_step_gate_matches_distance_oracle(rng):
    # one shared motion, so no weight underflows and the zero pattern of the
    # E-step is exactly the gate: strictly within tau of a cluster member
    tau = 0.25
    a = rng.uniform(-1, 1, (200, 3))
    motion = RigidTransform(np.eye(3), np.array([0.3, -0.1, 0.2]))
    cs = CorrespondenceSet(a, motion.apply(a))
    clustering = Clustering(rng.integers(0, 4, 200), num_clusters=3)
    models = [ClusterModel(motion, 0.1, w) for w in (0.5, 0.3, 0.2)]
    weights = e_step(cs, clustering, models, EMConfig(tau=tau))
    oracle = np.array([[distance_to_cluster(a[clustering.members(j)], p) < tau
                        for j in range(1, 4)] for p in a])
    np.testing.assert_array_equal(weights > 0, oracle)
    assert oracle.any() and not oracle.all()


def test_e_step_density_ratio_three_sigma():
    sigma = 0.1
    cs, clustering, cfg = _two_cluster_setup()
    # extra point sitting exactly on model 1; model 2 off by 3 sigma
    probe_a = np.array([[0.25, 0.0, 0.0]])
    cs_probe = CorrespondenceSet(np.vstack([cs.a, probe_a]), np.vstack([cs.b, probe_a]))
    labels = np.append(clustering.labels, 1)
    model1 = ClusterModel(RigidTransform.identity(), sigma, 0.5)
    model2 = ClusterModel(RigidTransform(np.eye(3), np.array([3 * sigma, 0, 0])), sigma, 0.5)
    weights = e_step(cs_probe, Clustering(labels), [model1, model2], cfg)
    ratio = weights[-1, 0] / weights[-1, 1]
    assert ratio == pytest.approx(np.exp(4.5), abs=0.5)


def test_e_step_row_sums_property():
    cs, clustering, cfg = _two_cluster_setup()
    identity = RigidTransform.identity()
    models = [ClusterModel(identity, 0.05, 0.6), ClusterModel(identity, 0.2, 0.4)]
    weights = e_step(cs, clustering, models, cfg)
    sums = weights.sum(axis=1)
    assert np.all((sums == 0.0) | ((sums > 0.0) & (sums <= 1.0 + 1e-9)))
    np.testing.assert_allclose(sums, 1.0, atol=1e-9)  # all indicators pass here


def test_m_step_rules():
    cfg = EMConfig(tau=1.0)
    previous = Clustering(np.array([2, 2, 3]), num_clusters=3)
    weights = np.array([
        [0.9, 0.1, 0.0],
        [0.5, 0.5, 0.0],
        [0.0, 0.0, 0.0],
    ])
    updated = m_step(weights, previous, cfg)
    np.testing.assert_array_equal(updated.labels, [1, 1, 3])


def test_prune_small_dissolves_and_compacts():
    cfg = EMConfig(tau=1.0, m_min=10)
    labels = np.array([1] * 12 + [2] * 2 + [3] * 15)
    pruned = prune_small(Clustering(labels), cfg)
    assert pruned.num_clusters == 2
    np.testing.assert_array_equal(pruned.labels, [1] * 12 + [0] * 2 + [2] * 15)
    intact = Clustering(np.array([1] * 12 + [2] * 10))
    assert prune_small(intact, cfg) is intact


def test_pruned_points_rejoin_through_gate():
    tau = 0.4
    pts = np.array([(i * tau / 2, 0.0, 0.0) for i in range(17)])
    cs = CorrespondenceSet(pts, pts)
    labels = np.array([1] * 15 + [2] * 2)
    result = run_em(cs, Clustering(labels), EMConfig(tau=tau, m_min=10))
    assert result.converged
    assert result.clustering.num_clusters == 1
    np.testing.assert_array_equal(result.clustering.labels, 1)
    # the stranded pair is dissolved first, then absorbed one gate-hop at a time
    assert result.iterations_run >= 2


def test_run_em_ground_truth_is_fixed_point():
    scene = _scene(num_objects=2, points=(60, 40))
    initial = Clustering(scene.true_labels)
    result = run_em(scene.correspondences, initial, EMConfig(tau=scene.spec.tau, m_min=5))
    assert result.converged
    assert result.iterations_run == 1
    assert result.assignment_changes == (0,)
    np.testing.assert_array_equal(result.clustering.labels, scene.true_labels)
    for j, truth in enumerate(scene.true_transforms):
        model = result.models[j]
        assert geodesic_distance(model.transform.rotation, truth.rotation) <= 1e-9


def test_run_em_recovers_objects_from_good_split():
    scene = _scene(num_objects=3, points=(150, 120, 100), sigma=0.005 * 0.3, seed=21)
    initial = make_good_split(scene, alpha=2.0, fragments_per_object=3, seed=8)
    result = run_em(scene.correspondences, initial,
                    EMConfig(tau=scene.spec.tau, m_min=10, max_iters=20))
    assert result.converged
    assert result.clustering.num_clusters == 3
    assert mask_iou(result.clustering, scene.true_labels) == pytest.approx(1.0)


def test_run_em_absorption_is_monotone():
    scene = _scene(num_objects=1, points=(100,), sigma=0.001, seed=9)
    initial = make_good_split(scene, alpha=2.0, fragments_per_object=2, seed=1)
    sizes = np.bincount(initial.labels)
    assert sizes[1] == 80 and sizes[2] == 20  # 4:1 split
    result = run_em(scene.correspondences, initial, EMConfig(tau=scene.spec.tau, m_min=10))
    dominant = [stats.cluster_sizes[0] for stats in result.trace]
    assert all(b >= a for a, b in zip(dominant, dominant[1:]))
    assert dominant[-1] == 100


def test_run_em_iterations_keep_clusters_pure():
    scene = _scene(num_objects=3, points=(90, 80, 70), sigma=0.002, seed=13)
    clustering = make_good_split(scene, alpha=2.0, fragments_per_object=2, seed=2)
    cfg = EMConfig(tau=scene.spec.tau, m_min=10)
    for _ in range(10):
        pruned = prune_small(clustering, cfg)
        models = fit_models(scene.correspondences, pruned, cfg)
        weights = e_step(scene.correspondences, pruned, models, cfg)
        updated = m_step(weights, pruned, cfg)
        for j in range(1, updated.num_clusters + 1):
            truth_in_cluster = set(scene.true_labels[updated.members(j)].tolist())
            assert len(truth_in_cluster) <= 1
        if np.array_equal(updated.labels, pruned.labels):
            break
        clustering = updated


def test_run_em_deterministic():
    scene = _scene(num_objects=2, points=(80, 60), sigma=0.01, seed=17)
    initial = make_good_split(scene, alpha=2.0, fragments_per_object=2, seed=3)
    r1 = run_em(scene.correspondences, initial, EMConfig(tau=scene.spec.tau, m_min=10))
    r2 = run_em(scene.correspondences, initial, EMConfig(tau=scene.spec.tau, m_min=10))
    np.testing.assert_array_equal(r1.clustering.labels, r2.clustering.labels)
    assert r1.assignment_changes == r2.assignment_changes
    assert r1.iterations_run == r2.iterations_run


def test_run_em_no_viable_clusters():
    scene = _scene(num_objects=1, points=(12,))
    labels = np.arange(1, 13)  # twelve singleton clusters
    with pytest.raises(NoViableClustersError, match="no viable clusters"):
        run_em(scene.correspondences, Clustering(labels), EMConfig(tau=scene.spec.tau, m_min=10))


def test_run_em_cap_exit_drops_emptied_clusters():
    # the 4:1 fragments collapse into one cluster during iteration 1; with
    # max_iters=1 the emptied sibling must be dropped and weights renormalized
    scene = _scene(num_objects=1, points=(100,), sigma=0.001, seed=9)
    initial = make_good_split(scene, alpha=2.0, fragments_per_object=2, seed=1)
    result = run_em(scene.correspondences, initial,
                    EMConfig(tau=scene.spec.tau, m_min=10, max_iters=1))
    assert not result.converged
    assert result.iterations_run == 1
    sizes = result.clustering.sizes()
    assert np.all(sizes[1:] > 0)
    assert sum(m.weight for m in result.models) == pytest.approx(1.0, abs=1e-9)
    assert len(result.models) == result.clustering.num_clusters


def test_em_config_validation():
    with pytest.raises(ValueError):
        EMConfig(tau=0.0)
    with pytest.raises(ValueError):
        EMConfig(tau=1.0, m_min=2)
