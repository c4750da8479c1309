import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest

import multireg.clustering
import multireg.em
import multireg.horn
from conftest import dense_log_scores, dense_occupancy, distance_to_cluster, kd_tree_gate
from multireg.clustering import Clustering, _CliqueGrid, _confirm, _LabelRuns, euclidean_cluster
from multireg.em import (ClusterModel, EMConfig, NoViableClustersError, _hood_scores,
                         _log_scores, assign, e_step, fit_clusters, fit_models, m_step,
                         prune_small, run_em)
from multireg.geometry import CorrespondenceSet, RigidTransform, geodesic_distance, random_rotation
from multireg.horn import horn_register
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


def test_fit_clusters_fits_each_id_as_horn_register_does_and_reads_no_diagnostics(monkeypatch):
    scene = _scene(num_objects=2, points=(120, 80), sigma=0.02, seed=7)
    cs = scene.correspondences
    clustering = make_good_split(scene, alpha=2.0, fragments_per_object=2, seed=4)
    reads = []
    monkeypatch.setattr(multireg.horn, "estimate_noise_std",
                        lambda *args: reads.append(args) or 0.5)
    estimates = fit_clusters(cs, clustering, sigma_floor=0.25)
    assert len(estimates) == clustering.num_clusters == 4
    assert reads == []
    for j, est in enumerate(estimates, start=1):
        want = horn_register(cs.subset(clustering.members(j)))
        assert est.transform.rotation.tobytes() == want.transform.rotation.tobytes()
        assert est.transform.translation.tobytes() == want.transform.translation.tobytes()
        assert est.sigma_floor == 0.25
    assert estimates[0].sigma_hat == 0.5 and len(reads) == 1


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
    np.testing.assert_array_equal(_grid_gate(a, clustering.labels, 3, tau), oracle)
    assert oracle.any() and not oracle.all()


def _gate(points, labels, k, tau):
    """The zero pattern of e_step under one shared motion: nothing underflows,
    so it is exactly the proximity gate."""
    a = np.asarray(points, dtype=np.float64)
    models = [ClusterModel(RigidTransform.identity(), 0.1, 1.0 / k)] * k
    weights = e_step(CorrespondenceSet(a, a), Clustering(labels, num_clusters=k), models,
                     EMConfig(tau=tau))
    return weights > 0


def _grid_gate(points, labels, k, tau):
    """The gate as ``assign``'s cell grid decides it for every pair: the
    per-cluster hood rows and own-cell masks of ``_hood_scores`` settle the
    own-cell and out-of-hood pairs, the exact test the other hood pairs."""
    a = np.asarray(points, dtype=np.float64)
    grid = _CliqueGrid(a, tau)
    labels = Clustering(labels, num_clusters=k).labels
    runs = _LabelRuns(grid, labels)
    models = [ClusterModel(RigidTransform.identity(), 0.1, 1.0 / k)] * k
    gated = np.zeros((len(a), k), dtype=bool)
    hood = np.zeros((len(a), k), dtype=bool)
    for j, (rows, own, _) in enumerate(_hood_scores(CorrespondenceSet(a, a), models, grid, runs)):
        hood[rows, j], gated[rows, j] = True, own
    rows, cols = np.nonzero(hood & ~gated)
    gated[rows, cols] = _confirm(grid, runs, rows, cols)
    return gated


def _gate_oracle(points, labels, k, tau):
    a = np.asarray(points, dtype=np.float64)
    labels = np.asarray(labels)
    return np.array([[distance_to_cluster(a[labels == j], p) < tau for j in range(1, k + 1)]
                     for p in a])


TAU = 0.3
GATE_CASES = {
    # one-member cluster; probes exactly tau away (out) and a hair inside (in)
    "tau_boundary": ([(0, 0, 0), (TAU, 0, 0), (0, -TAU, 0),
                      (TAU * (1 - 1e-12), 0, 0), (0, 0, -TAU * (1 - 1e-12))],
                     [1, 0, 0, 0, 0], [[1], [0], [0], [1], [1]]),
    # three clusters and a free point on one spot; clusters 1 and 2 also share
    # the cell of (0.06, 0.07, 0.08)
    "coincident_and_shared_cell": ([(0.05,) * 3] * 4 + [(0.06, 0.07, 0.08), (0.1,) * 3,
                                                        (0.7,) * 3, (0.7,) * 3],
                                   [1, 2, 3, 0, 1, 2, 3, 0],
                                   [[1, 1, 1]] * 6 + [[0, 0, 1]] * 2),
    # probes two cells from the member on every axis (in, then out), three
    # cells away on one axis (out), and two cells below (in)
    "two_cells_every_axis": ([(0.14,) * 3, (0.31,) * 3, (0.32,) * 3, (0.46, 0.14, 0.14),
                              (0.0,) * 3, (-0.16,) * 3],
                             [1, 0, 0, 0, 2, 0],
                             [[1, 1], [1, 0], [0, 0], [0, 0], [1, 1], [0, 1]]),
    # a cluster at 1e9: the cell gaps along x shrink before coding
    "far_outlier": ([(0, 0, 0), (0.1, 0, 0), (1e9, 0, 0), (1e9 + 0.1, 0, 0),
                     (1e9 + 0.35, 0, 0), (0.2, 0, 0)],
                    [1, 1, 2, 0, 0, 0], [[1, 0], [1, 0], [0, 1], [0, 1], [0, 0], [1, 0]]),
    # ids 2 and 3 have no members: no point is gated into them
    "empty_cluster_ids": ([(0, 0, 0), (0.1, 0, 0), (0.2, 0, 0), (5, 5, 5)], [1, 1, 0, 0],
                          [[1, 0, 0]] * 3 + [[0, 0, 0]]),
}


@pytest.mark.parametrize("case", sorted(GATE_CASES))
def test_e_step_gate_edge_cases_match_distance_oracle(case):
    points, labels, expected = GATE_CASES[case]
    k = len(expected[0])
    oracle = _gate_oracle(points, labels, k, TAU)
    np.testing.assert_array_equal(oracle, np.array(expected, dtype=bool))
    np.testing.assert_array_equal(_gate(points, labels, k, TAU), oracle)
    np.testing.assert_array_equal(_grid_gate(points, labels, k, TAU), oracle)


@pytest.mark.parametrize("tau", [0.17, 0.45])
def test_e_step_gate_at_em_tau_other_than_scene_tau(rng, tau):
    scene = _scene(num_objects=2, points=(120, 80), seed=5)  # scene tau 0.3
    labels = make_good_split(scene, alpha=2.0, fragments_per_object=2, seed=4).labels.copy()
    labels[rng.choice(labels.size, 40, replace=False)] = 0
    a = scene.correspondences.a
    oracle = _gate_oracle(a, labels, 4, tau)
    np.testing.assert_array_equal(_gate(a, labels, 4, tau), oracle)
    np.testing.assert_array_equal(_grid_gate(a, labels, 4, tau), oracle)
    assert oracle.any() and not oracle.all()


def _fragmented_scene(seed):
    """The em_large shape, smaller: fragments interleave at their borders, so
    many (point, cluster) pairs are left to the exact gate."""
    scene = generate_scene(SceneSpec(num_objects=3, points_per_object=(600, 600, 600),
                                     sigma=0.015, tau=TAU, bound_b=4.0, num_outliers=60,
                                     seed=seed))
    split = make_good_split(scene, alpha=2.0, fragments_per_object=6, seed=seed)
    return scene.correspondences, prune_small(split, EMConfig(tau=TAU))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_grid_gate_matches_kd_tree_gate_on_fragmented_scenes(seed):
    cs, pruned = _fragmented_scene(seed)
    a, k = cs.a, pruned.num_clusters
    for tau in (TAU, 0.17):
        np.testing.assert_array_equal(_grid_gate(a, pruned.labels, k, tau),
                                      kd_tree_gate(a, pruned.labels, k, tau))


def test_grid_gate_packs_more_clusters_than_one_word_holds(rng):
    # 130 clusters at random: every cell's hood holds dozens of them
    a = rng.uniform(0.0, 2.0, (3000, 3))
    labels = rng.integers(0, 131, 3000)
    np.testing.assert_array_equal(_grid_gate(a, labels, 130, TAU),
                                  kd_tree_gate(a, labels, 130, TAU))


def _confirm_batch(points, labels, rows, cols, tau, closed=False):
    """``_confirm`` on one batch, its grid and runs built from scratch."""
    grid = _CliqueGrid(np.asarray(points, dtype=np.float64), tau)
    labels = np.asarray(labels, dtype=np.int64)
    return _confirm(grid, _LabelRuns(grid, labels), np.asarray(rows), np.asarray(cols), closed)


def _confirm_oracle(points, labels, rows, cols, tau):
    points, labels = np.asarray(points, dtype=np.float64), np.asarray(labels)
    return np.array([distance_to_cluster(points[labels == j + 1], points[i]) < tau
                     for i, j in zip(rows, cols)], dtype=bool)


@pytest.mark.parametrize("chunk", [1, 40, None])
def test_confirm_matches_kd_tree_gate_on_random_batches(rng, chunk, monkeypatch):
    # ids 1..6 at random over a 2-unit cube, id 7 with no member; every batch
    # asks about every id, some points more than once
    if chunk is not None:  # group and point-pair passes of a few rows each
        monkeypatch.setattr(multireg.clustering, "_HOOD_CHUNK", chunk)
    a = rng.uniform(0.0, 2.0, (1500, 3))
    labels = rng.integers(0, 7, 1500)
    exact = kd_tree_gate(a, labels, 7, TAU)
    for _ in range(3):
        rows, cols = rng.integers(0, 1500, 2000), rng.integers(0, 7, 2000)
        passes = _confirm_batch(a, labels, rows, cols, TAU)
        np.testing.assert_array_equal(passes, exact[rows, cols])
        assert passes.any() and not passes[cols < 6].all() and not passes[cols == 6].any()


def _probes_at_tau(tau):
    """A member at the origin (label 1), probed along each axis at tau and one
    float below and above it; then a member off the origin (label 2), probed
    along diagonals that land within a few ulps of tau after rounding. Returns
    the points, labels and the (row, col) queries of every probe against both."""
    below, above = np.nextafter(tau, 0.0), np.nextafter(tau, 1.0)
    probes = [v * np.array(e) for v in (below, tau, above)
              for e in ((1, 0, 0), (0, -1, 0), (0, 0, 1))]
    member = np.array([0.1, 0.2, 0.3])
    for direction in ((1, 1, 1), (1, -2, 0.5), (-3, 1, 2)):
        unit = np.array(direction) / np.linalg.norm(direction)
        for steps in (-2, -1, 0, 1, 2):
            offset = tau * unit
            offset[0] = offset[0] + steps * np.spacing(offset[0])
            probes.append(member + offset)
    a = np.array([(0.0, 0.0, 0.0), tuple(member)] + [tuple(p) for p in probes])
    labels = np.array([1, 2] + [0] * len(probes))
    return a, labels, np.arange(2, len(a)).repeat(2), np.tile([0, 1], len(probes))


def test_confirm_at_tau_and_one_ulp_either_side():
    a, labels, rows, cols = _probes_at_tau(TAU)
    expected = _confirm_oracle(a, labels, rows, cols, TAU)
    np.testing.assert_array_equal(expected[:18:2], [True] * 3 + [False] * 6)
    assert expected[19::2].any() and not expected[19::2].all()
    np.testing.assert_array_equal(_confirm_batch(a, labels, rows, cols, TAU), expected)


def test_closed_confirm_at_tau_and_one_ulp_either_side():
    # fragment growth's form, d . d <= tau^2 on probe - member, against the
    # growth oracle's brute-force neighbour test: the axis probes at tau pass
    a, labels, rows, cols = _probes_at_tau(TAU)
    expected = np.array([(np.einsum("ij,ij->i", d := a[labels == j + 1] - a[i], d)
                          <= TAU * TAU).any() for i, j in zip(rows, cols)])
    np.testing.assert_array_equal(expected[:18:2], [True] * 6 + [False] * 3)
    assert expected[19::2].any() and not expected[19::2].all()
    np.testing.assert_array_equal(_confirm_batch(a, labels, rows, cols, TAU, closed=True),
                                  expected)


def test_confirm_without_a_member_in_reach():
    # id 2 has no member; id 3's members all lie beyond the probes' hoods
    a = [(0.0, 0.0, 0.0), (0.1, 0.0, 0.0), (0.2, 0.0, 0.0), (5.0, 5.0, 5.0), (5.1, 5.0, 5.0)]
    labels = [1, 0, 0, 3, 3]
    rows, cols = [1, 1, 1, 2, 2, 2], [0, 1, 2, 0, 1, 2]
    passes = _confirm_batch(a, labels, rows, cols, TAU)
    np.testing.assert_array_equal(passes, [True, False, False, True, False, False])


def test_confirm_in_a_dense_cell_takes_several_point_pair_passes(rng):
    # more than one pass of members in one cell, one run: the corner member
    # (0.1, 0, 0), the last in index order, is the only one within tau of the
    # first probe; the second probe sees the box within tau but no member
    n = multireg.clustering._HOOD_CHUNK + 1000
    dense = rng.uniform(0.0, 0.05, (n, 3))
    a = np.vstack([dense, [(0.0, 0.1, 0.0), (0.1, 0.0, 0.0), (0.39, 0.0, 0.0),
                           (0.39, 0.1, 0.0)]])
    labels = np.r_[np.ones(n + 2, dtype=np.int64), 0, 0]
    grid = _CliqueGrid(a, TAU)
    assert len(np.unique(grid.cell_of[:n + 2])) == 1
    rows, cols = [n + 2, n + 3], [0, 0]
    expected = _confirm_oracle(a, labels, rows, cols, TAU)
    np.testing.assert_array_equal(expected, [True, False])
    np.testing.assert_array_equal(_confirm_batch(a, labels, rows, cols, TAU), expected)


@pytest.mark.parametrize("scale, tau", [(1e5, TAU), (1e12, TAU), (1e-152, 1e-151),
                                        (1e150, 1e151)])
def test_confirm_at_extreme_coordinates_and_tau(rng, scale, tau):
    # far from the origin the differences round in the last bits of tau; a
    # tau whose square leaves the normal range turns the box screen off, and
    # every member gets the exact test
    centre = np.full(3, 3.0 * scale)
    cloud = centre + rng.uniform(-1.5 * tau, 1.5 * tau, (300, 3))
    a = np.vstack([cloud, centre + [tau, 0, 0], centre + [0, np.nextafter(tau, 0), 0]])
    labels = np.r_[rng.integers(0, 3, 300), 1, 2]
    rows, cols = np.arange(len(a)).repeat(2), np.tile([0, 1], len(a))
    expected = _confirm_oracle(a, labels, rows, cols, tau)
    assert expected.any() and not expected.all()
    np.testing.assert_array_equal(_confirm_batch(a, labels, rows, cols, tau), expected)


@pytest.mark.parametrize("chunk", [1, 40, None])
@pytest.mark.parametrize("seed", [0, 1])
def test_hood_scores_match_the_dense_scores_bit_for_bit(seed, chunk, monkeypatch):
    # random points, labels and motions over 70 clusters: each cluster's rows
    # are the dense hood column's, in order, its own-cell mask the dense one
    # and its scores the dense entries, bit for bit. ``assign`` then reads
    # the same runs in its exact tests, in passes of ``chunk`` (query, cell)
    # and point pairs, and matches the full-gate argmax
    if chunk is not None:
        monkeypatch.setattr(multireg.clustering, "_HOOD_CHUNK", chunk)
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.0, 2.0, (2500, 3))
    cs = CorrespondenceSet(a, a + rng.normal(0.0, 0.5, a.shape))
    labels = rng.integers(0, 71, 2500)
    models = [ClusterModel(RigidTransform(random_rotation(rng), rng.uniform(-0.5, 0.5, 3)),
                           float(rng.uniform(0.05, 2.0)), float(rng.uniform(0.001, 0.1)))
              for _ in range(70)]
    grid = _CliqueGrid(a, TAU)
    dense_own, dense_hood = dense_occupancy(grid, labels, 70)
    dense = dense_log_scores(cs, models, dense_hood)
    assert dense_hood.any(axis=0).all() and not dense_hood.all(axis=0).any()
    pairs = 0
    runs = _LabelRuns(grid, labels)
    for j, (rows, own, scores) in enumerate(_hood_scores(cs, models, grid, runs)):
        np.testing.assert_array_equal(rows, np.flatnonzero(dense_hood[:, j]))
        np.testing.assert_array_equal(own, dense_own[rows, j])
        assert scores.tobytes() == dense[rows, j].tobytes()
        pairs += len(rows)
    assert j == 69 and pairs == np.count_nonzero(dense_hood)
    clustering = Clustering(labels, num_clusters=70)
    np.testing.assert_array_equal(assign(cs, clustering, models, grid).labels,
                                  _full_gate_assignment(cs, clustering, models, TAU))


def _full_gate_assignment(cs, clustering, models, tau):
    """The argmax over every gated log-score, every pair gated exactly by one
    k-d tree per cluster (no code shared with the cell grid); a row with no
    gated cluster, or only -inf gated scores, keeps its label. The oracle for
    ``assign``."""
    gated = kd_tree_gate(cs.a, clustering.labels, clustering.num_clusters, tau)
    scores = np.where(gated, _log_scores(cs, models), -np.inf)
    return np.where(scores.max(axis=1) > -np.inf, np.argmax(scores, axis=1) + 1,
                    clustering.labels)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("tau", [TAU, 0.17])
def test_assign_matches_full_gate_argmax_on_fragmented_scenes(seed, tau):
    cs, clustering = _fragmented_scene(seed)
    cfg = EMConfig(tau=tau)
    grid = _CliqueGrid(cs.a, tau)
    for _ in range(2):  # the split, then the first reassignment
        clustering = prune_small(clustering, cfg)
        models = fit_models(cs, clustering, cfg)
        updated = assign(cs, clustering, models, grid)
        expected = _full_gate_assignment(cs, clustering, models, tau)
        np.testing.assert_array_equal(updated.labels, expected)
        assert updated.num_clusters == clustering.num_clusters
        assert np.any(updated.labels != clustering.labels)
        clustering = updated


def test_assign_breaks_an_exact_tie_toward_the_lower_id():
    # identical models tie on every row. The probe shares a cell with cluster
    # 2 only; cluster 1 passes its gate through the exact test alone, and
    # still wins the tie.
    tau = 0.3
    a = np.array([(0.01, 0.01, 0.01), (0.02, 0.01, 0.01), (0.01, 0.02, 0.01),
                  (0.2, 0.01, 0.01), (0.21, 0.01, 0.01), (0.2, 0.02, 0.01),
                  (0.22, 0.02, 0.02)])
    cs = CorrespondenceSet(a, a + 0.05)
    clustering = Clustering([1, 1, 1, 2, 2, 2, 0], num_clusters=2)
    grid = _CliqueGrid(cs.a, tau)
    own, hood = dense_occupancy(grid, clustering.labels, 2)
    np.testing.assert_array_equal(own[-1], [False, True])
    assert hood.all()
    model = ClusterModel(RigidTransform.identity(), 0.1, 0.5)
    updated = assign(cs, clustering, [model, model], grid)
    np.testing.assert_array_equal(updated.labels, [1, 1, 1, 1, 1, 1, 1])
    np.testing.assert_array_equal(updated.labels,
                                  _full_gate_assignment(cs, clustering, [model, model], tau))


def _count_queries(monkeypatch):
    """Record (cluster size, rows queried) for each cluster of every batch
    that ``assign`` gives the exact gate, clusters in id order."""
    queries = []
    confirm = multireg.em._confirm

    def counting(grid, runs, rows, cols):
        run_sizes = np.diff(runs.starts)
        for j in np.unique(cols).tolist():
            size = int(run_sizes[runs.keys % runs.width == j + 1].sum())
            queries.append((size, int(np.count_nonzero(cols == j))))
        return confirm(grid, runs, rows, cols)

    monkeypatch.setattr(multireg.em, "_confirm", counting)
    return queries


def _best_first_queries(cs, clustering, models, grid, tau):
    """Exact tests a best-first walk makes: per row, the candidates (hood
    pairs outside the own cell scoring at least the best own-cell cluster) in
    descending score, ties to the lower id, up to the first that passes the
    brute-force gate."""
    k = clustering.num_clusters
    own, hood = dense_occupancy(grid, clustering.labels, k)
    scores = dense_log_scores(cs, models, hood)
    exact = kd_tree_gate(cs.a, clustering.labels, k, tau)
    walked = candidates = 0
    for i in range(len(cs)):
        best_own = max(scores[i, own[i]], default=-np.inf)
        row = [j for j in range(k) if hood[i, j] and not own[i, j] and scores[i, j] >= best_own]
        candidates += len(row)
        for j in sorted(row, key=lambda j: (-scores[i, j], j)):
            walked += 1
            if exact[i, j]:
                break
    return walked, candidates


def test_assign_queries_each_row_best_first_until_a_pass(monkeypatch):
    cs, clustering = _fragmented_scene(0)
    cfg = EMConfig(tau=TAU)
    grid = _CliqueGrid(cs.a, TAU)
    queries = _count_queries(monkeypatch)
    for _ in range(2):  # the split, then the first reassignment
        models = fit_models(cs, clustering, cfg)
        walked, candidates = _best_first_queries(cs, clustering, models, grid, TAU)
        queries.clear()
        updated = assign(cs, clustering, models, grid)
        assert sum(rows for _, rows in queries) == walked
        np.testing.assert_array_equal(updated.labels,
                                      _full_gate_assignment(cs, clustering, models, TAU))
        clustering = prune_small(updated, cfg)
    # the walk stops early on this scene: fewer queries than candidates
    assert 0 < walked < candidates


@pytest.mark.parametrize("lower_x, expected", [(0.35, 2), (0.2, 1)])
def test_assign_tests_equal_candidates_in_id_order(monkeypatch, lower_x, expected):
    # a label-0 probe alone in its cell scores the same for both clusters.
    # Cluster 1 (3 members) lies at lower_x on +x, beyond tau or within it;
    # cluster 2 (4 members) lies within tau on -x. The clusters are out of
    # each other's hoods, so the probe's are the only queries.
    tau = 0.3
    probe = [(0.0, 0.0, 0.0)]
    one = [(lower_x, 0.0, 0.0), (lower_x, 0.01, 0.0), (lower_x, 0.0, 0.01)]
    two = [(-0.2, 0.0, 0.0), (-0.2, 0.01, 0.0), (-0.2, 0.0, 0.01), (-0.21, 0.0, 0.0)]
    a = np.array(probe + one + two)
    cs = CorrespondenceSet(a, a + 0.05)
    clustering = Clustering([0, 1, 1, 1, 2, 2, 2, 2], num_clusters=2)
    grid = _CliqueGrid(cs.a, tau)
    own, hood = dense_occupancy(grid, clustering.labels, 2)
    np.testing.assert_array_equal(own[0], [False, False])
    np.testing.assert_array_equal(hood[0], [True, True])
    np.testing.assert_array_equal(hood[1:], own[1:])
    model = ClusterModel(RigidTransform.identity(), 0.1, 0.5)
    oracle = _full_gate_assignment(cs, clustering, [model, model], tau)
    queries = _count_queries(monkeypatch)
    updated = assign(cs, clustering, [model, model], grid)
    assert updated.labels[0] == expected
    np.testing.assert_array_equal(updated.labels, oracle)
    # cluster 1 first; cluster 2 only when cluster 1 fails
    assert queries == ([(3, 1), (4, 1)] if expected == 2 else [(3, 1)])


def test_assign_tests_a_candidate_that_scores_minus_inf(monkeypatch):
    # the probe's b-point is so far off that its squared residual overflows:
    # both clusters score -inf there. Cluster 1 (3 members) is out of the
    # probe's hood, cluster 2 (4 members) is its one candidate and gets the
    # query.
    tau = 0.3
    a = np.array([(0.0, 0.0, 0.0), (5.0, 0.0, 0.0), (5.0, 0.01, 0.0), (5.0, 0.0, 0.01),
                  (0.2, 0.0, 0.0), (0.2, 0.01, 0.0), (0.2, 0.0, 0.01), (0.21, 0.0, 0.0)])
    b = a.copy()
    b[0] = 1e200
    cs = CorrespondenceSet(a, b)
    clustering = Clustering([0, 1, 1, 1, 2, 2, 2, 2], num_clusters=2)
    grid = _CliqueGrid(cs.a, tau)
    own, hood = dense_occupancy(grid, clustering.labels, 2)
    np.testing.assert_array_equal(hood[0] & ~own[0], [False, True])
    model = ClusterModel(RigidTransform.identity(), 0.1, 0.5)
    with np.errstate(over="ignore"):
        assert np.all(_log_scores(cs, [model, model])[0] == -np.inf)
        queries = _count_queries(monkeypatch)
        updated = assign(cs, clustering, [model, model], grid)
    assert queries == [(4, 1)]
    # every gated score of the probe is -inf: it keeps its label
    np.testing.assert_array_equal(updated.labels, clustering.labels)


def _minus_inf_row_scene():
    """A label-0 probe (row 0) that shares its cell with clusters 1 and 2, so
    both gate it, but whose b-point is so far off that both score -inf there;
    each cluster's own motion keeps its members. Returns (cs, clustering,
    models, tau)."""
    pad = np.array([(0.01, 0.01, 0.01), (0.02, 0.01, 0.01), (0.01, 0.02, 0.01)])
    a = np.vstack([[(0.0, 0.0, 0.0)], pad, pad + 0.05])
    shift = np.array([0.0, 0.0, 0.5])
    b = np.vstack([[(1e200, 0.0, 0.0)], pad, pad + 0.05 + shift])
    models = [ClusterModel(RigidTransform.identity(), 0.1, 0.5),
              ClusterModel(RigidTransform(np.eye(3), shift), 0.1, 0.5)]
    return (CorrespondenceSet(a, b), Clustering([0, 1, 1, 1, 2, 2, 2], num_clusters=2),
            models, 0.3)


def test_assign_row_whose_gated_scores_are_all_minus_inf_keeps_its_label():
    # the probe keeps its label, where an argmax over the gated entries would
    # give it id 1
    cs, clustering, models, tau = _minus_inf_row_scene()
    grid = _CliqueGrid(cs.a, tau)
    own, _ = dense_occupancy(grid, clustering.labels, 2)
    assert own.all()
    with np.errstate(over="ignore"):
        assert np.all(_log_scores(cs, models)[0] == -np.inf)
        updated = assign(cs, clustering, models, grid)
        expected = _full_gate_assignment(cs, clustering, models, tau)
    np.testing.assert_array_equal(updated.labels, clustering.labels)
    np.testing.assert_array_equal(updated.labels, expected)


def test_e_step_gives_a_row_of_minus_inf_scores_zero_weights():
    # the same probe: its weights are zeros (the docstring's all-zero row),
    # not the NaN of (-inf) - (-inf), which the RuntimeWarning filter turns
    # into a failure; the other rows are normalised as before
    cs, clustering, models, tau = _minus_inf_row_scene()
    cfg = EMConfig(tau=tau, m_min=3)
    with np.errstate(over="ignore"):  # only the probe's squared residual overflows
        weights = e_step(cs, clustering, models, cfg)
    np.testing.assert_array_equal(weights[0], [0.0, 0.0])
    np.testing.assert_array_equal(np.argmax(weights[1:], axis=1) + 1, clustering.labels[1:])
    np.testing.assert_allclose(weights[1:].sum(axis=1), 1.0)
    np.testing.assert_array_equal(m_step(weights, clustering, cfg).labels, clustering.labels)


def test_assign_candidate_exactly_tau_away_fails():
    # two label-0 probes, each alone in its cell, with cluster 1 (one point at
    # the origin) as their only candidate: one exactly tau away, one a hair
    # inside
    tau = TAU
    a = np.array([(0.0, 0.0, 0.0), (tau, 0.0, 0.0), (0.0, -tau * (1 - 1e-12), 0.0)])
    cs = CorrespondenceSet(a, a)
    clustering = Clustering([1, 0, 0], num_clusters=1)
    grid = _CliqueGrid(cs.a, tau)
    own, hood = dense_occupancy(grid, clustering.labels, 1)
    np.testing.assert_array_equal(own[1:], [[False], [False]])
    np.testing.assert_array_equal(hood[1:], [[True], [True]])
    model = ClusterModel(RigidTransform.identity(), 0.1, 1.0)
    np.testing.assert_array_equal(assign(cs, clustering, [model], grid).labels, [1, 0, 1])


def test_assign_is_immune_to_the_underflow_of_normalised_weights():
    # A label-0 probe lies within tau of cluster 2 only, but its b-point
    # follows cluster 1's motion: normalised over both clusters, its cluster-2
    # weight underflows to 0, so e_step gives it the row [0, 0]. Its gated
    # log-score is finite, and cluster 2 is its one gated cluster.
    pad = np.array([(0.0, 0.0, 0.0), (0.05, 0.0, 0.0), (0.0, 0.05, 0.0),
                    (0.05, 0.05, 0.0), (0.0, 0.0, 0.05)])
    shift = np.array([1.0, 0.0, 0.0])
    probe = np.array([[1.1, 0.0, 0.0]])
    a = np.vstack([pad, pad + 2 * shift, probe])
    b = np.vstack([pad, pad + 3 * shift, probe])  # cluster 2 moves by +x
    cs = CorrespondenceSet(a, b)
    initial = Clustering([1] * 5 + [2] * 5 + [0], num_clusters=2)
    cfg = EMConfig(tau=1.0, m_min=3)
    models = fit_models(cs, initial, cfg)
    np.testing.assert_array_equal(e_step(cs, initial, models, cfg)[-1], [0.0, 0.0])
    grid = _CliqueGrid(cs.a, cfg.tau)
    assert assign(cs, initial, models, grid).labels[-1] == 2
    result = run_em(cs, initial, cfg)
    assert result.converged
    np.testing.assert_array_equal(result.clustering.labels, [1] * 5 + [2] * 6)


def test_e_step_memory_is_linear_in_points_times_clusters():
    # 20 000 points, 24 clusters mixed at random: nearly every pair is in the
    # boundary band. The plain gate queries every (point, cluster) pair, one
    # cluster at a time; this peaks at about 21 MB, where one n x k float64
    # array is 3.7 MB.
    rng = np.random.default_rng(5)
    n, k = 20_000, 24
    a = rng.uniform(0.0, 3.0, (n, 3))
    cs = CorrespondenceSet(a, a)
    clustering = Clustering(rng.integers(0, k + 1, n), num_clusters=k)
    models = [ClusterModel(RigidTransform.identity(), 0.1, 1.0 / k)] * k
    tracemalloc.start()
    try:
        e_step(cs, clustering, models, EMConfig(tau=TAU))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2 ** 20


def test_assign_memory_is_linear_in_points_times_clusters():
    # the input of the e_step memory test; this peaks at about 22 MB with the
    # best-first order (e_step at 21 MB), where one n x k float64 array is
    # 3.7 MB.
    rng = np.random.default_rng(5)
    n, k = 20_000, 24
    a = rng.uniform(0.0, 3.0, (n, 3))
    cs = CorrespondenceSet(a, a)
    clustering = Clustering(rng.integers(0, k + 1, n), num_clusters=k)
    models = [ClusterModel(RigidTransform.identity(), 0.1, 1.0 / k)] * k
    grid = _CliqueGrid(cs.a, TAU)
    tracemalloc.start()
    try:
        assign(cs, clustering, models, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2 ** 20


def _blob_lattice(k, rng, size=40):
    """k clusters of ``size`` points, each in a tau-wide cube on a lattice of
    spacing 1.5 tau (so a hood holds a few clusters), each moved by its own
    translation; the labels are the clusters."""
    side = round(k ** (1 / 3) + 0.5)
    sites = np.array(list(itertools.product(range(side), repeat=3))[:k]) * 1.5 * TAU
    a = sites[:, None, :] + rng.uniform(0.0, TAU, (k, size, 3))
    b = a + rng.uniform(-1.0, 1.0, (k, 1, 3))
    return (CorrespondenceSet(a.reshape(-1, 3), b.reshape(-1, 3)),
            Clustering(np.repeat(np.arange(1, k + 1), size)))


def test_run_em_memory_is_linear_when_clusters_grow_with_points(rng):
    # k grows with n at 40 points per cluster: with an (n, k) array in the
    # classification step the peak quadruples per doubling (13.2, 46.8 and
    # 183.7 MB at k = 128, 256 and 512); the per-cluster hood pairs, read
    # off the label runs, keep it near linear (1.2, 2.4 and 4.9 MB)
    peaks = []
    for k in (128, 256, 512):
        cs, initial = _blob_lattice(k, rng)
        tracemalloc.start()
        try:
            result = run_em(cs, initial, EMConfig(tau=TAU))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert result.converged and result.clustering.num_clusters == k
    assert all(later <= 2.3 * earlier for earlier, later in zip(peaks, peaks[1:]))


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


def test_run_em_assign_keeps_clusters_pure():
    # the purity test above, through run_em's own iteration, on the same scene
    # plus outliers: the fitted motions are exact enough that object points
    # stay pure even without the tau gate, so only outliers show a gate that leaks
    scene = _scene(num_objects=3, points=(90, 80, 70), sigma=0.002, outliers=20, seed=13)
    clustering = make_good_split(scene, alpha=2.0, fragments_per_object=2, seed=2)
    cfg = EMConfig(tau=scene.spec.tau, m_min=10)
    grid = _CliqueGrid(scene.correspondences.a, cfg.tau)
    changed = []
    for _ in range(10):
        pruned = prune_small(clustering, cfg)
        models = fit_models(scene.correspondences, pruned, cfg)
        updated = assign(scene.correspondences, pruned, models, grid)
        for j in range(1, updated.num_clusters + 1):
            truth_in_cluster = set(scene.true_labels[updated.members(j)].tolist())
            assert len(truth_in_cluster) <= 1
        changed.append(int(np.count_nonzero(updated.labels != pruned.labels)))
        if changed[-1] == 0:
            break
        clustering = updated
    assert changed[0] > 0 and changed[-1] == 0


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


def test_run_em_on_no_points_has_no_viable_clusters():
    empty = CorrespondenceSet(np.zeros((0, 3)), np.zeros((0, 3)))
    with pytest.raises(NoViableClustersError):
        run_em(empty, Clustering(np.zeros(0, dtype=int)), EMConfig(tau=0.3))


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


# sha256 of the int64 little-endian run_em labels, with the per-iteration
# assignment changes, recorded with the per-cluster k-d gate that the cell
# grid replaced. Every seed ends at the ground-truth labels, so the digests
# agree across seeds; the assignment changes record each path there.
CRITERION_4_EM = {
    0: ("6e60aac1a1e427cc9146d16d6040b19e444dcb8eaa87f4ec0e07e7e1aa0ba424", (1695, 266, 75, 0)),
    1: ("6e60aac1a1e427cc9146d16d6040b19e444dcb8eaa87f4ec0e07e7e1aa0ba424", (1741, 340, 0)),
    2: ("6e60aac1a1e427cc9146d16d6040b19e444dcb8eaa87f4ec0e07e7e1aa0ba424", (1865, 231, 0)),
}
OUTLIER_EUCLIDEAN_EM = {
    0: ("00d54be7e2e5e23212f6154e1e904690f9fa7de614491f93e86635929a08a63a", (0,)),
    1: ("00d54be7e2e5e23212f6154e1e904690f9fa7de614491f93e86635929a08a63a", (0,)),
    2: ("00d54be7e2e5e23212f6154e1e904690f9fa7de614491f93e86635929a08a63a", (0,)),
}


def _digest(result):
    return (hashlib.sha256(result.clustering.labels.astype("<i8").tobytes()).hexdigest(),
            result.assignment_changes)


@pytest.mark.parametrize("seed", sorted(CRITERION_4_EM))
def test_run_em_matches_recorded_labels_on_good_split(seed):
    scene = generate_scene(SceneSpec(num_objects=3, points_per_object=(2000, 2000, 2000),
                                     sigma=0.005 * TAU, tau=TAU, bound_b=4.0, seed=seed))
    split = make_good_split(scene, alpha=2.0, fragments_per_object=3, seed=seed + 1000)
    result = run_em(scene.correspondences, split, EMConfig(tau=TAU, m_min=10, max_iters=20))
    assert _digest(result) == CRITERION_4_EM[seed]


@pytest.mark.parametrize("seed", sorted(OUTLIER_EUCLIDEAN_EM))
def test_run_em_matches_recorded_labels_on_euclidean_init(seed):
    scene = generate_scene(SceneSpec(num_objects=3, points_per_object=(600, 600, 600),
                                     sigma=0.015, tau=TAU, bound_b=4.0, num_outliers=300,
                                     seed=seed))
    initial = euclidean_cluster(scene.correspondences, TAU)
    result = run_em(scene.correspondences, initial, EMConfig(tau=TAU, m_min=10))
    assert _digest(result) == OUTLIER_EUCLIDEAN_EM[seed]


def test_em_config_validation():
    with pytest.raises(ValueError):
        EMConfig(tau=0.0)
    with pytest.raises(ValueError):
        EMConfig(tau=1.0, m_min=2)


@pytest.mark.parametrize("floor", [1e-160, 1e-154, 1e-308, 5e-324, 1e155])
def test_em_config_refuses_a_sigma_floor_whose_square_leaves_the_normal_range(floor):
    with pytest.raises(ValueError, match="sigma_floor"):
        EMConfig(tau=1.0, sigma_floor=floor)


def test_zero_residual_at_the_smallest_sigma_floor_scores_no_nan():
    # the smallest floor whose square is a normal float: a model floored
    # there scores a zero residual finite. At 1e-160 the square is subnormal;
    # at 1e-170 it rounds to 0, and a zero residual scores 0/0
    floor = float(np.sqrt(np.finfo(float).tiny))
    while floor * floor < np.finfo(float).tiny:
        floor = float(np.nextafter(floor, 1.0))
    EMConfig(tau=1.0, sigma_floor=floor)
    with pytest.raises(ValueError, match="sigma_floor"):
        EMConfig(tau=1.0, sigma_floor=float(np.nextafter(floor, 0.0)))
    cs, _, _ = _two_cluster_setup()
    model = ClusterModel(RigidTransform.identity(), floor, 1.0)
    assert np.isfinite(_log_scores(cs, [model])).all()
    with np.errstate(invalid="ignore", under="ignore"):
        assert np.isnan(_log_scores(cs, [ClusterModel(RigidTransform.identity(), 1e-170, 1.0)])).all()
