import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from conftest import ransac_single_per_trial
from multireg import baselines
from multireg.baselines import (RansacConfig, TLinkageConfig, ransac_single,
                                sequential_ransac, tanimoto_distance, tlinkage_cluster)
from multireg.clustering import Clustering, euclidean_cluster
from multireg.geometry import (CorrespondenceSet, RigidTransform, geodesic_distance,
                               make_rng, random_rotation)
from multireg.horn import horn_register
from multireg.metrics import mask_iou
from multireg.scenes import SceneSpec, generate_scene, make_good_split


def tlinkage_preference(cs, point_index, hypothesis, cfg):
    """Preference of one point for one hypothesis: exponential decay of the
    residual, zeroed beyond the 5*tau gate. The oracle for the vectorised
    preference matrix."""
    residual = float(np.linalg.norm(cs.b[point_index] - hypothesis.apply(cs.a[point_index])))
    if residual > 5.0 * cfg.tau:
        return 0.0
    return float(np.exp(-residual / cfg.tau_t))


def scan_merge(prefs):
    """The O(k^3) agglomeration: rescan every pair with tanimoto_distance after
    each merge. The oracle for the merge order of the Tanimoto matrix."""
    members = [[c] for c in range(len(prefs))]
    prefs = [np.asarray(p, dtype=np.float64) for p in prefs]
    while len(members) > 1:
        best = None
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                d = tanimoto_distance(prefs[i], prefs[j])
                if d < 1.0 and (best is None or d < best[0]):
                    best = (d, i, j)
        if best is None:
            break
        _, i, j = best
        members[i] = members[i] + members[j]
        prefs[i] = np.minimum(prefs[i], prefs[j])
        del members[j]
        del prefs[j]
    return members


def test_ransac_single_noiseless_recovery(rng):
    rotation = random_rotation(4)
    t = np.array([1.0, -0.5, 0.25])
    a = rng.uniform(-1, 1, (60, 3))
    cs = CorrespondenceSet(a, a @ rotation.T + t)
    cfg = RansacConfig(inlier_threshold=1e-6, max_trials=50, min_model_inliers=10, seed=0)
    inliers = ransac_single(cs, np.arange(60), cfg)
    assert inliers.size == 60
    transform = horn_register(cs.subset(inliers)).transform
    assert geodesic_distance(transform.rotation, rotation) <= 1e-9
    assert np.linalg.norm(transform.translation - t) <= 1e-9


def test_ransac_single_majority_model(rng):
    r1, r2 = random_rotation(1), random_rotation(2)
    t1, t2 = np.array([0.0, 0.0, 1.0]), np.array([2.0, 0.0, 0.0])
    a = rng.uniform(-1, 1, (100, 3))
    b = np.vstack([a[:70] @ r1.T + t1, a[70:] @ r2.T + t2])
    cs = CorrespondenceSet(a, b)
    # sanity: the minority points really do not fit the majority model
    cross = np.linalg.norm(b[70:] - (a[70:] @ r1.T + t1), axis=1)
    assert cross.min() > 1e-3
    cfg = RansacConfig(inlier_threshold=1e-6, max_trials=200, min_model_inliers=10, seed=5)
    inliers = ransac_single(cs, np.arange(100), cfg)
    np.testing.assert_array_equal(np.sort(inliers), np.arange(70))


def test_ransac_single_needs_three_points(rng):
    a = rng.uniform(-1, 1, (10, 3))
    cs = CorrespondenceSet(a, a)
    cfg = RansacConfig(inlier_threshold=0.1, max_trials=10, min_model_inliers=3)
    with pytest.raises(ValueError):
        ransac_single(cs, np.array([0, 1]), cfg)


def test_ransac_single_no_model(rng):
    # pure gross outliers: no triple explains min_model_inliers points
    a = rng.uniform(-1, 1, (30, 3))
    b = rng.uniform(-10, 10, (30, 3))
    cs = CorrespondenceSet(a, b)
    cfg = RansacConfig(inlier_threshold=1e-4, max_trials=50, min_model_inliers=10, seed=1)
    assert ransac_single(cs, np.arange(30), cfg) is None


def _two_motion_scene(seed=19, sigma=0.003):
    spec = SceneSpec(num_objects=2, points_per_object=(90, 70), sigma=sigma,
                     tau=0.3, bound_b=4.0, seed=seed)
    return generate_scene(spec)


def test_sequential_ransac_two_motions():
    scene = _two_motion_scene()
    # 2x slack over the noise bound: a minimal-sample model carries its own
    # error, and the inter-motion residual is orders of magnitude larger
    cfg = RansacConfig(inlier_threshold=2 * np.sqrt(3) * scene.spec.sigma,
                       max_trials=200, min_model_inliers=10, seed=2)
    clustering = sequential_ransac(scene.correspondences, cfg)
    assert clustering.num_clusters == 2
    assert mask_iou(clustering, scene.true_labels) >= 0.99


def test_sequential_ransac_pure_outliers(rng):
    a = rng.uniform(-1, 1, (40, 3))
    b = rng.uniform(-10, 10, (40, 3))
    cfg = RansacConfig(inlier_threshold=1e-4, max_trials=50, min_model_inliers=10, seed=3)
    clustering = sequential_ransac(CorrespondenceSet(a, b), cfg)
    np.testing.assert_array_equal(clustering.labels, 0)
    assert clustering.num_clusters == 0


def test_sequential_ransac_single_motion(rng):
    rotation = random_rotation(8)
    a = rng.uniform(-1, 1, (50, 3))
    cs = CorrespondenceSet(a, a @ rotation.T)
    cfg = RansacConfig(inlier_threshold=1e-6, max_trials=100, min_model_inliers=10, seed=4)
    clustering = sequential_ransac(cs, cfg)
    assert clustering.num_clusters == 1
    np.testing.assert_array_equal(clustering.labels, 1)


def test_preference_values(rng):
    a = rng.uniform(-1, 1, (5, 3))
    cs = CorrespondenceSet(a, a)
    cfg = TLinkageConfig(tau_t=0.2, tau=1.0, num_hypotheses=0)
    identity = RigidTransform.identity()
    assert tlinkage_preference(cs, 0, identity, cfg) == 1.0
    # residual exactly tau_t decays to 1/e
    shifted = RigidTransform(np.eye(3), np.array([cfg.tau_t, 0.0, 0.0]))
    assert tlinkage_preference(cs, 0, shifted, cfg) == pytest.approx(np.exp(-1.0))
    # residual beyond the 5*tau gate scores zero
    far = RigidTransform(np.eye(3), np.array([5.0 * cfg.tau + 0.1, 0.0, 0.0]))
    assert tlinkage_preference(cs, 0, far, cfg) == 0.0
    hypotheses = [identity, shifted, far, RigidTransform(random_rotation(3), np.ones(3))]
    matrix = baselines._preference_matrix(
        cs, [(h.rotation, h.translation) for h in hypotheses], cfg)
    expected = [[tlinkage_preference(cs, i, h, cfg) for h in hypotheses] for i in range(len(cs))]
    # batched and per-point residuals differ in the last bits, which exp
    # scales by residual / tau_t (here at most 5 * tau / tau_t = 25)
    np.testing.assert_allclose(matrix, expected, rtol=1e-12, atol=0)


def test_tanimoto_examples():
    assert tanimoto_distance([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert tanimoto_distance([1.0, 0.0], [0.0, 1.0]) == 1.0
    assert tanimoto_distance([1.0, 0.0], [1.0, 1.0]) == pytest.approx(0.5)
    assert tanimoto_distance([0.0, 0.0], [0.0, 0.0]) == 1.0
    with pytest.raises(ValueError):
        tanimoto_distance([1.0], [1.0, 2.0])


def test_tanimoto_axioms(rng):
    for _ in range(200):
        u = rng.uniform(0, 1, 8)
        v = rng.uniform(0, 1, 8)
        d = tanimoto_distance(u, v)
        assert 0.0 <= d <= 1.0
        assert d == pytest.approx(tanimoto_distance(v, u), abs=1e-15)
        assert tanimoto_distance(u, u) == pytest.approx(0.0, abs=1e-15)


def test_tlinkage_merges_fragmented_object(rng):
    rotation = random_rotation(6)
    t = np.array([0.5, 0.5, 0.0])
    a = rng.uniform(-0.5, 0.5, (60, 3))
    cs = CorrespondenceSet(a, a @ rotation.T + t)
    initial = Clustering(np.repeat([1, 2, 3], 20))
    cfg = TLinkageConfig(tau_t=0.05, tau=10.0, num_hypotheses=30, seed=7)
    merged = tlinkage_cluster(cs, initial, cfg)
    assert merged.num_clusters == 1
    np.testing.assert_array_equal(merged.labels, 1)


def test_tlinkage_keeps_disjoint_objects_apart():
    scene = _two_motion_scene(seed=23, sigma=0.002)
    initial = euclidean_cluster(scene.correspondences, scene.spec.tau)
    assert initial.num_clusters == 2
    cfg = TLinkageConfig(tau_t=np.sqrt(3) * scene.spec.sigma, tau=scene.spec.tau,
                         num_hypotheses=40, seed=9)
    merged = tlinkage_cluster(scene.correspondences, initial, cfg)
    assert merged.num_clusters == 2
    assert mask_iou(merged, scene.true_labels) == pytest.approx(1.0)


def test_tlinkage_zero_hypotheses_is_identity(rng):
    a = rng.uniform(-1, 1, (12, 3))
    cs = CorrespondenceSet(a, a)
    initial = Clustering(np.repeat([1, 2], 6))
    cfg = TLinkageConfig(tau_t=0.1, tau=1.0, num_hypotheses=0, seed=0)
    out = tlinkage_cluster(cs, initial, cfg)
    np.testing.assert_array_equal(out.labels, initial.labels)


def test_tlinkage_result_coarsens_initial(rng):
    scene = _two_motion_scene(seed=29, sigma=0.01)
    initial = euclidean_cluster(scene.correspondences, scene.spec.tau)
    cfg = TLinkageConfig(tau_t=0.02, tau=scene.spec.tau, num_hypotheses=25, seed=11)
    merged = tlinkage_cluster(scene.correspondences, initial, cfg)
    assert merged.num_clusters <= initial.num_clusters
    # never splits: all points sharing an initial cluster share a final one
    for j in range(1, initial.num_clusters + 1):
        members = initial.members(j)
        assert len(set(merged.labels[members].tolist())) == 1


def _tlinkage_both_ways(monkeypatch, cs, initial, cfg):
    """tlinkage_cluster with the Tanimoto matrix, then with the scan oracle."""
    fast = tlinkage_cluster(cs, initial, cfg)
    with monkeypatch.context() as patch:
        patch.setattr(baselines, "_tanimoto_merge", scan_merge)
        slow = tlinkage_cluster(cs, initial, cfg)
    return fast, slow


def _cli_tlinkage_config(scene, seed):
    spec = scene.spec
    return TLinkageConfig(tau_t=max(math.sqrt(3.0) * spec.sigma, 0.01 * spec.tau),
                          tau=spec.tau, num_hypotheses=100, seed=seed)


@pytest.mark.parametrize("seed", range(10))
def test_tlinkage_matches_scan_on_euclidean_init(monkeypatch, seed):
    # the outlier-heavy baseline scene: about 285 initial clusters
    scene = generate_scene(SceneSpec(num_objects=3, points_per_object=(600,) * 3, sigma=0.015,
                                     tau=0.3, bound_b=4.0, num_outliers=300, seed=seed))
    initial = euclidean_cluster(scene.correspondences, scene.spec.tau)
    fast, slow = _tlinkage_both_ways(monkeypatch, scene.correspondences, initial,
                                     _cli_tlinkage_config(scene, seed))
    assert fast.num_clusters == slow.num_clusters
    np.testing.assert_array_equal(fast.labels, slow.labels)


@pytest.mark.parametrize("seed", range(3))
def test_tlinkage_matches_scan_on_fragmented_init(monkeypatch, seed):
    scene = generate_scene(SceneSpec(num_objects=3, points_per_object=(300,) * 3, sigma=0.015,
                                     tau=0.3, bound_b=4.0, num_outliers=30, seed=seed))
    initial = make_good_split(scene, alpha=2.0, fragments_per_object=4, seed=seed)
    fast, slow = _tlinkage_both_ways(monkeypatch, scene.correspondences, initial,
                                     _cli_tlinkage_config(scene, seed))
    assert fast.num_clusters < initial.num_clusters - 5  # many merges
    assert fast.num_clusters == slow.num_clusters
    np.testing.assert_array_equal(fast.labels, slow.labels)


def test_tanimoto_merge_exact_ties_go_to_lowest_pair():
    # rows 0 and 3 coincide (distance 0) and merge first; then rows 0, 1, 2
    # are pairwise at exactly 2/3, and merging the lowest pair (0, 1) leaves
    # a preference orthogonal to row 2, so the tie rule decides the partition
    prefs = np.array([[1.0, 1.0, 0.0],
                      [1.0, 0.0, 1.0],
                      [0.0, 1.0, 1.0],
                      [1.0, 1.0, 0.0]])
    assert baselines._tanimoto_merge(prefs) == scan_merge(prefs) == [[0, 3, 1], [2]]
    # (0, 3), (1, 2) and (2, 3) tie at 1/2: row-major order merges (0, 3),
    # then (0, 2) ties (1, 2) at 1/2 and wins; column-major order would pick
    # (1, 2) first and end with [[0, 3], [1, 2]]
    prefs = np.array([[1.0, 0.0, 1.0],
                      [0.0, 1.0, 0.0],
                      [1.0, 1.0, 0.0],
                      [1.0, 0.0, 0.0]])
    assert baselines._tanimoto_merge(prefs) == scan_merge(prefs) == [[0, 3, 2], [1]]
    # three disjoint duplicate pairs tie at distance 0: merged in row-major order
    pairs = np.repeat(np.eye(3), 2, axis=0)[[0, 2, 4, 1, 3, 5]]
    assert baselines._tanimoto_merge(pairs) == scan_merge(pairs) == [[0, 3], [1, 4], [2, 5]]


def test_tanimoto_merge_never_merges_zero_preferences(rng):
    prefs = rng.uniform(0.5, 1.0, (8, 5))
    prefs[[1, 4, 5]] = 0.0
    groups = baselines._tanimoto_merge(prefs)
    assert groups == scan_merge(prefs)
    for zero in (1, 4, 5):
        assert [zero] in groups
    assert baselines._tanimoto_merge(np.zeros((4, 3))) == [[0], [1], [2], [3]]


def test_config_validation():
    with pytest.raises(ValueError):
        RansacConfig(inlier_threshold=0.0)
    with pytest.raises(ValueError):
        RansacConfig(inlier_threshold=0.1, min_model_inliers=2)
    with pytest.raises(ValueError):
        TLinkageConfig(tau_t=0.0, tau=1.0)


def _outlier_scene(seed):
    """The outlier_baselines benchmark shape: 3 x 600 points plus 300 outliers."""
    return generate_scene(SceneSpec(num_objects=3, points_per_object=(600,) * 3, sigma=0.015,
                                    tau=0.3, bound_b=4.0, num_outliers=300, seed=seed))


def _cli_ransac_config(scene, seed, max_trials=100):
    return RansacConfig(inlier_threshold=math.sqrt(3.0) * scene.spec.sigma,
                        max_trials=max_trials, seed=seed)


def _same_fit(transform, rotation, translation):
    return (np.array_equal(transform.rotation, rotation)
            and np.array_equal(transform.translation, translation))


def _ransac_against_oracle(monkeypatch, cs, active, cfg):
    """ransac_single with its minimal fits recorded, then the per-trial oracle
    on a fresh generator of the same seed; asserts the two agree."""
    fits = []
    minimal_fits = baselines._minimal_fits

    def recording(*args):
        for fit in minimal_fits(*args):
            fits.append(fit)
            yield fit

    rng, oracle_rng = make_rng(cfg.seed), make_rng(cfg.seed)
    with monkeypatch.context() as patch:
        patch.setattr(baselines, "_minimal_fits", recording)
        result = ransac_single(cs, active, cfg, rng)
    _, inliers, _, trials = ransac_single_per_trial(cs, active, cfg, oracle_rng)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state  # same draws
    assert len(fits) == len(trials) == cfg.max_trials
    assert all(_same_fit(t, r, tr) for t, (r, tr) in zip(trials, fits))
    # with every trial's model equal, equal inliers mean the same best trial
    assert result is not None and inliers is not None
    np.testing.assert_array_equal(result, inliers)


@pytest.mark.parametrize("seed", range(10))
def test_ransac_single_matches_per_trial_oracle(monkeypatch, seed):
    scene = _outlier_scene(seed)
    active = np.arange(len(scene.correspondences))
    _ransac_against_oracle(monkeypatch, scene.correspondences, active,
                           _cli_ransac_config(scene, seed))


def test_ransac_single_ties_go_to_the_earliest_trial(monkeypatch, rng):
    # two noiseless 20-point motions: a pure triple of either one finds
    # exactly 20 inliers, so the best count ties between the two models
    a = rng.uniform(-1, 1, (40, 3))
    b = np.vstack([a[:20] @ random_rotation(1).T, a[20:] @ random_rotation(2).T + 1.0])
    cs = CorrespondenceSet(a, b)
    cfg = RansacConfig(inlier_threshold=1e-6, max_trials=60, seed=2)
    *_, trials = ransac_single_per_trial(cs, np.arange(40), cfg, make_rng(cfg.seed))
    best = [np.flatnonzero(np.linalg.norm(b - t.apply(a), axis=1) <= 1e-6) for t in trials]
    best = [m for m in best if m.size == 20]
    assert best[0][0] != best[-1][0]  # the first and the last best trial differ
    _ransac_against_oracle(monkeypatch, cs, np.arange(40), cfg)


@pytest.mark.parametrize("seed", range(3))
def test_ransac_single_blocks_keep_the_draw_order(monkeypatch, seed):
    # blocks of 7 split a 30-trial search mid-way; the active set skips
    # points, so picks index into it rather than into the scene
    scene = _outlier_scene(seed)
    active = np.arange(len(scene.correspondences))[::2]
    monkeypatch.setattr(baselines, "FIT_BLOCK", 7)
    _ransac_against_oracle(monkeypatch, scene.correspondences, active,
                           _cli_ransac_config(scene, seed, max_trials=30))


@pytest.mark.parametrize("block", [None, 16])
def test_tlinkage_hypotheses_match_per_sample_fits(monkeypatch, block):
    scene = _outlier_scene(0)
    cs = scene.correspondences
    initial = euclidean_cluster(cs, scene.spec.tau)
    cfg = _cli_tlinkage_config(scene, 0)
    recorded = []
    preference_matrix = baselines._preference_matrix

    def recording(cs, hypotheses, cfg):
        recorded.extend(hypotheses)
        return preference_matrix(cs, hypotheses, cfg)

    if block is not None:
        monkeypatch.setattr(baselines, "FIT_BLOCK", block)
    monkeypatch.setattr(baselines, "_preference_matrix", recording)
    tlinkage_cluster(cs, initial, cfg)
    groups = [initial.members(j) for j in range(1, initial.num_clusters + 1)]
    eligible = [g for g in groups if g.size >= 3]
    rng = make_rng(cfg.seed)
    expected = []
    for _ in range(cfg.num_hypotheses):
        g = eligible[int(rng.integers(len(eligible)))]
        pick = rng.choice(g.size, size=3, replace=False)
        expected.append(horn_register(cs.subset(g[pick])).transform)
    assert len(recorded) == len(expected) == cfg.num_hypotheses
    assert all(_same_fit(t, r, tr) for t, (r, tr) in zip(expected, recorded))


def test_ransac_fit_memory_stays_flat_past_one_block():
    rng = np.random.default_rng(3)
    a = rng.uniform(-1, 1, (60, 3))
    cs = CorrespondenceSet(a, a + rng.normal(0.0, 0.01, a.shape))

    def peak(max_trials):
        cfg = RansacConfig(inlier_threshold=0.05, max_trials=max_trials, seed=0)
        tracemalloc.start()
        try:
            ransac_single(cs, np.arange(60), cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # about 0.85 MB at one block and 0.95 MB at four (the previous block's
    # stack lives until the next is fitted); one stack of 4 blocks is 3.4 MB
    assert peak(4 * baselines.FIT_BLOCK) < 1.5 * peak(baselines.FIT_BLOCK)


# sha256 of the int64 little-endian labels and the cluster count of the
# baselines on the outlier_baselines shape (Euclidean init for T-Linkage,
# the CLI's default configs), recorded with one horn_register per sample.
BASELINE_LABELS = {
    0: (("d2c12aede77c9eef4bbe6669f53c52296bba7eb721be56a83e29d4a8df258b2b", 4),
        ("72fcc9df7ba8cfe397101929729f4e4d6314488e1d08696880954175e5e97836", 284)),
    1: (("a30dc1a4ffc66049a9321109587d908125723a5d0bbb9a569ddaf995ee110bcd", 4),
        ("2d8e44e4d8ea3740fcfe3efb47fbc45114fee58ba2aebbaefa3977e273042edd", 282)),
    2: (("eed8f4290d31a8b4c1f25d26e5ba2541dc28b97e21d89afb4e7b4dd4c946f36f", 4),
        ("70eb383bb7dcccedf340c8f61039b12b157a6f6040ff83de3fdd55f8c08e27c8", 285)),
}


@pytest.mark.parametrize("seed", sorted(BASELINE_LABELS))
def test_baselines_match_recorded_labels(seed):
    scene = _outlier_scene(seed)
    cs = scene.correspondences

    def digest(clustering):
        return (hashlib.sha256(clustering.labels.astype("<i8").tobytes()).hexdigest(),
                clustering.num_clusters)

    ransac = sequential_ransac(cs, _cli_ransac_config(scene, seed))
    tlinkage = tlinkage_cluster(cs, euclidean_cluster(cs, scene.spec.tau),
                                _cli_tlinkage_config(scene, seed))
    assert (digest(ransac), digest(tlinkage)) == BASELINE_LABELS[seed]
