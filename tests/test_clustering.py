import heapq
import sys
import tracemalloc

import numpy as np
import pytest

from conftest import (brute_force_components, brute_force_connected,
                      brute_force_fragments, check_initial_clustering, compact,
                      distance_to_cluster, heap_growth_to_stall)
import multireg.em
from multireg import clustering
from multireg.clustering import (_BATCH, Clustering, GridError, _CliqueGrid, _expand,
                                 connected_components, euclidean_cluster,
                                 fragment_connected_set, is_connected)
from multireg.geometry import CorrespondenceSet
from multireg.scenes import SceneSpec, generate_scene


def test_distance_to_cluster_examples():
    assert distance_to_cluster([(0, 0, 0)], (3, 4, 0)) == pytest.approx(5.0)
    assert distance_to_cluster([(1, 2, 3), (4, 5, 6)], (1, 2, 3)) == 0.0
    assert distance_to_cluster([(0, 0, 0), (10, 0, 0)], (6, 0, 0)) == pytest.approx(4.0)
    assert distance_to_cluster(np.empty((0, 3)), (0, 0, 0)) == float("inf")


def test_is_connected_chain():
    chain = [(0, 0, 0), (0.5, 0, 0), (1.0, 0, 0)]
    assert is_connected(chain, 0.6)
    assert not is_connected(chain, 0.4)
    assert is_connected([], 0.5)
    assert is_connected([(1, 1, 1)], 0.5)


def test_is_connected_matches_bruteforce(rng):
    for trial in range(40):
        n = int(rng.integers(2, 200))
        pts = rng.uniform(-1, 1, (n, 3))
        tau = float(rng.uniform(0.05, 0.8))
        assert is_connected(pts, tau) == brute_force_connected(pts, tau), (trial, n, tau)


def test_euclidean_cluster_two_blobs(rng):
    blob1 = rng.uniform(0, 0.5, (30, 3))
    blob2 = rng.uniform(5, 5.5, (20, 3))
    cs = CorrespondenceSet(np.vstack([blob1, blob2]), np.vstack([blob1, blob2]))
    clustering = euclidean_cluster(cs, tau=1.0)
    assert clustering.num_clusters == 2
    # labeled by decreasing size
    np.testing.assert_array_equal(clustering.labels[:30], 1)
    np.testing.assert_array_equal(clustering.labels[30:], 2)


def test_euclidean_cluster_single_chain():
    pts = np.array([(i * 0.4, 0, 0) for i in range(10)])
    cs = CorrespondenceSet(pts, pts)
    clustering = euclidean_cluster(cs, tau=0.5)
    assert clustering.num_clusters == 1
    np.testing.assert_array_equal(clustering.labels, 1)


def test_euclidean_cluster_tie_breaks_by_first_index():
    pts = np.array([(0, 0, 0), (10, 0, 0), (0.1, 0, 0), (10.1, 0, 0)])
    cs = CorrespondenceSet(pts, pts)
    clustering = euclidean_cluster(cs, tau=0.5)
    # equal sizes: the component containing index 0 gets id 1
    assert clustering.labels[0] == 1
    assert clustering.labels[1] == 2


def test_euclidean_cluster_output_invariants(rng):
    pts = rng.uniform(-2, 2, (300, 3))
    tau = 0.35
    cs = CorrespondenceSet(pts, pts)
    clustering = euclidean_cluster(cs, tau)
    assert np.all(clustering.labels >= 1)
    # each cluster tau-connected; distinct clusters more than tau apart
    for j in range(1, clustering.num_clusters + 1):
        assert is_connected(pts[clustering.members(j)], tau)
    for i in range(1, clustering.num_clusters + 1):
        for j in range(i + 1, clustering.num_clusters + 1):
            pi, pj = pts[clustering.members(i)], pts[clustering.members(j)]
            gap = np.min(np.linalg.norm(pi[:, None, :] - pj[None, :, :], axis=2))
            assert gap > tau


def test_connected_components_matches_label_partition(rng):
    pts = rng.uniform(-1, 1, (120, 3))
    comp, count = connected_components(pts, 0.3)
    assert comp.min() >= 0 and comp.max() == count - 1
    assert len(np.unique(comp)) == count


def _component_sets():
    rng = np.random.default_rng(7)
    lattice = rng.integers(-8, 8, (300, 3)) * 0.25  # every point on a multiple of tau/2
    blob = rng.uniform(0, 0.1, (3, 3))
    chain = np.array([(0.5 * i, 0, 0) for i in range(-6, 7)], dtype=float)
    # two dense cells (tau 1, two cells apart in x) whose only pair within
    # tau is the last point of each
    far_a = rng.uniform(0.0, 0.02, (600, 3))
    far_b = rng.uniform(0.0, 0.02, (600, 3)) + (1.48, 0.48, 0.48)
    far_a[-1], far_b[-1] = (0.49, 0.25, 0.25), (1.01, 0.25, 0.25)
    # tau 1: a hub in cell (2, 2, 2), the largest code, whose first point lies
    # within tau of the first points of four spokes in cells at x = 1 that are
    # more than tau apart from each other
    hub = np.array([1.02, 1.25, 1.25])
    spokes = hub + 0.95 * np.array([(-0.5, s * 0.866, t * 0.866) for s, t in
                                    ((1, 0), (-1, 0), (0, 1), (0, -1))])
    # tau 1: cells two apart on x whose first points (y alternating 0.01 and
    # 0.49) lie more than tau apart, so only the later points at the cells'
    # x edges join them
    firsts = [(k + 0.25, 0.01 + 0.48 * (k % 2), 0.25) for k in range(12)]
    edges = [(k + e, 0.25, 0.25) for k in range(12) for e in (0.01, 0.49)]
    centers = rng.uniform(0, 30, (500, 3))
    return {
        "sparse uniform": (rng.uniform(-1, 1, (300, 3)), 0.15),
        "dense uniform": (rng.uniform(0, 1, (1000, 3)), 0.2),
        "negative coordinates": (rng.uniform(-5, -3, (400, 3)), 0.3),
        "tau/2 boundaries": (lattice, 0.5),
        "coincident points": (np.repeat(rng.uniform(-3, 3, (40, 3)), 3, axis=0), 0.05),
        "coincident in one cell": (np.vstack([blob, blob, blob + 5.0]), 0.3),
        "chain exactly tau apart": (chain, 0.5),
        "chain with a gap": (np.vstack([chain, chain[-1] + (0.5 + 1e-9, 0, 0)]), 0.5),
        "dense cells, late contact": (np.vstack([far_a, far_b]), 1.0),
        "far outlier": (np.vstack([rng.uniform(0, 1, (200, 3)), [(1e9, -1e9, 3.0)]]), 0.2),
        "hub with the largest code": (np.vstack([spokes, hub]), 1.0),
        "chain joined only by touch": (np.array(firsts + edges), 1.0),
        "many small components": (np.repeat(centers, 3, axis=0)
                                  + rng.uniform(0, 0.05, (1500, 3)), 0.1),
    }


@pytest.mark.parametrize("name", list(_component_sets()))
def test_connected_components_match_bruteforce(name):
    pts, tau = _component_sets()[name]
    comp, count = connected_components(pts, tau)
    expected, expected_count = brute_force_components(pts, tau)
    assert count == expected_count
    np.testing.assert_array_equal(comp, expected)


@pytest.mark.parametrize("chunk", [1, 7])
@pytest.mark.parametrize("name", ["dense cells, late contact", "chain joined only by touch",
                                  "chain with a gap"])
def test_connected_components_in_small_chunks_match_bruteforce(name, chunk, monkeypatch):
    # the contact test's passes end inside one cell pair: at chunk 1 every row
    # is a pass, at 7 the rows of the chains' two-point cells split across passes
    monkeypatch.setattr(clustering, "_HOOD_CHUNK", chunk)
    test_connected_components_match_bruteforce(name)


@pytest.mark.parametrize("name", ["far outlier", "negative coordinates", "tau/2 boundaries"])
def test_pairs_and_hoods_are_the_blocks_of_occupied_cells(name):
    pts, tau = _component_sets()[name]
    grid = _CliqueGrid(pts, tau)
    x, rest = np.divmod(grid.codes, grid.strides[0])
    cells = np.stack([x, *np.divmod(rest, grid.strides[1])], axis=1)
    # ordered pairs of occupied cells at most 2 apart on every axis, each cell
    # with itself; np.nonzero lists them with c ascending, then d
    block = (np.abs(cells[:, None, :] - cells[None, :, :]) <= 2).all(axis=2)
    c, d = grid.pairs
    np.testing.assert_array_equal(c, np.nonzero(block)[0])
    np.testing.assert_array_equal(d, np.nonzero(block)[1])
    assert c.dtype == d.dtype == np.int32  # cell pairs repeat indices: half the bytes
    for i in range(len(pts)):
        np.testing.assert_array_equal(np.sort(grid.hood(i)),
                                      np.flatnonzero(block[grid.cell_of[i]][grid.cell_of]))
    # the runs of a batch of points list their hoods one after another, in the
    # order the cached hoods hold them
    probe = np.random.default_rng(len(pts)).integers(0, len(pts), 40)
    np.testing.assert_array_equal(grid.order[_expand(*grid.hood_runs(probe))],
                                  np.concatenate([grid.hood(i) for i in probe.tolist()]))


@pytest.mark.parametrize("name", ["far outlier", "negative coordinates", "tau/2 boundaries"])
def test_around_is_the_union_of_the_hoods_of_its_cells(name, rng):
    # the cells of every subset's points' hoods, for no cell, one cell, a
    # random third of them and all of them
    pts, tau = _component_sets()[name]
    grid = _CliqueGrid(pts, tau)
    every = np.arange(len(grid.codes))
    for cells in (every[:0], every[:1], every[rng.random(len(every)) < 1 / 3], every):
        expected = np.zeros(len(grid.codes), dtype=bool)
        for i in np.flatnonzero(np.isin(grid.cell_of, cells)).tolist():
            expected[grid.cell_of[grid.hood(i)]] = True
        around = grid.around(cells)
        assert around.dtype == bool and around.shape == (len(grid.codes),)
        np.testing.assert_array_equal(around, expected)
        assert around[cells].all() and (around.any() == (len(cells) > 0))


def test_connected_components_exact_tau_and_coincident_points_connect():
    chain = np.array([(0.5 * i, 0, 0) for i in range(10)], dtype=float)
    assert connected_components(chain, 0.5)[1] == 1
    assert connected_components(np.zeros((4, 3)), 0.1)[1] == 1
    assert connected_components(np.empty((0, 3)), 0.1)[1] == 0


@pytest.fixture
def contact_calls(monkeypatch):
    """The number of cell pairs in each call of the exact step ``_settle``,
    which connectivity makes only for its contact test."""
    calls, settle = [], clustering._settle
    monkeypatch.setattr(clustering, "_settle", lambda grid, runs, p, owner, r, hit, closed:
                        calls.append(len(hit)) or settle(grid, runs, p, owner, r, hit, closed))
    return calls


def test_connectivity_witness_joins_only_what_touch_would(contact_calls):
    def components_and_touches(pts, tau):
        # connected_components against the brute-force oracle, and the number
        # of cell pairs given to the full contact test
        contact_calls.clear()
        comp, count = connected_components(pts, tau)
        expected, expected_count = brute_force_components(pts, tau)
        assert count == expected_count
        np.testing.assert_array_equal(comp, expected)
        return count, sum(contact_calls)

    # tau = 1: cells of side 0.5, and (0, 0, 0) and (1, 0, 0) two cells apart
    # on x. A cell's first point is its lowest index.
    firsts = [(0.01, 0.25, 0.25), (1.49, 0.25, 0.25)]
    # first points 1.48 apart, later points 0.52 apart: the full test joins them
    pts = np.array(firsts + [(0.49, 0.25, 0.25), (1.01, 0.25, 0.25)])
    assert components_and_touches(pts, 1.0) == (1, 1)
    # first points exactly tau apart (0.25 is exact): the witness joins them
    pts = np.array([(0.0, 0.0, 0.0), (0.5, 0.0, 0.0), (0.1, 0.1, 0.1)])
    assert components_and_touches(pts, 0.5) == (1, 0)
    # a hair beyond tau: two one-point cells, whose only pair the witness
    # tested, skip the full test; with one more point in the first cell the
    # pair falls through to it, and it finds a contact
    pts = np.array([(0.0, 0.0, 0.0), (0.5 * (1 + 1e-12), 0.0, 0.0)])
    assert components_and_touches(pts, 0.5) == (2, 0)
    pts = np.vstack([pts, [(0.5 * (1 + 1e-12) - 0.5, 0.0, 0.0)]])
    assert components_and_touches(pts, 0.5) == (1, 1)
    # cells (0, 0, 0) and (1, 0, 0) at tau 1 have first points 1.21 apart, but
    # both join (0, 1, 1) on first points: every witness joins before the
    # contact test, so that pair is no longer apart and is never tested
    pts = np.array([(0.0, 0.0, 0.0), (0.99, 0.49, 0.49), (0.2, 0.52, 0.52)])
    assert components_and_touches(pts, 1.0) == (1, 0)


@pytest.mark.parametrize("beyond", [False, True])
def test_contact_at_tau_between_later_points_of_two_cells(beyond, contact_calls):
    # tau = 1: three points in each of the cells (0, 0, 0) and (2, 0, 0),
    # whose first points lie 1.48 apart; only their second points come within
    # tau, exactly (1.25 - 0.25 is exact), or one ulp beyond it. Neither box
    # settles the pair, so the contact step's exact test decides.
    x = np.nextafter(1.25, 2.0) if beyond else 1.25
    pts = np.array([(0.01, 0.25, 0.25), (1.49, 0.25, 0.25), (0.25, 0.25, 0.25),
                    (x, 0.25, 0.25), (0.05, 0.45, 0.05), (1.45, 0.05, 0.45)])
    comp, count = connected_components(pts, 1.0)
    expected, expected_count = brute_force_components(pts, 1.0)
    assert (count, expected_count, contact_calls) == ((2, 2, [1]) if beyond else (1, 1, [1]))
    np.testing.assert_array_equal(comp, expected)


@pytest.mark.parametrize("tau", [float("nan"), 1e-19])
def test_tau_the_grid_cannot_index_is_refused(tau):
    # at 1e-19, coordinates up to 4 are about 8e19 cells of tau/2 from the
    # origin, beyond int64
    pts = np.random.default_rng(0).uniform(0, 4, (50, 3))
    with pytest.raises(ValueError, match="tau"):
        connected_components(pts, tau)
    with pytest.raises(ValueError, match="tau"):
        euclidean_cluster(CorrespondenceSet(pts, pts), tau)
    # one target returns before any grid is built
    with pytest.raises(ValueError, match="tau"):
        fragment_connected_set(pts, tau, [25, 25], seed=0)


def test_grid_refusals_are_grid_errors():
    # the command line turns a GridError into exit 2; 700 000 points 20 cells
    # apart on every axis make (3n + 2)^3 > 2^63 cells
    pts = np.repeat(np.arange(700_000) * 10.0, 3).reshape(-1, 3)
    with pytest.raises(GridError, match="tau 1 puts the points in too many"):
        _CliqueGrid(pts, 1.0)
    with pytest.raises(GridError, match="tau 0 is not positive$"):
        _CliqueGrid(pts[:2], 0.0)
    # positive, but coordinates up to 4 are about 8e19 cells of tau/2 out
    with pytest.raises(GridError, match="tau 1e-19 is too small for int64 cells of coordinates "
                                        "up to 4$"):
        _CliqueGrid(np.array([[4.0, 0.0, 0.0]]), 1e-19)


def test_tiny_tau_within_int64_matches_bruteforce():
    # at 1e-17 the cell indices still fit: no pair is within tau
    pts = np.random.default_rng(0).uniform(0, 4, (50, 3))
    comp, count = connected_components(pts, 1e-17)
    assert count == 50
    np.testing.assert_array_equal(comp, brute_force_components(pts, 1e-17)[0])


def test_connected_components_two_dense_cells_stay_small():
    # tau = 1 gives cells of side 0.5: 20000 points in each of two adjacent
    # cells; a |P| x |Q| pair buffer would need about 9.6 GB
    rng = np.random.default_rng(3)
    a = rng.uniform(0.01, 0.49, (20_000, 3))
    b = a + (0.5, 0, 0)
    pts = np.vstack([a, b])
    tracemalloc.start()
    try:
        _, count = connected_components(pts, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == 1
    assert peak < 50 * 2 ** 20


def test_contact_test_of_two_dense_cells_stays_small(monkeypatch):
    # tau = 1: two 3000-point clumps in cells two apart on x, 1.18 apart: the
    # 9 M point pairs would need about 216 MB of differences in one pass, but
    # each point lies beyond tau of the other clump's box, so no point pair
    # gets the exact test
    tested, passes = [], clustering._passes
    monkeypatch.setattr(clustering, "_passes", lambda lengths, chunk:
                        tested.append(int(np.sum(lengths))) or passes(lengths, chunk))
    rng = np.random.default_rng(4)
    a = rng.uniform(0.0, 0.02, (3000, 3))
    pts = np.vstack([a, a + (1.2, 0, 0)])
    tracemalloc.start()
    try:
        _, count = connected_components(pts, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == 2
    assert peak < 16 * 2 ** 20
    assert sum(tested) == 0


def test_flat_pair_sums_are_the_blocked_sums_bit_for_bit():
    # the contact test and the witness sum squared differences over flattened
    # point pairs; summed over a (|c|, |d|, 3) block the bits must not change,
    # so a contact at exactly tau does not depend on the layout (einsum's sum
    # differs from the column sum in about a fifth of these rows)
    rng = np.random.default_rng(12)
    p = rng.normal(size=(60, 3)) * 10.0 ** rng.integers(-6, 7, (60, 1))
    q = rng.normal(size=(70, 3)) * 10.0 ** rng.integers(-6, 7, (70, 1))
    diff = q[None, :, :] - p[:, None, :]
    blocked = np.einsum("ijk,ijk->ij", diff, diff).ravel()
    for flat in (diff.reshape(-1, 3), (p[:, None, :] - q[None, :, :]).reshape(-1, 3)):
        # the witness forms member - probe and the contact step probe - member
        np.testing.assert_array_equal(np.einsum("ij,ij->i", flat, flat), blocked)


def test_fragments_match_heap_growth_oracle(rng):
    attempts = []
    for trial in range(8):
        n = int(rng.integers(150, 400))
        pts = rng.uniform(0, 1, (n, 3))
        small = n // 6
        targets = [n - 2 * small, small, small]
        expected, attempt = brute_force_fragments(pts, 0.3, targets, seed=trial)
        attempts.append(attempt)
        np.testing.assert_array_equal(
            fragment_connected_set(pts, 0.3, targets, seed=trial), expected)
    assert max(attempts) > 1  # some first attempts strand points and retry


@pytest.fixture
def growth(monkeypatch):
    """One record per growth attempt: its seeds and keys ``to_seed``, its heap
    episodes as (assignment then, the fragment that missed, the points of it
    that ``_frontier`` queued from, the points it found) per miss, whether
    it grew every fragment, and its assignment at its end."""
    attempts, scan, frontier = [], clustering._scan, clustering._frontier

    def scanning(grid, assignment, targets, to_seed):
        seeds = [int(np.flatnonzero(assignment == j)[0]) for j in range(len(targets))]
        record = {"seeds": seeds, "to_seed": to_seed, "episodes": []}
        attempts.append(record)
        record["grown"] = scan(grid, assignment, targets, to_seed)
        record["end"] = assignment.copy()
        return record["grown"]

    def querying(grid, assignment, new):
        found = frontier(grid, assignment, new)
        attempts[-1]["episodes"].append((assignment.copy(), int(assignment[new[0]]), new, found))
        return found

    monkeypatch.setattr(clustering, "_scan", scanning)
    monkeypatch.setattr(clustering, "_frontier", querying)
    return attempts


def test_fragments_of_criterion4_objects_match_oracle(growth):
    attempts = []
    for seed in range(6):
        scene = generate_scene(SceneSpec(num_objects=1, points_per_object=(2000,), sigma=0.0,
                                         tau=0.3, bound_b=4.0, seed=seed))
        pts = scene.correspondences.a
        expected, attempt = brute_force_fragments(pts, 0.3, [1334, 333, 333], seed=seed)
        attempts.append(attempt)
        np.testing.assert_array_equal(
            fragment_connected_set(pts, 0.3, [1334, 333, 333], seed=seed), expected)
    assert max(attempts) > 1  # retries
    assert len(growth) == sum(attempts)
    # some attempts finish on the cursors alone, some miss
    assert 0 < sum(1 for attempt in growth if attempt["episodes"]) < sum(attempts)


def test_fragments_with_equal_keys_and_coincident_points_match_oracle():
    # an integer lattice, every point doubled: keys are exact and tie often,
    # coincident points connect, and axis neighbours sit at exactly tau
    lattice = np.stack(np.meshgrid(np.arange(6), np.arange(6), np.arange(4), indexing="ij"),
                       axis=-1).reshape(-1, 3).astype(float)
    pts = np.concatenate([lattice, lattice[::-1], lattice[:40]])
    n = len(pts)
    targets = [n - 2 * (n // 5), n // 5, n // 5]
    attempts = []
    for seed in range(6):
        expected, attempt = brute_force_fragments(pts, 1.0, targets, seed=seed)
        attempts.append(attempt)
        np.testing.assert_array_equal(fragment_connected_set(pts, 1.0, targets, seed=seed),
                                      expected)
    assert max(attempts) > 1


def test_heap_tail_frontier_is_a_distance_test_not_the_em_union(growth, monkeypatch):
    # the per-cluster hood pairs belong to the EM gate: fragment growth, heap
    # episodes included, tests adjacency only through distance tests
    def refuse(*args):
        raise AssertionError("fragment growth read EM's hood pairs")

    monkeypatch.setattr(multireg.em, "_hood_scores", refuse)
    pts = np.zeros((300, 3))
    pts[:, 0] = np.arange(300)
    expected, _ = brute_force_fragments(pts, 1.0, [200, 100], seed=1)
    np.testing.assert_array_equal(fragment_connected_set(pts, 1.0, [200, 100], seed=1), expected)
    assert any(attempt["episodes"] for attempt in growth)


def test_heap_tail_starts_each_queue_with_the_points_within_tau_of_its_fragment(
        growth, monkeypatch):
    # one label-run query per miss, for the fragment that missed alone, from
    # the points it gained since it last queued (all of it at its first miss):
    # it finds exactly the unassigned points that the brute-force test puts
    # within tau of those (d . d <= tau^2), and the point its cursor missed
    # lies within tau of no point of the fragment; on a line with neighbours
    # exactly tau apart, and on a criterion-4 object
    queries, confirm = [], clustering._confirm

    def recording(grid, runs, rows, cols, closed=False):
        passes = confirm(grid, runs, rows, cols, closed)
        queries.append((grid.points, grid.tau, rows, cols, passes, closed))
        return passes

    monkeypatch.setattr(clustering, "_confirm", recording)
    line = np.zeros((300, 3))
    line[:, 0] = np.arange(300)
    fragment_connected_set(line, 1.0, [200, 100], seed=1)
    blob = generate_scene(SceneSpec(num_objects=1, points_per_object=(2000,), sigma=0.0,
                                    tau=0.3, bound_b=4.0, seed=0)).correspondences.a
    fragment_connected_set(blob, 0.3, [1334, 333, 333], seed=0)
    episodes = [(attempt["to_seed"], attempt["episodes"][:e], *episode) for attempt in growth
                for e, episode in enumerate(attempt["episodes"])]
    assert len(queries) == len(episodes) > 2  # one per miss
    for (pts, tau, rows, cols, passes, closed), (to_seed, earlier, assignment, j, new, found) in zip(
            queries, episodes):
        assert closed and not cols.any()  # the runs of ``new`` alone
        np.testing.assert_array_equal(found, rows[passes])
        if not any(episode[1] == j for episode in earlier):
            np.testing.assert_array_equal(new, np.flatnonzero(assignment == j))
        assert (assignment[new] == j).all()
        free = np.flatnonzero(assignment < 0)
        within = [(np.einsum("ij,ij->i", d := pts[new] - pts[i], d) <= tau * tau).any()
                  for i in free.tolist()]
        np.testing.assert_array_equal(found, free[within])
        # j's first free point by (key, index): the one its cursor missed
        missed = free[np.lexsort((free, to_seed[j][free]))[0]]
        assert (np.einsum("ij,ij->i", d := pts[assignment == j] - pts[missed], d) > tau * tau).all()
    passes = np.concatenate([query[4] for query in queries])
    assert passes.any() and not passes.all()


def test_near_block_first_scan_matches_whole_hood_scan(growth, monkeypatch):
    # points 0.99 tau apart on a line: cells are a hair over tau / 2 wide, so
    # most steps' one earlier tau-neighbour lies two cells away, outside the
    # 3x3x3 block around the step; only the whole hood finds it
    pts = np.zeros((400, 3))
    pts[:, 0] = np.arange(400) * 0.99
    targets = [300, 100]
    found, within_tau = [], clustering._within_tau

    def recording(grid, probe, keep, runs=None):
        hit = within_tau(grid, probe, keep, runs)
        found.append((runs is grid.near_runs, hit.tolist()))
        return hit

    monkeypatch.setattr(clustering, "_within_tau", recording)
    expected, attempt = brute_force_fragments(pts, 1.0, targets, seed=3)
    labels = fragment_connected_set(pts, 1.0, targets, seed=3)
    np.testing.assert_array_equal(labels, expected)
    assert attempt == 1 and not growth[0]["episodes"]  # the cursors alone grew both
    # the block misses every step that the hood then finds, and only those
    near_misses = [sum(not h for h in hits) for near, hits in found if near]
    hood_hits = [sum(hits) for near, hits in found if not near]
    assert sum(near_misses) == sum(hood_hits) > 200
    # the scan that reads whole hoods for every step grows the same fragments
    monkeypatch.setattr(_CliqueGrid, "near_runs", property(lambda grid: grid.runs))
    np.testing.assert_array_equal(fragment_connected_set(pts, 1.0, targets, seed=3), labels)


def test_near_block_runs_are_the_3x3x3_blocks():
    rng = np.random.default_rng(2)
    pts = np.concatenate([rng.uniform(0, 3, (400, 3)), rng.uniform(10, 11, (50, 3))])
    grid = _CliqueGrid(pts, 1.0)
    cells = np.floor(pts / (0.5 * clustering._SIDE_SLACK)).astype(np.int64)
    for i in range(0, len(pts), 7):
        block = grid.order[_expand(*grid.hood_runs(i, grid.near_runs))]
        within = np.flatnonzero((np.abs(cells - cells[i]) <= 1).all(axis=1))
        np.testing.assert_array_equal(np.sort(block), within)


@pytest.mark.parametrize("n", [*range(127, 133), *range(_BATCH - 1, _BATCH + 5)])
def test_fragments_around_one_batch_match_oracle(n, growth):
    # three fragments take n - 3 steps: well within one batch, and from one
    # step short of a batch to one past it
    pts = np.random.default_rng(n).uniform(0, 1, (n, 3))
    targets = [n - 2 * (n // 6), n // 6, n // 6]
    expected, attempt = brute_force_fragments(pts, 0.8, targets, seed=0)
    np.testing.assert_array_equal(fragment_connected_set(pts, 0.8, targets, seed=0), expected)
    assert attempt == 1 and not growth[0]["episodes"]  # the cursors alone grew every one


def test_fragment_stalling_mid_batch_matches_oracle(growth):
    # on a line, the small fragment is walled in by the large one before it
    # reaches its target: its cursor misses, its frontier is empty, and the
    # attempt ends at that step, mid-batch; the first two attempts stall and retry
    pts = np.zeros((300, 3))
    pts[:, 0] = np.arange(300)
    expected, attempt = brute_force_fragments(pts, 1.0, [200, 100], seed=1)
    np.testing.assert_array_equal(fragment_connected_set(pts, 1.0, [200, 100], seed=1), expected)
    assert attempt == 3 and len(growth) == 3
    for record in growth[:2]:
        [(assignment, j, new, found)] = record["episodes"]
        sizes = np.bincount(assignment[assignment >= 0])
        assert (sizes.sum() - 2) % _BATCH != 0
        assert j == 1 and found.size == 0 and not record["grown"]
        # nothing grows after the stall, though the large fragment could
        np.testing.assert_array_equal(record["end"], assignment)
        assert sizes[1] < 100 and sizes[0] < 200
        np.testing.assert_array_equal(
            record["end"], heap_growth_to_stall(pts, 1.0, record["seeds"], [200, 100]))
    assert growth[2]["grown"] and not growth[2]["episodes"]


def _comb(teeth: int, length: int) -> np.ndarray:
    """A spine along x with a tooth along y every 2 units, points 0.5 apart:
    with tau 1 a tooth touches only the spine, while a fragment's presorted
    points jump between teeth that the graph joins only through the spine."""
    spine = np.arange(0, 2.0 * teeth, 0.5)
    tooth = np.arange(1, length + 1) * 0.5
    return np.concatenate([np.c_[spine, 0 * spine, 0 * spine]]
                          + [np.c_[np.full(length, 2.0 * t), tooth, 0 * tooth]
                             for t in range(teeth)])


def test_fragment_stalling_in_a_heap_episode_matches_oracle(growth):
    # on a comb, the small fragment misses, pops its frontier's points and
    # stalls once its heap empties: each failed attempt ends where the heap
    # growth's first stall leaves it, and one stalls mid-episode
    pts = _comb(6, 8)
    expected, attempt = brute_force_fragments(pts, 1.0, [48, 24], seed=2)
    np.testing.assert_array_equal(fragment_connected_set(pts, 1.0, [48, 24], seed=2), expected)
    assert attempt == len(growth) == 3 and growth[2]["grown"]
    mid_episode = 0
    for record in growth[:2]:
        assert not record["grown"]
        np.testing.assert_array_equal(
            record["end"], heap_growth_to_stall(pts, 1.0, record["seeds"], [48, 24]))
        assignment, j, _, found = record["episodes"][-1]
        grew = np.count_nonzero(record["end"] == j) - np.count_nonzero(assignment == j)
        mid_episode += found.size > 0 and grew > 0
    assert mid_episode


def test_fragments_undone_over_heap_steps_match_oracle(growth, monkeypatch):
    # in three fragments on a comb, a miss often undoes later steps of a
    # fragment that pops its heap: the heap gets back what they popped and
    # loses what they queued (the only heapify), so the splits match, and
    # so does the state in which each failed attempt stalls
    restored, heapify = [], heapq.heapify
    monkeypatch.setattr(heapq, "heapify", lambda heap: restored.append(len(heap)) or heapify(heap))
    pts = _comb(6, 8)
    for seed in (0, 1, 3):
        growth.clear()
        expected, attempt = brute_force_fragments(pts, 1.0, [44, 14, 14], seed=seed)
        np.testing.assert_array_equal(fragment_connected_set(pts, 1.0, [44, 14, 14], seed=seed),
                                      expected)
        assert len(growth) == attempt
        for record in growth[:-1]:
            np.testing.assert_array_equal(
                record["end"], heap_growth_to_stall(pts, 1.0, record["seeds"], [44, 14, 14]))
    assert len(restored) > 10


def test_fragments_of_comb_keep_queries_and_hood_calls_linear(growth, monkeypatch):
    # a fragment's cursor misses at nearly every tooth: each miss makes one
    # frontier query, and a miss is followed by a pop or ends the attempt,
    # so queries and hood calls stay linear in n; in three fragments every
    # attempt strands points, so all 32 attempts count
    calls, hood = [], _CliqueGrid.hood
    monkeypatch.setattr(_CliqueGrid, "hood", lambda grid, i: calls.append(i) or hood(grid, i))
    pts = _comb(60, 10)
    n = len(pts)

    def assert_linear():
        queries = sum(len(attempt["episodes"]) for attempt in growth)
        assert queries > 2 * len(growth)  # misses are many
        assert queries <= len(growth) * n and len(calls) <= len(growth) * 2 * n
        calls.clear()
        growth.clear()

    expected, _ = brute_force_fragments(pts, 1.0, [n - n // 4, n // 4], seed=1)
    np.testing.assert_array_equal(fragment_connected_set(pts, 1.0, [n - n // 4, n // 4], seed=1),
                                  expected)
    assert_linear()
    targets = [n - 2 * (n // 6), n // 6, n // 6]
    with pytest.raises(ValueError):
        brute_force_fragments(pts, 1.0, targets, seed=1)
    with pytest.raises(ValueError):
        fragment_connected_set(pts, 1.0, targets, seed=1)
    assert len(growth) == clustering._MAX_RETRIES
    assert_linear()


def test_fragments_of_horseshoe_keep_hood_calls_linear(monkeypatch):
    # two parallel arms 3.5 tau apart, joined at one end: each arm's tip is
    # near the other arm's by key but far along the graph, so the scan stops
    # early and the heap finishes; a scan that skipped ahead instead of
    # handing over would take quadratically many hood calls
    n, tau = 2000, 1.0
    arm = np.arange((n - 6) // 2) * 0.5
    zeros = np.zeros_like(arm)
    pts = np.concatenate([np.c_[arm, zeros, zeros],
                          np.c_[np.zeros(6), np.arange(1, 7) * 0.5, np.zeros(6)],
                          np.c_[arm, zeros + 3.5, zeros]])
    calls, hood = [], _CliqueGrid.hood
    monkeypatch.setattr(_CliqueGrid, "hood", lambda grid, i: calls.append(i) or hood(grid, i))
    for seed in (1, 2):
        calls.clear()
        expected, attempt = brute_force_fragments(pts, tau, [1600, 400], seed=seed)
        np.testing.assert_array_equal(fragment_connected_set(pts, tau, [1600, 400], seed=seed),
                                      expected)
        assert len(calls) <= attempt * (2 * n + _BATCH)


@pytest.mark.parametrize("chunk, hood_over_chunk", [(1, True), (300, True), (5000, False)])
def test_fragments_in_small_hood_chunks_match_oracle(chunk, hood_over_chunk, monkeypatch):
    # the scan's distance tests gather whole hoods, and the frontier queries'
    # _confirm the runs of whole blocks, about chunk points per pass: a row
    # longer than a chunk makes a pass of its own, and a multiple of the chunk
    # that falls inside a row ends the pass at that row's end
    monkeypatch.setattr(clustering, "_HOOD_CHUNK", chunk)
    callers, scan, tail = set(), [], []
    within_tau, passes = clustering._within_tau, clustering._passes

    def chunking(lengths):
        """(a row is longer than a chunk, a multiple of the chunk falls inside a row)"""
        ends = np.cumsum(lengths)
        return (np.diff(ends, prepend=0).max() > chunk,
                np.setdiff1d(np.arange(chunk, ends[-1], chunk), ends).size > 0)

    def recording(grid, probe, *args):
        callers.add(sys._getframe(1).f_code.co_name)
        scan.append(chunking([len(grid.hood(i)) for i in probe.tolist()]))
        return within_tau(grid, probe, *args)

    def recording_passes(lengths, size):
        # _within's group passes, and the point-pair passes of its _settle calls
        callers = sys._getframe(1).f_code.co_name, sys._getframe(2).f_code.co_name
        if "_within" in callers and len(lengths):
            tail.append(chunking(lengths))
        return passes(lengths, size)

    monkeypatch.setattr(clustering, "_within_tau", recording)
    monkeypatch.setattr(clustering, "_passes", recording_passes)
    # the last split meets a miss whose frontier query spans several chunks
    for seed, targets in ((0, [1334, 333, 333]), (4, [1334, 333, 333]), (0, [1000, 500, 500])):
        scene = generate_scene(SceneSpec(num_objects=1, points_per_object=(2000,), sigma=0.0,
                                         tau=0.3, bound_b=4.0, seed=seed))
        pts = scene.correspondences.a
        expected, _ = brute_force_fragments(pts, 0.3, targets, seed=seed)
        np.testing.assert_array_equal(fragment_connected_set(pts, 0.3, targets, seed=seed),
                                      expected)
    assert callers == {"_scan"}
    for found in (scan, tail):
        over, inside = zip(*found)
        assert any(over) == hood_over_chunk and any(inside)


def test_fragments_with_hoods_over_one_chunk(monkeypatch):
    # two dense clumps 0.6 tau apart in neighbouring cells: every hood holds
    # both, more points than one distance-test pass gathers
    rng = np.random.default_rng(0)
    half = 17000
    pts = np.concatenate([rng.uniform(0, 0.01, (half, 3)),
                          rng.uniform(0, 0.01, (half, 3)) + [0.6, 0.0, 0.0]])
    assert len(_CliqueGrid(pts, 1.0).hood(0)) > clustering._HOOD_CHUNK
    labels = fragment_connected_set(pts, 1.0, [30000, 4000], seed=1)
    assert np.bincount(labels).tolist() == [30000, 4000]
    assert all(is_connected(pts[labels == j], 1.0) for j in range(2))
    monkeypatch.setattr(clustering, "_HOOD_CHUNK", 1 << 40)  # one pass per test
    np.testing.assert_array_equal(fragment_connected_set(pts, 1.0, [30000, 4000], seed=1),
                                  labels)


def test_fragment_single_target():
    pts = np.array([(i * 0.1, 0, 0) for i in range(7)])
    assignment = fragment_connected_set(pts, 0.15, [7], seed=0)
    np.testing.assert_array_equal(assignment, 0)


def test_fragment_line_six_three():
    tau = 0.4
    pts = np.array([(i * tau / 2, 0, 0) for i in range(9)])
    assignment = fragment_connected_set(pts, tau, [6, 3], seed=1)
    sizes = np.bincount(assignment)
    np.testing.assert_array_equal(sizes, [6, 3])
    for j in range(2):
        assert is_connected(pts[assignment == j], tau)
    # on a line, connected fragments are contiguous runs
    labels_sorted = assignment[np.argsort(pts[:, 0])]
    assert np.count_nonzero(labels_sorted[1:] != labels_sorted[:-1]) == 1


def test_fragments_of_random_blobs_are_connected(rng):
    # fragments are connected by construction; the oracle checks every one
    tau = 0.3
    for trial in range(6):
        n = int(rng.integers(150, 400))
        pts = rng.uniform(0, 1, (n, 3))
        assert brute_force_connected(pts, tau)
        small = n // 6
        targets = [n - 2 * small, small, small]
        assignment = fragment_connected_set(pts, tau, targets, seed=trial)
        np.testing.assert_array_equal(np.bincount(assignment), targets)
        for j in range(3):
            assert brute_force_connected(pts[assignment == j], tau), (trial, j)


def test_fragment_bad_targets():
    pts = np.array([(i * 0.1, 0, 0) for i in range(5)])
    with pytest.raises(ValueError):
        fragment_connected_set(pts, 0.15, [3, 3], seed=0)  # wrong sum
    with pytest.raises(ValueError):
        fragment_connected_set(pts, 0.15, [5, 0], seed=0)  # empty fragment


def test_fragment_infeasible_star_errors(monkeypatch):
    # center plus three rays: any connected pair must contain the center, so
    # a {2, 2} split leaves a disconnected remainder no matter the seeds
    monkeypatch.setattr(clustering, "_MAX_RETRIES", 8)
    tau = 1.0
    pts = np.array([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], dtype=float)
    with pytest.raises(ValueError, match="connected fragments"):
        fragment_connected_set(pts, tau, [2, 2], seed=3)


def _toy_scene_arrays(rng):
    obj1 = rng.uniform(0, 0.5, (40, 3))
    obj2 = rng.uniform(5, 5.5, (40, 3))
    pts = np.vstack([obj1, obj2])
    truth = np.array([1] * 40 + [2] * 40)
    return pts, truth


def test_check_initial_clustering_passes_on_dominant_split(rng):
    pts, truth = _toy_scene_arrays(rng)
    # object 1 split 30/10, object 2 kept whole
    labels = np.array([1] * 30 + [2] * 10 + [3] * 40)
    report = check_initial_clustering(Clustering(labels), pts, truth,
                                      tau=1.0, alpha=2.0, min_size=10)
    assert report.passed
    assert report.object_dominance[0] == pytest.approx(3.0)
    assert report.object_dominance[1] == float("inf")


def test_check_initial_clustering_equal_fragments_fail(rng):
    pts, truth = _toy_scene_arrays(rng)
    labels = np.array([1] * 20 + [2] * 20 + [3] * 40)
    report = check_initial_clustering(Clustering(labels), pts, truth,
                                      tau=1.0, alpha=2.0, min_size=10)
    assert not report.passed
    assert not report.object_dominance_ok[0]


def test_check_initial_clustering_straddling_cluster_fails(rng):
    pts, truth = _toy_scene_arrays(rng)
    labels = np.array([1] * 40 + [1] * 10 + [2] * 30)
    report = check_initial_clustering(Clustering(labels), pts, truth,
                                      tau=1.0, alpha=2.0, min_size=10)
    assert not report.passed
    assert not report.cluster_pure[0]
    # the straddling cluster is also disconnected at this tau
    assert not report.cluster_connected[0]


def test_check_initial_clustering_small_cluster_fails(rng):
    pts, truth = _toy_scene_arrays(rng)
    labels = np.array([1] * 35 + [2] * 5 + [3] * 40)
    report = check_initial_clustering(Clustering(labels), pts, truth,
                                      tau=1.0, alpha=2.0, min_size=10)
    assert not report.passed
    assert report.cluster_size_ok == (True, False, True)


def test_clustering_validation_and_compact():
    clustering = Clustering([1, 1, 3, 0], num_clusters=3)
    np.testing.assert_array_equal(clustering.sizes(), [1, 2, 0, 1])
    compacted = compact(clustering)
    np.testing.assert_array_equal(compacted.labels, [1, 1, 2, 0])
    assert compacted.num_clusters == 2
    assert compact(compacted) is compacted
    with pytest.raises(ValueError):
        Clustering([-1, 0, 1])
    with pytest.raises(ValueError):
        Clustering([0, 5], num_clusters=3)


def test_keep_renumbers_survivors_in_id_order():
    clustering = Clustering([3, 1, 2, 0, 3, 2], num_clusters=3)
    kept = clustering.keep([False, True, True])
    np.testing.assert_array_equal(kept.labels, [2, 0, 1, 0, 2, 1])
    assert kept.num_clusters == 2
    assert clustering.keep([True, True, True]) is clustering


def test_groups_are_each_ids_members_in_index_order(rng):
    # id 3 is empty and id 0 is no group
    clustering = Clustering([4, 1, 2, 0, 2, 1, 2, 4], num_clusters=4)
    groups = clustering.groups()
    assert [g.tolist() for g in groups] == [[1, 5], [2, 4, 6], [], [0, 7]]
    assert Clustering(np.zeros(3, dtype=np.int64)).groups() == []
    labels = rng.integers(0, 40, 5000)
    clustering = Clustering(labels, num_clusters=45)
    groups = clustering.groups()
    assert len(groups) == 45
    for j, group in enumerate(groups, start=1):
        assert group.dtype == np.intp
        np.testing.assert_array_equal(group, clustering.members(j))


def test_by_size_orders_by_size_then_first_member():
    # sizes: id 1 -> 2, id 2 -> 3, id 3 -> 0 (empty), id 4 -> 2 (first member 0)
    clustering = Clustering([4, 1, 2, 0, 2, 1, 2, 4], num_clusters=4)
    ordered = clustering.by_size()
    np.testing.assert_array_equal(ordered.labels, [2, 3, 1, 0, 1, 3, 1, 2])
    assert ordered.num_clusters == 3


def test_renumber_maps_the_listed_ids_in_order_and_drops_the_rest():
    clustering = Clustering([3, 1, 2, 0, 3, 2, 4], num_clusters=4)
    renumbered = clustering.renumber([3, 1])
    np.testing.assert_array_equal(renumbered.labels, [1, 2, 0, 0, 1, 0, 0])
    assert renumbered.num_clusters == 2
    assert clustering.renumber([]).num_clusters == 0
    assert not clustering.renumber(np.array([], dtype=np.int64)).labels.any()


def test_contingency_counts_cluster_truth_pairs():
    clustering = Clustering([1, 1, 2, 0, 2, 2], num_clusters=3)
    table = clustering.contingency([1, 0, 1, 2, 2, 2])
    np.testing.assert_array_equal(table, [[0, 0, 1], [1, 1, 0], [0, 1, 2], [0, 0, 0]])
    with pytest.raises(ValueError):
        clustering.contingency([1, 2])
