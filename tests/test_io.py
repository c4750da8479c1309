import hashlib

import numpy as np
import pytest

from conftest import read_bench_csv, read_result
from multireg.bounds import run_consistency_bench
from multireg.clustering import Clustering
from multireg.io import (BENCH_CSV_COLUMNS, bench_csv_text, fmt_float, read_clustering,
                         read_scene, result_to_text, scene_to_text, write_bench_csv,
                         write_clustering, write_result, write_scene)
from multireg.scenes import SceneSpec, generate_scene


@pytest.fixture
def scene():
    spec = SceneSpec(num_objects=2, points_per_object=(25, 15), sigma=0.01,
                     tau=0.3, bound_b=4.0, num_outliers=3, seed=77)
    return generate_scene(spec)


def test_float_format_is_lossless():
    for value in (0.1, np.pi, 1e-17, -3.0, 2.54e-14, 1.0 / 3.0, 6.02e23):
        assert float(fmt_float(value)) == value


def test_scene_roundtrip_is_lossless(scene, tmp_path):
    path = tmp_path / "scene.txt"
    write_scene(scene, path)
    loaded = read_scene(path)
    assert loaded.spec == scene.spec
    np.testing.assert_array_equal(loaded.true_labels, scene.true_labels)
    np.testing.assert_array_equal(loaded.correspondences.a, scene.correspondences.a)
    np.testing.assert_array_equal(loaded.correspondences.b, scene.correspondences.b)
    for got, want in zip(loaded.true_transforms, scene.true_transforms):
        np.testing.assert_array_equal(got.rotation, want.rotation)
        np.testing.assert_array_equal(got.translation, want.translation)
    # writing the loaded scene reproduces the bytes
    assert scene_to_text(loaded) == path.read_text()


# sha256 of written scene files, recorded with the per-value formatting that
# the one-format-per-row writer replaced: the criterion-4 shape and the
# outlier_baselines benchmark shape
SCENE_SHA256 = {
    ("criterion_4", 0): "ea87e8b0adfb2afb1e93af98f99338ee428a9e6720f0695e185d84c7da1a9e89",
    ("criterion_4", 1): "bd39e097c36ed9511ed7904dfc8817376cf741c7d684d7b34603047680a987ea",
    ("criterion_4", 2): "416cf6139fe82508dc58f9464fdc88562bcd7197d1bd4f62e8e87a6e9b632ec8",
    ("outliers", 0): "5b558fb72393bd7d18fed3314f3018b63ac7f6ed79a5968b73acb17d88d3f192",
    ("outliers", 1): "c4f32fc68c7ba113544e7622c57ebd1f62f85222fa5451c479cb982e9ec0bb65",
    ("outliers", 2): "febf2ff4c09386ddedff79954f5fd4976b0c68b58df61b7ab783da9a983c301b",
}
SCENE_SHAPES = {
    "criterion_4": dict(points_per_object=(2000, 2000, 2000), sigma=0.005 * 0.3),
    "outliers": dict(points_per_object=(600, 600, 600), sigma=0.015, num_outliers=300),
}


@pytest.mark.parametrize("shape, seed", sorted(SCENE_SHA256))
def test_written_scene_matches_recorded_bytes(tmp_path, shape, seed):
    spec = SceneSpec(num_objects=3, tau=0.3, bound_b=4.0, seed=seed, **SCENE_SHAPES[shape])
    path = tmp_path / "scene.txt"
    write_scene(generate_scene(spec), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SCENE_SHA256[(shape, seed)]
    assert scene_to_text(read_scene(path)) == path.read_text()


def test_scene_reader_rejects_missing_header(tmp_path):
    path = tmp_path / "broken.txt"
    path.write_text("# version 1\n# n 0\n")
    with pytest.raises(ValueError, match="header key"):
        read_scene(path)


def test_clustering_roundtrip(tmp_path):
    labels = np.array([0, 1, 1, 2, 0, 3])
    path = tmp_path / "labels.txt"
    write_clustering(Clustering(labels), path)
    assert path.read_text() == "0\n1\n1\n2\n0\n3\n"
    np.testing.assert_array_equal(read_clustering(path).labels, labels)


def test_result_roundtrip(tmp_path):
    pairs = [("version", "1"), ("metrics.mask_iou", fmt_float(0.9375)),
             ("labels", "1,1,2,0"), ("em.converged", "true")]
    path = tmp_path / "result.txt"
    write_result(pairs, path)
    record = read_result(path)
    assert record["metrics.mask_iou"] == fmt_float(0.9375)
    assert float(record["metrics.mask_iou"]) == 0.9375
    # rewriting the parsed record reproduces the bytes
    assert result_to_text(record.items()) == path.read_text()


def test_bench_csv_schema(tmp_path):
    trials, _ = run_consistency_bench([50], sigma=0.1, bound_b=1.0, delta=0.05,
                                      trials=4, seed=1)
    path = tmp_path / "bench.csv"
    write_bench_csv(trials, path)
    header = path.read_text().splitlines()[0]
    assert header.split(",") == list(BENCH_CSV_COLUMNS)
    assert len(BENCH_CSV_COLUMNS) == 10
    rows = read_bench_csv(path)
    assert len(rows) == 4
    for row in rows:
        assert len(row) == 10
        assert row["violated_flags"] in {"00", "01", "10", "11"}
        assert float(row["err_rot"]) <= float(row["bound_rot"]) or row["violated_flags"][0] == "1"
    # deterministic bytes
    assert bench_csv_text(trials) == path.read_text()
