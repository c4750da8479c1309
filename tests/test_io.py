import hashlib
import re
import tracemalloc

import numpy as np
import pytest

from conftest import read_bench_csv, read_result, scene_to_text
import multireg.io
from multireg.bounds import run_consistency_bench
from multireg.clustering import Clustering
from multireg.io import (BENCH_CSV_COLUMNS, _scene_blocks, bench_csv_text, clustering_to_text, fmt_float,
                         read_clustering, read_scene, result_to_text, write_bench_csv,
                         write_clustering, write_result, write_scene)
from multireg.geometry import CorrespondenceSet
from multireg.scenes import LabeledScene, SceneSpec, generate_scene


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


@pytest.mark.parametrize("block_rows", [1, 7, 4096])
def test_scene_text_is_the_same_in_any_block_size(scene, tmp_path, monkeypatch, block_rows):
    whole = scene_to_text(scene)
    monkeypatch.setattr(multireg.io, "_BLOCK_ROWS", block_rows)
    blocks = list(_scene_blocks(scene))
    # the header, the 43 correspondence lines in blocks, one block per POSE line
    assert len(blocks) == 1 + -(-43 // block_rows) + 2
    assert all(block.endswith("\n") for block in blocks)
    path = tmp_path / "scene.txt"
    write_scene(scene, path)
    assert path.read_text() == "".join(blocks) == whole


def test_write_scene_memory_stays_flat_past_one_block(scene, tmp_path):
    # the writer holds one block of 4096 lines at a time: about 2.3 MB at
    # 10 000 rows and at 40 000 (5 MB of text), where writing the whole text
    # as one string peaked at 6.9 and 27.5 MB
    rng = np.random.default_rng(0)

    def peak(rows):
        a, b = rng.uniform(-1.0, 1.0, (2, rows, 3))
        big = LabeledScene(CorrespondenceSet(a, b), rng.integers(0, 3, rows),
                           scene.true_transforms, scene.spec)
        path = tmp_path / f"{rows}.txt"
        tracemalloc.start()
        try:
            write_scene(big, path)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            assert path.read_text() == scene_to_text(big)

    assert peak(40_000) < 1.5 * peak(10_000)


def test_scene_reader_rejects_missing_header(tmp_path):
    path = tmp_path / "broken.txt"
    path.write_text("# version 1\n# n 0\n")
    with pytest.raises(ValueError, match="header key"):
        read_scene(path)


@pytest.mark.parametrize("first, kind, radius", [(0, "an a", 4.0), (3, "a b", 12.0)])
def test_scene_reader_refuses_points_beyond_the_synth_balls(scene, tmp_path, first, kind, radius):
    # a-points lie in the ball of radius B = 4, b-points in that of 3B = 12
    # (above 2B + sqrt(3) sigma here): a point on the sphere reads, and one
    # beyond it is refused by the number of its correspondence line
    path = tmp_path / "scene.txt"
    write_scene(scene, path)
    lines = path.read_text().splitlines()
    fields = lines[8 + 6].split()  # 8 header lines, then the 7th correspondence

    def read_with(x):
        fields[first:first + 3] = [fmt_float(x), "0", "0"]
        path.write_text("\n".join(lines[:14] + [" ".join(fields)] + lines[15:]) + "\n")
        return read_scene(path)

    assert len(read_with(radius).correspondences) == 43
    with pytest.raises(ValueError, match=f"^correspondence line 7 has {kind}-point outside "
                                         f"the ball of radius {radius:g}$"):
        read_with(radius * 1.0001)


@pytest.mark.parametrize("key", ["version", "n", "M", "sigma", "tau", "B", "seed",
                                 "separation_margin"])
def test_scene_reader_refuses_a_repeated_header_key(scene, tmp_path, key):
    # the same value twice is refused too; a repeated comment word is not a key
    path = tmp_path / "scene.txt"
    write_scene(scene, path)
    lines = path.read_text().splitlines(keepends=True)
    at = next(i for i, line in enumerate(lines) if line.split()[:2] == ["#", key])
    path.write_text("".join(lines[:at + 1] + [lines[at], "# note a\n", "# note b\n"]
                            + lines[at + 1:]))
    with pytest.raises(ValueError, match=f"^header key '{key}' appears more than once$"):
        read_scene(path)
    path.write_text("".join(lines[:at + 1] + ["# note a\n", "# note b\n"] + lines[at + 1:]))
    assert read_scene(path).spec == scene.spec


def test_clustering_roundtrip(tmp_path):
    labels = np.array([0, 1, 1, 2, 0, 3])
    path = tmp_path / "labels.txt"
    write_clustering(Clustering(labels), path)
    assert path.read_text() == "0\n1\n1\n2\n0\n3\n"
    np.testing.assert_array_equal(read_clustering(path).labels, labels)


def _labels_by_line(path):
    """``read_clustering``'s labels parsed one line of the file at a time."""
    with open(path, "r", encoding="ascii") as fh:
        return [int(line) for line in fh if line.strip()]


@pytest.mark.parametrize("text", [
    "1\r\n2\r\n\r\n0\r\n",  # CRLF, and a blank line
    "1\r2\r0",  # old Mac newlines, none after the last label
    "  2 \n\t1\n\n\n0\x0c\n\x0b3\n",  # whitespace int() strips
    "-0\n 002 \n",  # a '-' and leading zeros
    "1\n2\x0c2\n",  # a form feed inside a line: one bad label, not two
    "1\n2\x1e0\n",  # a record separator likewise
    "1\nx\n",
    "",
])
def test_clustering_reader_reads_the_lines_iteration_gives(tmp_path, text):
    path = tmp_path / "labels.txt"
    path.write_bytes(text.encode("ascii"))
    try:
        expected = _labels_by_line(path)
    except ValueError as exc:
        with pytest.raises(ValueError) as err:
            read_clustering(path)
        assert str(err.value) == str(exc)
    else:
        np.testing.assert_array_equal(read_clustering(path).labels, expected)


@pytest.mark.parametrize("text, label, line", [
    ("1_0\n0\n", "1_0", 1),
    ("0\n+1\n", "+1", 2),
    ("0\n1\n\n 1_000 \r\n", "1_000", 4),  # the blank line counts
    ("-0\n+0\n", "+0", 2),
], ids=["underscore", "plus", "padded_underscore", "plus_zero"])
def test_clustering_reader_refuses_what_int_reads_beyond_digits(tmp_path, text, label, line):
    # int() also takes underscores between digits and a leading '+'
    path = tmp_path / "labels.txt"
    path.write_bytes(text.encode("ascii"))
    with pytest.raises(ValueError, match=f"^label '{re.escape(label)}' on line {line} is not "
                                         "decimal digits with an optional leading '-'$"):
        read_clustering(path)


def test_clustering_text_is_one_decimal_per_line():
    labels = np.random.default_rng(0).integers(0, 10 ** 6, 5000)
    assert clustering_to_text(Clustering(labels)) == "".join(f"{int(v)}\n" for v in labels)
    assert clustering_to_text(Clustering(np.zeros(0, dtype=np.int64))) == ""


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
