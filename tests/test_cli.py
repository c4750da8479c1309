import dataclasses
import hashlib
import math
import os
import subprocess
import sys
import threading
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

import multireg
from conftest import read_result
from multireg import cli, horn
from multireg.baselines import RansacConfig, TLinkageConfig
from multireg.cli import main
from multireg.clustering import Clustering
from multireg.em import EMConfig
from multireg.io import read_clustering, read_scene, write_clustering
from multireg.scenes import SceneSpec


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture
def scene_file(tmp_path):
    path = tmp_path / "scene.txt"
    code = run_cli("synth", "--seed", "5", "--out", str(path),
                   "--set", "scene.num_objects=2",
                   "--set", "scene.points_per_object=80,60",
                   "--set", "scene.sigma=0.0",
                   "--set", "scene.num_outliers=0")
    assert code == 0
    return path


def test_synth_roundtrip_and_determinism(tmp_path):
    out1 = tmp_path / "a.txt"
    out2 = tmp_path / "b.txt"
    args = ["synth", "--seed", "9", "--set", "scene.num_objects=2",
            "--set", "scene.points_per_object=40,30", "--set", "scene.num_outliers=4"]
    assert run_cli(*args, "--out", str(out1)) == 0
    assert run_cli(*args, "--out", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()
    scene = read_scene(out1)
    assert len(scene.correspondences) == 74
    assert scene.spec.seed == 9


def test_run_em_noiseless_good_split(tmp_path, scene_file):
    out = tmp_path / "result.txt"
    labels_out = tmp_path / "pred.txt"
    code = run_cli("run", "--seed", "5", "--algorithm", "em", "--out", str(out),
                   "--set", f"scene.file={scene_file}",
                   "--set", "init.kind=good-split",
                   "--set", "out_labels=" + str(labels_out))
    assert code == 0
    record = read_result(out)
    assert record["result.status"] == "ok"
    assert float(record["metrics.rotation_error"]) <= 1e-9
    assert float(record["metrics.mask_iou"]) == 1.0
    assert record["em.converged"] == "true"
    scene = read_scene(scene_file)
    assert len(read_clustering(labels_out)) == len(scene.correspondences)


def test_run_is_byte_deterministic(tmp_path, scene_file):
    out = tmp_path / "result.txt"
    outs = []
    for _ in range(2):
        code = run_cli("run", "--seed", "5", "--algorithm", "em", "--out", str(out),
                       "--set", f"scene.file={scene_file}",
                       "--set", "init.kind=good-split")
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_run_naive_on_truth_matches_em(tmp_path, scene_file):
    scene = read_scene(scene_file)
    truth_labels = tmp_path / "truth.txt"
    write_clustering(Clustering(scene.true_labels), truth_labels)

    em_out = tmp_path / "em.txt"
    naive_out = tmp_path / "naive.txt"
    for algorithm, out in (("em", em_out), ("naive-horn-per-cluster", naive_out)):
        code = run_cli("run", "--seed", "5", "--algorithm", algorithm,
                       "--out", str(out), "--set", f"scene.file={scene_file}",
                       "--set", "init.kind=from-file",
                       "--set", f"init.file={truth_labels}")
        assert code == 0
    em_record = read_result(em_out)
    naive_record = read_result(naive_out)
    # from a ground-truth start both report the same (exact) poses
    for key in ("models.1.rotation", "models.1.translation",
                "models.2.rotation", "models.2.translation"):
        assert em_record[key] == naive_record[key]


def test_run_sransac_not_better_than_em(tmp_path, scene_file):
    em_out = tmp_path / "em.txt"
    sr_out = tmp_path / "sr.txt"
    for algorithm, out in (("em", em_out), ("sransac", sr_out)):
        code = run_cli("run", "--seed", "5", "--algorithm", algorithm,
                       "--out", str(out), "--set", f"scene.file={scene_file}",
                       "--set", "init.kind=good-split")
        assert code == 0
    em_iou = float(read_result(em_out)["metrics.mask_iou"])
    sr_iou = float(read_result(sr_out)["metrics.mask_iou"])
    assert sr_iou <= em_iou + 1e-12


def test_run_algorithm_failure_exits_1(tmp_path, scene_file):
    scene = read_scene(scene_file)
    # every initial cluster below m_min: pruning removes them all
    singletons = tmp_path / "singletons.txt"
    write_clustering(Clustering(np.arange(1, len(scene.correspondences) + 1)), singletons)
    out = tmp_path / "r.txt"
    code = run_cli("run", "--algorithm", "em", "--out", str(out),
                   "--set", f"scene.file={scene_file}",
                   "--set", "init.kind=from-file",
                   "--set", f"init.file={singletons}")
    assert code == 1
    record = read_result(out)
    assert record["result.status"] == "error"
    assert "no viable clusters" in record["result.error"]


class Refusal(NamedTuple):
    """A command that must be refused. ``argv``, ``message`` and a ``_file``
    setup's text may name ``{tmp}`` (the test's directory), ``{scene}`` (a
    two-object scene there) and ``{labels}`` (its truth labels)."""
    argv: list
    setup: object = None  # one of the file edits below, run before the command
    message: str = "error: "  # what stderr starts with; one ending in a newline is the whole line


def _scene_edit(edit):
    """Setup: the scene file's lines become ``edit(lines)``."""
    def setup(paths):
        lines = paths["scene"].read_text().splitlines()
        paths["scene"].write_text("\n".join(edit(lines)) + "\n")
    return setup


def _first_row(edit):
    """Setup: the scene's first correspondence line becomes ``edit(fields)``."""
    def edit_lines(lines):
        first = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        return lines[:first] + [" ".join(edit(lines[first].split()))] + lines[first + 1:]
    return _scene_edit(edit_lines)


def _header(key, value):
    """Setup: the scene's header line ``# key`` reads ``value``."""
    return _scene_edit(lambda lines: [f"# {key} {value}" if line.split()[:2] == ["#", key]
                                      else line for line in lines])


def _repeated_pose(lines):
    """A third POSE line gives object 1 the motion of object 2."""
    pose_2 = next(line for line in lines if line.startswith("POSE 2 "))
    return lines + ["POSE 1 " + pose_2[len("POSE 2 "):]]


def _repeated_tau(lines):
    """A second ``# tau`` line follows the first."""
    at = next(i for i, line in enumerate(lines) if line.startswith("# tau "))
    return lines[:at + 1] + ["# tau 0.5"] + lines[at + 1:]


def _pose_1(edit):
    """Setup: the fields of the scene's POSE 1 line become ``edit(fields)``."""
    return _scene_edit(lambda lines: [" ".join(edit(line.split())) if line.startswith("POSE 1 ")
                                      else line for line in lines])


def _with_bom(paths):
    """Setup: the scene file starts with a UTF-8 byte-order mark."""
    paths["scene"].write_bytes(b"\xef\xbb\xbf" + paths["scene"].read_bytes())


def _truncated(paths):
    """Setup: the scene file loses its second half."""
    text = paths["scene"].read_text()
    paths["scene"].write_text(text[:len(text) // 2])


def _first_label(value):
    """Setup: the truth labels' first line reads ``value``."""
    def setup(paths):
        paths["labels"].write_text(f"{value}\n" + paths["labels"].read_text().split("\n", 1)[1])
    return setup


def _file(name, text):
    """Setup: ``{tmp}/name`` holds ``text``."""
    return lambda paths: (paths["tmp"] / name).write_text(text.format(**paths), encoding="utf-8")


def _mkdir(name):
    """Setup: ``{tmp}/name`` is a directory."""
    return lambda paths: (paths["tmp"] / name).mkdir()


_SYNTH = ["synth", "--out", "{tmp}/r.txt"]
_RUN = ["run", "--set", "scene.file={scene}"]
_SRANSAC = ["run", "--algorithm", "sransac", "--set", "scene.file={scene}"]
_GOOD_SPLIT = [*_RUN, "--set", "init.kind=good-split"]
_FROM_FILE = [*_RUN, "--set", "init.kind=from-file", "--set", "init.file={labels}"]
_EVAL = ["eval", "{labels}", "{scene}"]
_BENCH = ["bench", "--out", "{tmp}/b.csv"]
_BENCH_BOTH = [*_BENCH, "--set", "bench.suite=both"]
_HUGE = 99999999999999999999  # beyond int64, numpy's row counts and SeedSequence.spawn


def _jammed(objects):
    """A count under the packing bound that random sequential placement
    cannot reach: 64 attempts of 200 tries per object."""
    return Refusal(
        [*_SYNTH, "--set", "scene.points_per_object=5", "--set", f"scene.num_objects={objects}"],
        message=f"error: infeasible scene spec: no valid scene in 64 attempts ({objects} ")


# Every input the CLI must refuse (exit 2, one ``error:`` line, nothing
# written). Each key is one test: a dict of rows is parametrized by its keys,
# and a single row is a plain test. The last --set (or --seed) of a row is the
# setting it refuses.
REFUSALS = {
    "test_bad_input_file_exits_2": {
        "_non_scene_to_eval": Refusal(["eval", "{labels}", "{labels}"]),
        "_truncated_scene_to_run": Refusal(_RUN, _truncated),
        "_short_row_to_run": Refusal(_RUN, _first_row(lambda f: f[:-1])),
        "_label_above_m_to_eval": Refusal(_EVAL, _first_row(lambda f: f[:-1] + ["3"])),
        "_negative_label_to_eval": Refusal(_EVAL, _first_label(-1)),
        "_negative_label_to_run": Refusal(_FROM_FILE, _first_label(-1)),
        "_label_beyond_int64_to_eval": Refusal(_EVAL, _first_label(_HUGE)),
        "_label_below_int64_to_eval": Refusal(_EVAL, _first_label(-_HUGE)),
        "_label_beyond_int64_to_run": Refusal(_FROM_FILE, _first_label(_HUGE)),
        # fits int64, but would size every per-cluster table by 10^12
        "_label_above_count_to_eval": Refusal(_EVAL, _first_label(10 ** 12)),
        "_alpha_below_one_to_run": Refusal(
            [*_GOOD_SPLIT, "--set", "init.alpha=0.5"],
            message="error: invalid init config: init.alpha must exceed 1\n"),
        "_zero_fragments_to_run": Refusal(
            [*_GOOD_SPLIT, "--set", "init.fragments=0"],
            message="error: invalid init config: init.fragments must be at least 1\n"),
        "_too_many_fragments_to_run": Refusal([*_GOOD_SPLIT, "--set", "init.fragments=70"]),
        "_unknown_init_kind_to_sransac": Refusal([*_SRANSAC, "--set", "init.kind=bogus"]),
        "_synth_sigma_nan": Refusal([*_SYNTH, "--set", "scene.sigma=nan"]),
        "_synth_sigma_inf": Refusal([*_SYNTH, "--set", "scene.sigma=inf"]),
        # the noise draw on [-sigma, sigma] would have high < low bit for bit
        "_synth_sigma_negative_zero": Refusal([*_SYNTH, "--set", "scene.sigma=-0.0"]),
        "_synth_tau_nan": Refusal([*_SYNTH, "--set", "scene.tau=nan"]),
        # positive, but coordinates up to B = 4 are beyond int64 cells of tau/2
        "_synth_tau_tiny": Refusal(
            [*_SYNTH, "--set", "scene.tau=1e-19"],
            message="error: invalid scene spec: scene.bound_b 4 puts coordinates beyond int64 "
                    "cells at scene.tau 1e-19\n"),
        "_em_tau_tiny_to_run": Refusal(
            [*_RUN, "--set", "em.tau=1e-19"],
            message="error: invalid em config: em.tau 1e-19 is too small for int64 cells of "
                    "coordinates up to "),
        # a ball of radius 1e20: its points are beyond int64 cells of tau/2
        "_synth_bound_b_beyond_int64_cells": Refusal(
            [*_SYNTH, "--set", f"scene.bound_b={_HUGE}"],
            message="error: invalid scene spec: scene.bound_b 1e+20 puts coordinates beyond "
                    "int64 cells at scene.tau 0.3\n"),
        # a blob of radius 2 tau does not fit in the ball
        "_synth_tau_huge_blob_beyond_bound_b": Refusal(
            [*_SYNTH, "--set", f"scene.tau={_HUGE}"],
            message="error: infeasible scene spec: the blob radius 2 * scene.tau 1e+20 exceeds "
                    "scene.bound_b 4\n"),
        "_synth_bound_b_below_blob_radius": Refusal(
            [*_SYNTH, "--set", "scene.bound_b=1e-308"],
            message="error: infeasible scene spec: the blob radius 2 * scene.tau 0.3 exceeds "
                    "scene.bound_b 1e-308\n"),
        "_tau_nan_header_to_run": Refusal(_RUN, _header("tau", "nan")),
        "_sigma_nan_header_to_run": Refusal(_RUN, _header("sigma", "nan")),
        "_sigma_inf_header_to_run": Refusal(_RUN, _header("sigma", "inf")),
        # finite, but the noise range 2 sigma is not
        "_synth_sigma_huge": Refusal([*_SYNTH, "--set", "scene.sigma=1e308"]),
        # finite, but the outlier range 6 B is not
        "_synth_bound_b_huge": Refusal([*_SYNTH, "--set", "scene.bound_b=1e308"]),
        # 200 blobs 1.8 apart in the default ball: refused before any packing try
        "_synth_objects_cannot_be_packed": Refusal(
            [*_SYNTH, "--set", "scene.points_per_object=5", "--set", "scene.num_objects=200"]),
        # the slowest jammed count; console_cli.py runs 40 and 60 as well
        "_synth_100_objects_jammed": _jammed(100),
        # refused by the packing bound before one count is repeated 10^12 times
        "_synth_objects_too_many_to_repeat": Refusal(
            [*_SYNTH, "--set", f"scene.num_objects={10 ** 12}"]),
        # a NaN tau fails no packing bound, so it is refused before the repeat too
        "_synth_tau_nan_objects_too_many_to_repeat": Refusal(
            [*_SYNTH, "--set", f"scene.num_objects={10 ** 12}", "--set", "scene.tau=nan"]),
        # at tau 1e-6 the packing bound admits 5e17 objects: 10^15 point counts
        # are more than any address space holds, and the repeat is refused
        "_synth_objects_too_many_to_hold": Refusal(
            [*_SYNTH, "--set", "scene.tau=1e-6", "--set", f"scene.num_objects={10 ** 15}"],
            message="error: invalid scene spec: scene.num_objects "),
        # more rows than an (n, 3) float array can have
        "_synth_points_per_object_beyond_numpy": Refusal(
            [*_SYNTH, "--set", f"scene.points_per_object={_HUGE}"]),
        # numpy can index 10^17 rows, but no address space holds their 2.4e18 bytes
        "_synth_points_per_object_beyond_memory": Refusal(
            [*_SYNTH, "--set", f"scene.points_per_object={10 ** 17}"],
            message="error: out of memory: "),
        "_synth_num_outliers_beyond_numpy": Refusal(
            [*_SYNTH, "--set", f"scene.num_outliers={_HUGE}"]),
        "_synth_separation_margin_below_tau": Refusal(
            [*_SYNTH, "--set", "scene.separation_margin=0.1"],
            message="error: invalid scene spec: scene.separation_margin must be finite and "
                    "exceed tau\n"),
        "_bench_trials_beyond_seeds": Refusal([*_BENCH, "--set", f"bench.trials={_HUGE}"]),
        "_bench_noise_ratio_trials_beyond_seeds": Refusal(
            [*_BENCH, "--set", "bench.suite=noise-ratio",
             "--set", f"bench.noise_ratio_trials={_HUGE}"]),
        "_bench_m_beyond_numpy": Refusal(
            [*_BENCH, "--set", "bench.trials=3", "--set", f"bench.m_values={_HUGE}"]),
        # numpy can index 3e17 rows, but no address space holds their 7.2e18 bytes
        "_bench_m_beyond_memory": Refusal(
            [*_BENCH, "--set", "bench.trials=1", "--set", "bench.m_values=300000000000000000"],
            message="error: out of memory: "),
        # the consistency suite runs to its end beside the failed draw; the
        # CSV is written only after both suites, so it is never left behind
        "_bench_both_noise_ratio_m_beyond_memory": Refusal(
            [*_BENCH_BOTH, "--set", "bench.m_values=100", "--set", "bench.trials=2",
             "--set", "bench.noise_ratio_m=300000000000000000"],
            message="error: out of memory: "),
        "_bench_m_values_empty": Refusal(
            [*_BENCH, "--set", "bench.m_values="],
            message="error: config key 'bench.m_values' is required\n"),
        "_bench_noise_ratio_m_beyond_numpy": Refusal(
            [*_BENCH, "--set", "bench.suite=noise-ratio",
             "--set", f"bench.noise_ratio_m={_HUGE}"]),
        "_bench_unknown_suite": Refusal(
            [*_BENCH, "--set", "bench.suite=bogus"],
            message="error: config key 'bench.suite': expected one of consistency, noise-ratio, "
                    "both, got 'bogus'\n"),
        "_em_sigma_floor_square_overflows_to_run": Refusal(
            [*_RUN, "--set", "em.sigma_floor=1e308"]),
        # a square below the smallest normal float: sigma_hat^2 could round to 0
        "_em_sigma_floor_square_underflows_to_run": Refusal(
            [*_RUN, "--set", "em.sigma_floor=1e-160"],
            message="error: invalid em config: em.sigma_floor must be positive, with a finite "
                    "square of at least the smallest normal float\n"),
        # more points than any scene can hold: pruning would dissolve every cluster
        "_em_m_min_beyond_numpy_to_run": Refusal(
            [*_RUN, "--set", f"em.m_min={_HUGE}"],
            message="error: invalid em config: em.m_min must lie in 3.."),
        # the header says B = 4
        "_a_beyond_bound_b_to_eval": Refusal(
            _EVAL, _first_row(lambda f: ["1e308"] + f[1:]),
            message="error: cannot read {scene}: correspondence line 1 has an a-point outside "
                    "the ball of radius 4\n"),
        "_b_beyond_synth_targets_to_sransac": Refusal(
            _SRANSAC, _first_row(lambda f: f[:3] + ["1e308"] + f[4:]),
            message="error: cannot read {scene}: correspondence line 1 has a b-point outside "
                    "the ball of radius 12\n"),
        # a NaN coordinate is outside every ball
        "_a_nan_to_run": Refusal(
            _RUN, _first_row(lambda f: ["nan"] + f[1:]),
            message="error: cannot read {scene}: correspondence line 1 has an a-point outside "
                    "the ball of radius 4\n"),
        "_b_nan_to_eval": Refusal(
            _EVAL, _first_row(lambda f: f[:3] + ["nan"] + f[4:]),
            message="error: cannot read {scene}: correspondence line 1 has a b-point outside "
                    "the ball of radius 12\n"),
        "_six_fields_to_eval": Refusal(
            _EVAL, _first_row(lambda f: f[:-1]),
            message="error: cannot read {scene}: correspondence line 1 has 6 fields, "
                    "expected 7\n"),
        "_eight_fields_to_run": Refusal(
            _RUN, _first_row(lambda f: f + ["0"]),
            message="error: cannot read {scene}: correspondence line 1 has 8 fields, "
                    "expected 7\n"),
        "_fractional_label_to_run": Refusal(
            _RUN, _first_row(lambda f: f[:-1] + ["1.5"]),
            message="error: cannot read {scene}: correspondence labels must be integers in "
                    "0..2\n"),
        "_nan_label_to_eval": Refusal(
            _EVAL, _first_row(lambda f: f[:-1] + ["nan"]),
            message="error: cannot read {scene}: correspondence labels must be integers in "
                    "0..2\n"),
        "_n_not_a_number_to_run": Refusal(
            _RUN, _header("n", "abc"),
            message="error: cannot read {scene}: header key 'n': invalid literal for int() with "
                    "base 10: 'abc'\n"),
        "_sigma_not_a_number_to_run": Refusal(
            _RUN, _header("sigma", "abc"),
            message="error: cannot read {scene}: header key 'sigma': could not convert string to "
                    "float: 'abc'\n"),
        "_seed_not_a_number_to_eval": Refusal(
            _EVAL, _header("seed", "abc"),
            message="error: cannot read {scene}: header key 'seed': invalid literal for int() "
                    "with base 10: 'abc'\n"),
        "_negative_sigma_header_to_eval": Refusal(
            _EVAL, _header("sigma", "-1"),
            message="error: cannot read {scene}: sigma must be nonnegative, with 2*sigma "
                    "finite\n"),
        "_zero_b_header_to_run": Refusal(
            _RUN, _header("B", "0"),
            message="error: cannot read {scene}: bound_b must be positive, with 6*bound_b "
                    "finite\n"),
        "_separation_margin_below_tau_header_to_run": Refusal(
            _RUN, _header("separation_margin", "0.1"),
            message="error: cannot read {scene}: separation_margin must be finite and exceed "
                    "tau\n"),
        # positive, but no grid of tau/2 cells indexes the a-points in int64
        "_tau_tiny_header_to_run": Refusal(
            _RUN, _header("tau", "5e-324"),
            message="error: cannot read {scene}: header tau 4.94066e-324 is too small for int64 "
                    "cells of coordinates up to 2.3005\n"),
        "_tau_tiny_header_to_eval": Refusal(
            _EVAL, _header("tau", "5e-324"),
            message="error: cannot read {scene}: header tau 4.94066e-324 is too small for int64 "
                    "cells of coordinates up to 2.3005\n"),
        "_repeated_tau_header_to_run": Refusal(
            _RUN, _scene_edit(_repeated_tau),
            message="error: cannot read {scene}: header key 'tau' appears more than once\n"),
        "_pose_not_a_rotation_to_run": Refusal(
            _RUN, _pose_1(lambda f: f[:2] + ["2"] + f[3:]),
            message="error: cannot read {scene}: POSE 1: matrix is not a rotation "
                    "(orthogonality/determinant check failed)\n"),
        "_pose_nan_to_eval": Refusal(
            _EVAL, _pose_1(lambda f: f[:2] + ["nan"] + f[3:]),
            message="error: cannot read {scene}: POSE 1: rotation must be finite\n"),
        "_pose_not_a_number_to_eval": Refusal(
            _EVAL, _pose_1(lambda f: f[:2] + ["abc"] + f[3:]),
            message="error: cannot read {scene}: POSE 1: could not convert string to float: "
                    "'abc'\n"),
        "_pose_id_not_a_number_to_run": Refusal(
            _RUN, _pose_1(lambda f: f[:1] + ["x"] + f[2:]),
            message="error: cannot read {scene}: POSE x: invalid literal for int() with base 10: "
                    "'x'\n"),
        "_short_pose_to_run": Refusal(
            _RUN, _pose_1(lambda f: f[:-1]),
            message="error: cannot read {scene}: a POSE line must carry an object id and 12 "
                    "numbers\n"),
        "_byte_order_mark_to_run": Refusal(
            _RUN, _with_bom,
            message="error: cannot read {scene}: 'ascii' codec can't decode byte 0xef in "
                    "position 0: ordinal not in range(128)\n"),
        "_empty_scene_to_eval": Refusal(
            _EVAL, _file("scene.txt", ""),
            message="error: cannot read {scene}: scene file is missing header key 'version'\n"),
        "_header_only_scene_to_run": Refusal(
            _RUN, _scene_edit(lambda lines: [line for line in lines if line.startswith("#")]),
            message="error: cannot read {scene}: expected 140 correspondence lines, found 0\n"),
        # int() reads "+140" as 140 and "0_5" as 5, float() "0_0" as 0.0: a
        # scene's numbers take the syntax of its label files and correspondence lines
        "_plus_n_header_to_run": Refusal(
            _RUN, _header("n", "+140"),
            message="error: cannot read {scene}: header key 'n': '+140' is not decimal digits "
                    "with an optional leading '-'\n"),
        "_plus_m_header_to_eval": Refusal(
            _EVAL, _header("M", "+2"),
            message="error: cannot read {scene}: header key 'M': '+2' is not decimal digits "
                    "with an optional leading '-'\n"),
        "_underscore_seed_header_to_eval": Refusal(
            _EVAL, _header("seed", "0_5"),
            message="error: cannot read {scene}: header key 'seed': '0_5' is not decimal "
                    "digits with an optional leading '-'\n"),
        "_underscore_sigma_header_to_run": Refusal(
            _RUN, _header("sigma", "0_0"),
            message="error: cannot read {scene}: header key 'sigma': '0_0' holds '_', which a "
                    "number may not\n"),
        "_plus_pose_id_to_run": Refusal(
            _RUN, _pose_1(lambda f: f[:1] + ["+1"] + f[2:]),
            message="error: cannot read {scene}: POSE +1: '+1' is not decimal digits with an "
                    "optional leading '-'\n"),
        "_underscore_pose_value_to_eval": Refusal(
            _EVAL, _pose_1(lambda f: f[:-1] + ["1_0"]),
            message="error: cannot read {scene}: POSE 1: '1_0' holds '_', which a number may "
                    "not\n"),
        # int() reads "1_0" as 10 and "+1" as 1
        "_underscore_label_to_eval": Refusal(
            _EVAL, _first_label("1_0"),
            message="error: cannot read {labels}: label '1_0' on line 1 is not decimal digits "
                    "with an optional leading '-'\n"),
        "_plus_label_to_run": Refusal(
            _FROM_FILE, _first_label("+1"),
            message="error: cannot read {labels}: label '+1' on line 1 is not decimal digits "
                    "with an optional leading '-'\n"),
        "_two_labels_on_a_line_to_eval": Refusal(
            _EVAL, _first_label("1 1"),
            message="error: cannot read {labels}: invalid literal for int() with base 10: "
                    "'1 1\\n'\n"),
        # two POSE lines are not 10^12: refused before a range of 1..M is built
        "_huge_m_header_to_run": Refusal(_RUN, _header("M", 10 ** 12)),
        "_unknown_key_set_to_run": Refusal(
            [*_RUN, "--set", "scene.num_outlier=5"],
            message="error: unknown config key 'scene.num_outlier'\n"),
        "_unknown_key_in_config_to_run": Refusal(
            ["run", "--config", "{tmp}/exp.cfg"],
            _file("exp.cfg", "scene.file = {scene}\nem.taus = 0.5\n")),
        "_non_ascii_config_to_run": Refusal(["run", "--config", "{tmp}/exp.cfg"],
                                            _file("exp.cfg", "scene.file = café.txt\n")),
        "_non_ascii_labels_out_to_run": Refusal([*_RUN, "--set", "out_labels={tmp}/café.txt"]),
        "_non_ascii_out_to_run": Refusal([*_RUN, "--out", "{tmp}/café.txt"]),
        "_non_ascii_out_to_synth": Refusal(["synth", "--out", "{tmp}/café.txt"]),
        "_negative_seed_to_sransac": Refusal([*_SRANSAC, "--seed", "-1"]),
        "_synth_out_in_missing_dir": Refusal(["synth", "--out", "{tmp}/missing/x.txt"]),
        "_run_out_in_missing_dir": Refusal([*_RUN, "--out", "{tmp}/missing/r.txt"]),
        "_bench_out_in_missing_dir": Refusal(["bench", "--out", "{tmp}/missing/b.csv", "--set",
                                              "bench.m_values=10", "--set", "bench.trials=3"]),
        "_eval_out_in_missing_dir": Refusal([*_EVAL, "--out", "{tmp}/missing/e.txt"]),
        "_labels_out_in_missing_dir_to_run": Refusal(
            [*_RUN, "--set", "out_labels={tmp}/missing/l.txt"]),
        "_out_is_a_directory_to_run": Refusal(
            [*_RUN, "--out", "{tmp}/results"], _mkdir("results")),
        "_out_is_the_scene_to_run": Refusal([*_RUN, "--out", "{scene}"]),
        "_out_is_the_init_file_to_run": Refusal([*_FROM_FILE, "--out", "{labels}"]),
        "_out_is_the_config_to_synth": Refusal(
            ["synth", "--config", "{tmp}/exp.cfg", "--out", "{tmp}/exp.cfg"],
            _file("exp.cfg", "scene.num_objects = 2\n")),
        "_out_is_the_scene_to_eval": Refusal([*_EVAL, "--out", "{scene}"]),
        "_out_is_the_labels_to_eval": Refusal([*_EVAL, "--out", "{labels}"]),
        # the same file twice, once through a detour
        "_out_is_labels_out_to_run": Refusal(
            [*_RUN, "--out", "{tmp}/R.txt", "--set", "out_labels={tmp}/sub/../R.txt"],
            _mkdir("sub")),
        "_repeated_pose_to_run": Refusal(_RUN, _scene_edit(_repeated_pose)),
        "_unknown_scene_version_to_run": Refusal(_RUN, _header("version", "7")),
    },
    # a bad command line: one line, not argparse's usage block; the values of
    # --seed and --algorithm are checked once, by their CONFIG kinds
    "test_bad_command_line_exits_2": {
        "_seed_not_a_number_to_run": Refusal(
            ["run", "--seed", "abc"],
            message="error: config key 'seed': invalid literal for int() with base 10: 'abc'\n"),
        "_plus_seed_flag_to_run": Refusal(
            ["run", "--seed", "+1"],
            message="error: config key 'seed': '+1' is not decimal digits with an optional "
                    "leading '-'\n"),
        "_unknown_algorithm_flag_to_run": Refusal(
            ["run", "--algorithm", "bogus"],
            message="error: config key 'algorithm': expected one of em, sransac, tlinkage, "
                    "naive-horn-per-cluster, got 'bogus'\n"),
        "_unknown_command": Refusal(
            ["bogus"], message="error: argument command: invalid choice: 'bogus' "),
        "_no_command": Refusal(
            [], message="error: the following arguments are required: command\n"),
        "_eval_without_a_scene": Refusal(
            ["eval", "onlyone"], message="error: the following arguments are required: scene\n"),
        "_misspelled_flag_to_run": Refusal(
            ["run", "--sett", "x=1"], message="error: unrecognized arguments: --sett x=1\n"),
    },
    # a value that its kind cannot parse is refused by key, before any config
    # object sees it; every other value is refused by the object, by key too
    "test_run_bad_algorithm_config_exits_2": {
        f"{algorithm}-{setting}": Refusal(
            ["run", "--algorithm", algorithm, "--set", "scene.file={scene}", "--set", setting],
            message=(f"error: config key '{setting.split('=')[0]}': " if setting.endswith("=abc")
                     else f"error: invalid {algorithm} config: {setting.split('=')[0]} "))
        for algorithm, setting in [
            ("sransac", "ransac.max_trials=0"), ("em", "em.m_min=2"), ("em", "em.tau=abc"),
            ("tlinkage", "tlinkage.tau_t=abc"), ("tlinkage", "tlinkage.num_hypotheses=-1"),
            ("em", "em.tau=nan"), ("em", "em.tau=inf"), ("em", "em.sigma_floor=nan"),
            ("em", "em.sigma_floor=inf"), ("sransac", "ransac.inlier_threshold=nan"),
            ("sransac", "ransac.inlier_threshold=inf"), ("tlinkage", "tlinkage.tau_t=nan"),
            ("tlinkage", "tlinkage.tau_t=inf"), ("em", "em.max_iters=0"),
            ("sransac", "ransac.min_model_inliers=2")]},
    # the one error line names the refused setting's key
    "test_bench_checks_every_setting_before_sampling": {
        setting: Refusal([*_BENCH_BOTH, "--set", setting],
                         message=f"error: {setting.split('=')[0]} ")
        for setting in [
            "bench.noise_ratio_m=10", "bench.noise_ratio_trials=0", "bench.noise_ratio_delta=1.5",
            "bench.m_values=100,2", "bench.trials=0", "bench.delta=0", "bench.bound_b=0",
            "bench.sigma=nan", "bench.sigma=inf", "bench.bound_b=inf", "bench.bound_b=1e200",
            "bench.sigma=1e160", "bench.m_values=,", "bench.noise_ratio_m=,", "bench.sigma=-0.0",
            "bench.delta=1e-320", "bench.noise_ratio_delta=1e-320"]},
    # 1e-320 lies in (0, 1), but the bounds take log(18/delta) and the
    # interval log(2/delta): an infinite bound would check nothing
    "test_bench_delta_overflow_names_its_key": {
        f"{key}-{overflow}": Refusal([*_BENCH_BOTH, "--set", f"{key}=1e-320"],
                                     message=f"error: {key} = 1e-320 overflows {overflow}\n")
        for key, overflow in [("bench.delta", "18/delta"),
                              ("bench.noise_ratio_delta", "2/delta")]},
    "test_bench_negative_sigma_exits_2_before_sampling": Refusal(
        [*_BENCH, "--set", "bench.sigma=-1"], message="error: bench.sigma must be nonnegative\n"),
    # 2 tau, the default separation_margin, overflows: the error is about tau
    "test_synth_huge_tau_names_tau": Refusal(
        [*_SYNTH, "--set", "scene.tau=1e308"],
        message="error: invalid scene spec: scene.tau must be positive, with 2*tau finite\n"),
    "test_objects_too_many_to_hold_name_their_key": Refusal(
        [*_SYNTH, "--set", "scene.tau=1e-6", "--set", f"scene.num_objects={10 ** 15}"],
        message="error: invalid scene spec: scene.num_objects "),
    "test_synth_infeasible_exits_2": Refusal(
        [*_SYNTH, "--set", "scene.tau=1.0", "--set", "scene.bound_b=1.0"],
        message="error: infeasible scene spec: the blob radius 2 * scene.tau 1 exceeds "
                "scene.bound_b 1\n"),
    "test_run_missing_scene_exits_2": Refusal(
        ["run", "--set", "scene.file=/nonexistent/scene.txt"],
        message="error: cannot read /nonexistent/scene.txt: "),
    "test_eval_length_mismatch_exits_2": Refusal(
        ["eval", "{tmp}/short.txt", "{scene}"], _file("short.txt", "1\n1\n0\n"),
        message="error: {tmp}/short.txt has 3 labels, not 140\n"),
    "test_unknown_algorithm_exits_2": Refusal(
        [*_RUN, "--set", "algorithm=magic"],
        message="error: config key 'algorithm': expected one of em, sransac, tlinkage, "
                "naive-horn-per-cluster, got 'magic'\n"),
}


def _files(root):
    """Every path under ``root``, a file with its bytes."""
    return {path: path.read_bytes() if path.is_file() else None for path in root.rglob("*")}


def _assert_refused(row, tmp_path, capsys, monkeypatch):
    """The contract of every row: exit 2 with exactly one ``error:`` line that
    starts with the row's message, and no file made or changed under
    ``tmp_path`` after the row's setup. In process, no bench samples either,
    unless the row expects the out-of-memory line that only sampling gives;
    through the installed script (``console_cli.py``) that check is void."""
    def refuse(*args, **kwargs):
        raise AssertionError("a bench ran before every setting was checked")

    if not row.message.startswith("error: out of memory: "):
        monkeypatch.setattr(cli, "run_consistency_bench", refuse)
        monkeypatch.setattr(cli, "run_noise_ratio_bench", refuse)
    paths = {"tmp": tmp_path, "scene": tmp_path / "scene.txt", "labels": tmp_path / "truth.txt"}
    write_clustering(Clustering(read_scene(paths["scene"]).true_labels), paths["labels"])
    if row.setup:
        row.setup(paths)
    argv = [arg.format(**paths) for arg in row.argv]
    if argv[:1] == ["run"]:
        argv[1:1] = ["--out", str(tmp_path / "r.txt")]  # a later --out of the row wins
    files = _files(tmp_path)
    capsys.readouterr()
    code = run_cli(*argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert err.startswith(row.message.format(**paths))
    assert "Traceback" not in err
    assert _files(tmp_path) == files


def _refusal_test(entry):
    """The test of one REFUSALS entry: a plain test of a single row, or one
    parametrized by the keys of a dict of rows."""
    if isinstance(entry, Refusal):
        def test(tmp_path, scene_file, capsys, monkeypatch):
            _assert_refused(entry, tmp_path, capsys, monkeypatch)
        return test

    @pytest.mark.parametrize("row", entry.values(), ids=list(entry))
    def test(row, tmp_path, scene_file, capsys, monkeypatch):
        _assert_refused(row, tmp_path, capsys, monkeypatch)
    return test


for _name, _entry in REFUSALS.items():
    globals()[_name] = _refusal_test(_entry)


def test_crlf_scene_and_label_files_are_read(tmp_path, scene_file, capsys):
    # CRLF copies of a scene and its truth labels run and evaluate as the
    # LF files do: the same records but for the paths in the config lines
    labels = tmp_path / "truth.txt"
    write_clustering(Clustering(read_scene(scene_file).true_labels), labels)
    crlf_scene, crlf_labels = tmp_path / "crlf_scene.txt", tmp_path / "crlf_truth.txt"
    for lf, crlf in ((scene_file, crlf_scene), (labels, crlf_labels)):
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    assert b"\r\n" in crlf_scene.read_bytes() and b"\r\n" in crlf_labels.read_bytes()
    records, reports = [], []
    for scene, init in ((scene_file, labels), (crlf_scene, crlf_labels)):
        out = tmp_path / "r.txt"
        assert run_cli("run", "--seed", "5", "--out", str(out), "--set", f"scene.file={scene}",
                       "--set", "init.kind=from-file", "--set", f"init.file={init}") == 0
        records.append({key: value for key, value in read_result(out).items()
                        if not key.startswith("config")})
        capsys.readouterr()
        assert run_cli("eval", str(init), str(scene)) == 0
        reports.append(capsys.readouterr().out)
    assert records[0] == records[1] and reports[0] == reports[1]
    assert records[0]["result.status"] == "ok"


def test_every_setting_is_refused_by_a_row():
    # every CONFIG key but the paths: the int, float, list and choice kinds and
    # the seed; a row refuses the key of its last --set or --seed
    settings = {key for key, (_, kind) in cli.CONFIG.items() if kind is not str}
    refused = set()
    for entry in REFUSALS.values():
        for row in [entry] if isinstance(entry, Refusal) else entry.values():
            keys = ["seed" if flag == "--seed" else value.split("=")[0]
                    for flag, value in zip(row.argv, row.argv[1:]) if flag in ("--set", "--seed")]
            refused.update(keys[-1:])
    assert settings - refused == set()


def test_seed_flag_and_setting_record_one_config(tmp_path):
    # --seed records its value as given, as --set seed= does: one config_hash
    records = []
    for seed in (["--seed", "010"], ["--set", "seed=010"]):
        out = tmp_path / "b.csv"
        assert run_cli("bench", "--out", str(out), "--set", "bench.m_values=10",
                       "--set", "bench.trials=3", *seed) == 0
        records.append(read_result(f"{out}.summary"))
    assert records[0] == records[1]
    assert records[0]["config.seed"] == "010"


_SWEEP = ["nan", "inf", "-inf", "-0.0", "0", "-1", "1e308", "1e-308", "5e-324", str(_HUGE),
          "1.5", "abc", "", "1,2", ",", "2", "2_0", "+2"]
# Each key is swept from a small base: the seed (as a --set: the --seed flag
# would override it) and the scene.* keys through a synth of 2 x 20 points,
# the bench.* keys through both benches at m = 10 (3 trials) and m = 6000 (2),
# the em.* and init.* keys through a good-split run, and the ransac.* and
# tlinkage.* keys through a run of their algorithm.
_SWEEP_SYNTH = [*_SYNTH, "--set", "scene.num_objects=2", "--set", "scene.points_per_object=20,20"]
_SWEEP_BENCH = [*_BENCH_BOTH, "--set", "bench.m_values=10", "--set", "bench.trials=3",
                "--set", "bench.noise_ratio_m=6000", "--set", "bench.noise_ratio_trials=2"]
_SWEEP_RUN = [*_GOOD_SPLIT, "--out", "{tmp}/r.txt"]
_SWEEP_BASES = {"seed": _SWEEP_SYNTH, "scene": _SWEEP_SYNTH, "bench": _SWEEP_BENCH,
                "ransac": [*_SRANSAC, "--out", "{tmp}/r.txt"],
                "tlinkage": ["run", "--algorithm", "tlinkage", "--set", "scene.file={scene}",
                             "--out", "{tmp}/r.txt"]}
# The exit code of each _SWEEP value in turn; None leaves the value out. An
# exit 2 must keep the refusal contract. Legal odd values: a seed beyond
# int64; one count for every object
# (scene.points_per_object=2), or objects of 1 and 2 points; a huge or
# subnormal scene.sigma or bench.sigma; a huge bench.bound_b at m = 10, and a
# subnormal one; an empty scene.separation_margin takes its default, an empty
# em.tau the scene's tau, a huge one puts every point in one cell, and EM
# converges long before a huge em.max_iters. An em.sigma_floor of 1e-308 or
# 5e-324 is refused: its square underflows, and a zero-residual fit would then
# score 0/0 = NaN. A huge or subnormal ransac.inlier_threshold or
# tlinkage.tau_t, and an empty one (a default from sigma), are legal; so are
# a huge ransac.min_model_inliers (no model is kept) and no T-Linkage
# hypotheses. Two counts are not swept at 99999999999999999999:
# ransac.max_trials would draw samples without end and T-Linkage's
# hypothesis list would grow until memory runs out. No value may hold '_'
# (int() and float() read "2_0" as 20), and an int takes no '+' (a float may).
_SWEEP_CODES = {
    "seed": [2] * 4 + [0] + [2] * 4 + [0] + [2] * 5 + [0, 2, 2],
    "scene.num_objects": [2] * 15 + [0, 2, 2],
    "scene.points_per_object": [2] * 13 + [0, 2, 0, 2, 2],
    "scene.sigma": [2, 2, 2, 2, 0, 2, 2, 0, 0, 0, 0, 2, 2, 2, 2, 0, 2, 0],
    "scene.tau": [2] * 18,
    "scene.bound_b": [2] * 15 + [0, 2, 0],
    "scene.num_outliers": [2] * 4 + [0] + [2] * 10 + [0, 2, 2],
    "scene.separation_margin": [2] * 10 + [0, 2, 0, 2, 2, 0, 2, 0],
    "bench.m_values": [2] * 18,
    "bench.sigma": [2, 2, 2, 2, 0, 2, 2, 0, 0, 0, 0, 2, 2, 2, 2, 0, 2, 0],
    "bench.bound_b": [2] * 7 + [0, 0, 0, 0, 2, 2, 2, 2, 0, 2, 0],
    "bench.delta": [2] * 18,
    "bench.trials": [2] * 15 + [0, 2, 2],
    "bench.noise_ratio_m": [2] * 18,
    "bench.noise_ratio_trials": [2] * 15 + [0, 2, 2],
    "bench.noise_ratio_delta": [2] * 18,
    "em.tau": [2, 2, 2, 2, 2, 2, 0, 2, 2, 0, 0, 2, 0, 2, 2, 0, 2, 0],
    "em.m_min": [2] * 18,
    "em.max_iters": [2, 2, 2, 2, 2, 2, 2, 2, 2, 0, 2, 2, 2, 2, 2, 0, 2, 2],
    "em.sigma_floor": [2, 2, 2, 2, 2, 2, 2, 2, 2, 0, 0, 2, 2, 2, 2, 0, 2, 0],
    "init.alpha": [2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 0, 2, 2, 2, 2, 0, 2, 0],
    "init.fragments": [2] * 15 + [0, 2, 2],
    "ransac.inlier_threshold": [2, 2, 2, 2, 2, 2, 0, 0, 0, 0, 0, 2, 0, 2, 2, 0, 2, 0],
    "ransac.max_trials": [2] * 9 + [None] + [2] * 5 + [0, 2, 2],
    "ransac.min_model_inliers": [2] * 9 + [0] + [2] * 8,
    "tlinkage.tau_t": [2, 2, 2, 2, 2, 2, 0, 0, 0, 0, 0, 2, 0, 2, 2, 0, 2, 0],
    "tlinkage.num_hypotheses": [2, 2, 2, 2, 0, 2, 2, 2, 2, None, 2, 2, 2, 2, 2, 0, 2, 2],
}


@pytest.mark.parametrize("key, value, code", [
    (key, value, code) for key, codes in _SWEEP_CODES.items()
    for value, code in zip(_SWEEP, codes) if code is not None],
    ids=lambda arg: repr(arg) if arg == "" else None)
def test_setting_sweep_exits_as_stated(key, value, code, tmp_path, scene_file, capsys,
                                       monkeypatch):
    argv = [*_SWEEP_BASES.get(key.split(".")[0], _SWEEP_RUN), "--set", f"{key}={value}"]
    if code == 2:
        _assert_refused(Refusal(argv), tmp_path, capsys, monkeypatch)
    else:
        assert run_cli(*[arg.format(scene=scene_file, tmp=tmp_path) for arg in argv]) == code


@pytest.mark.parametrize("command", ["synth", "run", "bench"])
def test_failed_write_exits_2_with_one_line(command, tmp_path, capsys, monkeypatch, scene_file):
    # the command's last write fails part way, as on a full disk: it exits 2
    # and leaves none of its outputs, the ones written before it included
    def full_disk(value, path):
        with open(path, "w") as fh:
            fh.write("partial")
        raise OSError(28, "No space left on device")

    out, labels = tmp_path / "out.txt", tmp_path / "labels.txt"
    summary = tmp_path / "out.txt.summary"
    argv, writer, outputs = {
        "synth": (["synth", "--out", str(out)], "write_scene", [out]),
        "run": (["run", "--out", str(out), "--set", f"scene.file={scene_file}",
                 "--set", f"out_labels={labels}"], "write_clustering", [out, labels]),
        "bench": (["bench", "--out", str(out), "--set", "bench.m_values=10",
                   "--set", "bench.trials=3"], "write_result", [out, summary]),
    }[command]
    monkeypatch.setattr(cli, writer, full_disk)
    capsys.readouterr()
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {outputs[-1]}: ") and err.count("\n") == 1
    assert "No space left on device" in err
    assert not any(path.exists() for path in outputs)


def test_sransac_builds_no_initial_clustering(tmp_path, scene_file, monkeypatch):
    calls = []
    euclidean_cluster = cli.euclidean_cluster

    def counting(*args):
        calls.append(args)
        return euclidean_cluster(*args)

    monkeypatch.setattr(cli, "euclidean_cluster", counting)
    assert run_cli("run", "--algorithm", "sransac", "--out", str(tmp_path / "r.txt"),
                   "--set", f"scene.file={scene_file}") == 0
    assert calls == []


def test_fits_per_cluster_read_no_diagnostics(monkeypatch, scene_file):
    def refuse(*args):
        raise AssertionError("fit_cluster_transforms reads only the transforms")

    scene = read_scene(scene_file)
    expected = cli.fit_cluster_transforms(scene.correspondences, Clustering(scene.true_labels))
    monkeypatch.setattr(horn, "estimate_noise_std", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    clustering, transforms = cli.fit_cluster_transforms(scene.correspondences,
                                                        Clustering(scene.true_labels))
    np.testing.assert_array_equal(clustering.labels, expected[0].labels)
    assert [(t.rotation.tobytes(), t.translation.tobytes()) for t in transforms] == \
           [(t.rotation.tobytes(), t.translation.tobytes()) for t in expected[1]]


# sha256 of the files of one outlier_baselines case (3x600 points, 300
# outliers, sigma 0.015, seed 10000): the scene, each algorithm's result and
# labels from a Euclidean init, and the eval report of the EM labels. Paths
# are relative, so the config.* lines do not depend on the directory.
RUN_FILES_SHA256 = {
    "eval_em.txt": "8df929b21a436fc7c6120911ed926dbbbe9b586534bacffd836ee89943116201",
    "labels_em.txt": "ac9704e16dfd1da82c07b88e240f79f09fad76d0abe1312f1cd6c6a3a4d9b6cb",
    "labels_naive.txt": "ac9704e16dfd1da82c07b88e240f79f09fad76d0abe1312f1cd6c6a3a4d9b6cb",
    "labels_sransac.txt": "d7267764e746e33d91d4d43e81279b81262a06bf298af6102ac8f87ec94fd7ff",
    "labels_tlinkage.txt": "3a613c00fbafa0bdfbe57aec08f0c749c123ac5fd80e2bd36b3f4c4cc4b94369",
    "result_em.txt": "d2880e28b6e4eb27f14ac89f00f8a61eba38cadb094471e487e3962383d320d1",
    "result_naive.txt": "365539937444cfdcf5570ec7a361a0fc6ef6560f71206b7cdbd6bdb6f72eb84b",
    "result_sransac.txt": "717dfceeab37a85b14a289f3f716c8fc4f41259fdb0dc75b07886c3da1f6d99d",
    "result_tlinkage.txt": "ed2b1fef8f5965fe167be3cabd9b8dc1a1f98073c53402d6c19161a5a2dcd2fd",
    "scene.txt": "c8745a625d75a8c53e320b801ce30c9cc90beb84bbce12bbc1218980b1ea1e39",
}


def test_run_results_match_recorded_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    scene = {"scene.num_objects": 3, "scene.points_per_object": 600,
             "scene.num_outliers": 300, "scene.sigma": 0.015, "scene.tau": 0.3,
             "scene.bound_b": 4}
    settings = [f"--set={key}={value}" for key, value in scene.items()]
    assert run_cli("synth", "--seed", "10000", "--out", "scene.txt", *settings) == 0
    for short, algorithm in (("em", "em"), ("sransac", "sransac"), ("tlinkage", "tlinkage"),
                             ("naive", "naive-horn-per-cluster")):
        assert run_cli("run", "--seed", "10000", "--algorithm", algorithm,
                       "--out", f"result_{short}.txt", "--set", "scene.file=scene.txt",
                       "--set", "init.kind=euclidean",
                       "--set", f"out_labels=labels_{short}.txt") == 0
    assert run_cli("eval", "labels_em.txt", "scene.txt", "--out", "eval_em.txt") == 0
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in sorted(tmp_path.iterdir())}
    assert digests == RUN_FILES_SHA256


def test_eval_perfect_permuted_and_degraded(tmp_path, scene_file, capsys):
    scene = read_scene(scene_file)
    pred = tmp_path / "pred.txt"
    report_path = tmp_path / "report.txt"

    write_clustering(Clustering(scene.true_labels), pred)
    assert run_cli("eval", str(pred), str(scene_file), "--out", str(report_path)) == 0
    record = read_result(report_path)
    assert float(record["metrics.mask_iou"]) == 1.0
    assert float(record["metrics.point_error"]) <= 1e-9

    # permuted cluster ids give the identical report
    permuted = scene.true_labels.copy()
    permuted[scene.true_labels == 1] = 2
    permuted[scene.true_labels == 2] = 1
    permuted_path = tmp_path / "perm.txt"
    write_clustering(Clustering(permuted), permuted_path)
    permuted_report = tmp_path / "perm_report.txt"
    assert run_cli("eval", str(permuted_path), str(scene_file), "--out", str(permuted_report)) == 0
    assert read_result(permuted_report)["metrics.mask_iou"] == record["metrics.mask_iou"]
    assert read_result(permuted_report)["metrics.rotation_error"] == record["metrics.rotation_error"]

    # zeroing half the labels strictly lowers the IoU
    degraded = scene.true_labels.copy()
    degraded[::2] = 0
    degraded_path = tmp_path / "deg.txt"
    write_clustering(Clustering(degraded), degraded_path)
    degraded_report = tmp_path / "deg_report.txt"
    assert run_cli("eval", str(degraded_path), str(scene_file), "--out", str(degraded_report)) == 0
    assert float(read_result(degraded_report)["metrics.mask_iou"]) < 1.0


def test_bench_csv_and_summary(tmp_path):
    out = tmp_path / "bench.csv"
    code = run_cli("bench", "--seed", "3", "--out", str(out),
                   "--set", "bench.m_values=50,100",
                   "--set", "bench.trials=10")
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 20
    assert all(len(line.split(",")) == 10 for line in lines)
    summary = read_result(str(out) + ".summary")
    assert float(summary["bench.consistency.m50.violation_rate_rot"]) <= 2 * 0.05
    assert float(summary["bench.consistency.m100.violation_rate_trans"]) <= 2 * 0.05

    # determinism: identical bytes on a repeat run
    out2 = tmp_path / "bench2.csv"
    assert run_cli("bench", "--seed", "3", "--out", str(out2),
                   "--set", "bench.m_values=50,100", "--set", "bench.trials=10") == 0
    assert out.read_bytes() == out2.read_bytes()


# sha256 of `bench --suite both` with every noise-ratio m at least 10 000 and
# a consistency grid from the degenerate m = 3 (lambda_min 0, bound inf) to
# m = 10 000. The relative --out keeps config.out the same in every directory.
BENCH_FILES_SHA256 = {
    "bench.csv": "3e536208a6ab021130de00284a3a528e9328c8f9a0bf59d976f1d76defea35bd",
    "bench.csv.summary": "fd2cb332fc78266f06a6d286b944b6c7bebaea937dc02b89b3dcf03fca9f1294",
}


def test_bench_matches_recorded_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_cli("bench", "--seed", "7", "--out", "bench.csv",
                   "--set", "bench.suite=both", "--set", "bench.m_values=3,100,10000",
                   "--set", "bench.trials=4", "--set", "bench.noise_ratio_m=10000,100000",
                   "--set", "bench.noise_ratio_trials=3") == 0
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in sorted(tmp_path.iterdir())}
    assert digests == BENCH_FILES_SHA256


_BENCH_SMALL = ["--seed", "5", "--set", "bench.m_values=10,100", "--set", "bench.trials=3",
                "--set", "bench.noise_ratio_m=6000", "--set", "bench.noise_ratio_trials=4"]


def test_bench_both_gives_the_bytes_of_each_suite_alone(tmp_path):
    # the noise-ratio suite runs on a worker thread beside the consistency
    # suite: the same CSV bytes, and the same summary lines, as each alone
    outputs = {}
    for suite in ("both", "consistency", "noise-ratio"):
        out = tmp_path / f"{suite}.csv"
        assert run_cli("bench", "--out", str(out), *_BENCH_SMALL,
                       "--set", f"bench.suite={suite}") == 0
        outputs[suite] = (out.read_bytes() if out.exists() else None,
                          read_result(f"{out}.summary"))

    def lines(summary, prefix):
        return {key: value for key, value in summary.items() if key.startswith(prefix)}

    both_csv, both = outputs["both"]
    assert both_csv == outputs["consistency"][0] and outputs["noise-ratio"][0] is None
    for suite, prefix in (("consistency", "bench.consistency."),
                          ("noise-ratio", "bench.noise_ratio.")):
        assert lines(both, prefix) and lines(both, prefix) == lines(outputs[suite][1], prefix)


def test_bench_both_leaves_no_thread_running(tmp_path, capsys, monkeypatch):
    argv = ["bench", "--out", str(tmp_path / "b.csv"), *_BENCH_SMALL, "--set", "bench.suite=both"]
    threads = threading.active_count()
    assert cli.main(argv) == 0
    assert threading.active_count() == threads

    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate the noise sample")

    monkeypatch.setattr(cli, "run_noise_ratio_bench", out_of_memory)
    for path in tmp_path.iterdir():
        path.unlink()
    capsys.readouterr()
    assert cli.main(argv) == 2
    assert threading.active_count() == threads
    assert capsys.readouterr().err == "error: out of memory: Unable to allocate the noise sample\n"
    assert list(tmp_path.iterdir()) == []


def test_bench_bound_b_may_reach_the_limit_of_the_horn_sums(tmp_path, capsys):
    # the largest m, 100, sets the limit: 4 m B (2B + sigma) is about 8 m B^2
    # there. Just inside it the bench runs with no overflow warning (which
    # pytest turns into an error); just outside it exits 2 before sampling.
    limit = math.sqrt(sys.float_info.max / (8 * 100))
    out = tmp_path / "bench.csv"
    argv = ["bench", "--out", str(out), "--set", "bench.m_values=10,100",
            "--set", "bench.trials=3", "--set", "bench.sigma=0.1"]
    assert run_cli(*argv, "--set", f"bench.bound_b={limit * (1 + 1e-6)!r}") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bench.bound_b = ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []
    assert run_cli(*argv, "--set", f"bench.bound_b={limit * (1 - 1e-6)!r}") == 0
    assert len(out.read_text().splitlines()) == 1 + 2 * 3


def test_bench_noise_ratio_suite(tmp_path):
    out = tmp_path / "bench.csv"
    code = run_cli("bench", "--seed", "4", "--out", str(out),
                   "--set", "bench.suite=noise-ratio",
                   "--set", "bench.noise_ratio_m=20000",
                   "--set", "bench.noise_ratio_trials=10")
    assert code == 0
    summary = read_result(str(out) + ".summary")
    assert float(summary["bench.noise_ratio.m20000.violation_rate"]) <= 0.1


# Runs the command given as arguments (none: a bare import) in a fresh
# interpreter, then prints whether scipy (so also scipy.spatial) was loaded.
_LOADS_SCRIPT = """import sys
import multireg
code = 0
if sys.argv[1:]:
    from multireg.cli import main
    code = main(sys.argv[1:])
print("scipy" in sys.modules)
sys.exit(code)
"""


@pytest.mark.parametrize("argv", [
    [],
    ["synth", "--seed", "1", "--out", "synth.txt", "--set", "scene.num_objects=2",
     "--set", "scene.points_per_object=30,20", "--set", "scene.num_outliers=3"],
    ["eval", "{labels}", "{scene}"],
    ["bench", "--seed", "1", "--out", "bench.csv", "--set", "bench.suite=both",
     "--set", "bench.m_values=10", "--set", "bench.trials=3",
     "--set", "bench.noise_ratio_m=6000", "--set", "bench.noise_ratio_trials=2"],
    ["run", "--algorithm", "sransac", "--out", "r.txt", "--set", "scene.file={scene}"],
    ["run", "--algorithm", "tlinkage", "--out", "r.txt", "--set", "scene.file={scene}"],
    ["run", "--algorithm", "naive-horn-per-cluster", "--out", "r.txt",
     "--set", "scene.file={scene}"],
    # from a good split EM reaches the exact gate, which runs on the cell grid
    ["run", "--algorithm", "em", "--out", "r.txt", "--set", "scene.file={scene}",
     "--set", "init.kind=good-split"],
], ids=["import", "synth", "eval", "bench", "sransac", "tlinkage", "naive", "em"])
def test_only_a_k_d_tree_loads_scipy_spatial(tmp_path, scene_file, argv):
    # no command loads scipy, though the test extra installs it: EM's exact
    # gate runs on the cell grid
    labels = tmp_path / "truth.txt"
    write_clustering(Clustering(read_scene(scene_file).true_labels), labels)
    argv = [arg.format(scene=scene_file, labels=labels) for arg in argv]
    src = str(Path(multireg.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", _LOADS_SCRIPT, *argv], cwd=tmp_path,
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "False"


# a value unlike the default for every key that sets a field of a config
# object; scene.file names the scene, not a field
_BUILT = {"scene": SceneSpec, "em": EMConfig, "ransac": RansacConfig,
          "tlinkage": TLinkageConfig}
_NON_DEFAULT = {
    "scene.num_objects": 2, "scene.points_per_object": (7, 8), "scene.sigma": 0.02,
    "scene.tau": 0.25, "scene.bound_b": 5.0, "scene.num_outliers": 3,
    "scene.separation_margin": 0.7,
    "em.tau": 0.2, "em.m_min": 5, "em.max_iters": 7, "em.sigma_floor": 1e-6,
    "ransac.inlier_threshold": 0.05, "ransac.max_trials": 9, "ransac.min_model_inliers": 4,
    "tlinkage.tau_t": 0.03, "tlinkage.num_hypotheses": 11,
}


def _built(settings):
    """The objects ``run --set`` each of ``settings`` builds, by section; the
    scene's sigma and tau given here feed only the computed defaults."""
    args = cli.build_parser().parse_args(["run"] + [a for s in settings for a in ("--set", s)])
    cfg = cli.effective_config(args)
    built = {"scene": cli.scene_spec_from_config(cfg)}
    for section, algorithm in (("em", "em"), ("ransac", "sransac"), ("tlinkage", "tlinkage")):
        built[section] = cli._algorithm_config(cfg, algorithm, 0, 0.01, 0.3)
    return built


def test_config_keys_are_the_fields_of_their_objects():
    keys = [key for key in cli.CONFIG if key.split(".")[0] in _BUILT and key != "scene.file"]
    for key in keys:
        section, name = key.split(".")
        assert name in {f.name for f in dataclasses.fields(_BUILT[section])}, key
    assert sorted(keys) == sorted(_NON_DEFAULT)
    default = _built([])
    built = _built(f"{key}={cli._text(value)}" for key, value in _NON_DEFAULT.items())
    for key, value in _NON_DEFAULT.items():
        section, name = key.split(".")
        assert getattr(built[section], name) == value, key
        assert getattr(default[section], name) != value, key


def test_config_file_and_set_precedence(tmp_path):
    config = tmp_path / "exp.cfg"
    config.write_text("scene.num_objects = 1\nscene.points_per_object = 50\n"
                      "scene.sigma = 0.0\nseed = 2\n")
    out = tmp_path / "scene.txt"
    code = run_cli("synth", "--config", str(config), "--out", str(out),
                   "--set", "scene.points_per_object=60")
    assert code == 0
    scene = read_scene(out)
    assert len(scene.correspondences) == 60  # --set wins over the file
    assert scene.spec.seed == 2


def test_result_embeds_config_hash(tmp_path, scene_file):
    out = tmp_path / "r.txt"
    assert run_cli("run", "--seed", "5", "--out", str(out),
                   "--set", f"scene.file={scene_file}",
                   "--set", "init.kind=good-split") == 0
    record = read_result(out)
    assert len(record["config_hash"]) == 12
    assert record["tool_version"] == "0.1.0"
    assert record["config.seed"] == "5"
