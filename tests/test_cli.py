import dataclasses
import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

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


def test_synth_infeasible_exits_2(tmp_path):
    code = run_cli("synth", "--out", str(tmp_path / "x.txt"),
                   "--set", "scene.tau=1.0", "--set", "scene.bound_b=1.0")
    assert code == 2


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


def test_run_missing_scene_exits_2(tmp_path):
    code = run_cli("run", "--out", str(tmp_path / "r.txt"),
                   "--set", "scene.file=/nonexistent/scene.txt")
    assert code == 2


@pytest.mark.parametrize("algorithm,setting", [
    ("sransac", "ransac.max_trials=0"),
    ("em", "em.m_min=2"),
    ("em", "em.tau=abc"),
    ("tlinkage", "tlinkage.tau_t=abc"),
    ("tlinkage", "tlinkage.num_hypotheses=-1"),
    ("em", "em.tau=nan"),
    ("em", "em.tau=inf"),
    ("em", "em.sigma_floor=nan"),
    ("em", "em.sigma_floor=inf"),
    ("sransac", "ransac.inlier_threshold=nan"),
    ("sransac", "ransac.inlier_threshold=inf"),
    ("tlinkage", "tlinkage.tau_t=nan"),
    ("tlinkage", "tlinkage.tau_t=inf"),
    ("em", "em.max_iters=0"),
    ("sransac", "ransac.min_model_inliers=2"),
])
def test_run_bad_algorithm_config_exits_2(tmp_path, scene_file, capsys, algorithm, setting):
    out = tmp_path / "r.txt"
    code = run_cli("run", "--algorithm", algorithm, "--out", str(out),
                   "--set", f"scene.file={scene_file}", "--set", setting)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()


def _truth_labels(tmp_path, scene_file):
    path = tmp_path / "truth.txt"
    write_clustering(Clustering(read_scene(scene_file).true_labels), path)
    return path


def _edited_scene(tmp_path, scene_file, edit):
    """A copy of the scene whose first correspondence line is ``edit(fields)``."""
    lines = scene_file.read_text().splitlines()
    first = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    lines[first] = " ".join(edit(lines[first].split()))
    path = tmp_path / "edited_scene.txt"
    path.write_text("\n".join(lines) + "\n")
    return path


def _scene_with_header(tmp_path, scene_file, key, value):
    """``["run", ...]`` on a copy of the scene whose header line ``# key``
    reads ``value``."""
    lines = [f"# {key} {value}" if line.split()[:2] == ["#", key] else line
             for line in scene_file.read_text().splitlines()]
    path = tmp_path / "edited_scene.txt"
    path.write_text("\n".join(lines) + "\n")
    return ["run", "--set", f"scene.file={path}"]


def _tau_nan_header_to_run(tmp_path, scene_file):
    return _scene_with_header(tmp_path, scene_file, "tau", "nan")


def _sigma_nan_header_to_run(tmp_path, scene_file):
    return _scene_with_header(tmp_path, scene_file, "sigma", "nan")


def _sigma_inf_header_to_run(tmp_path, scene_file):
    return _scene_with_header(tmp_path, scene_file, "sigma", "inf")


def _synth_sigma_nan(tmp_path, scene_file):
    return ["synth", "--out", tmp_path / "r.txt", "--set", "scene.sigma=nan"]


def _synth_sigma_inf(tmp_path, scene_file):
    return ["synth", "--out", tmp_path / "r.txt", "--set", "scene.sigma=inf"]


def _synth_sigma_negative_zero(tmp_path, scene_file):
    # the noise draw on [-sigma, sigma] would have high < low bit for bit
    return ["synth", "--out", tmp_path / "r.txt", "--set", "scene.sigma=-0.0"]


def _synth_tau_nan(tmp_path, scene_file):
    return ["synth", "--out", tmp_path / "r.txt", "--set", "scene.tau=nan"]


def _synth_tau_tiny(tmp_path, scene_file):
    # positive, but coordinates up to B = 4 are beyond int64 cells of tau/2
    return ["synth", "--out", tmp_path / "r.txt", "--set", "scene.tau=1e-19"]


def _em_tau_tiny_to_run(tmp_path, scene_file):
    return ["run", "--set", f"scene.file={scene_file}", "--set", "em.tau=1e-19"]


def _synth_sigma_huge(tmp_path, scene_file):
    # finite, but the noise range 2 sigma is not
    return ["synth", "--out", tmp_path / "r.txt", "--set", "scene.sigma=1e308"]


def _synth_bound_b_huge(tmp_path, scene_file):
    # finite, but the outlier range 6 B is not
    return ["synth", "--out", tmp_path / "r.txt", "--set", "scene.bound_b=1e308"]


def _synth_objects_cannot_be_packed(tmp_path, scene_file):
    # 200 blobs 1.8 apart in the default ball: refused before any packing try
    return ["synth", "--out", tmp_path / "r.txt", "--set", "scene.num_objects=200",
            "--set", "scene.points_per_object=5"]


def _synth_objects_too_many_to_repeat(tmp_path, scene_file):
    # refused by the packing bound before one count is repeated 10^12 times
    return ["synth", "--out", tmp_path / "r.txt", "--set", f"scene.num_objects={10 ** 12}"]


def _synth_tau_nan_objects_too_many_to_repeat(tmp_path, scene_file):
    # a NaN tau fails no packing bound, so it is refused before the repeat too
    return ["synth", "--out", tmp_path / "r.txt", "--set", f"scene.num_objects={10 ** 12}",
            "--set", "scene.tau=nan"]


def _synth_objects_too_many_to_hold(tmp_path, scene_file):
    # at tau 1e-6 the packing bound admits 5e17 objects: 10^15 point counts
    # are more than any address space holds, and the repeat is refused
    return ["synth", "--out", tmp_path / "r.txt", "--set", f"scene.num_objects={10 ** 15}",
            "--set", "scene.tau=1e-6"]


def _synth_points_per_object_beyond_numpy(tmp_path, scene_file):
    # more rows than an (n, 3) float array can have
    return ["synth", "--out", tmp_path / "r.txt", "--set",
            "scene.points_per_object=99999999999999999999"]


def _synth_num_outliers_beyond_numpy(tmp_path, scene_file):
    return ["synth", "--out", tmp_path / "r.txt", "--set",
            "scene.num_outliers=99999999999999999999"]


def _bench_trials_beyond_seeds(tmp_path, scene_file):
    # more trials than SeedSequence.spawn can count
    return ["bench", "--out", tmp_path / "b.csv", "--set", "bench.trials=99999999999999999999"]


def _bench_noise_ratio_trials_beyond_seeds(tmp_path, scene_file):
    return ["bench", "--out", tmp_path / "b.csv", "--set", "bench.suite=noise-ratio",
            "--set", "bench.noise_ratio_trials=99999999999999999999"]


def _bench_m_beyond_numpy(tmp_path, scene_file):
    return ["bench", "--out", tmp_path / "b.csv", "--set", "bench.m_values=99999999999999999999",
            "--set", "bench.trials=3"]


def _bench_noise_ratio_m_beyond_numpy(tmp_path, scene_file):
    return ["bench", "--out", tmp_path / "b.csv", "--set", "bench.suite=noise-ratio",
            "--set", "bench.noise_ratio_m=99999999999999999999"]


def _em_sigma_floor_square_overflows_to_run(tmp_path, scene_file):
    return ["run", "--set", f"scene.file={scene_file}", "--set", "em.sigma_floor=1e308"]


def _em_m_min_beyond_numpy_to_run(tmp_path, scene_file):
    # more points than any scene can hold: pruning would dissolve every cluster
    return ["run", "--set", f"scene.file={scene_file}", "--set", "em.m_min=99999999999999999999"]


def _a_beyond_bound_b_to_eval(tmp_path, scene_file):
    # the header says B = 4
    scene = _edited_scene(tmp_path, scene_file, lambda f: ["1e308"] + f[1:])
    return ["eval", _truth_labels(tmp_path, scene_file), scene]


def _b_beyond_synth_targets_to_sransac(tmp_path, scene_file):
    scene = _edited_scene(tmp_path, scene_file, lambda f: f[:3] + ["1e308"] + f[4:])
    return ["run", "--algorithm", "sransac", "--set", f"scene.file={scene}"]


def _huge_m_header_to_run(tmp_path, scene_file):
    # two POSE lines are not 10^12: refused before a range of 1..M is built
    return _scene_with_header(tmp_path, scene_file, "M", 10 ** 12)


def _unknown_key_set_to_run(tmp_path, scene_file):
    return ["run", "--set", f"scene.file={scene_file}", "--set", "scene.num_outlier=5"]


def _unknown_key_in_config_to_run(tmp_path, scene_file):
    config = tmp_path / "exp.cfg"
    config.write_text(f"scene.file = {scene_file}\nem.taus = 0.5\n")
    return ["run", "--config", config]


def _non_ascii_config_to_run(tmp_path, scene_file):
    config = tmp_path / "exp.cfg"
    config.write_bytes(b"scene.file = caf\xc3\xa9.txt\n")
    return ["run", "--config", config]


def _non_ascii_labels_out_to_run(tmp_path, scene_file):
    return ["run", "--set", f"scene.file={scene_file}", "--set",
            f"out_labels={tmp_path / 'café.txt'}"]


def _non_ascii_out_to_run(tmp_path, scene_file):
    return ["run", "--set", f"scene.file={scene_file}", "--out", tmp_path / "café.txt"]


def _non_ascii_out_to_synth(tmp_path, scene_file):
    return ["synth", "--out", tmp_path / "café.txt"]


def _negative_seed_to_sransac(tmp_path, scene_file):
    return ["run", "--algorithm", "sransac", "--seed", "-1", "--set", f"scene.file={scene_file}"]


def _non_scene_to_eval(tmp_path, scene_file):
    labels = _truth_labels(tmp_path, scene_file)
    return ["eval", labels, labels]


def _truncated_scene_to_run(tmp_path, scene_file):
    path = tmp_path / "truncated.txt"
    text = scene_file.read_text()
    path.write_text(text[:len(text) // 2])
    return ["run", "--set", f"scene.file={path}"]


def _short_row_to_run(tmp_path, scene_file):
    return ["run", "--set", f"scene.file={_edited_scene(tmp_path, scene_file, lambda f: f[:-1])}"]


def _label_above_m_to_eval(tmp_path, scene_file):
    scene = _edited_scene(tmp_path, scene_file, lambda f: f[:-1] + ["3"])
    return ["eval", _truth_labels(tmp_path, scene_file), scene]


def _negative_label_to_eval(tmp_path, scene_file):
    labels = _truth_labels(tmp_path, scene_file)
    labels.write_text("-1\n" + labels.read_text().split("\n", 1)[1])
    return ["eval", labels, scene_file]


def _negative_label_to_run(tmp_path, scene_file):
    labels = _truth_labels(tmp_path, scene_file)
    labels.write_text("-1\n" + labels.read_text().split("\n", 1)[1])
    return ["run", "--set", f"scene.file={scene_file}", "--set", "init.kind=from-file",
            "--set", f"init.file={labels}"]


def _labels_with_first(tmp_path, scene_file, first):
    labels = _truth_labels(tmp_path, scene_file)
    labels.write_text(f"{first}\n" + labels.read_text().split("\n", 1)[1])
    return labels


def _label_beyond_int64_to_eval(tmp_path, scene_file):
    return ["eval", _labels_with_first(tmp_path, scene_file, 99999999999999999999), scene_file]


def _label_below_int64_to_eval(tmp_path, scene_file):
    return ["eval", _labels_with_first(tmp_path, scene_file, -99999999999999999999), scene_file]


def _label_beyond_int64_to_run(tmp_path, scene_file):
    labels = _labels_with_first(tmp_path, scene_file, 99999999999999999999)
    return ["run", "--set", f"scene.file={scene_file}", "--set", "init.kind=from-file",
            "--set", f"init.file={labels}"]


def _label_above_count_to_eval(tmp_path, scene_file):
    # fits int64, but would size every per-cluster table by 10^12
    return ["eval", _labels_with_first(tmp_path, scene_file, 10 ** 12), scene_file]


def _alpha_below_one_to_run(tmp_path, scene_file):
    return ["run", "--set", f"scene.file={scene_file}", "--set", "init.kind=good-split",
            "--set", "init.alpha=0.5"]


def _zero_fragments_to_run(tmp_path, scene_file):
    return ["run", "--set", f"scene.file={scene_file}", "--set", "init.kind=good-split",
            "--set", "init.fragments=0"]


def _too_many_fragments_to_run(tmp_path, scene_file):
    return ["run", "--set", f"scene.file={scene_file}", "--set", "init.kind=good-split",
            "--set", "init.fragments=70"]


def _unknown_init_kind_to_sransac(tmp_path, scene_file):
    return ["run", "--algorithm", "sransac", "--set", f"scene.file={scene_file}",
            "--set", "init.kind=bogus"]


def _synth_out_in_missing_dir(tmp_path, scene_file):
    return ["synth", "--out", tmp_path / "missing" / "x.txt"]


def _run_out_in_missing_dir(tmp_path, scene_file):
    return ["run", "--set", f"scene.file={scene_file}", "--out", tmp_path / "missing" / "r.txt"]


def _bench_out_in_missing_dir(tmp_path, scene_file):
    return ["bench", "--out", tmp_path / "missing" / "b.csv", "--set", "bench.m_values=10",
            "--set", "bench.trials=3"]


def _eval_out_in_missing_dir(tmp_path, scene_file):
    return ["eval", _truth_labels(tmp_path, scene_file), scene_file,
            "--out", tmp_path / "missing" / "e.txt"]


def _labels_out_in_missing_dir_to_run(tmp_path, scene_file):
    return ["run", "--set", f"scene.file={scene_file}",
            "--set", f"out_labels={tmp_path / 'missing' / 'l.txt'}"]


def _out_is_a_directory_to_run(tmp_path, scene_file):
    (tmp_path / "results").mkdir()
    return ["run", "--set", f"scene.file={scene_file}", "--out", tmp_path / "results"]


def _out_is_the_scene_to_run(tmp_path, scene_file):
    return ["run", "--set", f"scene.file={scene_file}", "--out", scene_file]


def _out_is_the_init_file_to_run(tmp_path, scene_file):
    labels = _truth_labels(tmp_path, scene_file)
    return ["run", "--set", f"scene.file={scene_file}", "--set", "init.kind=from-file",
            "--set", f"init.file={labels}", "--out", labels]


def _out_is_the_config_to_synth(tmp_path, scene_file):
    config = tmp_path / "exp.cfg"
    config.write_text("scene.num_objects = 2\n")
    return ["synth", "--config", config, "--out", config]


def _out_is_the_scene_to_eval(tmp_path, scene_file):
    return ["eval", _truth_labels(tmp_path, scene_file), scene_file, "--out", scene_file]


def _out_is_the_labels_to_eval(tmp_path, scene_file):
    labels = _truth_labels(tmp_path, scene_file)
    return ["eval", labels, scene_file, "--out", labels]


def _out_is_labels_out_to_run(tmp_path, scene_file):
    # the same file twice, once through a detour
    (tmp_path / "sub").mkdir()
    return ["run", "--set", f"scene.file={scene_file}", "--out", tmp_path / "R.txt",
            "--set", f"out_labels={tmp_path / 'sub' / '..' / 'R.txt'}"]


def _repeated_pose_to_run(tmp_path, scene_file):
    # a third POSE line gives object 1 the motion of object 2
    pose_2 = next(line for line in scene_file.read_text().splitlines()
                  if line.startswith("POSE 2 "))
    path = tmp_path / "edited_scene.txt"
    path.write_text(scene_file.read_text() + "POSE 1 " + pose_2[len("POSE 2 "):] + "\n")
    return ["run", "--set", f"scene.file={path}"]


def _unknown_scene_version_to_run(tmp_path, scene_file):
    return _scene_with_header(tmp_path, scene_file, "version", "7")


@pytest.mark.parametrize("bad_input", [
    _non_scene_to_eval,
    _truncated_scene_to_run,
    _short_row_to_run,
    _label_above_m_to_eval,
    _negative_label_to_eval,
    _negative_label_to_run,
    _label_beyond_int64_to_eval,
    _label_below_int64_to_eval,
    _label_beyond_int64_to_run,
    _label_above_count_to_eval,
    _alpha_below_one_to_run,
    _zero_fragments_to_run,
    _too_many_fragments_to_run,
    _unknown_init_kind_to_sransac,
    _synth_sigma_nan,
    _synth_sigma_inf,
    _synth_sigma_negative_zero,
    _synth_tau_nan,
    _synth_tau_tiny,
    _em_tau_tiny_to_run,
    _tau_nan_header_to_run,
    _sigma_nan_header_to_run,
    _sigma_inf_header_to_run,
    _synth_sigma_huge,
    _synth_bound_b_huge,
    _synth_objects_cannot_be_packed,
    _synth_objects_too_many_to_repeat,
    _synth_tau_nan_objects_too_many_to_repeat,
    _synth_objects_too_many_to_hold,
    _synth_points_per_object_beyond_numpy,
    _synth_num_outliers_beyond_numpy,
    _bench_trials_beyond_seeds,
    _bench_noise_ratio_trials_beyond_seeds,
    _bench_m_beyond_numpy,
    _bench_noise_ratio_m_beyond_numpy,
    _em_sigma_floor_square_overflows_to_run,
    _em_m_min_beyond_numpy_to_run,
    _a_beyond_bound_b_to_eval,
    _b_beyond_synth_targets_to_sransac,
    _huge_m_header_to_run,
    _unknown_key_set_to_run,
    _unknown_key_in_config_to_run,
    _non_ascii_config_to_run,
    _non_ascii_labels_out_to_run,
    _non_ascii_out_to_run,
    _non_ascii_out_to_synth,
    _negative_seed_to_sransac,
    _synth_out_in_missing_dir,
    _run_out_in_missing_dir,
    _bench_out_in_missing_dir,
    _eval_out_in_missing_dir,
    _labels_out_in_missing_dir_to_run,
    _out_is_a_directory_to_run,
    _out_is_the_scene_to_run,
    _out_is_the_init_file_to_run,
    _out_is_the_config_to_synth,
    _out_is_the_scene_to_eval,
    _out_is_the_labels_to_eval,
    _out_is_labels_out_to_run,
    _repeated_pose_to_run,
    _unknown_scene_version_to_run,
])
def test_bad_input_file_exits_2(tmp_path, scene_file, capsys, bad_input):
    argv = bad_input(tmp_path, scene_file)
    files = set(tmp_path.iterdir())
    contents = {path: path.read_bytes() for path in files if path.is_file()}
    out = tmp_path / "r.txt"
    if argv[0] == "run":
        argv[1:1] = ["--out", str(out)]  # a later --out of the row wins
    code = run_cli(*(str(arg) for arg in argv))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()
    assert set(tmp_path.iterdir()) == files
    assert {path: path.read_bytes() for path in contents} == contents


def test_objects_too_many_to_hold_name_their_key(tmp_path, scene_file, capsys):
    assert run_cli(*map(str, _synth_objects_too_many_to_hold(tmp_path, scene_file))) == 2
    assert capsys.readouterr().err.startswith("error: invalid scene spec: scene.num_objects ")


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


def test_eval_length_mismatch_exits_2(tmp_path, scene_file):
    short = tmp_path / "short.txt"
    short.write_text("1\n1\n0\n")
    assert run_cli("eval", str(short), str(scene_file)) == 2


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


def test_bench_negative_sigma_exits_2_before_sampling(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code = run_cli("bench", "--out", str(out), "--set", "bench.sigma=-1")
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: bench.sigma must be nonnegative\n"
    assert not out.exists()


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


@pytest.mark.parametrize("setting", ["bench.noise_ratio_m=10", "bench.noise_ratio_trials=0",
                                     "bench.noise_ratio_delta=1.5", "bench.m_values=100,2",
                                     "bench.trials=0", "bench.delta=0", "bench.bound_b=0",
                                     "bench.sigma=nan", "bench.sigma=inf", "bench.bound_b=inf",
                                     "bench.bound_b=1e200", "bench.sigma=1e160",
                                     "bench.m_values=,", "bench.noise_ratio_m=,",
                                     "bench.sigma=-0.0", "bench.delta=1e-320",
                                     "bench.noise_ratio_delta=1e-320"])
def test_bench_checks_every_setting_before_sampling(tmp_path, capsys, monkeypatch, setting):
    def refuse(*args, **kwargs):
        raise AssertionError("a bench ran before every setting was checked")

    monkeypatch.setattr(cli, "run_consistency_bench", refuse)
    monkeypatch.setattr(cli, "run_noise_ratio_bench", refuse)
    out = tmp_path / "bench.csv"
    code = run_cli("bench", "--out", str(out), "--set", "bench.suite=both", "--set", setting)
    err = capsys.readouterr().err
    assert code == 2
    # the one error line names the refused setting's key
    assert err.startswith(f"error: {setting.split('=')[0]} ") and err.count("\n") == 1
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


@pytest.mark.parametrize("key, overflow", [("bench.delta", "18/delta"),
                                           ("bench.noise_ratio_delta", "2/delta")])
def test_bench_delta_overflow_names_its_key(tmp_path, capsys, key, overflow):
    # 1e-320 lies in (0, 1), but the bounds take log(18/delta) and the
    # interval log(2/delta): an infinite bound would check nothing
    out = tmp_path / "bench.csv"
    assert run_cli("bench", "--out", str(out), "--set", "bench.suite=both",
                   "--set", f"{key}=1e-320") == 2
    assert capsys.readouterr().err == f"error: {key} = 1e-320 overflows {overflow}\n"
    assert list(tmp_path.iterdir()) == []


def test_synth_huge_tau_names_tau(tmp_path, capsys):
    # 2 tau, the default separation_margin, overflows: the error is about tau
    out = tmp_path / "scene.txt"
    assert run_cli("synth", "--out", str(out), "--set", "scene.tau=1e308") == 2
    err = capsys.readouterr().err
    assert "tau" in err and "separation_margin" not in err
    assert not out.exists()


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
# interpreter, then prints whether scipy.spatial was loaded.
_LOADS_SCRIPT = """import sys
import multireg
code = 0
if sys.argv[1:]:
    from multireg.cli import main
    code = main(sys.argv[1:])
print("scipy.spatial" in sys.modules)
sys.exit(code)
"""


@pytest.mark.parametrize("argv, loads", [
    ([], False),
    (["synth", "--seed", "1", "--out", "synth.txt", "--set", "scene.num_objects=2",
      "--set", "scene.points_per_object=30,20", "--set", "scene.num_outliers=3"], False),
    (["eval", "{labels}", "{scene}"], False),
    (["bench", "--seed", "1", "--out", "bench.csv", "--set", "bench.suite=both",
      "--set", "bench.m_values=10", "--set", "bench.trials=3",
      "--set", "bench.noise_ratio_m=6000", "--set", "bench.noise_ratio_trials=2"], False),
    (["run", "--algorithm", "sransac", "--out", "r.txt", "--set", "scene.file={scene}"], False),
    (["run", "--algorithm", "tlinkage", "--out", "r.txt", "--set", "scene.file={scene}"], False),
    (["run", "--algorithm", "naive-horn-per-cluster", "--out", "r.txt",
      "--set", "scene.file={scene}"], False),
    # from a good split EM reaches the exact gate; a run this small from the
    # Euclidean components can settle every gate on the grid and build no tree
    (["run", "--algorithm", "em", "--out", "r.txt", "--set", "scene.file={scene}",
      "--set", "init.kind=good-split"], True),
], ids=["import", "synth", "eval", "bench", "sransac", "tlinkage", "naive", "em"])
def test_only_a_k_d_tree_loads_scipy_spatial(tmp_path, scene_file, argv, loads):
    labels = tmp_path / "truth.txt"
    write_clustering(Clustering(read_scene(scene_file).true_labels), labels)
    argv = [arg.format(scene=scene_file, labels=labels) for arg in argv]
    src = str(Path(multireg.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", _LOADS_SCRIPT, *argv], cwd=tmp_path,
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == str(loads)


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


def test_unknown_algorithm_exits_2(tmp_path, scene_file):
    code = run_cli("run", "--out", str(tmp_path / "r.txt"),
                   "--set", f"scene.file={scene_file}",
                   "--set", "algorithm=magic")
    assert code == 2


def test_result_embeds_config_hash(tmp_path, scene_file):
    out = tmp_path / "r.txt"
    assert run_cli("run", "--seed", "5", "--out", str(out),
                   "--set", f"scene.file={scene_file}",
                   "--set", "init.kind=good-split") == 0
    record = read_result(out)
    assert len(record["config_hash"]) == 12
    assert record["tool_version"] == "0.1.0"
    assert record["config.seed"] == "5"
