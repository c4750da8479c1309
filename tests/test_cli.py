import hashlib

import numpy as np
import pytest

from conftest import read_result
from multireg import cli
from multireg.cli import main
from multireg.clustering import Clustering
from multireg.io import read_clustering, read_scene, write_clustering


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


@pytest.mark.parametrize("bad_input", [
    _non_scene_to_eval,
    _truncated_scene_to_run,
    _short_row_to_run,
    _label_above_m_to_eval,
    _negative_label_to_eval,
    _negative_label_to_run,
    _alpha_below_one_to_run,
    _zero_fragments_to_run,
    _too_many_fragments_to_run,
    _unknown_init_kind_to_sransac,
])
def test_bad_input_file_exits_2(tmp_path, scene_file, capsys, bad_input):
    argv = bad_input(tmp_path, scene_file)
    out = tmp_path / "r.txt"
    if argv[0] == "run":
        argv += ["--out", str(out)]
    code = run_cli(*(str(arg) for arg in argv))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()


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
    assert err == "error: sigma must be nonnegative\n"
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
