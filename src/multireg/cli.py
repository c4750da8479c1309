"""Experiment command line: synth | run | eval | bench.

Configuration is a flat key=value text file; every key can be overridden on
the command line with --set key=value, and the common ones have dedicated
flags (--seed, --out, --algorithm). Output files are deterministic functions
of (config, seed): wall-clock timings go to stdout only, never into files.

Exit codes: 0 success, 1 algorithm-reported failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
import time
from pathlib import Path

from . import __version__
from .baselines import RansacConfig, TLinkageConfig, sequential_ransac, tlinkage_cluster
from .bounds import (check_consistency_bench, check_noise_ratio_bench, run_consistency_bench,
                     run_noise_ratio_bench)
from .clustering import Clustering, euclidean_cluster
from .em import EMConfig, NoViableClustersError, run_em
from .horn import horn_register
from .io import (fmt_float, read_clustering, read_scene, write_bench_csv,
                 write_clustering, write_result, write_scene, RESULT_FORMAT_VERSION)
from .metrics import EvalReport, evaluate
from .scenes import (InfeasibleSceneError, SceneSpec, SplitSizeError, check_split,
                     generate_scene, make_good_split)

ALGORITHMS = ("em", "sransac", "tlinkage", "naive-horn-per-cluster")
INIT_KINDS = ("euclidean", "good-split", "from-file")

DEFAULTS: dict[str, str] = {
    "seed": "0",
    "algorithm": "em",
    "out": "",
    "out_labels": "",
    "scene.file": "scene.txt",
    "scene.num_objects": "3",
    "scene.points_per_object": "200",
    "scene.sigma": "0.01",
    "scene.tau": "0.3",
    "scene.bound_b": "4.0",
    "scene.num_outliers": "0",
    "scene.separation_margin": "",
    "init.kind": "euclidean",
    "init.alpha": "2.0",
    "init.fragments": "3",
    "init.file": "",
    "em.tau": "",
    "em.m_min": "10",
    "em.max_iters": "100",
    "em.sigma_floor": "1e-8",
    "ransac.inlier_threshold": "",
    "ransac.max_trials": "100",
    "ransac.min_model_inliers": "10",
    "tlinkage.tau_t": "",
    "tlinkage.num_hypotheses": "100",
    "bench.suite": "consistency",
    "bench.m_values": "100,1000,10000",
    "bench.sigma": "0.1",
    "bench.bound_b": "1.0",
    "bench.delta": "0.05",
    "bench.trials": "200",
    "bench.noise_ratio_m": "100000",
    "bench.noise_ratio_trials": "100",
    "bench.noise_ratio_delta": "0.1",
}


class UsageError(Exception):
    """Bad configuration or arguments; maps to exit code 2."""


def load_config_file(path: str) -> dict[str, str]:
    cfg: dict[str, str] = {}
    try:
        lines = Path(path).read_text(encoding="ascii").splitlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise UsageError(f"malformed config line: {raw!r}")
        cfg[key.strip()] = value.strip()
    return cfg


def effective_config(args) -> dict[str, str]:
    cfg = dict(DEFAULTS)
    if args.config:
        cfg.update(load_config_file(args.config))
    for item in args.set or []:
        key, sep, value = item.partition("=")
        if not sep:
            raise UsageError(f"--set expects key=value, got {item!r}")
        cfg[key.strip()] = value.strip()
    if args.seed is not None:
        cfg["seed"] = str(args.seed)
    if getattr(args, "algorithm", None):
        cfg["algorithm"] = args.algorithm
    if getattr(args, "out", None):
        cfg["out"] = args.out
    return cfg


def config_hash(cfg: dict[str, str]) -> str:
    canonical = "".join(f"{k}={cfg[k]}\n" for k in sorted(cfg))
    return hashlib.sha256(canonical.encode("ascii")).hexdigest()[:12]


def _need(cfg, key) -> str:
    value = cfg.get(key, "")
    if not value:
        raise UsageError(f"config key '{key}' is required")
    return value


def _as_int(cfg, key) -> int:
    try:
        return int(_need(cfg, key))
    except ValueError as exc:
        raise UsageError(f"config key '{key}' must be an integer") from exc


def _as_float(cfg, key) -> float:
    try:
        return float(_need(cfg, key))
    except ValueError as exc:
        raise UsageError(f"config key '{key}' must be a number") from exc


def _as_int_list(cfg, key) -> list[int]:
    try:
        return [int(v) for v in _need(cfg, key).split(",") if v.strip()]
    except ValueError as exc:
        raise UsageError(f"config key '{key}' must be a comma-separated integer list") from exc


def scene_spec_from_config(cfg: dict[str, str]) -> SceneSpec:
    num_objects = _as_int(cfg, "scene.num_objects")
    counts = _as_int_list(cfg, "scene.points_per_object")
    if len(counts) == 1:
        counts = counts * num_objects
    margin = cfg.get("scene.separation_margin", "")
    try:
        return SceneSpec(
            num_objects=num_objects,
            points_per_object=tuple(counts),
            sigma=_as_float(cfg, "scene.sigma"),
            tau=_as_float(cfg, "scene.tau"),
            bound_b=_as_float(cfg, "scene.bound_b"),
            num_outliers=_as_int(cfg, "scene.num_outliers"),
            separation_margin=float(margin) if margin else None,
            seed=_as_int(cfg, "seed"),
        )
    except ValueError as exc:
        raise UsageError(f"invalid scene spec: {exc}") from exc


def _read_input(reader, path):
    """Read a scene or label file; a missing or malformed one is a usage error."""
    try:
        return reader(path)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


def _read_labels(path, scene) -> Clustering:
    """Read a label file with one label per correspondence of ``scene``."""
    clustering = _read_input(read_clustering, path)
    if len(clustering) != len(scene.correspondences):
        raise UsageError(f"{path} has {len(clustering)} labels, not {len(scene.correspondences)}")
    return clustering


def fit_cluster_transforms(cs, clustering: Clustering):
    """Horn fit per predicted cluster; clusters under 3 points dissolve to 0.

    Returns the (possibly relabeled) clustering and one transform per
    surviving cluster id.
    """
    clustering = clustering.keep(clustering.sizes()[1:] >= 3)
    transforms = [horn_register(cs.subset(clustering.members(j))).transform
                  for j in range(1, clustering.num_clusters + 1)]
    return clustering, transforms


def _metric_pairs(report: EvalReport) -> list[tuple[str, str]]:
    join = lambda values: ",".join(fmt_float(v) for v in values)
    return [
        ("metrics.mask_iou", fmt_float(report.mask_iou)),
        ("metrics.point_error", fmt_float(report.point_error)),
        ("metrics.rotation_error", fmt_float(report.rotation_error)),
        ("metrics.translation_error", fmt_float(report.translation_error)),
        ("metrics.per_object_point_error", join(report.per_object_point_error)),
        ("metrics.per_point_mean_error", fmt_float(report.per_point_mean_error)),
        ("metrics.per_cluster_iou", join(report.per_cluster_iou)),
        ("metrics.pose_cluster_ids", ",".join(str(i) for i in report.pose_cluster_ids)),
        ("metrics.per_cluster_rotation_error", join(report.per_cluster_rotation_error)),
        ("metrics.per_cluster_translation_error", join(report.per_cluster_translation_error)),
    ]


def _base_pairs(cfg, algorithm=None) -> list[tuple[str, str]]:
    pairs = [
        ("version", str(RESULT_FORMAT_VERSION)),
        ("tool_version", __version__),
        ("config_hash", config_hash(cfg)),
    ]
    if algorithm:
        pairs.append(("algorithm", algorithm))
    pairs.extend((f"config.{k}", v) for k, v in sorted(cfg.items()))
    return pairs


def cmd_synth(cfg: dict[str, str]) -> int:
    out = _need(cfg, "out")
    spec = scene_spec_from_config(cfg)
    scene = generate_scene(spec)
    write_scene(scene, out)
    print(f"scene written to {out}: n={spec.total_points} M={spec.num_objects} "
          f"sigma={fmt_float(spec.sigma)} tau={fmt_float(spec.tau)}")
    return 0


def _initializer(cfg, seed):
    """Check the init.* settings before any work is done; returns the function
    that builds the initial clustering from the scene."""
    kind = cfg.get("init.kind", "euclidean")
    if kind == "euclidean":
        return lambda scene: euclidean_cluster(scene.correspondences, scene.spec.tau)
    if kind == "good-split":
        alpha, fragments = _as_float(cfg, "init.alpha"), _as_int(cfg, "init.fragments")
        try:
            check_split(alpha, fragments)
        except ValueError as exc:
            raise UsageError(f"invalid init config: {exc}") from exc
        return lambda scene: make_good_split(scene, alpha, fragments, seed)
    if kind == "from-file":
        path = _need(cfg, "init.file")
        return lambda scene: _read_labels(path, scene)
    raise UsageError(f"unknown init.kind '{kind}'; expected one of {INIT_KINDS}")


def _algorithm_config(cfg, algorithm, seed, sigma, tau):
    """The algorithm's config (None for the naive baseline); a value that a
    config rejects is a usage error."""
    try:
        if algorithm == "em":
            return EMConfig(
                tau=_as_float(cfg, "em.tau") if cfg.get("em.tau") else tau,
                m_min=_as_int(cfg, "em.m_min"),
                max_iters=_as_int(cfg, "em.max_iters"),
                sigma_floor=_as_float(cfg, "em.sigma_floor"),
            )
        if algorithm == "sransac":
            return RansacConfig(
                inlier_threshold=(_as_float(cfg, "ransac.inlier_threshold")
                                  if cfg.get("ransac.inlier_threshold")
                                  else max(math.sqrt(3.0) * sigma, 1e-6)),
                max_trials=_as_int(cfg, "ransac.max_trials"),
                min_model_inliers=_as_int(cfg, "ransac.min_model_inliers"),
                seed=seed,
            )
        if algorithm == "tlinkage":
            return TLinkageConfig(
                tau_t=(_as_float(cfg, "tlinkage.tau_t") if cfg.get("tlinkage.tau_t")
                       else max(math.sqrt(3.0) * sigma, 0.01 * tau)),
                tau=tau,
                num_hypotheses=_as_int(cfg, "tlinkage.num_hypotheses"),
                seed=seed,
            )
    except ValueError as exc:
        raise UsageError(f"invalid {algorithm} config: {exc}") from exc
    return None


def cmd_run(cfg: dict[str, str]) -> int:
    out = _need(cfg, "out")
    algorithm = cfg.get("algorithm", "em")
    if algorithm not in ALGORITHMS:
        raise UsageError(f"unknown algorithm '{algorithm}'; expected one of {ALGORITHMS}")
    seed = _as_int(cfg, "seed")
    build_initial = _initializer(cfg, seed)
    t_start = time.perf_counter()
    scene = _read_input(read_scene, _need(cfg, "scene.file"))
    cs = scene.correspondences
    algo_cfg = _algorithm_config(cfg, algorithm, seed, scene.spec.sigma, scene.spec.tau)

    # sequential RANSAC starts from the whole scene, not from a clustering
    initial = None if algorithm == "sransac" else build_initial(scene)
    em_pairs: list[tuple[str, str]] = []

    t_algo = time.perf_counter()
    try:
        if algorithm == "em":
            result = run_em(cs, initial, algo_cfg)
            clustering = result.clustering
            transforms = [m.transform for m in result.models]
            em_pairs = [
                ("em.iterations_run", str(result.iterations_run)),
                ("em.converged", "true" if result.converged else "false"),
                ("em.assignment_changes", ",".join(str(c) for c in result.assignment_changes)),
            ]
            for stats in result.trace:
                prefix = f"em.trace.{stats.iteration}"
                em_pairs.append((f"{prefix}.sizes", ",".join(str(s) for s in stats.cluster_sizes)))
                em_pairs.append((f"{prefix}.weights", ",".join(fmt_float(w) for w in stats.weights)))
                em_pairs.append((f"{prefix}.sigmas", ",".join(fmt_float(s) for s in stats.sigmas)))
            for j, model in enumerate(result.models, start=1):
                em_pairs.append((f"models.{j}.sigma", fmt_float(model.sigma_hat)))
                em_pairs.append((f"models.{j}.weight", fmt_float(model.weight)))
        elif algorithm == "sransac":
            clustering, transforms = fit_cluster_transforms(cs, sequential_ransac(cs, algo_cfg))
        elif algorithm == "tlinkage":
            clustering, transforms = fit_cluster_transforms(cs, tlinkage_cluster(cs, initial, algo_cfg))
        else:  # naive-horn-per-cluster
            clustering, transforms = fit_cluster_transforms(cs, initial)
    except NoViableClustersError as exc:
        pairs = _base_pairs(cfg, algorithm)
        pairs.append(("result.status", "error"))
        pairs.append(("result.error", str(exc)))
        write_result(pairs, out)
        print(f"algorithm failed: {exc}", file=sys.stderr)
        return 1
    t_done = time.perf_counter()

    pairs = _base_pairs(cfg, algorithm)
    report = evaluate(cs, clustering, transforms, scene)
    pairs.append(("result.status", "ok"))
    pairs.extend(_metric_pairs(report))
    pairs.append(("models.count", str(len(transforms))))
    for j, transform in enumerate(transforms, start=1):
        pairs.append((f"models.{j}.rotation",
                      ",".join(fmt_float(v) for v in transform.rotation.reshape(-1))))
        pairs.append((f"models.{j}.translation",
                      ",".join(fmt_float(v) for v in transform.translation)))
    pairs.extend(em_pairs)
    pairs.append(("labels", ",".join(str(v) for v in clustering.labels)))
    write_result(pairs, out)
    if cfg.get("out_labels"):
        write_clustering(clustering, cfg["out_labels"])

    print(f"result written to {out}: algorithm={algorithm} "
          f"mask_iou={fmt_float(report.mask_iou)} "
          f"rotation_error={fmt_float(report.rotation_error)}")
    # stdout only: output files must be identical across repeated runs
    print(f"timing.load_init_s = {t_algo - t_start:.3f}")
    print(f"timing.algorithm_s = {t_done - t_algo:.3f}")
    print(f"timing.evaluate_write_s = {time.perf_counter() - t_done:.3f}")
    return 0


def cmd_eval(pred_path: str, scene_path: str, out: str | None) -> int:
    scene = _read_input(read_scene, scene_path)
    pred = _read_labels(pred_path, scene)
    clustering, transforms = fit_cluster_transforms(scene.correspondences, pred)
    report = evaluate(scene.correspondences, clustering, transforms, scene)
    pairs = _metric_pairs(report)
    for key, value in pairs:
        print(f"{key} = {value}")
    if out:
        write_result(pairs, out)
    return 0


def cmd_bench(cfg: dict[str, str]) -> int:
    out = _need(cfg, "out")
    suite = cfg.get("bench.suite", "consistency")
    if suite not in ("consistency", "noise-ratio", "both"):
        raise UsageError(f"unknown bench.suite '{suite}'")
    seed = _as_int(cfg, "seed")
    summary_pairs = _base_pairs(cfg)

    # Every setting of the suites that run is checked before either samples,
    # so a bad one exits 2 without work and without a partial file.
    consistency = ratio = None
    try:
        if suite in ("consistency", "both"):
            consistency = dict(
                m_values=_as_int_list(cfg, "bench.m_values"),
                sigma=_as_float(cfg, "bench.sigma"),
                bound_b=_as_float(cfg, "bench.bound_b"),
                delta=_as_float(cfg, "bench.delta"),
                trials=_as_int(cfg, "bench.trials"),
            )
            check_consistency_bench(**consistency)
        if suite in ("noise-ratio", "both"):
            ratio = dict(
                m_values=_as_int_list(cfg, "bench.noise_ratio_m"),
                delta=_as_float(cfg, "bench.noise_ratio_delta"),
                trials=_as_int(cfg, "bench.noise_ratio_trials"),
            )
            check_noise_ratio_bench(**ratio)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    if consistency is not None:
        trials, summaries = run_consistency_bench(**consistency, seed=seed)
        write_bench_csv(trials, out)
        for s in summaries:
            prefix = f"bench.consistency.m{s.m}"
            summary_pairs.extend([
                (f"{prefix}.trials", str(s.trials)),
                (f"{prefix}.violation_rate_rot", fmt_float(s.violation_rate_rot)),
                (f"{prefix}.violation_rate_trans", fmt_float(s.violation_rate_trans)),
                (f"{prefix}.median_rot_err_sq", fmt_float(s.median_rot_err_sq)),
                (f"{prefix}.median_trans_err_sq", fmt_float(s.median_trans_err_sq)),
            ])

    if ratio is not None:
        for s in run_noise_ratio_bench(**ratio, seed=seed):
            prefix = f"bench.noise_ratio.m{s.m}"
            summary_pairs.extend([
                (f"{prefix}.trials", str(s.trials)),
                (f"{prefix}.violation_rate", fmt_float(s.violation_rate)),
                (f"{prefix}.max_abs_deviation", fmt_float(s.max_abs_deviation)),
                (f"{prefix}.interval_low", fmt_float(s.interval_low)),
                (f"{prefix}.interval_high", fmt_float(s.interval_high)),
            ])

    write_result(summary_pairs, out + ".summary")
    for key, value in summary_pairs:
        if key.startswith("bench."):
            print(f"{key} = {value}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multireg",
        description="Multi-model rigid registration experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, algorithm_flag=False):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--seed", type=int, help="override the seed")
        p.add_argument("--out", help="output path")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override any config key")
        if algorithm_flag:
            p.add_argument("--algorithm", choices=ALGORITHMS)

    add_common(sub.add_parser("synth", help="generate a synthetic scene"))
    add_common(sub.add_parser("run", help="run an algorithm on a scene"), algorithm_flag=True)
    eval_p = sub.add_parser("eval", help="evaluate a predicted clustering against a scene")
    eval_p.add_argument("pred", help="clustering file (one label per line)")
    eval_p.add_argument("scene", help="scene file")
    eval_p.add_argument("--out", help="optional report path")
    add_common(sub.add_parser("bench", help="run the bound-validation benches"))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "eval":
            return cmd_eval(args.pred, args.scene, args.out)
        cfg = effective_config(args)
        if args.command == "synth":
            return cmd_synth(cfg)
        if args.command == "run":
            return cmd_run(cfg)
        return cmd_bench(cfg)
    except (UsageError, InfeasibleSceneError, SplitSizeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
