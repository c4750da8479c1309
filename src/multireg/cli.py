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
import os
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, fields
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import RansacConfig, TLinkageConfig, sequential_ransac, tlinkage_cluster
from .bounds import (check_consistency_bench, check_noise_ratio_bench, run_consistency_bench,
                     run_noise_ratio_bench)
from .clustering import Clustering, euclidean_cluster
from .em import EMConfig, NoViableClustersError, fit_clusters, run_em
from .grid import GridError
from .io import (fmt_float, parse_number, read_clustering, read_scene, write_bench_csv,
                 write_clustering, write_result, write_scene, RESULT_FORMAT_VERSION)
from .metrics import evaluate
from .scenes import (InfeasibleSceneError, SceneSpec, SplitSizeError, check_packing,
                     check_split, generate_scene, make_good_split)

ALGORITHMS = ("em", "sransac", "tlinkage", "naive-horn-per-cluster")


def _int_list(text: str) -> list[int]:
    return [parse_number(v) for v in text.split(",") if v.strip()]


def _seed(text: str) -> int:
    seed = parse_number(text)
    if seed < 0:
        raise ValueError("must be nonnegative")
    return seed


# key -> (default string, kind): int, float (both read by ``parse_number``),
# a parser or a tuple of allowed values. The defaults go into every result
# file and config_hash; the objects the values build check other domains.
CONFIG: dict[str, tuple[str, object]] = {
    "seed": ("0", _seed),
    "algorithm": ("em", ALGORITHMS),
    "out": ("", str),
    "out_labels": ("", str),
    "scene.file": ("scene.txt", str),
    "scene.num_objects": ("3", int),
    "scene.points_per_object": ("200", _int_list),
    "scene.sigma": ("0.01", float),
    "scene.tau": ("0.3", float),
    "scene.bound_b": ("4.0", float),
    "scene.num_outliers": ("0", int),
    "scene.separation_margin": ("", float),
    "init.kind": ("euclidean", ("euclidean", "good-split", "from-file")),
    "init.alpha": ("2.0", float),
    "init.fragments": ("3", int),
    "init.file": ("", str),
    "em.tau": ("", float),
    "em.m_min": ("10", int),
    "em.max_iters": ("100", int),
    "em.sigma_floor": ("1e-8", float),
    "ransac.inlier_threshold": ("", float),
    "ransac.max_trials": ("100", int),
    "ransac.min_model_inliers": ("10", int),
    "tlinkage.tau_t": ("", float),
    "tlinkage.num_hypotheses": ("100", int),
    "bench.suite": ("consistency", ("consistency", "noise-ratio", "both")),
    "bench.m_values": ("100,1000,10000", _int_list),
    "bench.sigma": ("0.1", float),
    "bench.bound_b": ("1.0", float),
    "bench.delta": ("0.05", float),
    "bench.trials": ("200", int),
    "bench.noise_ratio_m": ("100000", _int_list),
    "bench.noise_ratio_trials": ("100", int),
    "bench.noise_ratio_delta": ("0.1", float),
}


class UsageError(Exception):
    """Bad configuration or arguments; maps to exit code 2."""


@contextmanager
def _usage(prefix: str = "", section: str = "", errors=(ValueError, OSError)):
    """Re-raise an error of the types ``errors`` from the block as a UsageError;
    a message that begins with a field of the config ``section`` names its key."""
    try:
        yield
    except errors as exc:
        key = section if section + str(exc).split(" ", 1)[0] in CONFIG else ""
        raise UsageError(f"{prefix}{key}{exc}") from exc


def _check_outputs(outputs, inputs) -> None:
    """Refuse, before any work, an output path whose directory does not
    exist, that is a directory, or that resolves to one of the command's
    input files or to another of its outputs. Empty paths are skipped."""
    taken = {os.path.realpath(path): "an input" for path in inputs if path}
    for path in filter(None, outputs):
        resolved = os.path.realpath(path)
        if not os.path.isdir(os.path.dirname(resolved)):
            raise UsageError(f"cannot write {path}: directory {os.path.dirname(path)} does not exist")
        if os.path.isdir(resolved):
            raise UsageError(f"cannot write {path}: it is a directory")
        if resolved in taken:
            raise UsageError(f"cannot write {path}: it is also {taken[resolved]} of this command")
        taken[resolved] = "an output"


def _write(write, value, path, written: list) -> None:
    """``write(value, path)`` as one of a command's writes, which share ``written``.
    On an OSError each regular file the command has opened for writing is
    removed, so nothing partial is left, and a usage error names the path.
    Files are written in place, never renamed over the target: a device node
    given as an output stays one."""
    # an existing file the command may not write is never opened, so it stays
    kept = os.path.exists(path) and not os.access(path, os.W_OK)
    try:
        write(value, path)
    except OSError as exc:
        for done in map(os.path.realpath, written + ([] if kept else [path])):
            if os.path.isfile(done):
                os.remove(done)
        raise UsageError(f"cannot write {path}: {exc}") from exc
    written.append(path)


def load_config_file(path: str) -> list[str]:
    """The key=value lines of a config file, without blank and # lines."""
    with _usage(f"cannot read config file {path}: "):
        lines = Path(path).read_text(encoding="ascii").splitlines()
    return [line for line in map(str.strip, lines) if line and not line.startswith("#")]


def effective_config(args) -> dict[str, str]:
    """The defaults, then the config file's lines, then each --set, then the
    --seed/--algorithm/--out flags as given; an unknown key or a value that is
    not ASCII (config_hash and the result files are ASCII) is a usage error."""
    cfg = {key: default for key, (default, _) in CONFIG.items()}
    for item in (load_config_file(args.config) if args.config else []) + (args.set or []):
        key, sep, value = (part.strip() for part in item.partition("="))
        if not sep:
            raise UsageError(f"expected key=value, got {item!r}")
        if key not in CONFIG:
            raise UsageError(f"unknown config key '{key}'")
        cfg[key] = value
    for key in ("seed", "algorithm", "out"):
        if getattr(args, key, None) is not None:
            cfg[key] = getattr(args, key)
    for key, value in cfg.items():
        if not value.isascii():
            raise UsageError(f"config key '{key}': value {ascii(value)} is not ASCII")
    return cfg


def config_hash(cfg: dict[str, str]) -> str:
    canonical = "".join(f"{k}={cfg[k]}\n" for k in sorted(cfg))
    return hashlib.sha256(canonical.encode("ascii")).hexdigest()[:12]


def _get(cfg, key, unset=...):
    """The value of ``key`` parsed by its kind in CONFIG. An empty value
    gives ``unset``, or is an error when no ``unset`` is given."""
    value, kind = cfg[key], CONFIG[key][1]
    if not value:
        if unset is ...:
            raise UsageError(f"config key '{key}' is required")
        return unset
    with _usage(f"config key '{key}': "):
        if isinstance(kind, tuple) and value not in kind:
            raise ValueError(f"expected one of {', '.join(kind)}, got {value!r}")
        if kind in (int, float):
            return parse_number(value, kind)
        return value if isinstance(kind, tuple) else kind(value)


def _fields(cfg, cls, prefix: str, **unset) -> dict:
    """``_get(cfg, prefix + name)`` for each field of the dataclass ``cls``
    whose key is in CONFIG, in field order; an empty value takes
    ``unset[name]``, or is required when the field has no entry there."""
    return {f.name: _get(cfg, prefix + f.name, unset.get(f.name, ...))
            for f in fields(cls) if prefix + f.name in CONFIG}


def scene_spec_from_config(cfg: dict[str, str]) -> SceneSpec:
    values = _fields(cfg, SceneSpec, "scene.", separation_margin=None)
    seed = _get(cfg, "seed")
    with _usage("invalid scene spec: ", "scene."):
        counts, num_objects = values["points_per_object"], values["num_objects"]
        if len(counts) == 1 and num_objects > 1:
            # a one-object spec checks the other settings in their order, then
            # the packing bound refuses a count too large to repeat
            check_packing(SceneSpec(**{**values, "num_objects": 1}, seed=seed), num_objects)
            try:
                values["points_per_object"] = counts * num_objects
            except MemoryError:  # a small tau lets the bound admit too many
                raise ValueError(f"scene.num_objects {num_objects} is too many to hold "
                                 "one point count each") from None
        return SceneSpec(**values, seed=seed)


def _read_labels(path, scene) -> Clustering:
    """Read a label file with one label per correspondence of ``scene``."""
    with _usage(f"cannot read {path}: "):
        clustering = read_clustering(path)
    if len(clustering) != len(scene.correspondences):
        raise UsageError(f"{path} has {len(clustering)} labels, not {len(scene.correspondences)}")
    return clustering


def fit_cluster_transforms(cs, clustering: Clustering):
    """The clustering with clusters under 3 points dissolved to 0 (survivors
    renumbered 1..K'), and one Horn-fit transform per surviving cluster."""
    clustering = clustering.keep(clustering.sizes()[1:] >= 3)
    return clustering, [est.transform for est in fit_clusters(cs, clustering)]


def _text(value) -> str:
    """Record text of a value: a flag is true/false, an int decimal, a float
    ``fmt_float``'s full precision, and an array or tuple its items joined by
    commas."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return fmt_float(value)
    if isinstance(value, np.ndarray):
        if value.dtype.kind in "iu":  # label arrays: str of an int is its record text
            return ",".join(map(str, value.ravel().tolist()))
        value = value.ravel().tolist()
    return ",".join(map(_text, value))


def _pairs(prefix: str, **values) -> list[tuple[str, str]]:
    """One ``prefix.key`` record line per keyword, in keyword order."""
    return [(f"{prefix}.{key}", _text(value)) for key, value in values.items()]


def _base_pairs(cfg, algorithm=None) -> list[tuple[str, str]]:
    pairs = [("version", str(RESULT_FORMAT_VERSION)), ("tool_version", __version__),
             ("config_hash", config_hash(cfg))]
    pairs += [("algorithm", algorithm)] if algorithm else []
    return pairs + [(f"config.{k}", v) for k, v in sorted(cfg.items())]


def cmd_synth(cfg: dict[str, str], config_file: str | None = None) -> int:
    out = _get(cfg, "out")
    _check_outputs([out], [config_file])
    spec = scene_spec_from_config(cfg)
    with _usage("invalid scene spec: ", "scene.", GridError):
        try:
            scene = generate_scene(spec)
        except GridError as exc:  # the spec's tau is positive: the ball is too wide for its cells
            raise GridError(f"bound_b {spec.bound_b:g} puts coordinates beyond int64 cells "
                            f"at scene.tau {spec.tau:g}") from exc
    _write(write_scene, scene, out, [])
    print(f"scene written to {out}: n={spec.total_points} M={spec.num_objects} "
          f"sigma={fmt_float(spec.sigma)} tau={fmt_float(spec.tau)}")
    return 0


def _initializer(cfg, seed):
    """Check the init.* settings before any work is done; returns the function
    that builds the initial clustering from the scene."""
    kind = _get(cfg, "init.kind")
    if kind == "euclidean":
        return lambda scene: euclidean_cluster(scene.correspondences, scene.spec.tau)
    if kind == "good-split":
        alpha, fragments = _get(cfg, "init.alpha"), _get(cfg, "init.fragments")
        with _usage("invalid init config: ", "init."):
            check_split(alpha, fragments)
        return lambda scene: make_good_split(scene, alpha, fragments, seed)
    path = _get(cfg, "init.file")  # from-file
    return lambda scene: _read_labels(path, scene)


def _algorithm_config(cfg, algorithm, seed, sigma, tau):
    """The algorithm's config (None for the naive baseline); a value that a
    config rejects is a usage error."""
    section = {"em": "em.", "sransac": "ransac.", "tlinkage": "tlinkage."}.get(algorithm, "")
    with _usage(f"invalid {algorithm} config: ", section):
        if algorithm == "em":
            return EMConfig(**_fields(cfg, EMConfig, section, tau=tau))
        if algorithm == "sransac":
            return RansacConfig(**_fields(cfg, RansacConfig, section,
                                          inlier_threshold=max(math.sqrt(3.0) * sigma, 1e-6)),
                                seed=seed)
        if algorithm == "tlinkage":
            return TLinkageConfig(**_fields(cfg, TLinkageConfig, section,
                                            tau_t=max(math.sqrt(3.0) * sigma, 0.01 * tau)),
                                  tau=tau, seed=seed)
    return None


def cmd_run(cfg: dict[str, str], config_file: str | None = None) -> int:
    out, labels_out = _get(cfg, "out"), _get(cfg, "out_labels", unset=None)
    _check_outputs([out, labels_out], [config_file, cfg["scene.file"], cfg["init.file"]])
    algorithm = _get(cfg, "algorithm")
    seed = _get(cfg, "seed")
    build_initial = _initializer(cfg, seed)
    t_start = time.perf_counter()
    with _usage(f"cannot read {cfg['scene.file']}: "):
        scene = read_scene(_get(cfg, "scene.file"))
    cs = scene.correspondences
    algo_cfg = _algorithm_config(cfg, algorithm, seed, scene.spec.sigma, scene.spec.tau)

    # sequential RANSAC starts from the whole scene, not from a clustering
    initial = None if algorithm == "sransac" else build_initial(scene)
    em_pairs: list[tuple[str, str]] = []

    t_algo = time.perf_counter()
    try:
        if algorithm == "em":
            with _usage("invalid em config: ", "em.", GridError):
                result = run_em(cs, initial, algo_cfg)
            clustering = result.clustering
            transforms = [m.transform for m in result.models]
            em_pairs = _pairs("em", iterations_run=result.iterations_run,
                              converged=result.converged,
                              assignment_changes=result.assignment_changes)
            for stats in result.trace:
                em_pairs += _pairs(f"em.trace.{stats.iteration}", sizes=stats.cluster_sizes,
                                   weights=stats.weights, sigmas=stats.sigmas)
            for j, model in enumerate(result.models, start=1):
                em_pairs += _pairs(f"models.{j}", sigma=model.sigma_hat, weight=model.weight)
        elif algorithm == "sransac":
            clustering, transforms = fit_cluster_transforms(cs, sequential_ransac(cs, algo_cfg))
        elif algorithm == "tlinkage":
            clustering, transforms = fit_cluster_transforms(cs, tlinkage_cluster(cs, initial, algo_cfg))
        else:  # naive-horn-per-cluster
            clustering, transforms = fit_cluster_transforms(cs, initial)
    except NoViableClustersError as exc:
        _write(write_result, _base_pairs(cfg, algorithm)
               + [("result.status", "error"), ("result.error", str(exc))], out, [])
        print(f"algorithm failed: {exc}", file=sys.stderr)
        return 1
    t_done = time.perf_counter()

    pairs = _base_pairs(cfg, algorithm)
    report = evaluate(cs, clustering, transforms, scene)
    pairs.append(("result.status", "ok"))
    pairs += _pairs("metrics", **asdict(report))
    pairs += _pairs("models", count=len(transforms))
    for j, transform in enumerate(transforms, start=1):
        pairs += _pairs(f"models.{j}", rotation=transform.rotation,
                        translation=transform.translation)
    pairs += em_pairs
    pairs.append(("labels", _text(clustering.labels)))
    written: list[str] = []
    _write(write_result, pairs, out, written)
    if labels_out:
        _write(write_clustering, clustering, labels_out, written)

    print(f"result written to {out}: algorithm={algorithm} "
          f"mask_iou={fmt_float(report.mask_iou)} "
          f"rotation_error={fmt_float(report.rotation_error)}")
    # stdout only: output files must be identical across repeated runs
    print(f"timing.load_init_s = {t_algo - t_start:.3f}")
    print(f"timing.algorithm_s = {t_done - t_algo:.3f}")
    print(f"timing.evaluate_write_s = {time.perf_counter() - t_done:.3f}")
    return 0


def cmd_eval(pred_path: str, scene_path: str, out: str | None) -> int:
    _check_outputs([out], [pred_path, scene_path])
    with _usage(f"cannot read {scene_path}: "):
        scene = read_scene(scene_path)
    pred = _read_labels(pred_path, scene)
    clustering, transforms = fit_cluster_transforms(scene.correspondences, pred)
    report = evaluate(scene.correspondences, clustering, transforms, scene)
    pairs = _pairs("metrics", **asdict(report))
    for key, value in pairs:
        print(f"{key} = {value}")
    if out:
        _write(write_result, pairs, out, [])
    return 0


def _beside(background, foreground):
    """``(background(), foreground())``. When both are given, ``background``
    runs on a daemon worker thread while this thread runs ``foreground``; the
    worker is joined before anything returns or is raised, and its exception
    is raised here. A function that is None is not run and gives None."""
    if background is None or foreground is None:
        return (None if background is None else background(),
                None if foreground is None else foreground())
    result, error = [], []

    def work():
        try:
            result.append(background())
        except BaseException as exc:  # raised again on the calling thread
            error.append(exc)

    worker = threading.Thread(target=work, daemon=True)
    worker.start()
    try:
        value = foreground()
    finally:
        worker.join()
    if error:
        raise error[0]
    return result[0], value


def cmd_bench(cfg: dict[str, str], config_file: str | None = None) -> int:
    """Run the suites ``bench.suite`` names; write the consistency suite's
    per-trial CSV to ``out`` and every suite's summary to ``out.summary``.

    With ``both``, the noise-ratio suite runs on a worker thread beside the
    consistency suite: its draws and cumsums are numpy calls that release the
    GIL. Each suite draws from its own SeedSequence, so the bytes are those of
    one suite after the other, and peak memory is the sum of the two suites'
    working sets. Nothing is written until both have finished, so an error in
    either (an out-of-memory draw, say) leaves no file."""
    out = _get(cfg, "out")
    _check_outputs([out, out + ".summary"], [config_file])
    suite = _get(cfg, "bench.suite")
    seed = _get(cfg, "seed")
    summary_pairs = _base_pairs(cfg)
    written: list[str] = []

    # Every setting of the suites that run is checked before either samples,
    # so a bad one exits 2 without work and without a partial file.
    consistency = ratio = None
    with _usage():
        if suite in ("consistency", "both"):
            consistency = {key: _get(cfg, f"bench.{key}")
                           for key in ("m_values", "sigma", "bound_b", "delta", "trials")}
            check_consistency_bench(**consistency)
        if suite in ("noise-ratio", "both"):
            ratio = dict(
                m_values=_get(cfg, "bench.noise_ratio_m"),
                delta=_get(cfg, "bench.noise_ratio_delta"),
                trials=_get(cfg, "bench.noise_ratio_trials"),
            )
            check_noise_ratio_bench(**ratio)

    ratio_rows, consistency_out = _beside(
        ratio and partial(run_noise_ratio_bench, **ratio, seed=seed),
        consistency and partial(run_consistency_bench, **consistency, seed=seed))
    summaries = []
    if consistency_out is not None:
        trials, rows = consistency_out
        _write(write_bench_csv, trials, out, written)
        summaries += [("consistency", row) for row in rows]
    summaries += [("noise_ratio", row) for row in ratio_rows or ()]
    # one record line per summary field; m is in the prefix, and the ratios
    # of each trial stay out
    for suite, summary in summaries:
        values = asdict(summary)
        values.pop("ratios", None)
        summary_pairs += _pairs(f"bench.{suite}.m{values.pop('m')}", **values)

    _write(write_result, summary_pairs, out + ".summary", written)
    for key, value in summary_pairs:
        if key.startswith("bench."):
            print(f"{key} = {value}")
    return 0


class _Parser(argparse.ArgumentParser):
    """A parser, and subparsers of its class, whose errors are usage errors."""

    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="multireg",
        description="Multi-model rigid registration experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, algorithm_flag=False):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--seed", help="override the seed")
        p.add_argument("--out", help="output path")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override any config key")
        if algorithm_flag:
            p.add_argument("--algorithm", help="override the algorithm: " + ", ".join(ALGORITHMS))

    add_common(sub.add_parser("synth", help="generate a synthetic scene"))
    add_common(sub.add_parser("run", help="run an algorithm on a scene"), algorithm_flag=True)
    eval_p = sub.add_parser("eval", help="evaluate a predicted clustering against a scene")
    eval_p.add_argument("pred", help="clustering file (one label per line)")
    eval_p.add_argument("scene", help="scene file")
    eval_p.add_argument("--out", help="optional report path")
    add_common(sub.add_parser("bench", help="run the bound-validation benches"))
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "eval":
            return cmd_eval(args.pred, args.scene, args.out)
        cfg = effective_config(args)
        if args.command == "synth":
            return cmd_synth(cfg, args.config)
        if args.command == "run":
            return cmd_run(cfg, args.config)
        return cmd_bench(cfg, args.config)
    except (UsageError, GridError, InfeasibleSceneError, SplitSizeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a count that numpy can index but no memory can hold
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
