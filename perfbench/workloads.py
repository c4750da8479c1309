"""The benchmark's workloads: the CLI calls of one case and their checks.

Every workload drives ``multireg.cli.main`` in-process, exactly as a user's
command line would, and reads the program's output files back with a parser
of its own, so the checks do not depend on the code under test.
"""

from __future__ import annotations

import contextlib
import io
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from multireg import cli
from multireg.io import read_scene, write_clustering
from multireg.scenes import make_good_split


# name -> (unit, better) of the per-workload quality figures. They are
# printed, not bounded (see README.md); the per-case checks enforce them.
QUALITY_UNITS = {
    "failed_ratio": ("ratio", "lower"),
    "mask_iou.em": ("ratio", "higher"),
    "mask_iou.sransac": ("ratio", "higher"),
    "mask_iou.tlinkage": ("ratio", "higher"),
    "mask_iou.naive": ("ratio", "higher"),
    "rotation_error_rad.em": ("rad", "lower"),
    "point_error.em": ("ratio", "lower"),
    "bound_violation_rate": ("ratio", "lower"),
}


class CaseFailure(Exception):
    """A CLI call exited non-zero or its output failed a check."""


class CliRunner:
    """Runs CLI commands in-process and adds up the wall time spent in them."""

    def __init__(self):
        self.seconds = 0.0

    def __call__(self, *argv, settings: dict | None = None) -> str:
        """Run one command, with ``--set key=value`` per setting; return its
        stdout or raise CaseFailure."""
        args = [str(arg) for arg in argv]
        for key, value in (settings or {}).items():
            args += ["--set", f"{key}={value}"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = cli.main(args)
            except SystemExit as exc:  # argparse rejects bad arguments this way
                code = exc.code
            except Exception:  # the command line would exit 1 with this traceback
                code = 1
                err.write(traceback.format_exc().strip().splitlines()[-1])
            finally:
                self.seconds += time.perf_counter() - start
        if code != 0:
            raise CaseFailure(f"multireg {args[0]} exited {code}: {err.getvalue().strip()}")
        return out.getvalue()


def parse_record(text: str) -> dict[str, str]:
    """Parse flat 'key = value' lines, as in result files and eval's stdout."""
    record = {}
    for line in text.splitlines():
        key, _, value = line.partition(" = ")
        record[key.strip()] = value
    return record


def read_record(path: Path) -> dict[str, str]:
    return parse_record(path.read_text(encoding="ascii"))


def _number(record: dict[str, str], key: str) -> float:
    try:
        return float(record[key])
    except (KeyError, ValueError) as exc:
        raise CaseFailure(f"result has no numeric '{key}'") from exc


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CaseFailure(message)


def _em_quality(record: dict[str, str]) -> dict[str, float]:
    return {
        "mask_iou.em": _number(record, "metrics.mask_iou"),
        "rotation_error_rad.em": _number(record, "metrics.rotation_error"),
        "point_error.em": _number(record, "metrics.point_error"),
    }


def _synth(cli_run: CliRunner, work: Path, seed: int, scene: dict) -> Path:
    path = work / "scene.txt"
    cli_run("synth", "--seed", seed, "--out", path, settings=scene)
    return path


def goodsplit_case(cli_run: CliRunner, work: Path, state: dict, seed: int) -> dict[str, float]:
    scene = _synth(cli_run, work, seed, state["scene"])
    result, labels = work / "result.txt", work / "labels.txt"
    cli_run("run", "--seed", seed, "--algorithm", "em", "--out", result,
            settings={"scene.file": scene, "init.kind": "good-split", "init.alpha": 2,
                      "init.fragments": 3, "em.max_iters": 20, "out_labels": labels})
    evaluated = parse_record(cli_run("eval", labels, scene))
    record = read_record(result)
    # the criterion-4 guarantee: a good split converges to the ground truth
    _expect(record.get("em.converged") == "true", "EM did not converge")
    _expect(_number(record, "metrics.mask_iou") == 1.0,
            f"mask_iou {record['metrics.mask_iou']} != 1 on a good split")
    _expect(_number(evaluated, "metrics.mask_iou") == 1.0,
            "eval of the written labels does not give mask_iou 1")
    return _em_quality(record)


BASELINE_ALGORITHMS = {"em": "em", "sransac": "sransac", "tlinkage": "tlinkage",
                       "naive": "naive-horn-per-cluster"}


def baselines_case(cli_run: CliRunner, work: Path, state: dict, seed: int) -> dict[str, float]:
    scene = _synth(cli_run, work, seed, state["scene"])
    quality = {}
    for short, algorithm in BASELINE_ALGORITHMS.items():
        result = work / f"result_{short}.txt"
        cli_run("run", "--seed", seed, "--algorithm", algorithm, "--out", result,
                settings={"scene.file": scene, "init.kind": "euclidean"})
        record = read_record(result)
        _expect(record.get("result.status") == "ok", f"{algorithm}: result.status is not ok")
        if short == "em":
            quality.update(_em_quality(record))
        else:
            quality[f"mask_iou.{short}"] = _number(record, "metrics.mask_iou")
    return quality


# The em_large scene and split do not depend on the base seed: the cost of
# make_good_split varies several-fold between seeds, so a seed-dependent
# set-up would make setup_s measure the seed rather than the code.
EM_LARGE_SCENE_SEED = 1


def em_large_setup(cli_run: CliRunner, work: Path, state: dict) -> None:
    """Write a large scene and its good split, shared by the cases that follow."""
    scene_path = _synth(cli_run, work, EM_LARGE_SCENE_SEED, state["scene"])
    split = make_good_split(read_scene(scene_path), alpha=2.0,
                            fragments_per_object=state["fragments"], seed=EM_LARGE_SCENE_SEED)
    init_path = work / "init.txt"
    write_clustering(split, init_path)
    state.update(scene_path=scene_path, init_path=init_path, labels=None)


def em_large_case(cli_run: CliRunner, work: Path, state: dict, seed: int) -> dict[str, float]:
    result = work / "result.txt"
    cli_run("run", "--seed", seed, "--algorithm", "em", "--out", result,
            settings={"scene.file": state["scene_path"], "init.kind": "from-file",
                      "init.file": state["init_path"]})
    record = read_record(result)
    _expect(record.get("em.converged") == "true", "EM did not converge")
    if state["labels"] is None:
        state["labels"] = record.get("labels")
    _expect(record.get("labels") == state["labels"],
            "labels differ between cases on the same scene and initialisation")
    return _em_quality(record)


def bound_case(cli_run: CliRunner, work: Path, state: dict, seed: int) -> dict[str, float]:
    out = work / "bench.csv"
    cli_run("bench", "--seed", seed, "--out", out,
            settings={"bench.suite": "both", **state["bench"]})
    summary = read_record(Path(f"{out}.summary"))
    # Each rate is held to the delta its interval was computed with.
    deltas = {"bench.consistency.": _number(summary, "config.bench.delta"),
              "bench.noise_ratio.": _number(summary, "config.bench.noise_ratio_delta")}
    rates = [(_number(summary, key), delta) for key in summary for prefix, delta in deltas.items()
             if key.startswith(prefix) and ".violation_rate" in key]
    # rotation and translation per m, plus one noise-ratio rate
    expected = 2 * len(state["bench"]["bench.m_values"].split(",")) + 1
    _expect(len(rates) == expected, f"bench summary has {len(rates)} violation rates, not {expected}")
    for rate, delta in rates:
        _expect(rate <= delta, f"violation rate {rate} exceeds delta {delta}")
    return {"bound_violation_rate": max(rate for rate, _ in rates)}


@dataclass(frozen=True)
class Workload:
    name: str
    # Layers a traced run must see called; the coverage check fails otherwise.
    layers: tuple[str, ...]
    case: Callable[[CliRunner, Path, dict, int], dict[str, float]]
    full: dict
    tiny: dict
    # Distinct case seeds; a run repeats whole passes over them.
    cases_per_pass: int
    setup: Callable[[CliRunner, Path, dict], None] | None = None

    def state(self, tiny: bool) -> dict:
        """A fresh copy of the workload's parameters, at full or smoke-test size."""
        return {key: dict(v) if isinstance(v, dict) else v
                for key, v in (self.tiny if tiny else self.full).items()}


def _scene(points: int, outliers: int, sigma: float) -> dict:
    return {"scene.num_objects": 3, "scene.points_per_object": points,
            "scene.num_outliers": outliers, "scene.sigma": sigma,
            "scene.tau": 0.3, "scene.bound_b": 4}


WORKLOADS = {w.name: w for w in (
    Workload(
        name="synth_goodsplit",
        layers=("cli", "scenes", "clustering", "em", "horn", "metrics", "io"),
        case=goodsplit_case,
        full={"scene": _scene(2000, 0, 0.0015)},
        tiny={"scene": _scene(200, 0, 0.0015)},
        cases_per_pass=20,
    ),
    Workload(
        name="outlier_baselines",
        layers=("cli", "scenes", "clustering", "em", "horn", "baselines", "metrics", "io"),
        case=baselines_case,
        full={"scene": _scene(600, 300, 0.015)},
        tiny={"scene": _scene(100, 30, 0.015)},
        cases_per_pass=22,
    ),
    Workload(
        name="em_large",
        layers=("cli", "em", "horn", "metrics", "io"),
        case=em_large_case,
        setup=em_large_setup,
        full={"scene": _scene(6000, 600, 0.015), "fragments": 8},
        tiny={"scene": _scene(300, 30, 0.015), "fragments": 8},
        cases_per_pass=20,
    ),
    Workload(
        name="bound_bench",
        layers=("cli", "bounds", "horn", "io"),
        case=bound_case,
        full={"bench": {"bench.m_values": "100,1000,10000", "bench.trials": 100,
                        "bench.noise_ratio_m": 100000, "bench.noise_ratio_trials": 30}},
        tiny={"bench": {"bench.m_values": "100,1000", "bench.trials": 3,
                        "bench.noise_ratio_m": 6000, "bench.noise_ratio_trials": 2}},
        cases_per_pass=16,
    ),
)}
