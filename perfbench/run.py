#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics; the last stdout line is JSON.

    python3 perfbench/run.py --workload synth_goodsplit --seed 1 --seconds 20 --trace 0

Run from a source checkout: the package is imported from ``src/`` next to
this directory, never from an installed copy. The run sets up the workload,
then runs cases one at a time (a closed loop with one client), checking
every case's output. A pass runs the workload's fixed number of cases with
CLI seeds ``seed * 10000 + i``; passes repeat while another whole pass fits
into ``--seconds``, so every run measures the same inputs whatever its speed.
A failing case can be replayed by hand from its seed.

The host's speed drifts, so the run also times a fixed reference chunk
(``reference.py``): twice after every set-up, once after every untraced
case. ``setup_s`` and ``cases_per_s`` are scaled to a host on which that
chunk takes ``REFERENCE_S``; the detail line keeps the unscaled figures.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs every case
twice, untraced then traced, and reports the per-layer metrics, the traced
median and the tracing overhead; it fails when a layer that the workload
declares records no call. ``--tiny`` shrinks the inputs to one small case per
pass for the smoke test. Units and directions come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"
# One BLAS thread, at most nproc on any host: the linear algebra here is 3x3
# SVDs and m x 3 products, and a fixed setting keeps hosts comparable.
BLAS_THREADS = "1"
CASE_SEED_STRIDE = 10_000
SETUP_REPEATS = 3
SETUP_REF_CHUNKS = 2


def parse_args(spec: dict, argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test input sizes")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    return args


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}: {blas.get('openblas configuration', '')}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "seed": seed,
    }


def run(args: argparse.Namespace) -> dict:
    import_start = time.perf_counter()
    import multireg

    if Path(multireg.__file__).resolve().parent != SRC / "multireg":
        raise SystemExit(f"multireg was imported from {multireg.__file__}, not {SRC}")

    from reference import REFERENCE_S, time_chunk
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS, CaseFailure, CliRunner

    setup_import_s = time.perf_counter() - import_start
    workload = WORKLOADS[args.workload]
    env = environment(args.seed)
    cases_per_pass = 1 if args.tiny else workload.cases_per_pass
    SCRATCH.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(dir=SCRATCH))
    try:
        # Set up several times with the same inputs and report the median;
        # the cases use the last set-up.
        time_chunk()  # warm-up; the first chunk of a process runs slower
        setup_times, setup_ref_s = [], []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            work = Path(tempfile.mkdtemp(dir=run_dir))
            state = workload.state(args.tiny)
            if workload.setup is not None:
                workload.setup(CliRunner(), work, state)
            setup_times.append(time.perf_counter() - start)
            setup_ref_s += [time_chunk() for _ in range(SETUP_REF_CHUNKS)]

        cli_run = CliRunner()
        tracer = Tracer() if args.trace else None
        plain_s, case_ref_s, traced_s, failures = [], [], [], []
        quality: dict[str, list[float]] = {}

        def one_case(index: int, traced: bool) -> float:
            seed = args.seed * CASE_SEED_STRIDE + index
            cli_run.seconds = 0.0
            try:
                with tracer if traced else contextlib.nullcontext():
                    found = workload.case(cli_run, work, state, seed)
            except CaseFailure as exc:
                failures.append(f"case {index} (seed {seed}): {exc}")
            else:
                for name, value in found.items():
                    quality.setdefault(name, []).append(value)
            return cli_run.seconds

        loop_start = time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            for index in range(cases_per_pass):
                plain_s.append(one_case(index, traced=False))
                case_ref_s.append(time_chunk())
                if tracer is not None:
                    traced_s.append(one_case(index, traced=True))
            now = time.perf_counter()
            if now - loop_start + (now - pass_start) > args.seconds:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run still uses it

    attempted = len(plain_s) + len(traced_s)
    coverage_errors = []
    metrics: dict[str, float] = {}
    # how many times slower than nominal the host ran during set-up and cases
    setup_slowness = statistics.fmean(setup_ref_s) / REFERENCE_S
    case_slowness = statistics.fmean(case_ref_s) / REFERENCE_S
    raw_setup_s = setup_import_s + statistics.median(setup_times)
    raw_cases_per_s = len(plain_s) / sum(plain_s)
    if tracer is None:
        metrics["setup_s"] = raw_setup_s / setup_slowness
        metrics["cases_per_s"] = raw_cases_per_s * case_slowness
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        metrics.update(layer_metrics(tracer, len(traced_s)))
        metrics["trace.case_s.p50"] = statistics.median(traced_s)
        metrics["trace.overhead"] = statistics.median(traced_s) / statistics.median(plain_s) - 1.0
        for key in tracer.missing:
            print(f"warning: {key} no longer exists; its layer metrics are missing",
                  file=sys.stderr)
        coverage_errors = [f"coverage: layer '{layer}' recorded no call"
                           for layer in workload.layers if tracer.layer_calls(layer) == 0]

    detail = {
        "workload": workload.name,
        "cases": len(plain_s),
        "cases_per_pass": cases_per_pass,
        "case_s": plain_s,
        "case_s.p50": statistics.median(plain_s),
        "setup_repeats": SETUP_REPEATS,
        "setup_import_s": setup_import_s,
        "setup_workload_s": setup_times,
        "setup_s.raw": raw_setup_s,
        "cases_per_s.raw": raw_cases_per_s,
        "reference_s": {"nominal": REFERENCE_S, "setup": setup_ref_s, "cases": case_ref_s},
        "failed_ratio": len(failures) / attempted,
        "quality": {name: statistics.fmean(values) for name, values in sorted(quality.items())},
        "environment": env,
    }
    return {"metrics": metrics, "detail": detail, "failures": failures,
            "errors": failures + coverage_errors, "attempted": attempted}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(spec, argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    if not (SRC / "multireg" / "__init__.py").is_file():
        print(f"error: no multireg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    outcome = run(args)

    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    undeclared = set(outcome["metrics"]) - set(declared)
    if undeclared:
        print(f"error: metrics {sorted(undeclared)} are not in BENCHMARK.json", file=sys.stderr)
        return 2
    for error in outcome["errors"][:20]:
        print(f"FAILED {error}", file=sys.stderr)
    detail = outcome["detail"]
    samples = {"setup_s": SETUP_REPEATS, "peak_rss_mb": 1}
    for name, value in outcome["metrics"].items():
        print(f"{name} = {value:.6g} {declared[name]['unit']} ({declared[name]['better']} is better, "
              f"n={samples.get(name, detail['cases'])})")
    print(f"case_s.p50 = {detail['case_s.p50']:.6g} s (lower is better, n={detail['cases']})")
    for name, value in detail["quality"].items():
        print(f"{name} = {value:.6g} (mean over passing cases)")
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": not outcome["errors"],
        "attempted": outcome["attempted"],
        "failed": len(outcome["failures"]),
        "metrics": {name: {"value": value, "unit": declared[name]["unit"]}
                    for name, value in outcome["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
