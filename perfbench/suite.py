#!/usr/bin/env python3
"""Run every workload untraced and traced, and print one report.

    python3 perfbench/suite.py --seed 1             # all workloads, run_seconds each
    python3 perfbench/suite.py --smoke              # one tiny case per workload

The report lists each end-to-end metric with its unit, direction and sample
count, the quality figures and failure ratio, the per-layer self-time shares
of the traced run and the tracing overhead. It also goes to
``.perfbench_out/suite_seed<N>.json``. Each run is a separate
``perfbench/run.py`` process, as the benchmark contract prescribes. Workloads,
run length, units and directions come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(ROOT / "src"))
from workloads import QUALITY_UNITS  # noqa: E402


def run_workload(name: str, seed: int, seconds: float, trace: int, tiny: bool = False) -> dict:
    """One run.py process; returns its result object plus the 'detail' line."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)] + (["--tiny"] if tiny else [])
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv[1:])} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["detail"] = next((json.loads(line[len("detail "):]) for line in lines
                             if line.startswith("detail ")), {})
    result["stderr"] = proc.stderr
    return result


def smoke() -> int:
    """One tiny case per workload and mode; every declared metric must appear
    with its unit."""
    problems = []
    expected = {0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
                1: {m["name"]: m["unit"] for m in SPEC["per_layer"]}}
    for name in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            result = run_workload(name, seed=0, seconds=0, trace=trace, tiny=True)
            label = f"{name} --trace {trace}"
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: not correct\n{result['stderr']}")
            for metric, unit in expected[trace].items():
                got = result["metrics"].get(metric)
                if got is None or got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
                    problems.append(f"{label}: metric {metric} missing or without unit {unit}")
            print(f"smoke {label}: {'ok' if not problems else 'problems'}")
    for problem in problems:
        print(f"SMOKE FAILED {problem}", file=sys.stderr)
    return 1 if problems else 0


def report(seed: int) -> int:
    directions = {m["name"]: m["better"] for m in SPEC["end_to_end"]}
    seconds = SPEC["run_seconds"]
    results = {}
    ok = True
    for name in (w["name"] for w in SPEC["workloads"]):
        plain = run_workload(name, seed, seconds, trace=0)
        traced = run_workload(name, seed, seconds, trace=1)
        results[name] = {"untraced": plain, "traced": traced}
        ok = ok and plain["correct"] and traced["correct"]
        detail = plain["detail"]
        print(f"\n== {name}  (seed {seed}, {detail['cases']} cases untraced, "
              f"{traced['detail']['cases']} traced; correct={plain['correct'] and traced['correct']})")
        for metric, value in plain["metrics"].items():
            n = {"setup_s": detail["setup_repeats"], "peak_rss_mb": 1}.get(metric, detail["cases"])
            print(f"  {metric:<24} {value['value']:>12.6g} {value['unit']:<6} "
                  f"{directions[metric]} is better, n={n}")
        print(f"  {'case_s.p50':<24} {detail['case_s.p50']:>12.6g} {'s':<6} lower is better, "
              f"n={detail['cases']} (no bound)")
        quality = {"failed_ratio": detail["failed_ratio"], **detail["quality"]}
        for metric, value in quality.items():
            unit, better = QUALITY_UNITS[metric]
            print(f"  {metric:<24} {value:>12.6g} {unit:<6} {better} is better, "
                  f"mean over {detail['cases']} cases")
        layer = traced["metrics"]
        total = sum(v["value"] for k, v in layer.items() if k.endswith(".self_s"))
        shares = sorted(((v["value"] / total, k[:-len(".self_s")]) for k, v in layer.items()
                         if k.endswith(".self_s") and v["value"] > 0), reverse=True)
        print("  self-time shares (traced): " + ", ".join(
            f"{key} {share:.0%}" for share, key in shares if share >= 0.01))
        print(f"  tracing overhead: traced case_s.p50 {layer['trace.case_s.p50']['value']:.4g} s, "
              f"{layer['trace.overhead']['value']:+.1%} against the same cases untraced "
              f"(separate untraced run: {detail['case_s.p50']:.4g} s)")
        for line in traced["stderr"].splitlines() + plain["stderr"].splitlines():
            print(f"  ! {line}")
    env = next(iter(results.values()))["untraced"]["detail"]["environment"]
    print("\nenvironment: " + json.dumps(env, sort_keys=True))
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / f"suite_seed{seed}.json"
    out.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    print(f"written to {out.relative_to(ROOT)}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    return smoke() if args.smoke else report(args.seed)


if __name__ == "__main__":
    sys.exit(main())
