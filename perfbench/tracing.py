"""Outside-in per-layer tracing: wrap each layer's functions from the outside.

A ``Tracer`` replaces a function in every ``multireg`` module that binds it
(``from .horn import horn_register`` gives em, baselines, bounds and cli their
own names for it), records calls and self time, and restores the originals
when the ``with`` block ends. Self time is a span's duration minus the time
its traced children cover. ``geometry`` is not wrapped: its methods are too
small, so their time stays inside their callers' self time.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

# A hook sees the tracer, the wrapped function's key, its positional
# arguments and its result, and adds to the tracer's counters.
Hook = Callable[["Tracer", str, tuple, object], None]


def _count_returned(tracer, key, args, result):
    tracer.add(f"{key}.returned", 1)


def _num_clusters(counter: str) -> Hook:
    def hook(tracer, key, args, result):
        tracer.add(f"{key}.{counter}", result.num_clusters)
    return hook


def _count_points(tracer, key, args, result):
    cs = args[0]
    tracer.add(f"{key}.points", len(cs))
    # input bytes read per fit (a and b, float64), computed from array sizes
    tracer.add(f"{key}.bytes_computed", cs.a.nbytes + cs.b.nbytes)


def _file_bytes(position: int) -> Hook:
    def hook(tracer, key, args, result):
        tracer.add(f"{key}.bytes", os.stat(args[position]).st_size)
    return hook


def _count_merges(tracer, key, args, result):
    initial = args[1]
    groups = len(set(initial.labels[initial.labels > 0].tolist()))
    tracer.add(f"{key}.merges", max(groups - result.num_clusters, 0))


def _count_em(tracer, key, args, result):
    tracer.add("em.iterations", result.iterations_run)
    tracer.add("em.clusters_initial", args[1].num_clusters)
    tracer.add("em.clusters_final", result.clustering.num_clusters)


def _count_consistency_trials(tracer, key, args, result):
    tracer.add("bounds.trials", len(result[0]))


def _count_ratio_trials(tracer, key, args, result):
    tracer.add("bounds.trials", sum(s.trials for s in result))


# (layer, function, hook run on return). The hook's own time is excluded
# from every span.
TARGETS: tuple[tuple[str, str, Hook | None], ...] = (
    ("cli", "main", None),
    ("scenes", "generate_scene", _count_returned),
    ("scenes", "validate_scene", None),
    ("scenes", "make_good_split", None),
    ("clustering", "connected_components", None),
    ("clustering", "euclidean_cluster", _num_clusters("clusters")),
    ("clustering", "fragment_connected_set", None),
    ("em", "run_em", _count_em),
    ("em", "prune_small", None),
    ("em", "fit_models", None),
    ("em", "e_step", None),
    ("em", "m_step", None),
    ("horn", "horn_register", _count_points),
    ("baselines", "sequential_ransac", _num_clusters("models")),
    ("baselines", "ransac_single", None),
    ("baselines", "tlinkage_cluster", _count_merges),
    ("baselines", "tanimoto_distance", None),
    ("metrics", "evaluate", None),
    ("io", "read_scene", _file_bytes(0)),
    ("io", "write_scene", _file_bytes(1)),
    ("io", "read_clustering", _file_bytes(0)),
    ("io", "write_clustering", _file_bytes(1)),
    ("io", "write_result", _file_bytes(1)),
    ("io", "write_bench_csv", _file_bytes(1)),
    ("bounds", "run_consistency_bench", _count_consistency_trials),
    ("bounds", "run_noise_ratio_bench", _count_ratio_trials),
)


@dataclass
class _Frame:
    child_s: float = 0.0


class Tracer:
    """Calls, self time and counters per wrapped function, while patched."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._stack: list[_Frame] = []
        self._patched: list[tuple[object, str, object]] = []

    def add(self, counter: str, amount: float) -> None:
        self.counters[counter] += amount

    def layer_calls(self, layer: str) -> int:
        return sum(n for key, n in self.calls.items() if key.split(".")[0] == layer)

    def _wrap(self, key: str, fn, hook: Hook | None):
        stack = self._stack

        def traced(*args, **kwargs):
            frame = _Frame()
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                self.calls[key] += 1
                self.self_s[key] += elapsed - frame.child_s
                if stack:
                    stack[-1].child_s += elapsed
            if hook is not None:
                hook_start = time.perf_counter()
                hook(self, key, args, result)
                if stack:
                    stack[-1].child_s += time.perf_counter() - hook_start
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", key)
        return traced

    def __enter__(self) -> "Tracer":
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "multireg" or name.startswith("multireg."))]
        for layer, name, hook in TARGETS:
            key = f"{layer}.{name}"
            try:
                original = getattr(importlib.import_module(f"multireg.{layer}"), name, None)
            except ImportError:
                original = None
            if original is None:
                if key not in self.missing:
                    self.missing.append(key)
                continue
            wrapper = self._wrap(key, original, hook)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


# Per-layer metrics beyond '<function>.self_s' and '<function>.calls':
# (name, counter, per, functions it needs). 'per' None divides by traced
# cases, otherwise by the calls of that function (0 when uncalled). Units and
# directions are declared in BENCHMARK.json.
DERIVED = (
    ("clustering.euclidean_cluster.clusters", "clustering.euclidean_cluster.clusters", None,
     ("clustering.euclidean_cluster",)),
    ("scenes.accept_ratio", "scenes.generate_scene.returned", "scenes.validate_scene",
     ("scenes.generate_scene", "scenes.validate_scene")),
    ("em.iterations", "em.iterations", "em.run_em", ("em.run_em",)),
    ("em.clusters_initial", "em.clusters_initial", "em.run_em", ("em.run_em",)),
    ("em.clusters_final", "em.clusters_final", "em.run_em", ("em.run_em",)),
    ("horn.horn_register.points_per_call", "horn.horn_register.points", "horn.horn_register",
     ("horn.horn_register",)),
    ("horn.horn_register.bytes_computed", "horn.horn_register.bytes_computed", None,
     ("horn.horn_register",)),
    ("baselines.tlinkage_cluster.merges", "baselines.tlinkage_cluster.merges", None,
     ("baselines.tlinkage_cluster",)),
    ("baselines.sequential_ransac.models", "baselines.sequential_ransac.models", None,
     ("baselines.sequential_ransac",)),
    ("bounds.trials", "bounds.trials", None,
     ("bounds.run_consistency_bench", "bounds.run_noise_ratio_bench")),
) + tuple(
    (f"io.{name}.bytes", f"io.{name}.bytes", None, (f"io.{name}",))
    for name in ("read_scene", "write_scene", "read_clustering", "write_clustering",
                 "write_result", "write_bench_csv")
)


def layer_metrics(tracer: Tracer, cases: int) -> dict[str, float]:
    """Per-case layer figures of a traced run; wrapped names that no longer
    exist are left out (the caller warns), never reported as 0."""
    out = {}
    for layer, name, _ in TARGETS:
        key = f"{layer}.{name}"
        if key in tracer.missing:
            continue
        out[f"{key}.self_s"] = tracer.self_s[key] / cases
        out[f"{key}.calls"] = tracer.calls[key] / cases
    for name, counter, per, needs in DERIVED:
        if any(key in tracer.missing for key in needs):
            continue
        denominator = cases if per is None else tracer.calls[per]
        out[name] = tracer.counters[counter] / denominator if denominator else 0.0
    return out
