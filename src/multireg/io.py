"""Text file formats: scenes, clusterings, flat result records, bench CSV.

Everything is plain text with floats printed at 17 significant digits, which
round-trips doubles losslessly and keeps fixtures diffable. Writers are
deterministic: identical in-memory values produce identical bytes.
"""

from __future__ import annotations

import csv
import io as _io
import numpy as np

from .bounds import BoundTrial
from .clustering import Clustering
from .geometry import CorrespondenceSet, RigidTransform
from .scenes import LabeledScene, SceneSpec

SCENE_FORMAT_VERSION = 1
RESULT_FORMAT_VERSION = 1
BENCH_CSV_COLUMNS = ("m", "sigma", "B", "delta", "lambda_min", "err_rot",
                     "bound_rot", "err_trans", "bound_trans", "violated_flags")


def fmt_float(x) -> str:
    """Full-precision decimal representation (17 significant digits)."""
    return format(float(x), ".17g")


# One correspondence row: a, b and the true label. "%.17g" % x is the same
# text as fmt_float(x).
_ROW_FORMAT = " ".join(["%.17g"] * 6) + " %d"


def scene_to_text(scene: LabeledScene) -> str:
    spec = scene.spec
    lines = [
        f"# version {SCENE_FORMAT_VERSION}",
        f"# n {len(scene.correspondences)}",
        f"# M {scene.num_objects}",
        f"# sigma {fmt_float(spec.sigma)}",
        f"# tau {fmt_float(spec.tau)}",
        f"# B {fmt_float(spec.bound_b)}",
        f"# seed {spec.seed}",
        f"# separation_margin {fmt_float(spec.separation_margin)}",
    ]
    coords = np.hstack((scene.correspondences.a, scene.correspondences.b)).tolist()
    lines.extend(_ROW_FORMAT % (*row, label)
                 for row, label in zip(coords, scene.true_labels.tolist()))
    for j, transform in enumerate(scene.true_transforms, start=1):
        values = " ".join(fmt_float(v) for v in
                          (*transform.rotation.reshape(-1), *transform.translation))
        lines.append(f"POSE {j} {values}")
    return "\n".join(lines) + "\n"


def write_scene(scene: LabeledScene, path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(scene_to_text(scene))


def read_scene(path) -> LabeledScene:
    header: dict[str, str] = {}
    rows: list[str] = []
    poses: dict[int, RigidTransform] = {}
    with open(path, "r", encoding="ascii") as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                parts = line[1:].split(None, 1)
                if len(parts) == 2:
                    header[parts[0]] = parts[1]
            elif line.startswith("POSE"):
                fields = line.split()
                if len(fields) != 14:
                    raise ValueError("a POSE line must carry an object id and 12 numbers")
                values = [float(v) for v in fields[2:]]
                poses[int(fields[1])] = RigidTransform(np.array(values[:9]).reshape(3, 3),
                                                       np.array(values[9:]))
            else:
                rows.append(line)

    for key in ("version", "n", "M", "sigma", "tau", "B", "seed"):
        if key not in header:
            raise ValueError(f"scene file is missing header key '{key}'")
    n = int(header["n"])
    num_objects = int(header["M"])
    if len(rows) != n:
        raise ValueError(f"expected {n} correspondence lines, found {len(rows)}")
    if sorted(poses) != list(range(1, num_objects + 1)):
        raise ValueError("POSE lines must cover objects 1..M exactly once")

    table = _correspondence_table(rows)
    label_column = table[:, 6]
    if not np.all((label_column >= 0) & (label_column <= num_objects)
                  & (label_column == np.floor(label_column))):
        raise ValueError(f"correspondence labels must be integers in 0..{num_objects}")
    labels = label_column.astype(np.int64)

    tau = float(header["tau"])
    counts = np.bincount(labels, minlength=num_objects + 1)
    spec = SceneSpec(
        num_objects=num_objects,
        points_per_object=tuple(int(c) for c in counts[1:num_objects + 1]),
        sigma=float(header["sigma"]),
        tau=tau,
        bound_b=float(header["B"]),
        num_outliers=int(counts[0]),
        separation_margin=float(header.get("separation_margin", 2.0 * tau)),
        seed=int(header["seed"]),
    )
    transforms = tuple(poses[j] for j in range(1, num_objects + 1))
    return LabeledScene(CorrespondenceSet(table[:, 0:3], table[:, 3:6]), labels, transforms, spec)


def _correspondence_table(rows: list[str]) -> np.ndarray:
    """The n x 7 array of the correspondence lines, parsed by one C-level
    reader; a line without exactly 7 fields is named by its number."""
    if not rows:
        return np.empty((0, 7))
    try:
        table = np.loadtxt(rows, dtype=np.float64, comments=None, ndmin=2)
    except ValueError:
        _check_field_counts(rows)
        raise
    if table.shape[1] != 7:
        _check_field_counts(rows)
    return table


def _check_field_counts(rows: list[str]) -> None:
    for i, line in enumerate(rows, start=1):
        fields = len(line.split())
        if fields != 7:
            raise ValueError(f"correspondence line {i} has {fields} fields, expected 7")


def clustering_to_text(clustering: Clustering) -> str:
    return "".join(f"{int(v)}\n" for v in clustering.labels)


def write_clustering(clustering: Clustering, path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(clustering_to_text(clustering))


def read_clustering(path) -> Clustering:
    """One label per line; a negative label raises ValueError (from Clustering)."""
    with open(path, "r", encoding="ascii") as fh:
        return Clustering([int(line) for line in fh if line.strip()])


def result_to_text(pairs) -> str:
    """Flat 'key = value' record; ``pairs`` is an ordered (key, value) iterable."""
    lines = []
    for key, value in pairs:
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def write_result(pairs, path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(result_to_text(pairs))


def bench_csv_text(trials: list[BoundTrial]) -> str:
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(BENCH_CSV_COLUMNS)
    for t in trials:
        writer.writerow([
            t.m, fmt_float(t.sigma), fmt_float(t.bound_b), fmt_float(t.delta),
            fmt_float(t.lambda_min), fmt_float(t.rot_err_sq), fmt_float(t.rot_bound),
            fmt_float(t.trans_err_sq), fmt_float(t.trans_bound),
            f"{int(t.violated_rot)}{int(t.violated_trans)}",
        ])
    return buf.getvalue()


def write_bench_csv(trials: list[BoundTrial], path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(bench_csv_text(trials))
