"""Text file formats: scenes, clusterings, flat result records, bench CSV.

Everything is plain text with floats printed at 17 significant digits, which
round-trips doubles losslessly and keeps fixtures diffable. Writers are
deterministic: identical in-memory values produce identical bytes.
"""

from __future__ import annotations

import io as _io
import numpy as np

from .bounds import BoundTrial
from .clustering import Clustering, grid_side
from .geometry import CorrespondenceSet, RigidTransform, row_norms
from .scenes import LabeledScene, SceneSpec

SCENE_FORMAT_VERSION = 1
# The header keys a scene file gives, each at most once.
_HEADER_KEYS = ("version", "n", "M", "sigma", "tau", "B", "seed", "separation_margin")
RESULT_FORMAT_VERSION = 1
BENCH_CSV_COLUMNS = ("m", "sigma", "B", "delta", "lambda_min", "err_rot",
                     "bound_rot", "err_trans", "bound_trans", "violated_flags")


def fmt_float(x) -> str:
    """Full-precision decimal representation (17 significant digits)."""
    return format(float(x), ".17g")


# One correspondence line: a, b and the true label. "%.17g" % x is the same
# text as fmt_float(x).
_ROW_FORMAT = " ".join(["%.17g"] * 6) + " %d\n"
# Correspondence lines per block of scene text: the scene is written block by
# block, never held as one string.
_BLOCK_ROWS = 4096


def _scene_blocks(scene: LabeledScene):
    """The text of a scene file, in blocks of whole lines: the header, the
    correspondence lines ``_BLOCK_ROWS`` at a time, then the POSE lines."""
    spec = scene.spec
    yield (f"# version {SCENE_FORMAT_VERSION}\n"
           f"# n {len(scene.correspondences)}\n"
           f"# M {scene.num_objects}\n"
           f"# sigma {fmt_float(spec.sigma)}\n"
           f"# tau {fmt_float(spec.tau)}\n"
           f"# B {fmt_float(spec.bound_b)}\n"
           f"# seed {spec.seed}\n"
           f"# separation_margin {fmt_float(spec.separation_margin)}\n")
    a, b = scene.correspondences.a, scene.correspondences.b
    for start in range(0, len(a), _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        coords = np.hstack((a[rows], b[rows])).tolist()
        yield "".join(_ROW_FORMAT % (*row, label)
                      for row, label in zip(coords, scene.true_labels[rows].tolist()))
    for j, transform in enumerate(scene.true_transforms, start=1):
        values = " ".join(fmt_float(v) for v in
                          (*transform.rotation.reshape(-1), *transform.translation))
        yield f"POSE {j} {values}\n"


def write_scene(scene: LabeledScene, path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.writelines(_scene_blocks(scene))


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
                    if parts[0] in header and parts[0] in _HEADER_KEYS:
                        raise ValueError(f"header key '{parts[0]}' appears more than once")
                    header[parts[0]] = parts[1]
            elif line.startswith("POSE"):
                fields = line.split()
                if len(fields) != 14:
                    raise ValueError("a POSE line must carry an object id and 12 numbers")
                try:
                    object_id, values = int(fields[1]), [float(v) for v in fields[2:]]
                    pose = RigidTransform(np.array(values[:9]).reshape(3, 3), np.array(values[9:]))
                except ValueError as exc:
                    raise ValueError(f"POSE {fields[1]}: {exc}") from None
                if object_id in poses:
                    raise ValueError(f"POSE {object_id} appears more than once")
                poses[object_id] = pose
            else:
                rows.append(line)

    for key in _HEADER_KEYS[:-1]:  # separation_margin may be left out
        if key not in header:
            raise ValueError(f"scene file is missing header key '{key}'")
    if header["version"] != str(SCENE_FORMAT_VERSION):
        raise ValueError(f"scene format version {header['version']} is not {SCENE_FORMAT_VERSION}")
    n, num_objects = _header_value(header, "n", int), _header_value(header, "M", int)
    if len(rows) != n:
        raise ValueError(f"expected {n} correspondence lines, found {len(rows)}")
    # by count first: M may be far larger than any range worth building
    if len(poses) != num_objects or sorted(poses) != list(range(1, num_objects + 1)):
        raise ValueError("POSE lines must cover objects 1..M exactly once")

    table = _correspondence_table(rows)
    label_column = table[:, 6]
    if not np.all((label_column >= 0) & (label_column <= num_objects)
                  & (label_column == np.floor(label_column))):
        raise ValueError(f"correspondence labels must be integers in 0..{num_objects}")
    labels = label_column.astype(np.int64)

    tau = _header_value(header, "tau", float)
    counts = np.bincount(labels, minlength=num_objects + 1)
    spec = SceneSpec(
        num_objects=num_objects,
        points_per_object=tuple(int(c) for c in counts[1:num_objects + 1]),
        sigma=_header_value(header, "sigma", float),
        tau=tau,
        bound_b=_header_value(header, "B", float),
        num_outliers=int(counts[0]),
        separation_margin=_header_value(header, "separation_margin", float),
        seed=_header_value(header, "seed", int),
    )
    # synth keeps each a-point in the ball of radius B and moves it by a
    # rotation, a translation in that ball and noise of at most sigma per
    # coordinate; outlier b-points lie in the ball of radius 3B. A NaN or
    # overflowing norm fails too; 1e-9 of slack covers rounding.
    b_radius = max(3.0 * spec.bound_b, 2.0 * spec.bound_b + np.sqrt(3.0) * spec.sigma)
    for kind, points, radius in (("an a", table[:, 0:3], spec.bound_b),
                                 ("a b", table[:, 3:6], b_radius)):
        with np.errstate(over="ignore"):
            outside = np.flatnonzero(~(row_norms(points) <= radius * (1.0 + 1e-9)))
        if outside.size:
            raise ValueError(f"correspondence line {outside[0] + 1} has {kind}-point outside "
                             f"the ball of radius {radius:g}")
    grid_side(table[:, 0:3], tau, "header tau")  # synth writes no tau too small to grid
    transforms = tuple(poses[j] for j in range(1, num_objects + 1))
    return LabeledScene(CorrespondenceSet(table[:, 0:3], table[:, 3:6]), labels, transforms, spec)


def _header_value(header: dict[str, str], key: str, kind):
    """``kind(header[key])``, or None without ``key``; a ValueError names the key."""
    if key not in header:
        return None
    try:
        return kind(header[key])
    except ValueError as exc:
        raise ValueError(f"header key '{key}': {exc}") from None


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
    return "".join(f"{v}\n" for v in clustering.labels.tolist())


def write_clustering(clustering: Clustering, path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(clustering_to_text(clustering))


def read_clustering(path) -> Clustering:
    """One label per line, each decimal digits (an optional leading '-',
    whitespace around) in 0..(number of labels); any other label raises
    ValueError before it can size a table or overflow int64. The file
    is read in one piece and split at its newlines alone, as iterating it
    splits it (``str.splitlines`` also splits at form feeds, vertical tabs and
    the file, group and record separators)."""
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read()
    try:
        labels = [int(line) for line in text.split("\n") if line.strip()]
    except ValueError:
        # raises again: int() then names the bad line as iterating gives it,
        # with its newline
        labels = [int(line) for line in _io.StringIO(text) if line.strip()]
    if "_" in text or "+" in text:  # int() reads "1_0" as 10 and "+1" as 1
        i, line = next((i, line) for i, line in enumerate(_io.StringIO(text), start=1)
                       if "_" in line or "+" in line)
        raise ValueError(f"label {line.strip()!r} on line {i} is not decimal digits with an "
                         "optional leading '-'")
    low, high = min(labels, default=0), max(labels, default=0)
    if low < 0 or high > len(labels):
        raise ValueError(f"label {low if low < 0 else high} is outside 0..{len(labels)}")
    return Clustering(labels)


def result_to_text(pairs) -> str:
    """Flat 'key = value' record; ``pairs`` is an ordered (key, value) iterable."""
    return "".join(f"{key} = {value}\n" for key, value in pairs)


def write_result(pairs, path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(result_to_text(pairs))


def bench_csv_text(trials: list[BoundTrial]) -> str:
    """One comma-separated row per trial under a header; no field needs quoting."""
    rows = [BENCH_CSV_COLUMNS] + [
        (str(t.m), fmt_float(t.sigma), fmt_float(t.bound_b), fmt_float(t.delta),
         fmt_float(t.lambda_min), fmt_float(t.rot_err_sq), fmt_float(t.rot_bound),
         fmt_float(t.trans_err_sq), fmt_float(t.trans_bound),
         f"{int(t.violated_rot)}{int(t.violated_trans)}") for t in trials]
    return "".join(",".join(row) + "\n" for row in rows)


def write_bench_csv(trials: list[BoundTrial], path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(bench_csv_text(trials))
