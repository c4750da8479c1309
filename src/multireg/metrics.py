"""Evaluation metrics: per-point displacement error, pose error, and mask IoU.

All three compare a predicted clustering (plus per-cluster motion estimates)
against a labeled scene. Matching between predicted and ground-truth clusters
is greedy per predicted cluster by largest intersection; outlier points carry
label 0 on both sides and are never a match target.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clustering import Clustering
from .geometry import geodesic_distance, move_each, row_norms
from .scenes import LabeledScene


@dataclass(frozen=True)
class EvalReport:
    """Scalar metrics plus the per-object / per-cluster breakdowns they
    average, in the order of the ``metrics.*`` lines of a result file."""

    mask_iou: float
    point_error: float
    rotation_error: float
    translation_error: float
    per_object_point_error: tuple[float, ...]
    per_point_mean_error: float
    per_cluster_iou: tuple[float, ...]
    pose_cluster_ids: tuple[int, ...]
    per_cluster_rotation_error: tuple[float, ...]
    per_cluster_translation_error: tuple[float, ...]


def iou_per_cluster(pred: Clustering, truth) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """IoU of each predicted cluster against its best-matching true object.

    The match is the true object with the largest intersection (ties to the
    lower object id); a cluster intersecting no object scores 0. Label-0
    points belong to no predicted cluster but still count in the union
    through the matched object's side.
    """
    table = pred.contingency(truth)
    sizes, true_sizes = table.sum(axis=1), table.sum(axis=0)
    ids = np.flatnonzero(sizes[1:]) + 1
    inter = table[ids]
    inter[:, 0] = 0  # outliers are no match target
    # the first maximum: the lower object id, or column 0 (overlap 0) when
    # the cluster meets no object
    g = np.argmax(inter, axis=1)
    overlap = inter[np.arange(ids.size), g]
    ious = overlap / (sizes[ids] + true_sizes[g] - overlap)
    return tuple(ids.tolist()), tuple(ious.tolist())


def _mean(values) -> float:
    """The mean of ``values``; 0.0 when there are none."""
    return float(np.mean(values)) if len(values) else 0.0


def mask_iou(pred: Clustering, truth) -> float:
    """Mean IoU over predicted clusters (0.0 when there are none)."""
    _, ious = iou_per_cluster(pred, truth)
    return _mean(ious)


def point_error(cs, pred: Clustering, pred_models, scene: LabeledScene):
    """Average displacement gap between predicted and true motion, per object.

    For each ground-truth (non-outlier) point, the error is the distance
    between where its predicted cluster's motion sends it and where the true
    motion sends it. Points the prediction leaves unassigned (label 0) fall
    back to the identity motion, i.e. their error is the full true
    displacement of the point. Returns (mean over objects of per-object mean,
    per-object means, mean over points).
    """
    pred_labels = pred.labels
    true_labels = scene.true_labels
    if pred_labels.shape[0] != len(cs):
        raise ValueError("prediction length must match the correspondences")
    if len(pred_models) < int(pred_labels.max() if pred_labels.size else 0):
        raise ValueError("every predicted cluster needs a model")

    errors = row_norms(move_each(cs.a, pred_labels, pred_models)
                       - move_each(cs.a, true_labels, scene.true_transforms))
    per_object = [_mean(errors[true_labels == g]) for g in range(1, scene.num_objects + 1)]

    return _mean(per_object), tuple(per_object), _mean(errors[true_labels > 0])


def pose_error(pred: Clustering, pred_models, scene: LabeledScene):
    """Intersection-weighted pose error of each predicted cluster.

    Per predicted cluster, every intersecting true object contributes its
    geodesic rotation distance and translation L2 distance, weighted by the
    intersection's share of the predicted cluster. Clusters intersecting only
    outliers are excluded from the means. Returns (rotation mean, translation
    mean, included ids, per-cluster rotation, per-cluster translation).
    """
    pred_labels = pred.labels
    num_pred = int(pred_labels.max()) if pred_labels.size else 0
    if len(pred_models) < num_pred:
        raise ValueError("every predicted cluster needs a model")
    table = pred.contingency(scene.true_labels)

    ids, rot_errors, trans_errors = [], [], []
    for j in range(1, table.shape[0]):
        inter = table[j, 1:]
        if inter.sum() == 0:
            continue
        size = table[j].sum()
        model = pred_models[j - 1]
        rot = trans = 0.0
        for g in np.flatnonzero(inter) + 1:
            weight = inter[g - 1] / size
            truth = scene.true_transforms[g - 1]
            rot += weight * geodesic_distance(model.rotation, truth.rotation)
            trans += weight * float(np.linalg.norm(model.translation - truth.translation))
        ids.append(j)
        rot_errors.append(rot)
        trans_errors.append(trans)

    return (_mean(rot_errors), _mean(trans_errors), tuple(ids), tuple(rot_errors),
            tuple(trans_errors))


def evaluate(cs, pred: Clustering, pred_models, scene: LabeledScene) -> EvalReport:
    """All three metrics in one report."""
    overall_point, per_object, per_point_mean = point_error(cs, pred, pred_models, scene)
    rot, trans, pose_ids, per_rot, per_trans = pose_error(pred, pred_models, scene)
    _, per_iou = iou_per_cluster(pred, scene.true_labels)
    return EvalReport(
        point_error=overall_point,
        rotation_error=rot,
        translation_error=trans,
        mask_iou=_mean(per_iou),
        per_object_point_error=per_object,
        per_point_mean_error=per_point_mean,
        per_cluster_iou=per_iou,
        pose_cluster_ids=pose_ids,
        per_cluster_rotation_error=per_rot,
        per_cluster_translation_error=per_trans,
    )
