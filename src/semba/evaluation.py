"""Trajectory and open-vocabulary semantic-map evaluation.

Trajectory metric: closed-form least-squares alignment of the translation
tracks (orthogonal Procrustes, optionally with a uniform scale), then the RMS
of residual norms (ATE). Semantic metric: cosine-argmax labelling against a
label set, 5-nearest-neighbour label transfer onto ground-truth vertices, and
IoU/accuracy statistics with a head/common/tail split by class frequency.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.spatial import cKDTree

from .features import PcaModel, pca_decode
from .geometry import Intrinsics, Pose, unproject

UNLABELED = -1
_NORM_EPS = 1e-8


@dataclass(eq=False)
class SemanticPointCloud:
    points: np.ndarray            # (N, 3) world meters
    embeddings: np.ndarray        # (N, K)
    labels: np.ndarray = None     # (N,) int; UNLABELED where unassigned

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        self.embeddings = np.asarray(self.embeddings, dtype=float)
        if self.points.ndim != 2 or self.points.shape[1] != 3:
            raise ValueError(f"points must be (N, 3), got {self.points.shape}")
        if self.embeddings.shape[0] != self.points.shape[0]:
            raise ValueError("embeddings must match the point count")
        if not np.all(np.isfinite(self.points)):
            raise ValueError("point coordinates must be finite")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=int)


@dataclass(eq=False)
class LabelSet:
    names: list
    vectors: np.ndarray  # (L, C)

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=float)
        if len(self.names) < 2 or self.vectors.shape[0] != len(self.names):
            raise ValueError("need at least two named classes with matching vectors")
        if np.any(np.linalg.norm(self.vectors, axis=1) <= _NORM_EPS):
            raise ValueError("label vectors must be non-zero")


@dataclass(eq=False)
class SegMetrics:
    class_ids: np.ndarray   # classes present in the ground truth
    iou: np.ndarray
    acc: np.ndarray
    counts: np.ndarray
    groups: list            # per-class group name
    miou: float
    fmiou: float
    macc: float
    group_metrics: dict     # group -> {"miou": v, "fmiou": v, "macc": v}
    class_names: list = None


def unproject_keyframe(disparity: np.ndarray, pose: Pose, intrinsics: Intrinsics, stride: int):
    """World points of every stride-th pixel with positive disparity.

    Returns (points (N, 3), rows (N,), cols (N,)); rows and cols pick the same
    pixels out of the keyframe's other maps.
    """
    h, w = disparity.shape
    ys, xs = np.mgrid[0:h:stride, 0:w:stride]
    d = disparity[ys, xs].reshape(-1)
    ok = d > 0
    rows, cols = ys.reshape(-1)[ok], xs.reshape(-1)[ok]
    u = np.stack([cols, rows]).astype(float)
    return pose.inverse().apply(unproject(u, d[ok], intrinsics).T), rows, cols


def fuse_point_cloud(graph, pca: PcaModel = None, stride: int = 1) -> SemanticPointCloud:
    """Unproject every stride-th valid pixel of every keyframe into the world.

    Embeddings are the keyframe features, decoded through the PCA model when
    one is given. Coincident observations stay separate points.
    """
    if not graph.keyframes:
        raise ValueError("empty graph")
    # Count first, then fill one array each: no per-keyframe parts are kept.
    bounds = np.zeros(len(graph.keyframes) + 1, dtype=int)
    np.cumsum([np.count_nonzero(kf.disparity[::stride, ::stride] > 0)
               for kf in graph.keyframes], out=bounds[1:])
    if not bounds[-1]:
        raise ValueError("no valid pixels to fuse")
    width = pca.input_dim if pca is not None else graph.keyframes[0].features.shape[0]
    points, embeddings = np.empty((bounds[-1], 3)), np.empty((bounds[-1], width))
    for kf, lo, hi in zip(graph.keyframes, bounds[:-1], bounds[1:]):
        points[lo:hi], rows, cols = unproject_keyframe(kf.disparity, kf.pose, graph.intrinsics,
                                                       stride)
        feats = kf.features[:, rows, cols].T
        embeddings[lo:hi] = pca_decode(feats, pca) if pca is not None else feats
    return SemanticPointCloud(points=points, embeddings=embeddings)


def assign_labels(cloud: SemanticPointCloud, labels: LabelSet) -> SemanticPointCloud:
    """Cosine-argmax labelling; ties break to the lowest class index, zero-norm
    embeddings stay unlabeled."""
    if cloud.embeddings.shape[1] != labels.vectors.shape[1]:
        raise ValueError(
            f"embedding dim {cloud.embeddings.shape[1]} != label dim {labels.vectors.shape[1]}")
    emb_norm = np.linalg.norm(cloud.embeddings, axis=1)
    ok = emb_norm > _NORM_EPS
    text = labels.vectors / np.linalg.norm(labels.vectors, axis=1, keepdims=True)
    sims = (cloud.embeddings / np.where(ok, emb_norm, 1.0)[:, None]) @ text.T
    assigned = np.where(ok, np.argmax(sims, axis=1), UNLABELED)
    return replace(cloud, labels=assigned)


def knn_transfer(pred: SemanticPointCloud, gt_points) -> np.ndarray:
    """Majority label of the 5 nearest labelled predicted points per gt vertex.

    On a tied vote the label of the single nearest point wins. With fewer than
    5 predicted points, all of them vote.
    """
    if pred.labels is None:
        raise ValueError("predicted cloud is unlabeled; run assign_labels first")
    gt_points = np.asarray(gt_points, dtype=float)
    if gt_points.size == 0 or pred.points.shape[0] == 0:
        raise ValueError("both clouds must be non-empty")
    keep = pred.labels != UNLABELED
    points, labels = pred.points[keep], pred.labels[keep]
    if points.shape[0] == 0:
        raise ValueError("predicted cloud has no labelled points")
    k = min(5, points.shape[0])
    _, idx = cKDTree(points).query(gt_points, k=k)
    idx = np.atleast_2d(idx.T).T if k == 1 else idx
    votes = labels[idx.reshape(len(gt_points), k)]
    # counts[n, v]: how many of row n's votes equal its v-th vote. The top label
    # is unique exactly when the votes reaching the top count number that count.
    counts = np.sum(votes[:, :, None] == votes[:, None, :], axis=2)
    top = counts.max(axis=1)
    unique_top = np.sum(counts == top[:, None], axis=1) == top
    leader = votes[np.arange(len(votes)), np.argmax(counts, axis=1)]
    return np.where(unique_top, leader, votes[:, 0])


def seg_metrics(pred_labels, gt_labels, class_names=None) -> SegMetrics:
    """IoU / accuracy statistics over the classes present in the ground truth.

    The head/common/tail split follows the gt label histogram. fmIoU weights
    are gt frequencies and sum to one.
    """
    pred_labels = np.asarray(pred_labels, dtype=int)
    gt_labels = np.asarray(gt_labels, dtype=int)
    if pred_labels.shape != gt_labels.shape:
        raise ValueError("label arrays must have identical length")
    class_ids = np.unique(gt_labels)
    iou = np.zeros(len(class_ids))
    acc = np.zeros(len(class_ids))
    counts = np.zeros(len(class_ids))
    for k, c in enumerate(class_ids):
        tp = np.sum((gt_labels == c) & (pred_labels == c))
        fp = np.sum((gt_labels != c) & (pred_labels == c))
        fn = np.sum((gt_labels == c) & (pred_labels != c))
        iou[k] = tp / (tp + fp + fn) if tp + fp + fn > 0 else 0.0
        acc[k] = tp / (tp + fn) if tp + fn > 0 else 0.0
        counts[k] = tp + fn

    miou = float(iou.mean())
    # Single quotient keeps the frequency weighting exact when every IoU is 1.
    fmiou = float((counts * iou).sum() / counts.sum())
    macc = float(acc.mean())

    # Sort by descending count (stable on ties) and split into three near-equal
    # groups; np.array_split assigns remainders to the earlier groups.
    order = np.lexsort((class_ids, -counts))
    groups = [""] * len(class_ids)
    group_metrics = {}
    for gname, members in zip(("head", "common", "tail"), np.array_split(order, 3)):
        for m in members:
            groups[m] = gname
        if members.size == 0:
            group_metrics[gname] = {"miou": 0.0, "fmiou": 0.0, "macc": 0.0}
            continue
        g_counts = counts[members]
        g_total = g_counts.sum()
        group_metrics[gname] = {
            "miou": float(iou[members].mean()),
            "fmiou": float((g_counts * iou[members]).sum() / g_total) if g_total > 0 else 0.0,
            "macc": float(acc[members].mean()),
        }

    resolved_names = None
    if class_names is not None:
        resolved_names = [class_names[int(c)] for c in class_ids]
    return SegMetrics(class_ids=class_ids, iou=iou, acc=acc, counts=counts, groups=groups,
                      miou=miou, fmiou=fmiou, macc=macc, group_metrics=group_metrics,
                      class_names=resolved_names)


@dataclass(frozen=True)
class Alignment:
    rotation: np.ndarray   # (3, 3)
    translation: np.ndarray
    scale: float           # size of the estimate relative to ground truth


def _as_track(trajectory, name: str) -> np.ndarray:
    """The (N, 3) float array of positions; any other shape raises ValueError."""
    track = np.asarray(trajectory, dtype=float)
    if track.ndim != 2 or track.shape[1] != 3:
        raise ValueError(f"{name} must be an (N, 3) array of positions, got shape {track.shape}")
    return track


def align_trajectories(est, gt, mode: str = "similarity"):
    """Least-squares alignment of the estimated track onto the ground truth.

    est/gt: (N, 3) arrays of positions.
    Returns (aligned_est (N, 3), Alignment). The reported scale is the size of
    the estimate relative to the ground truth; the aligned track divides it
    out: aligned = (1/scale) * R @ est + t.
    """
    if mode not in ("rigid", "similarity"):
        raise ValueError(f"unknown alignment mode {mode!r}")
    src = _as_track(est, "est")
    dst = _as_track(gt, "gt")
    if src.shape != dst.shape or src.shape[0] < 3:
        raise ValueError(f"need two equal trajectories of >= 3 poses, got {src.shape} vs {dst.shape}")
    mu_src = src.mean(axis=0)
    mu_dst = dst.mean(axis=0)
    src_c = src - mu_src
    dst_c = dst - mu_dst
    if np.linalg.matrix_rank(src_c, tol=1e-9 * max(1.0, np.abs(src_c).max())) < 2:
        raise ValueError("degenerate trajectory: translations are collinear")
    cov = dst_c.T @ src_c / src.shape[0]
    u, s, vt = np.linalg.svd(cov)
    d = np.eye(3)
    if np.linalg.det(u) * np.linalg.det(vt) < 0:
        d[2, 2] = -1.0
    rot = u @ d @ vt
    if mode == "similarity":
        var_src = np.mean(np.sum(src_c**2, axis=1))
        fit = float(np.trace(np.diag(s) @ d) / var_src)
    else:
        fit = 1.0
    trans = mu_dst - fit * rot @ mu_src
    aligned = fit * src @ rot.T + trans
    return aligned, Alignment(rotation=rot, translation=trans, scale=1.0 / fit)


def ate_rmse(est_aligned, gt) -> float:
    """Root-mean-square translation error between aligned tracks, in meters."""
    est_aligned = _as_track(est_aligned, "est_aligned")
    gt = _as_track(gt, "gt")
    if est_aligned.shape != gt.shape:
        raise ValueError("trajectories must have equal length")
    return float(np.sqrt(np.mean(np.sum((est_aligned - gt) ** 2, axis=1))))


def trajectory_ate(est_poses, gt_poses, mode: str = "rigid") -> float:
    """ATE between two world-to-camera pose lists, via camera centers."""
    est = np.stack([p.camera_center() for p in est_poses])
    gt = np.stack([p.camera_center() for p in gt_poses])
    aligned, _ = align_trajectories(est, gt, mode)
    return ate_rmse(aligned, gt)
