"""Keyframe factor graph: vertices and edges."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import Intrinsics, Pose, relative_pose


@dataclass(eq=False)
class Keyframe:
    """One optimizable vertex: pose, dense disparity, its prior, and embeddings.

    Disparity maps and features share the same 1/8-resolution grid. frozen
    excludes the pose from optimization (disparities stay free). features is
    stored pixel-major: a (K, H, W) view of a C-contiguous (H, W, K) buffer, so
    that the K channels of a pixel are adjacent for sampling. A keyframe built
    from such a view (dataclasses.replace, or a slot of a graph's buffer made by
    write_slot) shares the buffer.
    """

    index: int
    pose: Pose
    disparity: np.ndarray        # (H, W)
    disparity_prior: np.ndarray  # (H, W)
    features: np.ndarray         # (K, H, W)
    frozen: bool = False
    timestamp: float = None

    def __post_init__(self):
        self.disparity = np.asarray(self.disparity, dtype=float)
        self.disparity_prior = np.asarray(self.disparity_prior, dtype=float)
        self.features = np.asarray(self.features, dtype=float)
        if self.disparity.shape != self.disparity_prior.shape:
            raise ValueError("disparity and prior shapes differ")
        if self.features.ndim != 3 or self.features.shape[1:] != self.disparity.shape:
            raise ValueError(
                f"features {self.features.shape} do not share the disparity grid {self.disparity.shape}")
        for name, arr in (("disparity", self.disparity), ("disparity prior", self.disparity_prior)):
            bad = ~(np.isfinite(arr) & (arr >= 0))
            if bad.any():
                raise ValueError(f"keyframe {self.index}: {name} is not finite and >= 0 at "
                                 f"pixel index {np.flatnonzero(bad)[0]}")
        bad = ~np.isfinite(self.features).all(axis=0)
        if bad.any():
            raise ValueError(f"keyframe {self.index}: features are not finite at pixel index "
                             f"{np.flatnonzero(bad)[0]}")
        self.features = np.moveaxis(np.ascontiguousarray(np.moveaxis(self.features, 0, -1)), -1, 0)
        if self.timestamp is None:
            self.timestamp = float(self.index)

    @property
    def grid_shape(self):
        return self.disparity.shape


def write_slot(buffer: np.ndarray, k: int, features) -> np.ndarray:
    """Copy (C, H, W) features into slot k of a pixel-major (K, H, W, C) buffer and return
    the (C, H, W) view of that slot that a Keyframe keeps without a copy.

    Features of any other shape are returned as given, for Keyframe and
    KeyframeGraph to reject with the keyframe named.
    """
    slot = buffer[k]
    if np.shape(features) != (slot.shape[-1],) + slot.shape[:-1]:
        return features
    slot[...] = np.moveaxis(features, 0, -1)
    return np.moveaxis(slot, -1, 0)


def _feature_buffer(keyframes) -> np.ndarray:
    """The C-contiguous (K, H, W, C) buffer whose slot k keyframe k's features view.

    When the keyframes' features are not already the slots of one such buffer,
    they are copied into a new one and each keyframe's features are rebound to
    its slot.
    """
    if not keyframes:
        return np.empty((0, 0, 0, 0))
    first = keyframes[0].features
    shape = (len(keyframes),) + first.shape[1:] + first.shape[:1]
    base = first.base
    if (isinstance(base, np.ndarray) and base.shape == shape and base.flags.c_contiguous
            and all(kf.features.base is base and kf.features.strides == first.strides
                    and kf.features.ctypes.data == base.ctypes.data + k * base.strides[0]
                    for k, kf in enumerate(keyframes))):
        return base
    buffer = np.empty(shape)
    for k, kf in enumerate(keyframes):
        kf.features = write_slot(buffer, k, kf.features)
    return buffer


@dataclass(eq=False)
class KeyframeGraph:
    """Keyframes and directed edges seen through one camera.

    features is the graph's one C-contiguous, pixel-major (K, H, W, C) buffer
    of embeddings: every keyframe's features are the (C, H, W) view of its slot
    k (see _feature_buffer). Graphs built from the same keyframes' views, as
    solver.retract builds them, share it.
    """

    keyframes: list
    edges: list
    intrinsics: Intrinsics
    features: np.ndarray = field(init=False, repr=False)
    _relative: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.intrinsics, Intrinsics):
            raise ValueError(
                f"intrinsics must be an Intrinsics, got {type(self.intrinsics).__name__}")
        n = len(self.keyframes)
        for pos, kf in enumerate(self.keyframes):
            if kf.index != pos:
                raise ValueError(f"keyframe at position {pos} carries index {kf.index}")
        shapes = {kf.grid_shape for kf in self.keyframes}
        if len(shapes) > 1:
            raise ValueError(f"keyframes disagree on grid shape: {shapes}")
        for kf in self.keyframes[1:]:
            channels = self.keyframes[0].features.shape[0]
            if kf.features.shape[0] != channels:
                raise ValueError(f"keyframe {kf.index} has {kf.features.shape[0]} feature "
                                 f"channels, but keyframe 0 has {channels}")
        for obs in self.edges:
            if not (0 <= obs.i < n and 0 <= obs.j < n):
                raise ValueError(f"edge ({obs.i}, {obs.j}) references a missing keyframe")
            if obs.grid_shape != self.keyframes[obs.i].grid_shape:
                raise ValueError(f"edge ({obs.i}, {obs.j}) maps do not match the keyframe grid")
        self.features = _feature_buffer(self.keyframes)

    @property
    def grid_shape(self):
        return self.keyframes[0].grid_shape

    def edge_groups(self) -> list:
        """The edges grouped by source keyframe: one list per keyframe with out-edges,
        in keyframe order, each keeping the order of self.edges."""
        groups = {}
        for obs in self.edges:
            groups.setdefault(obs.i, []).append(obs)
        return [groups[i] for i in sorted(groups)]

    def relative_poses(self, edges) -> list:
        """T_ji = relative_pose(pose_i, pose_j) of each edge i -> j at the keyframes'
        current poses.

        Each pair's transform, with its rotation matrix, is computed once per pair
        of Pose objects, so every pass over one state shares it.
        """
        out = []
        for obs in edges:
            pose_i, pose_j = self.keyframes[obs.i].pose, self.keyframes[obs.j].pose
            hit = self._relative.get((obs.i, obs.j))
            if hit is None or hit[0] is not pose_i or hit[1] is not pose_j:
                hit = (pose_i, pose_j, relative_pose(pose_i, pose_j))
                self._relative[obs.i, obs.j] = hit
            out.append(hit[2])
        return out
