"""Keyframe factor graph: vertices and edges."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .geometry import Intrinsics, Pose


@dataclass(eq=False)
class Keyframe:
    """One optimizable vertex: pose, dense disparity, its prior, and embeddings.

    Disparity maps and features share the same 1/8-resolution grid. frozen
    excludes the pose from optimization (disparities stay free). features is
    stored pixel-major: a (K, H, W) view of a C-contiguous (H, W, K) buffer, so
    that the K channels of a pixel are adjacent for sampling. A keyframe built
    from such a view (dataclasses.replace, KeyframeGraph.copy) shares the buffer.
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


@dataclass(eq=False)
class KeyframeGraph:
    """Keyframes and directed edges seen through one camera."""

    keyframes: list
    edges: list
    intrinsics: Intrinsics

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

    def copy(self) -> "KeyframeGraph":
        """Shallow-graph copy with fresh Keyframe objects (maps shared, pose/disparity replaceable)."""
        return KeyframeGraph(
            keyframes=[replace(kf, disparity=kf.disparity.copy()) for kf in self.keyframes],
            edges=list(self.edges),
            intrinsics=self.intrinsics,
        )

