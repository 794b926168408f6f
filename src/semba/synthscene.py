"""Self-consistent synthetic scenes for exercising the bundle-adjustment engine.

The generator builds a world surface (fronto-parallel patches hashed on a world
grid plus a smooth height field), a camera arc that keeps it in view, and
per-keyframe disparity / embedding maps. Each keyframe is joined to the
keyframes within TEMPORAL_RADIUS of its index, in both directions. Edge flow
fields are rendered noise-free through the exact reprojection chain, so
without injected dynamics the generated state is a global optimum of the
objective: every valid residual vanishes there.

Class boundaries are smoothed over a few pixels so the embedding term carries
usable gradients (hard one-pixel cliffs starve Gauss-Newton). Cross-view
embedding agreement is exact on pixels whose own feature is a pure class
vector and whose reprojected bilinear neighbourhood is pure with the same
class; the remaining boundary bands get zero flow confidence (mimicking a flow
network's uncertainty at depth edges), which removes them from every term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from .features import in_bounds
from .geometry import Intrinsics, Pose, se3_exp
from .graph import Keyframe, KeyframeGraph
from .residuals import FlowObservation, grid_pixels

_NEWTON_ITERS = 16

# Fixed scene constants. The flow is noise-free and the initial disparities
# are the ground truth; pose_sigma perturbs only the initial poses.
DEPTH_RANGE = (1.0, 5.0)       # world depth band (meters)
FOCAL_PER_WIDTH = 0.8          # pinhole focal length = 0.8 * width (pixels)
ARC_SWEEP = 0.4                # radians the camera arc sweeps around the scene
EMBEDDING_DIM = 16
NUM_CLASSES = 6
FEATURE_SMOOTH_RADIUS = 2      # class-boundary blending radius (pixels)
TEMPORAL_RADIUS = 2            # keyframes within this index distance share both edges


@dataclass
class SceneConfig:
    num_keyframes: int = 8
    height: int = 48
    width: int = 64
    dynamic_fraction: float = 0.0
    dynamic_motion_px: float = 5.0
    embedding_decorrelation: float = 1.0
    pose_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.num_keyframes < 2:
            raise ValueError("need at least 2 keyframes")
        if self.height < 8 or self.width < 8:
            raise ValueError("grid must be at least 8x8")
        if not 0.0 <= self.dynamic_fraction <= 1.0:
            raise ValueError("dynamic_fraction must lie in [0, 1]")
        if not 0.0 <= self.embedding_decorrelation <= 1.0:
            raise ValueError("embedding_decorrelation must lie in [0, 1]")
        for name in ("pose_sigma", "dynamic_motion_px"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")

    def intrinsics(self) -> Intrinsics:
        f = FOCAL_PER_WIDTH * self.width
        return Intrinsics(f, f, (self.width - 1) / 2.0, (self.height - 1) / 2.0)


@dataclass(eq=False)
class SceneBundle:
    """Everything the engine consumes plus the ground truth used to score it."""

    config: SceneConfig
    intrinsics: Intrinsics
    class_vectors: np.ndarray     # (L, K) unit rows
    gt_poses: list                # world-to-camera
    init_poses: list
    gt_disparity: list            # (H, W) each; also the initial state and the prior
    features: list                # (K, H, W)
    labels: list                  # (H, W) int
    dynamic_masks: list           # (H, W) bool
    edges: list                   # FlowObservation, flow rendered from the gt chain
    flows: list                   # (2, H, W) each: the grids edges[n] was built from
    confidences: list             # (H, W) each

    def to_graph(self, initial: bool = True) -> KeyframeGraph:
        """Problem graph at the perturbed initial state (default) or at ground truth."""
        poses = self.init_poses if initial else self.gt_poses
        kfs = [
            Keyframe(index=k, pose=poses[k], disparity=self.gt_disparity[k].copy(),
                     disparity_prior=self.gt_disparity[k], features=self.features[k],
                     frozen=(k == 0))
            for k in range(self.config.num_keyframes)
        ]
        return KeyframeGraph(keyframes=kfs, edges=list(self.edges), intrinsics=self.intrinsics)

    def measured_dynamic_fraction(self) -> float:
        return float(np.mean([m.mean() for m in self.dynamic_masks]))


def _unit(v):
    return v / np.linalg.norm(v)


def _look_at(center: np.ndarray, target: np.ndarray) -> Pose:
    """World-to-camera pose with the optical axis through the target."""
    forward = _unit(target - center)
    right = _unit(np.cross(np.array([0.0, 1.0, 0.0]), forward))
    up = np.cross(forward, right)
    rot_c2w = np.stack([right, up, forward], axis=1)
    r_w2c = rot_c2w.T
    return Pose.from_matrix(np.block([[r_w2c, (-r_w2c @ center)[:, None]],
                                      [np.zeros((1, 3)), np.ones((1, 1))]]))


def _trajectory(cfg: SceneConfig):
    """Cameras on an arc of ARC_SWEEP radians, all looking at the depth band's middle."""
    n = cfg.num_keyframes
    lo, hi = DEPTH_RANGE
    z0 = 0.5 * (lo + hi)
    target = np.array([0.0, 0.0, z0])
    poses = []
    for k in range(n):
        theta = -0.5 * ARC_SWEEP + ARC_SWEEP * k / (n - 1)
        center = np.array([z0 * np.sin(theta),
                           0.1 * ARC_SWEEP * np.sin(2.0 * np.pi * k / n),
                           z0 * (1.0 - np.cos(theta))])
        poses.append(_look_at(center, target))
    return poses


def _class_vectors(rng: np.random.Generator, num_classes: int, dim: int,
                   min_angle_deg: float = 30.0) -> np.ndarray:
    """Unit vectors with pairwise angle >= min_angle_deg, by rejection sampling.

    Angles are also capped at 120 degrees so convex blends at class boundaries
    keep a healthy norm.
    """
    max_cos = np.cos(np.radians(min_angle_deg))
    vectors = []
    for _ in range(20_000):
        v = _unit(rng.normal(size=dim))
        if all(-0.5 <= v @ u <= max_cos for u in vectors):
            vectors.append(v)
            if len(vectors) == num_classes:
                return np.stack(vectors)
    raise RuntimeError("could not place class vectors with the requested separation")


class _WorldSurface:
    """Height field z(x, y) = z0 + hashed per-cell offset + smooth modulation."""

    def __init__(self, cfg: SceneConfig, rng: np.random.Generator):
        lo, hi = DEPTH_RANGE
        self.z0 = 0.5 * (lo + hi)
        k = cfg.intrinsics()
        # Cap the boundary smoothing on small grids, then size the class cells
        # (in image pixels at the reference depth) to at least twice the purity
        # window so confident interiors survive the masking.
        self.smooth_radius = max(1, min(FEATURE_SMOOTH_RADIUS,
                                        cfg.width // 12, cfg.height // 12))
        cell_px = max(cfg.width / 6.0, 2.0 * (2 * self.smooth_radius + 1))
        self.cell = self.z0 * cell_px / k.fx
        self.patch_amp = 0.15 * (hi - lo)
        self.smooth_amp = 0.04 * (hi - lo)
        self.salt = np.uint64(rng.integers(1, 2**31))
        self.freq = rng.uniform(0.7, 1.3, size=3)
        self.phase = rng.uniform(0.0, 2.0 * np.pi, size=3)

    def _hash(self, ix, iy):
        h = ix.astype(np.uint64) * np.uint64(2654435761) \
            + iy.astype(np.uint64) * np.uint64(40503) + self.salt
        h ^= h >> np.uint64(13)
        h *= np.uint64(0x9E3779B97F4A7C15)
        h ^= h >> np.uint64(29)
        return h

    def cell_indices(self, x, y):
        return np.floor(x / self.cell).astype(np.int64), np.floor(y / self.cell).astype(np.int64)

    def cell_class(self, ix, iy):
        return (self._hash(ix, iy) % np.uint64(NUM_CLASSES)).astype(int)

    def cell_offset(self, ix, iy):
        frac = ((self._hash(ix, iy) >> np.uint64(8)) % np.uint64(4096)).astype(float) / 4095.0
        return self.patch_amp * (2.0 * frac - 1.0)

    def smooth(self, x, y):
        """Smooth modulation and its x and y derivatives, one sine or cosine per term."""
        ax = self.freq[0] * x + self.phase[0]
        ay = self.freq[1] * y + self.phase[1]
        axy = self.freq[2] * (x + y) + self.phase[2]
        sin_x, sin_y = np.sin(ax), np.sin(ay)
        grad_xy = 0.5 * self.freq[2] * np.cos(axy)  # the (x + y) term's slope along x and y
        value = self.smooth_amp * (sin_x * sin_y + 0.5 * np.sin(axy))
        gx = self.smooth_amp * (self.freq[0] * np.cos(ax) * sin_y + grad_xy)
        gy = self.smooth_amp * (sin_x * self.freq[1] * np.cos(ay) + grad_xy)
        return value, gx, gy

    def raycast(self, pose: Pose, intrinsics: Intrinsics, height: int, width: int):
        """Per-pixel ray depths and world points; returns (depth (H*W,), labels (H*W,))."""
        u = grid_pixels(height, width)
        ray_cam = geometry.unproject(u, np.ones(u.shape[1]), intrinsics)
        rot_c2w = pose.rotation_matrix().T
        origin = pose.camera_center()
        ray_w = rot_c2w @ ray_cam
        if np.any(ray_w[2] <= 0.05):
            raise ValueError("camera looks away from the surface; trajectory too aggressive")

        # Candidate cell from the base-plane hit, then Newton on that cell's plane.
        s = (self.z0 - origin[2]) / ray_w[2]
        px = origin[0] + s * ray_w[0]
        py = origin[1] + s * ray_w[1]
        ix, iy = self.cell_indices(px, py)
        z_cell = self.z0 + self.cell_offset(ix, iy)
        # Every step is elementwise, so a ray whose s repeats bit for bit is a
        # fixed point and leaves the loop; rays that never settle take every step.
        active = np.arange(s.size)
        for _ in range(_NEWTON_ITERS):
            ray, s_active = ray_w[:, active], s[active]
            px = origin[0] + s_active * ray[0]
            py = origin[1] + s_active * ray[1]
            z, gx, gy = self.smooth(px, py)
            f = origin[2] + s_active * ray[2] - z_cell[active] - z
            fp = ray[2] - gx * ray[0] - gy * ray[1]
            step = s_active - f / fp
            s[active] = step
            active = active[step != s_active]
            if active.size == 0:
                break
        px = origin[0] + s * ray_w[0]
        py = origin[1] + s * ray_w[1]
        labels = self.cell_class(*self.cell_indices(px, py))
        # Camera-frame depth equals s because the camera ray has unit z-component.
        return s, labels


def _conv1d_edge(stack: np.ndarray, kernel: np.ndarray, axis: int) -> np.ndarray:
    """Separable 1-D convolution with edge padding along the given axis."""
    radius = len(kernel) // 2
    pad = [(0, 0)] * stack.ndim
    pad[axis] = (radius, radius)
    padded = np.pad(stack, pad, mode="edge")
    out = np.zeros_like(stack)
    for k, wgt in enumerate(kernel):
        sl = [slice(None)] * stack.ndim
        sl[axis] = slice(k, k + stack.shape[axis])
        out += wgt * padded[tuple(sl)]
    return out


def _label_purity(labels: np.ndarray, radius: int) -> np.ndarray:
    """True where the whole (2r+1)^2 window shares the center label."""
    h, w = labels.shape
    padded = np.pad(labels, radius, mode="edge")
    pure = np.ones((h, w), dtype=bool)
    for dy in range(2 * radius + 1):
        for dx in range(2 * radius + 1):
            pure &= padded[dy:dy + h, dx:dx + w] == labels
    return pure


def _smooth_class_features(labels: np.ndarray, class_vectors: np.ndarray,
                           radius: int) -> np.ndarray:
    """Blend class vectors across smoothed boundaries; unit-normalized per pixel.

    Pure pixels (label-uniform window) come out as exact class directions.
    """
    num_classes = class_vectors.shape[0]
    onehot = (labels[None] == np.arange(num_classes)[:, None, None]).astype(float)
    kernel = np.concatenate([np.arange(1, radius + 2), np.arange(radius, 0, -1)]).astype(float)
    kernel /= kernel.sum()
    sm = _conv1d_edge(_conv1d_edge(onehot, kernel, axis=1), kernel, axis=2)
    feat = np.einsum("lhw,lk->khw", sm, class_vectors)
    norm = np.maximum(np.linalg.norm(feat, axis=0, keepdims=True), 1e-12)
    return feat / norm


def _edge_confidence(mu: np.ndarray, src_labels: np.ndarray, src_pure: np.ndarray,
                     labels_j: np.ndarray, pure_j: np.ndarray,
                     valid: np.ndarray) -> np.ndarray:
    """True where the source feature is a pure class vector and all four bilinear
    neighbours of mu are pure with the same class."""
    h, w = labels_j.shape
    x0 = np.clip(np.floor(mu[0]), 0, w - 2).astype(int)
    y0 = np.clip(np.floor(mu[1]), 0, h - 2).astype(int)
    agree = src_pure.copy()
    for dy in (0, 1):
        for dx in (0, 1):
            agree &= (labels_j[y0 + dy, x0 + dx] == src_labels) & pure_j[y0 + dy, x0 + dx]
    return agree & valid


def gen_scene(cfg: SceneConfig) -> SceneBundle:
    """Generate a bundle; deterministic given cfg.seed.

    The order of randomness consumption is fixed by independent child seeds,
    so toggling one knob never reshuffles the others.
    """
    # A child's stream depends on its position, so the unused second (once
    # the random-walk trajectory), fourth and fifth (once the flow noise)
    # children stay in place to keep every other stream's numbers.
    seeds = np.random.SeedSequence(cfg.seed).spawn(6)
    rng_vec, _, rng_surf, _, _, rng_init = (np.random.default_rng(s) for s in seeds)

    intr = cfg.intrinsics()
    h, w = cfg.height, cfg.width
    class_vectors = _class_vectors(rng_vec, NUM_CLASSES, EMBEDDING_DIM)
    gt_poses = _trajectory(cfg)
    surface = _WorldSurface(cfg, rng_surf)

    lo, hi = DEPTH_RANGE
    gt_disparity, features, labels, purity = [], [], [], []
    for pose in gt_poses:
        depth, lab = surface.raycast(pose, intr, h, w)
        if depth.min() <= 0.25 * lo or depth.max() >= 4.0 * hi:
            raise ValueError("raycast produced out-of-range depths; scene degenerate")
        gt_disparity.append((1.0 / depth).reshape(h, w))
        lab = lab.reshape(h, w)
        labels.append(lab)
        purity.append(_label_purity(lab, surface.smooth_radius))
        features.append(_smooth_class_features(lab, class_vectors, surface.smooth_radius))

    if len(np.unique(np.concatenate([l.reshape(-1) for l in labels]))) < 4:
        raise ValueError("scene shows fewer than 4 classes; enlarge the grid or field of view")

    n = cfg.num_keyframes
    pairs = [(i, j) for i in range(n) for j in range(n) if 0 < abs(i - j) <= TEMPORAL_RADIUS]
    u = grid_pixels(h, w)
    flows, confidences = [], []
    for i, j in pairs:
        mu, valid = geometry.reproject(u, gt_disparity[i].reshape(-1),
                                       [geometry.relative_pose(gt_poses[i], gt_poses[j])], intr)
        usable = valid & in_bounds(mu.T, h, w)
        flows.append(np.where(usable, mu - u, 0.0).reshape(2, h, w))
        conf = _edge_confidence(mu, labels[i].reshape(-1), purity[i].reshape(-1),
                                labels[j], purity[j], usable)
        confidences.append(conf.reshape(h, w).astype(float))

    if np.mean([c.mean() for c in confidences]) <= 0.01:
        raise ValueError("scene too cramped: almost no confident pixels survive the "
                         "boundary masking; enlarge the grid")

    mask = (_move_blobs(flows, features, cfg) if cfg.dynamic_fraction > 0
            else np.zeros((h, w), dtype=bool))
    edges = [FlowObservation(i=i, j=j, flow=flow, confidence=conf)
             for (i, j), flow, conf in zip(pairs, flows, confidences)]
    # Keyframe 0 is the gauge anchor and keeps its pose.
    init_poses = list(gt_poses)
    if cfg.pose_sigma > 0:
        rng_pose = np.random.default_rng(int(rng_init.integers(2**31)))
        for k in range(1, n):
            init_poses[k] = se3_exp(rng_pose.normal(0.0, cfg.pose_sigma, 6)).compose(gt_poses[k])
    return SceneBundle(
        config=cfg, intrinsics=intr, class_vectors=class_vectors,
        gt_poses=gt_poses, init_poses=init_poses, gt_disparity=gt_disparity,
        features=features, labels=labels, dynamic_masks=[mask.copy() for _ in range(n)],
        edges=edges, flows=flows, confidences=confidences)


def _grow_blobs(rng: np.random.Generator, height: int, width: int, target: int):
    """Elliptical blobs covering exactly `target` pixels (last blob trimmed radially).

    Returns (mask (H, W) bool, blob_ids (H, W) int with -1 outside blobs).
    """
    mask = np.zeros((height, width), dtype=bool)
    ids = np.full((height, width), -1, dtype=int)
    ys, xs = np.mgrid[0:height, 0:width]
    blob = 0
    while mask.sum() < target:
        cy = rng.uniform(0.1 * height, 0.9 * height)
        cx = rng.uniform(0.1 * width, 0.9 * width)
        ry = rng.uniform(height / 10.0, height / 4.0)
        rx = rng.uniform(width / 10.0, width / 4.0)
        inside = ((ys - cy) / ry) ** 2 + ((xs - cx) / rx) ** 2 <= 1.0
        fresh = inside & ~mask
        excess = int(mask.sum() + fresh.sum()) - target
        if excess > 0:
            fy, fx = np.nonzero(fresh)
            order = np.argsort(-(((fy - cy) / ry) ** 2 + ((fx - cx) / rx) ** 2), kind="stable")
            drop = order[:excess]
            fresh[fy[drop], fx[drop]] = False
        mask |= fresh
        ids[fresh] = blob
        blob += 1
    return mask, ids


def _move_blobs(flows: list, features: list, cfg: SceneConfig) -> np.ndarray:
    """Contaminate contiguous blobs of the edge flows and the features in place, modelling
    objects that moved between frames; returns the (H, W) mask of moved pixels.

    Each blob gets an independent rigid 2-D flow displacement of magnitude
    dynamic_motion_px per edge (violating the static geometry) and, per frame,
    its embeddings are blended toward a fresh blob-wide vector so cross-view
    similarity collapses while the field stays spatially coherent. Confidence
    is deliberately left unchanged: the corruption stays invisible to the
    weighting, and only the similarity-driven kernel can respond.

    Deterministic: randomness derives from the scene seed.
    """
    h, w = cfg.height, cfg.width
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0xD1)))
    mask, blob_ids = _grow_blobs(rng, h, w, round(cfg.dynamic_fraction * h * w))
    blobs = [blob_ids == blob for blob in range(int(blob_ids.max()) + 1)]

    if cfg.dynamic_motion_px > 0:
        for flow in flows:
            for sel in blobs:
                theta = rng.uniform(0.0, 2.0 * np.pi)
                delta = cfg.dynamic_motion_px * np.array([np.cos(theta), np.sin(theta)])
                flow[0][sel] += delta[0]
                flow[1][sel] += delta[1]

    if cfg.embedding_decorrelation > 0:
        # Ramped blend weights: spatially coherent object features with soft
        # edges instead of one-pixel cliffs.
        kernel = np.array([1.0, 2.0, 3.0, 2.0, 1.0]) / 9.0
        weights = [cfg.embedding_decorrelation * _conv1d_edge(
            _conv1d_edge(sel.astype(float), kernel, 0), kernel, 1) for sel in blobs]
        for feat in features:
            fresh = rng.normal(size=(len(blobs), EMBEDDING_DIM))
            fresh /= np.linalg.norm(fresh, axis=1, keepdims=True)
            for weight, vec in zip(weights, fresh):
                blended = (1.0 - weight)[None] * feat + weight[None] * vec[:, None, None]
                blended /= np.maximum(np.linalg.norm(blended, axis=0, keepdims=True), 1e-12)
                feat[:] = blended
    return mask
