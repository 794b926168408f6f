"""Rigid-body poses, pinhole cameras, and reprojection with analytic Jacobians.

Conventions used throughout the package:
  * Poses are world-to-camera: X_cam = R @ X_world + t.
  * Quaternions are stored (qx, qy, qz, qw), unit norm.
  * Twists are 6-vectors [v; w] (translational part first).
  * Pose perturbations are left-multiplicative: T <- se3_exp(delta) @ T.
  * Pixel coordinates are (x, y); dense maps are indexed [y, x].
  * Disparity is inverse depth in 1/meters, 0 meaning invalid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.transform import Rotation

# Reprojected points closer than this to the image plane are invalid.
Z_EPS = 1e-4

# Below this rotation angle the exp/log helper matrices use series expansions
# (the closed forms lose precision to cancellation long before they divide byzero).
_SMALL_ANGLE = 1e-4


@dataclass(frozen=True, eq=False)
class Intrinsics:
    """Pinhole camera parameters in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self):
        if not (self.fx > 0 and self.fy > 0):
            raise ValueError(f"focal lengths must be positive, got fx={self.fx}, fy={self.fy}")

    def as_array(self) -> np.ndarray:
        return np.array([self.fx, self.fy, self.cx, self.cy], dtype=float)

    @staticmethod
    def from_array(k) -> "Intrinsics":
        fx, fy, cx, cy = (float(v) for v in k)
        return Intrinsics(fx, fy, cx, cy)


@dataclass(frozen=True, eq=False)
class Pose:
    """World-to-camera rigid transform (unit quaternion + translation)."""

    rotation: np.ndarray     # (4,) quaternion (qx, qy, qz, qw)
    translation: np.ndarray  # (3,) meters

    def __post_init__(self):
        q = np.asarray(self.rotation, dtype=float).reshape(4)
        t = np.asarray(self.translation, dtype=float).reshape(3)
        n = np.linalg.norm(q)
        if not np.isfinite(n) or n < 1e-12:
            raise ValueError("quaternion norm is degenerate")
        object.__setattr__(self, "rotation", q / n)
        object.__setattr__(self, "translation", t)

    @staticmethod
    def identity() -> "Pose":
        return Pose(np.array([0.0, 0.0, 0.0, 1.0]), np.zeros(3))

    @staticmethod
    def from_matrix(mat) -> "Pose":
        mat = np.asarray(mat, dtype=float)
        q = Rotation.from_matrix(mat[:3, :3]).as_quat()
        return Pose(q, mat[:3, 3])

    def rotation_matrix(self) -> np.ndarray:
        return Rotation.from_quat(self.rotation).as_matrix()

    def matrix(self) -> np.ndarray:
        mat = np.eye(4)
        mat[:3, :3] = self.rotation_matrix()
        mat[:3, 3] = self.translation
        return mat

    def compose(self, other: "Pose") -> "Pose":
        """Return self o other (other applied first)."""
        r_a = Rotation.from_quat(self.rotation)
        r_b = Rotation.from_quat(other.rotation)
        return Pose((r_a * r_b).as_quat(), r_a.apply(other.translation) + self.translation)

    def __matmul__(self, other: "Pose") -> "Pose":
        return self.compose(other)

    def inverse(self) -> "Pose":
        r_inv = Rotation.from_quat(self.rotation).inv()
        return Pose(r_inv.as_quat(), -r_inv.apply(self.translation))

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform world points (..., 3) into the camera frame."""
        points = np.asarray(points, dtype=float)
        return Rotation.from_quat(self.rotation).apply(points.reshape(-1, 3)).reshape(points.shape) + self.translation

    def camera_center(self) -> np.ndarray:
        """Camera position in world coordinates."""
        return -Rotation.from_quat(self.rotation).inv().apply(self.translation)


def skew(v: np.ndarray) -> np.ndarray:
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def _so3_left_jacobian(omega: np.ndarray) -> np.ndarray:
    """V(w) such that the exp translation is V @ v."""
    theta = np.linalg.norm(omega)
    w = skew(omega)
    ww = w @ w
    if theta < _SMALL_ANGLE:
        a = 0.5 - theta**2 / 24.0
        b = 1.0 / 6.0 - theta**2 / 120.0
    else:
        a = 2.0 * np.sin(0.5 * theta) ** 2 / theta**2
        b = (theta - np.sin(theta)) / theta**3
    return np.eye(3) + a * w + b * ww


def _so3_left_jacobian_inv(omega: np.ndarray) -> np.ndarray:
    theta = np.linalg.norm(omega)
    w = skew(omega)
    ww = w @ w
    if theta < _SMALL_ANGLE:
        c = 1.0 / 12.0 + theta**2 / 720.0
    else:
        half = 0.5 * theta
        c = (1.0 - half * np.cos(half) / np.sin(half)) / theta**2
    return np.eye(3) - 0.5 * w + c * ww


def se3_exp(twist) -> Pose:
    """SE(3) exponential of a twist [v; w]."""
    twist = np.asarray(twist, dtype=float).reshape(6)
    if not np.all(np.isfinite(twist)):
        raise ValueError("twist must be finite")
    v, omega = twist[:3], twist[3:]
    rot = Rotation.from_rotvec(omega)
    return Pose(rot.as_quat(), _so3_left_jacobian(omega) @ v)


def se3_log(pose: Pose) -> np.ndarray:
    """Inverse of se3_exp. Raises for rotations too close to pi."""
    rot = Rotation.from_quat(pose.rotation)
    omega = rot.as_rotvec()
    theta = np.linalg.norm(omega)
    if theta >= np.pi - 1e-6:
        raise ValueError(f"se3_log ill-conditioned: rotation angle {theta:.9f} is within 1e-6 of pi")
    v = _so3_left_jacobian_inv(omega) @ pose.translation
    return np.concatenate([v, omega])


def relative_pose(pose_i: Pose, pose_j: Pose) -> Pose:
    """Transform taking frame-i camera coordinates to frame j: T_j o T_i^-1."""
    return pose_j.compose(pose_i.inverse())


def unproject(u: np.ndarray, disparity: np.ndarray, intrinsics: Intrinsics) -> np.ndarray:
    """Back-project pixels (..., 2) with disparity (...,) to camera-frame points (..., 3).

    Caller guarantees disparity > 0; depth is 1/disparity.
    """
    u = np.asarray(u, dtype=float)
    d = np.asarray(disparity, dtype=float)
    z = 1.0 / d
    x = (u[..., 0] - intrinsics.cx) / intrinsics.fx * z
    y = (u[..., 1] - intrinsics.cy) / intrinsics.fy * z
    return np.stack([x, y, z], axis=-1)


def project(points: np.ndarray, intrinsics: Intrinsics) -> np.ndarray:
    """Pinhole projection of camera-frame points (..., 3) to pixels (..., 2)."""
    points = np.asarray(points, dtype=float)
    z = points[..., 2]
    return np.stack(
        [
            intrinsics.fx * points[..., 0] / z + intrinsics.cx,
            intrinsics.fy * points[..., 1] / z + intrinsics.cy,
        ],
        axis=-1,
    )


def reproject(u, disparity, pose_i: Pose, pose_j: Pose, intrinsics: Intrinsics,
              intrinsics_j: Intrinsics | None = None):
    """Map pixels of frame i into frame j through the current geometry.

    u: (..., 2) pixels, disparity: (...,) inverse depths of frame i.
    Returns (mu (..., 2), valid (...,)); invalid entries (non-positive disparity
    or reprojected depth <= Z_EPS) hold finite placeholder coordinates and must
    be masked by the caller.
    """
    k_j = intrinsics if intrinsics_j is None else intrinsics_j
    u = np.asarray(u, dtype=float)
    d = np.asarray(disparity, dtype=float)
    valid = d > 0
    d_safe = np.where(valid, d, 1.0)
    points_i = unproject(u, d_safe, intrinsics)
    rel = relative_pose(pose_i, pose_j)
    points_j = rel.apply(points_i)
    z_j = points_j[..., 2]
    valid = valid & (z_j > Z_EPS)
    points_safe = points_j.copy()
    points_safe[..., 2] = np.where(valid, z_j, 1.0)
    return project(points_safe, k_j), valid


def _projection_jacobian(points: np.ndarray, intrinsics: Intrinsics) -> np.ndarray:
    """d(project)/d(point): (..., 2, 3)."""
    x, y, z = points[..., 0], points[..., 1], points[..., 2]
    zero = np.zeros_like(z)
    inv_z = 1.0 / z
    row_x = np.stack([intrinsics.fx * inv_z, zero, -intrinsics.fx * x * inv_z**2], axis=-1)
    row_y = np.stack([zero, intrinsics.fy * inv_z, -intrinsics.fy * y * inv_z**2], axis=-1)
    return np.stack([row_x, row_y], axis=-2)


def _cross_matrix(points: np.ndarray) -> np.ndarray:
    """Batched skew-symmetric matrices, (..., 3) -> (..., 3, 3)."""
    x, y, z = points[..., 0], points[..., 1], points[..., 2]
    zero = np.zeros_like(x)
    return np.stack(
        [
            np.stack([zero, -z, y], axis=-1),
            np.stack([z, zero, -x], axis=-1),
            np.stack([-y, x, zero], axis=-1),
        ],
        axis=-2,
    )


def reprojection_jacobian(u, disparity, pose_i: Pose, pose_j: Pose, intrinsics: Intrinsics,
                          intrinsics_j: Intrinsics | None = None):
    """Analytic derivatives of reproject under left-multiplicative twists.

    Returns (d_pose_i (..., 2, 6), d_pose_j (..., 2, 6), d_disparity (..., 2),
    mu (..., 2), valid (...,)). Twist columns are ordered [v; w].
    """
    k_j = intrinsics if intrinsics_j is None else intrinsics_j
    u = np.asarray(u, dtype=float)
    d = np.asarray(disparity, dtype=float)
    valid = d > 0
    d_safe = np.where(valid, d, 1.0)
    points_i = unproject(u, d_safe, intrinsics)
    rel = relative_pose(pose_i, pose_j)
    rot_ji = rel.rotation_matrix()
    points_j = points_i @ rot_ji.T + rel.translation
    z_j = points_j[..., 2]
    valid = valid & (z_j > Z_EPS)
    points_safe = points_j.copy()
    points_safe[..., 2] = np.where(valid, z_j, 1.0)

    mu = project(points_safe, k_j)
    j_proj = _projection_jacobian(points_safe, k_j)  # (..., 2, 3)

    # Perturbing T_j: X_j' = exp(delta) X_j  =>  dX/d[v;w] = [I | -[X_j]x]
    eye = np.broadcast_to(np.eye(3), points_safe.shape + (3,))
    d_point_j = np.concatenate([eye, -_cross_matrix(points_safe)], axis=-1)  # (..., 3, 6)
    d_pose_j = j_proj @ d_point_j

    # Perturbing T_i: X_j' = G exp(-delta) X_i  =>  dX/d[v;w] = R_ji [-I | [X_i]x]
    d_point_i = np.concatenate([-eye, _cross_matrix(points_i)], axis=-1)
    d_pose_i = j_proj @ (rot_ji @ d_point_i)

    # X_i = dir / d  =>  dX_i/dd = -X_i / d
    d_point_disp = (points_i @ rot_ji.T) * (-1.0 / d_safe)[..., None]
    d_disparity = np.einsum("...ij,...j->...i", j_proj, d_point_disp)

    return d_pose_i, d_pose_j, d_disparity, mu, valid


def reprojection_intrinsics_jacobian(u, disparity, pose_i: Pose, pose_j: Pose,
                                     intrinsics: Intrinsics):
    """d(reproject)/d[fx, fy, cx, cy] for a shared camera, (..., 2, 4).

    The intrinsics enter through both the unprojection in frame i and the
    projection in frame j.
    """
    u = np.asarray(u, dtype=float)
    d = np.asarray(disparity, dtype=float)
    d_safe = np.where(d > 0, d, 1.0)
    points_i = unproject(u, d_safe, intrinsics)
    rel = relative_pose(pose_i, pose_j)
    rot_ji = rel.rotation_matrix()
    points_j = points_i @ rot_ji.T + rel.translation
    z_j = points_j[..., 2]
    valid = (d > 0) & (z_j > Z_EPS)
    points_safe = points_j.copy()
    points_safe[..., 2] = np.where(valid, z_j, 1.0)

    x, y, z = points_safe[..., 0], points_safe[..., 1], points_safe[..., 2]
    zero = np.zeros_like(z)
    one = np.ones_like(z)
    # Direct dependence of the frame-j projection on K.
    direct = np.stack(
        [
            np.stack([x / z, zero, one, zero], axis=-1),
            np.stack([zero, y / z, zero, one], axis=-1),
        ],
        axis=-2,
    )
    # Dependence through the frame-i unprojection: X_i = ((u-cx)/fx/d, (v-cy)/fy/d, 1/d).
    dxi = np.zeros(points_i.shape[:-1] + (3, 4))
    dxi[..., 0, 0] = -points_i[..., 0] / intrinsics.fx
    dxi[..., 0, 2] = -1.0 / (intrinsics.fx * d_safe)
    dxi[..., 1, 1] = -points_i[..., 1] / intrinsics.fy
    dxi[..., 1, 3] = -1.0 / (intrinsics.fy * d_safe)
    j_proj = _projection_jacobian(points_safe, intrinsics)
    return direct + j_proj @ (rot_ji @ dxi), valid


def depth_to_disparity(depth) -> np.ndarray:
    """Elementwise inverse depth; non-positive or non-finite depths map to 0."""
    depth = np.asarray(depth, dtype=float)
    valid = np.isfinite(depth) & (depth > 0)
    out = np.zeros_like(depth)
    np.divide(1.0, depth, out=out, where=valid)
    return out
