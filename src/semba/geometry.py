"""Rigid-body poses, pinhole cameras, and reprojection with analytic Jacobians.

Conventions used throughout the package:
  * Poses are world-to-camera: X_cam = R @ X_world + t.
  * Quaternions are stored (qx, qy, qz, qw), unit norm.
  * Twists are 6-vectors [v; w] (translational part first).
  * Pose perturbations are left-multiplicative: T <- se3_exp(delta) @ T.
  * Pixel coordinates are (x, y); dense maps are indexed [y, x].
  * Batches of pixels and points are component-major: (2, N) pixels and
    (3, N) points, with the point axis last.
  * Disparity is inverse depth in 1/meters, 0 meaning invalid.

Pose arithmetic (rotation matrix, composition, inverse, exponential) is done in
closed form on the stored unit quaternion: the Hamilton product and the
conjugate. scipy's Rotation serves only the conversion from a rotation matrix
(Pose.from_matrix).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.transform import Rotation

# Reprojected points closer than this to the image plane are invalid.
Z_EPS = 1e-4

# A quaternion whose norm is this close to 1 is kept as given: q / |q| is not
# idempotent in binary64, so renormalizing it would break bit-faithful round trips.
_UNIT_NORM_TOL = 4 * np.finfo(float).eps

# Below this rotation angle the exp helper matrix uses series expansions
# (the closed forms lose precision to cancellation long before they divide by zero).
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
    """World-to-camera rigid transform (unit quaternion + translation).

    The quaternion is stored as given when it is unit to round-off; every
    method works on it in closed form.
    """

    rotation: np.ndarray     # (4,) quaternion (qx, qy, qz, qw)
    translation: np.ndarray  # (3,) meters

    def __post_init__(self):
        q = np.asarray(self.rotation, dtype=float).reshape(4)
        t = np.asarray(self.translation, dtype=float).reshape(3)
        n = np.linalg.norm(q)
        if not np.isfinite(n) or n < 1e-12:
            raise ValueError("quaternion norm is degenerate")
        if abs(n - 1.0) > _UNIT_NORM_TOL:
            q = q / n
        object.__setattr__(self, "rotation", q)
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
        x, y, z, w = self.rotation.tolist()
        return np.array([
            [x * x - y * y - z * z + w * w, 2.0 * (x * y - z * w), 2.0 * (x * z + y * w)],
            [2.0 * (x * y + z * w), -x * x + y * y - z * z + w * w, 2.0 * (y * z - x * w)],
            [2.0 * (x * z - y * w), 2.0 * (y * z + x * w), -x * x - y * y + z * z + w * w],
        ])

    def matrix(self) -> np.ndarray:
        mat = np.eye(4)
        mat[:3, :3] = self.rotation_matrix()
        mat[:3, 3] = self.translation
        return mat

    def compose(self, other: "Pose") -> "Pose":
        """Return self o other (other applied first)."""
        return Pose(_hamilton(self.rotation.tolist(), other.rotation.tolist()),
                    self.rotation_matrix() @ other.translation + self.translation)

    def inverse(self) -> "Pose":
        x, y, z, w = self.rotation.tolist()
        return Pose(np.array([-x, -y, -z, w]), self.camera_center())

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform world points (..., 3) into the camera frame."""
        points = np.asarray(points, dtype=float)
        return points @ self.rotation_matrix().T + self.translation

    def camera_center(self) -> np.ndarray:
        """Camera position in world coordinates."""
        return -(self.rotation_matrix().T @ self.translation)


def _hamilton(a, b) -> np.ndarray:
    """Hamilton product a b of two (x, y, z, w) quaternions given as sequences of floats."""
    ax, ay, az, aw = a
    bx, by, bz, bw = b
    return np.array([aw * bx + ax * bw + ay * bz - az * by,
                     aw * by - ax * bz + ay * bw + az * bx,
                     aw * bz + ax * by - ay * bx + az * bw,
                     aw * bw - ax * bx - ay * by - az * bz])


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


def se3_exp(twist) -> Pose:
    """SE(3) exponential of a twist [v; w]."""
    twist = np.asarray(twist, dtype=float).reshape(6)
    if not np.all(np.isfinite(twist)):
        raise ValueError("twist must be finite")
    v, omega = twist[:3], twist[3:]
    theta = float(np.linalg.norm(omega))
    # Unit quaternion (sin(theta/2) omega/theta, cos(theta/2)); Taylor series near 0.
    if theta <= 1e-3:
        scale = 0.5 - theta**2 / 48.0 + theta**4 / 3840.0
    else:
        scale = math.sin(0.5 * theta) / theta
    return Pose(np.append(scale * omega, math.cos(0.5 * theta)), _so3_left_jacobian(omega) @ v)


def relative_pose(pose_i: Pose, pose_j: Pose) -> Pose:
    """Transform taking frame-i camera coordinates to frame j: T_j o T_i^-1.

    In closed form, as pose_j.compose(pose_i.inverse()) computes it: q_j times the
    conjugate of q_i, and R_j times the camera center of i plus t_j.
    """
    x, y, z, w = pose_i.rotation.tolist()
    return Pose(_hamilton(pose_j.rotation.tolist(), (-x, -y, -z, w)),
                pose_j.rotation_matrix() @ pose_i.camera_center() + pose_j.translation)


def unproject(u: np.ndarray, disparity: np.ndarray, intrinsics: Intrinsics) -> np.ndarray:
    """Back-project pixels (2, ...) with disparity (...,) to camera-frame points (3, ...).

    Caller guarantees disparity > 0; depth is 1/disparity.
    """
    u = np.asarray(u, dtype=float)
    d = np.asarray(disparity, dtype=float)
    z = 1.0 / d
    x = (u[0] - intrinsics.cx) / intrinsics.fx * z
    y = (u[1] - intrinsics.cy) / intrinsics.fy * z
    return np.stack([x, y, z])


def project(points: np.ndarray, intrinsics: Intrinsics) -> np.ndarray:
    """Pinhole projection of camera-frame points (3, ...) to pixels (2, ...)."""
    points = np.asarray(points, dtype=float)
    z = points[2]
    return np.stack([intrinsics.fx * points[0] / z + intrinsics.cx,
                     intrinsics.fy * points[1] / z + intrinsics.cy])


def _segments(bounds):
    """Index of each edge's points along the last axis of a batch, from the edges' (E+1,)
    offsets; None is one edge."""
    if bounds is None:
        return [(Ellipsis,)]
    return [(Ellipsis, slice(lo, hi)) for lo, hi in zip(bounds[:-1], bounds[1:])]


def _transform(u, disparity, relative, intrinsics: Intrinsics, bounds):
    """Unproject pixels of frame i through its intrinsics and carry each edge's points
    into its camera j with that edge's T_ji.

    Returns (points_j (3, N), valid (N,), edge indices, rotations R_ji, safe
    disparity (N,)); a single pixel (2,) with a scalar disparity gives (3,) and
    scalars. Invalid entries (non-positive disparity or depth in j <= Z_EPS)
    hold z = 1 in points_j and disparity 1, so that everything derived from
    them stays finite.
    """
    d = np.asarray(disparity, dtype=float)
    valid = d > 0
    d_safe = np.where(valid, d, 1.0)
    points_i = unproject(u, d_safe, intrinsics)
    segments = _segments(bounds)
    # One 3x3 product per edge; a per-point rotation stack is slower. R_ji @ X on
    # the (3, N) batch is bit for bit the row form X^T @ R_ji^T, unlike a per-point
    # sum or einsum, so generated scenes do not depend on the layout.
    points_j = np.empty_like(points_i)
    rotations = [rel.rotation_matrix() for rel in relative]
    shift = (3,) + (1,) * d.ndim
    for seg, rot, rel in zip(segments, rotations, relative, strict=True):
        np.matmul(rot, points_i[seg], out=points_j[seg])
        points_j[seg] += rel.translation.reshape(shift)
    valid = valid & (points_j[2] > Z_EPS)
    points_j[2] = np.where(valid, points_j[2], 1.0)
    return points_j, valid, segments, rotations, d_safe


def reproject(u, disparity, relative, intrinsics: Intrinsics, bounds=None):
    """Map pixels of frame i into the frames j of a batch of edges i -> j.

    u: (2, N) pixels (x, y), disparity: (N,) inverse depths of frame i; a single
    pixel is (2,) with a scalar disparity. relative holds each edge's T_ji
    (relative_pose(pose_i, pose_j)); points bounds[e] to bounds[e + 1] belong to
    edge e (bounds None: one edge, every point).
    Returns (mu (2, N), valid (N,)); invalid entries (non-positive disparity or
    reprojected depth <= Z_EPS) hold finite placeholder coordinates and must be
    masked by the caller.
    """
    points_j, valid, _, _, _ = _transform(u, disparity, relative, intrinsics, bounds)
    return project(points_j, intrinsics), valid


def reprojection_jacobian(u, disparity, relative, intrinsics: Intrinsics, bounds=None,
                          with_intrinsics: bool = False, out=None):
    """Analytic derivatives of reproject under left-multiplicative twists.

    Returns (adjoint (E, 6, 6), jac (2, 7 or 11, N), mu (2, N), valid (N,)) for
    the E edges of relative and bounds, as in reproject: jac[r, c] is the
    derivative of coordinate r of mu along column c, over all N points. jac's
    columns are [disparity | pose j | intrinsics]: the twist on T_j ordered
    [v; w], then [fx, fy, cx, cy] when with_intrinsics. Pose i enters only
    through T_ji, and T_ji exp(-delta) = exp(-Ad(T_ji) delta) T_ji, so row r of
    edge e's points has the pose-i columns -adjoint[e].T @ jac[r, 1:7] with
    adjoint[e] = Ad(T_ji). When out is given (an array of jac's shape, such as
    the first rows of a larger stack), every entry of it is written and it is
    returned as jac.
    """
    points_j, valid, segments, rotations, d_safe = _transform(u, disparity, relative,
                                                              intrinsics, bounds)
    mu = project(points_j, intrinsics)
    jac = np.empty((2, 11 if with_intrinsics else 7) + valid.shape) if out is None else out

    # A left twist [v; w] on T_j moves X_j by v + w x X_j. With (a, b) = (x, y) / z
    # the two rows of d(project)/d[v; w] are, in closed form, written column by
    # column into jac[:, 1:7]:
    inv_z = 1.0 / points_j[2]
    a, b = points_j[0] * inv_z, points_j[1] * inv_z
    fx, fy = intrinsics.fx, intrinsics.fy
    # (An index ending in ... is a view even for a single pixel's scalar entries.)
    row_x, row_y = jac[0], jac[1]
    np.multiply(inv_z, fx, out=row_x[1, ...])
    row_x[2] = 0.0
    np.multiply(-a * inv_z, fx, out=row_x[3, ...])
    np.multiply(-a * b, fx, out=row_x[4, ...])
    np.multiply(1.0 + a * a, fx, out=row_x[5, ...])
    np.multiply(-b, fx, out=row_x[6, ...])
    row_y[1] = 0.0
    np.multiply(inv_z, fy, out=row_y[2, ...])
    np.multiply(-b * inv_z, fy, out=row_y[3, ...])
    np.multiply(-1.0 - b * b, fy, out=row_y[4, ...])
    np.multiply(a * b, fy, out=row_y[5, ...])
    np.multiply(a, fy, out=row_y[6, ...])
    d_mu_d_point = jac[:, 1:4]  # d(mu)/dX_j

    adjoint = np.zeros((len(relative), 6, 6))
    # X_i = dir / d  =>  dX_j/dd = R_ji dX_i/dd = -(X_j - t_ji) / d
    d_point_disp = np.empty_like(points_j)
    shift = (3,) + (1,) * valid.ndim
    for e, (seg, rot, rel) in enumerate(zip(segments, rotations, relative)):
        adjoint[e, :3, :3] = adjoint[e, 3:, 3:] = rot
        adjoint[e, :3, 3:] = skew(rel.translation) @ rot
        np.subtract(rel.translation.reshape(shift), points_j[seg], out=d_point_disp[seg])
    d_point_disp /= d_safe
    # d(mu)/dd = d(mu)/dX_j dX_j/dd, without the zero entries of d(mu)/dX_j.
    np.multiply(row_x[1], d_point_disp[0], out=row_x[0, ...])
    row_x[0] += row_x[3] * d_point_disp[2]
    np.multiply(row_y[2], d_point_disp[1], out=row_y[0, ...])
    row_y[0] += row_y[3] * d_point_disp[2]

    if with_intrinsics:
        # The intrinsics enter through the projection in frame j (the direct
        # term) and through the unprojection in frame i, whose shift moves edge
        # e's X_j by R_ji times it.
        k = intrinsics
        jac[:, 7:] = 0.0
        jac[0, 7] = (mu[0] - k.cx) / k.fx
        jac[1, 8] = (mu[1] - k.cy) / k.fy
        jac[0, 9] = jac[1, 10] = 1.0
        # X_i = ((u - cx) / (fx d), (v - cy) / (fy d), 1 / d): its derivative is
        # non-zero only in x along (fx, cx) and in y along (fy, cy).
        u = np.asarray(u, dtype=float)
        dx_dfx = -(u[0] - k.cx) / (k.fx**2 * d_safe)
        dx_dcx = -1.0 / (k.fx * d_safe)
        dy_dfy = -(u[1] - k.cy) / (k.fy**2 * d_safe)
        dy_dcy = -1.0 / (k.fy * d_safe)
        for seg, rot in zip(segments, rotations):
            # d(mu)/dX_i along x and y: d(mu)/dX_j @ R_ji, its first two columns.
            dmu_dx, dmu_dy = np.einsum("rk...,kc->cr...", d_mu_d_point[seg], rot[:, :2])
            jac[:, 7][seg] += dmu_dx * dx_dfx[seg]
            jac[:, 9][seg] += dmu_dx * dx_dcx[seg]
            jac[:, 8][seg] += dmu_dy * dy_dfy[seg]
            jac[:, 10][seg] += dmu_dy * dy_dcy[seg]
    return adjoint, jac, mu, valid
