import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.spatial.transform import Rotation

from semba.geometry import (Intrinsics, Pose, project, relative_pose, reproject,
                            reprojection_jacobian, se3_exp, unproject)
from shared import identity_pose, pose_matrix

K = Intrinsics(50.0, 52.0, 31.5, 23.5)

twists = st.lists(st.floats(-0.8, 0.8), min_size=6, max_size=6).map(np.array)

# The offsets of one edge over a single pixel, a (2, 1) batch.
ONE = (0, 1)


def random_pose(rng, scale=0.3):
    return se3_exp(rng.normal(0.0, scale, 6))


def jacobian(u, d, relative, bounds, columns=7):
    """reprojection_jacobian written into a fresh (2, columns, N) array:
    (adjoint, jac, mu, valid)."""
    jac = np.empty((2, columns, d.size))
    adjoint, mu, valid = reprojection_jacobian(u, d, relative, K, bounds, jac)
    return adjoint, jac, mu, valid


def twist_expm(twist):
    """The 4x4 matrix exponential of the twist [v; w], the oracle for se3_exp."""
    vx, vy, vz, wx, wy, wz = twist
    return expm(np.array([[0.0, -wz, wy, vx], [wz, 0.0, -wx, vy], [-wy, wx, 0.0, vz],
                          [0.0, 0.0, 0.0, 0.0]]))


class TestSe3:
    def test_zero_twist_is_identity(self):
        p = se3_exp(np.zeros(6))
        assert np.allclose(pose_matrix(p), np.eye(4), atol=1e-15)

    def test_pure_translation(self):
        p = se3_exp([1.0, 2.0, 3.0, 0.0, 0.0, 0.0])
        assert np.allclose(p.translation, [1.0, 2.0, 3.0])
        assert np.allclose(p.rotation_matrix(), np.eye(3), atol=1e-15)

    @given(twists)
    def test_exp_matches_matrix_exponential(self, twist):
        assert np.abs(pose_matrix(se3_exp(twist)) - twist_expm(twist)).max() < 1e-12

    def test_quaternion_normalized(self, rng):
        p = Pose(rng.normal(size=4), rng.normal(size=3))
        assert abs(np.linalg.norm(p.rotation) - 1.0) < 1e-9

    def test_compose_inverse_is_identity(self, rng):
        for _ in range(20):
            p = random_pose(rng)
            assert np.abs(pose_matrix(p.compose(p.inverse())) - np.eye(4)).max() < 1e-9

    def test_small_angle_series(self):
        twist = np.array([0.1, 0.2, 0.3, 1e-10, -2e-10, 1e-10])
        assert np.abs(pose_matrix(se3_exp(twist)) - twist_expm(twist)).max() < 1e-12

    def test_near_pi_matches_matrix_exponential(self, rng):
        for _ in range(20):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            omega = (np.pi - 2e-3) * axis
            twist = np.concatenate([rng.normal(0, 0.5, 3), omega])
            assert np.abs(pose_matrix(se3_exp(twist)) - twist_expm(twist)).max() < 1e-12


class TestClosedFormPose:
    """Pose arithmetic against scipy's Rotation as the oracle."""

    @staticmethod
    def unit_quaternion(rng):
        q = rng.normal(size=4)
        return q / np.linalg.norm(q)

    @staticmethod
    def assert_close(actual, expected):
        # Rotation entries to 1e-15; translations and points relative to their size.
        bound = 1e-15 * max(1.0, np.abs(expected).max())
        assert np.abs(actual - expected).max() <= bound

    def test_methods_match_rotation_oracle(self, rng):
        for _ in range(200):
            qa, qb = self.unit_quaternion(rng), self.unit_quaternion(rng)
            ta, tb, points = rng.normal(size=3), rng.normal(size=3), rng.normal(size=(5, 3))
            for sign in (1.0, -1.0):
                a, b = Pose(sign * qa, ta), Pose(qb, tb)
                r_a, r_b = Rotation.from_quat(sign * qa), Rotation.from_quat(qb)
                self.assert_close(a.rotation_matrix(), r_a.as_matrix())
                ab = a.compose(b)
                self.assert_close(ab.rotation_matrix(), (r_a * r_b).as_matrix())
                self.assert_close(ab.translation, r_a.apply(tb) + ta)
                inv = a.inverse()
                self.assert_close(inv.rotation_matrix(), r_a.inv().as_matrix())
                self.assert_close(inv.translation, -r_a.inv().apply(ta))
                self.assert_close(a.apply(points), r_a.apply(points) + ta)
                self.assert_close(a.apply(points[0]), r_a.apply(points[0]) + ta)
                self.assert_close(a.camera_center(), -r_a.inv().apply(ta))

    def test_q_and_minus_q_give_the_same_matrix(self, rng):
        for _ in range(50):
            q, t = self.unit_quaternion(rng), rng.normal(size=3)
            assert np.array_equal(pose_matrix(Pose(q, t)), pose_matrix(Pose(-q, t)))

    def test_quaternion_stored_as_given(self, rng):
        for _ in range(50):
            q = self.unit_quaternion(rng)
            pose = Pose(q, rng.normal(size=3))
            assert np.array_equal(pose.rotation, q)
            assert np.array_equal(pose.inverse().inverse().rotation, q)

    def test_rotation_matrix_is_built_once_and_read_only(self, rng):
        pose = Pose(self.unit_quaternion(rng), rng.normal(size=3))
        mat = pose.rotation_matrix()
        assert pose.rotation_matrix() is mat
        with pytest.raises(ValueError, match="read-only"):
            mat[0, 0] = 1.0

    def test_exp_matches_rotation_oracle(self, rng):
        for scale in (1e-5, 1e-3, 0.5, 2.0):
            for _ in range(50):
                omega = rng.normal(0.0, scale, 3)
                pose = se3_exp(np.concatenate([np.zeros(3), omega]))
                self.assert_close(pose.rotation_matrix(), Rotation.from_rotvec(omega).as_matrix())


class TestRelativePose:
    def test_equal_poses(self, rng):
        p = random_pose(rng)
        assert np.abs(pose_matrix(relative_pose(p, p)) - np.eye(4)).max() < 1e-12

    def test_identity_source(self, rng):
        p = random_pose(rng)
        rel = relative_pose(identity_pose(), p)
        assert np.abs(pose_matrix(rel) - pose_matrix(p)).max() < 1e-12

    def test_compose_recovers_target(self, rng):
        for _ in range(20):
            a, b = random_pose(rng), random_pose(rng)
            assert np.abs(pose_matrix(relative_pose(a, b).compose(a)) - pose_matrix(b)).max() < 1e-9


class TestReproject:
    def test_identity_relative_pose_fixes_pixels(self, rng):
        pose = random_pose(rng)
        u = rng.uniform(0, 60, size=(2, 40))
        d = rng.uniform(0.2, 2.0, size=40)
        mu, valid = reproject(u, d, [relative_pose(pose, pose)], K, (0, 40))
        assert valid.all()
        assert np.abs(mu - u).max() < 1e-9

    def test_forward_shift_puts_point_behind_camera(self):
        # Camera j is 1 m further along the optical axis; the point at Z=1
        # reaches Z=0 and must be flagged.
        t_i = identity_pose()
        t_j = Pose(np.array([0.0, 0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0]))
        _, valid = reproject(np.array([[K.cx], [K.cy]]), np.ones(1), [relative_pose(t_i, t_j)],
                             K, ONE)
        assert not valid[0]

    def test_zero_disparity_invalid(self):
        _, valid = reproject(np.array([[5.0], [5.0]]), np.zeros(1), [identity_pose()], K, ONE)
        assert not valid[0]

    def test_matches_chained_transform_oracle(self, rng):
        # Independent two-step composition: unproject in i, map i->world->j, project.
        for _ in range(50):
            t_i, t_j = random_pose(rng), random_pose(rng)
            u = rng.uniform(5, 55, size=(2, 1))
            d = rng.uniform(0.3, 1.5, size=1)
            point_i = unproject(u, d, K)[:, 0]
            world = t_i.inverse().apply(point_i)
            point_j = t_j.apply(world)
            if point_j[2] < 1e-3:
                continue
            expected = np.array([K.fx * point_j[0] / point_j[2] + K.cx,
                                 K.fy * point_j[1] / point_j[2] + K.cy])
            mu, valid = reproject(u, d, [relative_pose(t_i, t_j)], K, ONE)
            assert valid[0]
            assert np.abs(mu[:, 0] - expected).max() < 1e-9

    def test_world_gauge_invariance(self, rng):
        # Re-anchoring the world frame (both poses composed with the same
        # transform on the world side) must not move reprojections.
        for _ in range(20):
            t_i, t_j = random_pose(rng), random_pose(rng)
            gauge = random_pose(rng, scale=0.5)
            u = rng.uniform(5, 55, size=(2, 10))
            d = rng.uniform(0.3, 1.5, size=10)
            mu, valid = reproject(u, d, [relative_pose(t_i, t_j)], K, (0, 10))
            mu_g, valid_g = reproject(
                u, d, [relative_pose(t_i.compose(gauge), t_j.compose(gauge))], K, (0, 10))
            assert (valid == valid_g).all()
            assert np.abs(mu[:, valid] - mu_g[:, valid]).max() < 1e-9

    def test_component_major_batch_equals_row_major_chain_bitwise(self, rng):
        # Points rotate as R @ X on the (3, N) batch; that is bit for bit the
        # row-major X @ R^T, which keeps generated scenes byte-identical.
        relative = [relative_pose(random_pose(rng), random_pose(rng)) for _ in range(3)]
        bounds = np.array([0, 1200, 1200, 3072])
        u = rng.uniform(5, 55, size=(2, 3072))
        d = rng.uniform(0.3, 1.5, size=3072)
        mu, valid = reproject(u, d, relative, K, bounds)
        assert valid.sum() > 1000
        for rel, lo, hi in zip(relative, bounds[:-1], bounds[1:]):
            points_i = unproject(u[:, lo:hi], d[lo:hi], K).T
            points_j = points_i @ rel.rotation_matrix().T + rel.translation
            expected = project(points_j.T, K)
            ok = valid[lo:hi]
            assert mu[:, lo:hi][:, ok].tobytes() == expected[:, ok].tobytes()


def _fd_pose_jacobian(u, d, t_i, t_j, which, eps=1e-6):
    """Central differences of reproject at one pixel u (2, 1) with disparity d (1,)."""
    out = np.zeros((2, 6))
    for k in range(6):
        tw = np.zeros(6)
        tw[k] = eps
        args_p = (se3_exp(tw).compose(t_i), t_j) if which == "i" else (t_i, se3_exp(tw).compose(t_j))
        args_m = (se3_exp(-tw).compose(t_i), t_j) if which == "i" else (t_i, se3_exp(-tw).compose(t_j))
        mu_p, _ = reproject(u, d, [relative_pose(*args_p)], K, ONE)
        mu_m, _ = reproject(u, d, [relative_pose(*args_m)], K, ONE)
        out[:, k] = (mu_p - mu_m)[:, 0] / (2 * eps)
    return out


class TestReprojectionJacobian:
    def test_matches_finite_differences(self, rng):
        checked = 0
        worst = 0.0
        while checked < 100:
            t_i, t_j = random_pose(rng), random_pose(rng)
            u = rng.uniform(5, 55, size=(2, 1))
            d = rng.uniform(0.3, 1.5, size=1)
            adjoint, jac, _, valid = jacobian(u, d, [relative_pose(t_i, t_j)], ONE)
            if not valid[0]:
                continue
            checked += 1
            j_d, j_j = jac[:, 0, 0], jac[:, 1:, 0]
            fd_i = _fd_pose_jacobian(u, d, t_i, t_j, "i")
            fd_j = _fd_pose_jacobian(u, d, t_i, t_j, "j")
            mu_p, _ = reproject(u, d + 1e-6, [relative_pose(t_i, t_j)], K, ONE)
            mu_m, _ = reproject(u, d - 1e-6, [relative_pose(t_i, t_j)], K, ONE)
            fd_d = (mu_p - mu_m)[:, 0] / 2e-6
            for analytic, fd in ((-j_j @ adjoint[0], fd_i), (j_j, fd_j), (j_d, fd_d)):
                scale = max(np.abs(fd).max(), 1.0)
                worst = max(worst, np.abs(analytic - fd).max() / scale)
        assert worst < 1e-4, f"worst {worst:.2e}"

    def test_equal_poses_antisymmetry(self, rng):
        pose = random_pose(rng)
        u = rng.uniform(5, 55, size=(2, 20))
        d = rng.uniform(0.3, 1.5, size=20)
        adjoint, jac, _, valid = jacobian(u, d, [relative_pose(pose, pose)], (0, 20))
        assert valid.all()
        j_j = np.moveaxis(jac, -1, 0)[..., 1:]
        # The pose-i and pose-j derivatives cancel: Ad(T_ji) = I for T_ji = I.
        assert np.abs(-j_j @ adjoint[0] + j_j).max() < 1e-9
        assert np.abs(adjoint[0] - np.eye(6)).max() < 1e-9

    def test_pure_rotation_flow_is_depth_independent(self, rng):
        t_i = random_pose(rng)
        rot_only = se3_exp([0.0, 0.0, 0.0, 0.05, -0.04, 0.08])
        t_j = rot_only.compose(t_i)
        u = rng.uniform(5, 55, size=(2, 20))
        d = rng.uniform(0.3, 1.5, size=20)
        _, jac, _, valid = jacobian(u, d, [relative_pose(t_i, t_j)], (0, 20))
        assert np.abs(jac[:, 0, valid]).max() < 1e-9

    def test_intrinsics_jacobian_matches_fd(self, rng):
        worst = 0.0
        for _ in range(50):
            t_i, t_j = random_pose(rng), random_pose(rng)
            u = rng.uniform(5, 55, size=(2, 1))
            d = rng.uniform(0.3, 1.5, size=1)
            _, jac, _, valid = jacobian(u, d, [relative_pose(t_i, t_j)], ONE, columns=11)
            if not valid[0]:
                continue
            jk = jac[:, 7:, 0]
            fd = np.zeros((2, 4))
            base = K.as_array()
            for p in range(4):
                step = np.zeros(4)
                step[p] = 1e-5
                rel = [relative_pose(t_i, t_j)]
                mu_p, _ = reproject(u, d, rel, Intrinsics.from_array(base + step), ONE)
                mu_m, _ = reproject(u, d, rel, Intrinsics.from_array(base - step), ONE)
                fd[:, p] = (mu_p - mu_m)[:, 0] / 2e-5
            worst = max(worst, np.abs(jk - fd).max() / max(np.abs(fd).max(), 1.0))
        assert worst < 1e-4

    def test_intrinsics_columns_extend_the_batch_jacobian(self, rng):
        # Three edges of one source frame, the middle one without pixels.
        relative = [relative_pose(random_pose(rng), random_pose(rng)) for _ in range(3)]
        bounds = np.array([0, 17, 17, 40])
        u = rng.uniform(5, 55, size=(2, 40))
        d = rng.uniform(0.3, 1.5, size=40)
        adjoint, jac, mu, valid = jacobian(u, d, relative, bounds)
        adjoint_k, jac_k, mu_k, valid_k = jacobian(u, d, relative, bounds, columns=11)
        assert jac.shape == (2, 7, 40) and jac_k.shape == (2, 11, 40)
        for same, ref in ((adjoint_k, adjoint), (jac_k[:, :7], jac), (mu_k, mu),
                          (valid_k, valid)):
            assert same.tobytes() == ref.tobytes()
        assert valid.sum() > 20
        fd = np.zeros((2, 4, 40))
        base = K.as_array()
        for p in range(4):
            step = np.zeros(4)
            step[p] = 1e-5
            mu_p, _ = reproject(u, d, relative, Intrinsics.from_array(base + step), bounds)
            mu_m, _ = reproject(u, d, relative, Intrinsics.from_array(base - step), bounds)
            fd[:, p] = (mu_p - mu_m) / 2e-5
        worst = max(np.abs(jac_k[:, 7:, n] - fd[..., n]).max()
                    / max(np.abs(fd[..., n]).max(), 1.0) for n in np.flatnonzero(valid))
        assert worst < 1e-4

    @pytest.mark.parametrize("columns", [7, 11], ids=["pose", "intrinsics"])
    def test_out_matches_own_allocation(self, rng, columns):
        # Written into rows of a larger stack, the Jacobian is the one written into
        # an array of its own, bit for bit, and every entry of out is written.
        relative = [relative_pose(random_pose(rng), random_pose(rng)) for _ in range(3)]
        bounds = np.array([0, 17, 17, 40])
        u = rng.uniform(5, 55, size=(2, 40))
        d = rng.uniform(-0.2, 1.5, size=40)
        adjoint, jac, mu, valid = jacobian(u, d, relative, bounds, columns)
        assert not valid.all()
        stack = np.full((3, columns, 40), np.nan)
        adjoint_o, mu_o, valid_o = reprojection_jacobian(u, d, relative, K, bounds, stack[:2])
        for same, ref in ((stack[:2], jac), (adjoint_o, adjoint), (mu_o, mu),
                          (valid_o, valid)):
            assert same.tobytes() == ref.tobytes()
        assert np.isfinite(stack[:2]).all()
        assert np.isnan(stack[2]).all()


class TestIntrinsics:
    def test_positive_focal_required(self):
        with pytest.raises(ValueError):
            Intrinsics(-1.0, 1.0, 0.0, 0.0)

    def test_array_roundtrip(self):
        k = Intrinsics.from_array(K.as_array())
        assert np.array_equal(k.as_array(), K.as_array())
