import numpy as np
import pytest

from semba.features import bilinear_sample
from semba.geometry import Intrinsics, Pose, reproject, se3_exp
from semba.graph import Keyframe, KeyframeGraph
from semba.residuals import (FlowObservation, RegConfig, disparity_reg_residual, evaluate_edge,
                             grid_pixels, total_energy)
from semba.robust import KernelConfig, adaptive_alpha, barron_rho, irls_weight
from semba.solver import SolverConfig, assemble, kernel_alphas
from semba.synthscene import SceneConfig, gen_scene

K = Intrinsics(40.0, 42.0, 15.5, 11.5)


def smooth_map(rng, c=6, h=24, w=32, offset=2.0):
    m = rng.normal(size=(c, h, w))
    for _ in range(6):
        m = 0.5 * m + 0.25 * (np.roll(m, 1, 1) + np.roll(m, -1, 1))
        m = 0.5 * m + 0.25 * (np.roll(m, 1, 2) + np.roll(m, -1, 2))
    return m + offset


def edge_eval(z_i, z_j, disparity, pose_i, pose_j, intr=K, flow=None, **kwargs):
    """evaluate_edge on an edge 0 -> 1 whose keyframes share one disparity map, unit confidence."""
    h, w = disparity.shape
    kf_i = Keyframe(index=0, pose=pose_i, disparity=disparity, disparity_prior=disparity,
                    features=z_i)
    kf_j = Keyframe(index=1, pose=pose_j, disparity=disparity, disparity_prior=disparity,
                    features=z_j)
    obs = FlowObservation(i=0, j=1, flow=np.zeros((2, h, w)) if flow is None else flow,
                          confidence=np.ones((h, w)))
    return evaluate_edge(kf_i, kf_j, obs, intr, **kwargs)


def central_differences(evaluate, n_steps, eps=1e-6):
    """Central differences of r_flow and r_embed along n_steps perturbations.

    evaluate(k, h) is the EdgeEvaluation with perturbation k scaled by h. Returns
    (d r_flow (N, 2, n_steps), d r_embed (N, n_steps), pixels whose flow term is
    valid at every evaluation, the same for the embedding term).
    """
    d_flow, d_embed = [], []
    ok_flow = ok_embed = True
    for k in range(n_steps):
        plus, minus = evaluate(k, eps), evaluate(k, -eps)
        d_flow.append((plus.r_flow - minus.r_flow) / (2 * eps))
        d_embed.append((plus.r_embed - minus.r_embed) / (2 * eps))
        ok_flow = ok_flow & plus.valid_flow & minus.valid_flow
        ok_embed = ok_embed & plus.valid_embed & minus.valid_embed
    return np.stack(d_flow, axis=-1), np.stack(d_embed, axis=-1), ok_flow, ok_embed


def off_grid_lines(disparity, pose_i, pose_j, intr=K, margin=1e-3):
    """Pixels whose reprojection lies at least margin px from every grid line.

    Bilinear sampling has kinks on the grid lines, so a central difference
    whose stencil straddles one measures no derivative there.
    """
    h, w = disparity.shape
    mu, _ = reproject(grid_pixels(h, w), disparity.reshape(-1), pose_i, pose_j, intr)
    return (np.abs(mu - np.round(mu)) >= margin).all(axis=1)


def block_error(analytic, fd, floor):
    """Per-pixel max |analytic - fd| over one Jacobian block, relative to max(|fd|, floor)."""
    analytic = analytic.reshape(analytic.shape[0], -1)
    fd = fd.reshape(fd.shape[0], -1)
    scale = np.maximum(np.abs(fd).max(axis=1), floor)
    return np.abs(analytic - fd).max(axis=1) / scale


class TestFlowResidual:
    def test_zero_on_self_consistent_scene(self, clean_bundle):
        g = clean_bundle.to_graph(initial=False)
        for obs in g.edges:
            kf_i, kf_j = g.keyframes[obs.i], g.keyframes[obs.j]
            ev = evaluate_edge(kf_i, kf_j, obs, clean_bundle.intrinsics,
                               need_similarity=False, need_embedding=False)
            used = ev.valid_flow & (ev.confidence > 0)
            assert np.abs(ev.r_flow[used]).max() < 1e-9

    def test_identity_poses_zero_flow(self, rng):
        h, w = 10, 12
        d = rng.uniform(0.3, 1.0, size=(h, w))
        z = np.ones((1, h, w))
        ev = edge_eval(z, z, d, Pose.identity(), Pose.identity())
        assert ev.valid_flow.all()
        assert np.abs(ev.r_flow).max() < 1e-12

    def test_disparity_perturbation_grows_linearly(self):
        t_i = se3_exp([0.01, -0.02, 0.0, 0.005, 0.0, -0.004])
        t_j = se3_exp([-0.03, 0.01, 0.02, 0.0, 0.006, 0.0])
        u = np.array([8.0, 7.0])
        d = 0.5
        mu, _ = reproject(u, d, t_i, t_j, K)
        h, w = 16, 20
        flow = np.zeros((2, h, w))
        flow[0, 7, 8] = mu[0] - u[0]
        flow[1, 7, 8] = mu[1] - u[1]
        z = np.ones((1, h, w))
        p = 7 * w + 8
        ev = edge_eval(z, z, np.full((h, w), d), t_i, t_j, flow=flow, with_jacobians=True)
        slope = np.linalg.norm(ev.jf_disp[p])
        for delta in (1e-5, 1e-4, 1e-3):
            ev = edge_eval(z, z, np.full((h, w), d + delta), t_i, t_j, flow=flow)
            assert ev.valid_flow[p]
            assert np.linalg.norm(ev.r_flow[p]) == pytest.approx(slope * delta, rel=5e-2)

    def test_validation(self):
        with pytest.raises(ValueError, match="self-edge"):
            FlowObservation(i=1, j=1, flow=np.zeros((2, 4, 4)), confidence=np.ones((4, 4)))
        with pytest.raises(ValueError, match="confidence"):
            FlowObservation(i=0, j=1, flow=np.zeros((2, 4, 4)), confidence=-np.ones((4, 4)))


class TestEmbeddingResidual:
    def test_warped_copy_gives_unit_similarity(self, clean_bundle):
        g = clean_bundle.to_graph(initial=False)
        for obs in g.edges[:4]:
            kf_i, kf_j = g.keyframes[obs.i], g.keyframes[obs.j]
            ev = evaluate_edge(kf_i, kf_j, obs, clean_bundle.intrinsics)
            used = ev.valid_embed & (ev.confidence > 0)
            assert used.any()
            assert np.abs(ev.cs[used] - 1.0).max() < 1e-6
            assert np.abs(ev.r_embed[used]).max() < 1e-6

    # Constant maps under identity poses: every pixel reprojects onto itself.
    def test_orthogonal_embeddings_photometric(self):
        h, w = 8, 8
        z_i = np.zeros((2, h, w)); z_i[0] = 1.0
        z_j = np.zeros((2, h, w)); z_j[1] = 1.0
        ev = edge_eval(z_i, z_j, np.full((h, w), 0.5), Pose.identity(), Pose.identity())
        assert ev.valid_embed.all()
        assert ev.cs == pytest.approx(0.0, abs=1e-12)
        assert ev.r_embed == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-9)

    def test_invariant_to_positive_rescaling(self, rng):
        z_i = smooth_map(rng)
        z_j = smooth_map(rng)
        args = (np.full((24, 32), 0.4), Pose.identity(), se3_exp([0.02, 0, 0, 0, 0, 0]))
        ev0 = edge_eval(z_i, z_j, *args)
        ev1 = edge_eval(3.7 * z_i, 0.02 * z_j, *args)
        assert ev0.valid_embed.any()
        assert np.array_equal(ev1.valid_embed, ev0.valid_embed)
        assert ev1.cs == pytest.approx(ev0.cs, abs=1e-12)
        assert ev1.r_embed == pytest.approx(ev0.r_embed, abs=1e-12)

    def test_zero_norm_embedding_invalid(self):
        h, w = 8, 8
        z_i = np.zeros((2, h, w))
        z_j = np.ones((2, h, w))
        ev = edge_eval(z_i, z_j, np.full((h, w), 0.5), Pose.identity(), Pose.identity())
        assert not ev.valid_embed.any()


class TestEmbeddingJacobian:
    # One residual form; the parametrization keeps the suite's test id.
    @pytest.mark.parametrize("mode", ["photometric"])
    def test_matches_finite_differences(self, mode, rng):
        checked = 0
        worst = 0.0
        while checked < 100:
            z_i, z_j = smooth_map(rng), smooth_map(rng)
            t_i = se3_exp(rng.normal(0, 0.05, 6))
            t_j = se3_exp(rng.normal(0, 0.05, 6))
            d = rng.uniform(0.3, 1.2, size=(24, 32))
            ev = edge_eval(z_i, z_j, d, t_i, t_j, with_jacobians=True)
            _, fd_i, _, ok_i = central_differences(
                lambda k, h: edge_eval(z_i, z_j, d, se3_exp(h * np.eye(6)[k]).compose(t_i),
                                       t_j), 6)
            _, fd_j, _, ok_j = central_differences(
                lambda k, h: edge_eval(z_i, z_j, d, t_i,
                                       se3_exp(h * np.eye(6)[k]).compose(t_j)), 6)
            _, fd_d, _, ok_d = central_differences(
                lambda k, h: edge_eval(z_i, z_j, d + h, t_i, t_j), 1)
            used = (ev.valid_embed & (ev.r_embed >= 1e-3) & ok_i & ok_j & ok_d
                    & off_grid_lines(d, t_i, t_j))
            checked += int(used.sum())
            for analytic, fd in ((ev.je_pose_i, fd_i), (ev.je_pose_j, fd_j),
                                 (ev.je_disp, fd_d)):
                worst = max(worst, block_error(analytic[used], fd[used], 1e-3).max())
        assert worst < 1e-4

    @pytest.mark.parametrize("mode", ["photometric"])
    def test_intrinsics_jacobians_match_finite_differences(self, mode, rng):
        worst_flow = worst_embed = 0.0
        for _ in range(4):
            z_i, z_j = smooth_map(rng), smooth_map(rng)
            t_i = se3_exp(rng.normal(0, 0.05, 6))
            t_j = se3_exp(rng.normal(0, 0.05, 6))
            d = rng.uniform(0.3, 1.2, size=(24, 32))
            ev = edge_eval(z_i, z_j, d, t_i, t_j, with_jacobians=True, with_intrinsics=True)
            base = K.as_array()
            fd_f, fd_e, ok_f, ok_e = central_differences(
                lambda k, h: edge_eval(z_i, z_j, d, t_i, t_j,
                                       intr=Intrinsics.from_array(base + h * np.eye(4)[k])), 4)
            used_f = ev.valid_flow & ok_f
            used_e = ev.valid_embed & (ev.r_embed >= 1e-3) & ok_e & off_grid_lines(d, t_i, t_j)
            assert used_f.sum() >= 100 and used_e.sum() >= 100
            worst_flow = max(worst_flow, block_error(ev.jf_intr[used_f], fd_f[used_f], 1.0).max())
            worst_embed = max(worst_embed,
                              block_error(ev.je_intr[used_e], fd_e[used_e], 1e-3).max())
        assert worst_flow < 1e-4
        assert worst_embed < 1e-4

    def test_constant_target_field_zeroes_jacobians(self, rng):
        z_i = smooth_map(rng)
        z_j = np.ones_like(z_i) * np.arange(1, 7)[:, None, None]
        ev = edge_eval(z_i, z_j, np.full((24, 32), 0.5), Pose.identity(),
                       se3_exp([0.02, 0, 0, 0, 0, 0]), with_jacobians=True)
        valid = ev.valid_embed
        assert valid.any()
        assert np.abs(ev.je_pose_i[valid]).max() < 1e-12
        assert np.abs(ev.je_pose_j[valid]).max() < 1e-12
        assert np.abs(ev.je_disp[valid]).max() < 1e-12

    def test_directional_derivative_sign(self, rng):
        d = np.full((24, 32), 0.5)
        checked = 0
        while checked < 10:
            z_i, z_j = smooth_map(rng), smooth_map(rng)
            t_j = se3_exp(rng.normal(0, 0.05, 6))
            ev = edge_eval(z_i, z_j, d, Pose.identity(), t_j, with_jacobians=True)
            norms = np.linalg.norm(ev.je_pose_i, axis=1)
            candidates = np.flatnonzero(ev.valid_embed & (norms >= 1e-6))
            for p in rng.permutation(candidates)[:10 - checked]:
                checked += 1
                direction = ev.je_pose_i[p] / norms[p]
                eps = 1e-6
                rp = edge_eval(z_i, z_j, d, se3_exp(eps * direction), t_j).r_embed[p]
                rm = edge_eval(z_i, z_j, d, se3_exp(-eps * direction), t_j).r_embed[p]
                assert (rp - rm) > 0  # moving along the gradient increases the residual


class TestDisparityReg:
    def test_zero_at_prior(self, rng):
        d = rng.uniform(0.2, 1.0, size=(6, 8))
        res, valid = disparity_reg_residual(d, d)
        assert valid.all()
        assert np.abs(res).max() == 0.0

    def test_quarter_offset(self):
        d = np.array([[0.75]])
        prior = np.array([[0.5]])
        res, valid = disparity_reg_residual(d, prior, RegConfig(alpha_disp=1.0))
        assert valid.all()
        assert res[0, 0] == pytest.approx(0.25)
        assert res[0, 0] ** 2 == pytest.approx(0.0625)

    def test_zero_weight_vanishes(self, rng):
        d = rng.uniform(0.2, 1.0, size=(4, 4))
        res, _ = disparity_reg_residual(d, d + 0.3, RegConfig(alpha_disp=0.0))
        assert np.abs(res).max() == 0.0

    def test_invalid_prior_excluded(self):
        d = np.array([[0.5, 0.5]])
        prior = np.array([[0.0, 0.25]])
        res, valid = disparity_reg_residual(d, prior)
        assert not valid[0, 0] and valid[0, 1]
        assert res[0, 0] == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            disparity_reg_residual(np.zeros((2, 2)), np.zeros((3, 2)))


class TestTotalEnergy:
    def test_zero_at_ground_truth(self, clean_bundle):
        graph = clean_bundle.to_graph(initial=False)
        config = SolverConfig()
        e = total_energy(graph, config, kernel_alphas(graph, config))
        assert e.total <= 1e-9
        assert e.photo_ark <= 1e-9 and e.embed <= 1e-9 and e.reg == 0.0

    def test_single_edge_toy_matches_scalar_resummation(self, rng):
        # 2 poses, 2x2 grid: recompute every term pixel by pixel with the
        # scalar public ops and plain Python sums.
        h = w = 2
        cfg = SceneConfig(num_keyframes=2, height=8, width=8, seed=3)
        bundle = gen_scene(cfg)
        kf_i, kf_j = (bundle.to_graph(initial=False).keyframes[k] for k in (0, 1))
        # Shrink to a 2x2 window to keep the hand summation tiny.
        sl = (slice(0, h), slice(0, w))
        import dataclasses
        kf_i = dataclasses.replace(kf_i, disparity=kf_i.disparity[sl],
                                   disparity_prior=kf_i.disparity_prior[sl] + 0.05,
                                   features=kf_i.features[:, sl[0], sl[1]])
        # The oracle's target features are exact warps, which would leave the
        # embedding energy at 0; perturb them so its resummation is checked.
        z_j = kf_j.features[:, sl[0], sl[1]]
        kf_j = dataclasses.replace(kf_j, disparity=kf_j.disparity[sl],
                                   disparity_prior=kf_j.disparity_prior[sl],
                                   features=z_j + rng.normal(0, 0.5, size=z_j.shape))
        flow = rng.normal(0, 0.5, size=(2, h, w))
        conf = rng.uniform(0.2, 1.0, size=(h, w))
        obs = FlowObservation(i=0, j=1, flow=flow, confidence=conf)

        graph = KeyframeGraph(keyframes=[kf_i, kf_j], edges=[obs],
                              intrinsics=bundle.intrinsics)
        kernel = KernelConfig()
        config = SolverConfig(kernel=kernel, lambda_embed=1.3)
        got = total_energy(graph, config, kernel_alphas(graph, config))

        e_photo = 0.0
        e_embed = 0.0
        for y in range(h):
            for x in range(w):
                u = np.array([float(x), float(y)])
                mu, ok = reproject(u, kf_i.disparity[y, x], kf_i.pose, kf_j.pose,
                                   bundle.intrinsics)
                ok = ok and -1e-9 <= mu[0] <= w - 1 + 1e-9 and -1e-9 <= mu[1] <= h - 1 + 1e-9
                r = (mu - u) - flow[:, y, x]
                z_src = kf_i.features[:, y, x]
                z_smp, _, _ = bilinear_sample(kf_j.features, mu)
                norms = np.linalg.norm(z_src) * np.linalg.norm(z_smp)
                ok_e = ok and np.linalg.norm(z_src) > 1e-8 and np.linalg.norm(z_smp) > 1e-8
                cs = min(float(z_src @ z_smp) / norms, 1.0) if ok_e else 0.0
                re = 2.0 * np.sqrt(2.0 * (1.0 - cs))
                alpha = adaptive_alpha(cs, kernel) if ok_e else kernel.alpha_static
                if ok:
                    e_photo += conf[y, x] * barron_rho(np.linalg.norm(r), alpha, kernel.c)
                if ok_e:
                    e_embed += conf[y, x] * re**2
        e_reg = 0.0
        for kf in (kf_i, kf_j):
            for y in range(h):
                for x in range(w):
                    if kf.disparity_prior[y, x] > 0:
                        e_reg += (kf.disparity[y, x] - kf.disparity_prior[y, x]) ** 2
        expected = e_photo + 1.3 * e_embed + e_reg
        assert got.embed > 0.0
        assert got.total == pytest.approx(expected, abs=1e-9)
        assert got.photo_ark == pytest.approx(e_photo, abs=1e-9)
        assert got.embed == pytest.approx(e_embed, abs=1e-9)
        assert got.reg == pytest.approx(e_reg, abs=1e-9)


class TestInvalidPixels:
    def test_geometric_failures_contribute_nothing(self, rng):
        # Zero-disparity, behind-camera and out-of-bounds pixels next to live
        # ones: their confidence must not reach the energies or the normal
        # equations.
        h, w = 24, 32
        disparity = np.full((h, w), 0.5)
        disparity[0, 0] = 0.0                      # zero disparity
        disparity[10:12, 10:12] = 4.0              # depth 0.25 ends up behind camera j
        pose_j = se3_exp([0.05, 0.0, -0.5, 0.0, 0.0, 0.0])  # zooms the borders out of bounds
        kf_i = Keyframe(index=0, pose=Pose.identity(), disparity=disparity,
                        disparity_prior=disparity, features=smooth_map(rng, h=h, w=w))
        kf_j = Keyframe(index=1, pose=pose_j, disparity=disparity,
                        disparity_prior=disparity, features=smooth_map(rng, h=h, w=w))
        obs = FlowObservation(i=0, j=1, flow=rng.normal(0, 0.5, size=(2, h, w)),
                              confidence=rng.uniform(0.2, 1.0, size=(h, w)))
        ev = evaluate_edge(kf_i, kf_j, obs, K, with_jacobians=True)
        dead = ~ev.valid_flow
        _, geometric_ok = reproject(grid_pixels(h, w), disparity.reshape(-1), kf_i.pose,
                                    pose_j, K)
        assert ev.valid_flow.any()
        assert dead[0] and (~geometric_ok).sum() == 5 and (dead & geometric_ok).any()
        assert not ev.valid_embed[dead].any()
        assert np.abs(ev.r_flow[dead]).max() == 0.0
        assert np.abs(ev.r_embed[dead]).max() == 0.0

        muted = obs.confidence.copy()
        muted[dead.reshape(h, w)] = 0.0
        config = SolverConfig()
        graph = KeyframeGraph(keyframes=[kf_i, kf_j], edges=[obs], intrinsics=K)
        graph_muted = KeyframeGraph(
            keyframes=[kf_i, kf_j], intrinsics=K,
            edges=[FlowObservation(i=0, j=1, flow=obs.flow, confidence=muted)])
        ne = assemble(graph, config, kernel_alphas(graph, config))
        ne_muted = assemble(graph_muted, config, kernel_alphas(graph_muted, config))
        for name in ("pose_h", "pose_g", "coupling", "disp_h", "disp_g"):
            assert np.array_equal(getattr(ne, name), getattr(ne_muted, name)), name
        assert ne.energies == ne_muted.energies

    def test_zero_norm_embedding_keeps_flow_term(self, rng):
        h, w = 6, 8
        features_i = smooth_map(rng, c=3, h=h, w=w)
        features_i[:, 2, 3] = 0.0  # degenerate embedding at one pixel
        features_j = smooth_map(rng, c=3, h=h, w=w)
        disparity = np.full((h, w), 0.5)
        kf_i = Keyframe(index=0, pose=Pose.identity(), disparity=disparity,
                        disparity_prior=disparity, features=features_i)
        kf_j = Keyframe(index=1, pose=se3_exp([0.01, 0, 0, 0, 0, 0]), disparity=disparity,
                        disparity_prior=disparity, features=features_j)
        obs = FlowObservation(i=0, j=1, flow=np.zeros((2, h, w)), confidence=np.ones((h, w)))
        ev = evaluate_edge(kf_i, kf_j, obs, K)
        p = 2 * w + 3
        assert ev.valid_flow[p]
        assert not ev.valid_embed[p]
        assert ev.r_embed[p] == 0.0


class TestWeights:
    def test_folded_weight_matches_manual_product(self, rng):
        conf = rng.uniform(0, 1, size=50)
        r = rng.uniform(0, 4, size=50)
        alpha = rng.uniform(-2, 2, size=50)
        w = conf * irls_weight(r, alpha, 1.0)
        manual = conf * (r**2 / np.abs(alpha - 2.0) + 1.0) ** (alpha / 2.0 - 1.0)
        assert np.all(w >= 0.0)
        assert w == pytest.approx(manual, rel=1e-12, abs=0.0)
