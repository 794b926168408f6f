import numpy as np
import pytest

from semba import geometry
from semba.features import bilinear_sample
from semba.geometry import Intrinsics, relative_pose, reproject, se3_exp
from semba.graph import Keyframe, KeyframeGraph
from semba.residuals import (ALPHA_DISP, EdgeEvaluation, FlowObservation, edge_weights,
                             grid_pixels, prior_terms, total_energy)
from semba.robust import ALPHA_STATIC, adaptive_alpha, barron_rho
from semba.solver import ProblemLayout, SolverConfig, assemble, kernel_alphas, retract
from semba.synthscene import SceneConfig, gen_scene
from shared import (K, assemble_own, central_differences, dense_system, edge_eval, energy_own,
                    evaluate, identity_pose, off_grid_lines, smooth_map)


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
            ev = evaluate(g, [obs], need_similarity=False, need_embedding=False)
            used = ev.valid_flow & (ev.confidence > 0)
            assert np.abs(ev.residual[:2, used]).max() < 1e-9

    def test_identity_poses_zero_flow(self, rng):
        h, w = 10, 12
        d = rng.uniform(0.3, 1.0, size=(h, w))
        z = np.ones((1, h, w))
        ev = edge_eval(z, z, d, identity_pose(), identity_pose())
        assert ev.valid_flow.all()
        assert np.abs(ev.residual[:2]).max() < 1e-12

    def test_disparity_perturbation_grows_linearly(self):
        t_i = se3_exp([0.01, -0.02, 0.0, 0.005, 0.0, -0.004])
        t_j = se3_exp([-0.03, 0.01, 0.02, 0.0, 0.006, 0.0])
        u = np.array([8.0, 7.0])
        d = 0.5
        mu, _ = reproject(u[:, None], np.full(1, d), [relative_pose(t_i, t_j)], K, (0, 1))
        h, w = 16, 20
        flow = np.zeros((2, h, w))
        flow[0, 7, 8] = mu[0, 0] - u[0]
        flow[1, 7, 8] = mu[1, 0] - u[1]
        z = np.ones((1, h, w))
        p = 7 * w + 8
        ev = edge_eval(z, z, np.full((h, w), d), t_i, t_j, flow=flow, with_jacobians=True)
        slope = np.linalg.norm(ev.jac[:2, 0, p])
        for delta in (1e-5, 1e-4, 1e-3):
            ev = edge_eval(z, z, np.full((h, w), d + delta), t_i, t_j, flow=flow)
            assert ev.valid_flow[p]
            assert np.linalg.norm(ev.residual[:2, p]) == pytest.approx(slope * delta, rel=5e-2)

    def test_validation(self):
        with pytest.raises(ValueError, match="self-edge"):
            FlowObservation(i=1, j=1, flow=np.zeros((2, 4, 4)), confidence=np.ones((4, 4)))
        with pytest.raises(ValueError, match="confidence"):
            FlowObservation(i=0, j=1, flow=np.zeros((2, 4, 4)), confidence=-np.ones((4, 4)))

    @pytest.mark.parametrize("value", [-0.5, np.nan, np.inf], ids=["negative", "nan", "inf"])
    def test_bad_confidence_names_edge_and_pixel(self, value):
        confidence = np.ones((4, 5))
        confidence[2, 3:] = value
        with pytest.raises(ValueError, match=r"^edge \(3, 1\): confidence is not finite and "
                                             r"non-negative at pixel index 13$"):
            FlowObservation(i=3, j=1, flow=np.zeros((2, 4, 5)), confidence=confidence)

    def test_strided_flow_is_stored_contiguous(self):
        flow = np.arange(24.0).reshape(12, 2).T.reshape(2, 3, 4)  # (N, 2) rows seen as (2, H, W)
        assert not flow.flags.c_contiguous
        confidence = np.ones((3, 4))
        confidence[1, 1:3] = 0.0
        obs = FlowObservation(i=0, j=1, flow=flow, confidence=confidence)
        assert obs.grid_shape == (3, 4)
        assert np.array_equal(obs.pixels, [0, 1, 2, 3, 4, 7, 8, 9, 10, 11])
        assert obs.target.flags.c_contiguous
        assert np.array_equal(obs.target, flow.reshape(2, -1)[:, obs.pixels].T)
        assert np.array_equal(obs.confidence, confidence.reshape(-1)[obs.pixels])

    def test_non_finite_flow_rejected_even_without_confidence(self):
        # An unconfident pixel is never evaluated, so a bad flow there would
        # otherwise go unnoticed.
        flow = np.zeros((2, 4, 4))
        flow[1, 2, 3] = np.nan
        confidence = np.ones((4, 4))
        confidence[2, 3] = 0.0
        with pytest.raises(ValueError, match=r"edge \(2, 0\): flow is not finite at pixel "
                                             r"index 11$"):
            FlowObservation(i=2, j=0, flow=flow, confidence=confidence)


class TestSupport:
    def test_compact_rows_equal_full_grid_rows(self):
        # The benchmark's dyn-k8 scene, where about a quarter of each edge's
        # pixels is confident: every support row must be bitwise the row of the
        # same grid pixel in a full-grid evaluation.
        bundle = gen_scene(SceneConfig(num_keyframes=8, height=48, width=64,
                                       dynamic_fraction=0.2, pose_sigma=0.01, seed=1009))
        graph = bundle.to_graph(initial=True)
        h, w = graph.grid_shape
        for obs, flow, confidence in zip(graph.edges[:4], bundle.flows, bundle.confidences):
            full_obs = FlowObservation(i=obs.i, j=obs.j, flow=flow, confidence=np.ones((h, w)))
            assert np.array_equal(obs.pixels, np.flatnonzero(confidence > 0))
            assert 0 < obs.pixels.size < h * w / 2
            for mode in ({"with_jacobians": True},
                         {"need_similarity": True, "need_embedding": False}):
                ev = evaluate(graph, [obs], **mode)
                full = evaluate(graph, [full_obs], **mode)
                assert np.array_equal(ev.pixels, obs.pixels)
                assert np.array_equal(ev.confidence, confidence.reshape(-1)[ev.pixels])
                for name in ("residual", "valid_flow", "cs", "valid_embed", "jac"):
                    got, ref = getattr(ev, name), getattr(full, name)
                    if ref is None:
                        assert got is None, name
                    else:
                        assert np.array_equal(got, ref[..., ev.pixels]), name


# Modes of the solver's passes: trial energy, similarity only, Jacobians, and
# Jacobians with the intrinsics columns.
BATCH_MODES = [{"need_similarity": False}, {"need_similarity": True, "need_embedding": False},
               {"with_jacobians": True}, {"with_jacobians": True, "with_intrinsics": True}]


class TestBatch:
    @pytest.mark.parametrize("mode", BATCH_MODES, ids=["value", "sim", "jac", "jac-intrinsics"])
    def test_stacked_rows_equal_single_edge_rows(self, dynamic_bundle, mode):
        graph = dynamic_bundle.to_graph(initial=True)
        edges = graph.edge_groups()[2]
        assert [(obs.i, obs.j) for obs in edges] == [(2, 0), (2, 1), (2, 3), (2, 4)]
        ev = evaluate(graph, edges, **mode)
        sizes = [obs.pixels.size for obs in edges]
        assert np.array_equal(ev.bounds, np.concatenate([[0], np.cumsum(sizes)]))
        assert len(set(sizes)) > 1  # the supports differ in size
        for e, obs in enumerate(edges):
            alone = evaluate(graph, [obs], **mode)
            rows = slice(ev.bounds[e], ev.bounds[e + 1])
            assert np.array_equal(alone.bounds, [0, obs.pixels.size])
            assert np.array_equal(ev.pixels[rows], obs.pixels)
            for name in ("confidence", "residual", "valid_flow", "cs", "valid_embed", "jac"):
                got, ref = getattr(ev, name), getattr(alone, name)
                if ref is None:
                    assert got is None, name
                else:
                    assert np.array_equal(got[..., rows], ref), name
            if ev.adjoint is not None:
                assert np.array_equal(ev.adjoint[e], alone.adjoint[0])

    def test_mixed_sources_rejected(self, dynamic_bundle):
        graph = dynamic_bundle.to_graph(initial=True)
        edges = [graph.edge_groups()[1][0], graph.edge_groups()[2][1]]
        with pytest.raises(ValueError, match=r"^edge \(2, 1\) does not start at keyframe 1"):
            evaluate(graph, edges)


class TestEmbeddingResidual:
    def test_warped_copy_gives_unit_similarity(self, clean_bundle):
        g = clean_bundle.to_graph(initial=False)
        for obs in g.edges[:4]:
            ev = evaluate(g, [obs])
            used = ev.valid_embed & (ev.confidence > 0)
            assert used.any()
            assert np.abs(ev.cs[used] - 1.0).max() < 1e-6
            assert np.abs(ev.residual[2, used]).max() < 1e-6

    # Constant maps under identity poses: every pixel reprojects onto itself.
    def test_orthogonal_embeddings_photometric(self):
        h, w = 8, 8
        z_i = np.zeros((2, h, w)); z_i[0] = 1.0
        z_j = np.zeros((2, h, w)); z_j[1] = 1.0
        ev = edge_eval(z_i, z_j, np.full((h, w), 0.5), identity_pose(), identity_pose())
        assert ev.valid_embed.all()
        assert ev.cs == pytest.approx(0.0, abs=1e-12)
        assert ev.residual[2] == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-9)

    def test_invariant_to_positive_rescaling(self, rng):
        z_i = smooth_map(rng)
        z_j = smooth_map(rng)
        args = (np.full((24, 32), 0.4), identity_pose(), se3_exp([0.02, 0, 0, 0, 0, 0]))
        ev0 = edge_eval(z_i, z_j, *args)
        ev1 = edge_eval(3.7 * z_i, 0.02 * z_j, *args)
        assert ev0.valid_embed.any()
        assert np.array_equal(ev1.valid_embed, ev0.valid_embed)
        assert ev1.cs == pytest.approx(ev0.cs, abs=1e-12)
        assert ev1.residual[2] == pytest.approx(ev0.residual[2], abs=1e-12)

    def test_zero_norm_embedding_invalid(self):
        h, w = 8, 8
        z_i = np.zeros((2, h, w))
        z_j = np.ones((2, h, w))
        ev = edge_eval(z_i, z_j, np.full((h, w), 0.5), identity_pose(), identity_pose())
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
            used = (ev.valid_embed & (ev.residual[2] >= 1e-3) & ok_i & ok_j & ok_d
                    & off_grid_lines(d, t_i, t_j))
            checked += int(used.sum())
            # Columns [disparity | pose j]; pose i's are pose j's times -Ad(T_ji).
            je = ev.jac[2].T
            for analytic, fd in ((-je[:, 1:] @ ev.adjoint[0], fd_i), (je[:, 1:], fd_j),
                                 (je[:, 0], fd_d)):
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
            used_e = ev.valid_embed & (ev.residual[2] >= 1e-3) & ok_e & off_grid_lines(d, t_i, t_j)
            assert used_f.sum() >= 100 and used_e.sum() >= 100
            jac_f, jac_e = np.moveaxis(ev.jac[:2, 7:], -1, 0), ev.jac[2, 7:].T
            worst_flow = max(worst_flow, block_error(jac_f[used_f], fd_f[used_f], 1.0).max())
            worst_embed = max(worst_embed, block_error(jac_e[used_e], fd_e[used_e], 1e-3).max())
        assert worst_flow < 1e-4
        assert worst_embed < 1e-4

    def test_constant_target_field_zeroes_jacobians(self, rng):
        z_i = smooth_map(rng)
        z_j = np.ones_like(z_i) * np.arange(1, 7)[:, None, None]
        ev = edge_eval(z_i, z_j, np.full((24, 32), 0.5), identity_pose(),
                       se3_exp([0.02, 0, 0, 0, 0, 0]), with_jacobians=True)
        valid = ev.valid_embed
        assert valid.any()
        assert np.abs(ev.jac[2][:, valid]).max() < 1e-12

    def test_directional_derivative_sign(self, rng):
        d = np.full((24, 32), 0.5)
        checked = 0
        while checked < 10:
            z_i, z_j = smooth_map(rng), smooth_map(rng)
            t_j = se3_exp(rng.normal(0, 0.05, 6))
            ev = edge_eval(z_i, z_j, d, identity_pose(), t_j, with_jacobians=True)
            je_pose_i = -ev.jac[2, 1:].T @ ev.adjoint[0]
            norms = np.linalg.norm(je_pose_i, axis=1)
            candidates = np.flatnonzero(ev.valid_embed & (norms >= 1e-6))
            for p in rng.permutation(candidates)[:10 - checked]:
                checked += 1
                direction = je_pose_i[p] / norms[p]
                eps = 1e-6
                rp = edge_eval(z_i, z_j, d, se3_exp(eps * direction), t_j).residual[2, p]
                rm = edge_eval(z_i, z_j, d, se3_exp(-eps * direction), t_j).residual[2, p]
                assert (rp - rm) > 0  # moving along the gradient increases the residual


def prior_frame(disparity, prior):
    """A keyframe whose maps other than the disparity and its prior are placeholders."""
    return Keyframe(index=0, pose=identity_pose(), disparity=disparity, disparity_prior=prior,
                    features=np.ones((1,) + disparity.shape))


class TestDisparityReg:
    def test_zero_at_prior(self, rng):
        d = rng.uniform(0.2, 1.0, size=(6, 8))
        energy, h, g = prior_terms(prior_frame(d, d))
        assert energy == 0.0
        assert np.all(h == 2.0 * ALPHA_DISP)
        assert np.abs(g).max() == 0.0

    def test_quarter_offset(self):
        energy, h, g = prior_terms(prior_frame(np.array([[0.75]]), np.array([[0.5]])))
        assert energy == pytest.approx(0.0625 * ALPHA_DISP)
        assert h[0] == 2.0 * ALPHA_DISP
        assert g[0] == pytest.approx(0.5 * ALPHA_DISP)

    def test_invalid_prior_excluded(self):
        energy, h, g = prior_terms(prior_frame(np.array([[0.5, 0.5]]), np.array([[0.0, 0.25]])))
        assert energy == pytest.approx(0.0625 * ALPHA_DISP)
        assert h[0] == 0.0 and g[0] == 0.0
        assert h[1] == 2.0 * ALPHA_DISP and g[1] == pytest.approx(0.5 * ALPHA_DISP)

    def test_shape_mismatch(self):
        # prior_terms reads a keyframe, which cannot hold maps of two shapes.
        with pytest.raises(ValueError, match="shapes differ"):
            prior_frame(np.zeros((2, 2)), np.zeros((3, 2)))

    def test_h_and_g_match_central_differences(self, rng):
        d = rng.uniform(0.2, 1.0, size=(3, 4))
        prior = rng.uniform(0.2, 1.0, size=(3, 4))
        prior[0, 1] = 0.0  # no prior here: the pixel adds no energy
        _, h, g = prior_terms(prior_frame(d, prior))
        eps = 1e-4
        for p in range(d.size):
            step = eps * np.eye(d.size)[p].reshape(d.shape)
            e_minus, e_zero, e_plus = (prior_terms(prior_frame(d + s * step, prior))[0]
                                       for s in (-1.0, 0.0, 1.0))
            assert g[p] == pytest.approx((e_plus - e_minus) / (2 * eps), rel=1e-6, abs=1e-9)
            assert h[p] == pytest.approx((e_plus - 2 * e_zero + e_minus) / eps**2,
                                         rel=1e-5, abs=1e-5)
        assert h[1] == 0.0 and g[1] == 0.0


class TestTotalEnergy:
    def test_zero_at_ground_truth(self, clean_bundle):
        graph = clean_bundle.to_graph(initial=False)
        config = SolverConfig()
        e, _ = energy_own(graph, config)
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
        config = SolverConfig(lambda_embed=1.3)
        got, _ = energy_own(graph, config)

        e_photo = 0.0
        e_embed = 0.0
        for y in range(h):
            for x in range(w):
                u = np.array([float(x), float(y)])
                mu, ok = reproject(u[:, None], kf_i.disparity[y, x:x + 1],
                                   [relative_pose(kf_i.pose, kf_j.pose)], bundle.intrinsics, (0, 1))
                mu, ok = mu[:, 0], ok[0]
                ok = ok and -1e-9 <= mu[0] <= w - 1 + 1e-9 and -1e-9 <= mu[1] <= h - 1 + 1e-9
                r = (mu - u) - flow[:, y, x]
                z_src = kf_i.features[:, y, x]
                z_smp, _ = bilinear_sample(kf_j.features, mu, ok)
                norms = np.linalg.norm(z_src) * np.linalg.norm(z_smp)
                ok_e = ok and np.linalg.norm(z_src) > 1e-8 and np.linalg.norm(z_smp) > 1e-8
                cs = min(float(z_src @ z_smp) / norms, 1.0) if ok_e else 0.0
                re = 2.0 * np.sqrt(2.0 * (1.0 - cs))
                alpha = adaptive_alpha(cs) if ok_e else ALPHA_STATIC
                if ok:
                    e_photo += conf[y, x] * barron_rho(np.linalg.norm(r), alpha)
                if ok_e:
                    e_embed += conf[y, x] * re**2
        e_reg = 0.0
        for kf in (kf_i, kf_j):
            for y in range(h):
                for x in range(w):
                    if kf.disparity_prior[y, x] > 0:
                        e_reg += ALPHA_DISP * (kf.disparity[y, x] - kf.disparity_prior[y, x]) ** 2
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
        kf_i = Keyframe(index=0, pose=identity_pose(), disparity=disparity,
                        disparity_prior=disparity, features=smooth_map(rng, (6, h, w)))
        kf_j = Keyframe(index=1, pose=pose_j, disparity=disparity,
                        disparity_prior=disparity, features=smooth_map(rng, (6, h, w)))
        flow = rng.normal(0, 0.5, size=(2, h, w))
        confidence = rng.uniform(0.2, 1.0, size=(h, w))
        obs = FlowObservation(i=0, j=1, flow=flow, confidence=confidence)
        graph = KeyframeGraph(keyframes=[kf_i, kf_j], edges=[obs], intrinsics=K)
        ev = evaluate(graph, [obs], with_jacobians=True)
        assert ev.pixels.size == h * w  # every pixel is confident, so rows are grid pixels
        dead = ~ev.valid_flow
        _, geometric_ok = reproject(grid_pixels(h, w), disparity.reshape(-1),
                                    [relative_pose(kf_i.pose, pose_j)], K, (0, h * w))
        assert ev.valid_flow.any()
        assert dead[0] and (~geometric_ok).sum() == 5 and (dead & geometric_ok).any()
        assert not ev.valid_embed[dead].any()
        assert np.abs(ev.residual[:2, dead]).max() == 0.0
        assert np.abs(ev.residual[2, dead]).max() == 0.0

        config = SolverConfig()
        ne = assemble_own(graph, config)
        fields = ("pose_h", "pose_g", "coupling", "disp_h", "disp_g")

        def assemble_with_dead_confidence(value):
            muted = confidence.copy()
            muted[dead.reshape(h, w)] = value
            other = KeyframeGraph(keyframes=[kf_i, kf_j], intrinsics=K, edges=[
                FlowObservation(i=0, j=1, flow=flow, confidence=muted)])
            return assemble_own(other, config)

        # Another positive confidence keeps the edge's support: bitwise the same.
        ne_muted = assemble_with_dead_confidence(7.0)
        for name in fields:
            assert np.array_equal(getattr(ne, name), getattr(ne_muted, name)), name
        assert ne.energies == ne_muted.energies
        # Confidence 0 drops the dead pixels from the support, which narrows
        # the coupling and changes only the order of the sums.
        ne_muted = assemble_with_dead_confidence(0.0)
        assert ne_muted.coupling.shape == (ne.coupling.shape[0], h * w - dead.sum())
        for name in fields:
            ref, got = getattr(ne, name), getattr(ne_muted, name)
            if name == "coupling":
                ref, got = dense_system(ne)[0], dense_system(ne_muted)[0]
            assert np.abs(got - ref).max() <= 1e-9 * max(np.abs(ref).max(), 1.0), name
        for name in ("total", "photo_ark", "embed", "reg"):
            assert getattr(ne_muted.energies, name) == pytest.approx(
                getattr(ne.energies, name), rel=1e-9, abs=0.0), name

    def test_zero_norm_embedding_keeps_flow_term(self, rng):
        h, w = 6, 8
        features_i = smooth_map(rng, (3, h, w))
        features_i[:, 2, 3] = 0.0  # degenerate embedding at one pixel
        features_j = smooth_map(rng, (3, h, w))
        disparity = np.full((h, w), 0.5)
        kf_i = Keyframe(index=0, pose=identity_pose(), disparity=disparity,
                        disparity_prior=disparity, features=features_i)
        kf_j = Keyframe(index=1, pose=se3_exp([0.01, 0, 0, 0, 0, 0]), disparity=disparity,
                        disparity_prior=disparity, features=features_j)
        obs = FlowObservation(i=0, j=1, flow=np.zeros((2, h, w)), confidence=np.ones((h, w)))
        graph = KeyframeGraph(keyframes=[kf_i, kf_j], edges=[obs], intrinsics=K)
        ev = evaluate(graph, [obs])
        p = 2 * w + 3
        assert ev.valid_flow[p]
        assert not ev.valid_embed[p]
        assert ev.residual[2, p] == 0.0


class TestWeights:
    def test_folded_weight_matches_manual_product(self, rng):
        n = 50
        conf = rng.uniform(0, 1, size=n)
        r = rng.uniform(0, 4, size=n)
        alpha = rng.uniform(-2, 2, size=n)
        valid_flow = rng.uniform(size=n) < 0.8
        valid_embed = valid_flow & (rng.uniform(size=n) < 0.8)
        theta = rng.uniform(0, 2 * np.pi, size=n)
        flow = r * np.stack([np.cos(theta), np.sin(theta)])
        ev = EdgeEvaluation(pixels=np.arange(n), bounds=np.array([0, n]), confidence=conf,
                            residual=np.concatenate([flow, np.zeros((1, n))]),
                            valid_flow=valid_flow, cs=np.zeros(n), valid_embed=valid_embed)
        weight = edge_weights(ev, alpha, SolverConfig(lambda_embed=1.5))
        assert weight.shape == (3, n)
        w_flow, w_emb = weight[0], weight[2]
        manual = conf * (r**2 / np.abs(alpha - 2.0) + 1.0) ** (alpha / 2.0 - 1.0) * valid_flow
        assert np.all(w_flow >= 0.0)
        assert w_flow == pytest.approx(manual, rel=1e-12, abs=0.0)
        assert np.array_equal(weight[1], w_flow)
        assert np.array_equal(w_emb, 3.0 * conf * valid_embed)
        assert not edge_weights(ev, alpha, SolverConfig(lambda_embed=0.0))[2].any()


class TestHotPath:
    def test_edge_evaluation_and_retract_build_no_rotation_or_grid(self, dynamic_bundle,
                                                                   monkeypatch):
        # Pose arithmetic on the per-edge path is closed-form quaternion algebra,
        # and the pixel grid is built once per shape.
        graph = dynamic_bundle.to_graph(initial=True)
        config = SolverConfig()
        edges = graph.edge_groups()[1]

        def no_rotation(*args, **kwargs):
            raise AssertionError("scipy Rotation used on the edge evaluation path")

        # Calling it raises, and so does looking up any of Rotation's constructors on it.
        monkeypatch.setattr(geometry, "Rotation", no_rotation)
        ev = evaluate(graph, edges, with_jacobians=True)
        assert ev.jac.shape[0] == 3 and np.isfinite(ev.jac).all()
        evaluate(graph, edges, need_similarity=False)
        layout = ProblemLayout.build(graph, config)
        delta = np.random.default_rng(3).normal(0.0, 1e-3, layout.n_total)
        moved = retract(graph, delta, layout)
        assert not np.array_equal(moved.keyframes[1].pose.rotation,
                                  graph.keyframes[1].pose.rotation)

        h, w = graph.grid_shape
        assert grid_pixels(h, w) is grid_pixels(h, w)

    def test_one_sampler_call_per_source_keyframe(self, dynamic_bundle, monkeypatch):
        # Every target of a keyframe's out-edges is sampled in one gather, in
        # the similarity, Jacobian and value passes alike.
        graph = dynamic_bundle.to_graph(initial=True)
        config = SolverConfig()
        calls = []

        def counting(fmap, u, valid, **kwargs):
            calls.append(u.shape[0])
            return bilinear_sample(fmap, u, valid, **kwargs)

        monkeypatch.setattr("semba.residuals.bilinear_sample", counting)
        layout = ProblemLayout.build(graph, config)
        rows = [batch.pixels.size for batch in layout.batches]
        assert len(rows) == len(graph.keyframes) < len(graph.edges)
        alphas = kernel_alphas(graph, config, layout.batches)
        assert calls == rows
        calls.clear()
        assemble(graph, config, alphas, layout)
        assert calls == rows
        calls.clear()
        total_energy(graph, config, alphas, layout.batches)
        assert calls == rows

    def test_batch_holds_each_edge_row_once(self, dynamic_bundle):
        graph = dynamic_bundle.to_graph(initial=True)
        h, w = graph.grid_shape
        for batch in ProblemLayout.build(graph, SolverConfig()).batches:
            for e, obs in enumerate(batch.edges):
                rows = slice(batch.bounds[e], batch.bounds[e + 1])
                for name in ("pixels", "target", "confidence"):
                    assert getattr(obs, name).base is getattr(batch, name), name
                    assert np.shares_memory(getattr(obs, name), getattr(batch, name)[rows])
                assert batch.offsets[e] == obs.j * h * w
        assert not grid_pixels(h, w).flags.writeable
