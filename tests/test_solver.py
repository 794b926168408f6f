import dataclasses

import numpy as np
import pytest

from semba.evaluation import trajectory_ate
from semba.geometry import Intrinsics, se3_exp
from semba.graph import Keyframe, KeyframeGraph
from semba.residuals import FlowObservation, evaluate_edge, total_energy
from semba.robust import adaptive_alpha
from semba.solver import (MIN_DISPARITY, ProblemLayout, SolverConfig, assemble, kernel_alphas,
                          retract, solve, solve_normal_equations)
from semba.synthscene import TEMPORAL_RADIUS, SceneConfig, gen_scene
from shared import ToyBundle, brute_force_normal_equations


def small_config(**kw):
    kw.setdefault("max_iters", 12)
    return SolverConfig(**kw)


@pytest.fixture(scope="module")
def toy_bundle():
    return ToyBundle()


def assert_matches_brute_force(graph, config):
    """Assemble and compare to_dense() with the brute-force system; returns both."""
    ne = assemble(graph, config, kernel_alphas(graph, config))
    h_dense, b_dense = ne.to_dense()
    h_ref, b_ref = brute_force_normal_equations(graph, config)
    assert np.abs(h_dense - h_ref).max() / max(np.abs(h_ref).max(), 1.0) < 1e-9
    assert np.abs(b_dense - b_ref).max() / max(np.abs(b_ref).max(), 1.0) < 1e-9
    return ne, h_ref, b_ref


def assert_schur_matches_dense(ne, h, b, lm=1e-4):
    """The Schur step of ne against the damped dense solve of (h, b)."""
    delta = solve_normal_equations(ne, lm)
    h_damped = h + lm * np.diag(np.diag(h))
    # Unobserved disparities (identically zero diagonal) are frozen by the
    # Schur path; mirror that in the dense reference.
    free = np.diag(h_damped) > 0
    dense = np.zeros_like(delta)
    dense[free] = np.linalg.solve(h_damped[np.ix_(free, free)], -b[free])
    denom = max(np.abs(dense).max(), 1e-12)
    assert np.abs(delta - dense).max() / denom < 1e-8


def with_frozen(graph, frozen):
    """graph with exactly the poses of the keyframe indices in frozen held fixed."""
    keyframes = [dataclasses.replace(kf, frozen=kf.index in frozen) for kf in graph.keyframes]
    return KeyframeGraph(keyframes=keyframes, edges=graph.edges, intrinsics=graph.intrinsics)


def gapped_graph(frozen):
    """Five keyframes without the edge (1, 2), poses `frozen` held fixed.

    Edges join frames up to two indices apart, so the keyframes couple to
    uneven sets of poses; keyframe 1 has the edge (1, 3) but not (1, 2), so its
    coupled unknowns have a gap.
    """
    graph = gen_scene(SceneConfig(num_keyframes=5, height=8, width=10, pose_sigma=0.01,
                                  seed=3)).to_graph(initial=True)
    graph.edges = [obs for obs in graph.edges if (obs.i, obs.j) != (1, 2)]
    return with_frozen(graph, frozen)


class TestAssemble:
    def test_matches_dense_brute_force(self, toy_bundle):
        assert_matches_brute_force(toy_bundle.to_graph(), small_config())

    # Keyframe 0 is frozen in the toy bundle. Freezing keyframe 1 as well adds
    # edges with a frozen j and a free i, whose pose block is lifted through
    # -Ad(T_ji) alone; with every pose frozen only the intrinsics columns remain.
    @pytest.mark.parametrize("frozen, options", [({0}, {"optimize_intrinsics": True}),
                                                 ({0}, {"fixed_alpha": 1.0}),
                                                 ({0, 1}, {}),
                                                 ({0, 1, 2}, {"optimize_intrinsics": True})],
                             ids=["intrinsics", "fixed-kernel", "second-frozen-keyframe",
                                  "intrinsics-only"])
    def test_matches_dense_brute_force_in_other_modes(self, toy_bundle, frozen, options):
        graph = with_frozen(toy_bundle.to_graph(), frozen)
        ne, h, b = assert_matches_brute_force(graph, small_config(**options))
        assert_schur_matches_dense(ne, h, b)

    def test_symmetric(self, toy_bundle):
        graph, config = toy_bundle.to_graph(), small_config()
        h, _ = assemble(graph, config, kernel_alphas(graph, config)).to_dense()
        assert np.abs(h - h.T).max() < 1e-9

    def test_zero_residual_state_zero_gradient(self, clean_bundle):
        graph, config = clean_bundle.to_graph(initial=False), small_config()
        ne = assemble(graph, config, kernel_alphas(graph, config))
        assert np.abs(ne.pose_g).max() < 1e-9
        assert np.abs(ne.disp_g).max() < 1e-9
        h, _ = ne.to_dense()
        assert np.linalg.eigvalsh(h).min() > -1e-9

    def test_flow_only_when_embedding_disabled(self, toy_bundle):
        assert_matches_brute_force(toy_bundle.to_graph(),
                                   small_config(lambda_embed=0.0))

    def test_nonfinite_input_aborts_with_location(self, toy_bundle):
        graph = toy_bundle.to_graph()
        config = small_config()
        graph.edges[1].flow[0, 3, 4] = np.nan
        with pytest.raises(FloatingPointError, match=r"edge \(.*\), pixel"):
            assemble(graph, config, kernel_alphas(graph, config))
        graph.edges[1].flow[0, 3, 4] = 0.0

    def test_nonfinite_row_names_its_grid_pixel(self, toy_bundle):
        graph = toy_bundle.to_graph()
        config = small_config()
        obs = graph.edges[1]
        confidence = obs.confidence.copy()
        confidence[:2] = 0.0  # the first two image rows leave the support
        edge = FlowObservation(i=obs.i, j=obs.j, flow=obs.flow.copy(), confidence=confidence)
        graph.edges[1] = edge
        pixel = 3 * confidence.shape[1] + 4
        assert np.searchsorted(edge.pixels, pixel) != pixel
        edge.flow[0, 3, 4] = np.nan  # construction would reject it
        with pytest.raises(FloatingPointError, match=rf"pixel index {pixel}$"):
            assemble(graph, config, kernel_alphas(graph, config))

    @pytest.mark.parametrize("options", [{}, {"fixed_alpha": 1.0, "optimize_intrinsics": True}],
                             ids=["adaptive", "fixed-intrinsics"])
    def test_zero_confidence_edge_changes_nothing(self, toy_bundle, options):
        # A second edge (1, 0) with no confident pixel: the layout is unchanged,
        # and so must be every sum.
        graph = toy_bundle.to_graph()
        h, w = graph.grid_shape
        dead = FlowObservation(i=1, j=0, flow=np.ones((2, h, w)), confidence=np.zeros((h, w)))
        assert dead.pixels.size == 0
        with_dead = KeyframeGraph(keyframes=graph.keyframes, intrinsics=graph.intrinsics,
                                  edges=graph.edges[:2] + [dead] + graph.edges[2:])
        config = small_config(**options)
        ne = assemble(graph, config, kernel_alphas(graph, config))
        alphas = kernel_alphas(with_dead, config)
        assert alphas[2].shape == (0,)
        ne_dead = assemble(with_dead, config, alphas)
        for name in ("pose_h", "pose_g", "coupling", "disp_h", "disp_g"):
            assert np.array_equal(getattr(ne_dead, name), getattr(ne, name)), name
        assert ne_dead.energies == ne.energies
        assert total_energy(with_dead, config, alphas) == ne.energies


class TestKernelAlphas:
    def test_fixed_kernel_evaluates_no_edge(self, toy_bundle, monkeypatch):
        def no_evaluation(*args, **kwargs):
            raise AssertionError("a fixed kernel must not evaluate edges")

        monkeypatch.setattr("semba.residuals.evaluate_edge", no_evaluation)
        graph = toy_bundle.to_graph()
        alphas = kernel_alphas(graph, small_config(fixed_alpha=1.0))
        assert len(alphas) == len(graph.edges)
        for alpha, obs in zip(alphas, graph.edges):
            assert alpha.shape == (obs.confidence.size,)
            assert np.all(alpha == 1.0)

    def test_adaptive_matches_jacobian_pass(self, dynamic_bundle):
        # The similarity-only pass must decide exactly the shapes that the
        # full Jacobian pass at the same state would.
        graph = dynamic_bundle.to_graph(initial=True)
        config = small_config()
        alphas = kernel_alphas(graph, config)
        assert len(alphas) == len(graph.edges)
        for alpha, obs in zip(alphas, graph.edges):
            ev = evaluate_edge(graph.keyframes[obs.i], graph.keyframes[obs.j], obs,
                               graph.intrinsics, with_jacobians=True)
            expected = np.where(ev.valid_embed, adaptive_alpha(ev.cs, config.kernel),
                                config.kernel.alpha_static)
            assert np.array_equal(alpha, expected)
        assert np.unique(np.concatenate(alphas)).size > 2  # shapes really vary


class TestSolverConfig:
    @pytest.mark.parametrize("options", [{"fixed_alpha": float("inf")},
                                         {"fixed_alpha": float("nan")},
                                         {"lambda_embed": -5.0},
                                         {"lambda_embed": float("nan")},
                                         {"lambda_embed": float("inf")}],
                             ids=["alpha-inf", "alpha-nan", "lambda-negative", "lambda-nan",
                                  "lambda-inf"])
    def test_config_rejected_before_any_solve(self, options):
        with pytest.raises(ValueError, match=next(iter(options))):
            small_config(**options)


class TestSchurSolve:
    def test_matches_dense_solve(self, toy_bundle):
        graph = toy_bundle.to_graph()
        config = small_config()
        ne = assemble(graph, config, kernel_alphas(graph, config))
        assert ne.layout.n_total <= 500
        assert_schur_matches_dense(ne, *ne.to_dense())

    # Keyframe 1 couples to poses 1 and 3 with the free pose 2 between them, so
    # the second frozen keyframe is 4: freezing 2 would close the gap.
    @pytest.mark.parametrize("frozen, options", [
        ({0}, {}),
        ({0, 4}, {}),
        ({0}, {"optimize_intrinsics": True}),
        (set(range(5)), {}),
    ], ids=["covisibility", "frozen-keyframe", "intrinsics", "all-poses-frozen"])
    def test_uneven_coupling_blocks_match_dense_oracle(self, frozen, options):
        graph = gapped_graph(frozen)
        config = small_config(**options)
        assert any(abs(obs.i - obs.j) > 1 for obs in graph.edges)
        ne, h_ref, b_ref = assert_matches_brute_force(graph, config)
        layout = ne.layout
        sizes = [cols.size for cols in layout.coupling_cols]
        assert ne.coupling.shape == (sum(sizes), layout.pixels_per_frame)
        if layout.n_reduced == 0:
            assert ne.coupling.shape[0] == 0
        else:
            assert len(set(sizes)) > 1
            assert np.any(np.diff(layout.coupling_cols[1]) > 1)
        assert_schur_matches_dense(ne, h_ref, b_ref)


class TestCouplingMemory:
    def test_coupling_rows_grow_linearly_in_keyframes(self):
        radius, h, w = TEMPORAL_RADIUS, 8, 10
        config = small_config(fixed_alpha=2.0)
        nbytes = []
        for k in (8, 16):
            graph = gen_scene(SceneConfig(num_keyframes=k, height=h, width=w, seed=3)).to_graph()
            ne = assemble(graph, config, kernel_alphas(graph, config))
            # Frame f couples to the free poses within the temporal radius.
            r = [6 * sum(not graph.keyframes[m].frozen
                         for m in range(max(0, f - radius), min(k, f + radius + 1)))
                 for f in range(k)]
            assert ne.coupling.shape == (sum(r), h * w)
            nbytes.append(ne.coupling.nbytes)
        # A dense (P, K*H*W) coupling would grow 4.3-fold here.
        assert nbytes[1] / nbytes[0] < 2.5


class TestRetract:
    def test_zero_delta_identity(self, toy_bundle):
        graph = toy_bundle.to_graph()
        config = small_config()
        layout = ProblemLayout.build(graph, config)
        out = retract(graph, np.zeros(layout.n_total), config)
        for a, b in zip(out.keyframes, graph.keyframes):
            assert np.array_equal(a.disparity, b.disparity)
            assert np.abs(a.pose.matrix() - b.pose.matrix()).max() == 0.0

    def test_pose_update_left_composes(self, toy_bundle):
        graph = toy_bundle.to_graph()
        config = small_config()
        layout = ProblemLayout.build(graph, config)
        delta = np.zeros(layout.n_total)
        twist = np.array([0.01, -0.02, 0.005, 0.001, 0.0, -0.002])
        delta[layout.pose_slices[1]] = twist
        out = retract(graph, delta, config)
        expected = se3_exp(twist).compose(graph.keyframes[1].pose)
        assert np.abs(out.keyframes[1].pose.matrix() - expected.matrix()).max() < 1e-12

    def test_frozen_pose_untouched(self, toy_bundle):
        graph = toy_bundle.to_graph()
        config = small_config()
        layout = ProblemLayout.build(graph, config)
        assert layout.pose_slices[0] is None  # keyframe 0 is the gauge anchor
        delta = np.ones(layout.n_total)
        out = retract(graph, delta, config)
        assert np.abs(out.keyframes[0].pose.matrix()
                      - graph.keyframes[0].pose.matrix()).max() == 0.0

    def test_disparity_clamped(self, toy_bundle):
        graph = toy_bundle.to_graph()
        config = small_config()
        layout = ProblemLayout.build(graph, config)
        delta = np.zeros(layout.n_total)
        delta[layout.n_reduced:] = -100.0
        out = retract(graph, delta, config)
        assert out.keyframes[0].disparity.min() == MIN_DISPARITY

    def test_dimension_check(self, toy_bundle):
        graph = toy_bundle.to_graph()
        with pytest.raises(ValueError, match="entries"):
            retract(graph, np.zeros(3), small_config())

    def test_non_finite_delta_names_the_entry(self, toy_bundle):
        graph = toy_bundle.to_graph()
        config = small_config()
        delta = np.zeros(ProblemLayout.build(graph, config).n_total)
        delta[[17, 40]] = [np.inf, np.nan]
        with pytest.raises(ValueError, match=r"delta entry 17 is not finite \(inf\)"):
            retract(graph, delta, config)

    def test_moved_keyframes_are_not_validated_again(self, toy_bundle, monkeypatch):
        # The delta check covers every map retract changes; the others were
        # validated when the keyframes were built.
        graph = toy_bundle.to_graph()
        config = small_config()

        def no_validation(self):
            raise AssertionError("retract re-validated a keyframe")

        monkeypatch.setattr(Keyframe, "__post_init__", no_validation)
        delta = np.full(ProblemLayout.build(graph, config).n_total, 1e-3)
        out = retract(graph, delta, config)
        for a, b in zip(out.keyframes, graph.keyframes):
            assert a.disparity_prior is b.disparity_prior and a.features is b.features
            assert np.array_equal(a.disparity, b.disparity + 1e-3)


class TestSolve:
    def test_converges_on_perturbed_scene(self, perturbed_bundle):
        graph = perturbed_bundle.to_graph(initial=True)
        opt, trace = solve(graph, small_config())
        ate = trajectory_ate([kf.pose for kf in opt.keyframes],
                             perturbed_bundle.gt_poses, "rigid")
        assert ate <= 1e-6
        assert trace[-1].e_total < 1e-9

    def test_already_optimal_is_a_fixed_point(self, clean_bundle):
        graph = clean_bundle.to_graph(initial=False)
        opt, trace = solve(graph, small_config())
        assert sum(r.accepted for r in trace[1:]) == 0
        for a, b in zip(opt.keyframes, graph.keyframes):
            assert np.abs(a.pose.matrix() - b.pose.matrix()).max() < 1e-9
            assert np.abs(a.disparity - b.disparity).max() < 1e-9

    def test_energy_trace_nonincreasing_on_accepted(self, perturbed_bundle):
        _, trace = solve(perturbed_bundle.to_graph(initial=True), small_config())
        accepted = [r.e_total for r in trace if r.accepted]
        assert all(b < a for a, b in zip(accepted, accepted[1:]))

    def test_gauge_invariance_of_relative_poses(self, perturbed_bundle):
        config = small_config()
        base, _ = solve(perturbed_bundle.to_graph(initial=True), config)

        offset = se3_exp([0.5, -0.3, 0.2, 0.1, -0.05, 0.2])
        shifted_graph = perturbed_bundle.to_graph(initial=True)
        for kf in shifted_graph.keyframes:
            kf.pose = kf.pose.compose(offset)
        shifted, _ = solve(shifted_graph, config)

        for k in range(1, len(base.keyframes)):
            rel_a = base.keyframes[k].pose.compose(base.keyframes[0].pose.inverse())
            rel_b = shifted.keyframes[k].pose.compose(shifted.keyframes[0].pose.inverse())
            assert np.abs(rel_a.matrix() - rel_b.matrix()).max() < 1e-6

    def test_dynamic_scene_ark_beats_l2(self):
        ark_ates, l2_ates = [], []
        for seed in (0, 1, 2):
            bundle = gen_scene(SceneConfig(num_keyframes=4, height=24, width=32,
                                           pose_sigma=0.01, dynamic_fraction=0.2,
                                           dynamic_motion_px=5.0,
                                           embedding_decorrelation=1.0, seed=seed))
            for fixed_alpha, acc in ((None, ark_ates), (2.0, l2_ates)):
                opt, _ = solve(bundle.to_graph(initial=True),
                               small_config(fixed_alpha=fixed_alpha))
                acc.append(trajectory_ate([kf.pose for kf in opt.keyframes],
                                          bundle.gt_poses, "rigid"))
        assert np.median(ark_ates) < np.median(l2_ates)

    def test_no_edges_rejected(self, clean_bundle):
        graph = clean_bundle.to_graph(initial=False)
        empty = KeyframeGraph(keyframes=graph.keyframes, edges=[],
                              intrinsics=graph.intrinsics)
        with pytest.raises(ValueError, match="unconstrained"):
            solve(empty, small_config())


class TestIntrinsicsOptimization:
    def test_recovers_perturbed_intrinsics(self, perturbed_bundle):
        graph = perturbed_bundle.to_graph(initial=True)
        true_k = graph.intrinsics
        skewed = Intrinsics(true_k.fx * 1.02, true_k.fy * 0.985, true_k.cx + 0.3,
                            true_k.cy - 0.2)
        graph = KeyframeGraph(keyframes=graph.keyframes, edges=graph.edges,
                              intrinsics=skewed)
        config = small_config(optimize_intrinsics=True, max_iters=25)
        opt, trace = solve(graph, config)
        got = opt.intrinsics.as_array()
        assert np.abs(got - true_k.as_array()).max() < 0.05
        assert trace[-1].e_total < 1e-6

    def test_layout_includes_intrinsics(self, toy_bundle):
        graph = toy_bundle.to_graph()
        layout = ProblemLayout.build(graph, small_config(optimize_intrinsics=True))
        assert layout.n_reduced == 6 * 2 + 4  # keyframe 0 frozen
