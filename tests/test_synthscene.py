import numpy as np
import pytest

from semba.evaluation import trajectory_ate
from semba.residuals import FlowObservation
from semba.solver import SolverConfig, solve
from semba.synthscene import DEPTH_RANGE, TEMPORAL_RADIUS, SceneConfig, gen_scene
from shared import energy_own, evaluate, pose_matrix

CONFIG = SolverConfig()  # default objective, adaptive kernel


def bundles_equal(a, b):
    if len(a.edges) != len(b.edges):
        return False
    for attr in ("flows", "confidences", "gt_disparity", "features", "labels"):
        for x, y in zip(getattr(a, attr), getattr(b, attr)):
            if not np.array_equal(x, y):
                return False
    for p, q in zip(a.gt_poses + a.init_poses, b.gt_poses + b.init_poses):
        if not (np.array_equal(p.rotation, q.rotation)
                and np.array_equal(p.translation, q.translation)):
            return False
    return True


class TestGenScene:
    def test_deterministic_given_seed(self):
        cfg = SceneConfig(num_keyframes=4, height=24, width=32, pose_sigma=0.01,
                          dynamic_fraction=0.1, seed=9)
        assert bundles_equal(gen_scene(cfg), gen_scene(cfg))

    def test_different_seeds_differ(self):
        a = gen_scene(SceneConfig(num_keyframes=3, height=24, width=32, seed=1))
        b = gen_scene(SceneConfig(num_keyframes=3, height=24, width=32, seed=2))
        assert not bundles_equal(a, b)

    def test_ground_truth_is_zero_energy(self, clean_bundle):
        graph = clean_bundle.to_graph(initial=False)
        e, _ = energy_own(graph, CONFIG)
        assert e.total <= 1e-9

    def test_edges_join_keyframes_within_the_temporal_radius(self, clean_bundle):
        # Both directions of every pair at index distance 1..TEMPORAL_RADIUS, and no other.
        n = clean_bundle.config.num_keyframes
        pairs = [(obs.i, obs.j) for obs in clean_bundle.edges]
        assert pairs == [(i, j) for i in range(n) for j in range(n)
                         if 0 < abs(i - j) <= TEMPORAL_RADIUS]
        assert n > TEMPORAL_RADIUS + 1  # some pairs lie beyond the radius

    def test_labels_cover_at_least_four_classes(self, clean_bundle):
        seen = np.unique(np.concatenate([l.reshape(-1) for l in clean_bundle.labels]))
        assert seen.size >= 4

    def test_class_vectors_separated(self, clean_bundle):
        v = clean_bundle.class_vectors
        gram = v @ v.T
        off = gram[~np.eye(len(v), dtype=bool)]
        assert off.max() <= np.cos(np.radians(30.0)) + 1e-12
        assert np.abs(np.linalg.norm(v, axis=1) - 1.0).max() < 1e-12

    def test_disparities_positive_and_in_range(self, clean_bundle):
        lo, hi = DEPTH_RANGE
        for d in clean_bundle.gt_disparity:
            depth = 1.0 / d
            assert depth.min() > 0.25 * lo and depth.max() < 4.0 * hi

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SceneConfig(num_keyframes=1)
        with pytest.raises(ValueError):
            SceneConfig(height=4, width=32)
        with pytest.raises(ValueError):
            SceneConfig(dynamic_fraction=1.5)

    def test_solving_leaves_ground_truth_disparity_unchanged(self, perturbed_bundle):
        # gt_disparity is the truth, the initial state and the prior at once.
        before = [d.copy() for d in perturbed_bundle.gt_disparity]
        opt, _ = solve(perturbed_bundle.to_graph(), SolverConfig(max_iters=2))
        assert not all(np.array_equal(kf.disparity, d) for kf, d in zip(opt.keyframes, before))
        for d, ref in zip(perturbed_bundle.gt_disparity, before):
            assert np.array_equal(d, ref)


def unit_confidence(bundle):
    """bundle's edges with confidence 1 everywhere, so that evaluate_edge returns every
    grid pixel."""
    return [FlowObservation(i=obs.i, j=obs.j, flow=flow, confidence=np.ones(obs.grid_shape))
            for obs, flow in zip(bundle.edges, bundle.flows, strict=True)]


class TestInjectDynamics:
    def test_fraction_is_exact(self, dynamic_bundle):
        measured = dynamic_bundle.measured_dynamic_fraction()
        assert 0.18 <= measured <= 0.22
        # The blob trimming makes the hit exact up to grid rounding.
        target = round(0.2 * 24 * 32) / (24 * 32)
        assert measured == pytest.approx(target, abs=1e-12)

    def test_full_decorrelation_kills_similarity(self, dynamic_bundle):
        g = dynamic_bundle.to_graph(initial=False)
        cs_vals = []
        for obs in unit_confidence(dynamic_bundle):
            ev = evaluate(g, [obs])
            sel = dynamic_bundle.dynamic_masks[obs.i].reshape(-1) & ev.valid_embed
            cs_vals.append(ev.cs[sel])
        assert np.mean(np.concatenate(cs_vals)) <= 0.1

    def test_motion_five_px_residual_in_range(self, dynamic_bundle):
        g = dynamic_bundle.to_graph(initial=False)
        mags = []
        for obs in unit_confidence(dynamic_bundle):
            ev = evaluate(g, [obs])
            sel = dynamic_bundle.dynamic_masks[obs.i].reshape(-1) & ev.valid_flow
            mags.append(np.linalg.norm(ev.residual[:2, sel], axis=0))
        mean = np.mean(np.concatenate(mags))
        assert 4.0 <= mean <= 6.0

    def test_noop_corruption_keeps_data(self, clean_bundle):
        out = gen_scene(SceneConfig(num_keyframes=5, height=24, width=32, seed=11,
                                    dynamic_fraction=0.2, dynamic_motion_px=0.0,
                                    embedding_decorrelation=0.0))
        for a, b in zip(out.flows, clean_bundle.flows, strict=True):
            assert np.array_equal(a, b)
        for a, b in zip(out.confidences, clean_bundle.confidences, strict=True):
            assert np.array_equal(a, b)
        for a, b in zip(out.features, clean_bundle.features):
            assert np.array_equal(a, b)
        assert out.dynamic_masks[0].mean() == pytest.approx(0.2, abs=0.01)

    def test_confidence_untouched(self, clean_bundle, dynamic_bundle):
        # Same seed, same base scene: corruption must not leak into confidence.
        clean_cfg_bundle = gen_scene(SceneConfig(num_keyframes=5, height=24, width=32,
                                                 pose_sigma=0.01, seed=11))
        for a, b in zip(dynamic_bundle.confidences, clean_cfg_bundle.confidences, strict=True):
            assert np.array_equal(a, b)


class TestPerturbInit:
    def test_zero_noise_is_identity(self, clean_bundle):
        assert clean_bundle.config.pose_sigma == 0.0
        for p, q in zip(clean_bundle.init_poses, clean_bundle.gt_poses):
            assert np.array_equal(pose_matrix(p), pose_matrix(q))

    def test_pose_noise_creates_initial_error(self, clean_bundle, perturbed_bundle):
        ate = trajectory_ate(perturbed_bundle.init_poses, perturbed_bundle.gt_poses, "rigid")
        assert ate > 1e-4
        # Ground truth retained.
        for p, q in zip(perturbed_bundle.gt_poses, clean_bundle.gt_poses):
            assert np.array_equal(p.translation, q.translation)

    def test_anchor_pose_kept(self, clean_bundle):
        out = gen_scene(SceneConfig(num_keyframes=5, height=24, width=32,
                                    pose_sigma=0.05, seed=11))
        assert np.array_equal(out.init_poses[0].translation,
                              clean_bundle.gt_poses[0].translation)
        for p, q in zip(out.init_poses[1:], clean_bundle.gt_poses[1:]):
            assert not np.array_equal(p.translation, q.translation)


class TestCrampedScenes:
    def test_tiny_grid_fails_loudly_or_produces_coverage(self):
        # 8x8 is the smallest legal grid; generation either succeeds with
        # usable confidence or rejects the configuration explicitly.
        try:
            bundle = gen_scene(SceneConfig(num_keyframes=2, height=8, width=8, seed=0))
        except ValueError as exc:
            assert "cramped" in str(exc) or "classes" in str(exc)
        else:
            assert np.mean([c.mean() for c in bundle.confidences]) > 0.01


@pytest.mark.parametrize("field", ["pose_sigma", "dynamic_motion_px"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_scene_config_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        SceneConfig(num_keyframes=3, height=16, width=16, **{field: value})


@pytest.mark.parametrize("field, value", [("pose_sigma", -1.0), ("dynamic_motion_px", -1.0)])
def test_scene_config_rejects_out_of_range(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        SceneConfig(num_keyframes=3, height=16, width=16, **{field: value})
