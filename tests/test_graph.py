from dataclasses import replace

import numpy as np
import pytest

from semba.geometry import Intrinsics, Pose
from semba.graph import Keyframe, KeyframeGraph
from semba.residuals import FlowObservation
from semba.solver import ProblemLayout, SolverConfig, retract

K = Intrinsics(30.0, 30.0, 7.5, 5.5)
H, W = 12, 16


def make_frame(index):
    rng = np.random.default_rng(index)
    return Keyframe(index=index, pose=Pose.identity(),
                    disparity=np.full((H, W), 0.5),
                    disparity_prior=np.full((H, W), 0.5),
                    features=rng.normal(size=(4, H, W)) + 2.0)


def zero_obs(i, j):
    return FlowObservation(i=i, j=j, flow=np.zeros((2, H, W)), confidence=np.ones((H, W)))


class TestKeyframeGraphValidation:
    def test_index_must_match_position(self):
        frames = [make_frame(0), make_frame(2)]
        with pytest.raises(ValueError, match="carries index"):
            KeyframeGraph(keyframes=frames, edges=[], intrinsics=K)

    def test_edge_endpoints_must_exist(self):
        frames = [make_frame(0), make_frame(1)]
        with pytest.raises(ValueError, match="missing keyframe"):
            KeyframeGraph(keyframes=frames, edges=[zero_obs(0, 5)], intrinsics=K)

    def test_missing_intrinsics(self):
        frames = [make_frame(0), make_frame(1)]
        for not_a_camera in (None, {0: K}, K.as_array()):
            with pytest.raises(ValueError, match="intrinsics must be an Intrinsics"):
                KeyframeGraph(keyframes=frames, edges=[], intrinsics=not_a_camera)

    def test_keyframe_grid_consistency(self):
        bad = Keyframe(index=1, pose=Pose.identity(), disparity=np.ones((6, 6)),
                       disparity_prior=np.ones((6, 6)), features=np.ones((2, 6, 6)))
        with pytest.raises(ValueError, match="grid shape"):
            KeyframeGraph(keyframes=[make_frame(0), bad], edges=[], intrinsics=K)

    @pytest.mark.parametrize("shape", [(H, W + 1), (W, H)], ids=["wider", "transposed"])
    def test_edge_grid_must_match_the_keyframes(self, shape):
        # The transposed grid has as many pixels as the keyframes' but is still rejected.
        obs = FlowObservation(i=0, j=1, flow=np.zeros((2, *shape)), confidence=np.ones(shape))
        with pytest.raises(ValueError, match=r"^edge \(0, 1\) maps do not match the keyframe "
                                             r"grid$"):
            KeyframeGraph(keyframes=[make_frame(0), make_frame(1)], edges=[obs], intrinsics=K)

    def test_keyframe_feature_channels_must_match(self):
        bad = Keyframe(index=2, pose=Pose.identity(), disparity=np.full((H, W), 0.5),
                       disparity_prior=np.full((H, W), 0.5), features=np.ones((2, H, W)))
        with pytest.raises(ValueError, match=r"^keyframe 2 has 2 feature channels, but "
                                             r"keyframe 0 has 4$"):
            KeyframeGraph(keyframes=[make_frame(0), make_frame(1), bad], edges=[], intrinsics=K)

    @pytest.mark.parametrize("field, value, message", [
        ("disparity", -0.5, "disparity is not finite and >= 0"),
        ("disparity", np.nan, "disparity is not finite and >= 0"),
        ("disparity_prior", np.inf, "disparity prior is not finite and >= 0"),
        ("features", np.nan, "features are not finite"),
    ], ids=["negative-disparity", "nan-disparity", "inf-prior", "nan-feature"])
    def test_bad_map_names_keyframe_and_first_pixel(self, field, value, message):
        maps = {"disparity": np.full((H, W), 0.5), "disparity_prior": np.full((H, W), 0.5),
                "features": np.ones((4, H, W))}
        bad = maps[field][..., 2, 5:7] if field != "features" else maps[field][3, 2, 5:7]
        bad[...] = value
        with pytest.raises(ValueError, match=rf"^keyframe 3: {message} at pixel index "
                                             rf"{2 * W + 5}$"):
            Keyframe(index=3, pose=Pose.identity(), **maps)

    def test_keyframe_feature_grid_must_match(self):
        with pytest.raises(ValueError, match="disparity grid"):
            Keyframe(index=0, pose=Pose.identity(), disparity=np.ones((4, 4)),
                     disparity_prior=np.ones((4, 4)), features=np.ones((2, 5, 4)))


class TestEdgeGroups:
    def test_grouped_by_source_in_keyframe_order(self):
        edges = [zero_obs(2, 0), zero_obs(0, 1), zero_obs(2, 1), zero_obs(0, 2), zero_obs(2, 0)]
        graph = KeyframeGraph(keyframes=[make_frame(k) for k in range(3)], edges=edges,
                              intrinsics=K)
        groups = graph.edge_groups()
        assert [[edges.index(obs) for obs in group] for group in groups] == [[1, 3], [0, 2, 4]]
        assert groups[1][2] is edges[4]


class TestKeyframeFeatures:
    def test_stored_pixel_major_with_the_same_values(self, rng):
        features = rng.normal(size=(4, H, W))
        kf = Keyframe(index=0, pose=Pose.identity(), disparity=np.full((H, W), 0.5),
                      disparity_prior=np.full((H, W), 0.5), features=features)
        assert kf.features.shape == (4, H, W)
        assert np.array_equal(kf.features, features)
        assert np.moveaxis(kf.features, 0, -1).flags.c_contiguous

    def test_replace_copy_and_retract_share_the_buffer(self):
        graph = KeyframeGraph(keyframes=[make_frame(0), make_frame(1)],
                              edges=[zero_obs(0, 1), zero_obs(1, 0)], intrinsics=K)
        layout = ProblemLayout.build(graph, SolverConfig())
        moved = retract(graph, np.zeros(layout.n_total), layout)
        for k, kf in enumerate(graph.keyframes):
            replaced = replace(kf, disparity=kf.disparity + 1.0)
            for other in (replaced, moved.keyframes[k]):
                assert np.shares_memory(other.features, kf.features)
                assert np.moveaxis(other.features, 0, -1).flags.c_contiguous
