from dataclasses import replace

import numpy as np
import pytest

from semba.geometry import Intrinsics, relative_pose, se3_exp
from semba.graph import Keyframe, KeyframeGraph
from semba.residuals import FlowObservation
from semba.solver import ProblemLayout, SolverConfig, retract
from shared import identity_pose

K = Intrinsics(30.0, 30.0, 7.5, 5.5)
H, W = 12, 16


def make_frame(index):
    rng = np.random.default_rng(index)
    return Keyframe(index=index, pose=identity_pose(),
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
        bad = Keyframe(index=1, pose=identity_pose(), disparity=np.ones((6, 6)),
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
        bad = Keyframe(index=2, pose=identity_pose(), disparity=np.full((H, W), 0.5),
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
            Keyframe(index=3, pose=identity_pose(), **maps)

    def test_keyframe_feature_grid_must_match(self):
        with pytest.raises(ValueError, match="disparity grid"):
            Keyframe(index=0, pose=identity_pose(), disparity=np.ones((4, 4)),
                     disparity_prior=np.ones((4, 4)), features=np.ones((2, 5, 4)))


class TestEdgeGroups:
    def test_grouped_by_source_in_keyframe_order(self):
        edges = [zero_obs(2, 0), zero_obs(0, 1), zero_obs(2, 1), zero_obs(0, 2), zero_obs(2, 0)]
        graph = KeyframeGraph(keyframes=[make_frame(k) for k in range(3)], edges=edges,
                              intrinsics=K)
        groups = graph.edge_groups()
        assert [[edges.index(obs) for obs in group] for group in groups] == [[1, 3], [0, 2, 4]]
        assert groups[1][2] is edges[4]


class TestRelativePoses:
    def test_computed_once_per_pair_of_poses(self):
        graph = KeyframeGraph(keyframes=[make_frame(k) for k in range(3)],
                              edges=[zero_obs(0, 1), zero_obs(0, 2), zero_obs(1, 0)],
                              intrinsics=K)
        graph.keyframes[1].pose = se3_exp([0.1, 0.0, 0.2, 0.0, 0.03, 0.0])
        first = graph.relative_poses(graph.edges)
        again = graph.relative_poses(graph.edges[::-1])
        assert all(a is b for a, b in zip(first, again[::-1]))
        for obs, rel in zip(graph.edges, first):
            want = relative_pose(graph.keyframes[obs.i].pose, graph.keyframes[obs.j].pose)
            assert np.array_equal(rel.rotation, want.rotation)
            assert np.array_equal(rel.translation, want.translation)
        # A new pose object is a new state: its pairs are computed again.
        graph.keyframes[2].pose = se3_exp([0.0, 0.1, 0.0, 0.02, 0.0, 0.0])
        moved = graph.relative_poses(graph.edges)
        assert moved[0] is first[0] and moved[2] is first[2]
        assert moved[1] is not first[1]
        assert np.array_equal(moved[1].translation,
                              relative_pose(graph.keyframes[0].pose,
                                            graph.keyframes[2].pose).translation)


class TestKeyframeFeatures:
    def test_stored_pixel_major_with_the_same_values(self, rng):
        features = rng.normal(size=(4, H, W))
        kf = Keyframe(index=0, pose=identity_pose(), disparity=np.full((H, W), 0.5),
                      disparity_prior=np.full((H, W), 0.5), features=features)
        assert kf.features.shape == (4, H, W)
        assert np.array_equal(kf.features, features)
        assert np.moveaxis(kf.features, 0, -1).flags.c_contiguous

    def test_replace_copy_and_retract_share_the_buffer(self):
        graph = KeyframeGraph(keyframes=[make_frame(0), make_frame(1)],
                              edges=[zero_obs(0, 1), zero_obs(1, 0)], intrinsics=K)
        layout = ProblemLayout.build(graph, SolverConfig())
        moved = retract(graph, np.zeros(layout.n_total), layout)
        assert moved.features is graph.features
        for k, kf in enumerate(graph.keyframes):
            replaced = replace(kf, disparity=kf.disparity + 1.0)
            for other in (replaced, moved.keyframes[k]):
                assert np.shares_memory(other.features, kf.features)
                assert np.moveaxis(other.features, 0, -1).flags.c_contiguous

    def test_graph_keeps_every_keyframe_in_one_buffer(self):
        frames = [make_frame(k) for k in range(3)]
        values = [kf.features.copy() for kf in frames]
        graph = KeyframeGraph(keyframes=frames, edges=[], intrinsics=K)
        buffer = graph.features
        assert buffer.shape == (3, H, W, 4) and buffer.flags.c_contiguous
        for k, kf in enumerate(graph.keyframes):
            assert kf.features.base is buffer
            assert np.array_equal(kf.features, values[k])
            assert np.array_equal(np.moveaxis(buffer[k], -1, 0), values[k])
        # Keyframes that already view the slots of one buffer keep it.
        again = KeyframeGraph(keyframes=[replace(kf) for kf in graph.keyframes], edges=[],
                              intrinsics=K)
        assert again.features is buffer
        # A graph of fewer keyframes than the buffer holds gets its own.
        part = KeyframeGraph(keyframes=[replace(kf) for kf in graph.keyframes[:2]], edges=[],
                             intrinsics=K)
        assert part.features.shape == (2, H, W, 4)
        assert not np.shares_memory(part.features, buffer)
