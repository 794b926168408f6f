import numpy as np
import pytest

from semba.evaluation import (UNLABELED, LabelSet, SemanticPointCloud, align_trajectories,
                              assign_labels, ate_rmse, fuse_point_cloud, knn_transfer,
                              seg_metrics, trajectory_ate)
from semba.geometry import Intrinsics, se3_exp
from semba.graph import Keyframe, KeyframeGraph
from shared import identity_pose, qr_model

K = Intrinsics(20.0, 20.0, 3.5, 2.5)


def tiny_graph(disparity, features, pose=None):
    kf = Keyframe(index=0, pose=pose or identity_pose(), disparity=disparity,
                  disparity_prior=disparity, features=features)
    return KeyframeGraph(keyframes=[kf], edges=[], intrinsics=K)


class TestFusePointCloud:
    def test_closed_form_unprojection(self):
        h, w = 6, 8
        disparity = np.zeros((h, w))
        pix = [(1, 2), (4, 5), (0, 0), (3, 7)]
        for y, x in pix:
            disparity[y, x] = 0.5
        graph = tiny_graph(disparity, np.ones((3, h, w)))
        cloud = fuse_point_cloud(graph, stride=1)
        assert cloud.points.shape == (4, 3)
        # Expected: Z = 2, X = (x - cx)/fx * Z, Y = (y - cy)/fy * Z, identity pose.
        expected = sorted([((x - K.cx) / K.fx * 2.0, (y - K.cy) / K.fy * 2.0, 2.0)
                           for y, x in pix])
        got = sorted(map(tuple, cloud.points))
        assert np.allclose(got, expected, atol=1e-12)

    def test_zero_disparity_contributes_nothing(self):
        disparity = np.zeros((4, 4))
        disparity[2, 2] = 1.0
        cloud = fuse_point_cloud(tiny_graph(disparity, np.ones((2, 4, 4))))
        assert cloud.points.shape[0] == 1

    def test_world_frame_uses_pose_inverse(self):
        pose = se3_exp([0.3, -0.1, 0.2, 0.04, 0.02, -0.03])
        disparity = np.full((4, 4), 0.5)
        graph = tiny_graph(disparity, np.ones((2, 4, 4)), pose=pose)
        cloud = fuse_point_cloud(graph, stride=1)
        from semba.geometry import unproject
        cam = unproject(np.array([1.0, 2.0]), 0.5, K)
        expected = pose.inverse().apply(cam)
        row = 2 * 4 + 1  # stride-1 row-major position of pixel (x=1, y=2)
        assert np.allclose(cloud.points[row], expected, atol=1e-12)

    def test_square_pca_roundtrips_features(self, rng):
        disparity = np.full((5, 5), 0.8)
        features = rng.normal(size=(4, 5, 5))
        model = qr_model(rng, 4, 4)
        graph = tiny_graph(disparity, features)
        raw = fuse_point_cloud(graph)
        decoded = fuse_point_cloud(graph, pca=model)
        # K = C basis is orthogonal, so decode(encode) would be identity; here
        # features are stored already-encoded and decode is affine-bijective.
        back = (decoded.embeddings - model.mean) @ model.basis
        assert np.abs(back - raw.embeddings).max() < 1e-9

    def test_stride(self, rng):
        disparity = np.full((6, 6), 0.5)
        cloud = fuse_point_cloud(tiny_graph(disparity, rng.normal(size=(2, 6, 6))), stride=2)
        assert cloud.points.shape[0] == 9

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError, match="empty graph"):
            fuse_point_cloud(KeyframeGraph(keyframes=[], edges=[], intrinsics=K))


class TestAssignLabels:
    LABELS = LabelSet(names=["a", "b", "c", "d"], vectors=np.eye(4))

    def test_exact_match(self):
        cloud = SemanticPointCloud(points=np.zeros((1, 3)),
                                   embeddings=self.LABELS.vectors[[3]])
        assert assign_labels(cloud, self.LABELS).labels[0] == 3

    def test_orthogonal_to_all_but_one(self):
        emb = np.array([[0.0, 0.2, 0.0, 0.0]])
        cloud = SemanticPointCloud(points=np.zeros((1, 3)), embeddings=emb)
        assert assign_labels(cloud, self.LABELS).labels[0] == 1

    def test_scaling_invariance(self, rng):
        emb = rng.normal(size=(20, 4))
        cloud = SemanticPointCloud(points=np.zeros((20, 3)), embeddings=emb)
        scaled = SemanticPointCloud(points=np.zeros((20, 3)),
                                    embeddings=emb * rng.uniform(0.1, 9.0, size=(20, 1)))
        big_labels = LabelSet(names=self.LABELS.names, vectors=self.LABELS.vectors * 7.3)
        a = assign_labels(cloud, self.LABELS).labels
        b = assign_labels(scaled, big_labels).labels
        assert np.array_equal(a, b)

    def test_tie_breaks_to_lowest_index(self):
        vectors = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        labels = LabelSet(names=["x", "y", "z"], vectors=vectors)
        cloud = SemanticPointCloud(points=np.zeros((1, 3)), embeddings=np.array([[2.0, 0.0]]))
        assert assign_labels(cloud, labels).labels[0] == 0

    def test_zero_norm_unlabeled(self):
        cloud = SemanticPointCloud(points=np.zeros((2, 3)),
                                   embeddings=np.array([[0.0, 0.0, 0.0, 0.0],
                                                        [1.0, 0.0, 0.0, 0.0]]))
        labels = assign_labels(cloud, self.LABELS).labels
        assert labels[0] == UNLABELED and labels[1] == 0

    def test_dimension_mismatch(self):
        cloud = SemanticPointCloud(points=np.zeros((1, 3)), embeddings=np.ones((1, 3)))
        with pytest.raises(ValueError):
            assign_labels(cloud, self.LABELS)


def labeled_cloud(points, labels):
    points = np.asarray(points, dtype=float)
    return SemanticPointCloud(points=points, embeddings=np.ones((len(points), 2)),
                              labels=np.asarray(labels))


def reference_vote(votes):
    """Per-row loop vote: the unique top label, else the nearest point's label."""
    out = np.empty(votes.shape[0], dtype=int)
    for row in range(votes.shape[0]):
        cands, counts = np.unique(votes[row], return_counts=True)
        winners = cands[counts == counts.max()]
        out[row] = winners[0] if len(winners) == 1 else votes[row, 0]
    return out


class TestKnnTransfer:
    def test_coincident_same_label(self):
        pred = labeled_cloud(np.zeros((5, 3)), [2] * 5)
        assert knn_transfer(pred, np.zeros((1, 3)))[0] == 2

    def test_majority_three_two(self):
        pts = np.array([[0.1, 0, 0], [0.2, 0, 0], [0.3, 0, 0], [0.4, 0, 0], [0.5, 0, 0]])
        pred = labeled_cloud(pts, [7, 7, 7, 3, 3])
        assert knn_transfer(pred, np.array([[0.0, 0.0, 0.0]]))[0] == 7

    def test_tie_two_two_one_takes_nearest(self):
        # Nearest point carries label 9; labels 9 and 4 tie at two votes each.
        pts = np.array([[0.1, 0, 0], [0.5, 0, 0], [0.2, 0, 0], [0.4, 0, 0], [0.3, 0, 0]])
        pred = labeled_cloud(pts, [9, 9, 4, 4, 1])
        assert knn_transfer(pred, np.array([[0.0, 0.0, 0.0]]))[0] == 9

    def test_tie_without_nearest_label_takes_nearest(self):
        # [a, b, b, c, c] by distance: b and c tie, and the nearest label a,
        # although not among the tied ones, still wins.
        pts = np.array([[0.1, 0, 0], [0.2, 0, 0], [0.3, 0, 0], [0.4, 0, 0], [0.5, 0, 0]])
        pred = labeled_cloud(pts, [1, 2, 2, 3, 3])
        assert knn_transfer(pred, np.array([[0.0, 0.0, 0.0]]))[0] == 1

    @pytest.mark.parametrize("n_points, n_labels", [(60, 2), (60, 3), (4, 3), (3, 2), (1, 2)],
                             ids=["k5-2labels", "k5-3labels", "k4", "k3", "k1"])
    def test_matches_reference_vote(self, rng, n_points, n_labels):
        from scipy.spatial import cKDTree
        pts = rng.normal(size=(n_points, 3))
        labels = rng.integers(0, n_labels, size=n_points)
        gt = rng.normal(size=(500, 3))
        k = min(5, n_points)
        _, idx = cKDTree(pts).query(gt, k=k)
        votes = labels[idx.reshape(len(gt), k)]
        expected = reference_vote(votes)
        assert np.array_equal(knn_transfer(labeled_cloud(pts, labels), gt), expected)
        if k == 5 and n_labels == 3:  # 2-2-1 votes: the tie rule is really exercised
            assert np.any(expected != reference_vote(votes[:, ::-1]))

    def test_fewer_than_five_points(self):
        pred = labeled_cloud([[0, 0, 0], [1, 0, 0]], [5, 5])
        assert knn_transfer(pred, np.array([[0.2, 0.0, 0.0]]))[0] == 5

    def test_permutation_invariance(self, rng):
        pts = rng.normal(size=(40, 3))
        labels = rng.integers(0, 4, size=40)
        gt = rng.normal(size=(15, 3))
        pred = labeled_cloud(pts, labels)
        base = knn_transfer(pred, gt)
        perm = rng.permutation(40)
        shuffled = labeled_cloud(pts[perm], labels[perm])
        assert np.array_equal(knn_transfer(shuffled, gt), base)

    def test_unlabeled_points_ignored(self):
        pred = labeled_cloud([[0, 0, 0], [0.01, 0, 0]], [UNLABELED, 3])
        assert knn_transfer(pred, np.array([[0.0, 0.0, 0.0]]))[0] == 3

    def test_requires_labels(self):
        cloud = SemanticPointCloud(points=np.zeros((2, 3)), embeddings=np.ones((2, 2)))
        with pytest.raises(ValueError, match="unlabeled"):
            knn_transfer(cloud, np.zeros((1, 3)))


class TestSegMetrics:
    def test_perfect_prediction(self):
        gt = np.array([0, 0, 1, 1, 2, 2])
        m = seg_metrics(gt, gt)
        assert m.miou == 1.0 and m.fmiou == 1.0 and m.macc == 1.0

    def test_fully_flipped_two_class(self):
        gt = np.array([0, 0, 1, 1])
        pred = np.array([1, 1, 0, 0])
        m = seg_metrics(pred, gt)
        assert m.miou == 0.0 and m.fmiou == 0.0 and m.macc == 0.0

    def test_pinned_three_class_fixture(self):
        gt = np.array([0, 0, 0, 0, 1, 1, 1, 2, 2, 2])
        pred = np.array([0, 0, 1, 2, 1, 1, 0, 2, 2, 2])
        m = seg_metrics(pred, gt)
        assert np.abs(m.iou - [0.4, 0.5, 0.75]).max() < 1e-9
        assert m.miou == pytest.approx(0.55, abs=1e-9)
        assert m.fmiou == pytest.approx(0.535, abs=1e-9)
        assert m.macc == pytest.approx((0.5 + 2.0 / 3.0 + 1.0) / 3.0, abs=1e-9)
        # counts 4/3/3 sorted desc with index tiebreak: head=[0], common=[1], tail=[2]
        assert m.groups == ["head", "common", "tail"]
        assert m.group_metrics["head"]["miou"] == pytest.approx(0.4, abs=1e-9)
        assert m.group_metrics["common"]["miou"] == pytest.approx(0.5, abs=1e-9)
        assert m.group_metrics["tail"]["miou"] == pytest.approx(0.75, abs=1e-9)

    def test_fmiou_bounded_by_class_ious(self, rng):
        for _ in range(20):
            gt = rng.integers(0, 5, size=200)
            pred = np.where(rng.uniform(size=200) < 0.6, gt, rng.integers(0, 5, size=200))
            m = seg_metrics(pred, gt)
            assert m.iou.min() - 1e-12 <= m.fmiou <= m.iou.max() + 1e-12

    def test_macc_one_iff_every_point_recalled(self, rng):
        gt = rng.integers(0, 4, size=100)
        m = seg_metrics(gt, gt)
        assert m.macc == 1.0
        pred = gt.copy()
        pred[0] = (gt[0] + 1) % 4
        assert seg_metrics(pred, gt).macc < 1.0

    def test_prediction_of_absent_class_counts_as_miss(self):
        gt = np.array([0, 0, 1, 1])
        pred = np.array([0, 9, 1, 1])  # class 9 never appears in gt
        m = seg_metrics(pred, gt)
        assert np.array_equal(m.class_ids, [0, 1])
        assert m.iou[0] == pytest.approx(0.5)
        assert m.iou[1] == pytest.approx(1.0)

    def test_group_split_remainders_to_earlier(self):
        gt = np.concatenate([np.full(n, c) for c, n in enumerate([50, 40, 30, 20, 10])])
        m = seg_metrics(gt, gt)
        assert m.groups == ["head", "head", "common", "common", "tail"]
        # Two classes: one each for head and common, and the empty tail reads zeros.
        m = seg_metrics(gt[gt < 2], gt[gt < 2])
        assert m.groups == ["head", "common"]
        assert m.group_metrics["head"]["miou"] == m.group_metrics["common"]["miou"] == 1.0
        assert m.group_metrics["tail"] == {"miou": 0.0, "fmiou": 0.0, "macc": 0.0}

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            seg_metrics(np.zeros(3, dtype=int), np.zeros(4, dtype=int))


class TestAlignment:
    def test_identity(self, rng):
        traj = rng.normal(size=(8, 3))
        aligned, result = align_trajectories(traj, traj, "rigid")
        assert np.abs(aligned - traj).max() < 1e-9
        assert result.scale == pytest.approx(1.0)
        assert ate_rmse(aligned, traj) < 1e-12

    def test_rigid_gauge_removal(self, rng):
        gt = rng.normal(size=(10, 3))
        rot = se3_exp([0, 0, 0, 0.4, -0.2, 0.7]).rotation_matrix()
        est = gt @ rot.T + np.array([5.0, -2.0, 1.0])
        aligned, _ = align_trajectories(est, gt, "rigid")
        assert ate_rmse(aligned, gt) < 1e-9

    def test_similarity_recovers_scale_two(self, rng):
        gt = rng.normal(size=(12, 3))
        est = 2.0 * gt
        aligned, result = align_trajectories(est, gt, "similarity")
        assert result.scale == pytest.approx(2.0, abs=1e-9)
        assert ate_rmse(aligned, gt) < 1e-9
        _, rigid_result = align_trajectories(est, gt, "rigid")
        aligned_rigid, _ = align_trajectories(est, gt, "rigid")
        assert ate_rmse(aligned_rigid, gt) > 1e-3

    def test_similarity_never_worse_than_rigid(self, rng):
        for _ in range(20):
            gt = rng.normal(size=(9, 3))
            est = gt * rng.uniform(0.5, 2.0) + rng.normal(0, 0.1, size=(9, 3))
            a_sim, _ = align_trajectories(est, gt, "similarity")
            a_rig, _ = align_trajectories(est, gt, "rigid")
            assert ate_rmse(a_sim, gt) <= ate_rmse(a_rig, gt) + 1e-12

    @pytest.mark.parametrize("shape", [(5, 2), (5, 4), (15,), (5, 3, 1)])
    def test_non_track_shapes_rejected(self, rng, shape):
        bad, good = rng.normal(size=shape), rng.normal(size=(5, 3))
        for est, gt in ((bad, good), (good, bad), (bad, bad)):
            with pytest.raises(ValueError, match=r"\(N, 3\) array"):
                align_trajectories(est, gt, "rigid")
            with pytest.raises(ValueError, match=r"\(N, 3\) array"):
                ate_rmse(est, gt)

    def test_collinear_rejected(self):
        line = np.outer(np.arange(5.0), [1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="degenerate"):
            align_trajectories(line, line, "similarity")

    def test_too_short_rejected(self, rng):
        t = rng.normal(size=(2, 3))
        with pytest.raises(ValueError):
            align_trajectories(t, t, "rigid")

    def test_unknown_mode(self, rng):
        t = rng.normal(size=(4, 3))
        with pytest.raises(ValueError, match="mode"):
            align_trajectories(t, t, "affine")


class TestAteRmse:
    def test_identical_is_zero(self, rng):
        t = rng.normal(size=(5, 3))
        assert ate_rmse(t, t) == 0.0

    def test_single_offset_among_nine(self):
        gt = np.zeros((9, 3))
        gt[:, 0] = np.arange(9.0)
        est = gt.copy()
        est[4, 1] += 0.03
        assert ate_rmse(est, gt) == pytest.approx(0.01, abs=1e-12)

    def test_invariant_under_joint_rigid_motion(self, rng):
        gt = rng.normal(size=(7, 3))
        est = gt + rng.normal(0, 0.05, size=(7, 3))
        base = ate_rmse(est, gt)
        rot = se3_exp([0, 0, 0, 0.3, 0.1, -0.2]).rotation_matrix()
        shift = np.array([1.0, 2.0, 3.0])
        assert ate_rmse(est @ rot.T + shift, gt @ rot.T + shift) == pytest.approx(base, abs=1e-12)

    def test_trajectory_ate_on_w2c_poses(self, rng):
        poses = [se3_exp(rng.normal(0, 0.2, 6)) for _ in range(5)]
        assert trajectory_ate(poses, poses, "rigid") < 1e-9
