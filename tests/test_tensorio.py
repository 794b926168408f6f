import numpy as np
import pytest

from semba.evaluation import LabelSet, seg_metrics
from semba.geometry import Pose, se3_exp
from semba.solver import IterationRecord
from semba.synthscene import SceneConfig, gen_scene
from semba.tensorio import (FileFormatError, load_problem_bundle, read_labelset, read_pca,
                            read_point_cloud, read_tensor, read_trajectory, write_energy_trace,
                            write_labelset, write_pca, write_point_cloud, write_problem_bundle,
                            write_seg_metrics, write_tensor, write_trajectory)
from shared import qr_model


class TestTensorFormat:
    def test_f64_roundtrip_bit_faithful(self, tmp_path, rng):
        arr = rng.normal(size=(3, 5, 7))
        path = tmp_path / "t.kmvt"
        write_tensor(path, arr)
        back = read_tensor(path)
        assert back.dtype == np.float64
        assert np.array_equal(back, arr)
        # Re-writing what was read reproduces the bytes exactly.
        path2 = tmp_path / "t2.kmvt"
        write_tensor(path2, back)
        assert path.read_bytes() == path2.read_bytes()

    def test_f32_roundtrip(self, tmp_path, rng):
        arr = rng.normal(size=(2, 4, 4)).astype(np.float32)
        path = tmp_path / "t.kmvt"
        write_tensor(path, arr, dtype="float32")
        back = read_tensor(path)
        assert back.dtype == np.float32
        assert np.array_equal(back, arr)

    def test_2d_maps_get_single_channel(self, tmp_path, rng):
        arr = rng.normal(size=(6, 8))
        path = tmp_path / "m.kmvt"
        write_tensor(path, arr)
        back = read_tensor(path)
        assert back.shape == (1, 6, 8)

    def test_corrupted_magic_names_file(self, tmp_path, rng):
        path = tmp_path / "bad.kmvt"
        write_tensor(path, rng.normal(size=(1, 2, 2)))
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(FileFormatError, match="bad.kmvt"):
            read_tensor(path)

    def test_truncated_payload(self, tmp_path, rng):
        path = tmp_path / "cut.kmvt"
        write_tensor(path, rng.normal(size=(1, 4, 4)))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FileFormatError, match="truncated"):
            read_tensor(path)

    def test_header_sizes(self, tmp_path, rng):
        path = tmp_path / "hdr.kmvt"
        write_tensor(path, rng.normal(size=(2, 3, 4)), dtype="float32")
        blob = path.read_bytes()
        # magic + 5 u32 header words + payload
        assert len(blob) == 4 + 20 + 2 * 3 * 4 * 4


class TestPcaFormat:
    def test_roundtrip(self, tmp_path, rng):
        model = qr_model(rng, 6, 3)
        path = tmp_path / "m.kmvp"
        write_pca(path, model)
        back = read_pca(path)
        assert np.allclose(back.mean, model.mean, atol=1e-6)
        assert np.allclose(back.basis, model.basis, atol=1e-6)
        path2 = tmp_path / "m2.kmvp"
        write_pca(path2, back)
        assert path.read_bytes() == path2.read_bytes()

    def test_corrupted_magic(self, tmp_path, rng):
        path = tmp_path / "bad.kmvp"
        write_pca(path, qr_model(rng, 4, 2))
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(FileFormatError, match="bad.kmvp"):
            read_pca(path)

    def test_layout_is_binary32(self, tmp_path, rng):
        path = tmp_path / "m.kmvp"
        write_pca(path, qr_model(rng, 5, 2))
        assert len(path.read_bytes()) == 4 + 8 + 4 * 5 + 4 * 5 * 2

    @pytest.mark.parametrize("keep, part", [(4 + 8 + 5, "mean"), (4 + 8 + 4 * 5 + 4, "basis")],
                             ids=["mean", "basis"])
    def test_truncated_file_names_file(self, tmp_path, rng, keep, part):
        path = tmp_path / "cut.kmvp"
        write_pca(path, qr_model(rng, 5, 2))
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(FileFormatError, match=f"cut.kmvp: truncated PCA {part}"):
            read_pca(path)


class TestTrajectoryFormat:
    def test_roundtrip_exact(self, tmp_path, rng):
        poses = [se3_exp(rng.normal(0, 0.3, 6)) for _ in range(6)]
        path = tmp_path / "traj.txt"
        write_trajectory(path, poses, timestamps=[0.5 * k for k in range(6)])
        ts, pos, quat = read_trajectory(path)
        assert np.array_equal(ts, 0.5 * np.arange(6))
        back = [Pose(q, t).inverse() for q, t in zip(quat, pos)]
        for a, b in zip(back, poses):
            assert np.abs(a.matrix() - b.matrix()).max() < 1e-12

    def test_stores_camera_to_world(self, tmp_path):
        pose = Pose(np.array([0.0, 0.0, 0.0, 1.0]), np.array([1.0, 2.0, 3.0]))
        path = tmp_path / "traj.txt"
        write_trajectory(path, [pose, pose, pose])
        _, pos, _ = read_trajectory(path)
        assert np.allclose(pos[0], pose.camera_center())

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0.0 1.0 2.0\n")
        with pytest.raises(FileFormatError, match="bad.txt:1"):
            read_trajectory(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# only comments\n")
        with pytest.raises(FileFormatError, match="empty"):
            read_trajectory(path)

    def test_non_numeric_field(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1 2 3 0 0 0 1\n1 1 two 3 0 0 0 1\n")
        with pytest.raises(FileFormatError, match="bad.txt:2: non-numeric"):
            read_trajectory(path)

    def test_comments_skipped(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("# header\n0 1 2 3 0 0 0 1\n")
        ts, pos, _ = read_trajectory(path)
        assert len(ts) == 1 and np.array_equal(pos[0], [1.0, 2.0, 3.0])


class TestPlyFormat:
    def test_roundtrip_bit_faithful(self, tmp_path, rng):
        pts = rng.normal(size=(17, 3)).astype(np.float32)
        labels = rng.integers(-1, 5, size=17).astype(np.int32)
        path = tmp_path / "cloud.ply"
        write_point_cloud(path, pts, labels)
        back_pts, back_labels = read_point_cloud(path)
        assert np.array_equal(back_pts, pts)
        assert np.array_equal(back_labels, labels)
        path2 = tmp_path / "cloud2.ply"
        write_point_cloud(path2, back_pts, back_labels)
        assert path.read_bytes() == path2.read_bytes()

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.ply"
        path.write_bytes(b"not a ply at all")
        with pytest.raises(FileFormatError, match="bad.ply"):
            read_point_cloud(path)

    @pytest.mark.parametrize("old, new, expected", [
        (b"property float x", b"property double x", "unsupported PLY property"),
        (b"element vertex 4", b"element vertex 5", "truncated PLY payload"),
        (b"element vertex 4", b"element vertex four", "bad PLY vertex count"),
    ], ids=["double-property", "short-payload", "non-integer-count"])
    def test_malformed_header_names_file(self, tmp_path, old, new, expected):
        path = tmp_path / "bad.ply"
        write_point_cloud(path, np.zeros((4, 3)))
        path.write_bytes(path.read_bytes().replace(old, new, 1))
        with pytest.raises(FileFormatError, match=f"bad.ply: {expected}"):
            read_point_cloud(path)


class TestLabelSetFormat:
    def test_roundtrip(self, tmp_path, rng):
        labels = LabelSet(names=["chair", "cup", "wall"], vectors=rng.normal(size=(3, 5)))
        path = tmp_path / "labels.csv"
        write_labelset(path, labels)
        back = read_labelset(path)
        assert back.names == labels.names
        assert np.array_equal(back.vectors, labels.vectors)

    def test_malformed_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("loner\n")
        with pytest.raises(FileFormatError, match="bad.csv:1"):
            read_labelset(path)

    def test_non_numeric_value(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("chair,1.0,0.0\ncup,0.0,x\n")
        with pytest.raises(FileFormatError, match="bad.csv:2: non-numeric"):
            read_labelset(path)

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("chair,1.0,0.0\ncup,0.0,1.0,2.0\n")
        with pytest.raises(FileFormatError, match="bad.csv:2: expected 2 values"):
            read_labelset(path)

    def test_single_class_names_file(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("chair,1.0,0.0\n")
        with pytest.raises(FileFormatError, match="bad.csv: need at least two"):
            read_labelset(path)


class TestMetricsAndTrace:
    def test_metrics_csv_layout(self, tmp_path):
        gt = np.array([0, 0, 0, 0, 1, 1, 1, 2, 2, 2])
        pred = np.array([0, 0, 1, 2, 1, 1, 0, 2, 2, 2])
        m = seg_metrics(pred, gt, class_names={0: "floor", 1: "cup", 2: "wall"})
        path = tmp_path / "metrics.csv"
        write_seg_metrics(path, m)
        lines = path.read_text().splitlines()
        assert lines[0] == "class,iou,acc,count,group"
        assert lines[1].startswith("floor,0.400000,")
        assert any(l.startswith("summary,miou,0.55") for l in lines)
        assert any(l.startswith("summary,miou_head,") for l in lines)

    def test_energy_trace_csv(self, tmp_path):
        trace = [IterationRecord(0, 1.5, 1.0, 0.25, 0.25, True),
                 IterationRecord(1, 0.5, 0.25, 0.125, 0.125, False)]
        path = tmp_path / "trace.csv"
        write_energy_trace(path, trace)
        lines = path.read_text().splitlines()
        assert lines[0] == "iter,E_total,E_photo_ark,E_embed,E_reg,accepted"
        assert lines[1] == "0,1.5,1.0,0.25,0.25,1"
        assert lines[2] == "1,0.5,0.25,0.125,0.125,0"


class TestProblemBundle:
    def test_write_load_roundtrip(self, tmp_path):
        bundle = gen_scene(SceneConfig(num_keyframes=3, height=24, width=32,
                                       pose_sigma=0.01, seed=4))
        out = tmp_path / "bundle"
        write_problem_bundle(out, bundle)
        graph = load_problem_bundle(out)
        assert len(graph.keyframes) == 3
        assert len(graph.edges) == len(bundle.edges)
        assert graph.keyframes[0].frozen and not graph.keyframes[1].frozen
        for kf, init_pose, disp, feat in zip(
                graph.keyframes, bundle.init_poses, bundle.gt_disparity, bundle.features):
            assert np.array_equal(kf.disparity, disp)
            assert np.array_equal(kf.disparity_prior, disp)
            assert np.array_equal(kf.features, feat)
            assert np.abs(kf.pose.matrix() - init_pose.matrix()).max() < 1e-12
        for obs, ref in zip(graph.edges, bundle.edges):
            assert (obs.i, obs.j) == (ref.i, ref.j)
            assert np.array_equal(obs.flow, ref.flow)
            assert np.array_equal(obs.confidence, ref.confidence)

    def test_ground_truth_artifacts_present(self, tmp_path):
        bundle = gen_scene(SceneConfig(num_keyframes=3, height=24, width=32, seed=4))
        out = tmp_path / "bundle"
        write_problem_bundle(out, bundle)
        gt = out / "ground_truth"
        assert (gt / "trajectory.txt").exists()
        assert (gt / "labelset.csv").exists()
        pts, labels = read_point_cloud(gt / "cloud.ply")
        assert pts.shape[0] > 0 and labels is not None
        lab_map = read_tensor(gt / "kf_000_labels.kmvt")
        assert lab_map.shape == (1, 24, 32)

    def test_missing_graph_json(self, tmp_path):
        with pytest.raises(FileFormatError, match="graph.json"):
            load_problem_bundle(tmp_path)

    def test_energy_preserved_through_files(self, tmp_path):
        # The whole point of the f64 tensor default: the on-disk problem
        # evaluates exactly like the in-memory one.
        from semba.residuals import total_energy
        from semba.solver import SolverConfig, kernel_alphas
        bundle = gen_scene(SceneConfig(num_keyframes=3, height=24, width=32, seed=4))
        out = tmp_path / "bundle"
        write_problem_bundle(out, bundle)
        graph = load_problem_bundle(out)
        config = SolverConfig()
        assert total_energy(graph, config, kernel_alphas(graph, config)).total <= 1e-9
