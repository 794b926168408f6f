"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. Criterion 5's ratio threshold (0.35) was pinned from the first
measurement run of the paired oracle (measured median ratio 0.209, target 0.5).
"""

import time

import numpy as np
import pytest

from semba.evaluation import (LabelSet, SemanticPointCloud, assign_labels, knn_transfer,
                              seg_metrics, trajectory_ate)
from semba.geometry import reproject, reprojection_jacobian, se3_exp
from semba.residuals import total_energy
from semba.robust import barron_psi, barron_rho
from semba.solver import SolverConfig, assemble, kernel_alphas, solve, solve_normal_equations
from semba.synthscene import SceneConfig, gen_scene
from shared import (K, ToyBundle, brute_force_normal_equations, central_differences, edge_eval,
                    off_grid_lines, smooth_map)


def report(criterion, detail):
    print(f"[PASS] criterion {criterion}: {detail}")


class TestCriterion1Jacobians:
    def test_derivatives_match_finite_differences(self, rng):
        start = time.time()

        worst_reproj = 0.0
        checked = 0
        while checked < 100:
            t_i = se3_exp(rng.normal(0, 0.2, 6))
            t_j = se3_exp(rng.normal(0, 0.2, 6))
            u = rng.uniform(5, 55, size=2)
            d = rng.uniform(0.3, 1.5)
            adjoint, j_j, j_d, _, valid = reprojection_jacobian(u, d, t_i, t_j, K)
            if not valid:
                continue
            checked += 1
            eps = 1e-6
            for which, analytic in (("i", -j_j @ adjoint), ("j", j_j)):
                fd = np.zeros((2, 6))
                for k in range(6):
                    tw = np.zeros(6)
                    tw[k] = eps
                    if which == "i":
                        args_p = (se3_exp(tw).compose(t_i), t_j)
                        args_m = (se3_exp(-tw).compose(t_i), t_j)
                    else:
                        args_p = (t_i, se3_exp(tw).compose(t_j))
                        args_m = (t_i, se3_exp(-tw).compose(t_j))
                    mu_p, _ = reproject(u, d, *args_p, K)
                    mu_m, _ = reproject(u, d, *args_m, K)
                    fd[:, k] = (mu_p - mu_m) / (2 * eps)
                worst_reproj = max(worst_reproj,
                                   np.abs(analytic - fd).max() / max(np.abs(fd).max(), 1.0))
            mu_p, _ = reproject(u, d + eps, t_i, t_j, K)
            mu_m, _ = reproject(u, d - eps, t_i, t_j, K)
            fd_d = (mu_p - mu_m) / (2 * eps)
            worst_reproj = max(worst_reproj,
                               np.abs(j_d - fd_d).max() / max(np.abs(fd_d).max(), 1.0))
        assert worst_reproj < 1e-4

        # The solver's own path: every Jacobian evaluate_edge assembles is
        # checked against central differences of its value-only residuals.
        worst_embed = 0.0
        worst_flow = 0.0
        checked = 0
        while checked < 100:
            z_i = smooth_map(rng, passes=5)
            z_j = smooth_map(rng, passes=5)
            t_i = se3_exp(rng.normal(0, 0.05, 6))
            t_j = se3_exp(rng.normal(0, 0.05, 6))
            d = rng.uniform(0.3, 1.2, size=(24, 32))
            ev = edge_eval(z_i, z_j, d, t_i, t_j, with_jacobians=True)
            fd_fi, fd_ei, okf_i, oke_i = central_differences(
                lambda k, h: edge_eval(z_i, z_j, d, se3_exp(h * np.eye(6)[k]).compose(t_i),
                                       t_j), 6)
            fd_fj, fd_ej, okf_j, oke_j = central_differences(
                lambda k, h: edge_eval(z_i, z_j, d, t_i,
                                       se3_exp(h * np.eye(6)[k]).compose(t_j)), 6)
            fd_fdisp, fd_edisp, okf_d, oke_d = central_differences(
                lambda k, h: edge_eval(z_i, z_j, d + h, t_i, t_j), 1)
            smooth = off_grid_lines(d, t_i, t_j)

            used = smooth & oke_i & oke_j & oke_d & ev.valid_embed & (ev.r_embed >= 1e-3)
            checked += int(used.sum())
            fd = np.concatenate([fd_ei, fd_ej, fd_edisp], axis=1)[used]
            # Columns [disparity | pose j]; pose i's are pose j's times -Ad(T_ji).
            analytic = np.concatenate([-ev.je[:, 1:] @ ev.adjoint, ev.je[:, 1:], ev.je[:, :1]],
                                      axis=1)[used]
            scale = np.maximum(np.abs(fd).max(axis=1), 1e-3)
            worst_embed = max(worst_embed, (np.abs(analytic - fd).max(axis=1) / scale).max())

            used = smooth & okf_i & okf_j & okf_d & ev.valid_flow
            for analytic, fd in ((-ev.jf[..., 1:] @ ev.adjoint, fd_fi), (ev.jf[..., 1:], fd_fj),
                                 (ev.jf[..., :1], fd_fdisp)):
                err = np.abs(analytic[used] - fd[used]).max(axis=(1, 2))
                scale = np.maximum(np.abs(fd[used]).max(axis=(1, 2)), 1.0)
                worst_flow = max(worst_flow, (err / scale).max())
        assert worst_embed < 1e-4
        assert worst_flow < 1e-4

        worst_psi = 0.0
        for alpha in (-4.0, -2.0, 0.0, 1.0, 2.0):
            for r in np.linspace(0.02, 5.0, 120):
                fd = (barron_rho(r + 1e-6, alpha, 1.0)
                      - barron_rho(r - 1e-6, alpha, 1.0)) / 2e-6
                worst_psi = max(worst_psi, abs(barron_psi(r, alpha, 1.0) - fd)
                                / max(abs(fd), 1.0))
        assert worst_psi < 1e-4

        elapsed = time.time() - start
        assert elapsed < 10.0
        report(1, f"reprojection {worst_reproj:.2e}, evaluate_edge embedding {worst_embed:.2e} "
                  f"and flow {worst_flow:.2e}, psi {worst_psi:.2e} rel. FD error in {elapsed:.1f}s")


class TestCriterion2BarronTable:
    def test_reference_values_and_continuity(self):
        table = [
            (0.0, 1.3, 0.0),
            (1.0, 2.0, 0.5),
            (1.0, 1.0, np.sqrt(2.0) - 1.0),
            (1.0, 0.0, np.log(1.5)),
            (1.0, -2.0, 0.4),
        ]
        for r, alpha, expected in table:
            assert abs(barron_rho(r, alpha, 1.0) - expected) <= 1e-9
        r = np.linspace(0.05, 5.0, 60)
        worst = 0.0
        for edge in (2.0, 0.0):
            for boundary in (edge - 1e-3, edge + 1e-3):
                below = barron_rho(r, boundary - 1e-9, 1.0)
                above = barron_rho(r, boundary + 1e-9, 1.0)
                worst = max(worst, np.abs(below - above).max())
            for sign in (1.0, -1.0):
                worst = max(worst, np.abs(barron_rho(r, edge + sign * 2e-9, 1.0)
                                          - barron_rho(r, edge, 1.0)).max())
        assert worst <= 1e-6
        report(2, f"five reference losses exact to 1e-9; switch mismatch {worst:.2e}")


class TestCriterion3OracleConsistency:
    def test_ground_truth_energy_vanishes(self):
        bundle = gen_scene(SceneConfig(num_keyframes=8, height=48, width=64, seed=7))
        graph, config = bundle.to_graph(initial=False), SolverConfig()
        e = total_energy(graph, config, kernel_alphas(graph, config))
        assert e.total <= 1e-9
        report(3, f"noise-free bundle E_total at ground truth = {e.total:.2e}")


class TestCriterion4Convergence:
    def test_recovers_perturbed_poses(self):
        bundle = gen_scene(SceneConfig(num_keyframes=8, height=48, width=64,
                                       pose_sigma=0.01, seed=7))
        start = time.time()
        opt, trace = solve(bundle.to_graph(initial=True), SolverConfig(max_iters=15))
        elapsed = time.time() - start
        iters = max(r.iteration for r in trace)
        ate = trajectory_ate([kf.pose for kf in opt.keyframes], bundle.gt_poses, "rigid")
        assert ate <= 1e-4
        assert iters <= 15
        assert elapsed < 60.0
        report(4, f"ATE {ate:.2e} m in {iters} iterations, {elapsed:.1f}s")


class TestCriterion5DynamicRobustness:
    # Pinned from the first paired-oracle measurement run (median ratio 0.209).
    RATIO_THRESHOLD = 0.35

    def test_ark_beats_fixed_l2_on_dynamic_scenes(self):
        ark, l2 = [], []
        for seed in range(10):
            bundle = gen_scene(SceneConfig(num_keyframes=6, height=36, width=48,
                                           pose_sigma=0.01, dynamic_fraction=0.2,
                                           dynamic_motion_px=5.0,
                                           embedding_decorrelation=1.0, seed=seed))
            for fixed_alpha, acc in ((None, ark), (2.0, l2)):
                opt, _ = solve(bundle.to_graph(initial=True),
                               SolverConfig(max_iters=15, fixed_alpha=fixed_alpha))
                acc.append(trajectory_ate([kf.pose for kf in opt.keyframes],
                                          bundle.gt_poses, "rigid"))
        med_ark = float(np.median(ark))
        med_l2 = float(np.median(l2))
        assert med_ark < med_l2
        assert med_ark / med_l2 <= self.RATIO_THRESHOLD
        report(5, f"median ATE ark {med_ark:.4f} vs fixed-alpha=2 {med_l2:.4f} "
                  f"(ratio {med_ark / med_l2:.3f} <= {self.RATIO_THRESHOLD})")


class TestCriterion6NormalEquationOracle:
    def test_assembly_and_solve_match_dense_reference(self):
        toy = ToyBundle(seed=5)
        graph = toy.to_graph()
        config = SolverConfig(max_iters=5)
        ne = assemble(graph, config, kernel_alphas(graph, config))
        n = ne.layout.n_total
        assert n <= 500
        h_dense, b_dense = ne.to_dense()
        h_ref, b_ref = brute_force_normal_equations(graph, config)
        h_err = np.abs(h_dense - h_ref).max() / max(np.abs(h_ref).max(), 1.0)
        b_err = np.abs(b_dense - b_ref).max() / max(np.abs(b_ref).max(), 1.0)
        assert h_err < 1e-9 and b_err < 1e-9

        lm = 1e-4
        delta = solve_normal_equations(ne, lm)
        h_damped = h_ref + lm * np.diag(np.diag(h_ref))
        dense = np.linalg.solve(h_damped, -b_ref)
        s_err = np.abs(delta - dense).max() / max(np.abs(dense).max(), 1e-12)
        assert s_err < 1e-8
        report(6, f"{n} unknowns: H err {h_err:.1e}, b err {b_err:.1e}, "
                  f"Schur vs dense step err {s_err:.1e}")


class TestCriterion7SemanticPipeline:
    def test_perfect_labelling_and_pinned_fixtures(self, rng):
        # Labelling accuracy is 100% on noise-free scene points whose
        # embeddings are the class vectors themselves.
        bundle = gen_scene(SceneConfig(num_keyframes=4, height=24, width=32, seed=3))
        pts, labs = [], []
        from semba.geometry import unproject
        for k in range(4):
            h, w = bundle.labels[k].shape
            ys, xs = np.mgrid[0:h:2, 0:w:2]
            d = bundle.gt_disparity[k][ys, xs].reshape(-1)
            u = np.stack([xs, ys], -1).reshape(-1, 2).astype(float)
            cam = unproject(u, d, bundle.intrinsics)
            pts.append(bundle.gt_poses[k].inverse().apply(cam))
            labs.append(bundle.labels[k][ys, xs].reshape(-1))
        names = [f"class_{c}" for c in range(bundle.class_vectors.shape[0])]
        labelset = LabelSet(names=names, vectors=bundle.class_vectors)
        scene_cloud = SemanticPointCloud(points=np.concatenate(pts),
                                         embeddings=bundle.class_vectors[np.concatenate(labs)])
        assert np.array_equal(assign_labels(scene_cloud, labelset).labels,
                              np.concatenate(labs))

        # Full pipeline on spatially separated class clusters: the 5-NN
        # transfer stays within each cluster and every metric is exactly 1.
        num_classes = bundle.class_vectors.shape[0]
        pts, labs = [], []
        for c in range(num_classes):
            center = 10.0 * np.eye(3)[c % 3] * (1 + c // 3) + c
            pts.append(center + rng.uniform(-0.4, 0.4, size=(40, 3)))
            labs.append(np.full(40, c))
        pts = np.concatenate(pts)
        labs = np.concatenate(labs)
        cloud = SemanticPointCloud(points=pts, embeddings=bundle.class_vectors[labs])
        labelled = assign_labels(cloud, labelset)
        assert np.array_equal(labelled.labels, labs)
        transferred = knn_transfer(labelled, pts)
        m = seg_metrics(transferred, labs)
        assert m.miou == 1.0 and m.fmiou == 1.0 and m.macc == 1.0

        # Pinned 3-class confusion fixture.
        gt = np.array([0, 0, 0, 0, 1, 1, 1, 2, 2, 2])
        pred = np.array([0, 0, 1, 2, 1, 1, 0, 2, 2, 2])
        f = seg_metrics(pred, gt)
        assert np.abs(f.iou - [0.4, 0.5, 0.75]).max() <= 1e-9
        assert abs(f.miou - 0.55) <= 1e-9
        assert abs(f.fmiou - 0.535) <= 1e-9
        assert abs(f.macc - (0.5 + 2.0 / 3.0 + 1.0) / 3.0) <= 1e-9

        # KD-tree 5-NN majority and tie rules.
        def cloud_of(pts_, labels_):
            return SemanticPointCloud(points=np.asarray(pts_, float),
                                      embeddings=np.ones((len(pts_), 2)),
                                      labels=np.asarray(labels_))
        majority = cloud_of([[0.1, 0, 0], [0.2, 0, 0], [0.3, 0, 0], [0.4, 0, 0],
                             [0.5, 0, 0]], [7, 7, 7, 3, 3])
        assert knn_transfer(majority, np.zeros((1, 3)))[0] == 7
        tied = cloud_of([[0.1, 0, 0], [0.5, 0, 0], [0.2, 0, 0], [0.4, 0, 0],
                         [0.3, 0, 0]], [9, 9, 4, 4, 1])
        assert knn_transfer(tied, np.zeros((1, 3)))[0] == 9
        report(7, "perfect-cloud metrics all 1.0; confusion fixture and 5-NN "
                  "majority/tie rules exact")


class TestCriterion8FormatRoundTrips:
    def test_bit_faithful_files_and_diagnostics(self, tmp_path, capsys):
        from semba.cli import main
        from semba.tensorio import (FileFormatError, read_pca, read_point_cloud, read_tensor,
                                    read_trajectory, write_pca, write_point_cloud,
                                    write_tensor, write_trajectory)
        from semba.features import PcaModel

        rng = np.random.default_rng(0)

        # KMVT round trip, byte-for-byte.
        arr = rng.normal(size=(3, 6, 7))
        t1, t2 = tmp_path / "a.kmvt", tmp_path / "b.kmvt"
        write_tensor(t1, arr)
        write_tensor(t2, read_tensor(t1))
        assert t1.read_bytes() == t2.read_bytes()

        # KMVP round trip.
        p1, p2 = tmp_path / "a.kmvp", tmp_path / "b.kmvp"
        samples = rng.normal(size=(30, 5))
        write_pca(p1, PcaModel(samples.mean(axis=0), np.linalg.qr(samples.T)[0][:, :3]))
        write_pca(p2, read_pca(p1))
        assert p1.read_bytes() == p2.read_bytes()

        # PLY round trip.
        c1, c2 = tmp_path / "a.ply", tmp_path / "b.ply"
        write_point_cloud(c1, rng.normal(size=(9, 3)).astype(np.float32),
                          rng.integers(0, 4, size=9).astype(np.int32))
        write_point_cloud(c2, *read_point_cloud(c1))
        assert c1.read_bytes() == c2.read_bytes()

        # TUM round trip, over small and large rotations.
        from semba.geometry import Pose
        j1, j2 = tmp_path / "a.txt", tmp_path / "b.txt"
        for scale in (0.2, 1.0):
            for draw in range(200):
                poses = [se3_exp(rng.normal(0, scale, 6)) for _ in range(5)]
                write_trajectory(j1, poses)
                ts, pos, quat = read_trajectory(j1)
                write_trajectory(j2, [Pose(q, t) for q, t in zip(quat, pos)],
                                 timestamps=ts, world_to_camera=False)
                assert j1.read_bytes() == j2.read_bytes(), f"scale {scale}, draw {draw}"

        # Corrupted magic through the consuming command: named-file diagnostic.
        import shutil
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("scene:\n  num_keyframes: 3\n  height: 24\n  width: 32\n  seed: 1\n")
        bundle = tmp_path / "bundle"
        assert main(["synth", str(bundle), "--config", str(cfg)]) == 0
        victim = bundle / "edges"
        target = sorted(victim.glob("*_flow.kmvt"))[0]
        blob = bytearray(target.read_bytes())
        blob[:4] = b"ZZZZ"
        target.write_bytes(bytes(blob))
        assert main(["ba", str(bundle), str(tmp_path / "out")]) == 2
        assert target.name in capsys.readouterr().err
        report(8, "KMVT/KMVP/PLY/TUM byte-faithful; corrupted magic names the file")


class TestCriterion9Determinism:
    def test_identical_seeds_identical_artifacts(self, tmp_path):
        from semba.cli import main
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("scene:\n  num_keyframes: 4\n  height: 24\n  width: 32\n"
                       "  pose_sigma: 0.01\n  seed: 6\nsolver:\n  max_iters: 10\n")
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["synth", str(a), "--config", str(cfg)]) == 0
        assert main(["synth", str(b), "--config", str(cfg)]) == 0
        files = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
        assert files == sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
        for rel in files:
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel

        oa, ob = tmp_path / "oa", tmp_path / "ob"
        assert main(["ba", str(a), str(oa), "--config", str(cfg)]) == 0
        assert main(["ba", str(b), str(ob), "--config", str(cfg)]) == 0
        assert (oa / "energy_trace.csv").read_bytes() == (ob / "energy_trace.csv").read_bytes()
        assert (oa / "trajectory.txt").read_bytes() == (ob / "trajectory.txt").read_bytes()
        report(9, "byte-identical bundles and identical energy traces across runs")
