import re

import numpy as np
import pytest

from semba.cli import main
from semba.evaluation import align_trajectories, ate_rmse
from semba.features import PcaModel, pca_decode
from semba.tensorio import (read_point_cloud, read_tensor, read_trajectory, write_pca,
                            write_point_cloud, write_tensor, write_trajectory)
from shared import qr_model


def write_config(path, text):
    path.write_text(text)
    return str(path)


# Config values of the wrong type, each as (section, key, YAML value).
WRONG_TYPES = [("solver", "max_iters", "abc"), ("solver", "max_iters", "2.5"),
               ("solver", "max_iters", "true"), ("scene", "height", '"48"'),
               ("solver", "fixed_alpha", "abc"), ("solver", "optimize_intrinsics", "1"),
               ("scene", "pose_sigma", "[1, 2]"), ("evaluation", "cloud_stride", '"a"')]
WRONG_TYPE_IDS = ["max_iters-str", "max_iters-float", "max_iters-bool", "height-str",
                  "fixed_alpha-str", "optimize_intrinsics-int", "pose_sigma-list",
                  "cloud_stride-str"]


def edited_bundle(bundle, tmp_path, edit):
    """A copy of bundle whose graph.json document went through edit(doc)."""
    import json
    import shutil
    broken = tmp_path / "broken"
    shutil.copytree(bundle, broken)
    doc = json.loads((broken / "graph.json").read_text())
    edit(doc)
    (broken / "graph.json").write_text(json.dumps(doc))
    return broken


@pytest.fixture(scope="module")
def small_cfg_text():
    return """
scene:
  num_keyframes: 5
  height: 24
  width: 32
  pose_sigma: 0.01
  seed: 11
solver:
  max_iters: 12
"""


@pytest.fixture(scope="module")
def synth_run(tmp_path_factory, small_cfg_text):
    root = tmp_path_factory.mktemp("cli")
    cfg = write_config(root / "cfg.yaml", small_cfg_text)
    bundle = root / "bundle"
    assert main(["synth", str(bundle), "--config", cfg]) == 0
    return root, cfg, bundle


class TestSynth:
    def test_bundle_loadable_by_ba(self, synth_run, tmp_path):
        root, cfg, bundle = synth_run
        out = tmp_path / "out"
        assert main(["ba", str(bundle), str(out), "--config", cfg]) == 0
        assert (out / "trajectory.txt").exists()
        assert (out / "energy_trace.csv").exists()
        assert (out / "disparity" / "kf_000.kmvt").exists()

    def test_same_seed_byte_identical(self, small_cfg_text, tmp_path):
        cfg = write_config(tmp_path / "cfg.yaml", small_cfg_text)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["synth", str(a), "--config", cfg]) == 0
        assert main(["synth", str(b), "--config", cfg]) == 0
        files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel

    def test_seed_flag_overrides(self, small_cfg_text, tmp_path):
        cfg = write_config(tmp_path / "cfg.yaml", small_cfg_text)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["synth", str(a), "--config", cfg, "--seed", "11"]) == 0
        assert main(["synth", str(b), "--config", cfg, "--seed", "12"]) == 0
        assert (a / "graph.json").read_bytes() != (b / "graph.json").read_bytes()

    def test_dynamic_fraction_reported(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.yaml", """
scene:
  num_keyframes: 4
  height: 24
  width: 32
  dynamic_fraction: 0.2
  seed: 3
""")
        assert main(["synth", str(tmp_path / "dyn"), "--config", cfg]) == 0
        out = capsys.readouterr().out
        frac = float(out.rsplit(":", 1)[1])
        assert 0.18 <= frac <= 0.22

    def test_invalid_config_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.yaml", "scene:\n  nonsense_knob: 3\n")
        assert main(["synth", str(tmp_path / "x"), "--config", cfg]) != 0
        assert "nonsense_knob" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, value", WRONG_TYPES, ids=WRONG_TYPE_IDS)
    def test_wrong_value_type_rejected(self, tmp_path, capsys, section, key, value):
        cfg = write_config(tmp_path / "cfg.yaml", f"{section}:\n  {key}: {value}\n")
        assert main(["synth", str(tmp_path / "x"), "--config", cfg]) == 1
        assert f"error: {section}.{key} must be" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


class TestBa:
    def test_noise_free_bundle_reaches_zero_energy(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.yaml", """
scene:
  num_keyframes: 4
  height: 24
  width: 32
  seed: 5
""")
        bundle = tmp_path / "bundle"
        out = tmp_path / "out"
        assert main(["synth", str(bundle), "--config", cfg]) == 0
        assert main(["ba", str(bundle), str(out), "--config", cfg]) == 0
        rows = (out / "energy_trace.csv").read_text().splitlines()[1:]
        final_total = float(rows[-1].split(",")[1])
        assert final_total <= 1e-9

    def test_corrupted_tensor_magic_names_file(self, synth_run, tmp_path, capsys):
        import shutil
        root, cfg, bundle = synth_run
        broken = tmp_path / "broken"
        shutil.copytree(bundle, broken)
        victim = broken / "keyframes" / "kf_001_disparity.kmvt"
        blob = bytearray(victim.read_bytes())
        blob[:4] = b"JUNK"
        victim.write_bytes(bytes(blob))
        assert main(["ba", str(broken), str(tmp_path / "out")]) == 2
        assert "kf_001_disparity.kmvt" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", ["second_camera", "second_stream"])
    def test_more_than_one_camera_rejected(self, synth_run, tmp_path, capsys, edit):
        from semba.tensorio import FileFormatError, load_problem_bundle
        root, cfg, bundle = synth_run

        def second_camera(doc):
            if edit == "second_camera":
                doc["intrinsics"]["1"] = doc["intrinsics"]["0"]
            else:
                doc["keyframes"][1]["stream"] = 1

        broken = edited_bundle(bundle, tmp_path, second_camera)
        with pytest.raises(FileFormatError, match="graph.json"):
            load_problem_bundle(broken)
        assert main(["ba", str(broken), str(tmp_path / "out")]) == 2
        assert "graph.json" in capsys.readouterr().err

    # Each case deletes the field at path, or sets it to a value of the wrong type.
    @pytest.mark.parametrize("path, value", [(("intrinsics", "0", "fx"), None),
                                             (("keyframes", 1, "features"), None),
                                             (("edges", 0, "flow"), None), (("edges",), None),
                                             (("keyframes", 1, "frozen"), "false"),
                                             (("keyframes", 2, "timestamp"), "soon")],
                             ids=["camera_fx", "keyframe_features", "edge_flow", "edges",
                                  "keyframe_frozen_str", "keyframe_timestamp_str"])
    def test_missing_field_names_graph_json(self, synth_run, tmp_path, capsys, path, value):
        from semba.tensorio import FileFormatError, load_problem_bundle
        root, cfg, bundle = synth_run

        def set_field(doc):
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            if value is None:
                del parent[path[-1]]
            else:
                parent[path[-1]] = value

        broken = edited_bundle(bundle, tmp_path, set_field)
        with pytest.raises(FileFormatError, match=rf"graph\.json: .*'{path[-1]}'"):
            load_problem_bundle(broken)
        assert main(["ba", str(broken), str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "graph.json" in err and f"'{path[-1]}'" in err
        if len(path) == 3 and isinstance(path[1], int):
            assert f"{path[0]}[{path[1]}]" in err  # the keyframe or edge entry

    # Each case sets the value at path; expected is the part of the message after graph.json.
    @pytest.mark.parametrize("path, value, expected", [
        (("edges", 0, "i"), 99, "edge (99, 1) references a missing keyframe"),
        (("edges", 0, "j"), 0, "edges[0]: self-edge (0, 0)"),
        (("keyframes", 1, "index"), 2, "keyframe at position 1 carries index 2"),
        (("keyframes", 1, "pose_w2c"), [0.0, 0.0, 1.0],
         "keyframes[1] field 'pose_w2c' must hold 7 numbers"),
        (("intrinsics", "0", "fx"), -1, "camera '0': focal lengths must be positive"),
        # Python's json reads NaN and Infinity.
        (("keyframes", 1, "pose_w2c"), [float("nan"), 0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
         "keyframes[1] field 'pose_w2c' must hold finite numbers"),
        (("intrinsics", "0", "cx"), float("nan"), "camera '0' field 'cx' must be finite, got nan"),
        (("keyframes", 2, "timestamp"), float("inf"),
         "keyframes[2] field 'timestamp' must be finite, got inf")],
        ids=["edge_to_missing_keyframe", "self_edge", "index_out_of_order", "short_pose",
             "negative_fx", "pose_translation_nan", "camera_cx_nan", "timestamp_inf"])
    def test_invalid_entry_names_graph_json(self, synth_run, tmp_path, capsys, path, value,
                                            expected):
        root, cfg, bundle = synth_run

        def set_field(doc):
            doc[path[0]][path[1]][path[2]] = value

        broken = edited_bundle(bundle, tmp_path, set_field)
        assert main(["ba", str(broken), str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "graph.json: " + expected in err
        assert not (tmp_path / "out").exists()

    def test_overflowing_pose_names_the_edge(self, synth_run, tmp_path, capsys):
        # A finite translation of 1e300 overflows in the first Jacobian pass; the
        # error line is the one report (the test session turns warnings into errors).
        root, cfg, bundle = synth_run

        def far_away(doc):
            doc["keyframes"][1]["pose_w2c"][0] = 1e300

        broken = edited_bundle(bundle, tmp_path, far_away)
        assert main(["ba", str(broken), str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: non-finite residual/Jacobian at edge \(\d+, \d+\), "
                            r"pixel index \d+\n", err)
        assert not (tmp_path / "out").exists()

    def test_non_finite_flow_names_the_edge(self, synth_run, tmp_path, capsys):
        # The NaN sits on a pixel without confidence, which the solver never
        # evaluates: only the loader can see it.
        import json
        import shutil
        root, cfg, bundle = synth_run
        broken = tmp_path / "broken"
        shutil.copytree(bundle, broken)
        entry = json.loads((broken / "graph.json").read_text())["edges"][2]
        flow = read_tensor(broken / entry["flow"])
        confidence = read_tensor(broken / entry["confidence"])[0]
        y, x = np.argwhere(confidence == 0)[0]
        flow[1, y, x] = np.nan
        write_tensor(broken / entry["flow"], flow)
        assert main(["ba", str(broken), str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "graph.json: edges[2]: " in err and "flow is not finite" in err
        assert not (tmp_path / "out").exists()

    def test_feature_channel_mismatch_names_the_keyframe(self, synth_run, tmp_path, capsys):
        import shutil
        root, cfg, bundle = synth_run
        broken = tmp_path / "broken"
        shutil.copytree(bundle, broken)
        features = broken / "keyframes" / "kf_002_features.kmvt"
        channels = read_tensor(features).shape[0]
        write_tensor(features, read_tensor(features)[:channels // 2])
        assert main(["ba", str(broken), str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert (f"graph.json: keyframe 2 has {channels // 2} feature channels, but keyframe 0 "
                f"has {channels}") in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case", ["isolated-keyframe", "zero-confidence"])
    def test_unconstrained_pose_named_before_solving(self, synth_run, tmp_path, capsys, case):
        root, cfg, bundle = synth_run
        if case == "isolated-keyframe":
            def edit(doc):
                doc["edges"] = [e for e in doc["edges"] if 4 not in (e["i"], e["j"])]
            expected = "keyframe 4"
        else:
            h, w = read_tensor(bundle / "keyframes" / "kf_000_disparity.kmvt").shape[1:]
            write_tensor(tmp_path / "zero.kmvt", np.zeros((h, w)))

            def edit(doc):
                for e in doc["edges"]:
                    e["confidence"] = str(tmp_path / "zero.kmvt")
            expected = "keyframe 1"
        broken = edited_bundle(bundle, tmp_path, edit)
        assert main(["ba", str(broken), str(tmp_path / "out"), "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert f"error: {expected}: no edge with a confident pixel constrains its pose" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section, key, value", WRONG_TYPES, ids=WRONG_TYPE_IDS)
    def test_wrong_value_type_rejected(self, synth_run, tmp_path, capsys, section, key, value):
        root, cfg, bundle = synth_run
        bad = write_config(tmp_path / "bad.yaml", f"{section}:\n  {key}: {value}\n")
        assert main(["ba", str(bundle), str(tmp_path / "out"), "--config", bad]) == 1
        assert f"error: {section}.{key} must be" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_non_finite_value_rejected_before_any_work(self, synth_run, tmp_path, capsys):
        root, cfg, bundle = synth_run
        bad = write_config(tmp_path / "bad.yaml", "solver:\n  lambda_embed: .nan\n")
        assert main(["ba", str(bundle), str(tmp_path / "out"), "--config", bad]) == 1
        assert ("error: solver: lambda_embed must be finite and >= 0, got nan"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_pca_decodes_exported_embeddings(self, synth_run, tmp_path, rng):
        root, cfg, bundle = synth_run
        codes = read_tensor(bundle / "keyframes" / "kf_000_features.kmvt").shape[0]
        c = codes + 5
        model = qr_model(rng, c, codes)
        write_pca(tmp_path / "model.kmvp", model)
        plain, decoded = tmp_path / "plain", tmp_path / "decoded"
        assert main(["ba", str(bundle), str(plain), "--config", cfg,
                     "--export-cloud", str(plain / "cloud.ply")]) == 0
        assert main(["ba", str(bundle), str(decoded), "--config", cfg,
                     "--export-cloud", str(decoded / "cloud.ply"),
                     "--pca", str(tmp_path / "model.kmvp")]) == 0
        points, _ = read_point_cloud(decoded / "cloud.ply")
        emb = read_tensor(decoded / "cloud.embeddings.kmvt").astype(float)
        assert emb.shape == (c, 1, len(points))
        raw = read_tensor(plain / "cloud.embeddings.kmvt").astype(float)
        assert raw.shape == (codes, 1, len(points))
        expected = pca_decode(raw[:, 0, :].T, model).T
        assert np.allclose(emb[:, 0, :], expected, atol=1e-5)

    @pytest.fixture
    def no_solve(self, monkeypatch):
        from semba import solver

        def solve(*args, **kwargs):
            pytest.fail("solve ran although the PCA model was unusable")

        monkeypatch.setattr(solver, "solve", solve)

    def test_pca_output_dim_mismatch_rejected(self, synth_run, tmp_path, capsys, no_solve):
        root, cfg, bundle = synth_run
        codes = read_tensor(bundle / "keyframes" / "kf_000_features.kmvt").shape[0]
        write_pca(tmp_path / "model.kmvp", PcaModel(np.zeros(codes + 1), np.eye(codes + 1)))
        out = tmp_path / "out"
        assert main(["ba", str(bundle), str(out), "--config", cfg,
                     "--export-cloud", str(out / "cloud.ply"),
                     "--pca", str(tmp_path / "model.kmvp")]) == 1
        assert f"decodes {codes + 1}-channel codes" in capsys.readouterr().err
        assert not out.exists()

    def test_truncated_pca_model_rejected_before_solve(self, synth_run, tmp_path, capsys,
                                                       no_solve):
        root, cfg, bundle = synth_run
        codes = read_tensor(bundle / "keyframes" / "kf_000_features.kmvt").shape[0]
        model = tmp_path / "model.kmvp"
        write_pca(model, PcaModel(np.zeros(codes), np.eye(codes)))
        model.write_bytes(model.read_bytes()[:4 + 8 + 5])  # cut inside the mean
        out = tmp_path / "out"
        assert main(["ba", str(bundle), str(out), "--config", cfg,
                     "--export-cloud", str(out / "cloud.ply"), "--pca", str(model)]) == 2
        assert "model.kmvp: truncated PCA mean" in capsys.readouterr().err
        assert not out.exists()

    def test_pca_requires_export_cloud(self, synth_run, tmp_path, capsys, no_solve):
        root, cfg, bundle = synth_run
        out = tmp_path / "out"
        assert main(["ba", str(bundle), str(out), "--config", cfg,
                     "--pca", str(tmp_path / "model.kmvp")]) == 1
        assert "error: --pca requires --export-cloud" in capsys.readouterr().err
        assert not out.exists()

    def test_determinism_identical_energy_traces(self, synth_run, tmp_path):
        root, cfg, bundle = synth_run
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["ba", str(bundle), str(a), "--config", cfg]) == 0
        assert main(["ba", str(bundle), str(b), "--config", cfg]) == 0
        assert (a / "energy_trace.csv").read_bytes() == (b / "energy_trace.csv").read_bytes()
        assert (a / "trajectory.txt").read_bytes() == (b / "trajectory.txt").read_bytes()

    def test_kernel_flag_parsing(self, synth_run, tmp_path, capsys):
        root, cfg, bundle = synth_run
        assert main(["ba", str(bundle), str(tmp_path / "o1"), "--config", cfg,
                     "--kernel", "fixed:1.0"]) == 0
        assert main(["ba", str(bundle), str(tmp_path / "o2"), "--config", cfg,
                     "--kernel", "bogus"]) == 1
        assert "kernel" in capsys.readouterr().err

    def test_summary_counts_iterations_and_scored_attempts(self, small_cfg_text, tmp_path,
                                                           capsys):
        # The dynamic scene rejects steps at energies far above the rounding
        # floor, so the counts do not hang on the order of any sum.
        text = small_cfg_text.replace("  seed: 11\n", "  seed: 11\n  dynamic_fraction: 0.2\n")
        cfg = write_config(tmp_path / "cfg.yaml", text)
        bundle = tmp_path / "bundle"
        assert main(["synth", str(bundle), "--config", cfg]) == 0
        out = tmp_path / "out"
        assert main(["ba", str(bundle), str(out), "--config", cfg]) == 0
        rows = [r.split(",") for r in (out / "energy_trace.csv").read_text().splitlines()[2:]]
        iterations, attempts = int(rows[-1][0]), len(rows)
        accepted = sum(int(r[-1]) for r in rows)
        assert iterations < attempts  # a rejected step makes the two counts differ
        assert (f"solved in {iterations} iterations, {attempts} scored attempts "
                f"({accepted} accepted); ") in capsys.readouterr().out

    def test_no_embed_flag(self, synth_run, tmp_path):
        root, cfg, bundle = synth_run
        out = tmp_path / "out"
        assert main(["ba", str(bundle), str(out), "--config", cfg, "--no-embed"]) == 0
        rows = (out / "energy_trace.csv").read_text().splitlines()[1:]
        assert all(float(r.split(",")[3]) == 0.0 for r in rows)  # E_embed column


class TestEval:
    def test_est_equals_gt_prints_zero(self, synth_run, tmp_path, capsys):
        root, cfg, bundle = synth_run
        gt = bundle / "ground_truth" / "trajectory.txt"
        assert main(["eval", str(gt), str(gt)]) == 0
        assert "ATE: 0.00 cm" in capsys.readouterr().out

    def test_centimeter_fixture(self, tmp_path, capsys):
        # 9 poses, one offset by 3 cm -> RMSE exactly 1 cm.
        gt = np.zeros((9, 3))
        gt[:, 0] = np.arange(9.0)
        gt[:, 1] = np.arange(9.0) ** 1.5 * 0.1  # break collinearity
        est = gt.copy()
        est[4, 2] += 0.03
        def dump(path, xyz):
            lines = [" ".join(map(repr, [float(k), *map(float, p), 0.0, 0.0, 0.0, 1.0]))
                     for k, p in enumerate(xyz)]
            path.write_text("\n".join(lines) + "\n")
        dump(tmp_path / "est.txt", est)
        dump(tmp_path / "gt.txt", gt)
        assert main(["eval", str(tmp_path / "est.txt"), str(tmp_path / "gt.txt"),
                     "--align", "none"]) == 0
        out = capsys.readouterr().out
        assert "ATE: 1.00 cm" in out
        # Optimal rigid alignment legitimately absorbs part of a single-pose
        # offset, so the aligned figure must come out below the raw one.
        assert main(["eval", str(tmp_path / "est.txt"), str(tmp_path / "gt.txt"),
                     "--align", "rigid"]) == 0
        aligned_cm = float(capsys.readouterr().out.split("ATE:")[1].split()[0])
        assert aligned_cm < 1.0

    def test_mismatched_lengths_fail(self, synth_run, tmp_path, capsys):
        root, cfg, bundle = synth_run
        gt = bundle / "ground_truth" / "trajectory.txt"
        short = tmp_path / "short.txt"
        short.write_text("\n".join((gt).read_text().splitlines()[:-1]) + "\n")
        assert main(["eval", str(short), str(gt)]) == 1
        assert "lengths differ" in capsys.readouterr().err

    @pytest.mark.parametrize("text, expected", [("a,1.0,0.0\nb,0.0\n", "labels.csv:2: expected 2"),
                                                ("a,1.0,0.0\n", "labels.csv: need at least two"),
                                                ("a,1.0,nan\nb,0.0,1.0\n",
                                                 "labels.csv:1: non-finite field 'nan'")],
                             ids=["ragged_row", "one_class", "nan_value"])
    def test_malformed_label_set_exits_2(self, synth_run, tmp_path, capsys, text, expected):
        root, cfg, bundle = synth_run
        gt = bundle / "ground_truth"
        (tmp_path / "labels.csv").write_text(text)
        assert main(["eval", str(gt / "trajectory.txt"), str(gt / "trajectory.txt"),
                     "--pred-cloud", str(tmp_path / "cloud.ply"), "--gt-cloud",
                     str(gt / "cloud.ply"), "--labels", str(tmp_path / "labels.csv")]) == 2
        assert expected in capsys.readouterr().err

    @pytest.mark.parametrize("align", ["none", "rigid"])
    def test_non_finite_trajectory_exits_2(self, synth_run, tmp_path, capsys, align):
        root, cfg, bundle = synth_run
        gt = bundle / "ground_truth" / "trajectory.txt"
        lines = gt.read_text().splitlines()
        fields = lines[1].split()
        fields[2] = "nan"
        lines[1] = " ".join(fields)
        est = tmp_path / "est.txt"
        est.write_text("\n".join(lines) + "\n")
        assert main(["eval", str(est), str(gt), "--align", align]) == 2
        captured = capsys.readouterr()
        assert "est.txt:2: non-finite field 'nan'" in captured.err
        assert "ATE" not in captured.out

    @pytest.mark.parametrize("flag", ["--gt-cloud", "--labels", "--metrics-out"])
    def test_cloud_flag_without_pred_cloud_exits_1(self, synth_run, tmp_path, capsys, flag):
        root, cfg, bundle = synth_run
        gt = bundle / "ground_truth" / "trajectory.txt"
        target = tmp_path / "metrics.csv"
        assert main(["eval", str(gt), str(gt), flag, str(target)]) == 1
        captured = capsys.readouterr()
        assert f"error: {flag} requires --pred-cloud" in captured.err
        assert "ATE" not in captured.out
        assert not target.exists()

    @pytest.mark.parametrize("present", ["--gt-cloud", "--labels", None])
    def test_pred_cloud_without_its_inputs_exits_1_before_reading(self, synth_run, tmp_path,
                                                                  capsys, present):
        root, cfg, bundle = synth_run
        gt = bundle / "ground_truth" / "trajectory.txt"
        argv = ["eval", str(gt), str(gt), "--pred-cloud", str(tmp_path / "missing.ply")]
        if present == "--gt-cloud":
            argv += [present, str(bundle / "ground_truth" / "cloud.ply")]
        elif present == "--labels":
            argv += [present, str(bundle / "ground_truth" / "labelset.csv")]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "error: --pred-cloud requires --gt-cloud and --labels" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("label", [9, -1])
    def test_ground_truth_label_outside_the_label_set_exits_2(self, synth_run, tmp_path, capsys,
                                                              label):
        root, cfg, bundle = synth_run
        gt = bundle / "ground_truth"
        labels = gt / "labelset.csv"
        classes = len(labels.read_text().splitlines())
        assert not 0 <= label < classes
        points, gt_labels = read_point_cloud(gt / "cloud.ply")
        gt_labels[3] = label
        write_point_cloud(tmp_path / "gt.ply", points, gt_labels)
        # A predicted cloud of a few points, their embeddings in the label set's space.
        channels = len(labels.read_text().splitlines()[0].split(",")) - 1
        write_point_cloud(tmp_path / "pred.ply", points[:20])
        write_tensor(tmp_path / "pred.embeddings.kmvt", np.ones((channels, 1, 20)))
        metrics = tmp_path / "metrics.csv"
        assert main(["eval", str(gt / "trajectory.txt"), str(gt / "trajectory.txt"),
                     "--pred-cloud", str(tmp_path / "pred.ply"),
                     "--gt-cloud", str(tmp_path / "gt.ply"), "--labels", str(labels),
                     "--metrics-out", str(metrics)]) == 2
        captured = capsys.readouterr()
        assert (f"error: {tmp_path / 'gt.ply'}: vertex 3 has label {label}, not a class of "
                f"the {classes} in {labels}") in captured.err
        assert "mIoU" not in captured.out
        assert not metrics.exists()

    def test_semantic_pipeline_end_to_end(self, synth_run, tmp_path, capsys):
        root, cfg, bundle = synth_run
        out = tmp_path / "out"
        assert main(["ba", str(bundle), str(out), "--config", cfg,
                     "--export-cloud", str(out / "cloud.ply")]) == 0
        assert main(["eval", str(out / "trajectory.txt"),
                     str(bundle / "ground_truth" / "trajectory.txt"),
                     "--align", "rigid",
                     "--pred-cloud", str(out / "cloud.ply"),
                     "--gt-cloud", str(bundle / "ground_truth" / "cloud.ply"),
                     "--labels", str(bundle / "ground_truth" / "labelset.csv"),
                     "--metrics-out", str(out / "metrics.csv")]) == 0
        stdout = capsys.readouterr().out
        assert "mIoU:" in stdout
        miou = float(stdout.split("mIoU:")[1].split()[0])
        assert miou > 0.7  # boundary blends keep it below 1.0 on real fusions
        assert (out / "metrics.csv").exists()

    def test_ark_beats_l2_through_cli(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.yaml", """
scene:
  num_keyframes: 5
  height: 24
  width: 32
  pose_sigma: 0.01
  dynamic_fraction: 0.2
  dynamic_motion_px: 5.0
  embedding_decorrelation: 1.0
  seed: 2
solver:
  max_iters: 12
""")
        bundle = tmp_path / "bundle"
        assert main(["synth", str(bundle), "--config", cfg]) == 0
        gt = bundle / "ground_truth" / "trajectory.txt"
        ates = {}
        for kernel in ("ark", "l2"):
            out = tmp_path / kernel
            assert main(["ba", str(bundle), str(out), "--config", cfg,
                         "--kernel", kernel]) == 0
            _, est_pos, _ = read_trajectory(out / "trajectory.txt")
            _, gt_pos, _ = read_trajectory(gt)
            aligned, _ = align_trajectories(est_pos, gt_pos, "rigid")
            ates[kernel] = ate_rmse(aligned, gt_pos)
        assert ates["ark"] < ates["l2"]
