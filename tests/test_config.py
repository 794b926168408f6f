import pytest

from semba.config import EvalConfig, RunConfig, load_config


class TestLoadConfig:
    def test_defaults_without_file(self):
        cfg = load_config(None)
        assert cfg.scene.num_keyframes == 8
        assert cfg.solver.fixed_alpha is None  # the adaptive kernel
        assert cfg.solver.lambda_embed == 2.0
        assert cfg.solver.reg.alpha_disp == 1.0
        assert cfg.evaluation.cloud_stride == 2

    def test_sections_populate_nested_configs(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("""
scene:
  num_keyframes: 4
  seed: 3
kernel:
  kappa: 0.4
  tau: 0.2
reg:
  alpha_disp: 0.5
solver:
  max_iters: 7
  lambda_embed: 1.5
evaluation:
  cloud_stride: 3
""")
        cfg = load_config(path)
        assert cfg.scene.num_keyframes == 4
        assert cfg.solver.max_iters == 7
        assert cfg.solver.lambda_embed == 1.5
        assert cfg.solver.kernel.kappa == 0.4
        assert cfg.solver.reg.alpha_disp == 0.5
        assert cfg.evaluation.cloud_stride == 3

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        for text in ("mystery:\n  a: 1\n", "embed:\n"):
            path.write_text(text)
            with pytest.raises(ValueError, match="unknown config section"):
                load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        for section, key, value in (("solver", "warp_speed", "9"),
                                    ("solver", "freeze_similarity", "true"),
                                    ("solver", "kernel_mode", "fixed"),
                                    # Fixed solver and residual constants, not settings.
                                    ("solver", "lm_init", "1e-4"),
                                    ("solver", "lm_grow", "10.0"),
                                    ("solver", "lm_shrink", "0.5"),
                                    ("solver", "lm_min", "1e-12"),
                                    ("solver", "lm_max", "1e10"),
                                    ("solver", "update_tol", "1e-8"),
                                    ("solver", "min_disparity", "1e-6"),
                                    ("solver", "lambda_photo", "1.0"),
                                    ("scene", "embedding_noise", "0.0"),
                                    ("evaluation", "align", "rigid")):
            path.write_text(f"{section}:\n  {key}: {value}\n")
            with pytest.raises(ValueError, match=f"{section}.{key}"):
                load_config(path)
        # The embedding residual has one fixed form and scale: no section selects them.
        for key, value in (("mode", "angular"), ("lambda_embed", "2.0"), ("eps", "1e-6")):
            path.write_text(f"embed:\n  {key}: {value}\n")
            with pytest.raises(ValueError, match="unknown config section.*embed"):
                load_config(path)

    @pytest.mark.parametrize("section, key, value, expected", [
        ("solver", "max_iters", "abc", "an integer"),
        ("solver", "max_iters", "2.5", "an integer"),
        ("solver", "max_iters", "true", "an integer"),
        ("scene", "height", '"48"', "an integer"),
        ("scene", "seed", "null", "an integer"),
        ("reg", "alpha_disp", "abc", "a number"),
        ("kernel", "kappa", "true", "a number"),
        ("solver", "fixed_alpha", "abc", "a number or null"),
        ("scene", "focal", "[1, 2]", "a number or null"),
        ("solver", "optimize_intrinsics", "1", "true or false"),
        ("solver", "optimize_intrinsics", '"yes"', "true or false"),
        ("scene", "depth_range", "5", "a list of 2 numbers"),
        ("scene", "depth_range", '[1, "a"]', "a list of 2 numbers"),
        ("scene", "depth_range", "[1, 2, 3]", "a list of 2 numbers"),
        ("scene", "depth_range", "[true, 2]", "a list of 2 numbers"),
        ("scene", "depth_range", "null", "a list of 2 numbers"),
        ("kernel", "c", ".nan", "a finite number"),
        ("kernel", "kappa", "-.inf", "a finite number"),
        ("reg", "alpha_disp", ".nan", "a finite number"),
        ("solver", "lambda_embed", ".inf", "a finite number"),
        ("solver", "fixed_alpha", ".nan", "a finite number or null"),
        ("scene", "focal", ".inf", "a finite number or null"),
    ])
    def test_value_of_wrong_type_rejected(self, tmp_path, section, key, value, expected):
        path = tmp_path / "cfg.yaml"
        path.write_text(f"{section}:\n  {key}: {value}\n")
        with pytest.raises(ValueError, match=f"{section}.{key} must be {expected}, got"):
            load_config(path)

    @pytest.mark.parametrize("section, key, value, attr", [
        ("solver", "max_iters", "3", 3),
        ("solver", "lambda_embed", "1", 1),
        ("reg", "alpha_disp", "0.25", 0.25),
        ("solver", "fixed_alpha", "null", None),
        ("solver", "fixed_alpha", "-2", -2),
        ("scene", "focal", "40.5", 40.5),
        ("solver", "optimize_intrinsics", "true", True),
    ])
    def test_value_of_field_type_accepted(self, tmp_path, section, key, value, attr):
        path = tmp_path / "cfg.yaml"
        path.write_text(f"{section}:\n  {key}: {value}\n")
        cfg = load_config(path)
        owner = {"scene": cfg.scene, "solver": cfg.solver, "reg": cfg.solver.reg}[section]
        assert getattr(owner, key) == attr

    def test_section_must_be_a_mapping(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("solver: 5\n")
        with pytest.raises(ValueError, match="section 'solver' must be a mapping"):
            load_config(path)
        path.write_text("solver:\nscene:\n")  # empty sections keep the defaults
        assert load_config(path).solver.max_iters == load_config(None).solver.max_iters

    def test_nested_solver_keys_must_use_sections(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("solver:\n  kernel:\n    c: 2.0\n")
        with pytest.raises(ValueError, match="own top-level section"):
            load_config(path)

    def test_tuple_fields_from_lists(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("scene:\n  depth_range: [2.0, 6.0]\n")
        assert load_config(path).scene.depth_range == (2.0, 6.0)

    def test_default_runconfig(self):
        cfg = RunConfig.default()
        assert isinstance(cfg.evaluation, EvalConfig)

    def test_eval_config_validation(self):
        with pytest.raises(ValueError):
            EvalConfig(cloud_stride=0)
