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
embed:
  mode: angular
reg:
  alpha_disp: 0.5
solver:
  max_iters: 7
  lambda_photo: 2.0
evaluation:
  cloud_stride: 3
""")
        cfg = load_config(path)
        assert cfg.scene.num_keyframes == 4
        assert cfg.solver.max_iters == 7
        assert cfg.solver.kernel.kappa == 0.4
        assert cfg.solver.embed.mode == "angular"
        assert cfg.solver.reg.alpha_disp == 0.5
        assert cfg.evaluation.cloud_stride == 3

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("mystery:\n  a: 1\n")
        with pytest.raises(ValueError, match="unknown config section"):
            load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        for section, key, value in (("solver", "warp_speed", "9"),
                                    ("solver", "freeze_similarity", "true"),
                                    ("solver", "kernel_mode", "fixed"),
                                    ("evaluation", "align", "rigid")):
            path.write_text(f"{section}:\n  {key}: {value}\n")
            with pytest.raises(ValueError, match=f"{section}.{key}"):
                load_config(path)

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
