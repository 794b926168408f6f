from dataclasses import fields
from pathlib import Path

import pytest

from semba.config import SECTIONS, EvalConfig, RunConfig, load_config

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_config_keys():
    """section.key names of README's configuration table; a cell such as
    `scene.height` / `scene.width` names two keys (a bare name keeps the section
    of the name before it)."""
    lines = README.read_text().splitlines()
    start = lines.index("| section.key | default | meaning |") + 2
    keys = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        section = None
        for name in line.split("|")[1].split(" / "):
            name = name.strip().strip("`")
            if "." in name:
                section, name = name.split(".")
            keys.append(f"{section}.{name}")
    return keys


class TestLoadConfig:
    def test_defaults_without_file(self):
        cfg = load_config(None)
        assert cfg.scene.num_keyframes == 8
        assert cfg.solver.fixed_alpha is None  # the adaptive kernel
        assert cfg.solver.lambda_embed == 2.0
        assert cfg.evaluation.cloud_stride == 2

    def test_sections_populate_nested_configs(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("""
scene:
  num_keyframes: 4
  seed: 3
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
        assert cfg.evaluation.cloud_stride == 3

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        # The robust kernel's shape parameters and the prior weight are constants.
        for text in ("mystery:\n  a: 1\n", "embed:\n", "kernel:\n  c: 1.0\n",
                     "kernel:\n  alpha_static: 2.0\n  alpha_dynamic: -2.0\n",
                     "kernel:\n  kappa: 0.5\n  tau: 0.1\n", "reg:\n  alpha_disp: 1.0\n"):
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
                                    ("solver", "kernel", "{c: 2.0}"),
                                    ("solver", "reg", "{alpha_disp: 1.0}"),
                                    ("scene", "embedding_noise", "0.0"),
                                    # Fixed scene constants, not settings.
                                    ("scene", "focal", "40.0"),
                                    ("scene", "trajectory", "orbit"),
                                    ("scene", "magnitude", "0.4"),
                                    ("scene", "embedding_dim", "16"),
                                    ("scene", "num_classes", "6"),
                                    ("scene", "flow_sigma", "0.0"),
                                    ("scene", "disparity_sigma", "0.0"),
                                    ("scene", "feature_smooth_radius", "2"),
                                    ("scene", "temporal_radius", "2"),
                                    ("scene", "covis_threshold", "1.1"),
                                    ("scene", "depth_range", "[1.0, 5.0]"),
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
        ("solver", "fixed_alpha", "abc", "a number or null"),
        ("solver", "fixed_alpha", "[1, 2]", "a number or null"),
        ("solver", "optimize_intrinsics", "1", "true or false"),
        ("solver", "optimize_intrinsics", '"yes"', "true or false"),
    ])
    def test_value_of_wrong_type_rejected(self, tmp_path, section, key, value, expected):
        path = tmp_path / "cfg.yaml"
        path.write_text(f"{section}:\n  {key}: {value}\n")
        with pytest.raises(ValueError, match=f"{section}.{key} must be {expected}, got"):
            load_config(path)

    # The dataclasses check the range; the loader names the section.
    @pytest.mark.parametrize("section, key, value", [
        ("solver", "lambda_embed", ".inf"),
        ("solver", "fixed_alpha", ".nan"),
        ("solver", "fixed_alpha", ".inf"),
        ("scene", "pose_sigma", ".nan"),
    ])
    def test_non_finite_value_rejected(self, tmp_path, section, key, value):
        path = tmp_path / "cfg.yaml"
        path.write_text(f"{section}:\n  {key}: {value}\n")
        with pytest.raises(ValueError, match=f"^{section}: {key} must be finite"):
            load_config(path)

    @pytest.mark.parametrize("section, key, value, attr", [
        ("solver", "max_iters", "3", 3),
        ("solver", "lambda_embed", "1", 1),
        ("solver", "fixed_alpha", "null", None),
        ("solver", "fixed_alpha", "-2", -2),
        ("solver", "fixed_alpha", "0.5", 0.5),
        ("solver", "optimize_intrinsics", "true", True),
    ])
    def test_value_of_field_type_accepted(self, tmp_path, section, key, value, attr):
        path = tmp_path / "cfg.yaml"
        path.write_text(f"{section}:\n  {key}: {value}\n")
        cfg = load_config(path)
        assert getattr(getattr(cfg, section), key) == attr

    def test_section_must_be_a_mapping(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("solver: 5\n")
        with pytest.raises(ValueError, match="section 'solver' must be a mapping"):
            load_config(path)
        path.write_text("solver:\nscene:\n")  # empty sections keep the defaults
        assert load_config(path).solver.max_iters == load_config(None).solver.max_iters

    def test_readme_table_names_every_accepted_key(self):
        accepted = [f"{section}.{f.name}" for section, cls in SECTIONS.items()
                    for f in fields(cls)]
        assert len(accepted) == 13
        assert sorted(readme_config_keys()) == sorted(accepted)

    def test_default_runconfig(self):
        cfg = RunConfig.default()
        assert isinstance(cfg.evaluation, EvalConfig)

    def test_eval_config_validation(self):
        with pytest.raises(ValueError):
            EvalConfig(cloud_stride=0)
