"""Run configuration: one YAML document with a flat section per module.

Sections and their dataclasses (every field has a documented default; unknown
sections or keys and values of the wrong type are rejected, and each dataclass
rejects out-of-range values, naming the section):

    scene:      synthscene.SceneConfig
    solver:     solver.SolverConfig
    evaluation: EvalConfig (fused-cloud stride)

The robust kernel's shape parameters and the disparity-prior weight are
constants (robust.ALPHA_STATIC, ALPHA_DYNAMIC, KAPPA, TAU, residuals.ALPHA_DISP),
not settings.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

import yaml

from .solver import SolverConfig
from .synthscene import SceneConfig


@dataclass
class EvalConfig:
    cloud_stride: int = 2     # pixel stride when exporting fused clouds

    def __post_init__(self):
        if self.cloud_stride < 1:
            raise ValueError("cloud_stride must be >= 1")


@dataclass
class RunConfig:
    scene: SceneConfig
    solver: SolverConfig
    evaluation: EvalConfig

    @staticmethod
    def default() -> "RunConfig":
        return RunConfig(scene=SceneConfig(), solver=SolverConfig(), evaluation=EvalConfig())


# Section name -> dataclass of its keys.
SECTIONS = {"scene": SceneConfig, "solver": SolverConfig, "evaluation": EvalConfig}
# What a YAML value must be, per annotated field type.
_VALUE_TYPES = {"int": (int, "an integer"), "float": ((int, float), "a number"),
                "bool": (bool, "true or false")}


def _check_value(field, value, name):
    """Raise ValueError unless value has the field's YAML type (bools only fit bool
    fields); the field's dataclass checks its range."""
    kind = field.type.removesuffix(" | None")
    if value is None and field.default is None:
        return
    accepted, expected = _VALUE_TYPES[kind]
    if isinstance(value, bool) == (kind == "bool") and isinstance(value, accepted):
        return
    if field.default is None:
        expected += " or null"
    raise ValueError(f"{name} must be {expected}, got {value!r}")


def _build(cls, mapping, section):
    known = {f.name: f for f in fields(cls)}
    for key, value in mapping.items():
        if key not in known:
            raise ValueError(f"unknown key '{section}.{key}' "
                             f"(known: {', '.join(sorted(known))})")
        _check_value(known[key], value, f"{section}.{key}")
    try:
        return cls(**mapping)
    except ValueError as exc:
        raise ValueError(f"{section}: {exc}") from exc


def load_config(path=None) -> RunConfig:
    """Load a RunConfig from YAML; missing sections fall back to defaults."""
    doc = {}
    if path is not None:
        text = Path(path).read_text()
        doc = yaml.safe_load(text) or {}
        if not isinstance(doc, dict):
            raise ValueError(f"{path}: config root must be a mapping")

    unknown = set(doc) - set(SECTIONS)
    if unknown:
        raise ValueError(f"unknown config section(s): {', '.join(sorted(unknown))}")
    for name, section in doc.items():
        if section is not None and not isinstance(section, dict):
            raise ValueError(f"config section '{name}' must be a mapping")
    return RunConfig(**{name: _build(cls, doc.get(name) or {}, name)
                        for name, cls in SECTIONS.items()})
