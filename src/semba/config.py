"""Run configuration: one YAML document with a flat section per module.

Sections and their dataclasses (every field has a documented default; unknown
sections or keys, values of the wrong type and non-finite numbers are rejected):

    scene:      synthscene.SceneConfig
    solver:     solver.SolverConfig (scalar fields only; nested configs come
                from the sections below)
    kernel:     robust.KernelConfig
    reg:        residuals.RegConfig
    evaluation: EvalConfig (fused-cloud stride)
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, fields
from pathlib import Path

import yaml

from .residuals import RegConfig
from .robust import KernelConfig
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


# Solver fields owned by their own sections.
_SOLVER_NESTED = {"kernel", "reg"}
# What a YAML value must be, per annotated field type; str fields are checked
# by their own dataclass, tuple fields take a list of numbers as long as their
# default.
_VALUE_TYPES = {"int": (int, "an integer"), "float": ((int, float), "a number"),
                "bool": (bool, "true or false")}


def _check_value(field, value, name):
    """Raise ValueError unless value fits the field's type (bools only fit bool fields,
    and float fields take only finite numbers)."""
    kind = field.type.removesuffix(" | None")
    if kind == "tuple":
        n = len(field.default)
        if not (isinstance(value, list) and len(value) == n
                and all(type(v) in (int, float) for v in value)):
            raise ValueError(f"{name} must be a list of {n} numbers, got {value!r}")
        return
    if kind not in _VALUE_TYPES or (value is None and field.default is None):
        return
    accepted, expected = _VALUE_TYPES[kind]
    if isinstance(value, bool) == (kind == "bool") and isinstance(value, accepted):
        if kind != "float" or math.isfinite(value):
            return
        expected = "a finite number"
    if field.default is None:
        expected += " or null"
    raise ValueError(f"{name} must be {expected}, got {value!r}")


def _build(cls, mapping, section):
    known = {f.name: f for f in fields(cls)}
    cleaned = {}
    for key, value in mapping.items():
        if key not in known:
            raise ValueError(f"unknown key '{section}.{key}' "
                             f"(known: {', '.join(sorted(known))})")
        _check_value(known[key], value, f"{section}.{key}")
        cleaned[key] = tuple(value) if known[key].type == "tuple" else value
    return cls(**cleaned)


def load_config(path=None) -> RunConfig:
    """Load a RunConfig from YAML; missing sections fall back to defaults."""
    doc = {}
    if path is not None:
        text = Path(path).read_text()
        doc = yaml.safe_load(text) or {}
        if not isinstance(doc, dict):
            raise ValueError(f"{path}: config root must be a mapping")

    known_sections = {"scene", "solver", "kernel", "reg", "evaluation"}
    unknown = set(doc) - known_sections
    if unknown:
        raise ValueError(f"unknown config section(s): {', '.join(sorted(unknown))}")
    for name, section in doc.items():
        if section is not None and not isinstance(section, dict):
            raise ValueError(f"config section '{name}' must be a mapping")
    doc = {name: section or {} for name, section in doc.items()}

    scene = _build(SceneConfig, doc.get("scene", {}), "scene")
    kernel = _build(KernelConfig, doc.get("kernel", {}), "kernel")
    reg = _build(RegConfig, doc.get("reg", {}), "reg")

    solver_map = doc.get("solver", {})
    bad = _SOLVER_NESTED & set(solver_map)
    if bad:
        raise ValueError(f"solver.{bad.pop()} belongs in its own top-level section")
    solver = _build(SolverConfig, solver_map, "solver")
    solver = dataclasses.replace(solver, kernel=kernel, reg=reg)

    evaluation = _build(EvalConfig, doc.get("evaluation", {}), "evaluation")
    return RunConfig(scene=scene, solver=solver, evaluation=evaluation)
