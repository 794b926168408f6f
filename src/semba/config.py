"""Run configuration: one YAML document with a flat section per module.

Sections and their dataclasses (every field has a documented default; unknown
sections or keys are rejected):

    scene:      synthscene.SceneConfig
    solver:     solver.SolverConfig (scalar fields only; nested configs come
                from the sections below)
    kernel:     robust.KernelConfig
    embed:      residuals.EmbeddingResidualConfig
    reg:        residuals.RegConfig
    evaluation: EvalConfig (fused-cloud stride)
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, fields
from pathlib import Path

import yaml

from .residuals import EmbeddingResidualConfig, RegConfig
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


_TUPLE_FIELDS = {"depth_range"}
# Solver fields owned by their own sections.
_SOLVER_NESTED = {"kernel", "embed", "reg"}


def _build(cls, mapping, section):
    known = {f.name: f for f in fields(cls)}
    cleaned = {}
    for key, value in mapping.items():
        if key not in known:
            raise ValueError(f"unknown key '{section}.{key}' "
                             f"(known: {', '.join(sorted(known))})")
        if key in _TUPLE_FIELDS and isinstance(value, list):
            value = tuple(value)
        cleaned[key] = value
    return cls(**cleaned)


def load_config(path=None) -> RunConfig:
    """Load a RunConfig from YAML; missing sections fall back to defaults."""
    doc = {}
    if path is not None:
        text = Path(path).read_text()
        doc = yaml.safe_load(text) or {}
        if not isinstance(doc, dict):
            raise ValueError(f"{path}: config root must be a mapping")

    known_sections = {"scene", "solver", "kernel", "embed", "reg", "evaluation"}
    unknown = set(doc) - known_sections
    if unknown:
        raise ValueError(f"unknown config section(s): {', '.join(sorted(unknown))}")

    scene = _build(SceneConfig, doc.get("scene", {}), "scene")
    kernel = _build(KernelConfig, doc.get("kernel", {}), "kernel")
    embed = _build(EmbeddingResidualConfig, doc.get("embed", {}), "embed")
    reg = _build(RegConfig, doc.get("reg", {}), "reg")

    solver_map = dict(doc.get("solver", {}))
    bad = _SOLVER_NESTED & set(solver_map)
    if bad:
        raise ValueError(f"solver.{bad.pop()} belongs in its own top-level section")
    solver = _build(SolverConfig, solver_map, "solver")
    solver = dataclasses.replace(solver, kernel=kernel, embed=embed, reg=reg)

    evaluation = _build(EvalConfig, doc.get("evaluation", {}), "evaluation")
    return RunConfig(scene=scene, solver=solver, evaluation=evaluation)
