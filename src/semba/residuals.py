"""Per-edge residual terms: photometric flow, embedding similarity, disparity prior.

Validity conventions (enforced here and relied on by the solver):
  * geometric failures (zero disparity, behind-camera, out-of-bounds target)
    invalidate a pixel for every term;
  * a degenerate embedding norm invalidates only the embedding term;
  * invalid pixels contribute exactly zero to energies and normal equations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry, robust
from .features import bilinear_sample, in_bounds
from .geometry import Intrinsics

_NORM_EPS = 1e-8
# The embedding residual is r = _EMBED_SCALE * sqrt(2 (1 - cs)); _EMBED_DERIV_EPS
# keeps its derivative finite where cs -> 1 (r -> 0).
_EMBED_SCALE = 2.0
_EMBED_DERIV_EPS = 1e-6


@dataclass(eq=False)
class FlowObservation:
    """Dense target flow and confidence for a directed keyframe pair i -> j."""

    i: int
    j: int
    flow: np.ndarray        # (2, H, W), channels (dx, dy)
    confidence: np.ndarray  # (H, W), finite and non-negative

    def __post_init__(self):
        self.flow = np.asarray(self.flow, dtype=float)
        self.confidence = np.asarray(self.confidence, dtype=float)
        if self.i == self.j:
            raise ValueError(f"self-edge ({self.i}, {self.j}) is not allowed")
        if self.flow.ndim != 3 or self.flow.shape[0] != 2:
            raise ValueError(f"flow must be (2, H, W), got {self.flow.shape}")
        if self.confidence.shape != self.flow.shape[1:]:
            raise ValueError(
                f"confidence shape {self.confidence.shape} does not match flow {self.flow.shape}")
        if not np.all(np.isfinite(self.confidence)) or np.any(self.confidence < 0):
            raise ValueError("confidence must be finite and non-negative")


@dataclass(frozen=True)
class RegConfig:
    alpha_disp: float = 1.0

    def __post_init__(self):
        if self.alpha_disp < 0:
            raise ValueError("alpha_disp must be non-negative")


def grid_pixels(height: int, width: int) -> np.ndarray:
    """All integer pixel coordinates of an H x W grid, row-major, as (H*W, 2) floats."""
    xs, ys = np.meshgrid(np.arange(width), np.arange(height))
    return np.stack([xs, ys], axis=-1).reshape(-1, 2).astype(float)


def _cosine(z_src, z_sampled):
    """Cosine similarity of row vectors with degenerate-norm masking."""
    n_src = np.linalg.norm(z_src, axis=-1)
    n_smp = np.linalg.norm(z_sampled, axis=-1)
    ok = (n_src > _NORM_EPS) & (n_smp > _NORM_EPS)
    denom = np.where(ok, n_src * n_smp, 1.0)
    cs = np.clip(np.sum(z_src * z_sampled, axis=-1) / denom, -1.0, 1.0)
    return np.where(ok, cs, 0.0), n_src, n_smp, ok


def _embed_residual_from_cs(cs):
    return _EMBED_SCALE * np.sqrt(2.0 * np.maximum(1.0 - cs, 0.0))


def _embed_dresidual_dcs(r):
    return -_EMBED_SCALE**2 / (r + _EMBED_DERIV_EPS)


def disparity_reg_residual(disparity, prior, cfg: RegConfig = RegConfig()):
    """Prior-anchoring residual sqrt(alpha_disp) * (d - d_prior); zero where the prior is invalid.

    Returns (residuals, valid) with valid = prior > 0.
    """
    disparity = np.asarray(disparity, dtype=float)
    prior = np.asarray(prior, dtype=float)
    if disparity.shape != prior.shape:
        raise ValueError(f"shape mismatch: {disparity.shape} vs {prior.shape}")
    valid = prior > 0
    res = np.sqrt(cfg.alpha_disp) * np.where(valid, disparity - prior, 0.0)
    return res, valid


@dataclass(eq=False)
class EdgeEvaluation:
    """Flattened per-pixel quantities for one directed edge (row-major pixel order)."""

    obs: FlowObservation
    pixels: np.ndarray            # (N, 2)
    confidence: np.ndarray        # (N,)
    r_flow: np.ndarray            # (N, 2)
    valid_flow: np.ndarray        # (N,)
    r_embed: np.ndarray           # (N,)
    cs: np.ndarray                # (N,)
    valid_embed: np.ndarray       # (N,)
    jf_pose_i: np.ndarray = None  # (N, 2, 6)
    jf_pose_j: np.ndarray = None
    jf_disp: np.ndarray = None    # (N, 2)
    je_pose_i: np.ndarray = None  # (N, 6)
    je_pose_j: np.ndarray = None
    je_disp: np.ndarray = None    # (N,)
    jf_intr: np.ndarray = None    # (N, 2, 4)
    je_intr: np.ndarray = None    # (N, 4)


def evaluate_edge(kf_i, kf_j, obs: FlowObservation, intrinsics: Intrinsics, *,
                  need_similarity: bool = True, need_embedding: bool = True,
                  with_jacobians: bool = False, with_intrinsics: bool = False) -> EdgeEvaluation:
    """Evaluate flow and embedding residuals (and optionally Jacobians) for one edge.

    The reprojection is computed once and shared between the two terms.
    need_similarity requests the cosine field even when the embedding term
    itself is disabled (the adaptive kernel consumes it either way).
    """
    h, w = kf_i.disparity.shape
    u = grid_pixels(h, w)
    d = kf_i.disparity.reshape(-1)

    jf_k = None
    if with_jacobians:
        jf_i, jf_j, jf_d, mu, valid_geo = geometry.reprojection_jacobian(
            u, d, kf_i.pose, kf_j.pose, intrinsics)
        if with_intrinsics:
            jf_k = geometry.reprojection_intrinsics_jacobian(u, d, mu, jf_i, intrinsics)
    else:
        mu, valid_geo = geometry.reproject(u, d, kf_i.pose, kf_j.pose, intrinsics)
        jf_i = jf_j = jf_d = None

    valid_flow = valid_geo & in_bounds(mu, h, w)
    target = obs.flow.reshape(2, -1).T
    r_flow = np.where(valid_flow[:, None], (mu - u) - target, 0.0)
    conf = obs.confidence.reshape(-1)

    n = u.shape[0]
    out = EdgeEvaluation(
        obs=obs, pixels=u, confidence=conf, r_flow=r_flow, valid_flow=valid_flow,
        r_embed=np.zeros(n), cs=np.zeros(n), valid_embed=np.zeros(n, dtype=bool),
        jf_pose_i=jf_i, jf_pose_j=jf_j, jf_disp=jf_d, jf_intr=jf_k)

    if need_similarity or need_embedding:
        z_src = kf_i.features.reshape(kf_i.features.shape[0], n).T  # u is the row-major grid
        # Only the embedding Jacobian reads the sampling gradient.
        z_smp, dz_du, valid_bi = bilinear_sample(kf_j.features, mu,
                                                 with_grad=with_jacobians and need_embedding)
        cs, n_src, n_smp, norm_ok = _cosine(z_src, z_smp)
        valid_embed = valid_flow & valid_bi & norm_ok
        out.cs = np.where(valid_embed, cs, 0.0)
        out.valid_embed = valid_embed
        if need_embedding:
            r_embed = np.where(valid_embed, _embed_residual_from_cs(cs), 0.0)
            out.r_embed = r_embed
            if with_jacobians:
                safe_src = np.where(norm_ok, n_src, 1.0)[:, None]
                safe_smp = np.where(norm_ok, n_smp, 1.0)[:, None]
                dcs_dz = (z_src / safe_src - cs[:, None] * (z_smp / safe_smp)) / safe_smp
                dcs_du = np.einsum("nk,nki->ni", dcs_dz, dz_du)
                scale = np.where(valid_embed, _embed_dresidual_dcs(r_embed), 0.0)
                out.je_pose_i = scale[:, None] * np.einsum("ni,nij->nj", dcs_du, jf_i)
                out.je_pose_j = scale[:, None] * np.einsum("ni,nij->nj", dcs_du, jf_j)
                out.je_disp = scale * np.einsum("ni,ni->n", dcs_du, jf_d)
                if jf_k is not None:
                    out.je_intr = scale[:, None] * np.einsum("ni,nij->nj", dcs_du, jf_k)
    return out


@dataclass(frozen=True)
class EnergyBreakdown:
    """Component energies: total = photo_ark + lambda_embed * embed + reg."""

    total: float
    photo_ark: float
    embed: float
    reg: float


def adaptive_edge_alpha(ev: EdgeEvaluation, kernel: robust.KernelConfig) -> np.ndarray:
    """Similarity-driven shape per pixel; pixels without a usable similarity stay static."""
    alpha = robust.adaptive_alpha(ev.cs, kernel)
    return np.where(ev.valid_embed, alpha, kernel.alpha_static)


def edge_energies(ev: EdgeEvaluation, alpha: np.ndarray, c: float):
    """(photo_ark, embed) energy contributions of one evaluated edge under shapes alpha."""
    r_norm = np.linalg.norm(ev.r_flow, axis=-1)
    rho = robust.barron_rho(r_norm, alpha, c)
    e_photo = float(np.sum(ev.confidence * rho * ev.valid_flow))
    e_embed = float(np.sum(ev.confidence * ev.r_embed**2 * ev.valid_embed))
    return e_photo, e_embed


def total_energy(graph, config, alphas) -> EnergyBreakdown:
    """Objective value over a keyframe graph at its current state.

    config is a solver.SolverConfig (read for its kernel, reg and lambda_embed
    fields); alphas holds one per-pixel shape array per edge of
    graph.edges, as decided by solver.kernel_alphas.
    """
    e_photo = 0.0
    e_embed = 0.0
    for obs, alpha in zip(graph.edges, alphas, strict=True):
        ev = evaluate_edge(graph.keyframes[obs.i], graph.keyframes[obs.j], obs,
                           graph.intrinsics, need_similarity=False,
                           need_embedding=config.lambda_embed != 0.0)
        ep, ee = edge_energies(ev, alpha, config.kernel.c)
        e_photo += ep
        e_embed += ee
    e_reg = 0.0
    for kf in graph.keyframes:
        res, valid = disparity_reg_residual(kf.disparity, kf.disparity_prior, config.reg)
        e_reg += float(np.sum(res[valid] ** 2))
    total = e_photo + config.lambda_embed * e_embed + e_reg
    return EnergyBreakdown(total=total, photo_ark=e_photo, embed=e_embed, reg=e_reg)
