"""The objective: every residual term, its kernel shape, energy and Gauss-Newton weights.

The solver accumulates what evaluate_edge, edge_weights and prior_terms return
and adds no rule of its own.

Validity conventions (enforced here and relied on by the solver):
  * geometric failures (zero disparity, behind-camera, out-of-bounds target)
    invalidate a pixel for every term;
  * a degenerate embedding norm invalidates only the embedding term;
  * invalid pixels hold zero residuals and get zero Gauss-Newton weight.

Every term of an edge is scaled by its flow confidence, so a pixel of zero
confidence contributes exactly zero as well. Each edge is therefore evaluated
on its support only: FlowObservation.pixels, the flat grid indices of its
pixels with non-zero confidence, fixed when the observation is built.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

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
    """Dense target flow and confidence for a directed keyframe pair i -> j.

    pixels, the support, is derived from confidence once at construction;
    confidence is not to be modified in place afterwards.
    """

    i: int
    j: int
    flow: np.ndarray        # (2, H, W), channels (dx, dy), finite, C-contiguous
    confidence: np.ndarray  # (H, W), finite and non-negative
    pixels: np.ndarray = field(init=False, repr=False)  # flat indices where confidence > 0

    def __post_init__(self):
        self.flow = np.ascontiguousarray(self.flow, dtype=float)
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
        if not np.isfinite(self.flow).all():
            bad = ~(np.isfinite(self.flow[0]) & np.isfinite(self.flow[1]))
            raise ValueError(f"edge ({self.i}, {self.j}): flow is not finite at pixel index "
                             f"{np.flatnonzero(bad)[0]}")
        self.pixels = np.flatnonzero(self.confidence > 0)


@dataclass(frozen=True)
class RegConfig:
    alpha_disp: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.alpha_disp) and self.alpha_disp >= 0):
            raise ValueError(f"alpha_disp must be finite and >= 0, got {self.alpha_disp!r}")


@functools.cache
def grid_pixels(height: int, width: int) -> np.ndarray:
    """All integer pixel coordinates of an H x W grid, row-major, as (H*W, 2) floats.

    One read-only array per grid shape, shared by every caller.
    """
    xs, ys = np.meshgrid(np.arange(width), np.arange(height))
    u = np.stack([xs, ys], axis=-1).reshape(-1, 2).astype(float)
    u.flags.writeable = False
    return u


def _cosine(z_src, z_sampled):
    """Cosine similarity of (N, C) row vectors with degenerate-norm masking."""
    n_src = np.sqrt(np.einsum("nc,nc->n", z_src, z_src))
    n_smp = np.sqrt(np.einsum("nc,nc->n", z_sampled, z_sampled))
    ok = (n_src > _NORM_EPS) & (n_smp > _NORM_EPS)
    denom = np.where(ok, n_src * n_smp, 1.0)
    cs = np.clip(np.einsum("nc,nc->n", z_src, z_sampled) / denom, -1.0, 1.0)
    return np.where(ok, cs, 0.0), n_src, n_smp, ok


def _embed_residual_from_cs(cs):
    return _EMBED_SCALE * np.sqrt(2.0 * np.maximum(1.0 - cs, 0.0))


def _embed_dresidual_dcs(r):
    return -_EMBED_SCALE**2 / (r + _EMBED_DERIV_EPS)


@dataclass(eq=False)
class EdgeEvaluation:
    """Per-pixel quantities for one directed edge, one row per pixel of its support.

    Row n belongs to the grid pixel pixels[n] (a flat row-major index); N is the
    number of pixels with non-zero confidence, not H*W.
    """

    pixels: np.ndarray            # (N,) flat grid indices, ascending
    confidence: np.ndarray        # (N,)
    r_flow: np.ndarray            # (N, 2)
    valid_flow: np.ndarray        # (N,)
    r_embed: np.ndarray           # (N,)
    cs: np.ndarray                # (N,)
    valid_embed: np.ndarray       # (N,)
    jf: np.ndarray = None         # (N, 2, 7 or 11) over [disparity | pose j | intrinsics]
    je: np.ndarray = None         # (N, 7 or 11), same columns
    adjoint: np.ndarray = None    # (6, 6) Ad(T_ji): pose-i columns = -(pose-j columns) @ adjoint


def evaluate_edge(kf_i, kf_j, obs: FlowObservation, intrinsics: Intrinsics, *,
                  need_similarity: bool = True, need_embedding: bool = True,
                  with_jacobians: bool = False, with_intrinsics: bool = False) -> EdgeEvaluation:
    """Evaluate flow and embedding residuals (and optionally Jacobians) for one edge.

    Only the pixels of the edge's support (obs.pixels) are evaluated. The
    reprojection is computed once and shared between the two terms.
    need_similarity requests the cosine field even when the embedding term
    itself is disabled (the adaptive kernel consumes it either way).
    """
    h, w = kf_i.disparity.shape
    pixels = obs.pixels
    u = grid_pixels(h, w)[pixels]
    d = kf_i.disparity.reshape(-1)[pixels]

    jf = adjoint = None
    if with_jacobians:
        adjoint, jf_j, jf_d, mu, valid_geo = geometry.reprojection_jacobian(
            u, d, kf_i.pose, kf_j.pose, intrinsics)
        parts = [jf_d[:, :, None], jf_j]
        if with_intrinsics:
            parts.append(geometry.reprojection_intrinsics_jacobian(u, d, mu, jf_j, adjoint,
                                                                   intrinsics))
        jf = np.concatenate(parts, axis=2)
    else:
        mu, valid_geo = geometry.reproject(u, d, kf_i.pose, kf_j.pose, intrinsics)

    valid_flow = valid_geo & in_bounds(mu, h, w)
    target = obs.flow.reshape(2, -1)[:, pixels].T
    r_flow = np.where(valid_flow[:, None], (mu - u) - target, 0.0)
    conf = obs.confidence.reshape(-1)[pixels]

    n = pixels.size
    out = EdgeEvaluation(
        pixels=pixels, confidence=conf, r_flow=r_flow, valid_flow=valid_flow,
        r_embed=np.zeros(n), cs=np.zeros(n), valid_embed=np.zeros(n, dtype=bool), jf=jf,
        adjoint=adjoint)

    if need_similarity or need_embedding:
        # For pixel-major features the reshape is a view; the support rows are gathered.
        z_src = np.moveaxis(kf_i.features, 0, -1).reshape(h * w, -1)[pixels]
        # Only the embedding Jacobian reads the sampling gradient.
        # valid_flow already requires mu in the sampling domain.
        z_smp, dz_du, _ = bilinear_sample(kf_j.features, mu,
                                          with_grad=with_jacobians and need_embedding)
        cs, n_src, n_smp, norm_ok = _cosine(z_src, z_smp)
        valid_embed = valid_flow & norm_ok
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
                out.je = scale[:, None] * np.einsum("ni,nij->nj", dcs_du, jf)
    return out


def kernel_alphas(graph, config) -> list:
    """The robust-kernel shape of every support pixel at the current state, one array per edge.

    config is a solver.SolverConfig. A fixed kernel evaluates no edge; the
    adaptive kernel maps each pixel's similarity through robust.adaptive_alpha,
    and a pixel without a usable similarity keeps alpha_static.
    """
    if config.fixed_alpha is not None:
        return [np.full(obs.pixels.size, float(config.fixed_alpha)) for obs in graph.edges]
    alphas = []
    for obs in graph.edges:
        ev = evaluate_edge(graph.keyframes[obs.i], graph.keyframes[obs.j], obs,
                           graph.intrinsics, need_similarity=True, need_embedding=False)
        alphas.append(np.where(ev.valid_embed, robust.adaptive_alpha(ev.cs, config.kernel),
                               config.kernel.alpha_static))
    return alphas


def edge_energies(ev: EdgeEvaluation, alpha: np.ndarray, c: float):
    """(photo_ark, embed) energies of one evaluated edge under shapes alpha (rho(0) = 0)."""
    rho = robust.barron_rho(np.linalg.norm(ev.r_flow, axis=-1), alpha, c)
    return float(np.sum(ev.confidence * rho)), float(np.sum(ev.confidence * ev.r_embed**2))


def edge_weights(ev: EdgeEvaluation, alpha: np.ndarray, config):
    """Gauss-Newton weights (w_flow, w_emb) of one edge: the IRLS weight psi(r)/r under
    shapes alpha and 2 * lambda_embed (the factor 2 of d(r^2)), each folded with the
    confidence and its term's validity; w_emb is None when lambda_embed is 0.
    """
    w_ark = robust.irls_weight(np.linalg.norm(ev.r_flow, axis=-1), alpha, config.kernel.c)
    w_flow = ev.confidence * w_ark * ev.valid_flow
    if config.lambda_embed == 0.0:
        return w_flow, None
    return w_flow, 2.0 * config.lambda_embed * ev.confidence * ev.valid_embed


def prior_terms(kf, reg: RegConfig):
    """Disparity prior alpha_disp * (d - d_prior)^2 of keyframe kf where the prior is > 0:
    (energy, Gauss-Newton diagonal h, gradient g), h and g flat over the pixels.
    """
    valid = kf.disparity_prior > 0
    diff = kf.disparity - kf.disparity_prior
    energy = float(np.sum((np.sqrt(reg.alpha_disp) * diff[valid]) ** 2))
    valid = valid.reshape(-1)
    h = 2.0 * reg.alpha_disp * valid
    return energy, h, h * np.where(valid, diff.reshape(-1), 0.0)


@dataclass(frozen=True)
class EnergyBreakdown:
    """Component energies: total = photo_ark + lambda_embed * embed + reg."""

    total: float
    photo_ark: float
    embed: float
    reg: float

    @classmethod
    def of(cls, photo_ark: float, embed: float, reg: float, lambda_embed: float):
        return cls(photo_ark + lambda_embed * embed + reg, photo_ark, embed, reg)


def total_energy(graph, config, alphas) -> EnergyBreakdown:
    """Objective value over a keyframe graph at its current state.

    config is a solver.SolverConfig (read for its kernel, reg and lambda_embed
    fields); alphas holds one per-pixel shape array per edge of graph.edges,
    as decided by kernel_alphas.
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
        e_reg += prior_terms(kf, config.reg)[0]
    return EnergyBreakdown.of(e_photo, e_embed, e_reg, config.lambda_embed)
