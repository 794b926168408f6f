"""The objective: every residual term, its kernel shape, energy and Gauss-Newton weights.

The solver accumulates what evaluate_edge, edge_weights and prior_terms return
and adds no rule of its own: evaluate_edge stacks per pixel the residual rows
[flow x, flow y, embedding] (the last only when the embedding term is
evaluated), edge_weights weights each row and edge_energies scores them.

Validity conventions (enforced here and relied on by the solver):
  * geometric failures (zero disparity, behind-camera, out-of-bounds target)
    invalidate a pixel for every term;
  * a degenerate embedding norm invalidates only the embedding term;
  * invalid pixels hold zero residuals and get zero Gauss-Newton weight.

Every term of an edge is scaled by its flow confidence, so a pixel of zero
confidence contributes exactly zero as well. Each edge is therefore held and
evaluated on its support only: a FlowObservation reads the dense flow and
confidence grids once, checks them whole and keeps pixels, the flat grid
indices of its pixels with non-zero confidence, with their target flow and
confidence rows. The out-edges of one keyframe are evaluated, scored and
weighted together, on the stacked rows of their supports: one group of
KeyframeGraph.edge_groups() at a time.
"""

from __future__ import annotations

import functools
from dataclasses import InitVar, dataclass, field

import numpy as np

from . import geometry, robust
from .features import bilinear_sample, in_bounds

_NORM_EPS = 1e-8
# The embedding residual is r = _EMBED_SCALE * sqrt(2 (1 - cs)); _EMBED_DERIV_EPS
# keeps its derivative finite where cs -> 1 (r -> 0).
_EMBED_SCALE = 2.0
_EMBED_DERIV_EPS = 1e-6
# Weight of the disparity prior ALPHA_DISP * (d - d_prior)^2.
ALPHA_DISP = 1.0


@dataclass(eq=False)
class FlowObservation:
    """Target flow and confidence of a directed keyframe pair i -> j, kept as the rows of
    its support.

    The constructor takes the dense grids, flow (2, H, W) with channels (dx, dy)
    and confidence (H, W), and checks them whole: flow must be finite even where
    confidence is 0, and confidence finite and non-negative. It then keeps
    grid_shape (H, W) and, for the support only, pixels, the ascending flat
    grid indices where confidence > 0, their target flow rows and their
    confidence; the grids are not held.
    """

    i: int
    j: int
    flow: InitVar[np.ndarray]  # (2, H, W) grid, read by the constructor only
    confidence: np.ndarray     # given as the (H, W) grid, kept as the (N,) support rows
    grid_shape: tuple = field(init=False)
    pixels: np.ndarray = field(init=False, repr=False)  # (N,) flat indices where confidence > 0
    target: np.ndarray = field(init=False, repr=False)  # (N, 2) rows (dx, dy), C-contiguous

    def __post_init__(self, flow):
        flow = np.asarray(flow, dtype=float)
        confidence = np.asarray(self.confidence, dtype=float)
        if self.i == self.j:
            raise ValueError(f"self-edge ({self.i}, {self.j}) is not allowed")
        if flow.ndim != 3 or flow.shape[0] != 2:
            raise ValueError(f"flow must be (2, H, W), got {flow.shape}")
        if confidence.shape != flow.shape[1:]:
            raise ValueError(
                f"confidence shape {confidence.shape} does not match flow {flow.shape}")
        bad = ~(np.isfinite(confidence) & (confidence >= 0))
        if bad.any():
            raise ValueError(f"edge ({self.i}, {self.j}): confidence is not finite and "
                             f"non-negative at pixel index {np.flatnonzero(bad)[0]}")
        if not np.isfinite(flow).all():
            bad = ~(np.isfinite(flow[0]) & np.isfinite(flow[1]))
            raise ValueError(f"edge ({self.i}, {self.j}): flow is not finite at pixel index "
                             f"{np.flatnonzero(bad)[0]}")
        self.grid_shape = confidence.shape
        self.pixels = np.flatnonzero(confidence > 0)
        self.target = flow.reshape(2, -1).T[self.pixels]
        self.confidence = confidence.reshape(-1)[self.pixels]


@functools.cache
def grid_pixels(height: int, width: int) -> np.ndarray:
    """All integer pixel coordinates (x, y) of an H x W grid as (2, H*W) floats, the
    pixels in row-major order.

    One read-only array per grid shape, shared by every caller.
    """
    xs, ys = np.meshgrid(np.arange(width), np.arange(height))
    u = np.stack([xs, ys]).reshape(2, -1).astype(float)
    u.flags.writeable = False
    return u


def _norms(z):
    """Euclidean norm of each row of (N, C) vectors."""
    return np.sqrt(np.einsum("nc,nc->n", z, z))


def _cosine(z_src, n_src, z_sampled):
    """Cosine similarity of (N, C) row vectors, z_src of norms n_src, with degenerate-norm
    masking."""
    n_smp = _norms(z_sampled)
    ok = (n_src > _NORM_EPS) & (n_smp > _NORM_EPS)
    denom = np.where(ok, n_src * n_smp, 1.0)
    cs = np.clip(np.einsum("nc,nc->n", z_src, z_sampled) / denom, -1.0, 1.0)
    return np.where(ok, cs, 0.0), n_smp, ok


def _embed_residual_from_cs(cs):
    return _EMBED_SCALE * np.sqrt(2.0 * np.maximum(1.0 - cs, 0.0))


def _embed_dresidual_dcs(r):
    return -_EMBED_SCALE**2 / (r + _EMBED_DERIV_EPS)


@dataclass(eq=False)
class EdgeBatch:
    """The out-edges of one keyframe i, stacked as evaluate_edge reads them: everything
    about them that no state of a solve changes.

    Rows bounds[e] to bounds[e + 1] belong to edges[e]. pixels, target and
    confidence are the edges' support rows stacked in the order of edges, and
    each edge's own rows are views of them, so they are held once. offsets[e]
    is the first row of edge e's target frame j in the graph's stacked (K*H*W)
    feature rows, j*H*W, and src_norm the norm of each row's source feature
    vector. What a pass derives from these in a few microseconds, the grid
    coordinates of pixels and each row's frame offset, is not held: on a
    48-keyframe graph those two would add 3.75 MB to every solve.
    """

    edges: list               # FlowObservation, all leaving keyframe i
    bounds: np.ndarray        # (E+1,) row offsets of the E edges
    pixels: np.ndarray        # (N,) flat grid indices of keyframe i
    target: np.ndarray        # (N, 2) target flow rows (dx, dy)
    confidence: np.ndarray    # (N,)
    offsets: np.ndarray       # (E,) j*H*W of each edge's target frame j
    src_norm: np.ndarray      # (N,) norms of keyframe i's features at pixels

    @property
    def i(self) -> int:
        return self.edges[0].i

    @staticmethod
    def build(graph, edges) -> "EdgeBatch":
        """Stack edges, a list of out-edges of one keyframe of graph, and rebind each
        edge's rows to views of the stack."""
        i = edges[0].i
        for obs in edges:
            if obs.i != i:
                raise ValueError(f"edge ({obs.i}, {obs.j}) does not start at keyframe {i}, "
                                 "the source of the batch")
        h, w = graph.grid_shape
        bounds = np.zeros(len(edges) + 1, dtype=int)
        np.cumsum([obs.pixels.size for obs in edges], out=bounds[1:])
        pixels = np.concatenate([obs.pixels for obs in edges])
        target = np.concatenate([obs.target for obs in edges])
        confidence = np.concatenate([obs.confidence for obs in edges])
        for obs, lo, hi in zip(edges, bounds[:-1], bounds[1:]):
            obs.pixels, obs.target, obs.confidence = pixels[lo:hi], target[lo:hi], confidence[lo:hi]
        src = graph.features[i].reshape(h * w, -1).take(pixels, axis=0)
        return EdgeBatch(edges=list(edges), bounds=bounds, pixels=pixels, target=target,
                         confidence=confidence,
                         offsets=np.array([obs.j * h * w for obs in edges], dtype=int),
                         src_norm=_norms(src))


def edge_batches(graph) -> list:
    """One EdgeBatch per group of graph.edge_groups(), in that order.

    The batches serve every graph of a solve: all its states share the edges
    and the feature buffer and differ only in poses, disparities and intrinsics.
    """
    return [EdgeBatch.build(graph, edges) for edges in graph.edge_groups()]


@dataclass(eq=False)
class EdgeEvaluation:
    """Per-pixel quantities for a batch of out-edges of one keyframe, over the pixels
    of their supports, component-major: the pixel axis is last.

    Pixels bounds[e] to bounds[e + 1] belong to edge e of the batch, and pixel n
    to the grid pixel pixels[n] (a flat row-major index) of the source keyframe;
    N is the summed number of pixels with non-zero confidence, not H*W. Each
    pixel has R residual rows [flow x, flow y, embedding]: R is 3, or 2 when the
    embedding term is not evaluated. residual[r] and jac[r, c] are contiguous
    (N,) rows.
    """

    pixels: np.ndarray            # (N,) flat grid indices, ascending within each edge
    bounds: np.ndarray            # (E+1,) pixel offsets of the E edges
    confidence: np.ndarray        # (N,)
    residual: np.ndarray          # (R, N) rows [flow x, flow y, embedding]
    valid_flow: np.ndarray        # (N,)
    cs: np.ndarray                # (N,)
    valid_embed: np.ndarray       # (N,)
    jac: np.ndarray = None        # (R, 7 or 11, N) over [disparity | pose j | intrinsics]
    adjoint: np.ndarray = None    # (E, 6, 6) Ad(T_ji) per edge: pose-i columns of row r of
                                  # edge e = -adjoint[e].T @ (pose-j columns jac[r, 1:7])


def evaluate_edge(graph, batch: EdgeBatch, *, need_similarity: bool = True,
                  need_embedding: bool = True, with_jacobians: bool = False,
                  with_intrinsics: bool = False) -> EdgeEvaluation:
    """Evaluate flow and embedding residuals (and optionally Jacobians) for one batch of
    out-edges of a keyframe i of graph.

    batch is the EdgeBatch of those edges (edge_batches), which holds their
    stacked rows; only the state is read from graph. The source disparity and
    its unprojection are read once for all rows, each edge's rows are carried
    into its target frame with its own T_ji (graph.relative_poses), and every
    row's target feature is sampled in one bilinear_sample call over the
    graph's feature buffer. The reprojection is shared between the two terms.
    need_similarity requests the cosine field even when the embedding term
    itself is disabled (the adaptive kernel consumes it either way).

    The stacked residual (R, N) and Jacobian (R, 7 or 11, N) are allocated
    once, and each row is written into them in place. Arithmetic that
    overflows in the Jacobian pass leaves non-finite rows without a warning:
    the solver reports them, naming the edge and pixel.
    """
    kf_i = graph.keyframes[batch.i]
    h, w = kf_i.disparity.shape
    pixels, bounds = batch.pixels, batch.bounds
    u = grid_pixels(h, w).take(pixels, axis=1)
    d = kf_i.disparity.reshape(-1)[pixels]
    relative = graph.relative_poses(batch.edges)
    intrinsics = graph.intrinsics

    n = pixels.size
    n_rows = 3 if need_embedding else 2
    jac = adjoint = None
    if with_jacobians:
        jac = np.empty((n_rows, 11 if with_intrinsics else 7, n))
        with np.errstate(over="ignore", invalid="ignore"):
            adjoint, mu, valid_geo = geometry.reprojection_jacobian(u, d, relative, intrinsics,
                                                                    bounds, jac[:2])
    else:
        mu, valid_geo = geometry.reproject(u, d, relative, intrinsics, bounds)

    valid_flow = valid_geo & in_bounds(mu.T, h, w)
    residual = np.empty((n_rows, n))
    r_flow = residual[:2]
    np.subtract(mu - u, batch.target.T, out=r_flow)
    r_flow[:, ~valid_flow] = 0.0

    out = EdgeEvaluation(
        pixels=pixels, bounds=bounds, confidence=batch.confidence, residual=residual,
        valid_flow=valid_flow, cs=np.zeros(n), valid_embed=np.zeros(n, dtype=bool), jac=jac,
        adjoint=adjoint)

    if need_similarity or need_embedding:
        # The support rows of the source features; the buffer's slot is a view.
        z_src = graph.features[batch.i].reshape(h * w, -1).take(pixels, axis=0)
        # Only the embedding Jacobian reads the sampling gradient (gradient-major).
        with_grad = with_jacobians and need_embedding
        z_smp, dz_du = bilinear_sample(graph.features.transpose(3, 0, 1, 2), mu.T, valid_flow,
                                       with_grad=with_grad,
                                       offsets=batch.offsets.repeat(np.diff(bounds)))
        cs, n_smp, norm_ok = _cosine(z_src, batch.src_norm, z_smp)
        valid_embed = valid_flow & norm_ok
        out.cs = np.where(valid_embed, cs, 0.0)
        out.valid_embed = valid_embed
        if need_embedding:
            r_embed = residual[2]
            r_embed[:] = _embed_residual_from_cs(cs)
            r_embed[~valid_embed] = 0.0
            if with_jacobians:
                # dcs/dz = z_src / (|z_src| |z_smp|) - cs z_smp / |z_smp|^2
                inv_smp = 1.0 / np.where(norm_ok, n_smp, 1.0)
                dcs_dz = z_src * (inv_smp / np.where(norm_ok, batch.src_norm, 1.0))[:, None]
                dcs_dz -= z_smp * (cs * inv_smp * inv_smp)[:, None]
                dcs_du = np.einsum("nk,nik->in", dcs_dz, dz_du)
                scale = np.where(valid_embed, _embed_dresidual_dcs(r_embed), 0.0)
                # The embedding row, written in place from the flow rows.
                with np.errstate(over="ignore", invalid="ignore"):
                    np.multiply(dcs_du[0], jac[0], out=jac[2])
                    jac[2] += dcs_du[1] * jac[1]
                    jac[2] *= scale
    return out


def _shapes(ev: EdgeEvaluation) -> np.ndarray:
    """Adaptive-kernel shape of each row of ev: robust.adaptive_alpha of its similarity,
    robust.ALPHA_STATIC where the similarity is not usable."""
    return np.where(ev.valid_embed, robust.adaptive_alpha(ev.cs), robust.ALPHA_STATIC)


def kernel_alphas(graph, config, batches) -> list:
    """The robust-kernel shape of every support pixel at the current state, one entry per
    batch of batches, graph's edge_batches.

    config is a solver.SolverConfig. A fixed kernel evaluates no edge: each
    entry is the one float config.fixed_alpha, which the robust functions
    broadcast over the rows. The adaptive kernel gives an array, its rows
    stacked as evaluate_edge stacks them, mapping each pixel's similarity
    through robust.adaptive_alpha; a pixel without a usable similarity keeps
    robust.ALPHA_STATIC. This is a similarity-only pass; total_energy returns
    the same shapes from its own pass.
    """
    if config.fixed_alpha is not None:
        return [float(config.fixed_alpha)] * len(batches)
    return [_shapes(evaluate_edge(graph, batch, need_similarity=True, need_embedding=False))
            for batch in batches]


def _flow_norm(ev: EdgeEvaluation) -> np.ndarray:
    """Norm of rows 0-1 of each pixel, bitwise equal to np.linalg.norm over them."""
    x, y = ev.residual[0], ev.residual[1]
    return np.sqrt(x * x + y * y)


def edge_energies(ev: EdgeEvaluation, alpha: np.ndarray):
    """(photo_ark, embed) energies of one edge evaluation under shapes alpha: rho of the
    norm of rows 0-1 (rho(0) = 0) and the squares of rows 2:, confidence-weighted."""
    rho = robust.barron_rho(_flow_norm(ev), alpha)
    embed = np.einsum("rn,rn->n", ev.residual[2:], ev.residual[2:])
    return float(np.sum(ev.confidence * rho)), float(np.sum(ev.confidence * embed))


def edge_weights(ev: EdgeEvaluation, alpha: np.ndarray, config) -> np.ndarray:
    """Gauss-Newton weight of every residual row of one edge evaluation, (R, N): rows
    0-1 carry the IRLS weight psi(r)/r of the flow norm under shapes alpha, rows 2:
    carry 2 * lambda_embed (the factor 2 of d(r^2)), each folded with the
    confidence and its term's validity.
    """
    w_ark = robust.irls_weight(_flow_norm(ev), alpha)
    weight = np.empty(ev.residual.shape)
    weight[:2] = ev.confidence * w_ark * ev.valid_flow
    weight[2:] = 2.0 * config.lambda_embed * ev.confidence * ev.valid_embed
    return weight


def prior_terms(kf):
    """Disparity prior ALPHA_DISP * (d - d_prior)^2 of keyframe kf where the prior is > 0:
    (energy, Gauss-Newton diagonal h, gradient g), h and g flat over the pixels.
    """
    valid = kf.disparity_prior > 0
    diff = kf.disparity - kf.disparity_prior
    energy = ALPHA_DISP * float(np.sum(diff[valid] ** 2))
    valid = valid.reshape(-1)
    h = 2.0 * ALPHA_DISP * valid
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


def total_energy(graph, config, alphas, batches):
    """Objective value over a keyframe graph at its current state, and that state's shapes.

    config is a solver.SolverConfig; batches are graph's edge_batches, and
    alphas holds the shapes of each batch under which the energy is scored, as
    decided by kernel_alphas. Returns the pair (EnergyBreakdown, shapes), where
    shapes is kernel_alphas(graph, config, batches), bit for bit: under the
    adaptive kernel taken from the similarity of this same pass, under a fixed
    kernel the alphas given, which no state changes.
    """
    adaptive = config.fixed_alpha is None
    shapes = [] if adaptive else alphas
    e_photo = 0.0
    e_embed = 0.0
    for batch, alpha in zip(batches, alphas, strict=True):
        ev = evaluate_edge(graph, batch, need_similarity=adaptive,
                           need_embedding=config.lambda_embed != 0.0)
        ep, ee = edge_energies(ev, alpha)
        e_photo += ep
        e_embed += ee
        if adaptive:
            shapes.append(_shapes(ev))
    e_reg = 0.0
    for kf in graph.keyframes:
        e_reg += prior_terms(kf)[0]
    return EnergyBreakdown.of(e_photo, e_embed, e_reg, config.lambda_embed), shapes
