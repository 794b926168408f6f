"""Gauss-Newton solver over poses, intrinsics, and dense disparities.

Unknown ordering: [6 per non-frozen pose | 4 if optimizing intrinsics | 1 per
pixel per keyframe]. The disparity block is diagonal and is eliminated by a
Schur complement, one keyframe at a time, since a frame's disparities couple
only to the poses of its edges and to the intrinsics (Triggs et al., "Bundle
Adjustment - A Modern Synthesis", 2000). Levenberg damping (lm * diag) guards
steps, falling back to plain Gauss-Newton as steps keep being accepted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg

from . import residuals, robust
from .geometry import Intrinsics, se3_exp
from .graph import KeyframeGraph
from .residuals import (EnergyBreakdown, RegConfig, adaptive_edge_alpha, edge_energies,
                        evaluate_edge, total_energy)
from .robust import KernelConfig

# Levenberg damping schedule: start at LM_INIT, multiply by LM_GROW after a
# rejected or singular step and by LM_SHRINK (floored at LM_MIN) after an
# accepted one; past LM_MAX the solve stops.
LM_INIT = 1e-4
LM_GROW = 10.0
LM_SHRINK = 0.5
LM_MIN = 1e-12
LM_MAX = 1e10
UPDATE_TOL = 1e-8      # converged once the step norm falls below this
MIN_DISPARITY = 1e-6   # disparities are clamped here after every update


@dataclass
class SolverConfig:
    max_iters: int = 30
    kernel: KernelConfig = field(default_factory=KernelConfig)
    reg: RegConfig = field(default_factory=RegConfig)
    lambda_embed: float = 2.0
    fixed_alpha: float | None = None   # None: similarity-adaptive (ARK) shapes
    optimize_intrinsics: bool = False

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.fixed_alpha is not None and not math.isfinite(self.fixed_alpha):
            raise ValueError(f"fixed_alpha must be finite or None, got {self.fixed_alpha!r}")
        if not (math.isfinite(self.lambda_embed) and self.lambda_embed >= 0):
            raise ValueError(f"lambda_embed must be finite and >= 0, got {self.lambda_embed!r}")


@dataclass(eq=False)
class ProblemLayout:
    """Index bookkeeping for the stacked unknown vector and the coupling rows.

    Keyframe k's disparities couple to coupling_cols[k], the sorted reduced
    unknowns of its edges (k, j): the poses of k and j and the intrinsics.
    Their coupling rows are coupling_rows[k], a contiguous slice of the one
    (sum of r_k, H*W) coupling array, in the order of coupling_cols[k].
    """

    pose_slices: list          # per keyframe: slice into the reduced block, or None if frozen
    intrinsics_slice: slice    # None unless optimizing intrinsics
    n_reduced: int             # poses + intrinsics
    pixels_per_frame: int
    n_disparity: int
    coupling_cols: list        # per keyframe: sorted int array of reduced unknowns
    coupling_rows: list        # per keyframe: slice of coupling rows

    @staticmethod
    def build(graph: KeyframeGraph, config: SolverConfig) -> "ProblemLayout":
        offset = 0
        pose_slices = []
        for kf in graph.keyframes:
            if kf.frozen:
                pose_slices.append(None)
            else:
                pose_slices.append(slice(offset, offset + 6))
                offset += 6
        intrinsics_slice = None
        if config.optimize_intrinsics:
            intrinsics_slice = slice(offset, offset + 4)
            offset += 4
        coupled = [set() for _ in graph.keyframes]
        for obs in graph.edges:
            for s in (pose_slices[obs.i], pose_slices[obs.j], intrinsics_slice):
                if s is not None:
                    coupled[obs.i].update(range(s.start, s.stop))
        coupling_cols, coupling_rows, row = [], [], 0
        for cols in coupled:
            coupling_cols.append(np.array(sorted(cols), dtype=int))
            coupling_rows.append(slice(row, row + len(cols)))
            row += len(cols)
        h, w = graph.grid_shape
        n_px = h * w
        return ProblemLayout(pose_slices, intrinsics_slice, offset, n_px,
                             n_px * len(graph.keyframes), coupling_cols, coupling_rows)

    def disparity_slice(self, kf_index: int) -> slice:
        start = kf_index * self.pixels_per_frame
        return slice(start, start + self.pixels_per_frame)

    @property
    def n_total(self) -> int:
        return self.n_reduced + self.n_disparity


@dataclass(eq=False)
class NormalEquations:
    """Gauss-Newton system in block form; b is the objective gradient.

    The full matrix is [[pose_h, C], [C.T, diag(disp_h)]], where the (P, D)
    pose-disparity coupling C is stored by keyframe: coupling rows
    layout.coupling_rows[k] hold the rows layout.coupling_cols[k] of C over
    keyframe k's pixels, and every other entry of C is zero. So coupling has
    shape (sum of r_k, H*W), which grows linearly in the number of keyframes.
    """

    layout: ProblemLayout
    pose_h: np.ndarray     # (P, P)
    coupling: np.ndarray   # (sum of r_k, H*W)
    disp_h: np.ndarray     # (D,)
    pose_g: np.ndarray     # (P,)
    disp_g: np.ndarray     # (D,)
    energies: EnergyBreakdown

    def to_dense(self):
        """Materialize (H, b); intended for small oracle problems only."""
        layout = self.layout
        n = layout.n_total
        p = layout.n_reduced
        h = np.zeros((n, n))
        h[:p, :p] = self.pose_h
        for k, (cols, rows) in enumerate(zip(layout.coupling_cols, layout.coupling_rows)):
            d = layout.disparity_slice(k)
            h[cols, p + d.start:p + d.stop] = self.coupling[rows]
        h[p:, :p] = h[:p, p:].T
        h[p:, p:] = np.diag(self.disp_h)
        return h, np.concatenate([self.pose_g, self.disp_g])


def _check_finite(arrays, edge, context):
    for arr in arrays:
        if arr is None:
            continue
        bad = ~np.isfinite(arr)
        if bad.any():
            pixel = int(np.argwhere(bad)[0][0])
            raise FloatingPointError(
                f"non-finite {context} at edge ({edge.i}, {edge.j}), pixel index {pixel}")


def kernel_alphas(graph: KeyframeGraph, config: SolverConfig) -> list:
    """The robust-kernel shape of every edge pixel at the current state, one array per edge.

    A fixed kernel gives constant arrays without evaluating any edge; the
    adaptive kernel maps each pixel's cross-view similarity through
    adaptive_edge_alpha. The solver holds these shapes fixed for one iteration.
    """
    if config.fixed_alpha is not None:
        return [np.full(obs.confidence.size, float(config.fixed_alpha)) for obs in graph.edges]
    alphas = []
    for obs in graph.edges:
        ev = evaluate_edge(graph.keyframes[obs.i], graph.keyframes[obs.j], obs,
                           graph.intrinsics, need_similarity=True, need_embedding=False)
        alphas.append(adaptive_edge_alpha(ev, config.kernel))
    return alphas


def _accumulate_edge(ne: NormalEquations, kf_index: int, blocks, ev, w_flow, w_emb):
    """Add the weighted Gauss-Newton terms of one edge out of keyframe kf_index to ne in place.

    blocks: per block of reduced unknowns, (slice or None if frozen or absent, flow
    Jacobian (N, 2, m), embedding Jacobian (N, m)); w_emb is None without the
    embedding term. Per pixel the rows (flow x, flow y[, embedding]) are stacked
    with the pixel's own disparity as column 0, so the pose block, the gradient
    and the per-pixel [disparity diagonal, coupling row] are one weighted
    product each. A function of its own so that these per-edge temporaries are
    freed before the next edge is evaluated, which keeps peak memory flat.
    """
    blocks = [blk for blk in blocks if blk[0] is not None]
    cols = np.array([k for s, _, _ in blocks for k in range(s.start, s.stop)], dtype=int)
    layout = ne.layout
    d_slice = layout.disparity_slice(kf_index)
    coupling_rows = (layout.coupling_rows[kf_index].start
                     + np.searchsorted(layout.coupling_cols[kf_index], cols))
    jac = np.concatenate([ev.jf_disp[:, :, None]] + [jf for _, jf, _ in blocks], axis=2)
    res = ev.r_flow
    weight = np.repeat(w_flow[:, None], 2, axis=1)
    if w_emb is not None:
        je = np.concatenate([ev.je_disp[:, None]] + [j for _, _, j in blocks], axis=1)
        jac = np.concatenate([jac, je[:, None, :]], axis=1)
        res = np.concatenate([res, ev.r_embed[:, None]], axis=1)
        weight = np.concatenate([weight, w_emb[:, None]], axis=1)

    w_disp = weight * jac[:, :, 0]
    cross = np.matmul(w_disp[:, None, :], jac)[:, 0, :]
    ne.disp_h[d_slice] += cross[:, 0]
    ne.disp_g[d_slice] += np.sum(w_disp * res, axis=1)
    ne.coupling[coupling_rows] += cross[:, 1:].T
    rows = jac[:, :, 1:].reshape(weight.size, cols.size)
    weighted = weight.reshape(-1, 1) * rows
    ne.pose_h[np.ix_(cols, cols)] += rows.T @ weighted
    ne.pose_g[cols] += weighted.T @ res.reshape(-1)


def assemble(graph: KeyframeGraph, config: SolverConfig, alphas) -> NormalEquations:
    """Accumulate the weighted Gauss-Newton normal equations over all edges and priors.

    Per pixel the flow residual is robustified through the IRLS weight of the
    loss with shape alphas[edge][pixel] (from kernel_alphas), folded with the
    flow confidence; the embedding term enters as a plain weighted quadratic;
    the disparity prior anchors each pixel with weight alpha_disp.
    """
    layout = ProblemLayout.build(graph, config)
    p = layout.n_reduced
    ne = NormalEquations(layout=layout, pose_h=np.zeros((p, p)),
                         coupling=np.zeros((layout.coupling_rows[-1].stop,
                                            layout.pixels_per_frame)),
                         disp_h=np.zeros(layout.n_disparity), pose_g=np.zeros(p),
                         disp_g=np.zeros(layout.n_disparity), energies=None)
    e_photo = 0.0
    e_embed = 0.0

    need_embedding = config.lambda_embed != 0.0
    for obs, alpha in zip(graph.edges, alphas, strict=True):
        ev = evaluate_edge(graph.keyframes[obs.i], graph.keyframes[obs.j], obs,
                           graph.intrinsics, need_similarity=False, need_embedding=need_embedding,
                           with_jacobians=True, with_intrinsics=config.optimize_intrinsics)
        _check_finite((ev.r_flow, ev.jf_pose_i, ev.jf_pose_j, ev.jf_disp,
                       ev.r_embed, ev.je_pose_i, ev.je_pose_j, ev.je_disp),
                      obs, "residual/Jacobian")

        ep, ee = edge_energies(ev, alpha, config.kernel.c)
        e_photo += ep
        e_embed += ee

        r_norm = np.linalg.norm(ev.r_flow, axis=-1)
        w_ark = robust.irls_weight(r_norm, alpha, config.kernel.c)
        w_flow = ev.confidence * w_ark * ev.valid_flow
        # True gradient of lambda * sum w r^2 carries a factor 2.
        w_emb = (2.0 * config.lambda_embed * ev.confidence * ev.valid_embed
                 if need_embedding else None)

        blocks = [(layout.pose_slices[obs.i], ev.jf_pose_i, ev.je_pose_i),
                  (layout.pose_slices[obs.j], ev.jf_pose_j, ev.je_pose_j),
                  (layout.intrinsics_slice, ev.jf_intr, ev.je_intr)]
        _accumulate_edge(ne, obs.i, blocks, ev, w_flow, w_emb)

    e_reg = 0.0
    for kf in graph.keyframes:
        res, valid = residuals.disparity_reg_residual(kf.disparity, kf.disparity_prior,
                                                      config.reg)
        e_reg += float(np.sum(res[valid] ** 2))
        d_slice = layout.disparity_slice(kf.index)
        w_reg = 2.0 * config.reg.alpha_disp * valid.reshape(-1)
        ne.disp_h[d_slice] += w_reg
        diff = (kf.disparity - kf.disparity_prior).reshape(-1)
        ne.disp_g[d_slice] += w_reg * np.where(valid.reshape(-1), diff, 0.0)

    total = e_photo + config.lambda_embed * e_embed + e_reg
    ne.energies = EnergyBreakdown(total, e_photo, e_embed, e_reg)
    return ne


def solve_normal_equations(ne: NormalEquations, lm: float) -> np.ndarray:
    """Solve (H + lm diag(H)) delta = -b via Schur elimination of the disparity block.

    The reduced system is S = H_pp - sum_k C_k D_k^-1 C_k^T, where keyframe k's
    coupling block C_k enters only the rows and columns of its unknowns
    (layout.coupling_cols[k]): one small product per keyframe, and the
    back-substitution for the disparities also runs one keyframe at a time.
    Raises numpy.linalg.LinAlgError when the damped reduced system cannot be
    factorized. Disparity entries with an identically zero diagonal receive a
    zero update (unobserved pixels).
    """
    layout = ne.layout
    disp_damped = ne.disp_h * (1.0 + lm)
    inv_disp = np.zeros_like(disp_damped)
    np.divide(1.0, disp_damped, out=inv_disp, where=disp_damped > 0)
    blocks = [(cols, ne.coupling[rows], layout.disparity_slice(k))
              for k, (cols, rows) in enumerate(zip(layout.coupling_cols, layout.coupling_rows))]

    if layout.n_reduced > 0:
        reduction = np.zeros_like(ne.pose_h)
        reduced_g = np.zeros_like(ne.pose_g)
        for cols, c, d in blocks:
            ec = c * inv_disp[d]
            reduction[np.ix_(cols, cols)] += ec @ c.T
            reduced_g[cols] += ec @ ne.disp_g[d]
        schur = ne.pose_h + lm * np.diag(np.diag(ne.pose_h)) - reduction
        rhs = reduced_g - ne.pose_g
        cho = scipy.linalg.cho_factor(schur, check_finite=False)
        delta_pose = scipy.linalg.cho_solve(cho, rhs, check_finite=False)
    else:
        delta_pose = np.zeros(0)
    delta_disp = np.empty_like(inv_disp)
    for cols, c, d in blocks:
        delta_disp[d] = inv_disp[d] * (-ne.disp_g[d] - c.T @ delta_pose[cols])
    return np.concatenate([delta_pose, delta_disp])


def retract(graph: KeyframeGraph, delta: np.ndarray, config: SolverConfig) -> KeyframeGraph:
    """Apply a stacked update: exp-compose poses, add intrinsics, add and clamp disparities."""
    layout = ProblemLayout.build(graph, config)
    if delta.shape != (layout.n_total,):
        raise ValueError(f"delta has {delta.shape[0]} entries, expected {layout.n_total}")
    keyframes = []
    disp_delta = delta[layout.n_reduced:]
    for kf in graph.keyframes:
        slot = layout.pose_slices[kf.index]
        pose = kf.pose if slot is None else se3_exp(delta[slot]).compose(kf.pose)
        disp = kf.disparity + disp_delta[layout.disparity_slice(kf.index)].reshape(kf.disparity.shape)
        disp = np.maximum(disp, MIN_DISPARITY)
        keyframes.append(replace(kf, pose=pose, disparity=disp))
    intrinsics = graph.intrinsics
    if layout.intrinsics_slice is not None:
        intrinsics = Intrinsics.from_array(intrinsics.as_array() + delta[layout.intrinsics_slice])
    return KeyframeGraph(keyframes=keyframes, edges=list(graph.edges), intrinsics=intrinsics)


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    e_total: float
    e_photo_ark: float
    e_embed: float
    e_reg: float
    accepted: bool


def solve(graph: KeyframeGraph, config: SolverConfig):
    """Damped Gauss-Newton loop per the joint bundle-adjustment recipe.

    Each outer iteration follows the IRLS treatment of the adaptive kernel:
    kernel_alphas decides the shape parameters once from the current state,
    and they are held fixed while the normal equations are built, solved, and
    the step is scored (b is then the exact objective gradient for that kernel
    state).

    Returns (optimized graph, trace). Row 0 of the trace holds the initial
    energies; each further row is one solve attempt with its accept flag, all
    evaluated under that iteration's kernel state. Raises RuntimeError when
    the damped reduced system stays singular.
    """
    if not graph.edges:
        raise ValueError("graph has no edges; the problem is unconstrained")

    state = graph.copy()
    trace = []
    lm = LM_INIT
    for it in range(1, config.max_iters + 1):
        alphas = kernel_alphas(state, config)
        ne = assemble(state, config, alphas)
        e_cur = ne.energies
        if it == 1:
            trace.append(IterationRecord(0, e_cur.total, e_cur.photo_ark, e_cur.embed,
                                         e_cur.reg, True))
        accepted = False
        while True:
            try:
                delta = solve_normal_equations(ne, lm)
            except np.linalg.LinAlgError:
                lm *= LM_GROW
                if lm > LM_MAX:
                    raise RuntimeError(
                        "reduced system stayed singular through damping escalation; "
                        "the problem is degenerate") from None
                continue
            if np.linalg.norm(delta) < UPDATE_TOL:
                return state, trace
            candidate = retract(state, delta, config)
            e_new = total_energy(candidate, config, alphas)
            accepted = e_new.total < e_cur.total
            trace.append(IterationRecord(it, e_new.total, e_new.photo_ark, e_new.embed,
                                         e_new.reg, accepted))
            if accepted:
                state = candidate
                lm = max(lm * LM_SHRINK, LM_MIN)
                break
            lm *= LM_GROW
            if lm > LM_MAX:
                # Gradient-direction steps stopped helping under the current
                # kernel state: treat as converged.
                return state, trace
    return state, trace
