"""Gauss-Newton solver over poses, intrinsics, and dense disparities.

The objective is defined in residuals; this module accumulates its terms into
normal equations, solves them and retracts the step. Unknown ordering: [6 per
non-frozen pose | 4 if optimizing intrinsics | 1 per pixel per keyframe]. The
disparity block is diagonal and is eliminated by a Schur complement, one
keyframe at a time, since a frame's disparities couple only to the poses of its
edges and to the intrinsics (Triggs et al., "Bundle Adjustment - A Modern
Synthesis", 2000). Levenberg damping (lm * diag) guards steps, falling back to
plain Gauss-Newton as steps keep being accepted.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .geometry import Intrinsics, se3_exp
from .graph import KeyframeGraph
from .residuals import (EnergyBreakdown, RegConfig, edge_energies, edge_weights, evaluate_edge,
                        kernel_alphas, prior_terms, total_energy)
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


def _check_finite(arrays, edge, pixels, context):
    """Raise FloatingPointError naming the grid pixel pixels[n] of the first non-finite row n."""
    for arr in arrays:
        if arr is None:
            continue
        bad = ~np.isfinite(arr)
        if bad.any():
            pixel = int(pixels[np.argwhere(bad)[0][0]])
            raise FloatingPointError(
                f"non-finite {context} at edge ({edge.i}, {edge.j}), pixel index {pixel}")


def _accumulate_edge(ne: NormalEquations, obs, ev, w_flow, w_emb):
    """Add the weighted Gauss-Newton terms of edge obs (i -> j) to ne in place.

    w_emb is None without the embedding term. Per pixel the rows (flow x, flow
    y[, embedding]) of ev's Jacobian [disparity | pose j | intrinsics] give the
    [disparity diagonal, coupling row] in one batched product, and the edge's
    pose block and gradient over [pose j | intrinsics] are one weighted product
    each. L = [[-Ad, I, 0], [0, 0, I]] lifts them once per edge to [pose i |
    pose j | intrinsics] (H <- L^T H L, g <- L^T g, C <- L^T C), keeping only
    the columns of non-frozen unknowns. Row n of ev lands in the disparity entry
    and coupling column of grid pixel ev.pixels[n]. A function of its own so
    that these per-edge temporaries are freed before the next edge is
    evaluated, which keeps peak memory flat.
    """
    layout = ne.layout
    cols, lift_cols = [], []
    for s, offset in ((layout.pose_slices[obs.i], 0), (layout.pose_slices[obs.j], 6),
                      (layout.intrinsics_slice, 12)):
        if s is not None:
            cols += range(s.start, s.stop)
            lift_cols += range(offset, offset + s.stop - s.start)
    jac, res = ev.jf, ev.r_flow
    weight = np.repeat(w_flow[:, None], 2, axis=1)
    if w_emb is not None:
        jac = np.concatenate([jac, ev.je[:, None, :]], axis=1)
        res = np.concatenate([res, ev.r_embed[:, None]], axis=1)
        weight = np.concatenate([weight, w_emb[:, None]], axis=1)
    m = jac.shape[2] - 1
    lift = np.eye(m, m + 6, 6)  # L without its -Ad block
    lift[:6, :6] = -ev.adjoint
    lift = lift[:, lift_cols]

    d_index = layout.disparity_slice(obs.i).start + ev.pixels
    coupling_rows = (layout.coupling_rows[obs.i].start
                     + np.searchsorted(layout.coupling_cols[obs.i], cols))
    w_disp = weight * jac[:, :, 0]
    cross = np.matmul(w_disp[:, None, :], jac)[:, 0, :]
    ne.disp_h[d_index] += cross[:, 0]
    ne.disp_g[d_index] += np.sum(w_disp * res, axis=1)
    ne.coupling[np.ix_(coupling_rows, ev.pixels)] += lift.T @ cross[:, 1:].T
    rows = jac[:, :, 1:].reshape(weight.size, m)
    weighted = weight.reshape(-1, 1) * rows
    ne.pose_h[np.ix_(cols, cols)] += lift.T @ (rows.T @ weighted) @ lift
    ne.pose_g[cols] += lift.T @ (weighted.T @ res.reshape(-1))


def assemble(graph: KeyframeGraph, config: SolverConfig, alphas) -> NormalEquations:
    """Accumulate the weighted Gauss-Newton normal equations over all edges and priors.

    Each edge adds its flow and embedding rows with the weights of
    residuals.edge_weights under shapes alphas[edge] (from kernel_alphas);
    each keyframe adds the diagonal and gradient of residuals.prior_terms.
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
    for obs, alpha in zip(graph.edges, alphas, strict=True):
        ev = evaluate_edge(graph.keyframes[obs.i], graph.keyframes[obs.j], obs,
                           graph.intrinsics, need_similarity=False,
                           need_embedding=config.lambda_embed != 0.0,
                           with_jacobians=True, with_intrinsics=config.optimize_intrinsics)
        _check_finite((ev.r_flow, ev.jf, ev.r_embed, ev.je), obs, ev.pixels,
                      "residual/Jacobian")
        ep, ee = edge_energies(ev, alpha, config.kernel.c)
        e_photo += ep
        e_embed += ee
        _accumulate_edge(ne, obs, ev, *edge_weights(ev, alpha, config))

    e_reg = 0.0
    for kf in graph.keyframes:
        energy, h, g = prior_terms(kf, config.reg)
        e_reg += energy
        d_slice = layout.disparity_slice(kf.index)
        ne.disp_h[d_slice] += h
        ne.disp_g[d_slice] += g
    ne.energies = EnergyBreakdown.of(e_photo, e_embed, e_reg, config.lambda_embed)
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
    """Apply a stacked update: exp-compose poses, add intrinsics, add and clamp disparities.

    A finite delta keeps every keyframe valid, so delta is checked once and the
    moved keyframes share the already validated prior and feature maps.
    """
    layout = ProblemLayout.build(graph, config)
    if delta.shape != (layout.n_total,):
        raise ValueError(f"delta has {delta.shape[0]} entries, expected {layout.n_total}")
    bad = ~np.isfinite(delta)
    if bad.any():
        entry = int(np.flatnonzero(bad)[0])
        raise ValueError(f"delta entry {entry} is not finite ({delta[entry]})")
    keyframes = []
    disp_delta = delta[layout.n_reduced:]
    for kf in graph.keyframes:
        slot = layout.pose_slices[kf.index]
        pose = kf.pose if slot is None else se3_exp(delta[slot]).compose(kf.pose)
        disp = kf.disparity + disp_delta[layout.disparity_slice(kf.index)].reshape(kf.disparity.shape)
        moved = copy.copy(kf)  # no Keyframe.__post_init__: the other maps are unchanged
        moved.pose, moved.disparity = pose, np.maximum(disp, MIN_DISPARITY)
        keyframes.append(moved)
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
