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
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .geometry import Intrinsics, se3_exp
from .graph import KeyframeGraph
from .residuals import (EnergyBreakdown, edge_batches, edge_energies, edge_weights,
                        evaluate_edge, kernel_alphas, prior_terms, total_energy)

# Levenberg damping schedule: start at LM_INIT, multiply by LM_GROW after a
# rejected, singular or out-of-model step and by LM_SHRINK (floored at LM_MIN)
# after an accepted one; past LM_MAX the solve stops.
LM_INIT = 1e-4
LM_GROW = 10.0
LM_SHRINK = 0.5
LM_MIN = 1e-12
LM_MAX = 1e10
UPDATE_TOL = 1e-8      # converged once the step norm falls below this
MIN_DISPARITY = 1e-6   # updated disparities are clamped here; 0 (invalid) stays 0


@dataclass
class SolverConfig:
    max_iters: int = 30
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
    """Index bookkeeping for the stacked unknown vector and the coupling block.

    Keyframe k's disparities couple to coupling_cols[k], the sorted reduced
    unknowns of its edges (k, j): the poses of k and j and the intrinsics.
    Their coupling rows are coupling_rows[k], a contiguous slice of the one
    (sum of r_k, max_k |U_k|) coupling array, in the order of coupling_cols[k].
    Only the pixels of supports[k] = U_k, the sorted flat grid pixels in the
    support of any out-edge of k, couple at all; they are the first |U_k|
    columns of those rows, and support_columns[k] maps a grid pixel to its
    column (-1 outside U_k). batches holds residuals.edge_batches of the graph,
    the stacked rows of each group of edges. Everything here depends only on
    the edges, the features, the frozen flags, the grid and whether intrinsics
    are optimized, so one layout serves every state of a solve.

    build raises ValueError for an unknown whose rows would all be zero, which no
    damping makes solvable: a non-frozen pose that no edge with a confident
    pixel touches, or optimized intrinsics without any confident pixel.
    """

    pose_slices: list          # per keyframe: slice into the reduced block, or None if frozen
    intrinsics_slice: slice    # None unless optimizing intrinsics
    n_reduced: int             # poses + intrinsics
    pixels_per_frame: int
    n_disparity: int
    coupling_cols: list        # per keyframe: sorted int array of reduced unknowns
    coupling_rows: list        # per keyframe: slice of coupling rows
    supports: list             # per keyframe: sorted flat grid pixels U_k
    support_columns: np.ndarray  # (K, H*W): column in U_k of each grid pixel of k, or -1
    batches: list              # residuals.EdgeBatch per group of graph.edge_groups()

    @staticmethod
    def build(graph: KeyframeGraph, config: SolverConfig) -> "ProblemLayout":
        observed = {k for obs in graph.edges if obs.pixels.size for k in (obs.i, obs.j)}
        for kf in graph.keyframes:
            if not kf.frozen and kf.index not in observed:
                raise ValueError(f"keyframe {kf.index}: no edge with a confident pixel "
                                 "constrains its pose")
        if config.optimize_intrinsics and not observed:
            raise ValueError("no edge with a confident pixel constrains the camera intrinsics")
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
        in_support = np.zeros((len(graph.keyframes), n_px), dtype=bool)
        for obs in graph.edges:
            in_support[obs.i, obs.pixels] = True
        supports = [np.flatnonzero(mask) for mask in in_support]
        support_columns = np.where(in_support, np.cumsum(in_support, axis=1) - 1, -1)
        return ProblemLayout(pose_slices, intrinsics_slice, offset, n_px,
                             n_px * len(graph.keyframes), coupling_cols, coupling_rows,
                             supports, support_columns, edge_batches(graph))

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
    pose-disparity coupling C is stored by keyframe over its support pixels:
    columns [0, |U_k|) of coupling rows layout.coupling_rows[k] hold the rows
    layout.coupling_cols[k] of C over the pixels layout.supports[k] of
    keyframe k, and every other entry of C is zero. So coupling has shape
    (sum of r_k, max_k |U_k|), which grows linearly in the number of
    keyframes; a block narrower than the widest keeps zeros past |U_k|.
    assemble adds each keyframe's Schur terms to reduction and reduced_g.
    """

    layout: ProblemLayout
    pose_h: np.ndarray     # (P, P)
    coupling: np.ndarray   # (sum of r_k, max_k |U_k|)
    disp_h: np.ndarray     # (D,)
    pose_g: np.ndarray     # (P,)
    disp_g: np.ndarray     # (D,)
    reduction: np.ndarray  # (P, P) sum_k C_k D_k^-1 C_k^T, undamped
    reduced_g: np.ndarray  # (P,) sum_k C_k D_k^-1 disp_g_k, undamped
    energies: EnergyBreakdown = None


def _check_finite(arrays, edges, ev, context):
    """Raise FloatingPointError naming the edge and grid pixel of the first non-finite pixel.

    Each array holds one pixel per entry of its last axis, as ev's rows do; the
    first pixel with a non-finite entry in any of its rows is named.
    """
    for arr in arrays:
        bad = ~np.isfinite(arr)
        if bad.any():
            n = int(np.flatnonzero(bad.reshape(-1, bad.shape[-1]).any(axis=0))[0])
            obs = edges[int(np.searchsorted(ev.bounds, n, side="right")) - 1]
            raise FloatingPointError(f"non-finite {context} at edge ({obs.i}, {obs.j}), "
                                     f"pixel index {int(ev.pixels[n])}")


def _accumulate_edges(ne: NormalEquations, edges, ev, weight):
    """Add the weighted Gauss-Newton terms of the out-edges of keyframe i to ne in place.

    ev is evaluate_edge's batch over edges and weight its (R, N) row weights.
    The R rows of ev's component-major Jacobian (R, m + 1, N) over
    [disparity | pose j | intrinsics] give cross (m + 1, N), each pixel's
    [disparity diagonal, coupling row], in one weighted sum over the rows, and
    keyframe i's disparity entries sum them by grid pixel. Per edge, its pose
    block and gradient over [pose j | intrinsics] are one weighted product per
    residual row, of that row's contiguous (m, n) column slices, and
    L = [[-Ad, I, 0], [0, 0, I]] lifts them to [pose i | pose j | intrinsics]
    (H <- L^T H L, g <- L^T g), keeping only the columns of non-frozen unknowns.
    The coupling rows lift the same way (C <- L^T C): pose i's are -Ad^T times
    pose j's, and the others are rows of cross as they stand. A function of its
    own so that these temporaries are freed before the next keyframe is
    evaluated, which keeps peak memory flat.
    """
    layout = ne.layout
    i = edges[0].i
    jac, res = ev.jac, ev.residual
    m = jac.shape[1] - 1

    w_disp = weight * jac[:, 0]
    cross = np.einsum("rn,rcn->cn", w_disp, jac)
    d = layout.disparity_slice(i)
    # A pixel in several supports sums its rows in edge order.
    ne.disp_h[d] += np.bincount(ev.pixels, cross[0], layout.pixels_per_frame)
    ne.disp_g[d] += np.bincount(ev.pixels, np.einsum("rn,rn->n", w_disp, res),
                                layout.pixels_per_frame)
    del w_disp  # freed before the pose-block temporaries are allocated

    coupling = ne.coupling[layout.coupling_rows[i]]
    support_columns = layout.support_columns[i]
    for e, obs in enumerate(edges):
        seg = slice(ev.bounds[e], ev.bounds[e + 1])
        columns = support_columns[ev.pixels[seg]]
        cols, lift_cols = [], []
        for s, offset in ((layout.pose_slices[i], 0), (layout.pose_slices[obs.j], 6),
                          (layout.intrinsics_slice, 12)):
            if s is None:
                continue
            size = s.stop - s.start
            cols += range(s.start, s.stop)
            lift_cols += range(offset, offset + size)
            # Its coupling rows are those of L^T C: -Ad^T times pose j's for pose i,
            # and for the others, on which L is the identity, rows of cross.
            if offset == 0:
                lifted = -ev.adjoint[e].T @ cross[1:7, seg]
            else:
                lifted = cross[offset - 5:offset - 5 + size, seg]
            # These rows are contiguous; a gather, add and scatter along their
            # column axis is cheaper than one two-dimensional fancy update.
            row = np.searchsorted(layout.coupling_cols[i], s.start)
            part = coupling[row:row + size]
            values = part.take(columns, axis=1)
            values += lifted
            part[:, columns] = values
        lift = np.eye(m, m + 6, 6)  # L without its -Ad block
        lift[:6, :6] = -ev.adjoint[e]
        lift = lift[:, lift_cols]

        gram = np.zeros((m, m))
        grad = np.zeros(m)
        for r in range(len(jac)):
            pose = jac[r, 1:, seg]
            weighted = pose * weight[r, seg]
            gram += weighted @ pose.T
            grad += weighted @ res[r, seg]
        ne.pose_h[np.ix_(cols, cols)] += lift.T @ gram @ lift
        ne.pose_g[cols] += lift.T @ grad


def _eliminate(ne: NormalEquations, k: int):
    """Add keyframe k's undamped Schur terms C_k D_k^-1 C_k^T and C_k D_k^-1 g_k to ne.

    C_k is non-zero only over k's support pixels and its unknowns
    (layout.coupling_cols[k]): one small product over |U_k| columns. Disparity
    entries with an identically zero diagonal are left out. A function of its
    own so that these temporaries are freed at once.
    """
    layout = ne.layout
    cols, support = layout.coupling_cols[k], layout.supports[k]
    c = ne.coupling[layout.coupling_rows[k], :support.size]
    pixels = layout.disparity_slice(k).start + support
    disp_h = ne.disp_h[pixels]
    ec = c * np.divide(1.0, disp_h, out=np.zeros_like(disp_h), where=disp_h > 0)
    ne.reduction[np.ix_(cols, cols)] += ec @ c.T
    ne.reduced_g[cols] += ec @ ne.disp_g[pixels]


def assemble(graph: KeyframeGraph, config: SolverConfig, alphas,
             layout: ProblemLayout) -> NormalEquations:
    """Accumulate the weighted Gauss-Newton normal equations over all edges and priors.

    Every keyframe first adds the diagonal and gradient of residuals.prior_terms.
    Then the out-edges of each keyframe (one batch of layout.batches) are
    evaluated together and add their stacked residual rows with the weights of
    residuals.edge_weights under that batch's shapes in alphas. A keyframe's
    disparities enter only its own out-edges' rows, so its disparity block is
    then complete and its undamped Schur terms are added at once. layout is
    ProblemLayout.build(graph, config), which solve builds once for all its states.
    """
    p = layout.n_reduced
    width = max(support.size for support in layout.supports)
    ne = NormalEquations(layout=layout, pose_h=np.zeros((p, p)),
                         coupling=np.zeros((layout.coupling_rows[-1].stop, width)),
                         disp_h=np.zeros(layout.n_disparity), pose_g=np.zeros(p),
                         disp_g=np.zeros(layout.n_disparity), reduction=np.zeros((p, p)),
                         reduced_g=np.zeros(p))
    e_reg = 0.0
    for kf in graph.keyframes:
        energy, h, g = prior_terms(kf)
        e_reg += energy
        d_slice = layout.disparity_slice(kf.index)
        ne.disp_h[d_slice] += h
        ne.disp_g[d_slice] += g
    del h, g  # the last keyframe's prior rows are not needed while edges are evaluated

    e_photo = 0.0
    e_embed = 0.0
    for batch, alpha in zip(layout.batches, alphas, strict=True):
        ev = evaluate_edge(graph, batch, need_similarity=False,
                           need_embedding=config.lambda_embed != 0.0,
                           with_jacobians=True, with_intrinsics=config.optimize_intrinsics)
        _check_finite((ev.residual, ev.jac), batch.edges, ev, "residual/Jacobian")
        ep, ee = edge_energies(ev, alpha)
        e_photo += ep
        e_embed += ee
        _accumulate_edges(ne, batch.edges, ev, edge_weights(ev, alpha, config))
        del ev  # free this keyframe's rows before its elimination and the next keyframe
        _eliminate(ne, batch.i)
    ne.energies = EnergyBreakdown.of(e_photo, e_embed, e_reg, config.lambda_embed)
    return ne


def solve_normal_equations(ne: NormalEquations, lm: float) -> np.ndarray:
    """Solve (H + lm diag(H)) delta = -b via Schur elimination of the disparity block.

    The damped disparity block is D (1 + lm), so the reduced system is
    S = H_pp (1 + lm diag) - ne.reduction / (1 + lm), with right-hand side
    ne.reduced_g / (1 + lm) - g_p: only the damping, the factorization and the
    back-substitution, one keyframe at a time over its support pixels, are done
    per call. A pixel outside every support has only its prior, so its update
    is -g / (h (1 + lm)). Raises numpy.linalg.LinAlgError when the damped
    reduced system cannot be factorized. Disparity entries with an identically
    zero diagonal receive a zero update (unobserved pixels).
    """
    layout = ne.layout
    if layout.n_reduced > 0:
        schur = ne.pose_h + lm * np.diag(np.diag(ne.pose_h)) - ne.reduction / (1.0 + lm)
        rhs = ne.reduced_g / (1.0 + lm) - ne.pose_g
        cho = scipy.linalg.cho_factor(schur, check_finite=False)
        delta_pose = scipy.linalg.cho_solve(cho, rhs, check_finite=False)
    else:
        delta_pose = np.zeros(0)
    disp_damped = ne.disp_h * (1.0 + lm)
    inv_disp = np.zeros_like(disp_damped)
    np.divide(1.0, disp_damped, out=inv_disp, where=disp_damped > 0)
    delta_disp = inv_disp * -ne.disp_g
    for k, (cols, rows, support) in enumerate(zip(layout.coupling_cols, layout.coupling_rows,
                                                  layout.supports)):
        pixels = layout.disparity_slice(k).start + support
        delta_disp[pixels] = inv_disp[pixels] * (
            -ne.disp_g[pixels] - ne.coupling[rows, :support.size].T @ delta_pose[cols])
    return np.concatenate([delta_pose, delta_disp])


def retract(graph: KeyframeGraph, delta: np.ndarray, layout: ProblemLayout) -> KeyframeGraph:
    """Apply a stacked update: exp-compose poses, add intrinsics, add and clamp disparities.

    delta is ordered by layout, the layout of the normal equations it solves.
    The result is a new graph with new keyframes, and graph is left unchanged.
    A disparity 0 (invalid) with a zero update stays 0. A finite delta keeps
    every keyframe valid, so delta is checked once and the moved keyframes
    share the already validated prior and feature maps.
    """
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
        step = disp_delta[layout.disparity_slice(kf.index)].reshape(kf.disparity.shape)
        disp = kf.disparity + step
        np.maximum(disp, MIN_DISPARITY, out=disp, where=(kf.disparity > 0) | (step != 0))
        moved = copy.copy(kf)  # no Keyframe.__post_init__: the other maps are unchanged
        moved.pose, moved.disparity = pose, disp
        keyframes.append(moved)
    intrinsics = graph.intrinsics
    if layout.intrinsics_slice is not None:
        intrinsics = Intrinsics.from_array(intrinsics.as_array() + delta[layout.intrinsics_slice])
    return KeyframeGraph(keyframes=keyframes, edges=list(graph.edges), intrinsics=intrinsics)


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    energies: EnergyBreakdown
    accepted: bool


def solve(graph: KeyframeGraph, config: SolverConfig):
    """Damped Gauss-Newton loop per the joint bundle-adjustment recipe.

    Each outer iteration follows the IRLS treatment of the adaptive kernel: the
    shape parameters are decided once from the current state, and they are
    held fixed while the normal equations are built, solved, and the step is
    scored (b is then the exact objective gradient for that kernel state).
    kernel_alphas decides them at the start state; after that, every trial
    total_energy also returns the shapes kernel_alphas would decide at its
    state, from the similarity it computes anyway, and the accepting trial's
    shapes serve the next iteration, so no further similarity-only pass is made.

    The input graph is never modified: every candidate is a new graph built by
    retract. Returns (optimized graph, trace); with no accepted step the
    optimized graph is the input graph itself. Row 0 of the trace holds the
    initial energies; each further row is one scored solve attempt with its
    accept flag, all evaluated under that iteration's kernel state, and the
    last accepted row holds the optimized graph's energies. A step that would
    make a focal length non-positive leaves the camera model: it is rejected
    unscored and untraced, and the damping grows as after a rejected step.
    Raises RuntimeError when the damped reduced system stays singular.
    """
    if not graph.edges:
        raise ValueError("graph has no edges; the problem is unconstrained")

    state = graph
    layout = ProblemLayout.build(state, config)  # the edges stay fixed through the solve
    trace = []
    lm = LM_INIT
    alphas = kernel_alphas(state, config, layout.batches)
    for it in range(1, config.max_iters + 1):
        ne = assemble(state, config, alphas, layout)
        e_cur = ne.energies
        if it == 1:
            trace.append(IterationRecord(0, e_cur, True))
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
            # A step that makes a focal length <= 0 leaves the camera model: like
            # a singular one, it is neither scored nor traced.
            k = layout.intrinsics_slice
            if k is None or np.all(state.intrinsics.as_array()[:2] + delta[k][:2] > 0):
                candidate = retract(state, delta, layout)
                e_new, shapes = total_energy(candidate, config, alphas, layout.batches)
                accepted = e_new.total < e_cur.total
                trace.append(IterationRecord(it, e_new, accepted))
                if accepted:
                    state, alphas = candidate, shapes
                    lm = max(lm * LM_SHRINK, LM_MIN)
                    break
            lm *= LM_GROW
            if lm > LM_MAX:
                # Gradient-direction steps stopped helping under the current
                # kernel state: treat as converged.
                return state, trace
        del ne  # free this system's coupling before the next assemble builds its own
    return state, trace
