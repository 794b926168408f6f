"""Helpers shared by several test modules: random maps, finite differences,
one-edge evaluations and the brute-force normal-equation reference."""

import dataclasses

import numpy as np

from semba.features import PcaModel
from semba.geometry import Intrinsics, relative_pose, reproject, se3_exp
from semba.graph import Keyframe, KeyframeGraph
from semba.residuals import ALPHA_DISP, FlowObservation, evaluate_edge, grid_pixels
from semba.robust import ALPHA_STATIC, adaptive_alpha, irls_weight
from semba.solver import ProblemLayout

K = Intrinsics(40.0, 42.0, 15.5, 11.5)


def smooth_map(rng, shape=(6, 24, 32), passes=6, offset=2.0):
    """Normal noise smoothed by `passes` [1/4, 1/2, 1/4] passes along every axis but the first."""
    m = rng.normal(size=shape)
    for axis in range(1, m.ndim):
        for _ in range(passes):
            m = 0.5 * m + 0.25 * (np.roll(m, 1, axis) + np.roll(m, -1, axis))
    return m + offset


def qr_model(rng, c, k):
    """A model with a random mean and the Q factor of a random (C, K) matrix as basis."""
    return PcaModel(rng.normal(size=c), np.linalg.qr(rng.normal(size=(c, k)))[0])


def edge_eval(z_i, z_j, disparity, pose_i, pose_j, intr=K, flow=None, **kwargs):
    """evaluate_edge on an edge 0 -> 1 whose keyframes share one disparity map, unit confidence."""
    h, w = disparity.shape
    kf_i = Keyframe(index=0, pose=pose_i, disparity=disparity, disparity_prior=disparity,
                    features=z_i)
    kf_j = Keyframe(index=1, pose=pose_j, disparity=disparity, disparity_prior=disparity,
                    features=z_j)
    obs = FlowObservation(i=0, j=1, flow=np.zeros((2, h, w)) if flow is None else flow,
                          confidence=np.ones((h, w)))
    graph = KeyframeGraph(keyframes=[kf_i, kf_j], edges=[obs], intrinsics=intr)
    return evaluate_edge(graph, [obs], **kwargs)


def central_differences(evaluate, n_steps, eps=1e-6):
    """Central differences of the flow rows and the embedding row along n_steps perturbations.

    evaluate(k, h) is the EdgeEvaluation with perturbation k scaled by h. Returns
    (d flow rows (N, 2, n_steps), d embedding row (N, n_steps), pixels whose flow
    term is valid at every evaluation, the same for the embedding term).
    """
    d_flow, d_embed = [], []
    ok_flow = ok_embed = True
    for k in range(n_steps):
        plus, minus = evaluate(k, eps), evaluate(k, -eps)
        d_flow.append((plus.residual[:2] - minus.residual[:2]).T / (2 * eps))
        d_embed.append((plus.residual[2] - minus.residual[2]) / (2 * eps))
        ok_flow = ok_flow & plus.valid_flow & minus.valid_flow
        ok_embed = ok_embed & plus.valid_embed & minus.valid_embed
    return np.stack(d_flow, axis=-1), np.stack(d_embed, axis=-1), ok_flow, ok_embed


def off_grid_lines(disparity, pose_i, pose_j, intr=K, margin=1e-3):
    """Pixels whose reprojection lies at least margin px from every grid line.

    Bilinear sampling has kinks on the grid lines, so a central difference
    whose stencil straddles one measures no derivative there.
    """
    h, w = disparity.shape
    mu, _ = reproject(grid_pixels(h, w), disparity.reshape(-1), [relative_pose(pose_i, pose_j)],
                      intr)
    return (np.abs(mu - np.round(mu)) >= margin).all(axis=0)


class ToyBundle:
    """Hand-built 3-keyframe problem, <= 500 unknowns, every pixel observed."""

    def __init__(self, seed=5):
        rng = np.random.default_rng(seed)
        h, w = 10, 12
        self.intrinsics = Intrinsics(14.0, 15.0, 5.5, 4.5)
        self.keyframes = []
        for k in range(3):
            disp = 0.4 + 0.08 * smooth_map(rng, (h, w), passes=4, offset=0.0)
            self.keyframes.append(Keyframe(
                index=k, pose=se3_exp(rng.normal(0.0, 0.02, 6)),
                disparity=disp, disparity_prior=disp * (1.0 + rng.normal(0, 0.03, (h, w))),
                features=smooth_map(rng, (5, h, w), passes=4), frozen=(k == 0)))
        self.edges = []
        for i in range(3):
            for j in range(3):
                if i != j:
                    self.edges.append(FlowObservation(
                        i=i, j=j, flow=rng.normal(0.0, 0.4, size=(2, h, w)),
                        confidence=rng.uniform(0.1, 1.0, size=(h, w))))

    def to_graph(self):
        kfs = [dataclasses.replace(kf, disparity=kf.disparity.copy())
               for kf in self.keyframes]
        return KeyframeGraph(keyframes=kfs, edges=list(self.edges), intrinsics=self.intrinsics)


def stacked_rows(layout, edges, ev, weight):
    """Every stacked residual row of a batch evaluation as one dense Jacobian row over
    all unknowns, with its weight and residual: (J rows, weights, residuals).

    Row n of ev is the grid pixel ev.pixels[n] of keyframe i; the columns of
    ev.jac are [disparity | pose j | intrinsics], and pose i's are pose j's
    times -Ad(T_ji)."""
    rows_j, rows_w, rows_r = [], [], []
    for e, obs in enumerate(edges):
        slot_i = layout.pose_slices[obs.i]
        slot_j = layout.pose_slices[obs.j]
        d_base = layout.n_reduced + obs.i * layout.pixels_per_frame
        for p in range(ev.bounds[e], ev.bounds[e + 1]):
            jac_pose_i = -ev.jac[:, 1:7, p] @ ev.adjoint[e]
            for k in range(ev.residual.shape[0]):
                row = np.zeros(layout.n_total)
                if slot_i is not None:
                    row[slot_i] = jac_pose_i[k]
                if slot_j is not None:
                    row[slot_j] = ev.jac[k, 1:7, p]
                if layout.intrinsics_slice is not None:
                    row[layout.intrinsics_slice] = ev.jac[k, 7:, p]
                row[d_base + ev.pixels[p]] = ev.jac[k, 0, p]
                rows_j.append(row)
                rows_w.append(weight[k, p])
                rows_r.append(ev.residual[k, p])
    return rows_j, rows_w, rows_r


def brute_force_normal_equations(graph, config):
    """Independent dense assembly: stack per-pixel Jacobian rows into a dense J,
    build H = J^T W J and b = J^T W r with plain matrix products.

    The weights of the rows [flow x, flow y, embedding] are computed here, not
    by residuals.edge_weights."""
    layout = ProblemLayout.build(graph, config)
    n = layout.n_total
    rows_j, rows_w, rows_r = [], [], []
    for obs in graph.edges:
        ev = evaluate_edge(graph, [obs], with_jacobians=True,
                           with_intrinsics=config.optimize_intrinsics)
        alpha = np.where(ev.valid_embed, adaptive_alpha(ev.cs), ALPHA_STATIC)
        if config.fixed_alpha is not None:
            alpha = np.full_like(alpha, config.fixed_alpha)
        r_norm = np.linalg.norm(ev.residual[:2], axis=0)
        w_ark = irls_weight(r_norm, alpha)
        w_flow = ev.confidence * w_ark * ev.valid_flow
        w_emb = 2.0 * config.lambda_embed * ev.confidence * ev.valid_embed
        j, w, r = stacked_rows(layout, [obs], ev, np.stack([w_flow, w_flow, w_emb]))
        rows_j += j
        rows_w += w
        rows_r += r
    for kf in graph.keyframes:
        d_base = layout.n_reduced + kf.index * layout.pixels_per_frame
        prior = kf.disparity_prior.reshape(-1)
        disp = kf.disparity.reshape(-1)
        for p in range(prior.shape[0]):
            if prior[p] > 0:
                row = np.zeros(n)
                row[d_base + p] = 1.0
                rows_j.append(row)
                rows_w.append(2.0 * ALPHA_DISP)
                rows_r.append(disp[p] - prior[p])
    j = np.stack(rows_j)
    w = np.array(rows_w)
    r = np.array(rows_r)
    return j.T @ (w[:, None] * j), j.T @ (w * r)
