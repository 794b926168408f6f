"""Command-line entry point: `semba synth | ba | eval`.

Every command is deterministic given its configuration; randomness is seeded
explicitly. Exit status is 0 only when all outputs were written and finite.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import evaluation, solver as solver_mod, synthscene, tensorio
from .config import RunConfig, load_config
from .tensorio import FileFormatError


def cmd_synth(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = RunConfig(scene=dataclasses.replace(cfg.scene, seed=args.seed),
                        solver=cfg.solver, evaluation=cfg.evaluation)
    bundle = synthscene.gen_scene(cfg.scene)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    tensorio.write_problem_bundle(out, bundle)
    print(f"bundle written to {out}")
    print(f"keyframes: {cfg.scene.num_keyframes}  edges: {len(bundle.edges)}  "
          f"grid: {cfg.scene.height}x{cfg.scene.width}")
    print(f"dynamic fraction (measured): {bundle.measured_dynamic_fraction():.4f}")
    return 0


def _parse_kernel(spec: str):
    """The SolverConfig.fixed_alpha that --kernel names (None is the adaptive kernel)."""
    if spec == "ark":
        return None
    if spec == "l2":
        return 2.0
    if spec.startswith("fixed:"):
        return float(spec.split(":", 1)[1])
    raise ValueError(f"unknown kernel spec {spec!r} (expected ark | l2 | fixed:<alpha>)")


def cmd_ba(args) -> int:
    if args.pca and not args.export_cloud:
        print("error: --pca requires --export-cloud", file=sys.stderr)
        return 1
    cfg = load_config(args.config)
    solver_cfg = cfg.solver
    if args.kernel:
        solver_cfg = dataclasses.replace(solver_cfg, fixed_alpha=_parse_kernel(args.kernel))
    if args.no_embed:
        solver_cfg = dataclasses.replace(solver_cfg, lambda_embed=0.0)

    pca = tensorio.read_pca(args.pca) if args.pca else None
    graph = tensorio.load_problem_bundle(args.bundle)
    if pca is not None and graph.keyframes:
        # KeyframeGraph has checked that every keyframe has keyframe 0's channel count.
        channels = graph.keyframes[0].features.shape[0]
        if channels != pca.output_dim:
            raise ValueError(f"PCA model {args.pca} decodes {pca.output_dim}-channel codes, "
                             f"but the bundle's features have {channels} channels")
    optimized, trace = solver_mod.solve(graph, solver_cfg)

    final = trace[-1]
    finite = all(np.isfinite(v) for v in (final.e_total, final.e_photo_ark,
                                          final.e_embed, final.e_reg))
    if not finite:
        raise RuntimeError("solver produced non-finite energies")

    out = Path(args.out)
    (out / "disparity").mkdir(parents=True, exist_ok=True)
    tensorio.write_trajectory(out / "trajectory.txt", [kf.pose for kf in optimized.keyframes],
                              timestamps=[kf.timestamp for kf in optimized.keyframes])
    tensorio.write_energy_trace(out / "energy_trace.csv", trace)
    for kf in optimized.keyframes:
        tensorio.write_tensor(out / "disparity" / f"kf_{kf.index:03d}.kmvt", kf.disparity)
    if args.export_cloud:
        cloud = evaluation.fuse_point_cloud(optimized, pca=pca,
                                            stride=cfg.evaluation.cloud_stride)
        cloud_path = Path(args.export_cloud)
        cloud_path.parent.mkdir(parents=True, exist_ok=True)
        tensorio.write_point_cloud(cloud_path, cloud.points,
                                   np.full(len(cloud.points), evaluation.UNLABELED))
        tensorio.write_tensor(cloud_path.with_suffix(".embeddings.kmvt"),
                              cloud.embeddings.T[:, None, :])
    accepted = sum(1 for r in trace[1:] if r.accepted)
    print(f"solved in {final.iteration} iterations, {len(trace) - 1} scored attempts "
          f"({accepted} accepted); E_total {trace[0].e_total:.6e} -> {final.e_total:.6e}")
    return 0


def cmd_eval(args) -> int:
    if not args.pred_cloud:
        for flag, value in (("--gt-cloud", args.gt_cloud), ("--labels", args.labels),
                            ("--metrics-out", args.metrics_out)):
            if value:
                print(f"error: {flag} requires --pred-cloud", file=sys.stderr)
                return 1
    elif not (args.gt_cloud and args.labels):
        print("error: --pred-cloud requires --gt-cloud and --labels", file=sys.stderr)
        return 1
    _, est_pos, _ = tensorio.read_trajectory(args.est)
    _, gt_pos, _ = tensorio.read_trajectory(args.gt)
    if est_pos.shape != gt_pos.shape:
        print(f"error: trajectory lengths differ ({est_pos.shape[0]} vs {gt_pos.shape[0]})",
              file=sys.stderr)
        return 1
    if args.align == "none":
        aligned = est_pos
    else:
        mode = {"sim": "similarity", "rigid": "rigid"}[args.align]
        aligned, _ = evaluation.align_trajectories(est_pos, gt_pos, mode)
    ate_m = evaluation.ate_rmse(aligned, gt_pos)
    print(f"ATE: {100.0 * ate_m:.2f} cm")

    if args.pred_cloud:
        labels = tensorio.read_labelset(args.labels)
        pred_pts, _ = tensorio.read_point_cloud(args.pred_cloud)
        emb_path = Path(args.pred_cloud).with_suffix(".embeddings.kmvt")
        if not emb_path.exists():
            print(f"error: missing embedding sidecar {emb_path}", file=sys.stderr)
            return 1
        emb = tensorio.read_tensor(emb_path).astype(float)  # (K, 1, N)
        cloud = evaluation.SemanticPointCloud(points=pred_pts.astype(float),
                                              embeddings=emb[:, 0, :].T)
        cloud = evaluation.assign_labels(cloud, labels)
        gt_pts, gt_labels = tensorio.read_point_cloud(args.gt_cloud)
        if gt_labels is None:
            print("error: ground-truth cloud carries no labels", file=sys.stderr)
            return 1
        foreign = (gt_labels < 0) | (gt_labels >= len(labels.names))
        if foreign.any():
            n = int(np.flatnonzero(foreign)[0])
            raise FileFormatError(f"{args.gt_cloud}: vertex {n} has label {gt_labels[n]}, "
                                  f"not a class of the {len(labels.names)} in {args.labels}")
        transferred = evaluation.knn_transfer(cloud, gt_pts.astype(float))
        metrics = evaluation.seg_metrics(transferred, gt_labels, class_names=labels.names)
        print(f"mIoU: {metrics.miou:.4f}  fmIoU: {metrics.fmiou:.4f}  mAcc: {metrics.macc:.4f}")
        for group in ("head", "common", "tail"):
            g = metrics.group_metrics[group]
            print(f"  {group}: mIoU {g['miou']:.4f}  fmIoU {g['fmiou']:.4f}  mAcc {g['macc']:.4f}")
        if args.metrics_out:
            tensorio.write_seg_metrics(args.metrics_out, metrics)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="semba",
                                     description="Dense bundle adjustment with adaptive "
                                                 "robust kernels: synthesize, solve, evaluate.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic problem bundle")
    p_synth.add_argument("out", help="output bundle directory")
    p_synth.add_argument("--config", default=None, help="YAML run configuration")
    p_synth.add_argument("--seed", type=int, default=None, help="override scene.seed")
    p_synth.set_defaults(func=cmd_synth)

    p_ba = sub.add_parser("ba", help="run bundle adjustment on a problem bundle")
    p_ba.add_argument("bundle", help="problem bundle directory")
    p_ba.add_argument("out", help="output directory")
    p_ba.add_argument("--config", default=None, help="YAML run configuration")
    p_ba.add_argument("--kernel", default=None, metavar="ark|l2|fixed:<alpha>",
                      help="robust kernel override")
    p_ba.add_argument("--no-embed", action="store_true",
                      help="drop the embedding term (lambda_embed = 0)")
    p_ba.add_argument("--export-cloud", default=None, metavar="PLY",
                      help="also export the fused point cloud (+ .embeddings.kmvt sidecar)")
    p_ba.add_argument("--pca", default=None, help="KMVP model used to decode embeddings")
    p_ba.set_defaults(func=cmd_ba)

    p_eval = sub.add_parser("eval", help="evaluate a trajectory (and optionally a semantic cloud)")
    p_eval.add_argument("est", help="estimated trajectory (TUM)")
    p_eval.add_argument("gt", help="ground-truth trajectory (TUM)")
    p_eval.add_argument("--align", choices=("rigid", "sim", "none"), default="sim",
                        help="'none' scores the trajectories as given")
    p_eval.add_argument("--pred-cloud", default=None, help="predicted cloud (PLY + sidecar)")
    p_eval.add_argument("--gt-cloud", default=None, help="ground-truth labelled cloud (PLY)")
    p_eval.add_argument("--labels", default=None, help="label set CSV (name,v1,...,vC)")
    p_eval.add_argument("--metrics-out", default=None, help="write the metrics CSV here")
    p_eval.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FileFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, FileNotFoundError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
