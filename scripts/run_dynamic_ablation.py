#!/usr/bin/env python3
"""Paired dynamic-robustness experiment: adaptive kernel vs. fixed alpha.

Generates dynamic scenes over a set of seeds and solves each with four solver
variants (adaptive / fixed-l2 kernel, with and without the embedding term),
reporting per-seed and median trajectory errors next to the median initial
error, and how many seeds each variant ends worse than it started. This is the
experiment whose first run pinned the acceptance-suite ratio threshold.

Usage:
    python scripts/run_dynamic_ablation.py [--seeds 10] [--keyframes 6]
        [--height 36] [--width 48] [--fraction 0.2] [--motion 5.0]
        [--max-iters 15] [--csv out.csv]
"""

import argparse
import csv
import sys
import time

import numpy as np

from semba.evaluation import trajectory_ate
from semba.solver import SolverConfig, solve
from semba.synthscene import SceneConfig, gen_scene

ARMS = {
    "ark": dict(fixed_alpha=None),
    "l2": dict(fixed_alpha=2.0),
    "ark-noembed": dict(fixed_alpha=None, lambda_embed=0.0),
    "l2-noembed": dict(fixed_alpha=2.0, lambda_embed=0.0),
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--keyframes", type=int, default=6)
    parser.add_argument("--height", type=int, default=36)
    parser.add_argument("--width", type=int, default=48)
    parser.add_argument("--fraction", type=float, default=0.2)
    parser.add_argument("--motion", type=float, default=5.0)
    parser.add_argument("--decorrelation", type=float, default=1.0)
    parser.add_argument("--pose-sigma", type=float, default=0.01)
    parser.add_argument("--max-iters", type=int, default=15)
    parser.add_argument("--csv", default=None, help="optional per-seed results CSV")
    args = parser.parse_args(argv)

    results = {arm: [] for arm in ARMS}
    init = []
    start = time.time()
    for seed in range(args.seeds):
        cfg = SceneConfig(num_keyframes=args.keyframes, height=args.height,
                          width=args.width, pose_sigma=args.pose_sigma,
                          dynamic_fraction=args.fraction, dynamic_motion_px=args.motion,
                          embedding_decorrelation=args.decorrelation, seed=seed)
        bundle = gen_scene(cfg)
        init_ate = trajectory_ate(bundle.init_poses, bundle.gt_poses, "rigid")
        init.append(init_ate)
        line = [f"seed {seed}: init {init_ate:.4f}"]
        for arm, kw in ARMS.items():
            opt, _ = solve(bundle.to_graph(initial=True),
                           SolverConfig(max_iters=args.max_iters, **kw))
            ate = trajectory_ate([kf.pose for kf in opt.keyframes], bundle.gt_poses, "rigid")
            results[arm].append(ate)
            line.append(f"{arm} {ate:.4f}")
        print("  ".join(line), flush=True)

    print(f"\n{'arm':<14}{'median ATE [m]':>16}{'worse than start':>18}")
    print(f"{'initial':<14}{np.median(init):>16.5f}")
    for arm, vals in results.items():
        worse = f"{sum(a > b for a, b in zip(vals, init))}/{len(vals)}"
        print(f"{arm:<14}{np.median(vals):>16.5f}{worse:>18}")
    ratio = np.median(results["ark"]) / np.median(results["l2"])
    ratio_ne = np.median(results["ark-noembed"]) / np.median(results["l2-noembed"])
    print(f"\nmedian ratio ark/l2 (full pipeline): {ratio:.4f}")
    print(f"median ratio ark/l2 (flow only):     {ratio_ne:.4f}")
    print(f"elapsed: {time.time() - start:.0f}s")

    if args.csv:
        with open(args.csv, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["seed", "initial"] + list(ARMS))
            for seed in range(args.seeds):
                writer.writerow([seed, init[seed]] + [results[arm][seed] for arm in ARMS])
        print(f"per-seed results written to {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
