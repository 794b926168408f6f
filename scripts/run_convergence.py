#!/usr/bin/env python3
"""Convergence experiment: recover twist-perturbed poses on a clean scene.

Prints the per-iteration energy trace and the final trajectory error. The
default configuration mirrors the acceptance suite's convergence criterion
(8 keyframes, 64x48 grid, pose noise sigma = 0.01).
"""

import argparse
import sys
import time

from semba.evaluation import trajectory_ate
from semba.solver import SolverConfig, solve
from semba.synthscene import SceneConfig, gen_scene


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--keyframes", type=int, default=8)
    parser.add_argument("--height", type=int, default=48)
    parser.add_argument("--width", type=int, default=64)
    parser.add_argument("--pose-sigma", type=float, default=0.01)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--max-iters", type=int, default=15)
    parser.add_argument("--kernel", choices=("ark", "l2"), default="ark")
    args = parser.parse_args(argv)

    bundle = gen_scene(SceneConfig(num_keyframes=args.keyframes, height=args.height,
                                   width=args.width, pose_sigma=args.pose_sigma,
                                   seed=args.seed))
    init_ate = trajectory_ate(bundle.init_poses, bundle.gt_poses, "rigid")
    print(f"initial ATE: {init_ate:.6f} m over {len(bundle.edges)} edges")

    start = time.time()
    opt, trace = solve(bundle.to_graph(initial=True),
                       SolverConfig(max_iters=args.max_iters,
                                    fixed_alpha=None if args.kernel == "ark" else 2.0))
    elapsed = time.time() - start

    print("iter  E_total        E_photo_ark    E_embed        E_reg          accepted")
    for rec in trace:
        print(f"{rec.iteration:>4}  {rec.e_total:<13.6e}  {rec.e_photo_ark:<13.6e}  "
              f"{rec.e_embed:<13.6e}  {rec.e_reg:<13.6e}  {int(rec.accepted)}")
    ate = trajectory_ate([kf.pose for kf in opt.keyframes], bundle.gt_poses, "rigid")
    print(f"\nfinal ATE: {ate:.3e} m after {max(r.iteration for r in trace)} iterations "
          f"({elapsed:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
