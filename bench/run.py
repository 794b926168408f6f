"""Benchmark of the semba user path: `semba synth` -> `semba ba` -> `semba eval`.

    python3 bench/run.py --workload dyn-k8 --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; semba is imported from ./src. The
workloads, their reference outputs, the calibration and the formulas of
computed metrics are in bench/workloads.json; metric units are those declared
in BENCHMARK.json.

Two child processes (bench/worker.py) run the commands in-process, with every
BLAS pool pinned to one thread: a setup child runs `semba synth`, a solve child
`semba ba` + `semba eval`. After the first synth has written the bundle, the
two take turns (one solve repetition, then `setups_per_rep` synths) until
--seconds have passed, so set-up and solve timings sample the same stretch of
time; peak_rss_mb is the solve child's. Both children are pinned to one CPU,
and timings are corrected to a reference machine speed by calibration runs
taken between command groups (see "calibration" in workloads.json).
Every run's outputs are checked: finite trajectory of K poses, energy below
its start, the solve reaching the iteration cap, identical outputs on every
repetition, ate_cm, miou and the final energy within tolerance of the seed's
reference (or within the workload's limits for a seed without one).

With --trace 0 the last line reports the end-to-end metrics; with --trace 1
repetitions alternate between untraced and traced and the last line reports
per-layer metrics, self times and the tracing overhead. Spans are written to
.bench_out/<workload>-s<seed>/spans-*.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))
from spans import SPAN_NAMES, layer_metrics, median_summary  # noqa: E402


class Child:
    """A worker.py process driven one JSON line at a time over its stdin and stdout."""

    def __init__(self, role, req, work: Path, deadline: float, cpu: int):
        self.role, self.deadline = role, deadline
        req_path = work / f"request-{role}.json"
        req_path.write_text(json.dumps({**req, "role": role}))
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", **{v: "1" for v in THREAD_VARS})
        self.proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(req_path)],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                                     env=env, cwd=ROOT,
                                     preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
        self.hello = self._recv()

    def _recv(self):
        remaining = self.deadline - time.perf_counter()
        ready, _, _ = select.select([self.proc.stdout], [], [], max(remaining, 0.0))
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            self.stop()
            raise RuntimeError(f"{self.role} worker ended or timed out "
                               f"(exit status {self.proc.returncode})")
        return json.loads(line)

    def call(self, **msg):
        self.proc.stdin.write(json.dumps(msg) + "\n")
        self.proc.stdin.flush()
        return self._recv()

    def stop(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def tail_text(name, samples, unit):
    """Median and the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    text = f"{name}: median {statistics.median(samples):.4f} {unit} over {n} samples"
    if n < 11:
        return text + "; no percentile has 10 samples beyond it"
    p = math.floor(100 * (1 - 10 / n))
    q = statistics.quantiles(samples, n=100, method="inclusive")[p - 1]
    return text + f"; p{p} {q:.4f} {unit}"


def check_trajectory(text, k):
    rows = [line.split() for line in text.splitlines() if line.strip()]
    if len(rows) != k:
        return f"trajectory has {len(rows)} poses, expected {k}"
    if any(len(r) != 8 or not all(math.isfinite(float(v)) for v in r) for r in rows):
        return "trajectory has a malformed or non-finite row"
    return None


def energy_stats(text):
    rows = [line.split(",") for line in text.splitlines()[1:] if line.strip()]
    first, last = float(rows[0][1]), float(rows[-1][1])
    return {"first": first, "last": last, "last_iter": int(rows[-1][0]),
            "attempts": len(rows) - 1, "accepted": sum(int(r[5]) for r in rows[1:])}


def check_energy(stats, max_iters):
    if not math.isfinite(stats["last"]) or not stats["last"] < stats["first"]:
        return f"last energy {stats['last']!r} is not finite and below the start {stats['first']!r}"
    # Every recorded seed runs to the iteration cap; a solve that ends sooner
    # did less work than the workload defines, whatever its seed.
    if stats["last_iter"] != max_iters:
        return f"solve ended at iteration {stats['last_iter']}, not at the cap {max_iters}"
    return None


def parse_eval(text):
    ate = miou = None
    for line in text.splitlines():
        if line.startswith("ATE:"):
            ate = float(line.split()[1])
        elif line.startswith("mIoU:"):
            miou = float(line.split()[1])
    return ate, miou


def check_quality(ate, printed_ate, miou, stats, seed, wl, tol):
    """ate: full-precision rigid ATE of the trajectory; printed_ate and miou: from eval."""
    if printed_ate is None or miou is None or not all(
            math.isfinite(v) for v in (ate, printed_ate, miou)):
        return f"no finite ATE/mIoU (ate={ate}, printed {printed_ate}, miou={miou})"
    if abs(printed_ate - ate) > 0.006:
        return f"eval printed ATE {printed_ate} cm for a trajectory with ATE {ate:.4f} cm"
    ref = wl["references"].get(str(seed))
    if ref is not None:
        if abs(ate - ref["ate_cm"]) > tol["ate_cm_abs"] + tol["ate_cm_rel"] * ref["ate_cm"]:
            return f"ate_cm {ate!r} differs from the reference {ref['ate_cm']!r} for seed {seed}"
        if abs(miou - ref["miou"]) > tol["miou_abs"]:
            return f"miou {miou} differs from the reference {ref['miou']} for seed {seed}"
        energy_tol = (tol["energy_rel"] * abs(ref["energy"])
                      + tol["energy_of_start"] * abs(stats["first"]))
        if abs(stats["last"] - ref["energy"]) > energy_tol:
            return f"final energy {stats['last']!r} differs from the reference {ref['energy']!r}"
    elif ate > wl["fallback"]["ate_cm_max"] or miou < wl["fallback"]["miou_min"]:
        return f"ate_cm {ate} / miou {miou} outside the workload limits {wl['fallback']}"
    return None


def check_solve(reps, wl, seed, tol, k):
    """Gate every repetition; returns (attempted, failed, problems, outputs of rep 0)."""
    attempted = failed = 0
    problems = []
    ref_rep = reps[0]
    outputs = {}
    for idx, rep in enumerate(reps):
        attempted += 1
        problem = None
        if rep["ba_code"] != 0:
            problem = f"ba exited with {rep['ba_code']}"
        else:
            stats = energy_stats(rep["energy_trace"])
            problem = (check_trajectory(rep["trajectory"], k)
                       or check_energy(stats, wl["config"]["solver"]["max_iters"]))
            if problem is None and (rep["trajectory"] != ref_rep.get("trajectory")
                                    or rep["energy_trace"] != ref_rep.get("energy_trace")):
                problem = "outputs differ from the first repetition"
            if idx == 0:
                outputs.update(stats)
        if problem:
            failed += 1
            problems.append(f"rep {idx}: {problem}")
        attempted += len(rep["eval_codes"])
        bad_evals = [c for c in rep["eval_codes"] if c != 0]
        if bad_evals:
            failed += len(bad_evals)
            problems.append(f"rep {idx}: eval exited with {bad_evals[0]}")
        elif rep["eval_codes"]:
            printed_ate, miou = parse_eval(rep["eval_stdout"])
            problem = check_quality(rep["ate_cm"], printed_ate, miou, stats, seed, wl, tol)
            if problem:
                failed += len(rep["eval_codes"])
                problems.append(f"rep {idx}: {problem}")
            if idx == 0:
                outputs.update(ate_cm=rep["ate_cm"], miou=miou)
    return attempted, failed, problems, outputs


def coverage_problems(wl, synth, ba, evals):
    """Every wrapped function records calls, except those the workload bypasses."""
    calls = {name: rec["calls"] for s in (synth, ba, evals) for name, rec in s.items()}
    bypassed = wl["expect_no_calls"]
    out = [f"{n} recorded no calls" for n in SPAN_NAMES
           if n not in bypassed and calls.get(n, 0) == 0]
    out += [f"{n} recorded {calls[n]} calls, expected 0" for n in bypassed
            if calls.get(n, 0) != 0]
    return out


def scaled(summary, factor):
    return {name: {**rec, "busy_s": rec["busy_s"] * factor, "self_s": rec["self_s"] * factor}
            for name, rec in summary.items()}


def measure(args, wl, cal_spec, work: Path, t_start: float):
    """Run the first synth, then rounds of (ba + evals, synths) until --seconds pass.

    Returns (blas thread counts, synth groups, solve reps, peak RSS of the solve child).
    """
    deadline = t_start + DEADLINE_S
    base = {"work": str(work), "seed": args.seed, "trace": args.trace,
            "ba_args": wl["ba_args"], "evals_per_rep": wl["evals_per_rep"],
            "calibration_runs": cal_spec["runs"]}
    # semba reads YAML; JSON is YAML.
    (work / "run.yaml").write_text(json.dumps(wl["config"]))
    # Both children run on one CPU (they never run at once): the speed of
    # each virtual CPU of a shared machine changes on its own, and the
    # calibration runs must see the CPU the commands ran on.
    cpu = max(os.sched_getaffinity(0))
    children = []
    try:
        setup = Child("setup", base, work, deadline, cpu)
        children.append(setup)
        synths = [setup.call(cmd="synth", dest=str(work / "bundle"), count=1, traced=False)]
        reps, peak_rss_mb = [], None
        if all(c == 0 for c in synths[0]["codes"]):
            solve = Child("solve", base, work, deadline, cpu)
            children.append(solve)
            t_loop = time.perf_counter()
            longest = 0.0
            while True:
                t_round = time.perf_counter()
                traced = bool(args.trace) and len(reps) % 2 == 1
                reps.append(solve.call(cmd="rep", traced=traced))
                synths.append(setup.call(cmd="synth", dest=str(work / "synth"),
                                         count=wl["setups_per_rep"], traced=traced))
                now = time.perf_counter()
                longest = max(longest, now - t_round)
                if (reps[-1]["ba_code"] != 0 or any(c != 0 for c in reps[-1]["eval_codes"])
                        or any(c != 0 for c in synths[-1]["codes"])):
                    break
                if len(reps) >= (2 if args.trace else 1) and now - t_loop + longest > args.seconds:
                    break
            peak_rss_mb = solve.call(cmd="exit")["peak_rss_mb"]
        setup.call(cmd="exit")
        return setup.hello["blas_threads"], synths, reps, peak_rss_mb
    finally:
        for child in children:
            child.stop()
        for sub in ("bundle", "synth", "out"):
            shutil.rmtree(work / sub, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    t_start = time.perf_counter()

    if not (ROOT / "src" / "semba" / "cli.py").is_file():
        print(f"error: no semba sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((HERE / "workloads.json").read_text())
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in spec["workloads"]:
        print(f"error: unknown workload {args.workload!r} "
              f"(known: {', '.join(spec['workloads'])})", file=sys.stderr)
        return 2
    wl = spec["workloads"][args.workload]
    ref_s = spec["calibration"]["reference_s"]
    k = wl["config"]["scene"]["num_keyframes"]

    work = ROOT / ".bench_out" / f"{args.workload}-s{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    threads, synths, reps, peak_rss_mb = measure(args, wl, spec["calibration"], work, t_start)

    attempted = sum(len(g["codes"]) for g in synths)
    failed = sum(1 for g in synths for c in g["codes"] if c != 0)
    problems = [f"synth exited with {c}" for g in synths for c in g["codes"] if c != 0]
    first_bytes = synths[0]["bytes_written"]
    for g in synths[1:]:
        if all(c == 0 for c in g["codes"]) and g["bytes_written"] != first_bytes:
            failed += len(g["codes"])
            problems.append(f"synth wrote {g['bytes_written']} bytes, the first {first_bytes}")
    outputs = {}
    if reps:
        a, f, p, outputs = check_solve(reps, wl, args.seed, spec["reference_tolerance"], k)
        attempted, failed, problems = attempted + a, failed + f, problems + p

    # Timings are corrected to the reference machine speed. A group of evals
    # or synths lasts a few seconds at most and is corrected by the
    # calibration runs just before and after it; a ba lasts longer than those
    # can vouch for, and is corrected by the median of all the run's
    # calibration runs.
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    plain_synths = [g for g, r in zip(synths, [None] + reps) if r is None or not r["traced"]]
    cal = statistics.median(c for x in synths + reps for part in x["cal"].values() for c in part)
    speed = ref_s / cal
    for g in synths:
        g["factor"] = ref_s / statistics.median(g["cal"]["before"] + g["cal"]["after"])
    for r in reps:
        r["eval_factor"] = ref_s / statistics.median(r["cal"]["mid"] + r["cal"]["after"])

    setup_c = [g["factor"] * t for g in plain_synths for t in g["s"]]
    lines = [f"workload {args.workload} seed {args.seed}: "
             f"BLAS threads numpy={threads['numpy']} scipy={threads['scipy']}",
             f"machine speed {speed:.3f} of the reference (calibration kernel median "
             f"{cal * 1e3:.3f} ms, reference {ref_s * 1e3:.3f} ms); timings below are "
             f"corrected to the reference speed",
             tail_text("setup_s", setup_c, "s")]
    metrics = {}
    eval_c = [r["eval_factor"] * t for r in plain for t in r["eval_s"]]
    if plain and eval_c:
        ba_c = [speed * r["ba_s"] for r in plain]
        lines += [tail_text("ba_s", ba_c, "s"), tail_text("eval_s", eval_c, "s"),
                  f"uncorrected medians: ba {statistics.median(r['ba_s'] for r in plain):.4f} s, "
                  f"eval {statistics.median(t for r in plain for t in r['eval_s']):.4f} s, "
                  f"synth {statistics.median(t for g in plain_synths for t in g['s']):.4f} s",
                  f"peak_rss_mb: {peak_rss_mb:.1f} MB"]
        metrics = {"ba_s": statistics.median(ba_c), "eval_s": statistics.median(eval_c),
                   "setup_s": statistics.median(setup_c), "peak_rss_mb": peak_rss_mb}
    lines.append(f"outputs: ate_cm={outputs.get('ate_cm')!r} cm miou={outputs.get('miou')} ratio "
                 f"attempts={outputs.get('attempts')} accepted={outputs.get('accepted')} "
                 f"energy={outputs.get('first')!r} -> {outputs.get('last')!r}")

    if args.trace and traced and plain and "attempts" in outputs:
        traced_synths = [g for g, r in zip(synths, [None] + reps) if r is not None and r["traced"]]
        synth = median_summary([scaled(sm, g["factor"])
                                for g in traced_synths for sm in g["summaries"]])
        ba = scaled(median_summary([r["ba_summary"] for r in traced]), speed)
        evals = median_summary([scaled(sm, r["eval_factor"])
                                for r in traced for sm in r["eval_summaries"]])
        counts = dict(traced[0]["counts"])
        counts["evaluation.knn_transfer.queries"] = \
            counts.get("evaluation.knn_transfer.queries", 0) / max(len(traced[0]["eval_s"]), 1)
        counts["tensorio.bytes_written"] = synths[0]["bytes_written"]
        per_layer = layer_metrics(synth, ba, evals, counts, outputs)
        traced_ba = speed * statistics.median(r["ba_s"] for r in traced)
        plain_ba = speed * statistics.median(r["ba_s"] for r in plain)
        per_layer["trace.ba_s"] = traced_ba
        per_layer["trace.overhead_s"] = traced_ba - plain_ba
        per_layer["trace.overhead_frac"] = (traced_ba - plain_ba) / plain_ba
        per_layer["wall.ba_s"] = statistics.median(r["ba_s"] for r in plain)
        per_layer["calibration.speed"] = speed
        per_layer["ate_cm"] = outputs["ate_cm"]
        per_layer["miou"] = outputs["miou"]
        per_layer["fail_frac"] = failed / attempted
        cover = coverage_problems(wl, synth, ba, evals)
        problems += [f"coverage: {p}" for p in cover]
        metrics = per_layer
        lines.append(f"tracing overhead: {traced_ba - plain_ba:+.4f} s on ba "
                     f"({len(traced)} traced, {len(plain)} untraced reps); "
                     f"wrapper coverage {'ok' if not cover else 'FAILED'}")
    elif args.trace:
        problems.append("no traced and untraced repetition pair completed")

    lines.append(f"fail_frac: {failed / attempted:.4f} ratio ({failed} of {attempted} commands "
                 f"failed)")
    declared = bench["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if metrics and set(metrics) != set(units):
        problems.append(f"reported and declared metrics differ: "
                        f"{sorted(set(metrics) ^ set(units))}")
    for line in lines + [f"problem: {p}" for p in problems]:
        print(line)
    result = {"correct": not problems and bool(metrics), "attempted": attempted,
              "failed": failed,
              "metrics": {n: {"value": v, "unit": units.get(n)} for n, v in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
