"""Child process of the benchmark: runs semba commands in-process through
`semba.cli.main` on request and reports what it measured.

    python3 bench/worker.py <request.json>

The request file holds the run's config, seed and work directory. Commands
then arrive one JSON object a line on stdin, and each gets one JSON line back
on stdout (the commands' own output is captured):

  {"cmd": "synth", "dest": D, "count": N, "traced": B}
      `semba synth` N times into directory D
  {"cmd": "rep", "traced": B}
      `semba ba` on <work>/bundle, then `semba eval` `evals_per_rep` times
  {"cmd": "exit"}
      peak resident memory of this process; spans are written to the work
      directory when tracing

Every group of timed commands is bracketed by runs of a fixed calibration
kernel (`calibrate`), so run.py can correct the timings for the speed the
machine had while they were taken.

run.py starts the worker with every BLAS thread variable set to 1, so numpy's
and scipy's OpenBLAS pools start with one thread; the worker reads both pools'
thread counts back through ctypes and refuses to run unless each is 1.
"""

from __future__ import annotations

import contextlib
import ctypes
import gc
import io
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402  (loads numpy's OpenBLAS under the pinned environment)
import scipy.linalg  # noqa: E402,F401  (loads scipy's OpenBLAS)

import semba  # noqa: E402
from semba import cli, evaluation, tensorio  # noqa: E402

from spans import Tracer, summarize  # noqa: E402

# Loaded OpenBLAS builds: (file-name prefix, thread-count getter).
_BLAS = {"numpy": ("libscipy_openblas64_", "scipy_openblas_get_num_threads64_"),
         "scipy": ("libscipy_openblas-", "scipy_openblas_get_num_threads")}

# Inputs of the calibration kernel, made once so that every run does the same work.
_rng = np.random.default_rng(0)
_CAL_X = _rng.standard_normal(200_000)
_CAL_IDX = _rng.integers(0, _CAL_X.size, 100_000)
_CAL_BUF = np.empty(_CAL_IDX.size)
_CAL_SMALL = _rng.standard_normal((3, 500))
_CAL_A = _rng.standard_normal((120, 120)) + 12.0 * np.eye(120)
_CAL_B = _rng.standard_normal(120)


def blas_threads() -> dict:
    with open("/proc/self/maps") as f:
        loaded = {line.split()[-1] for line in f if ".so" in line}
    counts = {}
    for owner, (prefix, getter) in _BLAS.items():
        libs = sorted(p for p in loaded if Path(p).name.startswith(prefix))
        if len(libs) != 1:
            raise RuntimeError(f"expected one loaded {prefix}* library for {owner}, got {libs}")
        fn = getattr(ctypes.CDLL(libs[0]), getter)
        fn.argtypes = []
        fn.restype = ctypes.c_int
        counts[owner] = fn()
    return counts


def calibration_kernel() -> float:
    """Fixed work of the kinds semba spends its time on, in roughly its
    proportions: interpreter loops, many numpy calls on small arrays, a
    gather with element-wise maths, and a small LAPACK solve. The gather
    writes into a preallocated buffer, so the kernel's speed does not depend
    on the state of the process's allocator."""
    s = 0.0
    for i in range(30_000):
        s += i * 1e-9
    for _ in range(150):
        s += float((_CAL_SMALL * 2.0 + 1.0).sum(axis=0).max())
    np.take(_CAL_X, _CAL_IDX, out=_CAL_BUF)
    np.multiply(_CAL_BUF, 0.1, out=_CAL_BUF)
    s += float(np.exp(_CAL_BUF, out=_CAL_BUF).sum())
    s += float(np.linalg.solve(_CAL_A, _CAL_B).sum())
    return s


def calibrate(n: int) -> list:
    """Seconds of n calibration-kernel runs."""
    out = []
    for _ in range(n):
        t0 = time.perf_counter()
        calibration_kernel()
        out.append(time.perf_counter() - t0)
    return out


def run_cli(argv, tracer=None):
    """Run one semba command; returns (seconds, exit status, stdout, summary).

    With a tracer, summary holds the spans under the command's root span.
    Garbage left by earlier commands is collected first, untimed, so each
    command starts as it would in a fresh process.
    """
    gc.collect()
    buf = io.StringIO()
    root = len(tracer.spans) if tracer else None
    span = tracer.span(f"cli.{argv[0]}") if tracer else contextlib.nullcontext()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf), span:
            code = cli.main(argv)
    except Exception:  # a crash is a failed command; the parent counts it
        code = traceback.format_exc(limit=3)
    dt = time.perf_counter() - t0
    return dt, code, buf.getvalue(), summarize(tracer.spans, root) if tracer else None


def rigid_ate_cm(est_path: Path, gt_path: Path) -> float:
    """Rigid-aligned ATE in cm, as `semba eval --align rigid` computes it but unrounded."""
    _, est, _ = tensorio.read_trajectory(est_path)
    _, gt, _ = tensorio.read_trajectory(gt_path)
    aligned, _ = evaluation.align_trajectories(est, gt, "rigid")
    return 100.0 * evaluation.ate_rmse(aligned, gt)


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Worker:
    def __init__(self, req):
        self.req = req
        self.work = Path(req["work"])
        self.cfg = self.work / "run.yaml"  # written by run.py
        self.tracer = Tracer() if req["trace"] else None
        self.cal_n = req["calibration_runs"]
        calibrate(self.cal_n)  # warm-up: the first runs in a fresh process are slower

    def _installed(self, traced):
        return self.tracer.installed() if traced else contextlib.nullcontext()

    def synth(self, msg):
        dest, traced = Path(msg["dest"]), msg["traced"]
        argv = ["synth", str(dest), "--config", str(self.cfg), "--seed", str(self.req["seed"])]
        res = {"s": [], "codes": [], "summaries": [], "cal": {"before": calibrate(self.cal_n)}}
        for _ in range(msg["count"]):
            shutil.rmtree(dest, ignore_errors=True)
            with self._installed(traced):
                dt, code, _, summary = run_cli(argv, self.tracer if traced else None)
            res["s"].append(dt)
            res["codes"].append(code)
            res["summaries"].append(summary)
        res["cal"]["after"] = calibrate(self.cal_n)
        res["bytes_written"] = dir_bytes(dest) if dest.is_dir() else 0
        return res

    def rep(self, msg):
        traced = msg["traced"]
        tracer = self.tracer if traced else None
        bundle, out = self.work / "bundle", self.work / "out"
        gt = bundle / "ground_truth"
        ba_argv = ["ba", str(bundle), str(out), "--config", str(self.cfg),
                   "--export-cloud", str(out / "cloud.ply"), *self.req["ba_args"]]
        eval_argv = ["eval", str(out / "trajectory.txt"), str(gt / "trajectory.txt"),
                     "--align", "rigid", "--pred-cloud", str(out / "cloud.ply"),
                     "--gt-cloud", str(gt / "cloud.ply"), "--labels", str(gt / "labelset.csv")]
        rep = {"traced": traced, "eval_s": [], "eval_codes": [], "eval_summaries": [],
               "cal": {"before": calibrate(self.cal_n)}}
        shutil.rmtree(out, ignore_errors=True)
        with self._installed(traced):
            if traced:
                tracer.counts.clear()
            rep["ba_s"], rep["ba_code"], _, rep["ba_summary"] = run_cli(ba_argv, tracer)
            rep["cal"]["mid"] = calibrate(self.cal_n)
            if rep["ba_code"] == 0:
                for _ in range(self.req["evals_per_rep"]):
                    dt, code, text, summary = run_cli(eval_argv, tracer)
                    rep["eval_s"].append(dt)
                    rep["eval_codes"].append(code)
                    rep["eval_stdout"] = text
                    rep["eval_summaries"].append(summary)
            if traced:
                rep["counts"] = dict(tracer.counts)
        rep["cal"]["after"] = calibrate(self.cal_n)
        if rep["ba_code"] == 0:
            rep["trajectory"] = (out / "trajectory.txt").read_text()
            rep["energy_trace"] = (out / "energy_trace.csv").read_text()
            rep["ate_cm"] = rigid_ate_cm(out / "trajectory.txt", gt / "trajectory.txt")
        return rep

    def exit(self, msg):
        if self.tracer:
            with open(self.work / f"spans-{self.req['role']}.json", "w") as f:
                json.dump(self.tracer.spans, f)
        return {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def main(argv) -> int:
    req = json.loads(Path(argv[1]).read_text())
    src = (ROOT / "src").resolve()
    if not Path(semba.__file__).resolve().is_relative_to(src):
        raise RuntimeError(f"semba imported from {semba.__file__}, not from {src}")
    threads = blas_threads()
    if any(n != 1 for n in threads.values()):
        raise RuntimeError(f"BLAS pools are not single-threaded: {threads}")
    # Replies go to the real stdout; anything else printed goes to stderr.
    replies, sys.stdout = sys.stdout, sys.stderr
    worker = Worker(req)
    print(json.dumps({"blas_threads": threads}), file=replies, flush=True)
    for line in sys.stdin:
        msg = json.loads(line)
        reply = getattr(worker, msg["cmd"])(msg)
        print(json.dumps(reply), file=replies, flush=True)
        if msg["cmd"] == "exit":
            break
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
