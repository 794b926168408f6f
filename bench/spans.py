"""Spans recorded from outside semba by wrapping its public functions.

A function is wrapped at every place it is looked up: the defining module and
each module that bound it by name (`solver` binds `evaluate_edge` and
`total_energy`, `residuals` binds `bilinear_sample`). Wrapping only the
defining module would record no calls from those sites.

Spans (id, parent, name, start, end) stay in memory; `summarize` turns the
spans under one command into calls, busy seconds and self seconds per name.
This module imports nothing from semba or numpy, so run.py can use the
summaries without starting a BLAS pool.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager

# Public functions wrapped per layer (module name -> function names).
LAYERS = {
    "features": ["bilinear_sample"],
    "residuals": ["evaluate_edge", "total_energy"],
    "robust": ["irls_weight", "barron_rho", "adaptive_alpha"],
    "solver": ["assemble", "solve_normal_equations", "retract", "solve"],
    "evaluation": ["fuse_point_cloud", "assign_labels", "knn_transfer", "seg_metrics",
                   "align_trajectories"],
    "synthscene": ["gen_scene"],
    "tensorio": ["write_problem_bundle", "load_problem_bundle"],
}

# Span names of the wrapped functions; evaluate_edge is split by call mode.
SPAN_NAMES = [f"{layer}.{fname}.{mode}" if fname == "evaluate_edge" else f"{layer}.{fname}"
              for layer, funcs in LAYERS.items() for fname in funcs
              for mode in (("jac", "value", "sim") if fname == "evaluate_edge" else ("",))]

# Lookup sites that must be patched, or calls made through them go unrecorded.
REQUIRED_SITES = ["semba.solver.evaluate_edge", "semba.solver.total_energy",
                  "semba.residuals.bilinear_sample", "semba.residuals.evaluate_edge",
                  "semba.features.bilinear_sample"]


def _edge_mode(bound) -> str:
    """jac: with Jacobians (assemble); sim: similarity only (alpha capture); value: the rest."""
    a = bound.arguments
    if a["with_jacobians"]:
        return "jac"
    if a["need_similarity"] and not a["need_embedding"]:
        return "sim"
    return "value"


class Tracer:
    def __init__(self):
        self.spans = []          # [id, parent id or None, name, start, end]
        self.counts = Counter()  # sizes and events seen at the wrapped boundaries
        self._stack = []
        self.sites = []

    @contextmanager
    def span(self, name):
        sid = len(self.spans)
        rec = [sid, self._stack[-1] if self._stack else None, name, time.perf_counter(), None]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        except BaseException:
            self.counts[f"{name}.raised"] += 1
            raise
        finally:
            self._stack.pop()
            rec[4] = time.perf_counter()

    def _observe(self, name, bound, result):
        """Work sizes computed from argument and result array shapes."""
        if name == "features.bilinear_sample":
            fmap, coords = bound.arguments["fmap"], bound.arguments["u"]
            # Four neighbours of C float64 channels gathered per sampled point.
            self.counts["features.bilinear_sample.gathered_bytes"] += \
                4 * fmap.shape[0] * (coords.size // coords.shape[-1]) * 8
        elif name == "evaluation.knn_transfer":
            self.counts["evaluation.knn_transfer.queries"] += len(bound.arguments["gt_points"])
        elif name == "solver.assemble":
            p, d = result.coupling.shape
            self.counts["solver.coupling_bytes"] = max(self.counts["solver.coupling_bytes"],
                                                       p * d * 8)

    def _wrap(self, name, func):
        sig = inspect.signature(func)
        observed = name in ("features.bilinear_sample", "evaluation.knn_transfer",
                            "solver.assemble")
        split = name == "residuals.evaluate_edge"

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            bound = None
            if observed or split:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
            span_name = f"{name}.{_edge_mode(bound)}" if split else name
            with self.span(span_name):
                result = func(*args, **kwargs)
            if observed:
                self._observe(name, bound, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Patch every module attribute that holds a traced function; restore on exit."""
        patches = []
        modules = {n: m for n, m in sys.modules.items()
                   if m is not None and (n == "semba" or n.startswith("semba."))}
        try:
            for layer, funcs in LAYERS.items():
                defining = modules[f"semba.{layer}"]
                for fname in funcs:
                    orig = getattr(defining, fname)
                    wrapper = self._wrap(f"{layer}.{fname}", orig)
                    for mname, mod in modules.items():
                        for attr, val in list(vars(mod).items()):
                            if val is orig:
                                setattr(mod, attr, wrapper)
                                patches.append((mod, attr, orig))
                                self.sites.append(f"{mname}.{attr}")
            missing = [s for s in REQUIRED_SITES if s not in self.sites]
            if missing:
                raise RuntimeError(f"lookup sites not patched: {', '.join(missing)}")
            yield self
        finally:
            for mod, attr, orig in reversed(patches):
                setattr(mod, attr, orig)


def summarize(spans, root_id):
    """Per name under one root span: calls, busy (inclusive) and self seconds.

    Self time is a span's duration minus the part its direct children cover.
    """
    children = {}
    for sid, parent, _, start, end in spans:
        children.setdefault(parent, []).append(sid)
    out = {}
    todo = [root_id]
    while todo:
        sid = todo.pop()
        _, _, name, start, end = spans[sid]
        kids = children.get(sid, [])
        todo.extend(kids)
        child_time = sum(spans[k][4] - spans[k][3] for k in kids)
        rec = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        rec["calls"] += 1
        rec["busy_s"] += end - start
        rec["self_s"] += (end - start) - child_time
    return out


def median_summary(summaries):
    """Median of each (name, field) over several summaries; absent names count as 0."""
    names = sorted({n for s in summaries for n in s})
    out = {}
    for n in names:
        out[n] = {k: statistics.median(s.get(n, {}).get(k, 0) for s in summaries)
                  for k in ("calls", "busy_s", "self_s")}
    return out


def layer_metrics(synth, ba, evals, counts, solve_stats):
    """Per-layer metrics of one synth, one ba and one eval (each a median summary).

    counts: per-ba counters from the tracer (bytes gathered, coupling size,
    exceptions) plus queries per eval and bundle bytes per synth.
    solve_stats: attempts and accepted steps read from energy_trace.csv.
    """
    def get(summary, name, field):
        return summary.get(name, {}).get(field, 0)

    m = {}
    m["features.bilinear_sample.calls"] = get(ba, "features.bilinear_sample", "calls")
    m["features.bilinear_sample.busy_s"] = get(ba, "features.bilinear_sample", "busy_s")
    m["features.bilinear_sample.gathered_mb"] = \
        counts.get("features.bilinear_sample.gathered_bytes", 0) / 1e6
    for mode in ("jac", "value", "sim"):
        name = f"residuals.evaluate_edge.{mode}"
        m[f"{name}.calls"] = get(ba, name, "calls")
        m[f"{name}.busy_s"] = get(ba, name, "busy_s")
    m["residuals.evaluate_edge.self_s"] = sum(
        get(ba, f"residuals.evaluate_edge.{mode}", "self_s") for mode in ("jac", "value", "sim"))
    m["residuals.total_energy.calls"] = get(ba, "residuals.total_energy", "calls")
    m["residuals.total_energy.busy_s"] = get(ba, "residuals.total_energy", "busy_s")
    for fname in LAYERS["robust"]:
        m[f"robust.{fname}.calls"] = get(ba, f"robust.{fname}", "calls")
        m[f"robust.{fname}.busy_s"] = get(ba, f"robust.{fname}", "busy_s")
    for field in ("calls", "busy_s", "self_s"):
        m[f"solver.assemble.{field}"] = get(ba, "solver.assemble", field)
    m["solver.solve_normal_equations.calls"] = get(ba, "solver.solve_normal_equations", "calls")
    m["solver.solve_normal_equations.busy_s"] = get(ba, "solver.solve_normal_equations", "busy_s")
    m["solver.solve_normal_equations.failed"] = \
        counts.get("solver.solve_normal_equations.raised", 0)
    m["solver.coupling_mb"] = counts.get("solver.coupling_bytes", 0) / 1e6
    m["solver.retract.busy_s"] = get(ba, "solver.retract", "busy_s")
    m["solver.solve.attempts"] = solve_stats["attempts"]
    m["solver.solve.accepted"] = solve_stats["accepted"]
    m["solver.solve.accept_ratio"] = solve_stats["accepted"] / max(solve_stats["attempts"], 1)
    m["evaluation.knn_transfer.busy_s"] = get(evals, "evaluation.knn_transfer", "busy_s")
    m["evaluation.knn_transfer.queries"] = counts.get("evaluation.knn_transfer.queries", 0)
    m["evaluation.fuse_point_cloud.busy_s"] = get(ba, "evaluation.fuse_point_cloud", "busy_s")
    for fname in ("assign_labels", "seg_metrics", "align_trajectories"):
        m[f"evaluation.{fname}.busy_s"] = get(evals, f"evaluation.{fname}", "busy_s")
    m["synthscene.gen_scene.busy_s"] = get(synth, "synthscene.gen_scene", "busy_s")
    m["tensorio.write_problem_bundle.busy_s"] = get(synth, "tensorio.write_problem_bundle",
                                                    "busy_s")
    m["tensorio.load_problem_bundle.busy_s"] = get(ba, "tensorio.load_problem_bundle", "busy_s")
    m["tensorio.bytes_written"] = counts.get("tensorio.bytes_written", 0)
    # Self time per layer, summed over one synth, one ba and one eval; `cli`
    # is command time spent outside every wrapped function.
    for layer in ["cli", *LAYERS]:
        m[f"{layer}.self_s"] = sum(rec["self_s"] for summary in (synth, ba, evals)
                                   for name, rec in summary.items()
                                   if name.split(".")[0] == layer)
    return m
