"""Per-call microbenchmarks and per-iteration call counts at fixed inputs.

Inputs are the fig1 instance n=10, r=4, m=120, seed 0 (kappa=1, r*=4), so
these numbers do not depend on the workload seed.  Times are medians over
batches taken after warm-up, with tracing off.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

import rankmin
from rankmin import svgplot

from spans import Tracer

ETA = 0.4
PROBE_ITERS = (10, 20)
ALGOS = ("projgd", "fgd", "scaledgd", "precgd")


def _instance():
    problem = rankmin.generate_sensing(n=10, r=4, r_star=4, kappa=1.0, m=120, seed=0)
    return problem, rankmin.sensing_objective(problem), rankmin.spectral_init(problem)


def per_call_seconds(fn, budget: float = 0.1, batch: float = 0.005) -> float:
    """Median seconds per call over batches of about `batch` seconds each."""
    fn()
    fn()
    t0 = time.perf_counter()
    fn()
    k = max(1, int(batch / max(time.perf_counter() - t0, 1e-7)))
    samples = []
    stop = time.perf_counter() + budget
    while len(samples) < 5 or time.perf_counter() < stop:
        t0 = time.perf_counter()
        for _ in range(k):
            fn()
        samples.append((time.perf_counter() - t0) / k)
    return statistics.median(samples)


def microbenchmarks() -> dict:
    """Metric name -> (value, unit) for one call of each layer's hot function."""
    problem, f, x0 = _instance()
    xd = x0.dense()
    g = f.gradient(xd)
    z = xd - ETA * g
    coords = np.random.default_rng(0).standard_normal(rankmin.tangent_dim(x0))
    s = rankmin.TangentVector.from_coords(1e-2 * coords / np.linalg.norm(coords), x0)
    lf, rf = x0.balanced_factors()
    reg = math.sqrt(f.value(xd))
    cfg = rankmin.SolverConfig(eta=ETA, max_iters=1000, tol_rel_err=1e-14)
    traces = [rankmin.run_solver(a, f, x0, cfg, x_star=problem.ground_truth)
              for a in ("projgd", "fgd", "scaledgd")]
    series = []
    for tr in traces:
        y = np.log10(np.clip(tr.column("rel_err"), 1e-16, 1e3)).tolist()
        series.append({"label": tr.algorithm, "x": list(range(len(y))), "y": y, "band": (y, y)})

    us, ms = 1e6, 1e3
    cases = (
        ("objectives.value_us", us, lambda: f.value(xd)),
        ("objectives.gradient_us", us, lambda: f.gradient(xd)),
        ("geometry.project_rank_r_us", us, lambda: rankmin.project_rank_r(z, 4)),
        ("geometry.retract_us", us, lambda: rankmin.retract(x0, s)),
        ("geometry.pullback_value_grad_us", us, lambda: rankmin.pullback_value_grad(f, x0, s)),
        ("geometry.pullback_hessian_ms", ms, lambda: rankmin.pullback_hessian(f, x0)),
        ("solvers.projgd_step_us", us, lambda: rankmin.projgd_step(x0, f, ETA)),
        ("solvers.fgd_step_us", us, lambda: rankmin.fgd_step(x0, f, ETA)),
        ("solvers.scaledgd_step_us", us, lambda: rankmin.scaledgd_step(lf, rf, f, ETA)),
        ("solvers.precgd_step_us", us, lambda: rankmin.solvers.precgd_step(lf, rf, f, ETA, reg)),
        ("diagnostics.certify_ms", ms,
         lambda: rankmin.certify_second_order(x0, f, eps=1e-4, gamma=0.5)),
        ("harness.csv_text_us", us, traces[0].csv_text),
        ("harness.render_panel_ms", ms,
         lambda: svgplot.render_panel("bench", "iteration", "log10 relative error", series)),
    )
    return {name: (scale * per_call_seconds(fn), "us" if scale == us else "ms")
            for name, scale, fn in cases}


def per_iteration_counts() -> dict:
    """Operator passes (apply + adjoint) and SVDs per iteration of each
    solver, as the difference between a 20- and a 10-iteration run, so the
    per-run set-up calls cancel.  Raises if a run stops early."""
    problem, f, x0 = _instance()
    tracer = Tracer().install()
    try:
        out = {}
        for algo in ALGOS:
            marks = []
            for iters in PROBE_ITERS:
                before = (tracer.count("objectives.apply") + tracer.count("objectives.adjoint"),
                          tracer.count("linalg.svd"))
                cfg = rankmin.SolverConfig(eta=ETA, max_iters=iters, tol_rel_err=None)
                tr = rankmin.run_solver(algo, f, x0, cfg, x_star=problem.ground_truth)
                if tr.final_record.iteration != iters:
                    raise RuntimeError(f"{algo} stopped at {tr.final_record.iteration} < {iters}")
                marks.append((tracer.count("objectives.apply") + tracer.count("objectives.adjoint")
                               - before[0], tracer.count("linalg.svd") - before[1]))
            span = PROBE_ITERS[1] - PROBE_ITERS[0]
            out[f"objectives.operator_passes_per_iter.{algo}"] = (
                (marks[1][0] - marks[0][0]) / span, "count")
            out[f"linalg.svd_per_iter.{algo}"] = ((marks[1][1] - marks[0][1]) / span, "count")
        return out
    finally:
        tracer.uninstall()
