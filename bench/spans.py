"""Span tracing of rankmin from outside the package.

Tracer.install() replaces the public functions of each layer with wrappers
that record one span per call: name, start, end and the enclosing span.
`from .geometry import retract` binds the function into the importing
module at import time, so a wrapper is installed in every rankmin module
(and every extra module passed in) whose attribute is the original
object; methods are wrapped on their class, numpy.linalg at the module
attribute.  Targets that a later version of the package no longer has are
skipped and listed in Tracer.missing.

Self time of a span is its duration minus the time covered by its child
spans.  Spans stay in memory until the tracer is dropped.
"""

from __future__ import annotations

import os
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# (module, attribute, span name)
FUNCTIONS = (
    ("rankmin.objectives", "generate_sensing", "objectives.generate_sensing"),
    ("rankmin.objectives", "spectral_init", "objectives.spectral_init"),
    ("rankmin.geometry", "project_rank_r", "geometry.project_rank_r"),
    ("rankmin.geometry", "project_psd_rank_r", "geometry.project_psd_rank_r"),
    ("rankmin.geometry", "project_tangent", "geometry.project_tangent"),
    ("rankmin.geometry", "retract", "geometry.retract"),
    ("rankmin.geometry", "pullback_value_grad", "geometry.pullback_value_grad"),
    ("rankmin.geometry", "pullback_hessian", "geometry.pullback_hessian"),
    ("rankmin.geometry", "pullback_hessian_min_eig", "geometry.pullback_hessian_min_eig"),
    ("rankmin.solvers", "run_solver", "solvers.run_solver"),
    ("rankmin.solvers", "pprojgd", "solvers.pprojgd"),
    ("rankmin.solvers", "projgd_step", "solvers.projgd_step"),
    ("rankmin.solvers", "fgd_step", "solvers.fgd_step"),
    ("rankmin.solvers", "scaledgd_step", "solvers.scaledgd_step"),
    ("rankmin.solvers", "precgd_step", "solvers.precgd_step"),
    ("rankmin.solvers", "gram_condition", "solvers.gram_condition"),
    ("rankmin.solvers", "tangent_space_steps", "solvers.tangent_space_steps"),
    ("rankmin.diagnostics", "certify_second_order", "diagnostics.certify_second_order"),
    ("rankmin.harness", "run_experiment", "harness.run_experiment"),
    ("rankmin.harness", "_execute_one", "harness.execute_one"),
    ("rankmin.harness", "_sweep_table", "harness.sweep_table"),
    ("rankmin.harness", "_render_svgs", "harness.render_svgs"),
    ("rankmin.harness", "_atomic_write", "harness.write"),
    ("rankmin.svgplot", "render_panel", "harness.render_panel"),
)

# (module, class, method, span name)
METHODS = (
    ("rankmin.objectives", "SensingProblem", "apply", "objectives.apply"),
    ("rankmin.objectives", "SensingProblem", "adjoint", "objectives.adjoint"),
    ("rankmin.objectives", "SensingObjective", "value", "objectives.value"),
    ("rankmin.objectives", "SensingObjective", "gradient", "objectives.gradient"),
    ("rankmin.objectives", "QuadraticObjective", "value", "objectives.value"),
    ("rankmin.objectives", "QuadraticObjective", "gradient", "objectives.gradient"),
    ("rankmin.solvers", "SolverTrace", "csv_text", "harness.csv_text"),
    ("rankmin.solvers", "_TraceBuilder", "record", "solvers.record"),
)

LINALG = ("svd", "qr", "eigh", "inv", "solve", "pinv")

RUN_LOOPS = ("solvers.run_solver", "solvers.pprojgd")
STEPS = ("solvers.projgd_step", "solvers.fgd_step", "solvers.scaledgd_step",
         "solvers.precgd_step")
OBJECTIVE_CALLS = ("objectives.apply", "objectives.adjoint", "objectives.value",
                   "objectives.gradient")


class Tracer:
    """Records spans for the wrapped calls while installed and active."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls = []
        self.self_s = []
        self._stack = []            # [span index, seconds covered by children]
        self.active = False
        self.missing = []
        self._restore = []
        # filled by the hooks
        self.runs = []              # (iterations, gram_breakdown, seconds) per solver run
        self.escapes = []           # (inner steps, budget exhausted, f before, f after)
        self.files_written = 0
        self.bytes_written = 0

    # -- recording ---------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return nid

    def _call(self, nid, fn, args, kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        frame = [idx, 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.span_start[idx] = t0
            self.span_end[idx] = t1
            dur = t1 - t0
            self.self_s[nid] += dur - frame[1]
            self.calls[nid] += 1
            if self._stack:
                self._stack[-1][1] += dur

    @contextmanager
    def paused(self):
        """Calls made inside run untraced (used by hooks that need f values)."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def count(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.calls[nid]

    def self_time(self, *names) -> float:
        return sum(self.self_s[self._ids[n]] for n in names if n in self._ids)

    # -- installation ------------------------------------------------------

    def _wrap(self, fn, name, hook=None):
        nid = self.name_id(name)
        call = self._call

        if hook is None:
            def traced(*args, **kwargs):
                return call(nid, fn, args, kwargs)
        else:
            def traced(*args, **kwargs):
                if not self.active:
                    return fn(*args, **kwargs)
                return hook(lambda: call(nid, fn, args, kwargs), args, kwargs)
        traced.__wrapped__ = fn
        return traced

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, extra_modules=()):
        """Wrap every target in every module that bound it; then activate."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "rankmin" or k.startswith("rankmin."))]
        modules += list(extra_modules)
        hooks = {
            "solvers.run_solver": self._hook_run_solver,
            "solvers.pprojgd": self._hook_pprojgd,
            "solvers.tangent_space_steps": self._hook_tangent,
            "harness.write": self._hook_write,
        }
        for modname, attr, name in FUNCTIONS:
            home = sys.modules.get(modname)
            orig = getattr(home, attr, None) if home is not None else None
            if orig is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            wrapped = self._wrap(orig, name, hooks.get(name))
            for mod in modules:
                if mod.__dict__.get(attr) is orig:
                    self._set(mod, attr, wrapped)
        for modname, cls_name, meth, name in METHODS:
            cls = getattr(sys.modules.get(modname), cls_name, None)
            if cls is None or meth not in cls.__dict__:
                self.missing.append(f"{modname}.{cls_name}.{meth}")
                continue
            self._set(cls, meth, self._wrap(cls.__dict__[meth], name))
        for attr in LINALG:
            self._set(np.linalg, attr, self._wrap(np.linalg.__dict__[attr], f"linalg.{attr}"))
        self.active = True
        return self

    def uninstall(self):
        self.active = False
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- hooks: per-call facts the spans alone do not carry -----------------

    def _record_run(self, trace, seconds):
        self.runs.append((trace.records[-1].iteration,
                          bool(getattr(trace, "gram_breakdown", False)), seconds))

    def _hook_run_solver(self, run, args, kwargs):
        t0 = time.perf_counter()
        trace = run()
        algo = str(args[0] if args else kwargs["algo"]).lower()
        if algo != "pprojgd":           # the pprojgd hook records that run
            self._record_run(trace, time.perf_counter() - t0)
        return trace

    def _hook_pprojgd(self, run, args, kwargs):
        t0 = time.perf_counter()
        result = run()
        self._record_run(result[1], time.perf_counter() - t0)
        return result

    def _hook_tangent(self, run, args, kwargs):
        x, f = args[0], args[1]
        max_iters = args[5] if len(args) > 5 else kwargs["max_iters"]
        with self.paused():
            f_before = float(f.value(x.dense()))
        inner0 = self.count("geometry.pullback_value_grad")
        y = run()
        inner = self.count("geometry.pullback_value_grad") - inner0
        with self.paused():
            f_after = float(f.value(y.dense()))
        self.escapes.append((inner, inner >= int(max_iters), f_before, f_after))
        return y

    def _hook_write(self, run, args, kwargs):
        result = run()
        self.files_written += 1
        self.bytes_written += os.path.getsize(args[0])
        return result

    # -- analysis ----------------------------------------------------------

    def counts_within(self, roots) -> dict:
        """Span counts per name, over spans that are named in roots or have
        an ancestor that is.  Parents always precede their children."""
        root_ids = {self._ids[n] for n in roots if n in self._ids}
        inside = [False] * len(self.span_name)
        counts = [0] * len(self.names)
        for i, (nid, parent) in enumerate(zip(self.span_name, self.span_parent)):
            if nid in root_ids or (parent >= 0 and inside[parent]):
                inside[i] = True
                counts[nid] += 1
        return dict(zip(self.names, counts))

    def inclusive_time(self, names) -> float:
        """Summed duration of the outermost spans with these names."""
        ids = {self._ids[n] for n in names if n in self._ids}
        total = 0.0
        for i, nid in enumerate(self.span_name):
            if nid not in ids:
                continue
            p = self.span_parent[i]
            while p >= 0 and self.span_name[p] not in ids:
                p = self.span_parent[p]
            if p < 0:
                total += self.span_end[i] - self.span_start[i]
        return total


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer metric name -> (value, unit) from one traced pass."""
    in_runs = tr.counts_within(RUN_LOOPS)
    iters = sum(run[0] for run in tr.runs)

    def per_iter(*names):
        return sum(in_runs.get(n, 0) for n in names) / iters if iters else 0.0

    run_ms = [1e3 * run[2] for run in tr.runs]
    inner = [e[0] for e in tr.escapes]
    useful = sum(1 for _, exhausted, before, after in tr.escapes if not exhausted and after < before)
    m = {
        "objectives.operator_passes_per_iter": (per_iter("objectives.apply", "objectives.adjoint"), "count"),
        "objectives.value_calls_per_iter": (per_iter("objectives.value"), "count"),
        "objectives.gradient_calls_per_iter": (per_iter("objectives.gradient"), "count"),
        "objectives.self_s": (tr.self_time(*OBJECTIVE_CALLS), "s"),
        "objectives.instance_s": (tr.inclusive_time(("objectives.generate_sensing",
                                                     "objectives.spectral_init")), "s"),
        "linalg.svd_per_iter": (per_iter("linalg.svd"), "count"),
        "linalg.svd_self_s": (tr.self_time("linalg.svd"), "s"),
        "linalg.svd_calls": (tr.count("linalg.svd"), "count"),
        "linalg.qr_calls": (tr.count("linalg.qr"), "count"),
        "solvers.runs": (len(tr.runs), "count"),
        "solvers.iterations": (iters, "count"),
        "solvers.run_solver_self_s": (tr.self_time(*RUN_LOOPS), "s"),
        "solvers.step_self_s": (tr.self_time(*STEPS), "s"),
        "solvers.run_ms_p50": (float(np.percentile(run_ms, 50)) if run_ms else 0.0, "ms"),
        "solvers.run_ms_p95": (float(np.percentile(run_ms, 95)) if run_ms else 0.0, "ms"),
        "solvers.gram_breakdown_runs": (sum(run[1] for run in tr.runs), "count"),
        "solvers.tangent_space_steps_self_s": (tr.self_time("solvers.tangent_space_steps"), "s"),
        "solvers.escapes": (len(inner), "count"),
        "solvers.escape_inner_steps_p50": (float(np.median(inner)) if inner else 0.0, "count"),
        "solvers.escape_budget_exhausted": (sum(e[1] for e in tr.escapes), "count"),
        "solvers.escape_useful_ratio": (useful / len(inner) if inner else 0.0, "ratio"),
    }
    for g in ("project_rank_r", "retract", "pullback_value_grad", "pullback_hessian"):
        m[f"geometry.{g}_calls"] = (tr.count(f"geometry.{g}"), "count")
        m[f"geometry.{g}_self_s"] = (tr.self_time(f"geometry.{g}"), "s")
    m.update({
        "diagnostics.certify_calls": (tr.count("diagnostics.certify_second_order"), "count"),
        "diagnostics.certify_self_s": (tr.self_time("diagnostics.certify_second_order"), "s"),
        "harness.run_experiment_self_s": (tr.self_time("harness.run_experiment"), "s"),
        "harness.csv_text_self_s": (tr.self_time("harness.csv_text"), "s"),
        "harness.render_panel_self_s": (tr.self_time("harness.render_panel"), "s"),
        "harness.files_written": (tr.files_written, "count"),
        "harness.bytes_written": (tr.bytes_written, "bytes"),
        "trace.spans": (len(tr.span_name), "count"),
    })
    return m
