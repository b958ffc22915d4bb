"""Certificates and checkers: second-order optimality at a rank-r point,
per-step descent and projection inequalities, convergence-rate estimation,
and a brute-force landscape probe for desk-size instances.

The numeric bounds checked here (the 2/3 projection constant, the descent
slack, the stationarity threshold) are module-level names on purpose: the
verification suite reads them at call time, so a deliberately broken bound
is caught by the mutation smoke test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import (
    SINGULAR_VALUE_DROP,
    FactoredMatrix,
    project_psd_rank_r,
    project_rank_r,
    project_tangent,
    pullback_hessian_min_eig,
)
from .objectives import make_rng, random_ground_truth
from .solvers import BRANCH_GRADIENT, SolverConfig, SolverTrace, _drive

# rank-r projection loses at most 1/3 of the tangent displacement
PROJECTION_RATIO_BOUND = 2.0 / 3.0
PROJECTION_RATIO_SLACK = 1e-9
# a descent-lemma margin below -DESCENT_SLACK * max(1, |f(X_t)|) is a violation
DESCENT_SLACK = 1e-10
# eigenvalues within this fraction of max(1, L) of zero count as zero
EIG_ZERO_TOL_SCALE = 1e-7
# terminal points closer than CLUSTER_RADIUS_SCALE * sqrt(tol) are one cluster
CLUSTER_RADIUS_SCALE = 10.0
# ambient stationarity margin at a second-order stop: (8/3)(eps + eps_t/eta)
AMBIENT_STATIONARITY_FACTOR = 8.0 / 3.0
# the landscape probe plans at most this many objective evaluations
MAX_PROBE_EVALUATIONS = 10_000_000
# the landscape probe's largest instance: n x n matrices of rank r
MAX_PROBE_N = 4
MAX_PROBE_R = 2

CLASS_MINIMIZER = "second-order-minimizer"
CLASS_SADDLE = "saddle"
CLASS_INDETERMINATE = "indeterminate"


class BudgetExceededError(RuntimeError):
    """Landscape probe would exceed MAX_PROBE_EVALUATIONS."""


def _lipschitz(f) -> float:
    """The L of f's smoothness_constants, or 1 when f has none."""
    consts = f.smoothness_constants()
    return consts[0] if consts else 1.0


@dataclass(frozen=True)
class SecondOrderCertificate:
    grad_norm: float            # ||P_T grad f(X)||_F, nan when rank-deficient
    min_eig: float              # smallest pullback Hessian eigenvalue, nan when rank-deficient
    sigma_r: float
    ambient_grad_norm: float    # spectral norm of grad f(X)
    classification: str
    eig_tol: float


def classify_certificate(grad_norm: float, min_eig: float, eps: float, gamma: float,
                         eig_tol: float) -> str:
    """Pure classification rule; a certificate's label is a function of its
    own numbers and thresholds, nothing else.  Non-finite numbers, as at a
    rank-deficient point, are indeterminate."""
    if np.isfinite(grad_norm) and np.isfinite(min_eig):
        if grad_norm <= eps and min_eig >= -(gamma + eig_tol):
            return CLASS_MINIMIZER
        if min_eig < -(gamma + eig_tol):
            return CLASS_SADDLE
    return CLASS_INDETERMINATE


def certify_second_order(x: FactoredMatrix, f, eps: float, gamma: float,
                         rank: Optional[int] = None) -> SecondOrderCertificate:
    """Measure first- and second-order stationarity of f at a rank-r point.

    Full-rank points get the tangent gradient norm and the smallest pullback
    Hessian eigenvalue; rank-deficient points, the zero matrix included,
    only get the ambient gradient norm and certify as indeterminate."""
    rank = x.rank if rank is None else int(rank)
    g = np.asarray(f.gradient(x.dense()), dtype=float)
    if 0 < rank <= x.rank:
        grad_norm = project_tangent(g, x).norm()
        min_eig, _ = pullback_hessian_min_eig(f, x)
    else:
        grad_norm = float("nan")
        min_eig = float("nan")
    eig_tol = EIG_ZERO_TOL_SCALE * max(1.0, float(_lipschitz(f)))
    return SecondOrderCertificate(
        grad_norm=grad_norm, min_eig=min_eig, sigma_r=x.sigma_r(rank),
        ambient_grad_norm=float(np.linalg.norm(g, 2)),
        classification=classify_certificate(grad_norm, min_eig, eps, gamma, eig_tol),
        eig_tol=eig_tol,
    )


@dataclass(frozen=True)
class DescentReport:
    applicable: bool
    reason: str
    steps_checked: int
    violations: int
    worst_margin: float     # min over steps of lhs - rhs; negative means violated

    @property
    def passed(self) -> bool:
        return self.applicable and self.violations == 0


def check_descent_lemma(trace: SolverTrace, l_const: float, eta: float) -> DescentReport:
    """Check f(X_t) - f(X_{t+1}) >= 0.5 (1/eta - L) ||X_t - X_{t+1}||_F^2 on
    every gradient step of the trace, from its recorded f_value and
    step_norm columns.  Other rows are not projected-gradient steps: a
    terminate row repeats X_t and a tangent-escape is a different move.
    The bound is only claimed for eta < 1/L; larger steps report not
    applicable."""
    if eta >= 1.0 / l_const:
        return DescentReport(False, f"eta={eta:g} >= 1/L={1.0 / l_const:g}", 0, 0, float("nan"))
    steps = [(a, b) for a, b in zip(trace.records, trace.records[1:])
             if b.branch == BRANCH_GRADIENT]
    if not steps:
        return DescentReport(False, "no gradient steps in the trace", 0, 0, float("nan"))
    coeff = 0.5 * (1.0 / eta - l_const)
    worst = math.inf
    violations = 0
    for a, b in steps:
        margin = (a.f_value - b.f_value) - coeff * b.step_norm ** 2
        worst = min(worst, margin)
        if margin < -DESCENT_SLACK * max(1.0, abs(a.f_value)):
            violations += 1
    return DescentReport(True, "", len(steps), violations, worst)


@dataclass(frozen=True)
class ProjectionReport:
    samples: int
    min_contraction_ratio: float   # min ||P_r(Y)-X|| / ||P_T(Y)-X||
    min_spectral_margin: float     # min of ||P_r(X+Z)-X|| - 0.5(||Z||_2 - sigma_r)
    passed: bool


def check_projection_lemma(samples: int = 10000) -> ProjectionReport:
    """Sample (X, Y) pairs across scales and conditioning, with 8 x 8 X of
    rank 3, and take the worst observed ratio ||P_r(Y) - X|| / ||P_T(X)(Y) - X||,
    which the projection inequality lower-bounds by 2/3; also track the
    spectral-norm lower bound ||P_r(X+Z) - X|| >= (||Z||_2 - sigma_r(X)) / 2."""
    n, r = 8, 3
    rng = make_rng(0, stream=11)
    min_ratio = math.inf
    min_margin = math.inf
    kept = 0
    while kept < samples:
        x = random_ground_truth(n, r, 10.0 ** rng.uniform(0.0, 2.0), rng)
        xd = x.dense()
        mode = kept % 3
        z = rng.standard_normal((n, n))
        if mode == 1:
            z = project_tangent(z, x).dense()            # tangent-heavy
        elif mode == 2:
            z = x.u_perp @ (x.u_perp.T @ z @ x.v_perp) @ x.v_perp.T   # corner-heavy
        zn = float(np.linalg.norm(z))
        if zn < 1e-14:
            continue
        t = 10.0 ** rng.uniform(math.log10(1e-3 * x.sigma_min()), math.log10(10.0))
        z = z * (t / zn)
        y = xd + z
        py = project_rank_r(y, r).dense()
        num = float(np.linalg.norm(py - xd))
        den = project_tangent(z, x).norm()
        if den > 1e-13 * t:
            min_ratio = min(min_ratio, num / den)
        spec_rhs = 0.5 * (float(np.linalg.norm(z, 2)) - x.sigma_r(r))
        min_margin = min(min_margin, num - spec_rhs)
        kept += 1
    passed = ((min_ratio >= PROJECTION_RATIO_BOUND - PROJECTION_RATIO_SLACK)
              and (min_margin >= -PROJECTION_RATIO_SLACK))
    return ProjectionReport(samples=kept, min_contraction_ratio=float(min_ratio),
                            min_spectral_margin=float(min_margin), passed=passed)


def estimate_linear_rate(trace: SolverTrace, window: int = 50, column: str = "f_gap") -> float:
    """Geometric-mean per-iteration ratio of the chosen gap column over the
    trailing window: (g_end / g_start)^(1/window) over the last `window`
    steps with positive finite values.  A stalled trace returns ~1."""
    vals = trace.column(column)
    good = np.isfinite(vals) & (vals > 0.0)
    # longest positive suffix
    idx = len(vals)
    while idx > 0 and good[idx - 1]:
        idx -= 1
    tail = vals[idx:]
    if tail.size < 2:
        raise ValueError("not enough positive trailing values to estimate a rate")
    w = min(window, tail.size - 1)
    return float((tail[-1] / tail[-1 - w]) ** (1.0 / w))


def swapped_direction_saddle(target, r: int) -> FactoredMatrix:
    """Spurious projected-gradient fixed point for f = 0.5||X - target||^2:
    the top r-1 singular triples of the target plus the (r+1)-th in place of
    the r-th.  It is exactly invariant under projected gradient steps with
    eta * sigma_r(target) < sigma_{r+1}(target), and it is a strict saddle of
    the rank-r problem."""
    td = target.dense() if isinstance(target, FactoredMatrix) else np.asarray(target, dtype=float)
    u, s, vt = np.linalg.svd(td, full_matrices=False)
    # same relative cutoff as project_rank_r, so a numerically rank-r target
    # cannot smuggle roundoff modes in as real ones
    if s.size == 0 or np.sum(s > SINGULAR_VALUE_DROP * s[0]) < r + 1:
        raise ValueError("target needs at least r+1 positive singular values")
    idx = list(range(r - 1)) + [r]
    return FactoredMatrix(u[:, idx], s[idx], vt[idx].T, validate=False)


@dataclass(frozen=True)
class StationaryPoint:
    x: FactoredMatrix
    f_value: float
    certificate: SecondOrderCertificate
    cluster_size: int


def landscape_probe(f, n: int, r: int, *, seed: int, starts: int, iters: int,
                    eps: float, gamma: float):
    """Brute-force stationary-point census for n <= MAX_PROBE_N, r <= MAX_PROBE_R.

    Multi-start projected gradient with step 0.25/L (L from f's
    smoothness_constants, 1 when it has none) runs each start to a
    step-norm fixed point, terminal points are clustered, and each cluster
    representative is refined and certified.  Both runs go through the
    solver driver, with a relative step-norm stop (tol_step).  Returns
    StationaryPoint records sorted by objective value.  seed, starts,
    iters, eps and gamma take their defaults from cli._PROBE_DEFAULTS,
    the [probe] table of a probe file.

    The planned objective evaluations are, per start, iters descent steps,
    500 refinement steps and a certificate: the exact Hessian's gradient
    and stacked Hessian-vector product plus 4 value and gradient calls.
    The pass each driver run makes at its own start point is not counted;
    a run's last record gives the f value of its terminal point.  A plan
    above MAX_PROBE_EVALUATIONS raises BudgetExceededError before any run."""
    if n > MAX_PROBE_N or r > MAX_PROBE_R:
        raise ValueError(f"landscape probe is for n <= {MAX_PROBE_N}, r <= {MAX_PROBE_R} only")
    eta = 0.25 / max(_lipschitz(f), 1e-12)
    tol = 1e-12     # relative step-norm stop of the descent runs
    descent = SolverConfig(eta=eta, max_iters=iters, tol_step=tol)
    # refinement pass with a smaller step before certifying
    refine = SolverConfig(eta=eta / 4.0, max_iters=500, tol_step=0.1 * tol)
    planned = starts * (iters + refine.max_iters + 2 + 4)
    if planned > MAX_PROBE_EVALUATIONS:
        raise BudgetExceededError(f"planned {planned} objective evaluations exceed "
                                  f"the budget of {MAX_PROBE_EVALUATIONS}")
    rng = make_rng(seed, stream=13)
    scales = (0.1, 1.0, 10.0)
    terminals = []  # (terminal point, its f value)
    for i in range(starts):
        scale = scales[i % len(scales)]
        raw = rng.standard_normal((n, n)) * scale
        if f.symmetric_psd:
            x = project_psd_rank_r(raw @ raw.T / n, r)
        else:
            x = project_rank_r(raw, r)
        if x.rank == 0:
            continue
        x, trace = _drive("projgd", f, x, descent, rank=r)
        terminals.append((x, trace.final_record.f_value))
    radius = CLUSTER_RADIUS_SCALE * math.sqrt(tol)
    clusters = []  # (representative FactoredMatrix, f value, count)
    for x, fx in terminals:
        for idx, (rep, frep, count) in enumerate(clusters):
            if np.linalg.norm(rep.dense() - x.dense()) <= radius * max(1.0, rep.frobenius_norm()):
                clusters[idx] = (x, fx, count + 1) if fx < frep else (rep, frep, count + 1)
                break
        else:
            clusters.append((x, fx, 1))
    points = []
    for rep, frep, count in clusters:
        x, trace = _drive("projgd", f, rep, refine, rank=r)
        cert = certify_second_order(x, f, eps=eps, gamma=gamma, rank=r)
        points.append(StationaryPoint(x=x, f_value=trace.final_record.f_value,
                                      certificate=cert, cluster_size=count))
    points.sort(key=lambda p: p.f_value)
    return points

