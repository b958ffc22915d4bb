"""Iterative solvers for min f(X) subject to rank(X) = r.

Five algorithms share one driver loop, which records a uniform
per-iteration trace; each supplies only a step kernel.  pprojgd is the
projected gradient step plus a branch that escapes strict saddles through
randomized tangent-space descent, and a certifiable stop.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .geometry import (
    FactoredMatrix,
    TangentVector,
    _truncate,
    _value_and_grad_of,
    project_psd_rank_r,
    project_rank_r,
    pullback_value_grad,
    retract,
    tangent_dim,
)
from .objectives import make_rng

STATUS_CONVERGED = "converged"
STATUS_DIVERGED = "diverged"
STATUS_MAX_ITERS = "max-iters"
STATUS_SECOND_ORDER = "second-order-stop"
STATUS_SMALL_STEP = "small-step"

BRANCH_INIT = "init"
BRANCH_GRADIENT = "gradient"
BRANCH_TANGENT = "tangent-escape"
BRANCH_TERMINATE = "terminate"

ALGORITHMS = ("projgd", "fgd", "scaledgd", "precgd", "pprojgd")

# Gram matrices with sigma_min at or below this fraction of sigma_max are
# treated as numerically singular: pseudo-inverse, and the run is flagged.
GRAM_BREAKDOWN_RATIO = 1e-12

CSV_COLUMNS = ("iter", "f_value", "f_gap", "rel_err", "step_norm", "sigma_r", "branch")


def _positive(name: str, value):
    """value, or a ValueError naming it when it is not positive and finite."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return value


@dataclass(frozen=True)
class PprojgdParams:
    """Knobs of the perturbed solver.  None fields resolve to the defaults
    epsilon_t = sqrt(epsilon), eta_t = min(epsilon_t, eta),
    perturb_radius = epsilon, max_tangent_iters = ceil(1/(eta_t*sqrt(epsilon)))."""

    epsilon: float = 1e-4
    epsilon_t: Optional[float] = None
    eta_t: Optional[float] = None
    perturb_radius: Optional[float] = None
    max_tangent_iters: Optional[int] = None

    def resolve(self, eta: float) -> "PprojgdParams":
        eps = _positive("epsilon", float(self.epsilon))
        eps_t = _positive("epsilon_t", math.sqrt(eps) if self.epsilon_t is None
                          else float(self.epsilon_t))
        eta_t = _positive("eta_t", min(eps_t, eta) if self.eta_t is None else float(self.eta_t))
        radius = _positive("perturb_radius", eps if self.perturb_radius is None
                           else float(self.perturb_radius))
        j_max = (math.ceil(1.0 / (eta_t * math.sqrt(eps))) if self.max_tangent_iters is None
                 else int(_positive("max_tangent_iters", self.max_tangent_iters)))
        return PprojgdParams(eps, eps_t, eta_t, radius, _positive("max_tangent_iters", j_max))


@dataclass(frozen=True)
class SolverConfig:
    eta: float
    max_iters: int = 1000
    tol_rel_err: Optional[float] = 1e-14
    diverge_threshold: float = 1e2
    pprojgd: PprojgdParams = field(default_factory=PprojgdParams)
    # stop once ||X_t - X_{t-1}||_F <= tol_step * max(1, ||X_t||_F)
    tol_step: Optional[float] = None

    def __post_init__(self):
        for name in ("eta", "diverge_threshold", "tol_rel_err", "tol_step"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")
        if self.diverge_threshold <= 0:
            raise ValueError("diverge_threshold must be positive")
        if self.tol_step is not None and self.tol_step < 0:
            raise ValueError("tol_step must be >= 0")


class TraceRecord(NamedTuple):
    """One trace row; csv_text prints its floats, Python floats, with repr."""

    iteration: int
    f_value: float
    f_gap: float
    rel_err: float
    step_norm: float
    sigma_r: float
    branch: str


def _fro(a: np.ndarray) -> float:
    """Frobenius norm, computed as np.linalg.norm computes it for ord=None
    (the same bits), without its per-call overhead."""
    v = a.ravel(order="K")
    return math.sqrt(v.dot(v))


@dataclass
class SolverTrace:
    algorithm: str
    records: list
    status: str = STATUS_MAX_ITERS
    wall_time: float = 0.0
    gram_cond_max: float = float("nan")

    @property
    def gram_breakdown(self) -> bool:
        """Whether a Gram step met a numerically singular Gram matrix."""
        return self.gram_cond_max > 1.0 / GRAM_BREAKDOWN_RATIO

    @property
    def final_record(self) -> TraceRecord:
        return self.records[-1]

    def column(self, name: str) -> np.ndarray:
        if name == "branch":
            raise ValueError("branch is not numeric")
        i = 0 if name == "iter" else TraceRecord._fields.index(name)
        return np.array([rec[i] for rec in self.records], dtype=float)

    def iterations_to(self, rel_err: float) -> Optional[int]:
        """First iteration index at which rel_err drops below the threshold."""
        for rec in self.records:
            if math.isfinite(rec.rel_err) and rec.rel_err < rel_err:
                return rec.iteration
        return None

    def csv_text(self) -> str:
        lines = [",".join(CSV_COLUMNS)]
        lines.extend("%d,%r,%r,%r,%r,%r,%s" % rec for rec in self.records)
        return "\n".join(lines) + "\n"


def _project(z: np.ndarray, rank: int, psd: bool) -> FactoredMatrix:
    """The driver's projection of a step matrix its kernel checked finite."""
    return project_psd_rank_r(z, rank) if psd else _truncate(z, rank)


def projgd_step(x: FactoredMatrix, f, eta: float, rank: Optional[int] = None,
                psd: Optional[bool] = None) -> FactoredMatrix:
    """One projected gradient step: rank-r (or PSD rank-r) truncation of
    X - eta * grad f(X)."""
    rank = x.rank if rank is None else int(rank)
    psd = bool(getattr(f, "symmetric_psd", False)) if psd is None else psd
    xd = x.dense()
    z = xd - eta * np.asarray(f.gradient(xd), dtype=float)
    return project_psd_rank_r(z, rank) if psd else project_rank_r(z, rank)


def _fgd_point(x: FactoredMatrix, g: np.ndarray, eta: float) -> np.ndarray:
    """L+ R+^T, the factored step from the point and its gradient g,
    before it is refactored."""
    lf, rf = x.balanced_factors()
    return (lf - eta * (g @ rf)) @ (rf - eta * (g.T @ lf)).T


def fgd_step(x: FactoredMatrix, f, eta: float) -> FactoredMatrix:
    """One factored gradient step on balanced factors L = U sqrt(S),
    R = V sqrt(S): L+ = L - eta grad f(X) R, R+ = R - eta grad f(X)^T L,
    then refactor L+ R+^T by SVD for storage.  Stationary points of f are
    exact fixed points."""
    if x.rank == 0:
        return x
    g = np.asarray(f.gradient(x.dense()), dtype=float)
    return project_rank_r(_fgd_point(x, g, eta), x.rank)


def _gram_apply_inverse(rhs: np.ndarray, factor: np.ndarray, w: np.ndarray,
                        v: np.ndarray, reg: float) -> np.ndarray:
    """rhs @ (F^T F + reg I)^{-1} from the eigendecomposition F^T F =
    V diag(w) V^T, with a pseudo-inverse fallback on numerically singular
    matrices."""
    shifted = w + reg
    # F^T F is symmetric PSD, so the singular values of F^T F + reg I are
    # |w + reg|; for a handful of values Python's min and max are cheaper
    # than numpy's reductions
    mag = np.abs(shifted).tolist()
    if not mag:
        return rhs
    top = max(mag)
    if top <= 0.0 or min(mag) <= GRAM_BREAKDOWN_RATIO * top:
        gram = factor.T @ factor
        return rhs @ np.linalg.pinv(gram + reg * np.eye(len(mag)) if reg != 0.0 else gram)
    return ((rhs @ v) / shifted) @ v.T


def _precgd_update(lf: np.ndarray, rf: np.ndarray, g: np.ndarray, eta: float,
                   reg: float, gram_eig):
    """The preconditioned step from the factors, the gradient g at L R^T and
    the stacked Gram eigendecomposition that gram_condition returns."""
    (w_l, w_r), (v_l, v_r) = gram_eig
    gl = _gram_apply_inverse(g @ rf, rf, w_r, v_r, reg)
    gr = _gram_apply_inverse(g.T @ lf, lf, w_l, v_l, reg)
    return lf - eta * gl, rf - eta * gr


def precgd_step(lf: np.ndarray, rf: np.ndarray, f, eta: float, reg: float):
    """One preconditioned factored step with ridge term reg:

        L+ = L - eta grad f(L R^T) R (R^T R + reg I)^{-1}
        R+ = R - eta grad f(L R^T)^T L (L^T L + reg I)^{-1}

    Both Gram matrices come from the pre-update factors.  reg = 0 is exactly
    the scaled gradient step."""
    g = np.asarray(f.gradient(lf @ rf.T), dtype=float)
    return _precgd_update(lf, rf, g, eta, reg, gram_condition(lf, rf)[1])


def scaledgd_step(lf: np.ndarray, rf: np.ndarray, f, eta: float):
    """One scaled gradient step: the reg = 0 preconditioned step.  A singular
    Gram matrix falls back to the pseudo-inverse (the driver records the
    breakdown)."""
    return precgd_step(lf, rf, f, eta, 0.0)


def gram_condition(lf: np.ndarray, rf: np.ndarray):
    """(max over both factors of cond(F^T F), (w, V)), where w[i] and V[i]
    are the eigenvalues and eigenvectors of L^T L (i = 0) and R^T R (i = 1),
    taken in one stacked eigh call.  The condition number is inf when a Gram
    matrix is singular; (w, V) gives precgd_step the inverse of each Gram
    matrix plus any ridge without decomposing it again."""
    grams = np.empty((2, lf.shape[1], lf.shape[1]))
    np.matmul(lf.T, lf, out=grams[0])
    np.matmul(rf.T, rf, out=grams[1])
    w, v = np.linalg.eigh(grams)
    worst = 1.0
    for ev in np.abs(w).tolist():
        if ev:
            lo = min(ev)
            worst = max(worst, float("inf") if lo <= 0 else max(ev) / lo)
    return worst, (w, v)


def _boundary_step_length(s: TangentVector, g: TangentVector, eps_t: float) -> float:
    """Smallest positive t with ||s - t g||_F = eps_t (quadratic in t).
    Assumes ||s|| <= eps_t; returns 0 in the degenerate no-crossing case."""
    a = g.inner(g)
    if a == 0.0:
        return 0.0
    b = -2.0 * s.inner(g)
    c = s.inner(s) - eps_t * eps_t
    disc = max(b * b - 4.0 * a * c, 0.0)
    sq = math.sqrt(disc)
    q = -0.5 * (b + sq) if b >= 0 else -0.5 * (b - sq)
    roots = [q / a]
    if q != 0.0:
        roots.append(c / q)
    pos = [t for t in roots if t > 0.0]
    return min(pos) if pos else 0.0


def tangent_space_steps(x: FactoredMatrix, f, perturb_radius: float, eta_t: float,
                        epsilon_t: float, max_iters: int,
                        rng: Optional[np.random.Generator] = None) -> FactoredMatrix:
    """Randomized descent on the pullback f(Retr_x(S)) inside the eps_t ball.

    Start from a uniform tangent perturbation of norm perturb_radius scaled
    by eta_t; take gradient steps; the first step that would leave the ball
    is shrunk to land exactly on the boundary and the retraction is returned
    immediately.  If no step escapes within max_iters, the final in-ball
    point is retracted.

    On a symmetric PSD objective the perturbation is symmetrized (core
    symmetric, right = left^T) before it is scaled, so that with the
    symmetric gradient every inner point stays symmetric."""
    rng = make_rng(0, stream=7) if rng is None else rng
    s = TangentVector.from_coords(rng.standard_normal(tangent_dim(x)), x)
    if getattr(f, "symmetric_psd", False):
        # a PSD point has u = v, so both frames are one array and the
        # symmetric part of the frame array is the symmetric perturbation
        s = TangentVector._wrap(0.5 * (s.st + s.st.T), x)
    nrm = s.norm()
    if nrm == 0.0:
        s = TangentVector.from_coords(np.ones(tangent_dim(x)), x)
        nrm = s.norm()
    s = (eta_t * perturb_radius / nrm) * s
    for _ in range(max_iters):
        _, grad = pullback_value_grad(f, x, s)
        s_plus = s - eta_t * grad
        if s_plus.norm() <= epsilon_t:
            s = s_plus
        else:
            t = _boundary_step_length(s, grad, epsilon_t)
            return retract(x, s - t * grad)
    return retract(x, s)


class _TraceBuilder:
    """Records and stop rules of one run."""

    def __init__(self, algorithm, f, cfg, x_star):
        self.cfg = cfg
        if isinstance(x_star, FactoredMatrix):
            x_star = x_star.dense()
        self.xs_dense = None if x_star is None else np.asarray(x_star, dtype=float)
        if self.xs_dense is not None:
            self.xs_norm = _fro(self.xs_dense)
            if not 0.0 < self.xs_norm < math.inf:
                raise ValueError(f"x_star has norm {self.xs_norm!r}: relative error is undefined")
            self.f_star = float(f.value(self.xs_dense))
        else:
            self.xs_norm = float("nan")
            self.f_star = float("nan")
        self.trace = SolverTrace(algorithm=algorithm, records=[])
        self.start = time.perf_counter()

    def record(self, iteration, xd, fv, sigma_r, step_norm, branch):
        """Append the record of iterate xd, whose f value fv the caller
        computed, and return the stop status it triggers (or None)."""
        cfg = self.cfg
        if self.xs_dense is None:
            gap = rel = float("nan")
        else:
            gap = fv - self.f_star
            rel = _fro(xd - self.xs_dense) / self.xs_norm
        self.trace.records.append(TraceRecord(iteration, fv, gap, rel, step_norm, sigma_r, branch))
        # with x_star of finite norm, rel is finite exactly when X_t is (short
        # of ||X_t - X*|| overflowing, which diverge_threshold stops anyway)
        x_norm = _fro(xd) if self.xs_dense is None or cfg.tol_step is not None else rel
        if not (math.isfinite(fv) and math.isfinite(x_norm)) or rel > cfg.diverge_threshold:
            return STATUS_DIVERGED
        if cfg.tol_rel_err is not None and rel < cfg.tol_rel_err:
            return STATUS_CONVERGED
        if cfg.tol_step is not None and step_norm <= cfg.tol_step * max(1.0, x_norm):
            return STATUS_SMALL_STEP
        return None

    def finish(self, status):
        self.trace.status = status
        self.trace.wall_time = time.perf_counter() - self.start
        return self.trace


def _sigma_r_dense(xd: np.ndarray, rank: int) -> float:
    sv = np.linalg.svd(xd, compute_uv=False)
    return float(sv[rank - 1]) if sv.size >= rank else 0.0


# A step kernel gets (f, x0, cfg, search rank, rng, trace) and returns the
# initial state, its dense form and sigma_r, and step(state, X_t dense,
# f(X_t), grad f(X_t)) -> (next state, its dense form, its sigma_r, branch).
# A terminate step keeps the state and returns the step it rejected.  A step
# matrix that overflows is returned as the dense form, with the state kept,
# and the driver's record of it stops the run as diverged.


def _point_kernel(f, x0, cfg, rank, rng, trace):
    """projgd and fgd, on the factored point."""
    psd = bool(getattr(f, "symmetric_psd", False))
    projgd = trace.algorithm == "projgd"

    def step(x, xd, fv, g):
        if projgd:
            z, k, z_psd = xd - cfg.eta * g, rank, psd
        elif x.rank:
            z, k, z_psd = _fgd_point(x, g, cfg.eta), x.rank, False
        else:
            return x, xd, x.sigma_r(rank), BRANCH_GRADIENT
        if not np.isfinite(z).all():
            return x, z, float("nan"), BRANCH_GRADIENT
        x = _project(z, k, z_psd)
        return x, x.dense(), x.sigma_r(rank), BRANCH_GRADIENT

    return x0, x0.dense(), x0.sigma_r(rank), step


def _preconditioned_kernel(f, x0, cfg, rank, rng, trace):
    """scaledgd and precgd, on the balanced factors (L, R) of x0."""

    def step(factors, xd, fv, g):
        lf, rf = factors
        cond, gram_eig = gram_condition(lf, rf)
        # running max over the steps (fmax skips the initial nan); cond is
        # inf for a singular Gram matrix, which then pins the max at inf
        trace.gram_cond_max = float(np.fmax(trace.gram_cond_max, cond))
        reg = math.sqrt(max(fv, 0.0)) if trace.algorithm == "precgd" else 0.0
        lf, rf = _precgd_update(lf, rf, g, cfg.eta, reg, gram_eig)
        new_xd = lf @ rf.T
        sigma_r = _sigma_r_dense(new_xd, rank) if np.isfinite(new_xd).all() else float("nan")
        return (lf, rf), new_xd, sigma_r, BRANCH_GRADIENT

    lf, rf = x0.balanced_factors()
    xd = lf @ rf.T
    return (lf, rf), xd, _sigma_r_dense(xd, rank), step


def _perturbed_kernel(f, x0, cfg, rank, rng, trace):
    """pprojgd's gradient, tangent-escape and terminate branches."""
    params = cfg.pprojgd.resolve(cfg.eta)
    rng = make_rng(0, stream=7) if rng is None else rng
    psd = bool(getattr(f, "symmetric_psd", False))
    grad_floor = 2.0 * cfg.eta * params.epsilon / 3.0

    def step(x, xd, fv, g):
        z = xd - cfg.eta * g
        if not np.isfinite(z).all():
            return x, z, float("nan"), BRANCH_GRADIENT
        x_plus = _project(z, rank, psd)
        plus_d = x_plus.dense()
        if _fro(plus_d - xd) >= grad_floor:
            return x_plus, plus_d, x_plus.sigma_r(rank), BRANCH_GRADIENT
        if x.sigma_r(rank) > 2.0 * params.epsilon_t:
            y = tangent_space_steps(x, f, params.perturb_radius, params.eta_t,
                                    params.epsilon_t, params.max_tangent_iters, rng)
            return y, y.dense(), y.sigma_r(rank), BRANCH_TANGENT
        return x, plus_d, x.sigma_r(rank), BRANCH_TERMINATE

    return x0, x0.dense(), x0.sigma_r(rank), step


_KERNELS = {
    "projgd": _point_kernel,
    "fgd": _point_kernel,
    "scaledgd": _preconditioned_kernel,
    "precgd": _preconditioned_kernel,
    "pprojgd": _perturbed_kernel,
}


def _drive(algo, f, x0, cfg, x_star=None, rank=None, rng=None):
    """The iteration loop of every solver: one objective pass per iterate
    (its value goes into the record, its gradient into the next step) and
    one record per iteration.  rank is the search rank, rank(x0) by default.
    Overflow is not reported as a warning: a non-finite iterate stops the
    run as diverged.  Returns (final state, trace)."""
    rank = x0.rank if rank is None else int(rank)
    builder = _TraceBuilder(algo, f, cfg, x_star)
    record, value_and_grad = builder.record, _value_and_grad_of(f)
    with np.errstate(over="ignore", invalid="ignore"):
        state, xd, sigma_r, step = _KERNELS[algo](f, x0, cfg, rank, rng, builder.trace)
        it, step_norm, branch = 0, float("nan"), BRANCH_INIT
        while True:
            fv, g = value_and_grad(xd)
            fv, g = float(fv), np.asarray(g, dtype=float)
            status = record(it, xd, fv, sigma_r, step_norm, branch)
            if status is not None or it >= cfg.max_iters:
                break
            it += 1
            new_state, new_xd, sigma_r, branch = step(state, xd, fv, g)
            step_norm = _fro(new_xd - xd)
            if branch == BRANCH_TERMINATE:
                # X_t is kept; its row carries the norm of the rejected step
                record(it, xd, fv, sigma_r, step_norm, branch)
                status = STATUS_SECOND_ORDER
                break
            state, xd = new_state, new_xd
    return state, builder.finish(status or STATUS_MAX_ITERS)


def run_solver(algo: str, f, x0: FactoredMatrix, cfg: SolverConfig,
               x_star=None, rng: Optional[np.random.Generator] = None) -> SolverTrace:
    """Run one solver from x0, whose rank is the search rank, to
    termination and return its trace.

    x_star (optional) enables the f_gap / rel_err columns and the
    convergence/divergence stopping rules.  rng is only consumed by
    pprojgd's perturbations.
    """
    algo = algo.lower()
    if algo not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algo!r}; expected one of {ALGORITHMS}")
    return _drive(algo, f, x0, cfg, x_star, rng=rng)[1]


def pprojgd(f, x0: FactoredMatrix, cfg: SolverConfig,
            rng: Optional[np.random.Generator] = None, x_star=None):
    """Perturbed projected gradient descent (two-branch variant).

    Each iteration computes the projected step X+.  A large step
    (||X+ - X|| >= 2 eta eps / 3) is taken as-is; a small step at a point
    with sigma_r(X) > 2 eps_t triggers randomized tangent-space descent to
    escape a potential strict saddle; otherwise the point is returned with
    status second-order-stop.  Returns (final point, trace)."""
    return _drive("pprojgd", f, x0, cfg, x_star, rng=rng)
