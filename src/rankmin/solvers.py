"""Iterative solvers for min f(X) subject to rank(X) = r.

Five algorithms share one driver loop, which records a uniform
per-iteration trace; each supplies only a step kernel.  pprojgd is the
projected gradient step plus a branch that escapes strict saddles through
randomized tangent-space descent, and a certifiable stop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .geometry import (
    FactoredMatrix,
    TangentVector,
    _fro,
    _lapack_eigh,
    _lapack_svdvals,
    _Pullback,
    _truncate,
    _truncate_psd,
    project_psd_rank_r,
    project_rank_r,
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

# a Gram matrix with sigma_min at or below this fraction of sigma_max flags
# the run as a Gram breakdown
GRAM_BREAKDOWN_RATIO = 1e-12

# the Gram step's pseudo-inverse counts eigenvalues of magnitude at or below
# this fraction of the largest as zero (np.linalg.pinv's default rcond)
_PINV_RCOND = 1e-15

# cap on the inner steps of one tangent escape: 100x the budget at eta >= 0.01
MAX_TANGENT_ITERS = 10 ** 6


class _ResolvedPprojgd(NamedTuple):
    epsilon: float
    epsilon_t: float
    eta_t: float
    max_tangent_iters: int


@dataclass(frozen=True)
class PprojgdParams:
    """The accuracy epsilon of the perturbed solver.  At step size eta it
    sets epsilon_t = sqrt(epsilon), eta_t = min(epsilon_t, eta), the
    perturbation radius epsilon and an escape budget of
    ceil(1/(eta_t*epsilon_t)) inner steps, which must not exceed
    MAX_TANGENT_ITERS."""

    epsilon: float = 1e-4

    def resolve(self, eta: float) -> _ResolvedPprojgd:
        eps = float(self.epsilon)
        if not 0 < eps < math.inf:
            raise ValueError(f"epsilon must be positive and finite, got {eps!r}")
        eps_t = math.sqrt(eps)
        eta_t = min(eps_t, eta)
        rate = eta_t * eps_t                # zero once the product underflows
        j_max = 1.0 / rate if rate else math.inf
        if j_max > MAX_TANGENT_ITERS:
            raise ValueError(f"max_tangent_iters exceeds the cap of {MAX_TANGENT_ITERS} "
                             "(it is ceil(1/(eta_t*sqrt(epsilon))))")
        return _ResolvedPprojgd(eps, eps_t, eta_t, math.ceil(j_max))


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
        if not isinstance(self.max_iters, (int, np.integer)) or self.max_iters < 0:
            raise ValueError(f"max_iters must be an integer >= 0, got {self.max_iters!r}")
        if self.diverge_threshold <= 0:
            raise ValueError("diverge_threshold must be positive")
        if self.tol_step is not None and self.tol_step < 0:
            raise ValueError("tol_step must be >= 0")


class TraceRecord(NamedTuple):
    """One trace row; csv_text prints its floats with str, which is repr for
    a Python float and the same digits for a numpy float."""

    iteration: int
    f_value: float
    f_gap: float
    rel_err: float
    step_norm: float
    sigma_r: float
    branch: str


CSV_COLUMNS = ("iter",) + TraceRecord._fields[1:]


@dataclass
class SolverTrace:
    algorithm: str
    records: list
    status: str = STATUS_MAX_ITERS
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
        i = CSV_COLUMNS.index(name)
        return np.array([rec[i] for rec in self.records], dtype=float)

    def iterations_to(self, rel_err: float) -> Optional[int]:
        """First iteration index at which rel_err drops below the threshold."""
        for rec in self.records:
            if math.isfinite(rec.rel_err) and rec.rel_err < rel_err:
                return rec.iteration
        return None

    def csv_text(self) -> str:
        rows = [",".join(CSV_COLUMNS) + "\n"]
        rows.extend("%d,%s,%s,%s,%s,%s,%s\n" % rec for rec in self.records)
        return "".join(rows)


def projgd_step(x: FactoredMatrix, f, eta: float, rank: Optional[int] = None) -> FactoredMatrix:
    """One projected gradient step: rank-r truncation of X - eta * grad f(X),
    PSD rank-r when f is symmetric_psd."""
    rank = x.rank if rank is None else int(rank)
    xd = x.dense()
    z = xd - eta * np.asarray(f.gradient(xd), dtype=float)
    return project_psd_rank_r(z, rank) if f.symmetric_psd else project_rank_r(z, rank)


def _fgd_point(x: FactoredMatrix, g: np.ndarray, eta: float) -> np.ndarray:
    """L+ R+^T, the factored step from the point and its gradient g,
    before it is refactored."""
    lf, rf = x.balanced_factors()
    return (lf - eta * g.dot(rf)).dot((rf - eta * g.T.dot(lf)).T)


def fgd_step(x: FactoredMatrix, f, eta: float) -> FactoredMatrix:
    """One factored gradient step on balanced factors L = U sqrt(S),
    R = V sqrt(S): L+ = L - eta grad f(X) R, R+ = R - eta grad f(X)^T L,
    then refactor L+ R+^T by SVD for storage.  Stationary points of f are
    exact fixed points."""
    if x.rank == 0:
        return x
    g = np.asarray(f.gradient(x.dense()), dtype=float)
    return project_rank_r(_fgd_point(x, g, eta), x.rank)


def _gram_apply_inverse(rhs: np.ndarray, shifted: np.ndarray, v: np.ndarray,
                        mag: list) -> np.ndarray:
    """rhs @ (G + reg I)^+ for the Gram matrix G = F^T F = V diag(w) V^T,
    given shifted = w + reg and mag = |w + reg| as Python floats (the
    singular values of G + reg I, G being symmetric PSD).  Eigenvalues of
    magnitude at or below _PINV_RCOND times the largest contribute 0, as in
    np.linalg.pinv; the rest are inverted."""
    if not mag:
        return rhs
    # for a handful of values Python's min and max are cheaper than numpy's
    cutoff = _PINV_RCOND * max(mag)
    if min(mag) <= cutoff:
        shifted = np.where(np.greater(mag, cutoff), shifted, np.inf)
    return (rhs.dot(v) / shifted).dot(v.T)


def _precgd_update(lf: np.ndarray, rf: np.ndarray, g: np.ndarray, eta: float,
                   reg: float, gram_eig):
    """The preconditioned step from the factors, the gradient g at L R^T and
    the stacked eigendecomposition of the Gram matrices that gram_condition
    returns."""
    w, v, mag = gram_eig
    if reg != 0.0:
        w = w + reg
        mag = np.abs(w).tolist()
    gl = _gram_apply_inverse(g.dot(rf), w[1], v[1], mag[1])
    gr = _gram_apply_inverse(g.T.dot(lf), w[0], v[0], mag[0])
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
    Gram matrix is pseudo-inverted from its eigendecomposition (the driver
    records the breakdown)."""
    return precgd_step(lf, rf, f, eta, 0.0)


def gram_condition(lf: np.ndarray, rf: np.ndarray):
    """(max over both factors of cond(F^T F), (w, V, |w|)), where w[i] and
    V[i] are the eigenvalues and eigenvectors of the Gram matrix L^T L
    (i = 0) or R^T R (i = 1), taken in one stacked eigh call, and |w|[i]
    lists their magnitudes as Python floats.  The condition number is inf
    when a Gram matrix is singular; the second item gives precgd_step the
    inverse of each Gram matrix plus any ridge, or its pseudo-inverse,
    without decomposing it again.  Raises LinAlgError when the
    eigendecomposition does not converge."""
    grams = np.empty((2, lf.shape[1], lf.shape[1]))
    lf.T.dot(lf, out=grams[0])
    rf.T.dot(rf, out=grams[1])
    w, v = _lapack_eigh(grams, signature="d->dd")
    mag = np.abs(w).tolist()
    worst = 1.0
    for ev in mag:
        if ev:
            if math.isnan(ev[0]):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            lo = min(ev)
            worst = max(worst, float("inf") if lo <= 0 else max(ev) / lo)
    return worst, (w, v, mag)


def _boundary_step_length(st: np.ndarray, gt: np.ndarray, eps_t: float) -> float:
    """Smallest positive t with ||st - t gt||_F = eps_t, for frame arrays with
    ||st|| <= eps_t; 0 in the degenerate no-crossing case."""
    a = float(np.vdot(gt, gt))
    if a == 0.0:
        return 0.0
    b = -2.0 * float(np.vdot(st, gt))
    c = float(np.vdot(st, st)) - eps_t * eps_t
    disc = max(b * b - 4.0 * a * c, 0.0)
    sq = math.sqrt(disc)
    q = -0.5 * (b + sq) if b >= 0 else -0.5 * (b - sq)
    roots = [q / a]
    if q != 0.0:
        roots.append(c / q)
    pos = [t for t in roots if t > 0.0]
    return min(pos) if pos else 0.0


def tangent_space_steps(x: FactoredMatrix, f, radius: float, eta_t: float,
                        epsilon_t: float, max_iters: int,
                        rng: np.random.Generator) -> FactoredMatrix:
    """Randomized descent on the pullback f(Retr_x(S)) inside the eps_t ball.

    Start from a uniform tangent perturbation of norm radius scaled by
    eta_t and take gradient steps until one would leave the ball, which is
    then shrunk to land exactly on the boundary, or until max_iters steps
    stay inside; the end point is retracted once.

    On a symmetric PSD objective the perturbation is symmetrized (core
    symmetric, right = left^T) before it is scaled, so that with the
    symmetric gradient every inner point stays symmetric."""
    s = TangentVector.from_coords(rng.standard_normal(tangent_dim(x)), x)
    if f.symmetric_psd:
        # a PSD point has u = v, so both frames are one array and the
        # symmetric part of the frame array is the symmetric perturbation
        s = TangentVector._wrap(0.5 * (s.st + s.st.T), x)
    st = (eta_t * radius / s.norm()) * s.st
    # one kernel for the escape; the inner steps run on bare frame arrays
    pull = _Pullback(x, f)
    # every inner point has ||S_core||_F <= ||S||_F <= max(eps_t, ||S_0||_F),
    # so when the core floor clears that radius no step can fail it
    cleared = pull.clears(max(epsilon_t, _fro(st)))
    for _ in range(max_iters):
        gt = pull.grad(st, cleared)
        st_plus = st - eta_t * gt
        if _fro(st_plus) > epsilon_t:
            st = st - _boundary_step_length(st, gt, epsilon_t) * gt
            break
        st = st_plus
    return retract(x, TangentVector._wrap(st, x))


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
        self.trace = SolverTrace(algorithm=algorithm, records=[])

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
        return self.trace


def _all_finite(a: np.ndarray) -> bool:
    """np.isfinite(a).all(), tested by the norm first: a NaN or inf entry
    makes the norm NaN or inf, so only a finite matrix whose norm overflows
    takes the entrywise test."""
    return math.isfinite(_fro(a)) or bool(np.isfinite(a).all())


def _sigma_r_dense(xd: np.ndarray, rank: int) -> float:
    sv = _lapack_svdvals(xd, signature="d->d")
    if math.isnan(sv[0]):
        raise np.linalg.LinAlgError("SVD did not converge")
    return float(sv[rank - 1]) if sv.size >= rank else 0.0


# A step kernel gets (f, x0, cfg, search rank, rng, trace) and returns the
# initial state, its dense form and sigma_r, and step(state, X_t dense,
# f(X_t), grad f(X_t)) -> (next state, its dense form, its sigma_r, branch).
# A terminate step keeps the state and returns the step it rejected.  A step
# matrix that overflows is returned as the dense form, with the state kept,
# and the driver's record of it stops the run as diverged.


def _point_kernel(f, x0, cfg, rank, rng, trace):
    """The projected step, and fgd's factored step, on the factored point."""
    psd = f.symmetric_psd
    fgd, eta = trace.algorithm == "fgd", cfg.eta

    def step(x, xd, fv, g):
        if not fgd:
            z, k, z_psd = xd - eta * g, rank, psd
        elif x.rank:
            z, k, z_psd = _fgd_point(x, g, eta), x.rank, False
        else:
            return x, xd, x.sigma_r(rank), BRANCH_GRADIENT
        if not _all_finite(z):
            return x, z, float("nan"), BRANCH_GRADIENT
        x = _truncate_psd(z, k) if z_psd else _truncate(z, k)
        return x, x.dense(), x.sigma_r(rank), BRANCH_GRADIENT

    return x0, x0.dense(), x0.sigma_r(rank), step


def _preconditioned_kernel(f, x0, cfg, rank, rng, trace):
    """scaledgd and precgd, on the balanced factors (L, R) of x0."""

    def step(factors, xd, fv, g):
        lf, rf = factors
        cond, gram_eig = gram_condition(lf, rf)
        # running max over the steps, which replaces the initial nan; cond
        # is inf for a singular Gram matrix, which then pins the max at inf
        if not trace.gram_cond_max >= cond:
            trace.gram_cond_max = cond
        reg = math.sqrt(max(fv, 0.0)) if trace.algorithm == "precgd" else 0.0
        lf, rf = _precgd_update(lf, rf, g, cfg.eta, reg, gram_eig)
        new_xd = lf.dot(rf.T)
        sigma_r = _sigma_r_dense(new_xd, rank) if _all_finite(new_xd) else float("nan")
        return (lf, rf), new_xd, sigma_r, BRANCH_GRADIENT

    lf, rf = x0.balanced_factors()
    xd = lf.dot(rf.T)
    return (lf, rf), xd, _sigma_r_dense(xd, rank), step


def _perturbed_kernel(f, x0, cfg, rank, rng, trace):
    """pprojgd: the projected step of _point_kernel, taken when it is large,
    else a tangent escape or a terminate."""
    params = cfg.pprojgd.resolve(cfg.eta)
    rng = make_rng(0, stream=7) if rng is None else rng
    grad_floor = 2.0 * cfg.eta * params.epsilon / 3.0
    *start, projected = _point_kernel(f, x0, cfg, rank, rng, trace)

    def step(x, xd, fv, g):
        x_plus, plus_d, sigma_r, branch = projected(x, xd, fv, g)
        # a non-finite step keeps x and goes to the driver as is
        if x_plus is x or _fro(plus_d - xd) >= grad_floor:
            return x_plus, plus_d, sigma_r, branch
        if x.sigma_r(rank) > 2.0 * params.epsilon_t:
            y = tangent_space_steps(x, f, params.epsilon, params.eta_t,
                                    params.epsilon_t, params.max_tangent_iters, rng)
            return y, y.dense(), y.sigma_r(rank), BRANCH_TANGENT
        return x, plus_d, x.sigma_r(rank), BRANCH_TERMINATE

    return (*start, step)


_KERNELS = {
    "projgd": _point_kernel,
    "fgd": _point_kernel,
    "scaledgd": _preconditioned_kernel,
    "precgd": _preconditioned_kernel,
    "pprojgd": _perturbed_kernel,
}

ALGORITHMS = tuple(_KERNELS)


def _drive(algo, f, x0, cfg, x_star=None, rank=None, rng=None):
    """The iteration loop of every solver: one objective pass per iterate
    (its value goes into the record, its gradient into the next step) and
    one record per iteration.  rank is the search rank, rank(x0) by default.
    Overflow is not reported as a warning: a non-finite iterate stops the
    run as diverged.  Returns (final state, trace)."""
    rank = x0.rank if rank is None else int(rank)
    if rank < 1:
        raise ValueError(f"the search rank must be >= 1, got {rank}")
    builder = _TraceBuilder(algo, f, cfg, x_star)
    record, value_and_grad = builder.record, f.value_and_grad
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
    termination and return its trace.  A rank-0 x0 raises ValueError.

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
