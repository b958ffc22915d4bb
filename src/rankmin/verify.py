"""End-to-end acceptance checks.

Each criterion function runs a self-contained experiment and returns
(passed, summary, details); the @criterion wrapper times it, registers it
in CRITERIA and turns its result into a CriterionResult.  verify_suite
runs them all, prints one PASS/FAIL line per criterion, and can dump the
verdict as JSON.  level="full" uses the stated seed/sample counts;
level="quick" shrinks counts only, never tolerances or thresholds, so a
quick pass is a weaker but honest version of the same assertion.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import diagnostics, harness
from .diagnostics import (
    check_descent_lemma,
    check_projection_lemma,
    estimate_linear_rate,
    swapped_direction_saddle,
)
from .geometry import (
    FactoredMatrix,
    project_rank_r,
    pullback_hessian,
    pullback_value_grad,
    retract,
    TangentVector,
    tangent_dim,
)
from .objectives import Objective, haar_frame, make_rng, quadratic_objective, random_ground_truth
from .solvers import STATUS_SECOND_ORDER, PprojgdParams, SolverConfig, pprojgd, run_solver

SUCCESS_REL = 1e-14     # sweep classification: run converged
STALL_REL = 1e-1        # no-recovery level (spectral init starts near 3e-1)
WITNESS_WINDOW = (0.55, 0.9)
HESSIAN_FD_STEP = 1e-4  # finite-difference scale of the pullback Hessian oracle


@dataclass
class CriterionResult:
    cid: str
    passed: bool
    summary: str
    details: dict
    seconds: float


CRITERIA = {}       # id -> criterion, in definition order (the verdict's order)


def criterion(fn):
    """Register fn, named criterion_<id>, in CRITERIA under <id>, wrapped to
    return a timed CriterionResult."""
    cid = fn.__name__.removeprefix("criterion_")

    def timed(level: str) -> CriterionResult:
        t0 = time.perf_counter()
        passed, summary, details = fn(level)
        return CriterionResult(cid, passed, summary, _jsonable(details),
                               time.perf_counter() - t0)

    CRITERIA[cid] = timed
    return timed


def _iters_to(trace, tol):
    it = trace.iterations_to(tol)
    return math.inf if it is None else it


# ---------------------------------------------------------------------------
# 1. trace-panel replication: the fig1 preset's cells at eta = 0.4


@criterion
def criterion_trace_panels(level):
    spec = harness.preset_fig1()
    if level != "full":
        spec = replace(spec, seed_count=3)
    seeds = spec.resolved_seeds()
    eta, tol = 0.4, 1e-10
    hard_kappa, low_rank = max(spec.kappa), min(spec.r_star)

    def iters(algo, kappa, r_star):
        return [_iters_to(harness.run_cell(spec, algo, kappa, r_star, eta, s), tol)
                for s in seeds]

    proj_med = {(kappa, r_star): float(harness._median(iters("projgd", kappa, r_star)))
                for kappa in spec.kappa for r_star in spec.r_star}
    pass_a = all(math.isfinite(v) for v in proj_med.values())

    ratios = {}
    for r_star in spec.r_star:
        meds = [proj_med[(kappa, r_star)] for kappa in spec.kappa]
        ratios[r_star] = max(meds) / min(meds) if all(map(math.isfinite, meds)) else math.inf
    pass_b = all(v < 2.0 for v in ratios.values())

    fgd_hard_med = float(harness._median(iters("fgd", hard_kappa, spec.r)))
    pass_c = (not math.isfinite(fgd_hard_med)
              or fgd_hard_med > 3.0 * proj_med[(hard_kappa, spec.r)])

    # a tolerance no run reaches, so each run lasts long enough to measure its stall rate
    stall_spec = replace(spec, tol_rel_err=1e-16)
    stall_rates = {
        kappa: float(harness._median([estimate_linear_rate(
            harness.run_cell(stall_spec, "fgd", kappa, low_rank, eta, s), window=50)
            for s in seeds]))
        for kappa in spec.kappa}
    pass_d = all(v > 0.99 for v in stall_rates.values())

    details = {
        "projgd_median_iters": {f"k{int(k)}_rs{rs}": v for (k, rs), v in proj_med.items()},
        "kappa_ratio": {f"rs{rs}": v for rs, v in ratios.items()},
        "fgd_hard_median_iters": fgd_hard_med,
        "fgd_stall_rate": {f"k{int(k)}": v for k, v in stall_rates.items()},
        "subchecks": {"a": pass_a, "b": pass_b, "c": pass_c, "d": pass_d},
    }
    summary = (f"panels {'all converge' if pass_a else 'incomplete'}; "
               f"kappa ratios {'/'.join(f'{v:.2f}' for v in ratios.values())}; "
               f"fgd hard median {fgd_hard_med}; "
               f"fgd stall rates {'/'.join(f'{v:.5f}' for v in stall_rates.values())}")
    return pass_a and pass_b and pass_c and pass_d, summary, details


# ---------------------------------------------------------------------------
# 2. step-size sweep: the fig3 preset's cells, m = 10nr, 80 iterations


@criterion
def criterion_step_size_sweep(level):
    spec = harness.preset_fig3()
    if level != "full":
        spec = replace(spec, seed_count=3)
    seeds, etas, algos = spec.resolved_seeds(), spec.etas, spec.algorithms
    (kappa,), (r_star,) = spec.kappa, spec.r_star
    baselines = [a for a in algos if a != "projgd"]

    finals = {}
    for algo in algos:
        for s in seeds:
            for eta in etas:
                rel = harness.run_cell(spec, algo, kappa, r_star, eta, s).final_record.rel_err
                finals[(algo, s, eta)] = rel if np.isfinite(rel) else 10 * spec.diverge_threshold

    def success_set(algo, s):
        return {eta for eta in etas if finals[(algo, s, eta)] < SUCCESS_REL}

    contained = 0
    for s in seeds:
        p = success_set("projgd", s)
        if all(success_set(a, s) < p for a in baselines):
            contained += 1
    need = math.ceil(0.7 * len(seeds))
    pass_containment = contained >= need

    witness_eta = None
    witness_medians = None
    for eta in etas:
        if not WITNESS_WINDOW[0] < eta < WITNESS_WINDOW[1]:
            continue
        med = {a: float(harness._median([finals[(a, s, eta)] for s in seeds])) for a in algos}
        # baselines count as failed when they never recover (final error at or
        # above the init level); the abort threshold is reported for context
        if med["projgd"] < SUCCESS_REL and all(med[a] > STALL_REL for a in baselines):
            witness_eta = eta
            witness_medians = med
            break
    details = {
        "containment_seeds": contained, "containment_needed": need,
        "witness_eta": witness_eta, "witness_medians": witness_medians,
        "success_grid": {a: sorted(set.union(*(success_set(a, s) for s in seeds)))
                         for a in algos},
    }
    summary = (f"containment {contained}/{len(seeds)} (need {need}); "
               + (f"witness eta={witness_eta} medians "
                  + " ".join(f"{a[0]}={m:.1e}" for a, m in witness_medians.items())
                  if witness_eta else "no witness eta"))
    return pass_containment and witness_eta is not None, summary, details


# ---------------------------------------------------------------------------
# 3. local rate bound on the quadratic (kappa_f = 1)


@criterion
def criterion_local_rate(level):
    seeds = range(50) if level == "full" else range(10)
    etas = (0.1, 0.2, 0.3, 0.45)
    n, r = 12, 3
    gap_floor = 1e-24      # below this the ratio is dominated by roundoff
    worst = -math.inf
    violations = 0
    entered = 0
    for s in seeds:
        x_star = random_ground_truth(n, r, 2.0, s)
        f = quadratic_objective(x_star)
        enter_at = 0.01 * x_star.sigma_r(r) ** 2
        x0 = random_ground_truth(n, r, 4.0, 10_000 + s)
        for eta in etas:
            bound = 1.0 - (4.0 / 27.0) * (eta - eta * eta) + 1e-10
            cfg = SolverConfig(eta=eta, max_iters=3000, tol_rel_err=1e-13)
            tr = run_solver("projgd", f, x0, cfg, x_star=x_star)
            gaps = tr.column("f_gap")
            inside = False
            for t in range(len(gaps) - 1):
                if not inside and gaps[t] <= enter_at:
                    inside = True
                    entered += 1
                if inside and gaps[t] > gap_floor and gaps[t + 1] > 0:
                    ratio = gaps[t + 1] / gaps[t]
                    worst = max(worst, ratio - bound)
                    if ratio > bound:
                        violations += 1
    details = {"violations": violations, "entered_runs": entered,
               "worst_slack": worst}
    summary = f"{violations} ratio violations, {entered} runs entered the local region, worst slack {worst:.2e}"
    return violations == 0 and entered == len(list(seeds)) * len(etas), summary, details


# ---------------------------------------------------------------------------
# 4. global step-size window on the quadratic


@criterion
def criterion_global_window(level):
    count = 100 if level == "full" else 20
    etas = (0.1, 0.5, 0.9)
    n, r = 8, 2
    x_star = random_ground_truth(n, r, 2.0, 123)
    f = quadratic_objective(x_star)
    scales = (0.1, 1.0, 10.0)
    failures = []
    descent_violations = 0
    for i in range(count):
        rng = make_rng(500 + i)
        a = rng.standard_normal((n, r))
        b = rng.standard_normal((n, r))
        x0 = project_rank_r(scales[i % 3] * a @ b.T, r)
        for eta in etas:
            # scale-10 starts sit ~100x from the target, over the default
            # abort level; raise it so the run is judged on convergence only
            cfg = SolverConfig(eta=eta, max_iters=2000, tol_rel_err=1e-11,
                               diverge_threshold=1e9)
            tr = run_solver("projgd", f, x0, cfg, x_star=x_star)
            if _iters_to(tr, 1e-10) > 2000:
                failures.append({"init": i, "eta": eta,
                                 "final": tr.final_record.rel_err})
            if eta < 0.5:
                rep = check_descent_lemma(tr, 1.0, eta)
                if rep.applicable:
                    descent_violations += rep.violations
    details = {"initializations": count, "failures": failures,
               "descent_violations": descent_violations}
    summary = (f"{count} inits x {len(etas)} etas: {len(failures)} non-converged, "
               f"{descent_violations} descent violations")
    return not failures and descent_violations == 0, summary, details


# ---------------------------------------------------------------------------
# 5. lemma property suites


def _corridor_stop(seed: int, stream: int, eta: float):
    """(X*, f, end point, trace) of one default pprojgd run on the quadratic
    with sigma(X*) = (1, 0.55, 0.008), from a 5e-3 perturbation of X*.  The
    instance comes from seed + stream, the run's perturbations from stream
    `stream` of seed + 1.  sigma_3(X*) lies below 2 eps_t, so the run stops
    by the terminate branch."""
    rng = make_rng(seed + stream)
    xs = FactoredMatrix(haar_frame(rng, 8, 3), np.array([1.0, 0.55, 0.008]),
                        haar_frame(rng, 8, 3), validate=False)
    fq = quadratic_objective(xs)
    x0 = project_rank_r(xs.dense() + 5e-3 * rng.standard_normal((8, 8)), 3)
    cfg = SolverConfig(eta=eta, max_iters=400, tol_rel_err=None)
    x_end, trace = pprojgd(fq, x0, cfg, rng=make_rng(seed + 1, stream=stream), x_star=xs)
    return xs, fq, x_end, trace


@criterion
def criterion_lemma_suites(level):
    t0 = time.perf_counter()
    full = level == "full"

    # per-step descent with known L, at two step sizes
    descent_ok = True
    descent_worst = math.inf
    x_star = random_ground_truth(10, 3, 3.0, 7)
    f = quadratic_objective(x_star)
    for eta in (0.3, 0.45):
        x0 = random_ground_truth(10, 3, 2.0, 77)
        cfg = SolverConfig(eta=eta, max_iters=1000 if full else 300, tol_rel_err=1e-15)
        tr = run_solver("projgd", f, x0, cfg, x_star=x_star)
        rep = check_descent_lemma(tr, 1.0, eta)
        descent_ok = descent_ok and rep.passed
        descent_worst = min(descent_worst, rep.worst_margin)

    proj = check_projection_lemma(samples=10_000 if full else 1500)

    # termination bound: engineered stops with sigma_r(X*) below 2 eps_t
    stop_ok = True
    stop_worst = -math.inf
    stops = 20 if full else 5
    eta = 1.0 / 3.0
    resolved = PprojgdParams().resolve(eta)
    stop_bound = (diagnostics.AMBIENT_STATIONARITY_FACTOR
                  * (resolved.epsilon + resolved.epsilon_t / eta) + 1e-8)
    for s in range(stops):
        _, fq, x_end, tr = _corridor_stop(900, s, eta)
        gnorm = float(np.linalg.norm(fq.gradient(x_end.dense()), 2))
        stop_worst = max(stop_worst, gnorm)
        if tr.status != STATUS_SECOND_ORDER or gnorm > stop_bound:
            stop_ok = False

    elapsed = time.perf_counter() - t0
    passed = descent_ok and proj.passed and stop_ok and elapsed < 60.0
    details = {
        "descent_ok": descent_ok, "descent_worst_slack": descent_worst,
        "projection_min_ratio": proj.min_contraction_ratio,
        "projection_min_margin": proj.min_spectral_margin,
        "projection_samples": proj.samples,
        "stop_bound": stop_bound, "stop_worst_grad": stop_worst,
        "elapsed": elapsed,
    }
    summary = (f"descent ok={descent_ok}; projection ratio {proj.min_contraction_ratio:.4f} "
               f"margin {proj.min_spectral_margin:.2e}; "
               f"stop grad {stop_worst:.2e} <= {stop_bound:.2e}; {elapsed:.1f}s")
    return passed, summary, details


# ---------------------------------------------------------------------------
# 6. geometry oracle suite


def _fd_pullback_hessian(f, base: FactoredMatrix) -> np.ndarray:
    """Oracle for geometry.pullback_hessian: column j is the central
    difference of the pullback gradient along coordinate direction j,
    returned unsymmetrized so its self-consistency gap ||H - H^T||/||H||
    can be measured."""
    d = tangent_dim(base)
    h = HESSIAN_FD_STEP * max(1.0, base.spectral_norm())
    hess = np.empty((d, d))
    e = np.zeros(d)
    for j in range(d):
        e[j] = h
        _, gp = pullback_value_grad(f, base, TangentVector.from_coords(e, base))
        e[j] = -h
        _, gm = pullback_value_grad(f, base, TangentVector.from_coords(e, base))
        e[j] = 0.0
        hess[:, j] = (gp.coords() - gm.coords()) / (2.0 * h)
    return hess


class _LogCoshObjective(Objective):
    """f(X) = sum phi(X_ij - T_ij) with phi(t) = t^2/2 + beta log cosh t.
    Unlike the shipped objectives it is not quadratic: its Hessian-vector
    product z (1 + beta sech^2 t) depends on the point."""

    def __init__(self, target, beta):
        self.target, self.beta = target, beta

    def value(self, x):
        t = x - self.target
        return float(np.sum(0.5 * t * t + self.beta * (np.logaddexp(t, -t) - math.log(2.0))))

    def gradient(self, x):
        t = x - self.target
        return t + self.beta * np.tanh(t)

    def hessian_vector(self, x, z):
        return z * (1.0 + self.beta / np.cosh(x - self.target) ** 2)


@criterion
def criterion_geometry_oracles(level):
    t0 = time.perf_counter()
    full = level == "full"
    rng = make_rng(42, stream=3)
    n, r = 9, 3

    # truncation dominates every random rank-r candidate
    ey_ok = True
    for _ in range(40 if full else 10):
        z = rng.standard_normal((n, n))
        best = float(np.linalg.norm(z - project_rank_r(z, r).dense()))
        for _ in range(200 if full else 60):
            c = rng.standard_normal((n, r)) @ rng.standard_normal((r, n))
            c *= np.linalg.norm(z) / max(np.linalg.norm(c), 1e-12)
            ey_ok = ey_ok and best <= float(np.linalg.norm(z - c)) + 1e-12

    def rand_base():
        return random_ground_truth(n, r, 10.0 ** rng.uniform(0, 1.5), rng)

    # retraction against its dense closed form
    retr_worst = 0.0
    for _ in range(50 if full else 12):
        base = rand_base()
        s = TangentVector.from_coords(
            0.3 * rng.standard_normal(tangent_dim(base)), base)
        y = retract(base, s).dense()
        w = np.diag(base.sigma) + s.core
        winv = np.linalg.inv(w)
        a = base.u + base.u_perp @ s.left @ winv
        b = base.v.T + winv @ s.right @ base.v_perp.T
        retr_worst = max(retr_worst, float(np.linalg.norm(y - a @ w @ b)))
    retr_ok = retr_worst < 1e-8

    # pullback gradient vs central differences of the pullback value
    fd_worst = 0.0
    for _ in range(8 if full else 3):
        base = rand_base()
        f = quadratic_objective(random_ground_truth(n, r, 2.0, rng))
        x = 0.1 * rng.standard_normal(tangent_dim(base))
        _, grad = pullback_value_grad(f, base, TangentVector.from_coords(x, base))
        for _ in range(20 if full else 6):
            d = rng.standard_normal(tangent_dim(base))
            d /= np.linalg.norm(d)
            h = 1e-5
            num = (pullback_value_grad(f, base, TangentVector.from_coords(x + h * d, base))[0]
                   - pullback_value_grad(f, base, TangentVector.from_coords(x - h * d, base))[0]) / (2 * h)
            ana = float(np.vdot(grad.st, TangentVector.from_coords(d, base).st))
            fd_worst = max(fd_worst, abs(num - ana) / max(abs(num), 1e-12))
    fd_ok = fd_worst < 1e-5

    # finite-difference Hessian is symmetric to tolerance, and the exact
    # Hessian agrees with it
    sym_worst = 0.0
    hess_worst = 0.0
    for _ in range(6 if full else 2):
        base = rand_base()
        f = quadratic_objective(random_ground_truth(n, r, 2.0, rng))
        h = _fd_pullback_hessian(f, base)
        h_norm = max(np.linalg.norm(h), 1e-12)
        sym_worst = max(sym_worst, float(np.linalg.norm(h - h.T) / h_norm))
        hess_worst = max(hess_worst, float(np.linalg.norm(pullback_hessian(f, base) - h) / h_norm))
    # the same bound where the Hessian depends on the point: a rank-3 base
    # 0.5-Gaussian off a log-cosh minimizer, drawn from its own stream
    lrng = make_rng(42, stream=4)
    target = random_ground_truth(8, 3, 5.0, lrng).dense()
    base = project_rank_r(target + 0.5 * lrng.standard_normal((8, 8)), 3)
    f = _LogCoshObjective(target, 1.9)
    h = _fd_pullback_hessian(f, base)
    logcosh = float(np.linalg.norm(pullback_hessian(f, base) - h) / np.linalg.norm(h))
    sym_ok = sym_worst < 1e-4
    hess_ok = hess_worst <= 1e-6 and logcosh <= 1e-6

    elapsed = time.perf_counter() - t0
    passed = ey_ok and retr_ok and fd_ok and sym_ok and hess_ok and elapsed < 60.0
    details = {"eckart_young_ok": ey_ok, "retraction_worst": retr_worst,
               "fd_gradient_worst_rel": fd_worst, "hessian_asymmetry_worst": sym_worst,
               "hessian_fd_worst_rel": hess_worst, "hessian_fd_logcosh_rel": logcosh,
               "elapsed": elapsed}
    summary = (f"candidate dominance={ey_ok}; retraction {retr_worst:.1e}; "
               f"fd gradient {fd_worst:.1e}; hessian asymmetry {sym_worst:.1e}; "
               f"exact vs fd hessian {hess_worst:.1e}, log-cosh {logcosh:.1e}; {elapsed:.1f}s")
    return passed, summary, details


# ---------------------------------------------------------------------------
# 7. saddle escape


def escape_margin(f_saddle: float, epsilon: float, epsilon_t: float) -> float:
    """Progress quantum sqrt(eps^3 / rho_T) / 50 with rho_T = 2 M / eps_t^2
    and M = sqrt(2 f(saddle)) (a valid gradient bound on the sublevel set of
    a quadratic)."""
    m_bound = math.sqrt(2.0 * f_saddle)
    rho_t = 2.0 * m_bound / (epsilon_t ** 2)
    return math.sqrt(epsilon ** 3 / rho_t) / 50.0


@criterion
def criterion_saddle_escape(level):
    seeds = range(50) if level == "full" else range(10)
    # identity frames keep every projected-descent iterate exactly diagonal,
    # so the saddle is a bit-exact fixed point: roundoff never seeds the
    # unstable mode and the unperturbed solver genuinely cannot leave
    eye = np.eye(8)
    target = FactoredMatrix(eye[:, :4], np.array([1.0, 0.9, 0.6, 0.3]),
                            eye[:, :4], validate=False)
    saddle = swapped_direction_saddle(target, 3)
    x_star = project_rank_r(target.dense(), saddle.rank)
    f = quadratic_objective(target)
    eta = 1.0 / 3.0
    params = PprojgdParams().resolve(eta)
    f_saddle = f.value(saddle.dense())
    margin = escape_margin(f_saddle, params.epsilon, params.epsilon_t)

    # plain projected descent is pinned: the saddle is an exact fixed point
    cfg_stay = SolverConfig(eta=eta, max_iters=1000, tol_rel_err=None)
    tr = run_solver("projgd", f, saddle, cfg_stay, x_star=saddle)
    stay_worst = float(np.max(tr.column("rel_err")[1:]))
    stays = stay_worst <= 1e-12

    escapes = 0
    for s in seeds:
        cfg = SolverConfig(eta=eta, max_iters=8, tol_rel_err=None)
        _, tre = pprojgd(f, saddle, cfg, rng=make_rng(4000 + s, stream=2),
                         x_star=x_star)
        if float(np.min(tre.column("f_value"))) < f_saddle - margin / 2.0:
            escapes += 1
    need = math.ceil(0.9 * len(list(seeds)))
    pass_escape = escapes >= need

    # terminal points of stopping runs sit within 4 eps / (3 mu - L) of X*
    cor_ok = True
    cor_worst = 0.0
    for s in range(12 if level == "full" else 4):
        xs, _, x_end, trq = _corridor_stop(700, s, eta)
        dist = float(np.linalg.norm(x_end.dense() - xs.dense()))
        cor_worst = max(cor_worst, dist)
        if trq.status != STATUS_SECOND_ORDER or dist > 2.0 * params.epsilon + 1e-8:
            cor_ok = False

    details = {"escapes": escapes, "needed": need, "margin": margin,
               "f_saddle": f_saddle, "projgd_stay_worst": stay_worst,
               "terminal_worst_dist": cor_worst,
               "terminal_bound": 2.0 * params.epsilon}
    summary = (f"escapes {escapes}/{len(list(seeds))} (need {need}); projgd stays "
               f"within {stay_worst:.1e}; terminal dist {cor_worst:.2e} <= {2.0 * params.epsilon:.1e}")
    return stays and pass_escape and cor_ok, summary, details


# ---------------------------------------------------------------------------
# 8. determinism


def _hash_files(directory: str, names) -> tuple:
    """({name: sha256}, digest) for the named files, the digest being the
    sha256 of their `<sha256>  <name>` lines in name order, as
    `sha256sum $(ls) | sha256sum` prints it."""
    hashes = {}
    for name in names:
        with open(os.path.join(directory, name), "rb") as fh:
            hashes[name] = hashlib.sha256(fh.read()).hexdigest()
    listing = "".join(f"{hashes[name]}  {name}\n" for name in sorted(hashes))
    return hashes, hashlib.sha256(listing.encode()).hexdigest()


@criterion
def criterion_determinism(level):
    spec = harness.preset_fig1()
    if level != "full":
        spec = replace(spec, seed_count=3, etas=(0.4,))
    hashed = []
    for jobs in (1, 2):     # the bytes must not depend on --jobs
        with tempfile.TemporaryDirectory() as d:
            res = harness.run_experiment(spec, out_dir=d, jobs=jobs)
            hashed.append(_hash_files(d, res.files))
    (first, digest), (second, _) = hashed
    mismatched = [k for k in first if first[k] != second.get(k)]
    details = {"files": len(first), "mismatched": mismatched, "digest": digest}
    summary = f"{len(first)} files, {len(mismatched)} byte mismatches"
    return sorted(first) == sorted(second) and not mismatched, summary, details


# ---------------------------------------------------------------------------


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set)):
        return [_jsonable(v) for v in sorted(obj)] if isinstance(obj, set) else [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else repr(v)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def verify_suite(level: str = "quick", out=None) -> dict:
    """Run all criteria; print one PASS/FAIL line each; return and
    optionally write the JSON verdict."""
    if level not in ("quick", "full"):
        raise ValueError("level must be 'quick' or 'full'")
    results = []
    for cid, fn in CRITERIA.items():
        res = fn(level)
        results.append(res)
        print(f"{'PASS' if res.passed else 'FAIL'} {cid}: {res.summary} "
              f"[{res.seconds:.1f}s]")
    verdict = {
        "level": level,
        "all_passed": all(r.passed for r in results),
        "criteria": [asdict(r) for r in results],
    }
    if out:
        harness._atomic_write(out, json.dumps(verdict, indent=1, sort_keys=True) + "\n")
    return verdict
