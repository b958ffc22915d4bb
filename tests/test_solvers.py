"""Solver unit and behavior tests: step-level fixed points, factored
baselines, the perturbed solver's branch logic, and the tangent-descent
boundary mechanics."""

import math

import numpy as np
import pytest

from rankmin.geometry import FactoredMatrix, TangentVector, project_rank_r, project_tangent, tangent_dim
from rankmin.objectives import (
    generate_sensing,
    haar_frame,
    make_rng,
    quadratic_objective,
    random_ground_truth,
    sensing_objective,
    spectral_init,
)
import rankmin.geometry as geometry
from rankmin.solvers import (
    CSV_COLUMNS,
    STATUS_SMALL_STEP,
    PprojgdParams,
    SolverConfig,
    SolverTrace,
    TraceRecord,
    _boundary_step_length,
    fgd_step,
    pprojgd,
    projgd_step,
    run_solver,
    scaledgd_step,
    tangent_space_steps,
)


def sensing_setup(r_star, kappa, seed, m_factor=3, psd=False, n=10, r=4):
    p = generate_sensing(n=n, r=r, r_star=r_star, kappa=kappa, m=m_factor * n * r,
                         seed=seed, symmetric_psd=psd)
    return p, sensing_objective(p), spectral_init(p)


class ZeroGradient:
    """f constant: gradient identically zero."""

    def value(self, x):
        return 1.0

    def gradient(self, x):
        return np.zeros_like(x)


class LinearPull:
    """f(X) = -c <D, X>: constant gradient -c D."""

    def __init__(self, d, c):
        self.d = d
        self.c = c

    def value(self, x):
        return -self.c * float(np.sum(self.d * x))

    def gradient(self, x):
        return -self.c * self.d


# -------------------------------------------------- projgd


def test_projgd_full_step_lands_on_projected_target():
    rng = make_rng(200)
    target = random_ground_truth(8, 5, 3.0, rng)
    f = quadratic_objective(target)
    x = random_ground_truth(8, 3, 2.0, rng)
    y = projgd_step(x, f, 1.0, rank=3)
    ref = project_rank_r(target.dense(), 3)
    assert np.linalg.norm(y.dense() - ref.dense()) < 1e-12


def test_projgd_zero_gradient_is_identity():
    rng = make_rng(201)
    x = random_ground_truth(7, 3, 2.0, rng)
    y = projgd_step(x, ZeroGradient(), 0.5, rank=3)
    assert np.linalg.norm(y.dense() - x.dense()) < 1e-13


def test_projgd_psd_variant_keeps_symmetry():
    p, f, x0 = sensing_setup(2, 2.0, 5, psd=True)
    y = projgd_step(x0, f, 0.4, rank=4, psd=True)
    d = y.dense()
    assert np.linalg.norm(d - d.T) < 1e-12
    assert np.array_equal(y.u, y.v)


# -------------------------------------------------- fgd


def test_fgd_stationary_at_optimum():
    rng = make_rng(202)
    x_star = random_ground_truth(8, 3, 2.0, rng)
    f = quadratic_objective(x_star)
    y = fgd_step(x_star, f, 0.4)
    assert f.value(y.dense()) <= f.value(x_star.dense()) + 1e-24
    assert np.linalg.norm(y.dense() - x_star.dense()) < 1e-12


def test_fgd_well_conditioned_sensing_fast():
    # kappa = 1, r = r_star: factored descent converges quickly
    counts = []
    for seed in range(5):
        p, f, x0 = sensing_setup(4, 1.0, seed, m_factor=10)
        cfg = SolverConfig(eta=0.4, max_iters=500, tol_rel_err=1e-14)
        tr = run_solver("fgd", f, x0, cfg, x_star=p.ground_truth)
        it = tr.iterations_to(1e-10)
        assert it is not None
        counts.append(it)
    assert np.median(counts) < 500


def test_fgd_rank_deficient_stalls_sublinearly():
    from rankmin.diagnostics import estimate_linear_rate
    rates = []
    for seed in range(5):
        p, f, x0 = sensing_setup(2, 20.0, seed)
        cfg = SolverConfig(eta=0.4, max_iters=400, tol_rel_err=1e-15)
        tr = run_solver("fgd", f, x0, cfg, x_star=p.ground_truth)
        # per-iteration relative-error ratio over iterations 200..400
        rates.append(estimate_linear_rate(tr, window=200, column="rel_err"))
    assert min(rates) > 0.99


# -------------------------------------------------- scaledgd / precgd


def test_scaledgd_zero_gradient_freezes_factors():
    rng = make_rng(203)
    x = random_ground_truth(6, 2, 3.0, rng)
    lf, rf = x.balanced_factors()
    lf2, rf2 = scaledgd_step(lf, rf, ZeroGradient(), 0.5)
    assert np.array_equal(lf, lf2) and np.array_equal(rf, rf2)


def test_scaledgd_iterations_insensitive_to_kappa():
    med = {}
    for kappa in (1.0, 20.0):
        counts = []
        for seed in range(5):
            p, f, x0 = sensing_setup(4, kappa, seed)
            cfg = SolverConfig(eta=0.4, max_iters=1000, tol_rel_err=1e-14)
            tr = run_solver("scaledgd", f, x0, cfg, x_star=p.ground_truth)
            it = tr.iterations_to(1e-10)
            assert it is not None
            counts.append(it)
        med[kappa] = float(np.median(counts))
    ratio = max(med.values()) / min(med.values())
    assert ratio < 2.0


def test_scaledgd_gram_breakdown_flag_on_rank_deficient():
    flagged = 0
    for seed in range(20):
        p, f, x0 = sensing_setup(2, 20.0, seed)
        cfg = SolverConfig(eta=0.4, max_iters=1000, tol_rel_err=1e-14)
        tr = run_solver("scaledgd", f, x0, cfg, x_star=p.ground_truth)
        if tr.gram_cond_max > 1e8:
            assert tr.gram_breakdown
            flagged += 1
    assert flagged >= 16


def test_gram_breakdown_is_false_without_a_singular_gram():
    xs = random_ground_truth(6, 2, 2.0, 3)
    f = quadratic_objective(xs)
    x0 = random_ground_truth(6, 2, 1.0, 4)
    idle = run_solver("scaledgd", f, x0, SolverConfig(eta=0.5, max_iters=0), x_star=xs)
    assert math.isnan(idle.gram_cond_max) and not idle.gram_breakdown
    cfg = SolverConfig(eta=0.4, max_iters=1000, tol_rel_err=1e-14)
    assert not run_solver("projgd", f, x0, cfg, x_star=xs).gram_breakdown
    p, fs, x0s = sensing_setup(4, 1.0, 0)
    tr = run_solver("scaledgd", fs, x0s, cfg, x_star=p.ground_truth)
    assert 1.0 <= tr.gram_cond_max < 1e3 and not tr.gram_breakdown


def test_gram_breakdown_on_an_exactly_singular_gram():
    # a zero singular value gives each balanced factor a zero column, which
    # the pseudo-inverse step keeps at zero
    xs = random_ground_truth(6, 2, 2.0, 3)
    x0 = FactoredMatrix(xs.u, np.array([1.0, 0.0]), xs.v, validate=False)
    tr = run_solver("scaledgd", quadratic_objective(xs), x0, SolverConfig(eta=0.5, max_iters=3),
                    x_star=xs)
    assert tr.gram_cond_max == math.inf and tr.gram_breakdown


def test_precgd_reg_zero_reduces_to_scaledgd():
    from rankmin.solvers import precgd_step
    rng = make_rng(204)
    p, f, x0 = sensing_setup(4, 3.0, 8)
    lf, rf = x0.balanced_factors()
    for _ in range(3):
        a1, b1 = precgd_step(lf, rf, f, 0.4, 0.0)
        a2, b2 = scaledgd_step(lf, rf, f, 0.4)
        assert np.allclose(a1, a2, atol=1e-13)
        assert np.allclose(b1, b2, atol=1e-13)
        lf, rf = a1, b1


def test_precgd_converges_on_flagged_psd_rank_deficient():
    # the raw Gram goes numerically singular on these runs; the sqrt(f)
    # regularization keeps the preconditioner bounded and the run converges
    for seed in range(3):
        p, f, x0 = sensing_setup(2, 20.0, seed, psd=True)
        cfg = SolverConfig(eta=0.4, max_iters=1000, tol_rel_err=1e-14)
        trp = run_solver("precgd", f, x0, cfg, x_star=p.ground_truth)
        trs = run_solver("scaledgd", f, x0, cfg, x_star=p.ground_truth)
        assert trs.gram_breakdown
        assert trp.iterations_to(1e-10) is not None


# -------------------------------------------------- run_solver plumbing


def test_run_solver_zero_iterations():
    p, f, x0 = sensing_setup(4, 1.0, 9)
    cfg = SolverConfig(eta=0.4, max_iters=0, tol_rel_err=None)
    tr = run_solver("projgd", f, x0, cfg, x_star=p.ground_truth)
    assert len(tr.records) == 1
    assert tr.records[0].iteration == 0
    assert tr.records[0].branch == "init"


def test_run_solver_rejects_zero_x_star():
    # the relative error has no denominator; refuse before the first record
    x0 = random_ground_truth(5, 2, 1.0, make_rng(209))
    cfg = SolverConfig(eta=0.4, max_iters=3)
    with pytest.raises(ValueError, match="x_star"):
        run_solver("projgd", quadratic_objective(x0), x0, cfg, x_star=np.zeros((5, 5)))
    # nor does a non-finite one, whose rel_err could not tell a finite
    # iterate from a diverged one
    with pytest.raises(ValueError, match="x_star"):
        run_solver("projgd", quadratic_objective(x0), x0, cfg, x_star=np.full((5, 5), np.nan))


def test_run_solver_monotone_quadratic_descent():
    rng = make_rng(205)
    x_star = random_ground_truth(8, 3, 2.0, rng)
    f = quadratic_objective(x_star)
    x0 = random_ground_truth(8, 3, 5.0, rng)
    cfg = SolverConfig(eta=0.4, max_iters=500, tol_rel_err=1e-12)
    tr = run_solver("projgd", f, x0, cfg, x_star=x_star)
    assert tr.status == "converged"
    fv = tr.column("f_value")
    assert np.all(np.diff(fv) <= 1e-15)


def test_run_solver_trace_invariants():
    p, f, x0 = sensing_setup(4, 1.0, 10)
    cfg = SolverConfig(eta=0.4, max_iters=50, tol_rel_err=None)
    tr = run_solver("projgd", f, x0, cfg, x_star=p.ground_truth)
    its = tr.column("iter")
    assert len(tr.records) <= 51
    assert np.all(np.diff(its) > 0)
    assert tr.records[0].branch == "init"
    assert math.isnan(tr.records[0].step_norm)


def test_run_solver_rejects_unknown_algorithm():
    p, f, x0 = sensing_setup(4, 1.0, 11)
    cfg = SolverConfig(eta=0.4, max_iters=5)
    with pytest.raises(ValueError):
        run_solver("sgd", f, x0, cfg)


def test_run_solver_divergence_abort():
    rng = make_rng(206)
    x_star = random_ground_truth(6, 2, 1.0, rng)
    f = quadratic_objective(x_star)
    x0 = random_ground_truth(6, 2, 1.0, rng)
    cfg = SolverConfig(eta=2.5, max_iters=2000, tol_rel_err=None,
                       diverge_threshold=1e2)
    tr = run_solver("projgd", f, x0, cfg, x_star=x_star)
    assert tr.status == "diverged"
    assert len(tr.records) < 2001


def test_run_solver_small_step_stop_at_first_row_within_bound():
    # the run stops at the first row with ||X_t - X_{t-1}|| <= tol_step
    # max(1, ||X_t||); a hand loop over the public step finds that row
    rng = make_rng(210)
    x_star = random_ground_truth(6, 2, 2.0, rng)
    f = quadratic_objective(x_star)
    x0 = random_ground_truth(6, 2, 1.0, rng)
    tol = 1e-6
    x, steps = x0, []
    for _ in range(1000):
        x_new = projgd_step(x, f, 0.25)
        steps.append(np.linalg.norm(x_new.dense() - x.dense()))
        x = x_new
        if steps[-1] <= tol * max(1.0, np.linalg.norm(x.dense())):
            break
    first = len(steps)
    assert 10 < first < 1000
    cfg = SolverConfig(eta=0.25, max_iters=first + 20, tol_rel_err=None, tol_step=tol)
    tr = run_solver("projgd", f, x0, cfg, x_star=x_star)
    assert tr.status == STATUS_SMALL_STEP
    assert tr.final_record.iteration == first
    assert np.array_equal(tr.column("step_norm")[1:], steps)
    free = run_solver("projgd", f, x0, SolverConfig(eta=0.25, max_iters=first + 20,
                                                   tol_rel_err=None), x_star=x_star)
    assert free.status == "max-iters"


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1e-12])
def test_solver_config_rejects_bad_tol_step(bad):
    with pytest.raises(ValueError, match="tol_step"):
        SolverConfig(eta=0.4, tol_step=bad)


class SeparateCalls:
    """Duck-typed objective with value and gradient but no value_and_grad."""

    def __init__(self, f):
        self.f = f
        self.symmetric_psd = f.symmetric_psd

    def value(self, x):
        return self.f.value(x)

    def gradient(self, x):
        return self.f.gradient(x)


@pytest.mark.parametrize("algo", ["projgd", "fgd", "scaledgd", "precgd", "pprojgd"])
def test_run_solver_falls_back_without_value_and_grad(algo):
    p, f, x0 = sensing_setup(2, 3.0, 12)
    cfg = SolverConfig(eta=0.4, max_iters=15, tol_rel_err=None)
    fused = run_solver(algo, f, x0, cfg, x_star=p.ground_truth, rng=make_rng(1))
    duck = run_solver(algo, SeparateCalls(f), x0, cfg, x_star=p.ground_truth, rng=make_rng(1))
    assert duck.csv_text() == fused.csv_text()


def test_run_solver_runs_constant_gradient_objective():
    rng = make_rng(213)
    x0 = random_ground_truth(6, 2, 2.0, rng)
    cfg = SolverConfig(eta=0.1, max_iters=5, tol_rel_err=None)
    tr = run_solver("projgd", LinearPull(rng.standard_normal((6, 6)), 1.0), x0, cfg)
    assert len(tr.records) == 6
    assert np.all(np.diff(tr.column("f_value")) < 0)


def _hand_loop_csv(algo, f, x0, eta, iters, x_star):
    """The CSV text of a run written out with the public steps, separate
    value calls and np.linalg.norm, formatted field by field."""
    xs = x_star.dense()
    xs_norm = np.linalg.norm(xs)
    f_star = f.value(xs)
    rank = x0.rank
    if algo in ("projgd", "fgd"):
        state = x0
        dense = FactoredMatrix.dense
        sigma_r = lambda x: x.sigma_r(rank)
    else:
        state = x0.balanced_factors()
        dense = lambda lr: lr[0] @ lr[1].T
        sigma_r = lambda lr: float(np.linalg.svd(dense(lr), compute_uv=False)[rank - 1])
    rows = ["iter,f_value,f_gap,rel_err,step_norm,sigma_r,branch"]

    def row(it, xd, step_norm, branch):
        fv = f.value(xd)
        nums = (fv, fv - f_star, np.linalg.norm(xd - xs) / xs_norm, step_norm, sigma_r(state))
        rows.append(",".join([str(it)] + [repr(float(v)) for v in nums] + [branch]))

    xd = dense(state)
    row(0, xd, float("nan"), "init")
    for it in range(1, iters + 1):
        if algo == "projgd":
            state = projgd_step(state, f, eta)
        elif algo == "fgd":
            state = fgd_step(state, f, eta)
        else:
            state = scaledgd_step(*state, f, eta)
        new_xd = dense(state)
        step_norm = np.linalg.norm(new_xd - xd)
        xd = new_xd
        row(it, xd, step_norm, "gradient")
    return "\n".join(rows) + "\n"


@pytest.mark.parametrize("algo", ["projgd", "fgd", "scaledgd"])
def test_run_solver_trace_matches_hand_loop_over_public_steps(algo):
    # the driver's lean path (steps from the dense point it holds, a single
    # stacked Gram eigh, dot-product norms, f-string rows) writes the bytes
    # the public steps and numpy's own norms give
    p, f, x0 = sensing_setup(4, 20.0, 17)
    cfg = SolverConfig(eta=0.4, max_iters=25, tol_rel_err=None)
    tr = run_solver(algo, f, x0, cfg, x_star=p.ground_truth)
    assert tr.final_record.iteration == 25
    assert tr.csv_text() == _hand_loop_csv(algo, f, x0, 0.4, 25, p.ground_truth)


@pytest.mark.parametrize("algo, svds", [("projgd", 1), ("fgd", 1), ("scaledgd", 1), ("precgd", 1)])
def test_one_operator_pass_pair_per_iteration(monkeypatch, algo, svds):
    # each iterate costs one apply and one adjoint (one fused value_and_grad)
    # and one SVD; the factored preconditioned solvers add one stacked
    # eigendecomposition of both Gram matrices and no solve; run set-up adds
    # a constant
    from rankmin.objectives import SensingProblem
    calls = {"apply": 0, "adjoint": 0, "svd": 0, "eigh": 0, "solve": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for name in ("apply", "adjoint"):
        monkeypatch.setattr(SensingProblem, name, counting(name, getattr(SensingProblem, name)))
    for name in ("svd", "eigh", "solve"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    p, f, x0 = sensing_setup(4, 1.0, 13)
    totals = []
    for iters in (10, 20):
        before = dict(calls)
        cfg = SolverConfig(eta=0.4, max_iters=iters, tol_rel_err=None)
        tr = run_solver(algo, f, x0, cfg, x_star=p.ground_truth)
        assert tr.final_record.iteration == iters
        totals.append({k: calls[k] - before[k] for k in calls})
    eighs = 1 if algo in ("scaledgd", "precgd") else 0
    assert totals[1]["apply"] - totals[0]["apply"] == 10
    assert totals[1]["adjoint"] - totals[0]["adjoint"] == 10
    assert totals[1]["svd"] - totals[0]["svd"] == 10 * svds
    assert totals[1]["eigh"] - totals[0]["eigh"] == 10 * eighs
    assert totals[1]["solve"] == 0


# -------------------------------------------------- the driver's lean path


class FiniteValueInfGradient:
    """Duck-typed objective whose value is always 1 and whose constant
    gradient has an inf entry, so the first step gives a non-finite iterate
    at which f is still finite."""

    symmetric_psd = False

    def value(self, x):
        return 1.0

    def gradient(self, x):
        g = np.zeros_like(x)
        g[0, 1] = np.inf
        return g


@pytest.mark.parametrize("algo", ["projgd", "fgd", "scaledgd"])
@pytest.mark.parametrize("with_x_star", [False, True])
@pytest.mark.parametrize("tol_step", [None, 1e-8])
def test_non_finite_iterate_with_finite_value_diverges(algo, with_x_star, tol_step):
    x0 = random_ground_truth(5, 2, 2.0, make_rng(214))
    x_star = random_ground_truth(5, 2, 2.0, make_rng(215)) if with_x_star else None
    cfg = SolverConfig(eta=0.1, max_iters=5, tol_rel_err=None, tol_step=tol_step)
    tr = run_solver(algo, FiniteValueInfGradient(), x0, cfg, x_star=x_star)
    assert tr.status == "diverged"
    assert tr.final_record.iteration == 1
    assert tr.final_record.f_value == 1.0


@pytest.mark.parametrize("algo", ["projgd", "fgd"])
def test_driver_checks_no_projection_input_per_iteration(monkeypatch, algo):
    # the kernel has scanned the step matrix for non-finite entries, so the
    # driver projects it without the public projection's input checks
    p, f, x0 = sensing_setup(4, 1.0, 13)
    calls = []
    check = geometry._check_projection_input
    monkeypatch.setattr(geometry, "_check_projection_input",
                        lambda z, r: calls.append(r) or check(z, r))
    for iters in (10, 20):
        cfg = SolverConfig(eta=0.4, max_iters=iters, tol_rel_err=None)
        assert run_solver(algo, f, x0, cfg, x_star=p.ground_truth).final_record.iteration == iters
    assert calls == []
    projgd_step(x0, f, 0.4)
    fgd_step(x0, f, 0.4)
    assert len(calls) == 2


def test_public_steps_reject_non_finite_input():
    x0 = random_ground_truth(5, 2, 2.0, make_rng(216))
    z = x0.dense()
    z[2, 3] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        project_rank_r(z, 2)
    nan_grad = LinearPull(np.full((5, 5), np.nan), 1.0)
    for step in (projgd_step, fgd_step):
        with pytest.raises(ValueError, match="non-finite"):
            step(x0, nan_grad, 0.1)


def test_csv_text_matches_field_by_field_formatting():
    values = (float("nan"), float("inf"), -float("inf"), -0.0, 1e-300, 0.1, 5e-324)
    records = [TraceRecord(i, v, -v, v, v * 2, v / 3, "gradient") for i, v in enumerate(values)]
    lines = [",".join(CSV_COLUMNS)] + [
        f"{rec.iteration},{float(rec.f_value)!r},{float(rec.f_gap)!r},{float(rec.rel_err)!r},"
        f"{float(rec.step_norm)!r},{float(rec.sigma_r)!r},{rec.branch}" for rec in records]
    assert SolverTrace("projgd", records).csv_text() == "\n".join(lines) + "\n"


def test_trace_record_fields_reject_assignment():
    rec = TraceRecord(0, 1.0, 0.5, 0.25, float("nan"), 1.0, "init")
    with pytest.raises(AttributeError):
        rec.f_value = 2.0
    assert rec == (0, 1.0, 0.5, 0.25, rec.step_norm, 1.0, "init")


@pytest.mark.parametrize("field, value", [
    ("epsilon", float("nan")), ("epsilon", float("inf")), ("epsilon_t", float("nan")),
    ("eta_t", float("nan")), ("perturb_radius", float("inf")),
    ("max_tangent_iters", float("nan")),
])
def test_pprojgd_params_reject_non_finite_values(field, value):
    # nan <= 0 is False, so a plain positivity check lets nan through
    params = PprojgdParams(**{"max_tangent_iters": 5, field: value})
    with pytest.raises(ValueError, match=f"^{field} must be positive and finite"):
        params.resolve(0.4)
    x0 = random_ground_truth(5, 2, 2.0, make_rng(217))
    cfg = SolverConfig(eta=0.4, max_iters=3, pprojgd=params)
    with pytest.raises(ValueError, match=field):
        pprojgd(quadratic_objective(x0), x0, cfg)


# -------------------------------------------------- pprojgd branches


def test_pprojgd_tangent_branch_at_optimum_keeps_value():
    rng = make_rng(207)
    x_star = random_ground_truth(8, 3, 2.0, rng)   # sigma_r = 0.5 > 2 eps_t
    f = quadratic_objective(x_star)
    cfg = SolverConfig(eta=0.4, max_iters=1, tol_rel_err=None)
    x_end, tr = pprojgd(f, x_star, cfg, rng=make_rng(1, stream=5), x_star=x_star)
    assert tr.records[1].branch == "tangent-escape"
    eps = cfg.pprojgd.resolve(cfg.eta).epsilon
    assert f.value(x_end.dense()) - f.value(x_star.dense()) <= eps


def test_pprojgd_immediate_second_order_stop():
    rng = make_rng(208)
    params = PprojgdParams()
    # sigma_r below the 2*eps_t = 0.02 threshold and a tiny gradient
    xs = FactoredMatrix(haar_frame(rng, 8, 3), np.array([1.0, 0.5, 0.005]),
                        haar_frame(rng, 8, 3), validate=False)
    f = quadratic_objective(xs)
    cfg = SolverConfig(eta=1.0 / 3.0, max_iters=50, tol_rel_err=None, pprojgd=params)
    x_end, tr = pprojgd(f, xs, cfg, rng=make_rng(2, stream=5), x_star=xs)
    assert tr.status == "second-order-stop"
    assert tr.records[-1].branch == "terminate"
    r = params.resolve(cfg.eta)
    bound = (8.0 / 3.0) * (r.epsilon + r.epsilon_t / cfg.eta) + 1e-8
    assert np.linalg.norm(f.gradient(x_end.dense()), 2) <= bound


def test_run_solver_pprojgd_matches_pprojgd():
    rng = make_rng(208)
    xs = FactoredMatrix(haar_frame(rng, 8, 3), np.array([1.0, 0.5, 0.005]),
                        haar_frame(rng, 8, 3), validate=False)
    f = quadratic_objective(xs)
    x0 = project_rank_r(xs.dense() + 1e-2 * rng.standard_normal((8, 8)), 3)
    cfg = SolverConfig(eta=1.0 / 3.0, max_iters=50, tol_rel_err=None)
    _, tr = pprojgd(f, x0, cfg, rng=make_rng(2, stream=5), x_star=xs)
    assert {"gradient", "terminate"} <= {rec.branch for rec in tr.records}
    via_driver = run_solver("pprojgd", f, x0, cfg, x_star=xs, rng=make_rng(2, stream=5))
    assert via_driver.csv_text() == tr.csv_text()


def test_pprojgd_escapes_swap_saddle():
    from rankmin.diagnostics import swapped_direction_saddle
    eye = np.eye(8)
    target = FactoredMatrix(eye[:, :4], np.array([1.0, 0.9, 0.6, 0.3]),
                            eye[:, :4], validate=False)
    f = quadratic_objective(target)
    saddle = swapped_direction_saddle(target, 3)
    f_saddle = f.value(saddle.dense())
    cfg = SolverConfig(eta=1.0 / 3.0, max_iters=6, tol_rel_err=None)
    for seed in (0, 1):
        x_end, tr = pprojgd(f, saddle, cfg, rng=make_rng(300 + seed, stream=2))
        assert float(np.min(tr.column("f_value"))) < f_saddle - 1e-6


def test_pprojgd_gradient_branch_on_plain_descent():
    rng = make_rng(209)
    x_star = random_ground_truth(8, 3, 2.0, rng)
    f = quadratic_objective(x_star)
    x0 = random_ground_truth(8, 3, 1.5, rng)
    cfg = SolverConfig(eta=0.4, max_iters=30, tol_rel_err=None)
    _, tr = pprojgd(f, x0, cfg, rng=make_rng(3, stream=5), x_star=x_star)
    assert tr.records[1].branch == "gradient"


def test_pprojgd_psd_survives_tangent_escapes():
    # at a PSD ground truth every projected step is tiny, so each iteration
    # escapes; the symmetrized perturbation keeps the escaped point symmetric
    # for the next PSD projection
    problem, f, _ = sensing_setup(3, 2.0, 3, n=8, r=3, psd=True)
    x_star = problem.ground_truth
    cfg = SolverConfig(eta=0.3, max_iters=6, tol_rel_err=None,
                       pprojgd=PprojgdParams(max_tangent_iters=20))
    x_end, tr = pprojgd(f, x_star, cfg, rng=make_rng(6, stream=5), x_star=x_star)
    assert tr.status == "max-iters"
    assert sum(rec.branch == "tangent-escape" for rec in tr.records) >= 1
    xd = x_end.dense()
    assert np.linalg.norm(xd - xd.T) <= 1e-12 * np.linalg.norm(xd)


# -------------------------------------------------- tangent_space_steps


def test_tangent_steps_pure_perturbation_when_flat():
    rng = make_rng(210)
    x = random_ground_truth(7, 3, 2.0, rng)
    radius, eta_t, eps_t = 1e-4, 0.01, 0.01
    y = tangent_space_steps(x, ZeroGradient(), radius, eta_t, eps_t, 5, make_rng(4, stream=6))
    moved = project_tangent(y.dense() - x.dense(), x)
    assert abs(moved.norm() - eta_t * radius) < 1e-9


def test_tangent_steps_boundary_exit_is_exact():
    rng = make_rng(211)
    x = random_ground_truth(7, 3, 2.0, rng)
    d = rng.standard_normal((7, 7))
    f = LinearPull(d, 50.0)
    eps_t = 0.01
    y = tangent_space_steps(x, f, 1e-4, 0.01, eps_t, 100, make_rng(5, stream=6))
    moved = project_tangent(y.dense() - x.dense(), x)
    assert abs(moved.norm() - eps_t) < 1e-10


def _count_pullback_calls(monkeypatch):
    import rankmin.solvers as solvers
    calls = []
    real = solvers.pullback_value_grad

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(solvers, "pullback_value_grad", counting)
    return calls


def test_tangent_steps_one_pullback_call_per_inner_step(monkeypatch):
    # span tracers count inner steps by these calls
    calls = _count_pullback_calls(monkeypatch)
    rng = make_rng(213)
    x = random_ground_truth(7, 3, 2.0, rng)
    # budget exhausted: on a flat objective no step leaves the ball
    tangent_space_steps(x, ZeroGradient(), 1e-4, 0.01, 0.01, 7, make_rng(6, stream=6))
    assert len(calls) == 7
    # boundary exit: a constant pull along a tangent direction with no core
    # block (so W = Sigma throughout), from a negligible start; each step
    # moves 0.01, steps 1-4 stay inside eps_t = 0.045 and step 5 leaves
    calls.clear()
    g = TangentVector(np.zeros((3, 3)), rng.standard_normal((4, 3)), rng.standard_normal((3, 4)), x)
    f = LinearPull(g.dense(), 1.0 / g.norm())
    y = tangent_space_steps(x, f, 1e-9, 0.01, 0.045, 100, make_rng(7, stream=6))
    assert len(calls) == 5
    assert abs(project_tangent(y.dense() - x.dense(), x).norm() - 0.045) < 1e-10


@pytest.mark.parametrize("psd, frames", [(False, 2), (True, 1)])
def test_escape_completes_each_frame_once(monkeypatch, psd, frames):
    # the full frames are cached on the base point: one complete QR per
    # frame over the whole escape, one in all when u is v (PSD)
    _, f, x = sensing_setup(3, 2.0, 3, n=8, r=3, psd=psd)
    real = np.linalg.qr
    qr_calls = []
    monkeypatch.setattr(np.linalg, "qr", lambda *a, **k: qr_calls.append(1) or real(*a, **k))
    calls = _count_pullback_calls(monkeypatch)
    tangent_space_steps(x, f, 1e-3, 0.01, 1e3, 50, make_rng(8, stream=6))
    assert len(calls) == 50
    assert len(qr_calls) == frames


def test_boundary_root_find_matches_bisection():
    rng = make_rng(212)
    x = random_ground_truth(6, 2, 2.0, rng)
    eps_t = 0.3
    for _ in range(20):
        s = TangentVector.from_coords(rng.standard_normal(tangent_dim(x)), x)
        s = (0.8 * eps_t / s.norm()) * s
        g = TangentVector.from_coords(rng.standard_normal(tangent_dim(x)), x)
        g = (-4.0 * eps_t / g.norm()) * g      # strong outward pull
        eta_exact = _boundary_step_length(s, g, eps_t)
        phi = lambda t: (s + (-t) * g).norm() - eps_t
        assert phi(0.0) < 0
        lo, hi = 0.0, 1.0
        while phi(hi) < 0:
            hi *= 2
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if phi(mid) < 0:
                lo = mid
            else:
                hi = mid
        assert abs(eta_exact - 0.5 * (lo + hi)) < 1e-12
        assert abs((s + (-eta_exact) * g).norm() - eps_t) < 1e-12
