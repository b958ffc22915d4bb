"""Checker and certificate tests.  The lemma checkers are exercised both on
honest inputs (they must pass) and under a deliberately broken bound (they
must fail), so the checkers themselves are load-bearing."""

import numpy as np
import pytest

import rankmin.diagnostics as diagnostics
from rankmin.diagnostics import (
    BudgetExceededError,
    certify_second_order,
    check_descent_lemma,
    check_projection_lemma,
    classify_certificate,
    estimate_linear_rate,
    landscape_probe,
    swapped_direction_saddle,
)
from rankmin.geometry import FactoredMatrix, project_rank_r, project_tangent
from rankmin.geometry import project_psd_rank_r
from rankmin.objectives import (
    generate_sensing,
    haar_frame,
    make_rng,
    quadratic_objective,
    random_ground_truth,
    sensing_objective,
)
from rankmin.solvers import SolverConfig, SolverTrace, TraceRecord, projgd_step, run_solver


def trace_from_gaps(gaps):
    recs = [TraceRecord(i, float(g), float(g), float(g), 0.0, 1.0, "gradient")
            for i, g in enumerate(gaps)]
    return SolverTrace(algorithm="synthetic", records=recs)


def identity_frame_target(n, sigmas):
    eye = np.eye(n)
    k = len(sigmas)
    return FactoredMatrix(eye[:, :k], np.asarray(sigmas, dtype=float), eye[:, :k],
                          validate=False)


# -------------------------------------------------- certificates


def test_certificate_minimizer_at_optimum():
    x_star = random_ground_truth(8, 3, 2.0, make_rng(4))
    f = quadratic_objective(x_star)
    cert = certify_second_order(x_star, f, eps=1e-6, gamma=0.0)
    assert cert.classification == "second-order-minimizer"
    assert cert.grad_norm <= 1e-10
    assert cert.min_eig >= -cert.eig_tol
    assert cert.sigma_r == pytest.approx(0.5, abs=1e-12)


def test_certificate_flags_swap_saddle():
    target = identity_frame_target(8, [1.0, 0.9, 0.6, 0.3])
    f = quadratic_objective(target)
    saddle = swapped_direction_saddle(target, 3)
    cert = certify_second_order(saddle, f, eps=1e-6, gamma=0.0)
    assert cert.classification == "saddle"
    # dropped-mode curvature: 1 - sigma_drop / sigma_r = 1 - 0.6/0.3
    assert cert.min_eig == pytest.approx(-1.0, abs=1e-4)
    assert cert.grad_norm <= 1e-10


def test_swap_saddle_is_projgd_fixed_point():
    target = identity_frame_target(8, [1.0, 0.9, 0.6, 0.3])
    f = quadratic_objective(target)
    saddle = swapped_direction_saddle(target, 3)
    y = projgd_step(saddle, f, 1.0 / 3.0, rank=3)
    assert np.linalg.norm(y.dense() - saddle.dense()) < 1e-12


def test_swap_saddle_needs_extra_mode():
    target = random_ground_truth(6, 2, 2.0, make_rng(5))
    with pytest.raises(ValueError):
        swapped_direction_saddle(target, 2)


def test_certificate_rank_deficient_is_indeterminate():
    x = random_ground_truth(6, 1, 1.0, make_rng(6))
    f = quadratic_objective(x)
    # no threshold, however loose, certifies a point below the rank
    for tol in (1e-6, 1e6):
        cert = certify_second_order(x, f, eps=tol, gamma=tol, rank=2)
        assert np.isnan(cert.grad_norm) and np.isnan(cert.min_eig)
        assert cert.classification == "indeterminate"


def test_certificate_of_the_zero_matrix_is_indeterminate():
    # search rank 0: no tangent space to measure, so nothing is certified
    f = quadratic_objective(random_ground_truth(4, 2, 2.0, make_rng(16)))
    cert = certify_second_order(FactoredMatrix.zero(4, 4), f, 1e-6, 0.0)
    assert cert.classification == "indeterminate"
    assert np.isnan(cert.grad_norm) and np.isnan(cert.min_eig) and cert.sigma_r == 0.0
    assert cert.ambient_grad_norm == pytest.approx(1.0)


def test_classify_certificate_rule_table():
    kw = dict(eps=1e-4, gamma=0.0, eig_tol=1e-7)
    assert classify_certificate(1e-5, 0.3, **kw) == "second-order-minimizer"
    assert classify_certificate(1e-5, -0.3, **kw) == "saddle"
    assert classify_certificate(float("nan"), float("nan"), **kw) == "indeterminate"
    # large gradient but clean curvature: nothing to certify
    assert classify_certificate(1.0, 0.3, **kw) == "indeterminate"


def test_near_optimal_certificates_imply_distance_bound():
    # (eps, 1/2)-second-order points of the unit quadratic sit within 2 eps
    # of the rank-r optimum
    rng = make_rng(7)
    target = random_ground_truth(8, 3, 2.0, rng)
    f = quadratic_objective(target)
    eps = 1e-3
    held = 0
    for k in range(100):
        delta = (2e-5, 5e-5, 1e-4, 2e-4)[k % 4]
        x = project_rank_r(target.dense() + delta * rng.standard_normal((8, 8)), 3)
        cert = certify_second_order(x, f, eps=eps, gamma=0.5)
        if cert.grad_norm <= eps and cert.min_eig >= -0.5:
            held += 1
            assert np.linalg.norm(x.dense() - target.dense()) <= 2.0 * eps + 1e-8
    assert held >= 50


# -------------------------------------------------- descent lemma


def quadratic_run(eta, max_iters=300):
    rng = make_rng(8)
    x_star = random_ground_truth(8, 3, 2.0, rng)
    f = quadratic_objective(x_star)
    x0 = random_ground_truth(8, 3, 4.0, rng)
    cfg = SolverConfig(eta=eta, max_iters=max_iters, tol_rel_err=None)
    return f, run_solver("projgd", f, x0, cfg, x_star=x_star)


def test_descent_lemma_holds_for_small_steps():
    _, tr = quadratic_run(0.3)
    rep = check_descent_lemma(tr, 1.0, 0.3)
    assert rep.applicable and rep.passed
    assert rep.steps_checked >= 100
    assert rep.violations == 0


def test_descent_lemma_large_step_not_applicable():
    _, tr = quadratic_run(0.3)
    rep = check_descent_lemma(tr, 1.0, 1.5)
    assert not rep.applicable
    assert "1/L" in rep.reason


def test_descent_lemma_from_trace_matches_dense_iterates():
    # oracle: margins from dense iterates and fresh f values; n = 25 is
    # past the size at which a run stored only every tenth iterate
    rng = make_rng(9)
    x_star = random_ground_truth(25, 3, 2.0, rng)
    f = quadratic_objective(x_star)
    x0 = random_ground_truth(25, 3, 4.0, rng)
    eta, l_const, iters = 0.3, 1.0, 60
    cfg = SolverConfig(eta=eta, max_iters=iters, tol_rel_err=None)
    rep = check_descent_lemma(run_solver("projgd", f, x0, cfg, x_star=x_star), l_const, eta)
    coeff = 0.5 * (1.0 / eta - l_const)
    x, margins = x0, []
    for _ in range(iters):
        y = projgd_step(x, f, eta, rank=3)
        xa, xb = x.dense(), y.dense()
        margins.append(float(f.value(xa)) - float(f.value(xb))
                       - coeff * float(np.sum((xa - xb) ** 2)))
        x = y
    assert rep.applicable and rep.violations == 0
    assert rep.steps_checked == len(margins)
    assert abs(rep.worst_margin - min(margins)) <= 1e-12 * abs(min(margins))


def test_descent_lemma_checks_gradient_rows_only():
    # an escape that raises f and a terminate row with a large rejected
    # step would both violate the bound; neither is a projected step
    rows = [(0, 1.0, float("nan"), "init"), (1, 0.5, 0.1, "gradient"),
            (2, 0.9, 1.0, "tangent-escape"), (3, 0.9, 1.0, "terminate")]
    tr = SolverTrace("pprojgd", [TraceRecord(i, fv, 0.0, 0.0, step, 1.0, branch)
                                 for i, fv, step, branch in rows])
    rep = check_descent_lemma(tr, 1.0, 0.5)
    assert rep.passed and rep.steps_checked == 1
    assert rep.worst_margin == 0.5 - 0.5 * (2.0 - 1.0) * 0.1 ** 2
    no_steps = check_descent_lemma(SolverTrace("pprojgd", tr.records[:1]), 1.0, 0.5)
    assert not no_steps.applicable
    # a gradient row that raises f is a violation
    rising = tr.records + [TraceRecord(4, 1.5, 0.0, 0.0, 0.1, 1.0, "gradient")]
    bad = check_descent_lemma(SolverTrace("pprojgd", rising), 1.0, 0.5)
    assert bad.applicable and not bad.passed
    assert bad.steps_checked == 2 and bad.violations == 1
    assert bad.worst_margin == (0.9 - 1.5) - 0.5 * (2.0 - 1.0) * 0.1 ** 2


# -------------------------------------------------- projection lemma


def test_projection_lemma_sampler_passes():
    rep = check_projection_lemma(samples=1500)
    assert rep.passed
    assert rep.samples == 1500
    assert rep.min_contraction_ratio >= diagnostics.PROJECTION_RATIO_BOUND - 1e-9
    assert rep.min_spectral_margin >= -1e-9


def test_projection_of_small_tangent_moves_nearly_fully():
    rng = make_rng(10)
    for _ in range(20):
        x = random_ground_truth(8, 3, 3.0, rng)
        z = project_tangent(rng.standard_normal((8, 8)), x).dense()
        z *= 1e-3 * x.sigma_min() / np.linalg.norm(z)
        moved = project_rank_r(x.dense() + z, 3).dense() - x.dense()
        ratio = np.linalg.norm(moved) / np.linalg.norm(z)
        assert ratio >= 0.99


def test_projection_spectral_lower_bound_direct():
    rng = make_rng(11)
    for _ in range(20):
        x = random_ground_truth(8, 3, 3.0, rng)
        z = x.u_perp @ rng.standard_normal((5, 5)) @ x.v_perp.T
        z *= 5.0 / np.linalg.norm(z, 2)
        moved = project_rank_r(x.dense() + z, 3).dense() - x.dense()
        assert np.linalg.norm(moved) >= 0.5 * (np.linalg.norm(z, 2) - x.sigma_min()) - 1e-9


def test_projection_lemma_mutation_is_caught(monkeypatch):
    # the checker reads the bound at call time: a corrupted constant must
    # fail both the direct check and the verification criterion built on it
    monkeypatch.setattr(diagnostics, "PROJECTION_RATIO_BOUND", 0.9)
    rep = check_projection_lemma(samples=800)
    assert not rep.passed
    from rankmin.verify import criterion_lemma_suites
    assert not criterion_lemma_suites("quick").passed


def test_stop_bound_mutation_is_caught(monkeypatch):
    # the lemma suites read the ambient stationarity factor at call time too
    monkeypatch.setattr(diagnostics, "AMBIENT_STATIONARITY_FACTOR", 1e-3)
    from rankmin.verify import criterion_lemma_suites
    result = criterion_lemma_suites("quick")
    assert not result.passed
    assert result.details["stop_worst_grad"] > result.details["stop_bound"]


# -------------------------------------------------- rate estimation


def test_rate_exact_geometric_sequence():
    tr = trace_from_gaps(0.9 ** np.arange(301))
    assert estimate_linear_rate(tr, window=50) == pytest.approx(0.9, abs=1e-12)


def test_rate_stagnant_is_one():
    tr = trace_from_gaps(np.full(200, 0.5))
    assert estimate_linear_rate(tr, window=50) == 1.0


def test_rate_scale_invariant():
    gaps = 0.83 ** np.arange(150)
    a = estimate_linear_rate(trace_from_gaps(gaps), window=40)
    b = estimate_linear_rate(trace_from_gaps(1e6 * gaps), window=40)
    assert a == pytest.approx(b, abs=1e-12)


def test_rate_ignores_dead_prefix():
    gaps = np.concatenate([np.zeros(10), 0.9 ** np.arange(100)])
    assert estimate_linear_rate(trace_from_gaps(gaps), window=30) == pytest.approx(0.9, abs=1e-12)


def test_rate_needs_positive_tail():
    with pytest.raises(ValueError):
        estimate_linear_rate(trace_from_gaps(np.zeros(50)))
    with pytest.raises(ValueError):
        estimate_linear_rate(trace_from_gaps(np.array([1.0])))


# -------------------------------------------------- landscape probe


def test_probe_finds_truncated_target():
    rng = make_rng(12)
    target = random_ground_truth(3, 3, 3.0, rng)
    f = quadratic_objective(target)
    points = landscape_probe(f, 3, 1, seed=0, starts=30, iters=2000, eps=1e-6, gamma=0.0)
    s = np.linalg.svd(target.dense(), compute_uv=False)
    best = points[0]
    assert best.f_value == pytest.approx(0.5 * float(np.sum(s[1:] ** 2)), abs=1e-8)
    assert best.certificate.classification == "second-order-minimizer"
    assert sum(p.cluster_size for p in points) == 30
    assert all(a.f_value <= b.f_value for a, b in zip(points, points[1:]))


def test_probe_exact_rank_reaches_zero_loss():
    target = random_ground_truth(3, 1, 1.0, make_rng(13))
    f = quadratic_objective(target)
    points = landscape_probe(f, 3, 1, seed=1, starts=12, iters=2000, eps=1e-6, gamma=0.0)
    assert points[0].f_value <= 1e-12
    td = target.dense()
    assert np.linalg.norm(points[0].x.dense() - td) / np.linalg.norm(td) <= 1e-5


def _hand_probe(f, n, r, seed, starts, iters, tol=1e-12):
    """The census of landscape_probe with both runs written out as loops
    over projgd_step, numpy's norms and separate value calls: (point,
    f value, cluster size, label) sorted by f value."""
    eta = 0.25
    rng = make_rng(seed, stream=13)
    psd = f.symmetric_psd
    terminals = []
    for i in range(starts):
        raw = rng.standard_normal((n, n)) * (0.1, 1.0, 10.0)[i % 3]
        x = project_psd_rank_r(raw @ raw.T / n, r) if psd else project_rank_r(raw, r)
        if x.rank == 0:
            continue
        for _ in range(iters):
            x_new = projgd_step(x, f, eta, rank=r)
            step = float(np.linalg.norm(x_new.dense() - x.dense()))
            x = x_new
            if step <= tol * max(1.0, x.frobenius_norm()):
                break
        terminals.append(x)
    radius = 10.0 * np.sqrt(tol)
    clusters = []
    for x in terminals:
        fx = float(f.value(x.dense()))
        for idx, (rep, frep, count) in enumerate(clusters):
            if np.linalg.norm(rep.dense() - x.dense()) <= radius * max(1.0, rep.frobenius_norm()):
                clusters[idx] = (x, fx, count + 1) if fx < frep else (rep, frep, count + 1)
                break
        else:
            clusters.append((x, fx, 1))
    out = []
    for rep, _, count in clusters:
        x = rep
        for _ in range(500):
            x_new = projgd_step(x, f, eta / 4.0, rank=r)
            step = float(np.linalg.norm(x_new.dense() - x.dense()))
            x = x_new
            if step <= 0.1 * tol * max(1.0, x.frobenius_norm()):
                break
        cert = certify_second_order(x, f, eps=1e-6, gamma=0.0, rank=r)
        out.append((x, float(f.value(x.dense())), count, cert.classification))
    out.sort(key=lambda p: p[1])
    return out


@pytest.mark.parametrize("instance", ["quadratic r* > r", "psd sensing", "quadratic r* = r"])
def test_probe_matches_hand_loops(instance):
    # the driver-run census gives the terminal points, f values, clusters
    # and labels of projected descent written out step by step
    n, r, seed = 4, 2, 31
    if instance == "psd sensing":
        p = generate_sensing(n=n, r=r, r_star=2, kappa=2.0, m=n * r, seed=seed,
                             symmetric_psd=True)
        f = sensing_objective(p)
    else:
        r_star = 3 if instance == "quadratic r* > r" else 2
        f = quadratic_objective(random_ground_truth(n, r_star, 3.0, make_rng(seed)))
    points = landscape_probe(f, n, r, seed=seed, starts=12, iters=1500, eps=1e-6, gamma=0.0)
    expected = _hand_probe(f, n, r, seed, starts=12, iters=1500)
    assert len(points) == len(expected)
    for pt, (x, fx, count, label) in zip(points, expected):
        for a, b in ((pt.x.u, x.u), (pt.x.sigma, x.sigma), (pt.x.v, x.v)):
            assert a.tobytes() == b.tobytes()
        assert pt.f_value == fx
        assert pt.cluster_size == count
        assert pt.certificate.classification == label


def test_probe_size_limits():
    f = quadratic_objective(random_ground_truth(5, 2, 1.0, make_rng(14)))
    census = dict(seed=0, starts=64, iters=3000, eps=1e-6, gamma=0.0)
    with pytest.raises(ValueError):
        landscape_probe(f, 5, 2, **census)
    with pytest.raises(ValueError):
        landscape_probe(f, 4, 3, **census)


def test_probe_budget_guard():
    # raised from the plan, before any run: 2900 x (3000 + 506) > 10^7
    f = quadratic_objective(random_ground_truth(3, 1, 1.0, make_rng(15)))
    with pytest.raises(BudgetExceededError):
        landscape_probe(f, 3, 1, seed=0, starts=2900, iters=3000, eps=1e-6, gamma=0.0)
    with pytest.raises(BudgetExceededError):
        landscape_probe(f, 3, 1, seed=0, starts=1, iters=diagnostics.MAX_PROBE_EVALUATIONS,
                        eps=1e-6, gamma=0.0)
