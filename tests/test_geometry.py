"""Kernel tests: rank projection, corner blocks, tangent space, retraction,
pullback derivatives.  Oracles (random-candidate search, independent
eigendecomposition, finite differences) come before anything that leans on
the implementation's own formulas."""

import inspect
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rankmin.geometry as geometry
import rankmin.solvers as solvers
import rankmin.verify as verify
from rankmin.geometry import (
    RETRACTION_CORE_FLOOR,
    SINGULAR_VALUE_DROP,
    FactoredMatrix,
    RankProjectionError,
    RetractionUndefinedError,
    TangentVector,
    _Pullback,
    project_psd_rank_r,
    project_rank_r,
    project_tangent,
    pullback_hessian,
    pullback_hessian_min_eig,
    pullback_value_grad,
    retract,
    tangent_dim,
)
from rankmin.objectives import (
    Objective,
    QuadraticObjective,
    haar_frame,
    make_rng,
    quadratic_objective,
    random_ground_truth,
)


def random_base(rng, n, r, sigma_min=0.1, n2=None):
    sig = np.sort(rng.uniform(sigma_min, 1.0, r))[::-1]
    sig[0] = 1.0
    return FactoredMatrix(haar_frame(rng, n, r), sig, haar_frame(rng, n if n2 is None else n2, r),
                          validate=False)


def tangent_from_blocks(base, core, left, right):
    """The tangent vector at base with the given blocks, through the
    coordinate order core, left, right, each row by row."""
    x = np.concatenate([np.ravel(core), np.ravel(left), np.ravel(right)])
    return TangentVector.from_coords(x, base)


def zero_tangent(base):
    return TangentVector.from_coords(np.zeros(tangent_dim(base)), base)


SHAPES = ((7, 7, 3), (6, 9, 2), (9, 5, 4))


# -------------------------------------------------- oracles


def test_truncation_beats_random_candidates():
    # Eckart-Young via random search: no rank-3 candidate of comparable
    # scale gets closer to z than the truncated SVD
    rng = make_rng(100)
    for _ in range(25):
        z = rng.standard_normal((6, 6))
        best = np.linalg.norm(z - project_rank_r(z, 3).dense())
        for _ in range(200):
            w = rng.standard_normal((6, 3)) @ rng.standard_normal((3, 6))
            w *= rng.uniform(0.2, 2.0) * np.linalg.norm(z) / np.linalg.norm(w)
            assert best <= np.linalg.norm(z - w) + 1e-12


def test_psd_projection_matches_eig_oracle():
    rng = make_rng(101)
    for _ in range(50):
        a = rng.standard_normal((5, 5))
        z = 0.5 * (a + a.T)
        got = project_psd_rank_r(z, 2).dense()
        # independent construction: full eigendecomposition, clip, keep top 2
        w, q = np.linalg.eigh(z)
        order = np.argsort(w)[::-1][:2]
        ref = sum(max(w[i], 0.0) * np.outer(q[:, i], q[:, i]) for i in order)
        assert np.linalg.norm(got - ref) < 1e-12


def test_pullback_gradient_matches_central_differences():
    rng = make_rng(102)
    n, r = 7, 2
    base = random_base(rng, n, r)
    f = quadratic_objective(random_ground_truth(n, 4, 3.0, rng))
    x = 0.02 * rng.standard_normal(tangent_dim(base))
    _, grad = pullback_value_grad(f, base, TangentVector.from_coords(x, base))
    h = 1e-5
    for _ in range(20):
        d = rng.standard_normal(tangent_dim(base))
        d /= np.linalg.norm(d)
        num = (pullback_value_grad(f, base, TangentVector.from_coords(x + h * d, base))[0]
               - pullback_value_grad(f, base, TangentVector.from_coords(x - h * d, base))[0]) / (2 * h)
        ana = grad.coords() @ d
        assert abs(num - ana) / max(abs(num), 1e-12) < 1e-5


# -------------------------------------------------- FactoredMatrix


def test_factored_matrix_rejects_bad_frames():
    rng = make_rng(103)
    u = rng.standard_normal((5, 2))     # not orthonormal
    v = haar_frame(rng, 5, 2)
    with pytest.raises(ValueError):
        FactoredMatrix(u, np.array([1.0, 0.5]), v)
    with pytest.raises(ValueError):
        FactoredMatrix(v, np.array([0.5, 1.0]), v)    # increasing sigma
    with pytest.raises(ValueError):
        FactoredMatrix(v, np.array([1.0, -0.1]), v)   # negative sigma


_A = random_base(make_rng(130), 5, 2)
_B = random_base(make_rng(131), 5, 2)


@pytest.mark.parametrize("call, message", [
    (lambda: FactoredMatrix(_A.u[:, 0], _A.sigma, _A.v), "u, v must be 2-d and sigma 1-d"),
    (lambda: FactoredMatrix(_A.u, _A.sigma[:1], _A.v), "frame widths must match len(sigma)"),
    (lambda: FactoredMatrix(_A.u, np.array([1.0, np.nan]), _A.v), "non-finite entries in factors"),
    (lambda: project_rank_r(np.ones(4), 1), "projection input must be a matrix"),
    (lambda: project_psd_rank_r(np.ones((3, 4)), 1), "PSD projection needs a square matrix"),
    (lambda: TangentVector.from_coords(np.zeros(tangent_dim(_A) + 1), _A),
     "coordinate vector has wrong length"),
    (lambda: pullback_value_grad(quadratic_objective(_A), _B, zero_tangent(_A)),
     "tangent vector does not live at this base point"),
], ids=("vector_frame", "frame_width", "nonfinite_sigma", "vector_projection",
        "nonsquare_psd_projection", "coordinate_length", "foreign_pullback"))
def test_geometry_rejects_misfit_input(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_factored_matrix_dense_roundtrip():
    rng = make_rng(104)
    x = random_base(rng, 6, 3)
    back = project_rank_r(x.dense(), 3)
    assert np.linalg.norm(back.dense() - x.dense()) <= 1e-12 * x.sigma[0]
    assert np.allclose(np.sort(back.sigma), np.sort(x.sigma), atol=1e-12)


# -------------------------------------------------- project_rank_r


def test_projection_idempotent_on_rank_r():
    rng = make_rng(105)
    x = random_base(rng, 8, 3)
    p = project_rank_r(x.dense(), 3)
    assert np.linalg.norm(p.dense() - x.dense()) < 1e-12
    pp = project_rank_r(p.dense(), 3)
    assert np.linalg.norm(pp.dense() - p.dense()) < 1e-12


def test_projection_diagonal_example():
    p = project_rank_r(np.diag([3.0, 2.0, 1.0, 0.5]), 2)
    assert np.allclose(p.sigma, [3.0, 2.0])
    assert np.allclose(p.dense(), np.diag([3.0, 2.0, 0.0, 0.0]), atol=1e-14)


def test_projection_keeps_k_below_r_for_deficient_input():
    rng = make_rng(106)
    a = rng.standard_normal((6, 2))
    z = a @ a.T     # rank 2
    p = project_rank_r(z, 4)
    assert p.rank == 2
    assert np.linalg.norm(p.dense() - z) < 1e-12 * np.linalg.norm(z)


@pytest.mark.parametrize("psd", [False, True])
def test_projection_factors_reject_writes(psd):
    # the projections hand out their fresh SVD/eigh factors without copying
    # them; the arrays must still be read-only
    rng = make_rng(31)
    z = rng.standard_normal((6, 6))
    x = project_psd_rank_r(z + z.T, 3) if psd else project_rank_r(z, 3)
    for name in ("u", "sigma", "v"):
        arr = getattr(x, name)
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_projection_rejects_nonfinite():
    z = np.zeros((4, 4))
    z[1, 2] = np.nan
    with pytest.raises(ValueError):
        project_rank_r(z, 2)
    z[1, 2] = np.inf
    with pytest.raises(ValueError):
        project_rank_r(z, 2)


def test_projection_rejects_bad_rank():
    with pytest.raises(ValueError):
        project_rank_r(np.eye(3), 0)
    with pytest.raises(ValueError):
        project_rank_r(np.eye(3), 4)


# -------------------------------------------------- project_psd_rank_r


def test_psd_clip_example():
    p = project_psd_rank_r(np.diag([2.0, 1.0, -5.0]), 2)
    assert np.allclose(p.dense(), np.diag([2.0, 1.0, 0.0]), atol=1e-14)
    assert np.array_equal(p.u, p.v)
    # no positive eigenvalue: the empty factorization
    p = project_psd_rank_r(-np.eye(4), 2)
    assert p.rank == 0 and p.u.shape == (4, 0) and not p.dense().any()


def test_psd_idempotent_on_feasible():
    rng = make_rng(107)
    q = haar_frame(rng, 6, 2)
    z = q @ np.diag([2.0, 0.7]) @ q.T
    p = project_psd_rank_r(z, 3)
    assert np.linalg.norm(p.dense() - z) < 1e-12


def test_psd_rejects_asymmetric():
    z = np.eye(4)
    z[0, 1] = 1e-3
    with pytest.raises(ValueError):
        project_psd_rank_r(z, 2)


@pytest.mark.parametrize("r", [1, 2])
def test_projections_name_an_overflow(r):
    # finite entries, but sigma_1 and the symmetrization z + z^T overflow to
    # inf: one-line errors, not the rank-0 point or a convergence failure
    z = np.array([[1.7e308, 1.7e308], [1.7e308, 1.0]])
    with pytest.raises(RankProjectionError,
                       match=r"^SVD overflows: sigma_1 = inf \(input max magnitude 1\.700e\+308\)$"):
        project_rank_r(z, r)
    with pytest.raises(RankProjectionError,
                       match=r"^symmetrization overflows \(input max magnitude 1\.700e\+308\)$"):
        project_psd_rank_r(z, r)


# -------------------------------------------------- corner blocks


def outer_block(z, base):
    """U_perp^T z V_perp, the block that the tangent projection drops."""
    return base.u_perp.T @ z @ base.v_perp


def test_corner_blocks_of_in_span_matrix():
    rng = make_rng(108)
    base = random_base(rng, 7, 3)
    m = rng.standard_normal((3, 3))
    z = base.u @ m @ base.v.T
    t = project_tangent(z, base)
    assert np.linalg.norm(t.left) < 1e-12
    assert np.linalg.norm(t.right) < 1e-12
    assert np.linalg.norm(outer_block(z, base)) < 1e-12
    assert np.linalg.norm(t.core - m) < 1e-12


def test_corner_blocks_of_base_itself():
    rng = make_rng(109)
    base = random_base(rng, 6, 2)
    t = project_tangent(base.dense(), base)
    assert np.linalg.norm(t.core - np.diag(base.sigma)) < 1e-12


def test_corner_pythagoras_and_reassembly():
    rng = make_rng(110)
    base = random_base(rng, 7, 3)
    for _ in range(20):
        z = rng.standard_normal((7, 7)) * rng.uniform(0.1, 5.0)
        t = project_tangent(z, base)
        outer = outer_block(z, base)
        total = (np.sum(t.core ** 2) + np.sum(t.left ** 2)
                 + np.sum(t.right ** 2) + np.sum(outer ** 2))
        assert abs(total - np.sum(z ** 2)) < 1e-10 * np.sum(z ** 2)
        back = t.dense() + base.u_perp @ outer @ base.v_perp.T
        assert not t.st[3:, 3:].any()
        assert np.linalg.norm(back - z) < 1e-12 * np.linalg.norm(z)


def test_corner_dimension_mismatch():
    rng = make_rng(111)
    base = random_base(rng, 5, 2)
    with pytest.raises(ValueError):
        project_tangent(np.zeros((4, 5)), base)


# -------------------------------------------------- tangent space


def test_tangent_projection_is_identity_on_tangent_vectors():
    rng = make_rng(112)
    base = random_base(rng, 6, 2)
    s = TangentVector.from_coords(rng.standard_normal(tangent_dim(base)), base)
    back = project_tangent(s.dense(), base)
    assert np.linalg.norm(back.coords() - s.coords()) < 1e-12 * max(1.0, s.norm())


def test_tangent_projection_annihilates_pure_corner():
    rng = make_rng(113)
    base = random_base(rng, 6, 2)
    up = base.u_perp[:, 0]
    vp = base.v_perp[:, 1]
    assert project_tangent(np.outer(up, vp), base).norm() < 1e-13


def test_tangent_pythagoras():
    rng = make_rng(114)
    base = random_base(rng, 7, 3)
    for _ in range(10):
        z = rng.standard_normal((7, 7))
        t = project_tangent(z, base)
        corner = outer_block(z, base)
        assert abs(t.norm() ** 2 + np.sum(corner ** 2) - np.sum(z ** 2)) < 1e-10 * np.sum(z ** 2)
        assert t.norm() <= np.linalg.norm(z) + 1e-12


def test_tangent_vector_norm_identity():
    rng = make_rng(116)
    base = random_base(rng, 6, 2)
    s = TangentVector.from_coords(rng.standard_normal(tangent_dim(base)), base)
    direct = np.sqrt(np.sum(s.core ** 2) + np.sum(s.left ** 2) + np.sum(s.right ** 2))
    assert abs(s.norm() - direct) < 1e-14
    assert abs(s.norm() - np.linalg.norm(s.dense())) < 1e-12


def test_frame_array_outer_block_stays_exactly_zero():
    rng = make_rng(133)
    for n1, n2, k in SHAPES:
        base = random_base(rng, n1, k, n2=n2)
        f = quadratic_objective(rng.standard_normal((n1, n2)))
        x = 0.1 * rng.standard_normal(tangent_dim(base))
        s = TangentVector.from_coords(x, base)
        assert np.array_equal(s.coords(), x)
        grad = pullback_value_grad(f, base, s)[1]
        for v in (s, zero_tangent(base), grad, project_tangent(rng.standard_normal((n1, n2)), base)):
            assert v.st.shape == (n1, n2)
            assert not np.any(v.st[k:, k:])
            assert np.shares_memory(v.core, v.st) and np.shares_memory(v.right, v.st)


def test_coordinates_are_core_then_left_then_right_row_by_row():
    # the escape's random draw consumes coordinates in this order
    rng = make_rng(135)
    for n1, n2, k in SHAPES:
        base = random_base(rng, n1, k, n2=n2)
        core, left, right = (rng.standard_normal(shape) for shape in ((k, k), (n1 - k, k), (k, n2 - k)))
        x = np.concatenate([core.ravel(), left.ravel(), right.ravel()])
        s = TangentVector.from_coords(x, base)
        for view, block in ((s.core, core), (s.left, left), (s.right, right)):
            assert view.tobytes() == block.tobytes()
        assert s.coords().tobytes() == x.tobytes()
        assert tangent_dim(base) == k * (n1 + n2 - k) == x.size


def test_coordinate_reads_use_memory_linear_in_the_matrix_size():
    # at n = 200 one (n1 n2)^2 float array would be 12.8 GB; the coordinate
    # reads must stay within a few copies of one n1 x n2 array
    rng = make_rng(136)
    n, k = 200, 1
    base = random_base(rng, n, k)
    x = rng.standard_normal(k * (2 * n - k))
    tracemalloc.start()
    try:
        d = tangent_dim(base)
        s = TangentVector.from_coords(x, base)
        back = s.coords()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert d == x.size and np.array_equal(back, x)
    assert peak < 4 * n * n * 8


def test_frame_array_norm_matches_block_sums():
    rng = make_rng(134)

    for n1, n2, k in SHAPES:
        base = random_base(rng, n1, k, n2=n2)
        for _ in range(10):
            s = TangentVector.from_coords(rng.standard_normal(tangent_dim(base)), base)
            blocks = np.sum(s.core ** 2) + np.sum(s.left ** 2) + np.sum(s.right ** 2)
            assert abs(s.norm() - math.sqrt(blocks)) <= 1e-15 * s.norm()


# -------------------------------------------------- retraction


def test_retract_zero_is_base():
    rng = make_rng(117)
    base = random_base(rng, 6, 3)
    y = retract(base, zero_tangent(base))
    assert np.linalg.norm(y.dense() - base.dense()) < 1e-13


def test_retract_core_only_shift():
    rng = make_rng(118)
    base = random_base(rng, 6, 2)
    core = np.array([[0.2, 0.05], [0.0, -0.1]])
    s = tangent_from_blocks(base, core, np.zeros((4, 2)), np.zeros((2, 4)))
    y = retract(base, s)
    ref = base.u @ (np.diag(base.sigma) + core) @ base.v.T
    assert np.linalg.norm(y.dense() - ref) < 1e-12


def test_retract_inverts_under_tangent_projection():
    # displacement's tangent part recovers s exactly, the correction is
    # pure corner
    rng = make_rng(119)
    for _ in range(30):
        base = random_base(rng, 7, 3, sigma_min=0.3)
        d = rng.standard_normal(tangent_dim(base))
        d *= 0.4 * base.sigma_r(3) / np.linalg.norm(d)
        s = TangentVector.from_coords(d, base)
        y = retract(base, s)
        back = project_tangent(y.dense() - base.dense(), base)
        assert np.linalg.norm(back.coords() - s.coords()) < 1e-8


def test_retract_singular_core_rejected(monkeypatch):
    rng = make_rng(120)
    base = random_base(rng, 5, 2)
    core = -np.diag(base.sigma)     # makes sigma + core exactly singular
    s = tangent_from_blocks(base, core, np.zeros((3, 2)), np.zeros((2, 3)))
    shapes = _count_linalg(monkeypatch)
    with pytest.raises(RetractionUndefinedError):
        retract(base, s)
    # the floor test raises before anything is inverted
    assert shapes == _only(svd=[(2, 2)])


def test_retract_rejects_foreign_tangent_vector():
    rng = make_rng(121)
    a = random_base(rng, 5, 2)
    b = random_base(rng, 5, 2)
    s = zero_tangent(a)
    with pytest.raises(ValueError):
        retract(b, s)


# -------------------------------------------------- pullback derivatives


def test_pullback_gradient_at_zero_is_tangent_projection():
    rng = make_rng(122)
    base = random_base(rng, 7, 3)
    f = quadratic_objective(random_ground_truth(7, 5, 2.0, rng))
    _, grad = pullback_value_grad(f, base, zero_tangent(base))
    ref = project_tangent(f.gradient(base.dense()), base)
    assert np.linalg.norm(grad.coords() - ref.coords()) < 1e-12


def test_pullback_value_is_composition():
    rng = make_rng(123)
    base = random_base(rng, 6, 2)
    f = quadratic_objective(random_ground_truth(6, 3, 2.0, rng))
    s = TangentVector.from_coords(0.05 * rng.standard_normal(tangent_dim(base)), base)
    val, _ = pullback_value_grad(f, base, s)
    assert abs(val - f.value(retract(base, s).dense())) < 1e-14 * max(1.0, abs(val))


class SeparateCalls(Objective):
    """The objective without its fused value_and_grad."""

    def __init__(self, f):
        self.f = f

    def value(self, x):
        return self.f.value(x)

    def gradient(self, x):
        return self.f.gradient(x)


def test_pullback_makes_one_operator_pass_pair_per_call(monkeypatch):
    from rankmin.objectives import SensingProblem, generate_sensing, sensing_objective, spectral_init
    problem = generate_sensing(n=10, r=4, r_star=4, kappa=1.0, m=120, seed=0)
    f = sensing_objective(problem)
    base = spectral_init(problem)
    rng = make_rng(125)
    steps = [TangentVector.from_coords(1e-2 * rng.standard_normal(tangent_dim(base)), base)
             for _ in range(10)]
    separate = [pullback_value_grad(SeparateCalls(f), base, s) for s in steps]
    calls = {"apply": 0, "adjoint": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for name in calls:
        monkeypatch.setattr(SensingProblem, name, counting(name, getattr(SensingProblem, name)))
    fused = [pullback_value_grad(f, base, s) for s in steps]
    assert calls == {"apply": 10, "adjoint": 10}
    for (v0, g0), (v1, g1) in zip(separate, fused):
        assert v1 == v0
        assert np.array_equal(g1.coords(), g0.coords())


def test_pullback_hessian_symmetric_before_symmetrization():
    rng = make_rng(124)
    for _ in range(5):
        base = random_base(rng, 6, 2)
        f = quadratic_objective(random_ground_truth(6, 4, 3.0, rng))
        h = pullback_hessian(f, base)
        assert np.linalg.norm(h - h.T) / np.linalg.norm(h) < 1e-4


def test_pullback_min_eig_nonnegative_at_optimum():
    rng = make_rng(125)
    x_star = random_ground_truth(7, 3, 2.0, rng)
    f = quadratic_objective(x_star)
    lam, _ = pullback_hessian_min_eig(f, x_star)
    assert lam >= -1e-8


def test_pullback_min_eig_equals_corner_gradient_rule():
    # for the unit-curvature quadratic the smallest pullback eigenvalue is
    # exactly 1 - ||corner gradient||_2 / sigma_r(X); checked as an
    # inequality plus tight agreement
    rng = make_rng(126)
    for _ in range(50):
        target = random_ground_truth(7, 5, 3.0, rng)
        f = quadratic_objective(target)
        base = random_base(rng, 7, 2, sigma_min=0.05)
        go = outer_block(f.gradient(base.dense()), base)
        predicted = 1.0 - np.linalg.norm(go, 2) / base.sigma_r(2)
        lam, _ = pullback_hessian_min_eig(f, base)
        assert lam <= 1.0 - np.linalg.norm(go, 2) / base.sigma_r(2) + 1e-6
        assert abs(lam - predicted) < 1e-6 * max(1.0, abs(predicted))


def test_min_eig_direction_certifies_descent():
    # the reported eigen-direction actually decreases f when min_eig < 0
    rng = make_rng(127)
    target = random_ground_truth(6, 4, 2.0, rng)
    f = quadratic_objective(target)
    base = random_base(rng, 6, 2, sigma_min=0.4)
    lam, direction = pullback_hessian_min_eig(f, base)
    if lam < -1e-3:
        v0, g0 = pullback_value_grad(f, base, zero_tangent(base))
        t = 1e-3
        plus = pullback_value_grad(f, base, TangentVector.from_coords(t * direction.coords(), base))[0]
        # remove the linear term, look at curvature only
        quad = plus - v0 - t * (g0.coords() @ direction.coords())
        assert quad < 0


# -------------------------------------------------- closed-form pullback point, exact Hessian


def _hessian_cases():
    from rankmin.objectives import generate_sensing, sensing_objective
    rng = make_rng(128)
    yield quadratic_objective(random_ground_truth(7, 4, 3.0, rng)), random_base(rng, 7, 3)
    problem = generate_sensing(n=7, r=3, r_star=2, kappa=2.0, m=63, seed=4)
    yield sensing_objective(problem), random_base(rng, 7, 3)
    problem = generate_sensing(n=7, r=3, r_star=2, kappa=2.0, m=63, seed=5, symmetric_psd=True)
    q = haar_frame(rng, 7, 3)
    yield sensing_objective(problem), FactoredMatrix(q, np.array([1.0, 0.6, 0.3]), q)


def test_exact_hessian_matches_finite_differences():
    for f, base in _hessian_cases():
        exact = pullback_hessian(f, base)
        fd = verify._fd_pullback_hessian(f, base)
        assert np.linalg.norm(exact - fd) <= 1e-6 * np.linalg.norm(fd)


class _LogCoshHessianAtZero(verify._LogCoshObjective):
    def hessian_vector(self, x, z):
        return super().hessian_vector(np.zeros_like(x), z)


def test_exact_hessian_is_taken_at_the_base_point():
    # a rank-3 base 0.5-Gaussian away from a kappa = 5 target; the same
    # bound as above, which the Hessian taken at X = 0 must fail
    for seed in range(3):
        rng = make_rng(seed)
        target = random_ground_truth(8, 3, 5.0, rng).dense()
        base = project_rank_r(target + 0.5 * rng.standard_normal((8, 8)), 3)
        for objective, passes in ((verify._LogCoshObjective, True), (_LogCoshHessianAtZero, False)):
            f = objective(target, 1.9)
            fd = verify._fd_pullback_hessian(f, base)
            err = np.linalg.norm(pullback_hessian(f, base) - fd)
            assert (err <= 1e-6 * np.linalg.norm(fd)) == passes, (seed, objective.__name__)


def test_hessian_at_zero_mutation_is_caught(monkeypatch):
    # the oracle criterion's log-cosh instance sees a Hessian taken at X = 0,
    # which its quadratic instances cannot
    result = verify.criterion_geometry_oracles("quick")
    assert result.passed and result.details["hessian_fd_logcosh_rel"] <= 1e-6
    monkeypatch.setattr(verify, "_LogCoshObjective", _LogCoshHessianAtZero)
    result = verify.criterion_geometry_oracles("quick")
    assert not result.passed and result.details["hessian_fd_logcosh_rel"] > 1e-6


def test_hessian_vector_on_a_stack_matches_single_calls():
    rng = make_rng(129)
    for f, base in _hessian_cases():
        x = base.dense()
        stack = rng.standard_normal((5, 7, 7))
        got = f.hessian_vector(x, stack)
        assert got.shape == stack.shape
        for z, hz in zip(stack, got):
            assert np.allclose(hz, f.hessian_vector(x, z), rtol=0.0, atol=1e-13)


def test_pullback_hessian_makes_no_pullback_gradient_calls(monkeypatch):
    import rankmin.geometry as geometry
    calls = []
    monkeypatch.setattr(geometry, "pullback_value_grad", lambda *a, **k: calls.append(a))
    for f, base in _hessian_cases():
        pullback_hessian_min_eig(f, base)
    assert calls == []


def test_pullback_value_grad_singular_core_rejected(monkeypatch):
    rng = make_rng(130)
    base = random_base(rng, 5, 2)
    f = quadratic_objective(random_ground_truth(5, 3, 2.0, rng))
    s = tangent_from_blocks(base, -np.diag(base.sigma), np.zeros((3, 2)), np.zeros((2, 3)))
    shapes = _count_linalg(monkeypatch)
    with pytest.raises(RetractionUndefinedError):
        pullback_value_grad(f, base, s)
    assert shapes == _only(svd=[(2, 2)])


def _floor_says_singular(w):
    sv = np.linalg.svd(w, compute_uv=False)
    return sv[-1] <= RETRACTION_CORE_FLOOR * max(1.0, float(sv[0]))


@settings(deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 4), extra=st.integers(0, 4),
       extra2=st.integers(0, 4), log_delta=st.floats(-17.0, 0.0),
       log_scale=st.floats(-3.0, 3.0), cancel=st.booleans())
def test_retraction_raises_exactly_when_the_floor_test_says_singular(
        seed, k, extra, extra2, log_delta, log_scale, cancel):
    # cores C = -Sigma + delta M put sigma_min(W) anywhere from 0 to O(1),
    # through the exact fallback; without the -Sigma the Weyl bound clears
    # small cores before any SVD
    rng = make_rng(seed)
    n1, n2 = k + extra, k + extra2
    base = random_base(rng, n1, k, n2=n2)
    base = FactoredMatrix(base.u, 10.0 ** log_scale * base.sigma, base.v, validate=False)
    core = 10.0 ** log_delta * rng.standard_normal((k, k))
    if cancel:
        core -= np.diag(base.sigma)
    s = tangent_from_blocks(base, core, rng.standard_normal((n1 - k, k)), rng.standard_normal((k, n2 - k)))
    if _floor_says_singular(np.diag(base.sigma) + core):
        with pytest.raises(RetractionUndefinedError, match="sigma_min"):
            _Pullback(base).point(s.st)
    else:
        _Pullback(base).point(s.st)


@pytest.mark.parametrize("ratio, singular", [(10.0, False), (0.1, True)])
def test_retraction_floor_on_fixed_cores(ratio, singular):
    # W = [[0, 3], [t, 0]] exactly, sigma(W) = (3, t), floor 3e-14
    base = FactoredMatrix(np.eye(4)[:, :2], np.array([2.0, 1.0]), np.eye(5)[:, :2])
    t = ratio * RETRACTION_CORE_FLOOR * 3.0
    s = tangent_from_blocks(base, np.array([[-2.0, 3.0], [t, -1.0]]), np.ones((2, 2)), np.ones((2, 3)))
    assert _floor_says_singular(np.diag(base.sigma) + s.core) == singular
    if singular:
        with pytest.raises(RetractionUndefinedError, match="sigma_min"):
            _Pullback(base).point(s.st)
    else:
        y = _Pullback(base).point(s.st)[0]
        assert np.all(np.isfinite(y))


LAPACK_BINDINGS = ("lapack_inv", "lapack_svd", "lapack_svdvals", "lapack_eigh")


def _count_linalg(monkeypatch, names=("svd", "inv")):
    """Shapes handed to the named np.linalg functions and to the direct
    LAPACK bindings (keys "lapack_inv", "lapack_svd", ...), in geometry and
    wherever solvers imported them, each under its own key."""
    shapes = {name: [] for name in (*names, *LAPACK_BINDINGS)}

    def counting(name, fn):
        def wrapped(a, *args, **kwargs):
            shapes[name].append(np.shape(a))
            return fn(a, *args, **kwargs)
        return wrapped

    for name in names:
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    for name in LAPACK_BINDINGS:
        for module in (geometry, solvers):
            if hasattr(module, "_" + name):
                monkeypatch.setattr(module, "_" + name, counting(name, getattr(module, "_" + name)))
    return shapes


def _only(**calls):
    """The _count_linalg shapes of the default names with only the given
    keys called."""
    return {name: calls.get(name, []) for name in ("svd", "inv", *LAPACK_BINDINGS)}


def test_retraction_core_svd_only_when_the_bound_cannot_clear(monkeypatch):
    rng = make_rng(133)
    base = random_base(rng, 8, 3, sigma_min=0.5)
    f = quadratic_objective(random_ground_truth(8, 4, 2.0, rng))
    d = rng.standard_normal(tangent_dim(base))
    small = TangentVector.from_coords(1e-2 * d / np.linalg.norm(d), base)
    # ||core||_F > sigma_3 = 0.5 while W stays well conditioned
    large = tangent_from_blocks(base, -0.9 * np.diag(base.sigma), small.left, small.right)
    shapes = _count_linalg(monkeypatch)
    pullback_value_grad(f, base, small)
    assert shapes == _only(lapack_inv=[(3, 3)])
    pullback_value_grad(f, base, large)
    assert shapes == _only(svd=[(3, 3)], lapack_inv=[(3, 3), (3, 3)])


def test_escape_inside_the_ball_factors_only_its_exit_point(monkeypatch):
    # sigma_3 = 0.5 >> eps_t: the Weyl bound clears every retraction core, so
    # the 50 inner steps and the exit retract take one LU inverse each, and
    # the only SVD is the projection of the exit point, through the binding
    from rankmin.solvers import tangent_space_steps
    rng = make_rng(134)
    x = random_ground_truth(8, 3, 2.0, rng)
    f = quadratic_objective(x)      # pulls back toward s = 0: never leaves the ball
    shapes = _count_linalg(monkeypatch)
    tangent_space_steps(x, f, 1e-2, 0.1, 0.01, 50, make_rng(9, stream=6))
    assert shapes == _only(lapack_svd=[(8, 8)], lapack_inv=[(3, 3)] * 51)


def test_lapack_inv_is_the_gufunc_behind_np_linalg_inv():
    # fails by name when a numpy release moves or re-routes the gufunc
    assert inspect.getmodule(np.linalg.inv)._umath_linalg.inv is geometry._lapack_inv


def test_lapack_inv_matches_np_linalg_inv_bit_for_bit():
    # 6 x 180 = 1,080 cores, each inverted as it is and as a strided view
    rng = make_rng(136)
    for k in range(1, 7):
        for trial in range(180):
            if trial % 3 == 0:      # condition number near 1e13
                sv = np.geomspace(1.0, 10.0 ** rng.uniform(-13.3, -12.7), k)
                w = (haar_frame(rng, k, k) * sv) @ haar_frame(rng, k, k).T
            else:
                w = rng.standard_normal((k, k)) * 10.0 ** rng.uniform(-3, 3)
            # the retraction inverts the core as a view into a larger frame array
            frame = rng.standard_normal((k + 2, k + 3))
            frame[:k, :k] = w
            for a in (w, frame[:k, :k]):
                got = geometry._lapack_inv(a, signature="d->d")
                assert got.dtype == np.float64
                assert got.tobytes() == np.linalg.inv(a).tobytes()


@pytest.mark.parametrize("public, gufunc, binding", [
    (np.linalg.svd, "svd_s", "_lapack_svd"),
    (np.linalg.svd, "svd", "_lapack_svdvals"),
    (np.linalg.eigh, "eigh_lo", "_lapack_eigh"),
])
def test_lapack_svd_and_eigh_bindings_are_the_gufuncs_behind_np_linalg(public, gufunc, binding):
    # fails by name when a numpy release moves or re-routes a gufunc
    assert getattr(inspect.getmodule(public)._umath_linalg, gufunc) is getattr(geometry, binding)
    if hasattr(solvers, binding):
        assert getattr(solvers, binding) is getattr(geometry, binding)


def _dot_operands(rng):
    """(a, b) pairs of the pullback kernel's block products, as it forms
    them from an 8 x 8 frame array at k = 3 (5 x 3 . 3 x 3, 3 x 3 . 3 x 5,
    transposed views, 3 x 5 . 5 x 3 into a 3 x 3 block) and at k = 1, whose
    7 x 1 and 1 x 1 blocks numpy routes away from gemm, and the 8 x 8
    P Y Q^T and P^T G Q frame products (P is Q on the PSD set); then those
    of the driver iterate (see _driver_dot_operands)."""
    for trial in range(60):
        for k in (3, 1):
            y = rng.standard_normal((8, 8)) * 10.0 ** rng.uniform(-3, 3)
            winv = rng.standard_normal((k, k))
            l_winv, winv_r = y[k:, :k].dot(winv), winv.dot(y[:k, k:])
            go = y[k:, k:]
            lw_go = l_winv.T.dot(go)
            p = haar_frame(rng, 8, 8)
            q = p if trial % 2 else haar_frame(rng, 8, 8)
            yield from ((y[k:, :k], winv), (winv, y[:k, k:]),
                        (l_winv, y[:k, k:]), (l_winv.T, go), (lw_go, winv_r.T),
                        (go, winv_r.T), (p, y), (p.dot(y), q.T), (p.T, y), (p.T.dot(y), q))
    yield from _driver_dot_operands(rng)


def _driver_dot_operands(rng):
    """(a, b) pairs of the driver's products, in the layouts it forms them:
    the sensing operator's (m, n^2) . (n^2,) apply, (m,) . (m, n^2) adjoint
    and res . res at the shipped (m, n); and at r = 1-4, where rank-1
    products route away from gemm, dense's (u sigma) . v^T (v a transposed
    view of the SVD's rows), fgd's g R, g^T L and L+ R+^T, and the Gram
    inverse's rhs V and (rhs V / w) V^T with V from gram_condition."""
    for m, n in ((120, 10), (400, 10), (72, 8), (144, 12)):
        flat = (rng.standard_normal((m, n, n)) / np.sqrt(m)).reshape(m, -1)
        for trial in range(4):
            x = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-3, 3)
            res = flat.dot(x.ravel())
            yield from ((flat, x.ravel()), (res, flat), (res, res))
            u, s, vt = np.linalg.svd(x)
            g = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-3, 3)
            for r in range(1, 5):
                v, root = vt[:r].T, np.sqrt(s[:r])
                lf, rf = u[:, :r] * root, v * root
                _, ((w_l, w_r), (v_l, v_r), _) = solvers.gram_condition(lf, rf)
                rhs = g.dot(rf)
                yield from ((u[:, :r] * s[:r], v.T), (g, rf), (g.T, lf),
                            (lf - 0.4 * rhs, (rf - 0.4 * g.T.dot(lf)).T),
                            (rhs, v_r), (rhs.dot(v_r) / w_r, v_r.T))


def test_ndarray_dot_matches_matmul_bit_for_bit():
    # the pullback kernel and the driver iterate call a.dot(b) for their
    # small products, for less call overhead than a @ b; fails by name when
    # a numpy release routes either call to a different kernel for these
    # shapes and layouts
    for a, b in _dot_operands(make_rng(139)):
        assert a.dot(b).tobytes() == (a @ b).tobytes(), (a.shape, b.shape)
    # gram_condition fills its stack with F^T.dot(F, out=) on the factors
    rng = make_rng(140)
    for n in (8, 10, 12):
        for r in range(1, 5):
            for _ in range(20):
                f = rng.standard_normal((n, r)) * 10.0 ** rng.uniform(-3, 3)
                by_dot, by_matmul = np.empty((2, 2, r, r))
                f.T.dot(f, out=by_dot[1])
                np.matmul(f.T, f, out=by_matmul[1])
                assert by_dot[1].tobytes() == by_matmul[1].tobytes(), (n, r)


def _svd_inputs(rng):
    """Seeded matrices, each also as a strided view and a Fortran-ordered
    copy: dense, rank-deficient and exact-zero, 10 x 10, 8 x 8, 12 x 10 and
    10 x 12."""
    for shape in ((10, 10), (8, 8), (12, 10), (10, 12)):
        for trial in range(24):
            if trial == 0:
                a = np.zeros(shape)
            elif trial % 3 == 0:        # rank 3, or rank 1 with exact zero rows
                rank = 1 if trial % 2 else 3
                a = rng.standard_normal((shape[0], rank)) @ rng.standard_normal((rank, shape[1]))
                if rank == 1:
                    a[::2] = 0.0
            else:
                a = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3)
            frame = rng.standard_normal((shape[0] + 2, shape[1] + 3))
            frame[1:-1, 2:-1] = a
            yield a
            yield frame[1:-1, 2:-1]
            yield np.asfortranarray(a)


def test_lapack_svd_bindings_match_np_linalg_svd_bit_for_bit():
    for a in _svd_inputs(make_rng(137)):
        got = geometry._lapack_svd(a, signature="d->ddd")
        for g, ref in zip(got, np.linalg.svd(a, full_matrices=False)):
            assert g.dtype == np.float64 and g.shape == ref.shape
            assert g.tobytes() == ref.tobytes()
        vals = geometry._lapack_svdvals(a, signature="d->d")
        assert vals.tobytes() == np.linalg.svd(a, compute_uv=False).tobytes()


def test_lapack_eigh_binding_matches_np_linalg_eigh_bit_for_bit():
    rng = make_rng(138)
    inputs = [0.5 * (a + a.T) for a in _svd_inputs(rng) if a.shape[0] == a.shape[1]]
    # stacked Gram matrices of both factors, one pair near singular in three
    for k in range(1, 6):
        for trial in range(30):
            lf, rf = rng.standard_normal((10, k)), rng.standard_normal((10, k))
            if trial % 3 == 0:
                lf[:, -1] = lf[:, 0] + 10.0 ** rng.uniform(-8, -5) * rng.standard_normal(10)
            grams = np.empty((2, k + 1, k + 2))
            grams[0, :k, :k] = lf.T @ lf
            grams[1, :k, :k] = rf.T @ rf
            inputs += [np.ascontiguousarray(grams[:, :k, :k]), grams[:, :k, :k]]
    for a in inputs:
        got = geometry._lapack_eigh(a, signature="d->dd")
        for g, ref in zip(got, np.linalg.eigh(a)):
            assert g.dtype == np.float64 and g.shape == ref.shape
            assert g.tobytes() == ref.tobytes()


def test_pprojgd_escape_bits_do_not_depend_on_the_inverse_wrapper(monkeypatch):
    from rankmin.diagnostics import swapped_direction_saddle
    from rankmin.solvers import SolverConfig, pprojgd
    eye = np.eye(8)
    target = FactoredMatrix(eye[:, :4], np.array([1.0, 0.9, 0.6, 0.3]), eye[:, :4], validate=False)
    f = quadratic_objective(target)
    saddle = swapped_direction_saddle(target, 3)
    cfg = SolverConfig(eta=1.0 / 3.0, max_iters=6, tol_rel_err=None)

    def escape():
        x_end, tr = pprojgd(f, saddle, cfg, rng=make_rng(300, stream=2))
        assert "tangent-escape" in {rec.branch for rec in tr.records}
        return tr.csv_text(), x_end.u.tobytes() + x_end.sigma.tobytes() + x_end.v.tobytes()

    direct = escape()
    calls = []
    monkeypatch.setattr(geometry, "_lapack_inv",
                        lambda w, signature: calls.append(w.shape) or np.linalg.inv(w))
    assert escape() == direct
    assert calls


def test_rank_projection_keeps_the_rank_the_full_count_keeps():
    # the kept rank min(r, #{s > drop * s_1}), on sorted singular values that
    # the SVD of a row-reversed diagonal returns exactly
    drop = SINGULAR_VALUE_DROP
    tails = {
        "full rank": [0.5, 0.25, 0.125],
        "exact zeros": [0.5, 0.0, 0.0],
        "just above": [0.5, np.nextafter(drop, 1.0), np.nextafter(drop, 1.0)],
        "at the drop": [0.5, drop, drop],
        "just below": [0.5, np.nextafter(drop, 0.0), 0.0],
    }
    for name, tail in tails.items():
        s = np.array([1.0] + tail)
        z = np.diag(s)[::-1]
        assert np.array_equal(np.linalg.svd(z, compute_uv=False), s), name
        for r in range(1, 5):
            assert project_rank_r(z, r).rank == min(r, np.count_nonzero(s > drop * s[0])), (name, r)


def test_psd_projection_keeps_the_rank_the_full_count_keeps():
    # the kept rank min(r, #{lam > drop * lam_1}) over the clipped top-r
    # eigenvalues, on a shuffled diagonal that eigh returns exactly
    drop = SINGULAR_VALUE_DROP
    tails = {
        "full rank": [0.5, 0.25, 0.125],
        "exact zeros": [0.5, 0.0, 0.0],
        "negative": [0.5, -0.25, -0.5],
        "just above": [0.5, np.nextafter(drop, 1.0), np.nextafter(drop, 1.0)],
        "at the drop": [0.5, drop, drop],
        "just below": [0.5, np.nextafter(drop, 0.0), 0.0],
    }
    for name, tail in tails.items():
        lam = np.array([1.0] + tail)
        z = np.diag(lam[[2, 0, 3, 1]])
        assert np.array_equal(np.linalg.eigh(z)[0][::-1], lam), name
        for r in range(1, 5):
            kept = np.count_nonzero(np.clip(lam[:r], 0.0, None) > drop * lam[0])
            x = project_psd_rank_r(z, r)
            assert x.rank == kept, (name, r)
            assert np.array_equal(x.sigma, lam[:kept]), (name, r)


class CountingQuadratic(QuadraticObjective):
    """The quadratic objective, counting its own value_and_grad calls and
    recording every frame objective in_frames hands out."""

    def __init__(self, target):
        super().__init__(target)
        self.calls = 0
        self.rotated = []

    def value_and_grad(self, x):
        self.calls += 1
        return super().value_and_grad(x)

    def in_frames(self, p, q):
        g = super().in_frames(p, q)
        self.rotated.append(g)
        return g


def test_escape_rotates_the_quadratic_target_once():
    # the same in-ball escape as above: the escape's pullback kernel rotates
    # the target into the base's frames once, every inner step evaluates
    # that frame objective, and none evaluates the objective at a dense point
    from rankmin.solvers import tangent_space_steps
    rng = make_rng(134)
    x = random_ground_truth(8, 3, 2.0, rng)
    f = CountingQuadratic(x)
    tangent_space_steps(x, f, 1e-2, 0.1, 0.01, 50, make_rng(9, stream=6))
    assert f.calls == 0
    assert len(f.rotated) == 1


class RecordingQuadratic(Objective):
    """The quadratic objective, remembering the last point it was called at.
    It keeps the base class's in_frames (None), so the pullback evaluates it
    at the dense point."""

    def __init__(self, f):
        self.f = f
        self.x = None

    def gradient(self, x):
        self.x = x
        return self.f.gradient(x)

    def value_and_grad(self, x):
        self.x = x
        return self.f.value_and_grad(x)


def _frame_path_cases(rng):
    for n1, n2, k in SHAPES:
        yield random_base(rng, n1, k, sigma_min=0.2, n2=n2), rng.standard_normal((n1, n2))
    q = haar_frame(rng, 7, 3)
    shared = project_psd_rank_r(q @ np.diag([1.0, 0.6, 0.3]) @ q.T, 3)
    assert shared.u is shared.v
    a = rng.standard_normal((7, 7))
    yield shared, a + a.T


def test_frame_path_matches_the_rotation_path():
    rng = make_rng(136)
    for base, target in _frame_path_cases(rng):
        f = quadratic_objective(target)
        rotated = RecordingQuadratic(f)
        p, q = base._frames()
        for _ in range(5):
            s = TangentVector.from_coords(0.05 * rng.standard_normal(tangent_dim(base)), base)
            val, grad = pullback_value_grad(f, base, s)
            ref_val, ref_grad = pullback_value_grad(rotated, base, s)
            assert abs(val - ref_val) <= 1e-12 * abs(ref_val)
            assert np.linalg.norm(grad.st - ref_grad.st) <= 1e-12 * np.linalg.norm(ref_grad.st)
            # the gradient-only kernel: in frames, and the gradient rotated
            assert _Pullback(base, f).grad(s.st).tobytes() == grad.st.tobytes()
            assert _Pullback(base, rotated).grad(s.st).tobytes() == ref_grad.st.tobytes()
            y = _Pullback(base).point(s.st)[0]
            ref_y = p.T @ retract(base, s).dense() @ q
            assert np.linalg.norm(y - ref_y) <= 1e-12 * np.linalg.norm(ref_y)


def test_pullback_point_is_the_retraction():
    rng = make_rng(131)
    for _ in range(20):
        base = random_base(rng, 7, 3, sigma_min=0.2)
        f = RecordingQuadratic(quadratic_objective(random_ground_truth(7, 4, 2.0, rng)))
        s = TangentVector.from_coords(0.1 * rng.standard_normal(tangent_dim(base)), base)
        pullback_value_grad(f, base, s)
        assert np.linalg.norm(f.x - retract(base, s).dense()) < 1e-12


def _strided_correction(pull, g, l_winv, winv_r):
    """The pullback gradient correction as one in-place update per block
    view and a fill of the outer block: the reference for _Pullback's
    update of the top rows as one block."""
    gt = pull.p.T.dot(g).dot(pull.q) if pull.rotate else np.array(g, dtype=float)
    k = pull.k
    gc, gr, gl, go = gt[:k, :k], gt[:k, k:], gt[k:, :k], gt[k:, k:]
    lw_go = l_winv.T.dot(go)
    gc -= lw_go.dot(winv_r.T)
    gl += go.dot(winv_r.T)
    gr += lw_go
    go.fill(0.0)
    return gt


class PoisonedQuadratic(Objective):
    """The quadratic objective with a fixed array added to every gradient,
    in frames (the array is the frame gradient's) or, with rotate, at the
    dense point."""

    def __init__(self, f, poison, rotate=False):
        self.f, self.poison, self.rotate = f, poison, rotate

    def gradient(self, x):
        return self.f.gradient(x) + self.poison

    def value_and_grad(self, x):
        val, g = self.f.value_and_grad(x)
        return val, g + self.poison

    def in_frames(self, p, q):
        return None if self.rotate else PoisonedQuadratic(self.f.in_frames(p, q), self.poison)


def _correction_cases(rng):
    """Bases and targets: the rectangular shapes, k = 1, k = min(n1, n2)
    (an empty outer block) and a shared PSD frame."""
    yield from _frame_path_cases(rng)
    for n1, n2, k in ((6, 4, 1), (4, 7, 4), (6, 3, 3), (5, 5, 5)):
        yield random_base(rng, n1, k, sigma_min=0.2, n2=n2), rng.standard_normal((n1, n2))


def test_row_block_correction_matches_the_strided_reference_bit_for_bit():
    rng = make_rng(137)
    for base, target in _correction_cases(rng):
        f = quadratic_objective(target)
        for g in (f, RecordingQuadratic(f)):
            pull = _Pullback(base, g)
            for _ in range(4):
                st = TangentVector.from_coords(0.05 * rng.standard_normal(tangent_dim(base)), base).st
                y, l_winv, winv_r = pull.point(st)
                ref = _strided_correction(pull, pull.gradient(pull._at(y)), l_winv, winv_r)
                assert pull.grad(st).tobytes() == ref.tobytes()
                assert pull.value_grad(st)[1].tobytes() == ref.tobytes()


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_row_block_correction_zeroes_a_non_finite_outer_block(bad):
    # a non-finite Go spreads into the other three blocks as the strided
    # updates spread it, and the outer block stays exactly +0.0 as fill made it
    rng = make_rng(138)
    for base, target in _correction_cases(rng):
        k = base.rank
        n1, n2 = base.shape
        core_nan = np.zeros(base.shape)
        core_nan[0, 0] = np.nan
        outer = np.zeros(base.shape)
        if k < min(n1, n2):
            outer[n1 - 1, k] = bad
        f = quadratic_objective(target)
        for poison, rotate in ((outer, False), (core_nan, False), (outer + core_nan, False),
                               (outer, True), (core_nan, True)):
            pull = _Pullback(base, PoisonedQuadratic(f, poison, rotate))
            st = TangentVector.from_coords(0.05 * rng.standard_normal(tangent_dim(base)), base).st
            y, l_winv, winv_r = pull.point(st)
            with np.errstate(invalid="ignore"):
                ref = _strided_correction(pull, pull.gradient(pull._at(y)), l_winv, winv_r)
                got = (pull.grad(st), pull.value_grad(st)[1])
            # the poison reaches the corrected blocks (an empty outer block has none)
            assert np.isfinite(ref).all() == (not np.isnan(poison).any() and not outer.any())
            for gt in got:
                assert np.array_equal(gt, ref, equal_nan=True)
                if np.isnan(poison[0, 0]):      # a NaN outside the outer block stays NaN
                    assert np.isnan(gt[0, 0])
                assert gt[k:, k:].tobytes() == np.zeros((n1 - k, n2 - k)).tobytes()


def test_pullback_buffer_holds_only_until_the_next_call():
    rng = make_rng(139)
    base = random_base(rng, 8, 3, sigma_min=0.2)
    f = quadratic_objective(rng.standard_normal((8, 8)))
    pull = _Pullback(base, f)
    tangents = [TangentVector.from_coords(0.05 * rng.standard_normal(tangent_dim(base)), base).st
                for _ in range(4)]
    g = pull.grad(tangents[0])
    kept = g.tobytes()
    pull.grad(tangents[1])
    pull.value_grad(tangents[2])
    y = pull.point(tangents[3])[0]
    assert g.tobytes() == kept
    assert not np.shares_memory(g, y)
    # a singular core raises after part of the buffer is written; the next
    # valid core still gets a fresh kernel's bytes
    singular = tangents[0].copy()
    singular[:3, :3] = -np.diag(base.sigma)
    with pytest.raises(RetractionUndefinedError):
        pull.point(singular)
    with pytest.raises(RetractionUndefinedError):
        pull.grad(singular)
    fresh = _Pullback(base, f)
    for st in tangents:
        assert pull.point(st)[0].tobytes() == fresh.point(st)[0].tobytes()
        assert pull.grad(st).tobytes() == fresh.grad(st).tobytes()
        assert pull.value_grad(st)[1].tobytes() == _Pullback(base, f).value_grad(st)[1].tobytes()


def test_pullback_value_grad_factors_nothing_larger_than_the_core(monkeypatch):
    rng = make_rng(132)
    base = random_base(rng, 8, 3)
    base.u_perp, base.v_perp    # cached frame completions, as in an escape loop
    f = quadratic_objective(random_ground_truth(8, 4, 2.0, rng))
    s = TangentVector.from_coords(0.1 * rng.standard_normal(tangent_dim(base)), base)
    shapes = _count_linalg(monkeypatch, ("qr", "svd"))
    pullback_value_grad(f, base, s)
    assert shapes["qr"] == []
    assert all(shape == (3, 3) for shape in shapes["svd"])
    assert shapes["lapack_svd"] == shapes["lapack_svdvals"] == shapes["lapack_eigh"] == []


def test_retraction_and_pullback_point_match_closed_form_oracle():
    # the closed form both are built on, written out independently of the
    # frame-array point: (U W + U_perp S_l) W^{-1} (W V^T + S_r V_perp^T)
    rng = make_rng(135)
    for i in range(20):
        n1, n2, k = SHAPES[i % len(SHAPES)]
        base = random_base(rng, n1, k, sigma_min=0.2, n2=n2)
        f = RecordingQuadratic(quadratic_objective(rng.standard_normal((n1, n2))))
        s = TangentVector.from_coords(0.05 * rng.standard_normal(tangent_dim(base)), base)
        w = np.diag(base.sigma) + s.core
        ref = ((base.u @ w + base.u_perp @ s.left) @ np.linalg.inv(w)
               @ (w @ base.v.T + s.right @ base.v_perp.T))
        scale = np.linalg.norm(ref)
        assert np.linalg.norm(retract(base, s).dense() - ref) <= 1e-12 * scale
        pullback_value_grad(f, base, s)
        assert np.linalg.norm(f.x - ref) <= 1e-12 * scale
