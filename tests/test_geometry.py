"""Kernel tests: rank projection, corner blocks, tangent space, retraction,
pullback derivatives.  Oracles (random-candidate search, independent
eigendecomposition, finite differences) come before anything that leans on
the implementation's own formulas."""

import math

import numpy as np
import pytest

from rankmin.geometry import (
    FactoredMatrix,
    RetractionUndefinedError,
    TangentSpaceUndefinedError,
    TangentVector,
    corner_decompose,
    project_psd_rank_r,
    project_rank_r,
    project_tangent,
    pullback_hessian,
    pullback_hessian_min_eig,
    pullback_value_grad,
    retract,
    tangent_dim,
)
from rankmin.objectives import haar_frame, make_rng, quadratic_objective, random_ground_truth


def random_base(rng, n, r, sigma_min=0.1, n2=None):
    sig = np.sort(rng.uniform(sigma_min, 1.0, r))[::-1]
    sig[0] = 1.0
    return FactoredMatrix(haar_frame(rng, n, r), sig, haar_frame(rng, n if n2 is None else n2, r),
                          validate=False)


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
    s = TangentVector.from_coords(0.02 * rng.standard_normal(tangent_dim(base)), base)
    _, grad = pullback_value_grad(f, base, s)
    h = 1e-5
    for _ in range(20):
        d = rng.standard_normal(tangent_dim(base))
        d /= np.linalg.norm(d)
        dv = TangentVector.from_coords(d, base)
        num = (pullback_value_grad(f, base, s + h * dv)[0]
               - pullback_value_grad(f, base, s - h * dv)[0]) / (2 * h)
        ana = grad.inner(dv)
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


# -------------------------------------------------- corner blocks


def test_corner_blocks_of_in_span_matrix():
    rng = make_rng(108)
    base = random_base(rng, 7, 3)
    m = rng.standard_normal((3, 3))
    d = corner_decompose(base.u @ m @ base.v.T, base)
    assert np.linalg.norm(d.left) < 1e-12
    assert np.linalg.norm(d.right) < 1e-12
    assert np.linalg.norm(d.outer) < 1e-12
    assert np.linalg.norm(d.core - m) < 1e-12


def test_corner_blocks_of_base_itself():
    rng = make_rng(109)
    base = random_base(rng, 6, 2)
    d = corner_decompose(base.dense(), base)
    assert np.linalg.norm(d.core - np.diag(base.sigma)) < 1e-12


def test_corner_pythagoras_and_reassembly():
    rng = make_rng(110)
    base = random_base(rng, 7, 3)
    for _ in range(20):
        z = rng.standard_normal((7, 7)) * rng.uniform(0.1, 5.0)
        d = corner_decompose(z, base)
        total = (np.sum(d.core ** 2) + np.sum(d.left ** 2)
                 + np.sum(d.right ** 2) + np.sum(d.outer ** 2))
        assert abs(total - np.sum(z ** 2)) < 1e-10 * np.sum(z ** 2)
        assert np.linalg.norm(d.reconstruct() - z) < 1e-12 * np.linalg.norm(z)


def test_corner_dimension_mismatch():
    rng = make_rng(111)
    base = random_base(rng, 5, 2)
    with pytest.raises(ValueError):
        corner_decompose(np.zeros((4, 5)), base)


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
        corner = corner_decompose(z, base).outer
        assert abs(t.norm() ** 2 + np.sum(corner ** 2) - np.sum(z ** 2)) < 1e-10 * np.sum(z ** 2)
        assert t.norm() <= np.linalg.norm(z) + 1e-12


def test_tangent_space_undefined_below_search_rank():
    rng = make_rng(115)
    a = rng.standard_normal((6, 2))
    deficient = project_rank_r(a @ a.T, 4)     # k = 2 < 4
    assert deficient.rank == 2
    with pytest.raises(TangentSpaceUndefinedError):
        project_tangent(rng.standard_normal((6, 6)), deficient, rank=4)


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
        t = TangentVector.from_coords(0.1 * rng.standard_normal(tangent_dim(base)), base)
        assert np.array_equal(s.coords(), x)
        assert np.array_equal((s + t).coords(), x + t.coords())
        grad = pullback_value_grad(f, base, s)[1]
        for v in (s, s + t, s - t, 2.5 * s, s * -0.3, TangentVector.zero(base), grad,
                  project_tangent(rng.standard_normal((n1, n2)), base)):
            assert v.st.shape == (n1, n2)
            assert not np.any(v.st[k:, k:])
            assert np.shares_memory(v.core, v.st) and np.shares_memory(v.right, v.st)


def test_frame_array_inner_and_norm_match_block_sums():
    rng = make_rng(134)

    def blocks(a, b):
        return np.sum(a.core * b.core) + np.sum(a.left * b.left) + np.sum(a.right * b.right)

    for n1, n2, k in SHAPES:
        base = random_base(rng, n1, k, n2=n2)
        for _ in range(10):
            s, t = (TangentVector.from_coords(rng.standard_normal(tangent_dim(base)), base)
                    for _ in range(2))
            assert abs(s.norm() - math.sqrt(blocks(s, s))) <= 1e-15 * s.norm()
            # relative to ||s|| ||t||: the inner product itself may cancel
            assert abs(s.inner(t) - blocks(s, t)) <= 1e-15 * s.norm() * t.norm()


# -------------------------------------------------- retraction


def test_retract_zero_is_base():
    rng = make_rng(117)
    base = random_base(rng, 6, 3)
    y = retract(base, TangentVector.zero(base))
    assert np.linalg.norm(y.dense() - base.dense()) < 1e-13


def test_retract_core_only_shift():
    rng = make_rng(118)
    base = random_base(rng, 6, 2)
    core = np.array([[0.2, 0.05], [0.0, -0.1]])
    s = TangentVector(core, np.zeros((4, 2)), np.zeros((2, 4)), base)
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


def test_retract_singular_core_rejected():
    rng = make_rng(120)
    base = random_base(rng, 5, 2)
    core = -np.diag(base.sigma)     # makes sigma + core exactly singular
    s = TangentVector(core, np.zeros((3, 2)), np.zeros((2, 3)), base)
    with pytest.raises(RetractionUndefinedError):
        retract(base, s)


def test_retract_rejects_foreign_tangent_vector():
    rng = make_rng(121)
    a = random_base(rng, 5, 2)
    b = random_base(rng, 5, 2)
    s = TangentVector.zero(a)
    with pytest.raises(ValueError):
        retract(b, s)


# -------------------------------------------------- pullback derivatives


def test_pullback_gradient_at_zero_is_tangent_projection():
    rng = make_rng(122)
    base = random_base(rng, 7, 3)
    f = quadratic_objective(random_ground_truth(7, 5, 2.0, rng))
    _, grad = pullback_value_grad(f, base, TangentVector.zero(base))
    ref = project_tangent(f.gradient(base.dense()), base)
    assert np.linalg.norm(grad.coords() - ref.coords()) < 1e-12


def test_pullback_value_is_composition():
    rng = make_rng(123)
    base = random_base(rng, 6, 2)
    f = quadratic_objective(random_ground_truth(6, 3, 2.0, rng))
    s = TangentVector.from_coords(0.05 * rng.standard_normal(tangent_dim(base)), base)
    val, _ = pullback_value_grad(f, base, s)
    assert abs(val - f.value(retract(base, s).dense())) < 1e-14 * max(1.0, abs(val))


class SeparateCalls:
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
        go = corner_decompose(f.gradient(base.dense()), base).outer
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
        v0, g0 = pullback_value_grad(f, base, TangentVector.zero(base))
        t = 1e-3
        plus = pullback_value_grad(f, base, t * direction)[0]
        # remove the linear term, look at curvature only
        quad = plus - v0 - t * g0.inner(direction)
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
    from rankmin.verify import _fd_pullback_hessian
    for f, base in _hessian_cases():
        exact = pullback_hessian(f, base)
        fd = _fd_pullback_hessian(f, base)
        assert np.linalg.norm(exact - fd) <= 1e-6 * np.linalg.norm(fd)


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


def test_pullback_value_grad_singular_core_rejected():
    rng = make_rng(130)
    base = random_base(rng, 5, 2)
    f = quadratic_objective(random_ground_truth(5, 3, 2.0, rng))
    s = TangentVector(-np.diag(base.sigma), np.zeros((3, 2)), np.zeros((2, 3)), base)
    with pytest.raises(RetractionUndefinedError):
        pullback_value_grad(f, base, s)


class RecordingQuadratic:
    """The quadratic objective, remembering the last point it was called at."""

    def __init__(self, f):
        self.f = f
        self.x = None

    def value_and_grad(self, x):
        self.x = x
        return self.f.value_and_grad(x)


def test_pullback_point_is_the_retraction():
    rng = make_rng(131)
    for _ in range(20):
        base = random_base(rng, 7, 3, sigma_min=0.2)
        f = RecordingQuadratic(quadratic_objective(random_ground_truth(7, 4, 2.0, rng)))
        s = TangentVector.from_coords(0.1 * rng.standard_normal(tangent_dim(base)), base)
        pullback_value_grad(f, base, s)
        assert np.linalg.norm(f.x - retract(base, s).dense()) < 1e-12


def test_pullback_value_grad_factors_nothing_larger_than_the_core(monkeypatch):
    rng = make_rng(132)
    base = random_base(rng, 8, 3)
    base.u_perp, base.v_perp    # cached frame completions, as in an escape loop
    f = quadratic_objective(random_ground_truth(8, 4, 2.0, rng))
    s = TangentVector.from_coords(0.1 * rng.standard_normal(tangent_dim(base)), base)
    shapes = {"qr": [], "svd": []}

    def counting(name, fn):
        def wrapped(a, *args, **kwargs):
            shapes[name].append(np.shape(a))
            return fn(a, *args, **kwargs)
        return wrapped

    for name in shapes:
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    pullback_value_grad(f, base, s)
    assert shapes["qr"] == []
    assert all(shape == (3, 3) for shape in shapes["svd"])


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
