"""Objective and instance-generation tests: gradients against finite
differences, adjoint identity, clean-measurement optimality, spectral
initializer behavior, and bit-level determinism of the seeded generators."""

import numpy as np
import pytest

from rankmin.objectives import (
    QuadraticObjective,
    generate_sensing,
    haar_frame,
    make_rng,
    quadratic_objective,
    random_ground_truth,
    sensing_objective,
    spectral_init,
)


def fd_gradient(f, x, h=1e-6):
    g = np.zeros_like(x)
    for i in range(x.shape[0]):
        for j in range(x.shape[1]):
            e = np.zeros_like(x)
            e[i, j] = h
            g[i, j] = (f.value(x + e) - f.value(x - e)) / (2 * h)
    return g


# -------------------------------------------------- rng and frames


def test_make_rng_keyed_by_seed_and_stream():
    a = make_rng(7).standard_normal(8)
    b = make_rng(7).standard_normal(8)
    c = make_rng(7, stream=1).standard_normal(8)
    d = make_rng(8).standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_haar_frame_orthonormal_and_deterministic():
    q1 = haar_frame(make_rng(3), 9, 4)
    q2 = haar_frame(make_rng(3), 9, 4)
    assert np.array_equal(q1, q2)
    assert np.max(np.abs(q1.T @ q1 - np.eye(4))) < 1e-12


# -------------------------------------------------- quadratic objective


def test_quadratic_at_target():
    x_star = random_ground_truth(6, 3, 2.0, 0)
    f = quadratic_objective(x_star)
    xd = x_star.dense()
    assert f.value(xd) == 0.0
    assert np.all(f.gradient(xd) == 0.0)


def test_quadratic_gradient_is_displacement():
    x_star = random_ground_truth(6, 3, 2.0, 1)
    f = quadratic_objective(x_star)
    e = make_rng(2).standard_normal((6, 6))
    assert np.allclose(f.gradient(x_star.dense() + e), e, atol=1e-14)


def test_quadratic_finite_difference_gradient():
    x_star = random_ground_truth(5, 2, 3.0, 4)
    f = quadratic_objective(x_star)
    x = make_rng(5).standard_normal((5, 5))
    g = f.gradient(x)
    assert np.linalg.norm(fd_gradient(f, x) - g) / np.linalg.norm(g) < 1e-5


def test_quadratic_constants():
    f = QuadraticObjective(np.zeros((3, 3)))
    assert f.smoothness_constants() == (1.0, 1.0)


def test_ground_truth_spectrum():
    x = random_ground_truth(8, 4, 20.0, 11)
    assert np.allclose(x.sigma, np.linspace(1.0, 0.05, 4))
    single = random_ground_truth(8, 1, 5.0, 11)
    assert np.allclose(single.sigma, [1.0])
    sym = random_ground_truth(8, 3, 2.0, 11, symmetric_psd=True)
    assert np.array_equal(sym.u, sym.v)
    with pytest.raises(ValueError):
        random_ground_truth(8, 0, 2.0, 1)
    with pytest.raises(ValueError):
        random_ground_truth(8, 2, 0.5, 1)


# -------------------------------------------------- sensing instances


def test_sensing_observation_consistency():
    p = generate_sensing(n=6, r=3, r_star=2, kappa=4.0, seed=9)
    xsd = p.ground_truth.dense()
    # recompute every inner product independently
    y = np.array([float(np.sum(p.operators[i] * xsd)) for i in range(p.m)])
    assert np.allclose(y, p.observations, atol=1e-14)
    assert p.m == 3 * 6 * 3
    assert np.allclose(p.ground_truth.sigma, [1.0, 0.25])


def test_sensing_operator_scale():
    p = generate_sensing(n=8, r=2, r_star=2, kappa=1.0, m=600, seed=3)
    # entries are N(0, 1/m); loose 3-sigma style band on the sample std
    sd = p.operators.std()
    assert 0.9 / np.sqrt(p.m) < sd < 1.1 / np.sqrt(p.m)


def test_sensing_determinism_and_param_validation():
    a = generate_sensing(n=5, r=2, r_star=2, kappa=2.0, seed=42)
    b = generate_sensing(n=5, r=2, r_star=2, kappa=2.0, seed=42)
    assert np.array_equal(a.operators, b.operators)
    assert np.array_equal(a.observations, b.observations)
    assert np.array_equal(a.ground_truth.dense(), b.ground_truth.dense())
    with pytest.raises(ValueError):
        generate_sensing(n=5, r=2, r_star=3, kappa=2.0)
    with pytest.raises(ValueError):
        generate_sensing(n=5, r=2, r_star=2, kappa=0.9)
    with pytest.raises(ValueError, match="^m must be positive$"):
        generate_sensing(n=5, r=2, r_star=2, kappa=2.0, m=0)


@pytest.mark.parametrize("kappa", [float("inf"), float("nan")])
def test_non_finite_kappa_is_rejected(kappa):
    # inf would give a zero singular value, nan an all-nan truth
    with pytest.raises(ValueError, match="kappa must be finite"):
        random_ground_truth(5, 3, kappa, 0)
    with pytest.raises(ValueError, match="kappa must be finite"):
        generate_sensing(n=5, r=3, r_star=3, kappa=kappa)


def test_adjoint_identity():
    p = generate_sensing(n=6, r=2, r_star=2, kappa=3.0, seed=8)
    rng = make_rng(9)
    for _ in range(10):
        x = rng.standard_normal((6, 6))
        w = rng.standard_normal(p.m)
        lhs = float(p.apply(x) @ w)
        rhs = float(np.sum(x * p.adjoint(w)))
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def test_sensing_objective_at_truth_and_zero():
    p = generate_sensing(n=6, r=3, r_star=3, kappa=2.0, seed=10)
    f = sensing_objective(p)
    xsd = p.ground_truth.dense()
    assert f.value(xsd) < 1e-28
    assert np.linalg.norm(f.gradient(xsd)) < 1e-13
    # 0.5 factor is this library's convention for the least-squares loss
    y = p.observations
    assert abs(f.value(np.zeros((6, 6))) - 0.5 * float(y @ y)) < 1e-14


def test_sensing_finite_difference_gradient():
    p = generate_sensing(n=5, r=2, r_star=2, kappa=2.0, seed=12)
    f = sensing_objective(p)
    x = make_rng(13).standard_normal((5, 5))
    g = f.gradient(x)
    assert np.linalg.norm(fd_gradient(f, x) - g) / np.linalg.norm(g) < 1e-5


def test_psd_sensing_gradient_symmetric():
    p = generate_sensing(n=6, r=2, r_star=2, kappa=2.0, seed=14, symmetric_psd=True)
    f = sensing_objective(p)
    x = make_rng(15).standard_normal((6, 6))
    x = x @ x.T
    g = f.gradient(x)
    assert np.linalg.norm(g - g.T) < 1e-14
    # symmetrized gradient equals the gradient with symmetrized operators
    ops = 0.5 * (p.operators + np.transpose(p.operators, (0, 2, 1)))
    res = p.apply(x) - p.observations
    ref = np.tensordot(res, ops, axes=(0, 0))
    assert np.allclose(g, ref, atol=1e-12)


@pytest.mark.parametrize("psd", [False, True])
def test_sensing_value_and_grad_matches_separate_calls(psd):
    # at the shipped sizes: fig1 and fig2 (m = 3nr at n = 10, r = 4) and
    # fig3 (m = 10nr), and a small odd n
    for n, m in ((7, 63), (10, 120), (10, 400)):
        p = generate_sensing(n=n, r=3, r_star=2, kappa=4.0, m=m, seed=16, symmetric_psd=psd)
        f = sensing_objective(p)
        rng = make_rng(17)
        for _ in range(5):
            x = rng.standard_normal((n, n))
            if psd:
                x = x @ x.T
            fv, g = f.value_and_grad(x)
            assert fv == f.value(x), (n, m)
            assert g.tobytes() == f.gradient(x).tobytes(), (n, m)
            # the flat (m, n*n) operator gives the tensor contraction's bits
            res = np.tensordot(p.operators, x, axes=([1, 2], [0, 1])) - p.observations
            ref = np.tensordot(res, p.operators, axes=(0, 0))
            if psd:
                ref = 0.5 * (ref + ref.T)
            assert fv == 0.5 * float(res @ res), (n, m)
            assert g.tobytes() == ref.tobytes(), (n, m)


def test_sensing_gradient_is_one_operator_pass_pair(monkeypatch):
    # gradient forms the residual and its adjoint only: one apply, one adjoint
    from rankmin.objectives import SensingProblem
    calls = []
    for name in ("apply", "adjoint"):
        fn = getattr(SensingProblem, name)
        monkeypatch.setattr(SensingProblem, name,
                            lambda self, a, name=name, fn=fn: calls.append(name) or fn(self, a))
    f = sensing_objective(generate_sensing(n=6, r=2, r_star=2, kappa=2.0, seed=14))
    f.gradient(make_rng(15).standard_normal((6, 6)))
    assert calls == ["apply", "adjoint"]


def test_quadratic_value_and_grad_matches_separate_calls():
    # bit for bit, at sizes on both sides of BLAS unrolling and blocking
    for n in (6, 9, 40):
        f = quadratic_objective(random_ground_truth(n, 3, 2.0, 18))
        x = make_rng(19).standard_normal((n, n))
        fv, g = f.value_and_grad(x)
        assert fv == f.value(x)
        assert fv == pytest.approx(0.5 * np.sum((x - f.target) ** 2), rel=1e-14)
        assert np.array_equal(g, f.gradient(x))


# -------------------------------------------------- spectral initialization


def test_spectral_init_zero_observations():
    import dataclasses
    p = generate_sensing(n=5, r=2, r_star=2, kappa=2.0, seed=16)
    z = dataclasses.replace(p, observations=np.zeros(p.m))
    init = spectral_init(z)
    assert init.rank == 0
    assert np.all(init.dense() == 0.0)


def test_spectral_init_concentrates_at_large_m():
    n, r = 8, 2
    p = generate_sensing(n=n, r=r, r_star=r, kappa=2.0, m=50 * n * r, seed=17)
    init = spectral_init(p)
    xsd = p.ground_truth.dense()
    rel = np.linalg.norm(init.dense() - xsd) / np.linalg.norm(xsd)
    print(f"spectral init relative error at m=50nr: {rel:.3f}")
    assert rel < 0.5


def test_spectral_init_deterministic():
    a = spectral_init(generate_sensing(n=6, r=2, r_star=2, kappa=5.0, seed=18))
    b = spectral_init(generate_sensing(n=6, r=2, r_star=2, kappa=5.0, seed=18))
    assert np.array_equal(a.dense(), b.dense())


def test_spectral_init_psd_uses_symmetric_projection():
    p = generate_sensing(n=6, r=2, r_star=2, kappa=2.0, seed=19, symmetric_psd=True)
    init = spectral_init(p)
    assert np.array_equal(init.u, init.v)
    d = init.dense()
    assert np.linalg.norm(d - d.T) < 1e-12
