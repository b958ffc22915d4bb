"""Objectives for rank-constrained estimation and the random instances the
experiments run on.

Two objectives are provided: the identity quadratic 0.5 * ||X - T||_F^2 and
the linear-measurement least-squares ||A(X) - y||^2 built from Gaussian
sensing operators.  Randomness everywhere flows through the counter-based
Philox generator so that a seed pins the instance bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import FactoredMatrix, project_psd_rank_r, project_rank_r


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator (Philox) keyed by (seed, stream).

    Philox streams with distinct keys are independent, so per-purpose
    sub-generators never perturb each other when one purpose draws more.
    """
    key = np.array([int(seed) % (1 << 64), int(stream) % (1 << 64)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def haar_frame(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """Haar-distributed n x k orthonormal frame: QR of a Gaussian with the
    R diagonal sign fixed, which makes the draw unique and unbiased."""
    a = rng.standard_normal((n, k))
    q, r = np.linalg.qr(a)
    d = np.sign(np.diag(r))
    d[d == 0] = 1.0
    return q * d


class Objective:
    """Minimal interface the solvers need: value, gradient, and (optionally)
    the fused value_and_grad, the Hessian-vector product that the
    second-order certificate needs, and restricted smoothness/convexity
    constants (L, mu, rho)."""

    symmetric_psd = False

    def value(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def gradient(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def value_and_grad(self, x: np.ndarray):
        """(value(x), gradient(x)); subclasses override it to share work."""
        return self.value(x), self.gradient(x)

    def hessian_vector(self, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        """hess f(x)[z] for one direction z or a stack of shape (..., n1, n2)."""
        raise NotImplementedError

    def smoothness_constants(self):
        return None


class QuadraticObjective(Objective):
    """f(X) = 0.5 * ||X - target||_F^2 with gradient X - target.

    The canonical well-conditioned objective: L = mu = 1, exactly quadratic
    (rho = 0).
    """

    def __init__(self, target):
        if isinstance(target, FactoredMatrix):
            target = target.dense()
        target = np.array(target, dtype=float)
        target.flags.writeable = False
        self.target = target

    def value(self, x) -> float:
        d = x - self.target
        return 0.5 * float(np.sum(d * d))

    def gradient(self, x) -> np.ndarray:
        return x - self.target

    def value_and_grad(self, x):
        d = x - self.target
        return 0.5 * float(np.sum(d * d)), d

    def hessian_vector(self, x, z):
        return z

    def smoothness_constants(self):
        return (1.0, 1.0, 0.0)


def quadratic_objective(x_star) -> QuadraticObjective:
    return QuadraticObjective(x_star)


def random_ground_truth(n: int, r_star: int, kappa: float, seed_or_rng,
                        symmetric_psd: bool = False) -> FactoredMatrix:
    """Rank-r* ground truth with singular values linearly spaced from 1 down
    to 1/kappa and Haar-random frames (shared frame in the PSD case)."""
    if not 1 <= r_star <= n:
        raise ValueError("need 1 <= r_star <= n")
    if kappa < 1:
        raise ValueError("kappa must be >= 1")
    rng = seed_or_rng if isinstance(seed_or_rng, np.random.Generator) else make_rng(seed_or_rng)
    sigma = np.linspace(1.0, 1.0 / kappa, r_star)
    u = haar_frame(rng, n, r_star)
    v = u if symmetric_psd else haar_frame(rng, n, r_star)
    return FactoredMatrix(u, sigma, v, validate=False)


@dataclass(frozen=True)
class SensingProblem:
    """A matrix-sensing instance: y_i = <A_i, X*> with Gaussian A_i.

    operators has shape (m, n, n) with i.i.d. N(0, 1/m) entries, so
    sum_i y_i A_i is already an unbiased estimate of X*.  apply and adjoint
    use it as the C-contiguous (m, n*n) matrix it is in memory: one
    matrix-vector product each, bit-identical to the tensor contraction.
    The tuple (n, r, r_star, kappa, m, seed, symmetric_psd) regenerates the
    instance exactly; the tensors are kept for convenience.
    """

    n: int
    r: int
    r_star: int
    kappa: float
    m: int
    seed: int
    symmetric_psd: bool
    operators: np.ndarray
    observations: np.ndarray
    ground_truth: FactoredMatrix

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.operators.reshape(self.m, -1) @ x.ravel()

    def adjoint(self, w: np.ndarray) -> np.ndarray:
        return (w @ self.operators.reshape(self.m, -1)).reshape(self.n, self.n)

    def params(self) -> dict:
        return {
            "n": self.n, "r": self.r, "r_star": self.r_star, "kappa": self.kappa,
            "m": self.m, "seed": self.seed, "symmetric_psd": self.symmetric_psd,
        }


def generate_sensing(n: int, r: int, r_star: int, kappa: float, m: int | None = None,
                     seed: int = 0, symmetric_psd: bool = False) -> SensingProblem:
    """Draw a sensing instance.  m defaults to 3nr.  Draw order is fixed
    (frames first, then operators) so the instance is a pure function of the
    seed and the parameters."""
    if not 1 <= r_star <= r <= n:
        raise ValueError("need 1 <= r_star <= r <= n")
    m = 3 * n * r if m is None else int(m)
    if m < 1:
        raise ValueError("m must be positive")
    rng = make_rng(seed)
    x_star = random_ground_truth(n, r_star, kappa, rng, symmetric_psd=symmetric_psd)
    operators = rng.standard_normal((m, n, n)) / np.sqrt(m)
    observations = operators.reshape(m, -1) @ x_star.dense().ravel()
    operators.flags.writeable = False
    observations.flags.writeable = False
    return SensingProblem(
        n=n, r=r, r_star=r_star, kappa=float(kappa), m=m, seed=int(seed),
        symmetric_psd=bool(symmetric_psd), operators=operators,
        observations=observations, ground_truth=x_star,
    )


class SensingObjective(Objective):
    """Least squares f(X) = 0.5 ||A(X) - y||^2, gradient sum_i (<A_i, X> - y_i) A_i.

    The 0.5 matches quadratic_objective's convention: with variance-1/m
    operator entries the restricted curvature of A*A is close to 1, so step
    sizes behave like the quadratic case (eta near 1 marginally stable).
    Without it every eta doubles and the step-size benchmarks in the harness
    shift out of their documented windows.

    In PSD mode the gradient is symmetrized (equivalent to symmetrizing each
    operator, by linearity), which keeps symmetric iterates symmetric; the
    value path uses the raw operators.
    """

    def __init__(self, problem: SensingProblem):
        self.problem = problem
        self.symmetric_psd = problem.symmetric_psd

    def value(self, x) -> float:
        res = self.problem.apply(x) - self.problem.observations
        return 0.5 * float(res @ res)

    def gradient(self, x) -> np.ndarray:
        return self.value_and_grad(x)[1]

    def value_and_grad(self, x):
        """value(x) and gradient(x) from one residual: one apply, one adjoint."""
        res = self.problem.apply(x) - self.problem.observations
        g = self.problem.adjoint(res)
        if self.symmetric_psd:
            g = 0.5 * (g + g.T)
        return 0.5 * float(res @ res), g

    def hessian_vector(self, x, z):
        """A*A z through the flat (m, n*n) operator, for one direction or a
        stack; symmetrized in PSD mode like the gradient.  f is quadratic,
        so x does not enter."""
        z = np.asarray(z, dtype=float)
        ops = self.problem.operators.reshape(self.problem.m, -1)
        hz = ((z.reshape(-1, ops.shape[1]) @ ops.T) @ ops).reshape(z.shape)
        if self.symmetric_psd:
            hz = 0.5 * (hz + np.swapaxes(hz, -1, -2))
        return hz


def sensing_objective(problem: SensingProblem) -> SensingObjective:
    return SensingObjective(problem)


def spectral_init(problem: SensingProblem, r: int | None = None) -> FactoredMatrix:
    """Rank-r truncation of sum_i y_i A_i, the usual one-shot initializer.
    Zero observations produce the empty (rank-0) factorization."""
    r = problem.r if r is None else int(r)
    m = problem.adjoint(problem.observations)
    if problem.symmetric_psd:
        return project_psd_rank_r(0.5 * (m + m.T), r)
    return project_rank_r(m, r)
