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
    """The interface every objective subclasses and the solvers read
    directly: value and gradient, which a subclass defines; value_and_grad,
    which defaults to the two separate calls; the Hessian-vector product
    that the second-order certificate needs; the symmetric_psd flag (False);
    and the restricted smoothness and convexity constants (L, mu), None by
    default.

    in_frames(p, q), for square orthogonal p and q, returns an objective g
    with g(Y) = f(p Y q^T) whose gradient(Y) gives p^T grad f(p Y q^T) q,
    or None (the default) when f has no such form.  The pullback builds g
    once per base point (once per escape) and evaluates it in the base's
    full frames when there is one, and otherwise rotates each point and
    gradient.  Each inner step of the escape calls only the gradient, that
    of g or f, and corrects the returned array in place, so that array must
    be fresh; the value is computed only through pullback_value_grad.  g is
    called at one reused buffer and must keep no reference to it after."""

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

    def in_frames(self, p: np.ndarray, q: np.ndarray):
        return None


class QuadraticObjective(Objective):
    """f(X) = 0.5 * ||X - target||_F^2 with gradient X - target.

    The canonical well-conditioned objective: L = mu = 1.
    """

    def __init__(self, target):
        if isinstance(target, FactoredMatrix):
            target = target.dense()
        target = np.array(target, dtype=float)
        target.flags.writeable = False
        self.target = target

    def value(self, x) -> float:
        d = x - self.target
        return 0.5 * float(np.vdot(d, d))

    def gradient(self, x) -> np.ndarray:
        return x - self.target

    def value_and_grad(self, x):
        d = x - self.target
        return 0.5 * float(np.vdot(d, d)), d

    def in_frames(self, p, q) -> "QuadraticObjective":
        """0.5 * ||Y - p^T target q||_F^2, equal to f(p Y q^T) for square
        orthogonal p, q."""
        return QuadraticObjective(p.T @ self.target @ q)

    def hessian_vector(self, x, z):
        return z

    def smoothness_constants(self):
        return (1.0, 1.0)


def quadratic_objective(x_star) -> QuadraticObjective:
    return QuadraticObjective(x_star)


def random_ground_truth(n: int, r_star: int, kappa: float, seed_or_rng,
                        symmetric_psd: bool = False) -> FactoredMatrix:
    """Rank-r* ground truth with singular values linearly spaced from 1 down
    to 1/kappa and Haar-random frames (shared frame in the PSD case)."""
    if not 1 <= r_star <= n:
        raise ValueError("need 1 <= r_star <= n")
    if not (np.isfinite(kappa) and kappa >= 1):
        raise ValueError(f"kappa must be finite and >= 1, got {kappa!r}")
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
    use it as the C-contiguous (m, n*n) matrix it is in memory, a view
    taken once at construction: one ndarray.dot matrix-vector product each,
    bit-identical to the tensor contraction and to @, with less call
    overhead.  They are the objective's only operator passes.
    """

    n: int
    r: int
    m: int
    symmetric_psd: bool
    operators: np.ndarray
    observations: np.ndarray
    ground_truth: FactoredMatrix

    def __post_init__(self):
        object.__setattr__(self, "_flat", self.operators.reshape(self.m, -1))

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self._flat.dot(x.ravel())

    def adjoint(self, w: np.ndarray) -> np.ndarray:
        return w.dot(self._flat).reshape(self.n, self.n)


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
        n=n, r=r, m=m, symmetric_psd=bool(symmetric_psd), operators=operators,
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

    # apply returns a fresh array, so the residual A(X) - y is formed in place
    def value(self, x) -> float:
        res = self.problem.apply(x)
        res -= self.problem.observations
        return 0.5 * float(res.dot(res))

    def gradient(self, x) -> np.ndarray:
        """One apply and one adjoint, without the value's res . res."""
        res = self.problem.apply(x)
        res -= self.problem.observations
        g = self.problem.adjoint(res)
        return 0.5 * (g + g.T) if self.symmetric_psd else g

    def value_and_grad(self, x):
        """value(x) and gradient(x) from one residual: one apply, one adjoint."""
        res = self.problem.apply(x)
        res -= self.problem.observations
        g = self.problem.adjoint(res)
        if self.symmetric_psd:
            g = 0.5 * (g + g.T)
        return 0.5 * float(res.dot(res)), g

    def hessian_vector(self, x, z):
        """A*A z through the flat (m, n*n) operator, for one direction or a
        stack; symmetrized in PSD mode like the gradient.  f is quadratic,
        so x does not enter."""
        z = np.asarray(z, dtype=float)
        ops = self.problem._flat
        hz = ((z.reshape(-1, ops.shape[1]) @ ops.T) @ ops).reshape(z.shape)
        if self.symmetric_psd:
            hz = 0.5 * (hz + np.swapaxes(hz, -1, -2))
        return hz


def sensing_objective(problem: SensingProblem) -> SensingObjective:
    return SensingObjective(problem)


def spectral_init(problem: SensingProblem) -> FactoredMatrix:
    """Rank-r truncation of sum_i y_i A_i, with r = problem.r, the usual
    one-shot initializer.  Zero observations produce the empty (rank-0)
    factorization."""
    m = problem.adjoint(problem.observations)
    if problem.symmetric_psd:
        return project_psd_rank_r(0.5 * (m + m.T), problem.r)
    return project_rank_r(m, problem.r)
