"""Dense kernels for the fixed-rank variety: truncated SVD projections, the
tangent space at a rank-r point, a second-order retraction, and pullbacks.

A rank-k matrix is stored as an SVD triple (u, sigma, v) with orthonormal
frames.  Tangent vectors are kept in the full frames P = [U U_perp],
Q = [V V_perp] of the base point, as one n1 x n2 array

    st = P^T Z Q = [[core, right], [left, 0]],

with a core k x k block, a left (n1-k) x k block and a right k x (n2-k)
block, so that Z = U core V^T + U_perp left V^T + U right V_perp^T.

All kernels are written for desk-scale dense matrices (n up to a few
hundred); nothing here is sparse or randomized.
"""

from __future__ import annotations

import math

import numpy as np

# frame orthonormality acceptance, relative reconstruction acceptance
ORTHONORMALITY_TOL = 1e-10
# singular values below this fraction of sigma_1 are dropped at projection time
SINGULAR_VALUE_DROP = 1e-13
# relative floor for inverting the retraction core
RETRACTION_CORE_FLOOR = 1e-14


class RankProjectionError(RuntimeError):
    """SVD/eig failed to converge on the projection input."""


class RetractionUndefinedError(ValueError):
    """Retraction core Sigma + S_core is singular; the retracted point would drop rank."""


def _readonly(a, dtype=float):
    out = np.array(a, dtype=dtype, copy=True, order="C")
    out.flags.writeable = False
    return out


def _full_frame(q: np.ndarray) -> np.ndarray:
    """[q, q_perp]: orthonormal columns q completed to a square orthogonal matrix."""
    n, k = q.shape
    if k == 0:
        return np.eye(n)
    if k >= n:
        return q
    full, _ = np.linalg.qr(q, mode="complete")
    # complete-QR columns past k are orthogonal to span(q) by construction
    return np.concatenate([q, full[:, k:]], axis=1)


class FactoredMatrix:
    """Rank-k matrix u @ diag(sigma) @ v.T with orthonormal u, v.

    sigma is nonincreasing and strictly positive; k may be smaller than the
    search rank used to produce the point (rank-deficient projections are
    legal values, not errors).  Instances are immutable; the full frames
    P = [u u_perp] and Q = [v v_perp] are computed on first use and cached
    (one array for both when u is v, as on the PSD set).
    """

    __slots__ = ("u", "sigma", "v", "_p", "_q")

    def __init__(self, u, sigma, v, validate: bool = True):
        u = _readonly(u)
        sigma = _readonly(sigma)
        v = _readonly(v)
        if u.ndim != 2 or v.ndim != 2 or sigma.ndim != 1:
            raise ValueError("u, v must be 2-d and sigma 1-d")
        k = sigma.shape[0]
        if u.shape[1] != k or v.shape[1] != k:
            raise ValueError("frame widths must match len(sigma)")
        if validate:
            if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v)) and np.all(np.isfinite(sigma))):
                raise ValueError("non-finite entries in factors")
            if k and (np.any(sigma <= 0) or np.any(np.diff(sigma) > 0)):
                raise ValueError("sigma must be positive and nonincreasing")
            for name, frame in (("u", u), ("v", v)):
                gram = frame.T @ frame
                if np.max(np.abs(gram - np.eye(k))) > ORTHONORMALITY_TOL:
                    raise ValueError(f"{name} is not orthonormal within {ORTHONORMALITY_TOL:g}")
        self.u = u
        self.sigma = sigma
        self.v = v
        self._p = self._q = None

    @property
    def shape(self):
        return (self.u.shape[0], self.v.shape[0])

    @property
    def rank(self) -> int:
        return int(self.sigma.shape[0])

    def _frames(self):
        """(P, Q), the square orthogonal frames [u u_perp] and [v v_perp]."""
        if self._p is None:
            self._p = _readonly(_full_frame(self.u))
            self._q = self._p if self.v is self.u else _readonly(_full_frame(self.v))
        return self._p, self._q

    @property
    def u_perp(self) -> np.ndarray:
        return self._frames()[0][:, self.rank:]

    @property
    def v_perp(self) -> np.ndarray:
        return self._frames()[1][:, self.rank:]

    def dense(self) -> np.ndarray:
        return (self.u * self.sigma) @ self.v.T

    def frobenius_norm(self) -> float:
        return float(np.linalg.norm(self.sigma))

    def spectral_norm(self) -> float:
        return float(self.sigma[0]) if self.rank else 0.0

    def sigma_min(self) -> float:
        return float(self.sigma[-1]) if self.rank else 0.0

    def sigma_r(self, r: int) -> float:
        """r-th singular value under search rank r; zero when the point is rank deficient."""
        return float(self.sigma[r - 1]) if self.rank >= r else 0.0

    def balanced_factors(self):
        """(left, right) with left @ right.T == dense(): u*sqrt(sigma), v*sqrt(sigma)."""
        root = np.sqrt(self.sigma)
        return self.u * root, self.v * root

    @classmethod
    def _frozen(cls, u, sigma, v) -> "FactoredMatrix":
        """Wrap fresh float arrays that no caller holds, read-only and
        without the copies and shape checks of __init__."""
        for a in (u, sigma, v):
            a.flags.writeable = False
        self = object.__new__(cls)
        self.u, self.sigma, self.v = u, sigma, v
        self._p = self._q = None
        return self

    @classmethod
    def zero(cls, n1: int, n2: int) -> "FactoredMatrix":
        return cls(np.zeros((n1, 0)), np.zeros(0), np.zeros((n2, 0)), validate=False)

    def __repr__(self):
        return f"FactoredMatrix(shape={self.shape}, rank={self.rank})"


def _check_projection_input(z, r) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if z.ndim != 2:
        raise ValueError("projection input must be a matrix")
    if not np.isfinite(z).all():
        raise ValueError("projection input has non-finite entries")
    if not 1 <= r <= min(z.shape):
        raise ValueError(f"rank r={r} outside [1, min(shape)={min(z.shape)}]")
    return z


def project_rank_r(z, r: int) -> FactoredMatrix:
    """Best rank-r approximation of z in Frobenius norm (truncated SVD).

    Singular values below SINGULAR_VALUE_DROP * sigma_1 are dropped, so the
    result can have rank k < r.  The zero matrix projects to the empty
    (k = 0) factorization.
    """
    return _truncate(_check_projection_input(z, r), r)


def _truncate(z: np.ndarray, r: int) -> FactoredMatrix:
    """project_rank_r, unchecked: z finite floats, 1 <= r <= min(z.shape)."""
    try:
        u, s, vt = np.linalg.svd(z, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        scale = float(np.max(np.abs(z)))
        raise RankProjectionError(
            f"SVD did not converge (input max magnitude {scale:.3e})"
        ) from exc
    if s[0] <= 0.0:
        return FactoredMatrix.zero(*z.shape)
    keep = min(r, np.count_nonzero(s > SINGULAR_VALUE_DROP * s[0]))
    return FactoredMatrix._frozen(u[:, :keep], s[:keep], vt[:keep].T)


def project_psd_rank_r(z, r: int) -> FactoredMatrix:
    """Closest PSD matrix of rank <= r: keep the r algebraically largest
    eigenvalues, clip them at zero.  Returns a factorization with u = v.
    """
    z = _check_projection_input(z, r)
    if z.shape[0] != z.shape[1]:
        raise ValueError("PSD projection needs a square matrix")
    asym = np.linalg.norm(z - z.T)
    if asym > ORTHONORMALITY_TOL * max(1.0, float(np.linalg.norm(z))):
        raise ValueError(f"input is not symmetric (||z - z.T||_F = {asym:.3e})")
    sym = 0.5 * (z + z.T)
    try:
        w, q = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise RankProjectionError("eigendecomposition did not converge") from exc
    w = w[::-1]
    q = q[:, ::-1]
    lam = np.clip(w[:r], 0.0, None)
    if lam.size == 0 or lam[0] <= 0.0:
        return FactoredMatrix.zero(*z.shape)
    keep = np.count_nonzero(lam > SINGULAR_VALUE_DROP * lam[0])
    # u = v: one C-ordered copy of the reversed eigenvector columns
    qk = np.ascontiguousarray(q[:, :keep])
    return FactoredMatrix._frozen(qk, lam[:keep], qk)


class TangentVector:
    """Element of the tangent space at a rank-k base point, stored as the
    n1 x n2 array st = [[core, right], [left, 0]] in the base's full frames
    (see the module docstring).  core, left and right are views into st.

    Supports the small amount of vector arithmetic the tangent-descent loop
    needs, each one array operation; operands must share the same base
    object.
    """

    __slots__ = ("st", "base")

    def __init__(self, core, left, right, base: FactoredMatrix):
        k = base.rank
        n1, n2 = base.shape
        core = np.asarray(core, dtype=float)
        left = np.asarray(left, dtype=float)
        right = np.asarray(right, dtype=float)
        if core.shape != (k, k) or left.shape != (n1 - k, k) or right.shape != (k, n2 - k):
            raise ValueError("tangent block shapes do not match the base point")
        self.st = np.block([[core, right], [left, np.zeros((n1 - k, n2 - k))]])
        self.base = base

    @classmethod
    def _wrap(cls, st, base: FactoredMatrix) -> "TangentVector":
        """Wrap a fresh frame array whose outer block is zero, without checks."""
        self = object.__new__(cls)
        self.st = st
        self.base = base
        return self

    core = property(lambda self: self.st[:self.base.rank, :self.base.rank])
    left = property(lambda self: self.st[self.base.rank:, :self.base.rank])
    right = property(lambda self: self.st[:self.base.rank, self.base.rank:])

    def norm(self) -> float:
        return math.sqrt(np.vdot(self.st, self.st))

    def dense(self) -> np.ndarray:
        p, q = self.base._frames()
        return p @ self.st @ q.T

    def coords(self) -> np.ndarray:
        return np.concatenate([self.core.ravel(), self.left.ravel(), self.right.ravel()])

    @classmethod
    def from_coords(cls, x, base: FactoredMatrix) -> "TangentVector":
        k = base.rank
        n1, n2 = base.shape
        x = np.asarray(x, dtype=float)
        if x.shape != (tangent_dim(base),):
            raise ValueError("coordinate vector has wrong length")
        a = k * k
        b = a + (n1 - k) * k
        return cls(
            x[:a].reshape(k, k),
            x[a:b].reshape(n1 - k, k),
            x[b:].reshape(k, n2 - k),
            base,
        )

    @classmethod
    def zero(cls, base: FactoredMatrix) -> "TangentVector":
        return cls._wrap(np.zeros(base.shape), base)

    def _match(self, other):
        if self.base is not other.base:
            raise ValueError("tangent vectors live at different base points")

    def __add__(self, other):
        self._match(other)
        return TangentVector._wrap(self.st + other.st, self.base)

    def __sub__(self, other):
        self._match(other)
        return TangentVector._wrap(self.st - other.st, self.base)

    def __mul__(self, a):
        return TangentVector._wrap(float(a) * self.st, self.base)

    __rmul__ = __mul__

    def inner(self, other) -> float:
        self._match(other)
        return float(np.vdot(self.st, other.st))


def tangent_dim(base: FactoredMatrix) -> int:
    k = base.rank
    n1, n2 = base.shape
    return k * (n1 + n2 - k)


def project_tangent(z, base: FactoredMatrix) -> TangentVector:
    """Orthogonal projection of an ambient matrix onto the tangent space at base:
    drop the (U_perp, V_perp) outer block, keep the other three."""
    z = np.asarray(z, dtype=float)
    if z.shape != base.shape:
        raise ValueError(f"shape mismatch: z {z.shape} vs base {base.shape}")
    p, q = base._frames()
    st = p.T @ z @ q
    k = base.rank
    st[k:, k:] = 0.0
    return TangentVector._wrap(st, base)


def _retraction_point(base: FactoredMatrix, s: TangentVector):
    """(Y, s.left W^{-1}, W^{-1} s.right) with W = diag(sigma) + s.core, for
    retract and pullback_value_grad.  Y is the retracted point in the base's
    full frames,

        Y = P^T Retr_base(s) Q = [[W, s.right], [s.left, s.left W^{-1} s.right]].

    Raises RetractionUndefinedError when W is numerically singular, i.e.
    sigma_min(W) <= RETRACTION_CORE_FLOOR * max(1, sigma_max(W)).  With
    c = ||s.core||_F, Weyl's inequality puts the singular values of W within
    c of sigma, so when sigma_k - c clears twice the floor at sigma_1 + c
    (the factor 2 absorbs rounding) W passes without an SVD; otherwise the
    singular values of W are computed and tested exactly."""
    if s.base is not base:
        raise ValueError("tangent vector does not live at this base point")
    k = base.rank
    y = s.st.copy()
    c = math.sqrt(np.vdot(y[:k, :k], y[:k, :k]))
    y.ravel()[:k * (y.shape[1] + 1):y.shape[1] + 1] += base.sigma   # core diagonal: W
    if not (k and float(base.sigma[-1]) - c
            > 2.0 * RETRACTION_CORE_FLOOR * max(1.0, float(base.sigma[0]) + c)):
        sv = np.linalg.svd(y[:k, :k], compute_uv=False)
        if sv.size == 0 or sv[-1] <= RETRACTION_CORE_FLOOR * max(1.0, float(sv[0])):
            raise RetractionUndefinedError(
                f"retraction undefined: core Sigma + S_core is singular "
                f"(sigma_min = {0.0 if sv.size == 0 else float(sv[-1]):.3e})"
            )
    winv = np.linalg.inv(y[:k, :k])
    l_winv = y[k:, :k] @ winv
    winv_r = winv @ y[:k, k:]
    y[k:, k:] = l_winv @ y[:k, k:]
    return y, l_winv, winv_r


def retract(base: FactoredMatrix, s: TangentVector) -> FactoredMatrix:
    """Second-order retraction of tangent vector s at base.

    With W = diag(sigma) + s.core, the retracted point is the rank-k matrix

        (U W + U_perp s.left) W^{-1} (W V^T + s.right V_perp^T),

    whose tangent projection of the displacement is exactly s; the
    correction lives entirely in the (U_perp, V_perp) corner.  Requires W
    nonsingular, otherwise the point would leave the rank-k stratum.  The
    point is formed in the base's full frames and factored by
    project_rank_r.
    """
    p, q = base._frames()
    return project_rank_r(p @ _retraction_point(base, s)[0] @ q.T, base.rank)


def _value_and_grad_of(f):
    """f's fused value_and_grad, or a function of its separate value and gradient."""
    return getattr(f, "value_and_grad", None) or (lambda x: (f.value(x), f.gradient(x)))


def _value_and_grad(f, x: np.ndarray):
    """(f(X), grad f(X)) as a float and a float array."""
    fv, g = _value_and_grad_of(f)(x)
    return float(fv), np.asarray(g, dtype=float)


def pullback_value_grad(f, base: FactoredMatrix, s: TangentVector):
    """Value and gradient of the pulled-back objective f(Retr_base(s)).

    The retracted point is formed in the base's full frames (see retract),
    with no factorisation.  When f has in_frames, f.in_frames(P, Q) is
    evaluated at that frame array directly, so no n x n rotation runs;
    otherwise f is evaluated at the dense point P Y Q^T and its gradient
    rotated into the frames.  The gradient is returned as a tangent vector
    at base.  With G = grad f at the retracted point, P^T G Q =
    [[Gc, Gr], [Gl, Go]] and W = diag(sigma) + s.core:

        d core  = Gc - W^{-T} s.left^T Go s.right^T W^{-T}
        d left  = Gl + Go s.right^T W^{-T}
        d right = Gr + W^{-T} s.left^T Go

    At s = 0 this reduces to the tangent projection of grad f(base).
    """
    y, l_winv, winv_r = _retraction_point(base, s)
    p, q = base._frames()
    in_frames = getattr(f, "in_frames", None)
    if in_frames is not None:
        # a fresh gradient array: [[Gc, Gr], [Gl, Go]], corrected in place
        val, gt = _value_and_grad(in_frames(p, q), y)
    else:
        val, g = _value_and_grad(f, p @ y @ q.T)
        gt = p.T @ g @ q
    k = base.rank
    go = gt[k:, k:]
    lw_go = l_winv.T @ go           # W^{-T} s.left^T Go
    gt[:k, :k] -= lw_go @ winv_r.T
    gt[k:, :k] += go @ winv_r.T
    gt[:k, k:] += lw_go
    go[...] = 0.0
    return val, TangentVector._wrap(gt, base)


def _tangent_basis(base: FactoredMatrix) -> np.ndarray:
    """The dense matrices of the orthonormal coordinate basis of the tangent
    space, shape (d, n1, n2), in the order of TangentVector.coords."""
    u, v, up, vp = base.u, base.v, base.u_perp, base.v_perp
    blocks = (
        np.einsum("ia,jb->abij", u, v),      # core (a, b):  u_a v_b^T
        np.einsum("ip,ja->paij", up, v),     # left (p, a):  up_p v_a^T
        np.einsum("ib,jq->bqij", u, vp),     # right (b, q): u_b vp_q^T
    )
    return np.concatenate([blk.reshape(-1, *base.shape) for blk in blocks])


def pullback_hessian(f, base: FactoredMatrix) -> np.ndarray:
    """Hessian of the pullback at s = 0 over the orthonormal coordinate basis
    of the tangent space (dimension k(n1+n2-k)), in closed form.

    The retraction is second order, so this is the Riemannian Hessian: the
    tangent part of the Euclidean Hessian, <e_i, hess f(X)[e_j]>, from one
    stacked f.hessian_vector call, plus the Weingarten coupling of the left
    and right blocks through the outer block Go of grad f(X):

        d left = Go xi.right^T Sigma^{-1}      d right = Sigma^{-1} xi.left^T Go

    f must provide hessian_vector(x, z).  The matrix is returned as computed,
    not symmetrized.
    """
    x = base.dense()
    basis = _tangent_basis(base)
    d = basis.shape[0]
    flat = basis.reshape(d, -1)
    hess = flat @ np.asarray(f.hessian_vector(x, basis), dtype=float).reshape(d, -1).T
    k = base.rank
    n1, n2 = base.shape
    p, q = base._frames()
    go = (p.T @ np.asarray(f.gradient(x), dtype=float) @ q)[k:, k:]
    # left coordinate (p, a) against right coordinate (b, q): Go[p, q] [a == b] / sigma_a
    coupling = np.einsum("pq,ab->pabq", go, np.diag(1.0 / base.sigma))
    coupling = coupling.reshape((n1 - k) * k, k * (n2 - k))
    lo, hi = k * k, k * k + (n1 - k) * k
    hess[lo:hi, hi:] += coupling
    hess[hi:, lo:hi] += coupling.T
    return hess


def pullback_hessian_min_eig(f, base: FactoredMatrix):
    """Smallest eigenvalue of the (symmetrized) pullback Hessian at s = 0 and
    the corresponding tangent direction."""
    hess = pullback_hessian(f, base)
    sym = 0.5 * (hess + hess.T)
    w, q = np.linalg.eigh(sym)
    return float(w[0]), TangentVector.from_coords(q[:, 0], base)
