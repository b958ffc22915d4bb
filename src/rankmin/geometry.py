"""Dense kernels for the fixed-rank variety: truncated SVD projections, the
tangent space at a rank-r point, a second-order retraction, and pullbacks.

A rank-k matrix is stored as an SVD triple (u, sigma, v) with orthonormal
frames.  Tangent vectors are kept in the full frames P = [U U_perp],
Q = [V V_perp] of the base point, as one n1 x n2 array

    st = P^T Z Q = [[core, right], [left, 0]],

with a core k x k block, a left (n1-k) x k block and a right k x (n2-k)
block, so that Z = U core V^T + U_perp left V^T + U right V_perp^T.
The tangent coordinates are defined once, by _coordinates(base).

All kernels are written for desk-scale dense matrices (n up to a few
hundred); nothing here is sparse or randomized.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.linalg import _umath_linalg

# frame orthonormality acceptance, relative reconstruction acceptance
ORTHONORMALITY_TOL = 1e-10
# singular values below this fraction of sigma_1 are dropped at projection time
SINGULAR_VALUE_DROP = 1e-13
# relative floor for inverting the retraction core
RETRACTION_CORE_FLOOR = 1e-14
# the LAPACK gufuncs behind np.linalg.inv, np.linalg.svd (reduced, and
# values only) and np.linalg.eigh, without their per-call dispatch; where
# LAPACK fails to converge they return NaN instead of raising, so each
# caller tests its first output value
_lapack_inv = _umath_linalg.inv
_lapack_svd = _umath_linalg.svd_s
_lapack_svdvals = _umath_linalg.svd
_lapack_eigh = _umath_linalg.eigh_lo


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
        return (self.u * self.sigma).dot(self.v.T)

    def frobenius_norm(self) -> float:
        return float(np.linalg.norm(self.sigma))

    def spectral_norm(self) -> float:
        return float(self.sigma[0]) if self.rank else 0.0

    def sigma_min(self) -> float:
        return float(self.sigma[-1]) if self.rank else 0.0

    def sigma_r(self, r: int) -> float:
        """r-th singular value under search rank r; zero when the point is rank deficient or r < 1."""
        return float(self.sigma[r - 1]) if 0 < r <= self.rank else 0.0

    def balanced_factors(self):
        """(left, right) with left @ right.T == dense(): u*sqrt(sigma), v*sqrt(sigma)."""
        root = np.sqrt(self.sigma)
        return self.u * root, self.v * root

    @classmethod
    def _frozen(cls, u, sigma, v) -> "FactoredMatrix":
        """Wrap fresh float arrays that no caller holds, read-only and
        without the copies and shape checks of __init__."""
        for a in (u, sigma, v):
            a.setflags(write=False)
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
    u, s, vt = _lapack_svd(z, signature="d->ddd")
    if not s[0] > 0.0:
        if math.isnan(s[0]):
            scale = float(np.max(np.abs(z)))
            raise RankProjectionError(f"SVD did not converge (input max magnitude {scale:.3e})")
        return FactoredMatrix.zero(*z.shape)
    drop = SINGULAR_VALUE_DROP * s[0]
    # s is sorted, so the count is needed only when s[r - 1] falls below the drop
    if s[r - 1] > drop:
        keep = r
    elif not (keep := np.count_nonzero(s > drop)):    # sigma_1, so the drop, is inf
        raise RankProjectionError(f"SVD overflows: sigma_1 = inf (input max magnitude {np.max(np.abs(z)):.3e})")
    return FactoredMatrix._frozen(u[:, :keep], s[:keep], vt[:keep].T)


def _fro(a: np.ndarray) -> float:
    """Frobenius norm, computed as np.linalg.norm computes it for ord=None
    (the same bits), without its per-call overhead."""
    v = a.ravel(order="K")
    return math.sqrt(v.dot(v))


def project_psd_rank_r(z, r: int) -> FactoredMatrix:
    """Closest PSD matrix of rank <= r: keep the r algebraically largest
    eigenvalues, clip them at zero.  Returns a factorization with u = v.
    """
    z = _check_projection_input(z, r)
    if z.shape[0] != z.shape[1]:
        raise ValueError("PSD projection needs a square matrix")
    with np.errstate(over="ignore", invalid="ignore"):     # an overflow raises below
        return _truncate_psd(z, r)


def _truncate_psd(z: np.ndarray, r: int) -> FactoredMatrix:
    """project_psd_rank_r without its input checks (z square finite floats,
    1 <= r <= z.shape[0]); z must still be symmetric."""
    asym = _fro(z - z.T)
    if asym > ORTHONORMALITY_TOL * max(1.0, _fro(z)):
        raise ValueError(f"input is not symmetric (||z - z.T||_F = {asym:.3e})")
    sym = 0.5 * (z + z.T)
    w, q = _lapack_eigh(sym, signature="d->dd")
    if math.isnan(w[0]):
        raise RankProjectionError("eigendecomposition did not converge" if np.isfinite(sym).all()
                                  else f"symmetrization overflows (input max magnitude {np.max(np.abs(z)):.3e})")
    w = w[::-1]
    q = q[:, ::-1]
    lam = np.clip(w[:r], 0.0, None)
    if lam[0] <= 0.0:
        return FactoredMatrix.zero(*z.shape)
    drop = SINGULAR_VALUE_DROP * lam[0]
    # lam is sorted, so the count is needed only when lam[-1] falls below the drop
    keep = r if lam[-1] > drop else np.count_nonzero(lam > drop)
    # u = v: one C-ordered copy of the reversed eigenvector columns
    qk = np.ascontiguousarray(q[:, :keep])
    return FactoredMatrix._frozen(qk, lam[:keep], qk)


class TangentVector:
    """Element of the tangent space at a rank-k base point, stored as the
    n1 x n2 array st = [[core, right], [left, 0]] in the base's full frames
    (see the module docstring).  core, left and right are views into st.
    Arithmetic on tangent vectors is done on coords(), and the result is
    wrapped again with from_coords.
    """

    __slots__ = ("st", "base")

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
        return self.st.ravel()[_coordinates(self.base)]

    @classmethod
    def from_coords(cls, x, base: FactoredMatrix) -> "TangentVector":
        rows = _coordinates(base)
        x = np.asarray(x, dtype=float)
        if x.shape != rows.shape:
            raise ValueError("coordinate vector has wrong length")
        st = np.zeros(base.shape)
        st.ravel()[rows] = x
        return cls._wrap(st, base)


def _coordinates(base: FactoredMatrix) -> np.ndarray:
    """The one definition of the tangent coordinates at base: the flat indices
    into st.ravel() of the core block, then left, then right, each row by row.
    tangent_dim, TangentVector.coords/from_coords and pullback_hessian read it."""
    k = base.rank
    index = np.arange(base.shape[0] * base.shape[1]).reshape(base.shape)
    return np.concatenate([index[:k, :k].ravel(), index[k:, :k].ravel(), index[:k, k:].ravel()])


def tangent_dim(base: FactoredMatrix) -> int:
    """k(n1+n2-k), the length of _coordinates(base)."""
    return _coordinates(base).size


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


class _Pullback:
    """The retraction, and the pullback of f when one is given, at one base
    point, with all that is fixed for the base built once: the frames P and
    Q, sigma on the core diagonal of an n1 x n2 array, sigma_k and sigma_1,
    and f's gradient and fused value-and-gradient, those of f.in_frames(P, Q)
    when that is not None.  Its methods take bare frame arrays st (see
    TangentVector).  grad, the escape's inner step, evaluates only the
    gradient and corrects that fresh array in place; only value_grad
    evaluates the value.  Each point Y is written into one reused buffer,
    so a frame objective is called at it and must keep no reference to it
    after the call.  The block products call ndarray.dot: the same bytes as
    @ here, with less call overhead."""

    def __init__(self, base: FactoredMatrix, f=None):
        k = self.k = base.rank
        self.p, self.q = base._frames()
        self.sigma_diag = np.zeros(base.shape)
        self.sigma_diag.ravel()[:k * (base.shape[1] + 1):base.shape[1] + 1] = base.sigma
        self.sigma_k, self.sigma_1 = (float(base.sigma[-1]), float(base.sigma[0])) if k else (0.0, 0.0)
        # one buffer for every point Y, and views of its blocks
        y = self.y = np.empty(base.shape)
        self.w, self.s_r, self.s_l, self.corner = y[:k, :k], y[:k, k:], y[k:, :k], y[k:, k:]
        if f is not None:
            framed = f.in_frames(self.p, self.q)
            self.rotate = framed is None
            g = f if self.rotate else framed
            self.value_and_grad, self.gradient = g.value_and_grad, g.gradient

    def clears(self, c: float) -> bool:
        """Whether every core with ||core||_F <= c passes point's floor test:
        by Weyl's inequality the singular values of W lie within c of sigma,
        and sigma_k - c clears twice the floor at sigma_1 + c (2 absorbs rounding)."""
        return bool(self.k) and (self.sigma_k - c
                                 > 2.0 * RETRACTION_CORE_FLOOR * max(1.0, self.sigma_1 + c))

    def point(self, st: np.ndarray, cleared: bool = False):
        """(Y, S_l W^{-1}, W^{-1} S_r) with W = diag(sigma) + S_core, where Y
        is the retracted point in the base's full frames, in the kernel's
        buffer until the next call,

            Y = P^T Retr_base(S) Q = [[W, S_r], [S_l, S_l W^{-1} S_r]].

        Raises RetractionUndefinedError when W is numerically singular, i.e.
        sigma_min(W) <= RETRACTION_CORE_FLOOR * max(1, sigma_max(W)), tested
        on the singular values of W unless cleared (the caller checked clears
        for every core it passes) or clears(||S_core||_F)."""
        k = self.k
        y = np.add(st, self.sigma_diag, out=self.y)
        if not (cleared or self.clears(math.sqrt(np.vdot(st[:k, :k], st[:k, :k])))):
            sv = np.linalg.svd(self.w, compute_uv=False)
            if sv.size == 0 or sv[-1] <= RETRACTION_CORE_FLOOR * max(1.0, float(sv[0])):
                raise RetractionUndefinedError(
                    f"retraction undefined: core Sigma + S_core is singular "
                    f"(sigma_min = {0.0 if sv.size == 0 else float(sv[-1]):.3e})"
                )
        # W is a float64 view that the floor test or a clearance passed, so
        # np.linalg.inv's dtype coercion and singular-matrix error have nothing to do
        winv = _lapack_inv(self.w, signature="d->d")
        l_winv = self.s_l.dot(winv)
        winv_r = winv.dot(self.s_r)
        self.corner[...] = l_winv.dot(self.s_r)
        return y, l_winv, winv_r

    def _at(self, y: np.ndarray) -> np.ndarray:
        """Where f is evaluated: the dense point P Y Q^T, or Y in frames."""
        return self.p.dot(y).dot(self.q.T) if self.rotate else y

    def _corrected(self, g, l_winv: np.ndarray, winv_r: np.ndarray) -> np.ndarray:
        """The frame array of the pullback gradient from f's gradient g at
        the point (see pullback_value_grad); g must be a fresh array."""
        g = np.asarray(g, dtype=float)
        # a fresh gradient array [[Gc, Gr], [Gl, Go]], corrected in place
        gt = self.p.T.dot(g).dot(self.q) if self.rotate else g
        k = self.k
        gl, go = gt[k:, :k], gt[k:, k:]
        lw_go = l_winv.T.dot(go)        # W^{-T} S_l^T Go
        winv_r_t = winv_r.T
        # the top k rows are contiguous in C order: one add of [-C | W^{-T} S_l^T Go]
        # gives Gc - C and Gr + W^{-T} S_l^T Go bit for bit, with C the product
        # below; the bottom rows keep their view updates, cheaper than assembling
        gt[:k] += np.concatenate((np.negative(lw_go.dot(winv_r_t)), lw_go), axis=1)
        gl += go.dot(winv_r_t)
        go.fill(0.0)
        return gt

    def grad(self, st: np.ndarray, cleared: bool = False) -> np.ndarray:
        """Frame array of the pullback gradient at S, without the value;
        cleared is as for point."""
        y, l_winv, winv_r = self.point(st, cleared)
        return self._corrected(self.gradient(self._at(y)), l_winv, winv_r)

    def value_grad(self, st: np.ndarray):
        """(f(Retr_base(S)), frame array of its pullback gradient); see
        pullback_value_grad."""
        y, l_winv, winv_r = self.point(st)
        fv, g = self.value_and_grad(self._at(y))
        return float(fv), self._corrected(g, l_winv, winv_r)


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
    if s.base is not base:
        raise ValueError("tangent vector does not live at this base point")
    p, q = base._frames()
    return project_rank_r(p @ _Pullback(base).point(s.st)[0] @ q.T, base.rank)


def pullback_value_grad(f, base: FactoredMatrix, s: TangentVector):
    """Value and gradient of the pulled-back objective f(Retr_base(s)).

    The retracted point is formed in the base's full frames (see retract),
    with no factorisation.  When f.in_frames(P, Q) is not None, it is
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
    if s.base is not base:
        raise ValueError("tangent vector does not live at this base point")
    val, gt = _Pullback(base, f).value_grad(s.st)
    return val, TangentVector._wrap(gt, base)


def pullback_hessian(f, base: FactoredMatrix) -> np.ndarray:
    """Hessian of the pullback at s = 0 over the coordinates of _coordinates
    (dimension k(n1+n2-k)), in closed form.

    The retraction is second order, so this is the Riemannian Hessian: the
    tangent part of the Euclidean Hessian, <e_i, hess f(X)[e_j]> over the
    dense basis e_i = P xi_i Q^T (xi_i the frame array with a 1 at index i of
    _coordinates), from one stacked f.hessian_vector call, plus the
    Weingarten term <xi_i, Wg xi_j>.  Wg xi has only the left and right
    blocks; for Go the outer block of P^T grad f(X) Q,

        left = Go xi.right^T Sigma^{-1}      right = Sigma^{-1} xi.left^T Go

    f must provide hessian_vector(x, z).  The matrix is returned as computed,
    not symmetrized.
    """
    x = base.dense()
    rows = _coordinates(base)
    d, k = rows.size, base.rank
    a, b = np.divmod(rows, base.shape[1])
    p, q = base._frames()
    xi = np.zeros((d, *base.shape))
    xi[np.arange(d), a, b] = 1.0
    basis = p.T[a][:, :, None] * q.T[b][:, None, :]    # P xi Q^T = p_a q_b^T
    hess = basis.reshape(d, -1) @ np.asarray(f.hessian_vector(x, basis), dtype=float).reshape(d, -1).T
    go = (p.T @ np.asarray(f.gradient(x), dtype=float) @ q)[k:, k:]
    inv_sigma = 1.0 / base.sigma
    wg = np.zeros_like(xi)
    wg[:, k:, :k] = (go @ xi[:, :k, k:].transpose(0, 2, 1)) * inv_sigma
    wg[:, :k, k:] = inv_sigma[:, None] * (xi[:, k:, :k].transpose(0, 2, 1) @ go)
    return hess + wg.reshape(d, -1)[:, rows].T


def pullback_hessian_min_eig(f, base: FactoredMatrix):
    """Smallest eigenvalue of the (symmetrized) pullback Hessian at s = 0 and
    the corresponding tangent direction."""
    hess = pullback_hessian(f, base)
    sym = 0.5 * (hess + hess.T)
    w, q = np.linalg.eigh(sym)
    return float(w[0]), TangentVector.from_coords(q[:, 0], base)
