"""From a sampled light-cone immersion to its conformal invariants.

The pipeline is: canonical lift Y (normalized so <Y_z, Y_zbar> = 1/2),
the second lightlike section N, an orthonormal normal frame psi_j of the
conformally invariant normal bundle, and the invariant data kappa
(conformal Hopf differential), s (Schwarzian), b (normal connection) and
beta (components of D_zbar kappa).

Each field is derived once: the raw lift takes one d_u/d_v pair (for
the scale of Y), Y takes one (Y_u, Y_v, kept on `SurfaceData`), and N,
the invariants, the conformal Gauss frame and the structure residuals
read those partials instead of differentiating Y again.

`build_surface_data` stops at the fields of the conformal Gauss frame
(Y, N, Y_u, Y_v and psi).  The invariants kappa, s, b and beta are
computed on first read, by one call of `invariants`, so the commands
that only read the frame (verify-harmonic, reconstruct) never derive
them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .chart import (Chart, DEFAULT_MARGIN, d_u, d_v, d_z, d_zbar,
                    residual_norms, wirtinger)
from .lorentz import inner, metric_signs


class DegenerateImmersionError(ValueError):
    pass


def canonical_lift(raw: np.ndarray, c: Chart) -> np.ndarray:
    """Rescale a forward-lightlike lift so that <Y_z, Y_zbar> = 1/2.

    The scale rho = sqrt(2 <raw_z, raw_zbar>) is insensitive to the input
    scaling because the lift is null.  Raises for non-null input (relative
    defect above 1e-8) or where the immersion degenerates.
    """
    tol = 1e-8
    raw = np.asarray(raw, dtype=float)
    scale = np.sum(raw**2, axis=-1)
    if np.max(np.abs(inner(raw, raw))) > tol * np.max(scale):
        raise ValueError("input field is not lightlike")
    if np.min(raw[..., 0]) <= 0:
        raise ValueError("input field is not forward (x0 <= 0 somewhere)")
    ru, rv = d_u(raw, c), d_v(raw, c)
    e = np.real(inner(wirtinger(ru, rv, -1), wirtinger(ru, rv, 1)))
    if np.min(e) <= tol * np.max(e):
        raise DegenerateImmersionError(
            f"immersion degenerates: min <raw_z, raw_zbar> = {np.min(e):.3e}")
    rho = np.sqrt(2.0 * e)
    return raw / rho[..., None]


def frame_N(Y: np.ndarray, Yu: np.ndarray, Yv: np.ndarray,
            c: Chart) -> np.ndarray:
    """The section N with <N,Y> = -1, <N,N> = 0, N = 2 Y_zzbar mod Y.

    Yu, Yv are d_u Y and d_v Y, taken once by the caller; Y_zzbar =
    (Y_uu + Y_vv)/4 takes one more stencil of each.  Both defining
    pairings are enforced pointwise-algebraically, so they hold at
    machine precision; the derivative conditions <N, Y_z> = 0 are
    inherited from the stencils at O(h^2).
    """
    W = 0.25 * (d_u(Yu, c) + d_v(Yv, c))   # Y_zzbar, real
    A = inner(W, W)
    B = inner(W, Y)           # ~ -1/2
    a = -1.0 / B
    coef = -a * A / (2.0 * B)
    return a[..., None] * W + coef[..., None] * Y


def sphere_columns(Y: np.ndarray, N: np.ndarray, Yu: np.ndarray,
                   Yv: np.ndarray) -> list:
    """The frame columns (Y+N)/sqrt2, (-Y+N)/sqrt2, Y_u, Y_v spanning the
    central sphere bundle of the canonical lift Y with its section N."""
    r2 = np.sqrt(2.0)
    return [(Y + N) / r2, (-Y + N) / r2, Yu, Yv]


def _matmul_planes(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """X Y for small matrices of fields stored as planes, X (a, b, ...)
    and Y (b, c, ...): one elementwise pass per entry, not one matmul
    per grid point."""
    return np.einsum("ij...,jk...->ik...", X, Y)


def _small_inverse(M: np.ndarray) -> np.ndarray:
    """Inverse of a 1x1 or 2x2 matrix field M (k, k, ...) by its adjugate.

    Raises np.linalg.LinAlgError where the determinant is zero or not
    finite.
    """
    if len(M) == 1:
        det, adj = M[0, 0], np.ones_like(M)
    else:
        det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
        adj = np.array([[M[1, 1], -M[0, 1]], [-M[1, 0], M[0, 0]]])
    if not np.all(np.isfinite(det) & (det != 0)):
        raise np.linalg.LinAlgError("Singular matrix")
    return adj / det


def _det4(M: np.ndarray) -> np.ndarray:
    """Determinant of a 4x4 matrix field M (4, 4, ...): the Laplace
    expansion along the first two rows, in their 2x2 minors times the
    complementary minors of the last two rows."""
    def minor(r, i, j):
        return M[r, i] * M[r + 1, j] - M[r, j] * M[r + 1, i]
    return (minor(0, 0, 1) * minor(2, 2, 3)
            - minor(0, 0, 2) * minor(2, 1, 3)
            + minor(0, 0, 3) * minor(2, 1, 2)
            + minor(0, 1, 2) * minor(2, 0, 3)
            - minor(0, 1, 3) * minor(2, 0, 2)
            + minor(0, 2, 3) * minor(2, 0, 1))


def _gram_inverse(G: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric m x m matrix field G (m, m, ...), m <= 4.

    Block form G = [[A, C], [C^T, D]] with A the leading (at most) 2x2
    block: X = A^{-1} C, the Schur complement S = D - C^T X, Z = X S^{-1},
    and G^{-1} = [[A^{-1} + Z X^T, -Z], [-Z^T, S^{-1}]].  There is no
    pivoting, so A must be invertible; in every caller it is the Gram
    matrix of (Y, N), of a null pair with <L, Z> = -1 or of
    (Y+N)/sqrt2, (-Y+N)/sqrt2, that is [[0, -1], [-1, 0]] or diag(-1, 1).
    Raises np.linalg.LinAlgError where G is not finite or A or S is
    singular.
    """
    if not np.all(np.isfinite(G)):
        raise np.linalg.LinAlgError("Gram matrix is not finite")
    k = min(len(G), 2)
    Ai = _small_inverse(G[:k, :k])
    if len(G) == k:
        return Ai
    C = G[:k, k:]
    X = _matmul_planes(Ai, C)
    Si = _small_inverse(G[k:, k:] - _matmul_planes(np.swapaxes(C, 0, 1), X))
    Z = _matmul_planes(X, Si)
    upper = np.concatenate(
        [Ai + _matmul_planes(Z, np.swapaxes(X, 0, 1)), -Z], axis=1)
    lower = np.concatenate([-np.swapaxes(Z, 0, 1), Si], axis=1)
    return np.concatenate([upper, lower], axis=0)


def _complement_solver(B: np.ndarray) -> np.ndarray:
    """Q = G^{-1} B s for the rows B (..., m, dim), m <= 4, G = (B s) B^T
    their Lorentz Gram matrix and s the metric signs.

    The Minkowski-orthogonal projection of w onto the complement of the
    span of the rows is then w - B^T (Q w).  The rows are first laid out
    as contiguous planes (m, dim, ...), so that the Gram matrix, its
    closed-form inverse (`_gram_inverse`) and the product with B s are
    entry-by-entry passes over the grid, not a LAPACK solve per point.
    Raises np.linalg.LinAlgError for a singular or non-finite G.
    """
    P = np.ascontiguousarray(np.moveaxis(B, (-2, -1), (0, 1)))
    Ps = P * metric_signs(B.shape[-1]).reshape((-1,) + (1,) * (B.ndim - 2))
    G = np.einsum("ik...,jk...->ij...", Ps, P)
    Q = _matmul_planes(_gram_inverse(G), Ps)
    return np.ascontiguousarray(np.moveaxis(Q, (0, 1), (-2, -1)))


def complement_basis(B: np.ndarray) -> np.ndarray:
    """Orthonormal basis (dim - m, dim) of the Minkowski complement of
    the rows of one point's B (m, dim), which must be spacelike.

    Gram-Schmidt on the standard basis vectors, each first projected
    onto the complement (`_complement_solver`); a candidate whose
    remainder has squared norm below 1e-8 lies in the span already kept
    and is skipped.
    """
    m, dim = B.shape
    basis = []
    for w in np.eye(dim) - _complement_solver(B).T @ B:
        for prev in basis:
            w = w - inner(w, prev) * prev
        nrm = inner(w, w)
        if nrm > 1e-8:
            basis.append(w / np.sqrt(nrm))
        if len(basis) == dim - m:
            return np.stack(basis)
    raise RuntimeError("the rows leave no spacelike complement of "
                       f"dimension {dim - m}")


def _orthonormalize(vecs: np.ndarray) -> np.ndarray:
    """Modified Gram-Schmidt on (..., n, dim) spacelike vectors."""
    out = np.array(vecs, dtype=float)
    n = out.shape[-2]
    for j in range(n):
        for i in range(j):
            out[..., j, :] -= inner(out[..., j, :], out[..., i, :])[..., None] \
                * out[..., i, :]
        nrm = np.sqrt(inner(out[..., j, :], out[..., j, :]))
        out[..., j, :] /= nrm[..., None]
    return out


def normal_frame(B: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Oriented orthonormal frame psi of the normal bundle, shape (Nu,Nv,n,dim).

    B = stack(Y, N, Y_u, Y_v) of shape (Nu, Nv, 4, dim) spans the mean
    curvature sphere bundle and Q = `_complement_solver(B)`, so rows w
    project onto the normal bundle as w - (w Q^T) B.  Seeded by
    `complement_basis` at (0,0) and propagated by nearest-frame
    alignment: each point projects its neighbour's frame onto its own
    normal space and re-orthonormalizes.  Row 0 is swept sequentially,
    every later row follows its predecessor in one vectorized step, so
    the result is deterministic.
    """
    QT = np.swapaxes(Q, -1, -2)
    seed = complement_basis(B[0, 0])
    # orient the seed so that (phi1..phi4, psi) is positively oriented
    if np.linalg.det(np.stack(sphere_columns(*B[0, 0]) + list(seed),
                              axis=-1)) < 0:
        seed[-1] = -seed[-1]

    psi = np.empty(B.shape[:2] + seed.shape)
    psi[0, 0] = seed
    for j in range(1, B.shape[1]):
        w = psi[0, j - 1]
        psi[0, j] = _orthonormalize(w - (w @ QT[0, j]) @ B[0, j])
    for i in range(1, B.shape[0]):
        w = psi[i - 1]
        psi[i] = _orthonormalize(w - (w @ QT[i]) @ B[i])
    return psi


class Invariants(NamedTuple):
    """The forward invariants of a `SurfaceData`."""
    kappa: np.ndarray      # (Nu, Nv, n) components k_j
    schwarzian: np.ndarray  # (Nu, Nv) complex s
    b: np.ndarray          # (Nu, Nv, n, n) normal connection, antisymmetric
    beta: np.ndarray       # (Nu, Nv, n) components of D_zbar kappa
    b_asym_residual: float  # half the sup of the symmetric part of b


@dataclass
class SurfaceData:
    """Canonical lift, its normal frame and, on first read, its invariants.

    The fields are those of the conformal Gauss frame: Y, N, Y_u and Y_v
    give its sphere columns (`gauss_frame.build_frame`), and Y_u, Y_v
    give Y_z to `structure_residuals`; psi gives its normal columns.
    kappa, s, b and beta, which feed the residuals and
    `gauss_frame.willmore_energy`, come from one `invariants` call on the
    first read of any of them and are cached on the instance, not as
    dataclass fields.  A command drops its SurfaceData once the frame is
    built.
    """
    chart: Chart
    Y: np.ndarray          # (Nu, Nv, dim) canonical lift
    N: np.ndarray          # (Nu, Nv, dim)
    Yu: np.ndarray         # (Nu, Nv, dim) d_u Y
    Yv: np.ndarray         # (Nu, Nv, dim) d_v Y
    psi: np.ndarray        # (Nu, Nv, n, dim) normal frame

    @cached_property
    def _invariants(self) -> Invariants:
        return invariants(self)

    @property
    def kappa(self) -> np.ndarray:
        return self._invariants.kappa

    @property
    def schwarzian(self) -> np.ndarray:
        return self._invariants.schwarzian

    @property
    def b(self) -> np.ndarray:
        return self._invariants.b

    @property
    def beta(self) -> np.ndarray:
        return self._invariants.beta

    @property
    def b_asym_residual(self) -> float:
        return self._invariants.b_asym_residual

    @property
    def n(self) -> int:
        return self.psi.shape[-2]

    @property
    def k2(self) -> np.ndarray:
        """<kappa, conj kappa> = sum |k_j|^2."""
        return np.sum(np.abs(self.kappa) ** 2, axis=-1)

    def kappa_ambient(self) -> np.ndarray:
        return np.sum(self.kappa[..., :, None] * self.psi, axis=-2)

    def residual_mask(self) -> np.ndarray:
        """Region used for residual norms; trims open-chart boundaries."""
        return self.chart.interior_mask(DEFAULT_MARGIN)


def invariants(S: SurfaceData) -> Invariants:
    """Compute kappa, s, b, beta from the canonical data of S."""
    c, Y, psi = S.chart, S.Y, S.psi
    Yzz = d_z(wirtinger(S.Yu, S.Yv, -1), c)
    s = 2.0 * inner(Yzz, S.N)
    kap_raw = Yzz + 0.5 * s[..., None] * Y
    # psi spans the complement of span(Y, N, Y_z, Y_zbar) = span(Y, N, Y_u,
    # Y_v) (d_z is the same linear stencil), so kappa's part in that
    # bundle drops out of the pairing
    k = inner(kap_raw[..., None, :], psi)                   # (Nu, Nv, n)
    del Yzz, kap_raw    # lowers the peak

    b_raw = inner(d_z(psi, c)[..., :, None, :], psi[..., None, :, :])
    b = 0.5 * (b_raw - np.swapaxes(b_raw, -1, -2))
    b_res = float(np.max(np.abs(b_raw + np.swapaxes(b_raw, -1, -2)))) / 2

    beta = d_zbar(k, c) - np.einsum("...jl,...l->...j", np.conj(b), k)
    return Invariants(kappa=k, schwarzian=s, b=b, beta=beta,
                      b_asym_residual=b_res)


def build_surface_data(raw: np.ndarray, c: Chart) -> SurfaceData:
    """Raw lift -> SurfaceData: the canonical lift Y, its partials, N
    and the normal frame psi, the fields of the conformal Gauss frame."""
    Y = canonical_lift(raw, c)
    Yu, Yv = d_u(Y, c), d_v(Y, c)
    N = frame_N(Y, Yu, Yv, c)
    B = np.stack([Y, N, Yu, Yv], axis=-2)
    psi = normal_frame(B, _complement_solver(B))
    return SurfaceData(chart=c, Y=Y, N=N, Yu=Yu, Yv=Yv, psi=psi)


def normal_derivative_components(S: SurfaceData, comps: np.ndarray,
                                 zbar: bool = False) -> np.ndarray:
    """Components of D_z (or D_zbar) of sum_j comps_j psi_j in the psi frame."""
    c = S.chart
    if zbar:
        return d_zbar(comps, c) - np.einsum("...lj,...j->...l",
                                            np.conj(S.b), comps)
    return d_z(comps, c) - np.einsum("...lj,...j->...l", S.b, comps)


def willmore_residual(S: SurfaceData) -> np.ndarray:
    """Component field of D_zbar D_zbar kappa + (conj s / 2) kappa."""
    eta = normal_derivative_components(S, S.beta, zbar=True)
    return eta + 0.5 * np.conj(S.schwarzian)[..., None] * S.kappa


def structure_residuals(S: SurfaceData) -> dict:
    """Residual norms of the four moving-frame structure equations."""
    c = S.chart
    Yz = wirtinger(S.Yu, S.Yv, -1)
    Yzu, Yzv = d_u(Yz, c), d_v(Yz, c)
    Yzz, Yzzbar = wirtinger(Yzu, Yzv, -1), wirtinger(Yzu, Yzv, 1)
    del Yzu, Yzv        # lowers the peak
    kap = S.kappa_ambient()
    k2 = S.k2
    Dzbar_kap = np.sum(S.beta[..., :, None] * S.psi.astype(complex), axis=-2)

    r1 = Yzz + 0.5 * S.schwarzian[..., None] * S.Y - kap
    r2 = Yzzbar + k2[..., None] * S.Y - 0.5 * S.N
    r3 = d_z(S.N, c) + 2 * k2[..., None] * Yz \
        + S.schwarzian[..., None] * np.conj(Yz) - 2 * Dzbar_kap
    r4 = d_z(S.psi, c) \
        - np.einsum("...jl,...lm->...jm", S.b, S.psi.astype(complex)) \
        - 2 * S.beta[..., None] * S.Y[..., None, :] \
        + 2 * S.kappa[..., None] * np.conj(Yz)[..., None, :]

    mask = S.residual_mask()
    return residual_norms(
        {"lift": r1, "mixed": r2, "N_deriv": r3, "normal": r4}, c, mask)


def integrability_residuals(S: SurfaceData, W: np.ndarray) -> dict:
    """Residual norms of the conformal Gauss, Codazzi and Ricci equations.

    W is `willmore_residual(S)`, whose imaginary part is the Codazzi
    residual; callers that report W itself build it once for both.
    """
    c = S.chart
    k, b, beta, s = S.kappa, S.b, S.beta, S.schwarzian
    gamma = normal_derivative_components(S, k, zbar=False)     # D_z kappa

    gauss = 0.5 * d_zbar(s, c) \
        - 3 * np.sum(k * np.conj(beta), axis=-1) \
        - np.sum(gamma * np.conj(k), axis=-1)
    codazzi = np.imag(W)
    b_zbar = d_zbar(b, c)     # d_z conj(b) = conj(d_zbar b): real stencils
    curv = b_zbar - np.conj(b_zbar) + b @ np.conj(b) - np.conj(b) @ b
    rhs = 2 * (k[..., :, None] * np.conj(k)[..., None, :]
               - np.conj(k)[..., :, None] * k[..., None, :])
    ricci = curv - rhs

    mask = S.residual_mask()
    return residual_norms(
        {"gauss": gauss, "codazzi": codazzi, "ricci": ricci}, c, mask)
