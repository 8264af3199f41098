"""From a sampled light-cone immersion to its conformal invariants.

The pipeline is: canonical lift Y (normalized so <Y_z, Y_zbar> = 1/2),
the second lightlike section N, an orthonormal normal frame psi_j of the
conformally invariant normal bundle, and the invariant data kappa
(conformal Hopf differential), s (Schwarzian), b (normal connection) and
beta (components of D_zbar kappa).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chart import (Chart, DEFAULT_MARGIN, d_u, d_v, d_z, d_zbar,
                    residual_norms, umbilic_mask, wirtinger)
from .lorentz import inner, metric


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
    e = np.real(inner(d_z(raw, c), d_zbar(raw, c)))
    if np.min(e) <= tol * np.max(e):
        raise DegenerateImmersionError(
            f"immersion degenerates: min <raw_z, raw_zbar> = {np.min(e):.3e}")
    rho = np.sqrt(2.0 * e)
    return raw / rho[..., None]


def frame_N(Y: np.ndarray, c: Chart) -> np.ndarray:
    """The section N with <N,Y> = -1, <N,N> = 0, N = 2 Y_zzbar mod Y.

    Both defining pairings are enforced pointwise-algebraically, so they
    hold at machine precision; the derivative conditions <N, Y_z> = 0 are
    inherited from the stencils at O(h^2).
    """
    W = 0.25 * (d_u(d_u(Y, c), c) + d_v(d_v(Y, c), c))   # Y_zzbar, real
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


def _complement_solver(B: np.ndarray) -> np.ndarray:
    """Q = G^{-1} B s for the rows B (..., m, dim), G = (B s) B^T their
    Lorentz Gram matrix and s = diag(I) the metric signs.

    The Minkowski-orthogonal projection of w onto the complement of the
    span of the rows is then w - B^T (Q w).
    """
    Bs = B * np.diag(metric(B.shape[-1]))
    G = Bs @ np.swapaxes(B, -1, -2)
    return np.linalg.solve(G, Bs)


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


@dataclass
class SurfaceData:
    """Canonical lift and derived conformal invariants on a chart."""
    chart: Chart
    Y: np.ndarray          # (Nu, Nv, dim) canonical lift
    N: np.ndarray          # (Nu, Nv, dim)
    psi: np.ndarray        # (Nu, Nv, n, dim) normal frame
    kappa: np.ndarray      # (Nu, Nv, n) components k_j
    schwarzian: np.ndarray  # (Nu, Nv) complex s
    b: np.ndarray          # (Nu, Nv, n, n) normal connection, antisymmetric
    beta: np.ndarray       # (Nu, Nv, n) components of D_zbar kappa
    b_asym_residual: float = 0.0

    @property
    def n(self) -> int:
        return self.psi.shape[-2]

    @property
    def k2(self) -> np.ndarray:
        """<kappa, conj kappa> = sum |k_j|^2."""
        return np.sum(np.abs(self.kappa) ** 2, axis=-1)

    def kappa_ambient(self) -> np.ndarray:
        return np.sum(self.kappa[..., :, None] * self.psi, axis=-2)

    def umbilic_mask(self, eps_rel: float = 1e-8) -> np.ndarray:
        return umbilic_mask(self.kappa, eps_rel)

    def residual_mask(self) -> np.ndarray:
        """Region used for residual norms; trims open-chart boundaries."""
        return self.chart.interior_mask(DEFAULT_MARGIN)


def invariants(Y: np.ndarray, N: np.ndarray, c: Chart) -> SurfaceData:
    """Compute kappa, s, psi, b, beta from canonical data."""
    Yu, Yv = d_u(Y, c), d_v(Y, c)
    Yz = wirtinger(Yu, Yv, -1)
    Yzz = d_z(Yz, c)
    s = 2.0 * inner(Yzz, N)
    kap_raw = Yzz + 0.5 * s[..., None] * Y

    B = np.stack([Y, N, Yu, Yv], axis=-2)
    psi = normal_frame(B, _complement_solver(B))
    del B               # not needed by the stencils below; lowers the peak
    # psi spans the complement of span(Y, N, Y_z, Y_zbar) = span(Y, N, Y_u,
    # Y_v) (d_z is the same linear stencil), so kappa's part in that
    # bundle drops out of the pairing
    k = inner(kap_raw[..., None, :], psi)                   # (Nu, Nv, n)

    b_raw = inner(d_z(psi, c)[..., :, None, :], psi[..., None, :, :])
    b = 0.5 * (b_raw - np.swapaxes(b_raw, -1, -2))
    b_res = float(np.max(np.abs(b_raw + np.swapaxes(b_raw, -1, -2)))) / 2

    beta = d_zbar(k, c) - np.einsum("...jl,...l->...j", np.conj(b), k)
    return SurfaceData(chart=c, Y=Y, N=N, psi=psi, kappa=k, schwarzian=s,
                       b=b, beta=beta, b_asym_residual=b_res)


def build_surface_data(raw: np.ndarray, c: Chart) -> SurfaceData:
    """Full pipeline raw lift -> SurfaceData."""
    Y = canonical_lift(raw, c)
    N = frame_N(Y, c)
    return invariants(Y, N, c)


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
    Yz = d_z(S.Y, c)
    Yzz = d_z(Yz, c)
    Yzzbar = d_zbar(Yz, c)
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


def integrability_residuals(S: SurfaceData) -> dict:
    """Residual norms of the conformal Gauss, Codazzi and Ricci equations."""
    c = S.chart
    k, b, beta, s = S.kappa, S.b, S.beta, S.schwarzian
    gamma = normal_derivative_components(S, k, zbar=False)     # D_z kappa

    gauss = 0.5 * d_zbar(s, c) \
        - 3 * np.sum(k * np.conj(beta), axis=-1) \
        - np.sum(gamma * np.conj(k), axis=-1)
    codazzi = np.imag(willmore_residual(S))
    curv = d_zbar(b, c) - d_z(np.conj(b), c) \
        + b @ np.conj(b) - np.conj(b) @ b
    rhs = 2 * (k[..., :, None] * np.conj(k)[..., None, :]
               - np.conj(k)[..., :, None] * k[..., None, :])
    ricci = curv - rhs

    mask = S.residual_mask()
    return residual_norms(
        {"gauss": gauss, "codazzi": codazzi, "ricci": ricci}, c, mask)
