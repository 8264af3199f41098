"""Conformal Gauss frame, Maurer-Cartan blocks, and Willmore diagnostics.

The frame F = (phi1, phi2, phi3, phi4, psi_1..psi_n) with

    phi1 = (Y+N)/sqrt2,  phi2 = (-Y+N)/sqrt2,  phi3 = Y_u,  phi4 = Y_v

is pointwise in SO+(1, n+3).  Its Maurer-Cartan form splits into blocks

    alpha(d_z) = [[A1, B1], [B2, A2]],   B2 = -B1^T I_{1,3},

from which the rank test for duality derives.  The Willmore residual
lives in `surface`, next to the normal derivatives it is built from.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chart import Chart, d_u, d_v, integrate, wirtinger
from .lorentz import lorentz_inverse, metric, validate_group
from .surface import SurfaceData, sphere_columns

I13 = metric(4)


@dataclass
class FrameField:
    """Moving frame with columns (phi1..phi4, psi_1..psi_n)."""
    F: np.ndarray          # (Nu, Nv, dim, dim), real
    chart: Chart
    group_residual: float = 0.0

    def inverse(self) -> np.ndarray:
        return lorentz_inverse(self.F)


def build_frame(S: SurfaceData) -> FrameField:
    """Assemble the conformal Gauss frame from canonical surface data.

    The validation tolerance scales with h^2, matching the stencil
    accuracy of the tangent columns (boundary stencils carry a large
    constant, hence the generous factor).
    """
    c = S.chart
    tol = max(1e-8, 500.0 * c.h**2)
    cols = sphere_columns(S.Y, S.N, d_u(S.Y, c), d_v(S.Y, c)) \
        + [S.psi[..., j, :] for j in range(S.n)]
    F = np.stack(cols, axis=-1)
    ok, res = validate_group(F, tol)
    residual = float(np.max(res))
    if not np.all(ok):
        raise ValueError(
            f"frame fails group validation: residual {residual:.3e} > {tol:g}")
    return FrameField(F=F, chart=c, group_residual=residual)


@dataclass
class MCBlocks:
    """dz-coefficient of the Maurer-Cartan form, with block views.

    The dzbar-coefficient is the entrywise conjugate (the frame is real).
    A1, A2, B1, B2 are views of `alpha`, so a block write reaches it.
    """
    alpha: np.ndarray      # (Nu, Nv, n+4, n+4) complex
    chart: Chart
    b2_residual: float = 0.0   # sup |B2 + B1^T I13|

    @property
    def A1(self) -> np.ndarray:
        return self.alpha[..., :4, :4]

    @property
    def A2(self) -> np.ndarray:
        return self.alpha[..., 4:, 4:]

    @property
    def B1(self) -> np.ndarray:
        return self.alpha[..., :4, 4:]

    @property
    def B2(self) -> np.ndarray:
        return self.alpha[..., 4:, :4]

    def full(self) -> np.ndarray:
        """The (n+4)x(n+4) dz-coefficient matrix field."""
        return self.alpha

    def k_part(self) -> np.ndarray:
        """Block-diagonal part (A1, A2) embedded in the full matrix."""
        out = np.zeros_like(self.alpha)
        out[..., :4, :4] = self.A1
        out[..., 4:, 4:] = self.A2
        return out

    def p_part(self) -> np.ndarray:
        """Off-diagonal part (B1, B2) embedded in the full matrix."""
        out = self.alpha.copy()
        out[..., :4, :4] = 0.0
        out[..., 4:, 4:] = 0.0
        return out

    def conjugate(self) -> "MCBlocks":
        """Entrywise conjugate blocks: the same form in the conjugate
        holomorphic coordinate."""
        return MCBlocks(np.conj(self.alpha), self.chart, self.b2_residual)

    def a(self, i: int, j: int) -> np.ndarray:
        """Named A1 entry a_ij (1-based, i<j), e.g. a(1,3) = A1[0,2]."""
        return self.A1[..., i - 1, j - 1]


def maurer_cartan(Ff: FrameField) -> MCBlocks:
    """alpha(d_z) = F^{-1} d_z F with its (A1, A2, B1, B2) block views."""
    c = Ff.chart
    inv = Ff.inverse()
    M = MCBlocks(wirtinger(inv @ d_u(Ff.F, c), inv @ d_v(Ff.F, c), -1), c)
    M.b2_residual = float(np.max(np.abs(
        M.B2 + np.swapaxes(M.B1, -1, -2) @ I13)))
    return M


def willmore_energy(S: SurfaceData) -> dict:
    """Energy 4*integral(<kappa, conj kappa>) du dv over the chart.

    On a chart that is not closed (not doubly periodic) the value is only
    the chart-local contribution; the report says which.
    """
    c = S.chart
    value = float(4.0 * integrate(S.k2, c))
    closed = c.periodic_u and c.periodic_v
    return {"value": value, "chart_local": not closed}


def s_willmore_rank(B1: np.ndarray, tol: float = 1e-6,
                    mask: np.ndarray | None = None):
    """Pointwise numerical rank of B1 and its maximum over the mask.

    Rank counts singular values above tol times the largest singular
    value on the chart (global scale, so an O(h^2)-noisy zero block does
    not register).  Max rank 1 characterizes duality (S-type Willmore
    surfaces); rank 0 means totally umbilic.

    The singular values are sqrt(max(lam, 0)) for the eigenvalues lam of
    the n x n Hermitian Gram B1^H B1.  lam is accurate to about
    4 eps max(lam), so for tol >= 1e-6 a rank can differ from the SVD's
    only where a singular value lies within about 5e-4 (relative) of the
    threshold.
    """
    lam = np.linalg.eigvalsh(np.swapaxes(B1.conj(), -1, -2) @ B1)
    sv = np.sqrt(np.maximum(lam, 0.0))
    scale = np.max(sv)
    rank = np.sum(sv > tol * (scale + 1e-300), axis=-1)
    if mask is not None:
        mrank = int(np.max(rank[mask])) if np.any(mask) else 0
    else:
        mrank = int(np.max(rank))
    return rank, mrank

