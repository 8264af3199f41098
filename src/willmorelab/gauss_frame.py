"""Conformal Gauss frame, Maurer-Cartan blocks, and Willmore diagnostics.

The frame F = (phi1, phi2, phi3, phi4, psi_1..psi_n) with

    phi1 = (Y+N)/sqrt2,  phi2 = (-Y+N)/sqrt2,  phi3 = Y_u,  phi4 = Y_v

is pointwise in SO+(1, n+3).  Its Maurer-Cartan form splits into blocks

    alpha(d_z) = [[A1, B1], [B2, A2]],   B2 = -B1^T I_{1,3},

from which the Willmore residual, the associated sphere-congruence
operator, and the rank test for duality all derive.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chart import Chart, d_u, d_v, integrate, wirtinger
from .lorentz import inner, lorentz_inverse, metric, validate_group
from .surface import SurfaceData, normal_derivative_components

SQRT2 = np.sqrt(2.0)
I13 = metric(4)


@dataclass
class FrameField:
    """Moving frame with columns (phi1..phi4, psi_1..psi_n)."""
    F: np.ndarray          # (Nu, Nv, dim, dim), real
    chart: Chart
    group_residual: float = 0.0

    @property
    def n(self) -> int:
        return self.F.shape[-1] - 4

    def inverse(self) -> np.ndarray:
        return lorentz_inverse(self.F)

    def column(self, i: int) -> np.ndarray:
        return self.F[..., :, i]


def sphere_columns(Y: np.ndarray, N: np.ndarray, c: Chart) -> list:
    """The frame columns (Y+N)/sqrt2, (-Y+N)/sqrt2, Y_u, Y_v spanning the
    central sphere bundle of the canonical lift Y with its section N."""
    return [(Y + N) / SQRT2, (-Y + N) / SQRT2, d_u(Y, c), d_v(Y, c)]


def build_frame(S: SurfaceData, tol: float | None = None) -> FrameField:
    """Assemble the conformal Gauss frame from canonical surface data.

    The default validation tolerance scales with h^2, matching the
    stencil accuracy of the tangent columns (boundary stencils carry a
    large constant, hence the generous factor).
    """
    c = S.chart
    if tol is None:
        tol = max(1e-8, 500.0 * c.h**2)
    cols = sphere_columns(S.Y, S.N, c) + [S.psi[..., j, :]
                                          for j in range(S.n)]
    F = np.stack(cols, axis=-1)
    ok, res = validate_group(F, tol)
    residual = float(np.max(res))
    if not np.all(ok):
        raise ValueError(
            f"frame fails group validation: residual {residual:.3e} > {tol:g}")
    return FrameField(F=F, chart=c, group_residual=residual)


@dataclass
class MCBlocks:
    """dz-coefficient of the Maurer-Cartan form, in blocks.

    The dzbar-coefficient is the entrywise conjugate (the frame is real).
    """
    A1: np.ndarray         # (Nu, Nv, 4, 4) complex
    A2: np.ndarray         # (Nu, Nv, n, n) complex
    B1: np.ndarray         # (Nu, Nv, 4, n) complex
    B2: np.ndarray         # (Nu, Nv, n, 4) complex
    chart: Chart
    b2_residual: float = 0.0   # sup |B2 + B1^T I13|

    @property
    def n(self) -> int:
        return self.B1.shape[-1]

    def full(self) -> np.ndarray:
        """Assemble the (n+4)x(n+4) dz-coefficient matrix field."""
        top = np.concatenate([self.A1, self.B1], axis=-1)
        bot = np.concatenate([self.B2, self.A2], axis=-1)
        return np.concatenate([top, bot], axis=-2)

    def _zeros(self) -> np.ndarray:
        """Zero (n+4)x(n+4) field of the blocks' grid shape and dtype."""
        dim = self.n + 4
        dtype = np.result_type(self.A1, self.A2, self.B1, self.B2)
        return np.zeros(self.A1.shape[:-2] + (dim, dim), dtype=dtype)

    def k_part(self) -> np.ndarray:
        """Block-diagonal part (A1, A2) embedded in the full matrix."""
        out = self._zeros()
        out[..., :4, :4] = self.A1
        out[..., 4:, 4:] = self.A2
        return out

    def p_part(self) -> np.ndarray:
        """Off-diagonal part (B1, B2) embedded in the full matrix."""
        out = self._zeros()
        out[..., :4, 4:] = self.B1
        out[..., 4:, :4] = self.B2
        return out

    def conjugate(self) -> "MCBlocks":
        """Entrywise conjugate blocks: the same form in the conjugate
        holomorphic coordinate."""
        return MCBlocks(A1=np.conj(self.A1), A2=np.conj(self.A2),
                        B1=np.conj(self.B1), B2=np.conj(self.B2),
                        chart=self.chart, b2_residual=self.b2_residual)

    def a(self, i: int, j: int) -> np.ndarray:
        """Named A1 entry a_ij (1-based, i<j), e.g. a(1,3) = A1[0,2]."""
        return self.A1[..., i - 1, j - 1]


def maurer_cartan(Ff: FrameField, c: Chart | None = None) -> MCBlocks:
    """alpha(d_z) = F^{-1} d_z F split into (A1, A2, B1, B2)."""
    c = c or Ff.chart
    inv = Ff.inverse()
    alpha = wirtinger(inv @ d_u(Ff.F, c), inv @ d_v(Ff.F, c), -1)
    A1 = alpha[..., :4, :4]
    A2 = alpha[..., 4:, 4:]
    B1 = alpha[..., :4, 4:]
    B2 = alpha[..., 4:, :4]
    res = float(np.max(np.abs(B2 + np.swapaxes(B1, -1, -2) @ I13)))
    return MCBlocks(A1=A1, A2=A2, B1=B1, B2=B2, chart=c, b2_residual=res)


def surface_gauge_blocks(S: SurfaceData) -> MCBlocks:
    """Predicted Maurer-Cartan blocks of the conformal Gauss frame.

    Closed-form in the invariants: A1 from the Schwarzian and
    k^2 = <kappa, conj kappa>, B1 columns (sqrt2 beta_j, -sqrt2 beta_j,
    -k_j, -i k_j), A2 the normal connection.  Useful as an oracle for
    `maurer_cartan` on frames built by `build_frame`.
    """
    shp = S.schwarzian.shape
    s = S.schwarzian
    k2 = S.k2
    s1 = (1 - s - 2 * k2) / (2 * SQRT2)
    s2 = -1j * (1 + s - 2 * k2) / (2 * SQRT2)
    s3 = (1 + s + 2 * k2) / (2 * SQRT2)
    s4 = -1j * (1 - s + 2 * k2) / (2 * SQRT2)
    A1 = np.zeros(shp + (4, 4), dtype=complex)
    A1[..., 0, 2], A1[..., 0, 3] = s1, s2
    A1[..., 1, 2], A1[..., 1, 3] = s3, s4
    A1[..., 2, 0], A1[..., 2, 1] = s1, -s3
    A1[..., 3, 0], A1[..., 3, 1] = s2, -s4

    B1 = np.stack([SQRT2 * S.beta, -SQRT2 * S.beta,
                   -S.kappa, -1j * S.kappa], axis=-2)
    B2 = -np.swapaxes(B1, -1, -2) @ I13
    A2 = np.swapaxes(S.b, -1, -2).astype(complex)
    return MCBlocks(A1=A1, A2=A2, B1=B1, B2=B2, chart=S.chart)


def willmore_energy(S: SurfaceData) -> dict:
    """Energy 4*integral(<kappa, conj kappa>) du dv over the chart.

    On a chart that is not closed (not doubly periodic) the value is only
    the chart-local contribution; the report says which.
    """
    c = S.chart
    value = float(4.0 * integrate(S.k2, c))
    closed = c.periodic_u and c.periodic_v
    return {"value": value, "chart_local": not closed}


def willmore_residual(S: SurfaceData) -> np.ndarray:
    """Component field of D_zbar D_zbar kappa + (conj s / 2) kappa."""
    eta = normal_derivative_components(S, S.beta, zbar=True)
    return eta + 0.5 * np.conj(S.schwarzian)[..., None] * S.kappa


def s_willmore_rank(B1: np.ndarray, tol: float = 1e-6,
                    mask: np.ndarray | None = None):
    """Pointwise numerical rank of B1 and its maximum over the mask.

    Rank counts singular values above tol times the largest singular
    value on the chart (global scale, so an O(h^2)-noisy zero block does
    not register).  Max rank 1 characterizes duality (S-type Willmore
    surfaces); rank 0 means totally umbilic.
    """
    sv = np.linalg.svd(B1, compute_uv=False)
    scale = np.max(sv)
    rank = np.sum(sv > tol * (scale + 1e-300), axis=-1)
    if mask is not None:
        mrank = int(np.max(rank[mask])) if np.any(mask) else 0
    else:
        mrank = int(np.max(rank))
    return rank, mrank

