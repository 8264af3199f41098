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

from .chart import Chart, integrate, partial_rows, wirtinger
from .lorentz import (for_blocks, lorentz_inverse, metric_signs, pairings,
                      to_planes, validate_group)
from .surface import Invariants, SurfaceData, sphere_columns

# the diagonal of I13 = diag(-1, 1, 1, 1): X I13 is X * S13, bit for bit
S13 = metric_signs(4)


def build_frame(S: SurfaceData) -> tuple:
    """Assemble the conformal Gauss frame from canonical surface data:
    (F, group residual), F (Nu, Nv, dim, dim) the moving frame with
    columns (phi1..phi4, psi_1..psi_n) and the residual the sup of its
    group defect (`lorentz.validate_group`).

    The validation tolerance scales with h^2, matching the stencil
    accuracy of the tangent columns (boundary stencils carry a large
    constant, hence the generous factor); a frame beyond it raises
    ValueError.
    """
    c = S.chart
    tol = max(1e-8, 500.0 * c.h**2)
    cols = sphere_columns(S.Y, S.N, S.Yu, S.Yv) \
        + [S.psi[..., j, :] for j in range(S.n)]
    F = np.stack(cols, axis=-1)
    ok, res = validate_group(F, tol)
    residual = float(np.max(res))
    if not np.all(ok):
        raise ValueError(
            f"frame fails group validation: residual {residual:.3e} > {tol:g}")
    return F, residual


def _so_defect(X: np.ndarray) -> np.ndarray:
    """X_B2 + X_B1^T I13, zero for X in so(1, n+3) (B2 = -B1^T I13).

    Both operations write a C-ordered output, so they run along its
    unit-stride last axis; the transposed operand alone is strided.
    """
    D = np.empty(X.shape[:-2] + (X.shape[-1] - 4, 4), dtype=X.dtype)
    np.multiply(np.swapaxes(X[..., :4, 4:], -1, -2), S13, out=D)
    D += X[..., 4:, :4]
    return D


@dataclass
class MCBlocks:
    """The Maurer-Cartan form F^{-1} dF = P du + Q dv, with complex blocks.

    P = F^{-1} F_u and Q = F^{-1} F_v are real; the dz-coefficient is
    alpha = (P - iQ)/2 and the dzbar-coefficient its conjugate.  A1, A2,
    B1, B2 are the blocks of alpha, each built from the pair when read
    and not kept, since a reconstruct op holds its normalized form to
    the end.
    """
    P: np.ndarray          # (Nu, Nv, n+4, n+4) real
    Q: np.ndarray          # (Nu, Nv, n+4, n+4) real
    chart: Chart

    def _block(self, rows, cols) -> np.ndarray:
        """alpha[..., rows, cols] from the pair (a block, or an entry)."""
        return wirtinger(self.P[..., rows, cols], self.Q[..., rows, cols], -1)

    @property
    def A1(self) -> np.ndarray:
        return self._block(slice(None, 4), slice(None, 4))

    @property
    def A2(self) -> np.ndarray:
        return self._block(slice(4, None), slice(4, None))

    @property
    def B1(self) -> np.ndarray:
        return self._block(slice(None, 4), slice(4, None))

    @property
    def B2(self) -> np.ndarray:
        return self._block(slice(4, None), slice(None, 4))

    def full(self) -> np.ndarray:
        """The (n+4)x(n+4) dz-coefficient matrix field alpha."""
        return wirtinger(self.P, self.Q, -1)

    def k_part(self) -> np.ndarray:
        """Block-diagonal part (A1, A2) embedded in the full matrix."""
        out = np.zeros(self.P.shape, dtype=complex)
        out[..., :4, :4] = self.A1
        out[..., 4:, 4:] = self.A2
        return out

    def p_part(self) -> np.ndarray:
        """Off-diagonal part (B1, B2) embedded in the full matrix."""
        out = self.full()
        out[..., :4, :4] = 0.0
        out[..., 4:, 4:] = 0.0
        return out

    def conjugate(self) -> "MCBlocks":
        """Entrywise conjugate blocks: the same form in the conjugate
        holomorphic coordinate (dz and dzbar exchange, v -> -v)."""
        return MCBlocks(self.P, -self.Q, self.chart)

    def so_defects(self, rows=...) -> tuple:
        """(D_P, D_Q), the so-defects X_B2 + X_B1^T I13 of P and of Q,
        zero for a form in so(1, n+3), on the rows `rows` of the grid (a
        slice of its first axis; all of them by default).  The formula
        is elementwise, so a row block's defects are bit for bit those
        rows of the whole grid's."""
        return _so_defect(self.P[rows]), _so_defect(self.Q[rows])

    @property
    def b2_residual(self) -> float:
        """sup |B2 + B1^T I13| over alpha's blocks, bit for bit: the
        so-defect of alpha = (P - iQ)/2 is that of the pair halved, which
        is exact.  One row block of the grid at a time, on all the
        process's CPUs (`for_blocks`), each block writing the max of its
        rows, so no grid-sized defect exists; the max of the rows' maxima
        is the grid's max."""
        top = np.empty(self.P.shape[0])

        def block(rows):
            top[rows] = np.max(np.abs(wirtinger(*self.so_defects(rows), -1)),
                               axis=(-3, -2, -1))

        for_blocks(block, self.P.shape[:-2])
        return float(np.max(top))

    def a(self, i: int, j: int) -> np.ndarray:
        """Named A1 entry a_ij (1-based, i<j), e.g. a(1,3) = A1[0,2]."""
        return self._block(i - 1, j - 1)


def maurer_cartan(F: np.ndarray, c: Chart) -> MCBlocks:
    """The real pair P = F^{-1} F_u, Q = F^{-1} F_v of F^{-1} dF for a
    frame F (Nu, Nv, dim, dim) on the chart c.

    One row block at a time, on all the process's CPUs (`for_blocks`):
    the block's rows of F's two stencils (`partial_rows`, bit for bit
    those rows of `d_u` and `d_v`), the inverse I F^T I of its rows and
    the two products, written into the block's rows of P and Q; so the
    temporaries are block-sized and the result does not depend on the
    block layout or the worker count.
    """
    P, Q = np.empty(F.shape), np.empty(F.shape)

    def block(rows):
        inv = lorentz_inverse(F[rows])
        for X, axis in ((P, 0), (Q, 1)):
            np.matmul(inv, partial_rows(F, c, axis, rows), out=X[rows])

    for_blocks(block, F.shape[:-2])
    return MCBlocks(P, Q, c)


def willmore_energy(inv: Invariants, c: Chart) -> dict:
    """Energy 4*integral(<kappa, conj kappa>) du dv over the chart.

    On a chart that is not closed (not doubly periodic) the value is only
    the chart-local contribution; the report says which.
    """
    value = float(4.0 * integrate(inv.k2, c))
    closed = c.periodic_u and c.periodic_v
    return {"value": value, "chart_local": not closed}


def _hermitian_eigvals(Hr: np.ndarray, Hi: np.ndarray) -> np.ndarray:
    """Eigenvalues (n, ...) of a finite Hermitian n x n matrix field given
    as planes (n, n, ...) of its real and imaginary parts.

    Cyclic Jacobi rotations on planes, each a few elementwise passes over
    the grid: at (p, q) the phase f = conj(h_pq)/|h_pq| makes the entry
    real, and the real rotation by t = tan(theta), the smaller root of
    t^2 + 2 tau t - 1 = 0 with tau = (h_qq - h_pp) / (2 |h_pq|), zeroes
    it.  As in the classical code, an entry below the last bits of both
    diagonal entries is set to zero with no rotation, and t = |h_pq| / h
    where |h_pq| is below the last bits of h = h_qq - h_pp, so nothing
    overflows.  n = 1 takes no rotation and n = 2 exactly one, the closed
    form; larger n sweeps until the sum of the off-diagonal moduli is
    below eps times that of the diagonal at every point (quadratic
    convergence: a handful of sweeps, 4 to 7 for random n = 3 to 8).
    """
    n = len(Hr)
    eps = np.finfo(float).eps
    d = [Hr[p, p] for p in range(n)]
    off = {(p, q): Hr[p, q] + 1j * Hi[p, q]
           for q in range(n) for p in range(q)}

    def entry(r, p):        # h_rp; the entry (p, r) holds its conjugate
        return off[r, p] if r < p else np.conj(off[p, r])

    def store(r, p, x):
        off[(r, p) if r < p else (p, r)] = x if r < p else np.conj(x)

    for _ in range(64 if off else 0):       # a cap convergence never meets
        for p, q in sorted(off):
            c = off[p, q]
            a, h = np.abs(c), d[q] - d[p]
            g = 100.0 * a
            skip = (np.abs(d[p]) + g == np.abs(d[p])) \
                & (np.abs(d[q]) + g == np.abs(d[q]))
            direct = (np.abs(h) + g == np.abs(h)) & ~skip    # h != 0
            a1 = np.where(skip, 1.0, a)
            tau = h / (2.0 * np.where(direct, 1.0, a1))
            t = np.where(skip, 0.0, np.where(
                direct, a / np.where(direct, h, 1.0),
                np.where(tau >= 0, 1.0, -1.0)
                / (np.abs(tau) + np.hypot(1.0, tau))))
            d[p] = d[p] - t * a
            d[q] = d[q] + t * a
            others = [r for r in range(n) if r not in (p, q)]
            if others:
                # f = e^{-i phi} by real divisions, each at most 1
                f = np.where(skip, 1.0, c.real / a1 - 1j * (c.imag / a1))
                cs = 1.0 / np.sqrt(1.0 + t * t)
                sn = t * cs
                for r in others:
                    hp, hq = entry(r, p), f * entry(r, q)
                    store(r, p, cs * hp - sn * hq)
                    store(r, q, sn * hp + cs * hq)
            off[p, q] = np.zeros_like(c)
        if not np.any(sum(np.abs(x) for x in off.values())
                      > eps * sum(np.abs(x) for x in d)):
            break
    return np.stack(d)


def s_willmore_rank(B1: np.ndarray, c: Chart, tol: float = 1e-6):
    """Pointwise numerical rank of B1 and its maximum over the chart's
    interior (`Chart.interior`).

    Rank counts singular values above tol times the largest singular
    value on the chart (global scale, so an O(h^2)-noisy zero block does
    not register).  Max rank 1 characterizes duality (S-type Willmore
    surfaces); rank 0 means totally umbilic.

    The singular values are sqrt(max(lam, 0)) for the eigenvalues lam of
    the n x n Hermitian Gram B1^H B1, formed from real `pairings` and
    diagonalized by `_hermitian_eigvals`, both in passes over the grid
    with no per-point LAPACK call.  lam is within 16 eps of the largest
    lam at the point (about 6 eps measured against LAPACK for n <= 5), so
    for tol >= 1e-6 a rank can differ from the SVD's only where a
    singular value lies within about 5e-4 (relative) of the threshold.

    Raises ValueError, naming a point, where B1 is not finite: a NaN
    or inf would otherwise compare as no singular value above the
    threshold and read as totally umbilic.
    """
    planes = to_planes(B1)                      # (2, 4, n, ...)
    bad = ~np.all(np.isfinite(planes), axis=(0, 1, 2))
    if np.any(bad):
        point = tuple(int(i) for i in np.argwhere(bad)[0])
        raise ValueError(f"B1 is not finite at grid point {point}")
    # B1^H B1 = <R, R> + <I, I> + i(<R, I> - <I, R>), Euclidean pairings
    # of the columns of B1 = R + iI
    R, I = np.swapaxes(planes, 1, 2)            # the columns as rows
    ones = np.ones(R.shape[1])
    RI = pairings(R, I, ones)
    sv = np.sqrt(np.maximum(_hermitian_eigvals(
        pairings(R, R, ones) + pairings(I, I, ones),
        RI - np.swapaxes(RI, 0, 1)), 0.0))
    scale = np.max(sv)
    rank = np.sum(sv > tol * (scale + 1e-300), axis=0)
    return rank, int(np.max(rank[c.interior]))

