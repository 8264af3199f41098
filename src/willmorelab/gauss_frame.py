"""Conformal Gauss frame, Maurer-Cartan blocks, and Willmore diagnostics.

The frame F = (phi1, phi2, phi3, phi4, psi_1..psi_n) with

    phi1 = (Y+N)/sqrt2,  phi2 = (-Y+N)/sqrt2,  phi3 = Y_u,  phi4 = Y_v

is pointwise in SO+(1, n+3).  Its Maurer-Cartan form splits into blocks

    alpha(d_z) = [[A1, B1], [B2, A2]],   B2 = -B1^T I_{1,3},

from which the rank test for duality derives.  The Willmore residual
lives in `surface`, next to the normal derivatives it is built from.

The pair (P, Q) of F^{-1} dF is formed one row block of the grid at a
time (`_pair_rows`, the one formula of the pair).  `maurer_cartan`
writes the blocks into a whole-grid pair, which verify-harmonic and
reconstruct read.  analyze reads only the rank of B1 and the sup of the
so-defect B2 + B1^T I13, so `frame_diagnostics` reduces each block's
rows of the pair at once, to the singular values of B1 and the max of
the so-defect at each point, and drops them: F and those planes are
its only grid-sized fields.  The rank rule (`_max_rank`) reads the
singular values of the whole grid, since its scale is the chart's
largest singular value; `s_willmore_rank`, classify's rank, takes them
from a whole pair's row blocks the same way.
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
# analyze's rank tolerance, relative to the chart's largest singular value
RANK_TOL = 1e-6


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

    P = F^{-1} F_u and Q = F^{-1} F_v are real.  The blocks are those of
    alpha = (P + sign iQ)/2 (`wirtinger`): the dz-coefficient for sign -1
    (`maurer_cartan`), the dzbar-coefficient, alpha's conjugate, for
    sign +1.  A1, A2, B1 are the blocks of alpha, each built from the
    pair when read and not kept, so a stage holds a block only while it
    reads it; a pass over row blocks reads a block's rows of B1
    (`b1_rows`) and of the so-defects (`so_defects`).
    """
    P: np.ndarray          # (Nu, Nv, n+4, n+4) real
    Q: np.ndarray          # (Nu, Nv, n+4, n+4) real
    chart: Chart
    sign: int = -1         # the coordinate: -1 for z, +1 for zbar

    def _block(self, rows, cols, grid=...) -> np.ndarray:
        """alpha[grid][..., rows, cols] from the pair (a block, or an
        entry), on the grid rows `grid` (a slice of the first axis; all
        of them by default)."""
        return wirtinger(self.P[grid][..., rows, cols],
                         self.Q[grid][..., rows, cols], self.sign)

    @property
    def A1(self) -> np.ndarray:
        return self._block(slice(None, 4), slice(None, 4))

    @property
    def A2(self) -> np.ndarray:
        return self._block(slice(4, None), slice(4, None))

    @property
    def B1(self) -> np.ndarray:
        return self.b1_rows()

    def b1_rows(self, grid=...) -> np.ndarray:
        """B1 on the grid rows `grid` (a slice of the first axis; all of
        them by default), bit for bit those rows of B1: a row block of
        a pass over the grid reads its B1 with no grid-sized copy."""
        return self._block(slice(None, 4), slice(4, None), grid)

    def full(self) -> np.ndarray:
        """The (n+4)x(n+4) matrix field alpha, in the coordinate `sign`."""
        return wirtinger(self.P, self.Q, self.sign)

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

    def so_defects(self, rows=...) -> tuple:
        """(D_P, D_Q), the so-defects X_B2 + X_B1^T I13 of P and of Q,
        zero for a form in so(1, n+3), on the rows `rows` of the grid (a
        slice of its first axis; all of them by default).  The formula
        is elementwise, so a row block's defects are bit for bit those
        rows of the whole grid's."""
        return _so_defect(self.P[rows]), _so_defect(self.Q[rows])

    def a(self, i: int, j: int) -> np.ndarray:
        """Named A1 entry a_ij (1-based, i<j), e.g. a(1,3) = A1[0,2]."""
        return self._block(i - 1, j - 1)


def _pair_rows(F: np.ndarray, c: Chart, rows, out=None) -> tuple:
    """The rows `rows` of the pair P = F^{-1} F_u, Q = F^{-1} F_v of a
    frame F on the chart c (a slice of the grid's first axis, or `...`):
    the inverse I F^T I of F's rows (`lorentz_inverse`) times the rows
    of F's two stencils (`partial_rows`, bit for bit those rows of `d_u`
    and `d_v`), written into the pair `out` when given.  The one formula
    of the pair: `maurer_cartan` writes it into the whole grid's P and
    Q, `frame_diagnostics` reduces it and drops it."""
    inv = lorentz_inverse(F[rows])
    if out is None:
        out = np.empty((2,) + inv.shape)
    for X, axis in zip(out, (0, 1)):
        np.matmul(inv, partial_rows(F, c, axis, rows), out=X)
    return out


def maurer_cartan(F: np.ndarray, c: Chart) -> MCBlocks:
    """The real pair P = F^{-1} F_u, Q = F^{-1} F_v of F^{-1} dF for a
    frame F (Nu, Nv, dim, dim) on the chart c.

    One row block at a time, on all the process's CPUs (`for_blocks`),
    each block's rows of the pair (`_pair_rows`) written into its rows
    of P and Q; so the temporaries are block-sized and the result does
    not depend on the block layout or the worker count.
    """
    P, Q = np.empty(F.shape), np.empty(F.shape)

    def block(rows):
        _pair_rows(F, c, rows, (P[rows], Q[rows]))

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
    A point that meets that bar before the others takes the remaining
    sweeps' rotations too; its off-diagonal entries are then far below
    the last bits of its diagonal, so in the fields tried (the hexagonal
    torus in S^5, random fields with zero and nearly equal eigenvalues)
    they changed no bit, and the result did not depend on how the field
    was split into blocks.
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


def _singular_values(B1: np.ndarray, sv: np.ndarray, finite: np.ndarray,
                     rows) -> None:
    """The singular values of a row block B1 of the grid (its rows `rows`,
    a slice of the first axis or `...`), written into sv[:, rows]
    (n, Nu, Nv), and whether B1 is finite at each point, into
    finite[rows]; a block that is not finite everywhere writes no
    singular values, since the rank then raises (`_max_rank`).

    The singular values are sqrt(max(lam, 0)) for the eigenvalues lam of
    the n x n Hermitian Gram B1^H B1, formed from real `pairings` and
    diagonalized by `_hermitian_eigvals`, both in passes over the block
    with no per-point LAPACK call.  For n <= 2 each point's values depend
    on its own B1 alone, so they are bit for bit the same in every block
    layout; for n >= 3 the Jacobi sweeps run until the block's last point
    has converged (see `_hermitian_eigvals`).
    """
    planes = to_planes(B1)                      # (2, 4, n, ...)
    ok = np.all(np.isfinite(planes), axis=(0, 1, 2))
    finite[rows] = ok
    if not np.all(ok):
        return
    # B1^H B1 = <R, R> + <I, I> + i(<R, I> - <I, R>), Euclidean pairings
    # of the columns of B1 = R + iI
    R, I = np.swapaxes(planes, 1, 2)            # the columns as rows
    ones = np.ones(R.shape[1])
    RI = pairings(R, I, ones)
    sv[:, rows] = np.sqrt(np.maximum(_hermitian_eigvals(
        pairings(R, R, ones) + pairings(I, I, ones),
        RI - np.swapaxes(RI, 0, 1)), 0.0))


def _max_rank(sv: np.ndarray, finite: np.ndarray, c: Chart,
              tol: float) -> tuple:
    """(pointwise rank, its max over the chart's interior) from the
    singular values sv (n, Nu, Nv) of B1 over the whole grid and the
    mask `finite` of `_singular_values`: the rank rule.

    Rank counts singular values above tol times the largest singular
    value on the chart (global scale, so an O(h^2)-noisy zero block does
    not register).  lam is within 16 eps of the largest lam at the point
    (about 6 eps measured against LAPACK for n <= 5), so for tol >= 1e-6
    a rank can differ from the SVD's only where a singular value lies
    within about 5e-4 (relative) of the threshold.

    Raises ValueError, naming the first such point, where B1 is not
    finite: a NaN or inf would otherwise compare as no singular value
    above the threshold and read as totally umbilic.
    """
    if not np.all(finite):
        point = tuple(int(i) for i in np.argwhere(~finite)[0])
        raise ValueError(f"B1 is not finite at grid point {point}")
    scale = np.max(sv)
    rank = np.sum(sv > tol * (scale + 1e-300), axis=0)
    return rank, int(np.max(rank[c.interior]))


def s_willmore_rank(M: MCBlocks, tol: float = RANK_TOL) -> tuple:
    """Pointwise numerical rank of the B1 block of the form M (in its
    coordinate `M.sign`) and its maximum over the interior of M's chart
    (`Chart.interior`).  Max rank 1 characterizes duality (S-type
    Willmore surfaces); rank 0 means totally umbilic.

    One row block at a time, on all the process's CPUs (`for_blocks`):
    the block's B1 (`MCBlocks.b1_rows`) goes to its singular values
    (`_singular_values`) and is dropped, so no grid-sized B1 or Gram
    exists; the rank rule (`_max_rank`) then reads the singular values
    of the whole grid.
    """
    c = M.chart
    sv = np.empty((M.P.shape[-1] - 4,) + c.shape)
    finite = np.empty(c.shape, dtype=bool)

    def block(rows):
        _singular_values(M.b1_rows(rows), sv, finite, rows)

    for_blocks(block, c.shape)
    return _max_rank(sv, finite, c, tol)


def _point_diagnostics(F: np.ndarray, c: Chart) -> tuple:
    """(singular values of B1 (n, Nu, Nv), the mask where B1 is finite,
    the per-point max of |B2 + B1^T I13| (Nu, Nv)) of the form
    alpha = (P - iQ)/2 of the frame F, from one pass over the row blocks
    of the grid on all the process's CPUs (`for_blocks`).

    Per block: its rows of the pair (`_pair_rows`), B1 from them
    (`wirtinger`) to its singular values (`_singular_values`), and the
    so-defect of alpha, that of the pair halved (exact), to its max
    modulus at each point; then the block's pair, B1 and defects are
    dropped.  So only F and these planes are grid-sized, and every
    value is bit for bit what the same formula gives on the whole
    grid's pair (`maurer_cartan`).
    """
    sv = np.empty((F.shape[-1] - 4,) + c.shape)
    finite, defect = np.empty(c.shape, dtype=bool), np.empty(c.shape)

    def block(rows):
        P, Q = _pair_rows(F, c, rows)
        _singular_values(wirtinger(P[..., :4, 4:], Q[..., :4, 4:], -1),
                         sv, finite, rows)
        D = wirtinger(_so_defect(P), _so_defect(Q), -1)
        defect[rows] = np.max(np.abs(D), axis=(-2, -1))

    for_blocks(block, c.shape)
    return sv, finite, defect


def frame_diagnostics(F: np.ndarray, c: Chart,
                      tol: float = RANK_TOL) -> tuple:
    """(max rank of B1 over the chart's interior, sup |B2 + B1^T I13| over
    the grid): the two Maurer-Cartan diagnostics analyze reports, of the
    form alpha = F^{-1} d_z F of the frame F on the chart c.

    Both come from one pass over F's row blocks (`_point_diagnostics`),
    so no grid-sized P, Q or B1 is built: the rank rule (`_max_rank`,
    the one `s_willmore_rank` applies) reads the per-point singular
    values, and the so-defect's sup is the max of its per-point maxima.
    """
    sv, finite, defect = _point_diagnostics(F, c)
    _, max_rank = _max_rank(sv, finite, c, tol)
    return max_rank, float(np.max(defect))
