"""2x2-matrix model of Minkowski 4-space and the SL(2,C) double cover.

The fixed linear isomorphism is

    m(x) = [[x0 - x1, x2 + i x3],
            [x2 - i x3, x0 + x1]],

so that det m(x) = x0^2 - x1^2 - x2^2 - x3^2 = -<x,x>, real vectors map to
Hermitian matrices, null vectors to rank-1 matrices, and the null plane
{(p, -p, q, iq)} maps onto the matrices with vanishing second column.
SO+(1,3) acts through SL(2,C) by X -> g X conj(g)^T.

The column-normalization routines below bring null 4x n matrix fields to
the canonical row pattern (r2 = -r1, r4 = i*r3) by a pointwise rank-1
factorization plus a continuation sweep that fixes the upper-triangular
stabilizer freedom smoothly across the chart.
"""

from __future__ import annotations

import numpy as np

from . import lorentz
from .chart import Chart


class TotallyUmbilicError(ValueError):
    """Raised when a B1 field vanishes identically (round-sphere case)."""


def vec_to_mat(x: np.ndarray) -> np.ndarray:
    """Apply the fixed isomorphism C^4 -> Mat(2,C) along the last axis."""
    x = np.asarray(x, dtype=complex)
    m = np.empty(x.shape[:-1] + (2, 2), dtype=complex)
    m[..., 0, 0] = x[..., 0] - x[..., 1]
    m[..., 0, 1] = x[..., 2] + 1j * x[..., 3]
    m[..., 1, 0] = x[..., 2] - 1j * x[..., 3]
    m[..., 1, 1] = x[..., 0] + x[..., 1]
    return m


def mat_to_vec(m: np.ndarray) -> np.ndarray:
    """Inverse of vec_to_mat."""
    m = np.asarray(m, dtype=complex)
    x = np.empty(m.shape[:-2] + (4,), dtype=complex)
    x[..., 0] = 0.5 * (m[..., 0, 0] + m[..., 1, 1])
    x[..., 1] = 0.5 * (m[..., 1, 1] - m[..., 0, 0])
    x[..., 2] = 0.5 * (m[..., 0, 1] + m[..., 1, 0])
    x[..., 3] = 0.5 * (m[..., 0, 1] - m[..., 1, 0]) / 1j
    return x


def sl2_to_so13(g: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """The Lorentz transform A with m(Ax) = g m(x) conj(g)^T for all x.

    g must have det 1 (pointwise).  The result is real, orthochronous and
    of determinant +1; the kernel of the covering is {+-I}.
    """
    g = np.asarray(g, dtype=complex)
    if np.max(np.abs(np.linalg.det(g) - 1.0)) > tol:
        raise ValueError("det g != 1")
    gh = np.conj(np.swapaxes(g, -1, -2))
    cols = []
    for i in range(4):
        e = np.zeros(4)
        e[i] = 1.0
        X = vec_to_mat(e)
        cols.append(mat_to_vec(g @ X @ gh))
    A = np.stack(cols, axis=-1)
    return np.real(A)


# ---------------------------------------------------------------------------
# null-column normalization


def _rank1_row_direction(X: np.ndarray) -> np.ndarray:
    """Unit row-space vector w of a field of rank-1 2x2 matrices (X = v w^T)."""
    r0 = X[..., 0, :]
    r1 = X[..., 1, :]
    n0 = np.sum(np.abs(r0) ** 2, axis=-1)
    n1 = np.sum(np.abs(r1) ** 2, axis=-1)
    w = np.where((n0 >= n1)[..., None], r0, r1)
    norm = np.sqrt(np.sum(np.abs(w) ** 2, axis=-1, keepdims=True))
    return w / (norm + 1e-300)


def _gauge_from_w(w: np.ndarray) -> np.ndarray:
    """g in SL(2,C) with (conj(g) w) parallel to e1, given unit w."""
    gbar = np.empty(w.shape[:-1] + (2, 2), dtype=complex)
    gbar[..., 0, 0] = np.conj(w[..., 0])
    gbar[..., 0, 1] = np.conj(w[..., 1])
    gbar[..., 1, 0] = -w[..., 1]
    gbar[..., 1, 1] = w[..., 0]
    return np.conj(gbar)


def _align_to_reference(g: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Left-multiply g by the upper-triangular det-1 stabilizer element
    minimizing the Frobenius distance to ref (vectorized over leading axes).

    h = [[t, u], [0, 1/t]]: row2 of hg is row2(g)/t, row1 is t*row1 + u*row2.
    """
    g1 = g[..., 0, :]
    g2 = g[..., 1, :]
    p1 = ref[..., 0, :]
    p2 = ref[..., 1, :]
    n2 = np.sum(np.abs(g2) ** 2, axis=-1) + 1e-300
    c = np.sum(np.conj(g2) * p2, axis=-1) / n2          # best 1/t
    c = np.where(np.abs(c) < 1e-12, 1.0, c)             # guard degenerate ref
    t = 1.0 / c
    u = np.sum(np.conj(g2) * (p1 - t[..., None] * g1), axis=-1) / n2
    out = np.empty_like(g)
    out[..., 0, :] = t[..., None] * g1 + u[..., None] * g2
    out[..., 1, :] = c[..., None] * g2
    return out


def _smooth_gauge(g: np.ndarray) -> np.ndarray:
    """Continuation sweep making the gauge field continuous.

    Row 0 is aligned point-to-point from the (0,0) seed, every later row is
    aligned to its predecessor row in one vectorized step.  Deterministic.
    """
    g = g.copy()
    for j in range(1, g.shape[1]):
        g[0, j] = _align_to_reference(g[0, j], g[0, j - 1])
    for i in range(1, g.shape[0]):
        g[i] = _align_to_reference(g[i], g[i - 1])
    return g


def canonical_shape_residual(B: np.ndarray) -> float:
    """Sup deviation of a 4xn field from rows (r, -r, q, iq), relative."""
    r12 = B[..., 0, :] + B[..., 1, :]
    r34 = B[..., 3, :] - 1j * B[..., 2, :]
    scale = np.max(np.abs(B)) + 1e-300
    return float(max(np.max(np.abs(r12)), np.max(np.abs(r34))) / scale)


def _direction_consistency(dirs: np.ndarray, weights: np.ndarray):
    """Weighted test that the 2-vectors dirs[..., j, :] are pairwise parallel.

    Returns (reference direction field, max relative misalignment) where the
    reference is the direction of the heaviest column per point.
    """
    jmax = np.argmax(weights, axis=-1)
    ref = np.take_along_axis(dirs, jmax[..., None, None], axis=-2)[..., 0, :]
    # |det[ref, d_j]| vanishes iff parallel; weights de-emphasize zero columns
    det = ref[..., None, 0] * dirs[..., 1] - ref[..., None, 1] * dirs[..., 0]
    wmax = np.max(weights) + 1e-300
    mis = np.abs(det) * np.sqrt(weights / wmax)
    return ref, float(np.max(mis))


def canonicalize_B1(B1: np.ndarray, c: Chart, tol: float = 1e-6,
                    orientation: str | None = None):
    """Gauge a null 4xn block field to the canonical row pattern.

    Returns (A, Bhat, orientation) with A an SO+(1,3) field and Bhat
    either A @ B1 (orientation "same") or A @ conj(B1) (orientation
    "conjugate") of the shape with rows (sqrt2*beta, -sqrt2*beta, -k,
    -ik).  When B1 (or conj(B1)) already has that shape, A is None and
    Bhat is B1 (or conj(B1)) itself.  Passing orientation restricts the
    attempt to that branch (a rank-1 field admits both, and they
    normalize different things).

    Raises TotallyUmbilicError for identically vanishing B1 and ValueError
    when the nullity precondition fails.
    """
    B1 = np.asarray(B1, dtype=complex)
    scale = np.max(np.abs(B1))
    if scale < 1e-14:
        raise TotallyUmbilicError("B1 vanishes identically (round sphere)")
    thresh = max(tol, 50 * c.h**2)
    null_res = np.max(np.abs(lorentz.gram(B1))) / scale**2
    if null_res > thresh:
        raise ValueError(f"B1^t I B1 != 0 (residual {null_res:.3e})")

    branches = ("same", "conjugate") if orientation is None else (orientation,)
    results = []
    for orient in branches:
        B = B1 if orient == "same" else np.conj(B1)
        # already canonical (up to discretization): no gauge is needed,
        # and re-deriving one pointwise would only add grid noise whose
        # derivative pollutes the Maurer-Cartan blocks
        if canonical_shape_residual(B) <= min(thresh, 0.1):
            return None, B, orient
        A = _attempt_canonical_gauge(B, thresh)
        if A is None:
            continue
        Bhat = A @ B
        res = canonical_shape_residual(Bhat)
        if res <= thresh:
            results.append((res, orient, A, Bhat))
    if not results:
        raise ValueError("could not reach the canonical B1 shape "
                         f"(orientations tried: {branches})")
    # when both branches clear the threshold (rank one admits both), keep
    # the earlier one unless the other is decisively sharper
    best = results[0]
    for cand in results[1:]:
        if cand[0] < 0.1 * best[0]:
            best = cand
    res, orient, A, Bhat = best
    return A, Bhat, orient


def _attempt_canonical_gauge(B: np.ndarray, thresh: float = 1e-6):
    """One orientation branch of canonicalize_B1.

    The columns, viewed as rank-1 matrices m(b_j) = v_j w_j^T, admit a
    same-orientation gauge exactly when the w_j are pointwise parallel;
    then any g with conj(g) w ~ e1 sends every column into the vanishing
    second-column plane.  Returns the SO+(1,3) gauge A, or None.
    """
    mats = vec_to_mat(np.moveaxis(B, -1, 0))          # (n, Nu, Nv, 2, 2)
    weights = np.moveaxis(np.sum(np.abs(mats) ** 2, axis=(-1, -2)), 0, -1)
    wdirs = np.moveaxis(_rank1_row_direction(mats), 0, -2)   # (Nu, Nv, n, 2)
    ref, mis = _direction_consistency(wdirs, weights)
    if mis > thresh:
        return None
    return sl2_to_so13(_smooth_gauge(_gauge_from_w(ref)))


def common_factor(B1: np.ndarray, c: Chart, eps_rel: float = 1e-6):
    """Split B1 = h0 * Btilde with Btilde bounded below on the chart.

    Desk-scale factorization: if no grid point has all entries below
    eps_rel * max, h0 is identically 1.  Otherwise the (assumed isolated)
    common zero is located at the minimum of |B1|, its order fitted by a
    log-log slope, and the monomial (z - z0)^order divided out.
    """
    B1 = np.asarray(B1, dtype=complex)
    mag = np.sqrt(np.sum(np.abs(B1) ** 2, axis=(-1, -2)))
    top = np.max(mag)
    if np.min(mag) > eps_rel * top:
        return np.ones(B1.shape[:2], dtype=complex), B1.copy()

    i0, j0 = np.unravel_index(np.argmin(mag), mag.shape)
    Z = c.zgrid()
    z0 = Z[i0, j0]
    r = np.abs(Z - z0)
    sel = (r > 3 * c.h) & (r < 12 * c.h) & (mag > 0)
    if np.count_nonzero(sel) < 8:
        raise ValueError("zero set not isolated at this grid resolution")
    slope = np.polyfit(np.log(r[sel]), np.log(mag[sel]), 1)[0]
    order = max(1, int(round(slope)))
    h0 = (Z - z0) ** order
    with np.errstate(divide="ignore", invalid="ignore"):
        Bt = B1 / h0[..., None, None]
    # fill the zero cell by averaging its valid neighbours
    bad = np.abs(h0) < (0.5 * c.h) ** order
    if np.any(bad):
        for (bi, bj) in zip(*np.nonzero(bad)):
            neigh = []
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                ii, jj = bi + di, bj + dj
                if 0 <= ii < mag.shape[0] and 0 <= jj < mag.shape[1] \
                        and not bad[ii, jj]:
                    neigh.append(Bt[ii, jj])
            Bt[bi, bj] = np.mean(neigh, axis=0)
    return h0, Bt
