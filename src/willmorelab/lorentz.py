"""Minkowski linear algebra for R^{n+4} with signature (1, n+3).

Vectors are numpy arrays whose last axis has length n+4; all operations
broadcast over leading (grid) axes.  The metric is

    <x, y> = -x0*y0 + sum_{j>=1} xj*yj,

bilinear (not Hermitian) also for complex arguments.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "metric",
    "metric_signs",
    "inner",
    "norm2",
    "gram",
    "to_planes",
    "pairings",
    "is_forward_lightlike",
    "validate_group",
]


def metric_signs(dim: int) -> np.ndarray:
    """The diagonal (-1, 1, ..., 1) of the metric: multiplying a vector
    by it entrywise is multiplying by the metric, with the same bits."""
    s = np.ones(dim)
    s[0] = -1.0
    return s


def metric(dim: int) -> np.ndarray:
    """diag(-1, 1, ..., 1) of size dim x dim."""
    return np.diag(metric_signs(dim))


def inner(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Lorentzian inner product along the last axis (bilinear, broadcasting)."""
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape[-1] != y.shape[-1]:
        raise ValueError(
            f"dimension mismatch: {x.shape[-1]} vs {y.shape[-1]}"
        )
    return -x[..., 0] * y[..., 0] + np.sum(x[..., 1:] * y[..., 1:], axis=-1)


def norm2(x: np.ndarray) -> np.ndarray:
    """<x, x>."""
    return inner(x, x)


def gram(X: np.ndarray) -> np.ndarray:
    """X^T I X: the pairings <x_i, x_j> of the columns of X (..., d, m).

    Real X: (X s)^T X with the sign flips s = `metric_signs(d)` on the
    rows of X; I X is exact, so this equals the product with the metric
    bit for bit, without the stacked d x d matmul.  Complex X = R + iI:
    <R, R> - <I, I> + i(<R, I> + <I, R>) from the real `pairings` of the
    columns laid out as planes, with no complex matmul.
    """
    s = metric_signs(X.shape[-2])
    if not np.iscomplexobj(X):
        return np.swapaxes(X * s[:, None], -1, -2) @ X
    R, I = np.swapaxes(to_planes(X), 1, 2)      # the columns as rows
    RI = pairings(R, I, s)
    G = np.empty(RI.shape, dtype=complex)
    np.subtract(pairings(R, R, s), pairings(I, I, s), out=G.real)
    np.add(RI, np.swapaxes(RI, 0, 1), out=G.imag)
    return np.moveaxis(G, (0, 1), (-2, -1))


# rows of a grid transposed per block by `to_planes`: a block of 4096
# points stays in cache, which makes the transpose about 3x faster than
# one strided copy at N=256
PLANE_BLOCK = 4096


def to_planes(X: np.ndarray) -> np.ndarray:
    """A real (..., a, b) field as contiguous planes (a, b, ...), or a
    complex one as its real and imaginary planes (2, a, b, ...), so that
    each entry is one unit-stride (...) array.

    The grid is flattened and transposed in blocks of PLANE_BLOCK
    points; a complex field is read as interleaved floats, so the reads
    run along memory."""
    X = np.ascontiguousarray(X)
    lead = X.shape[:-2]
    cplx = np.iscomplexobj(X)
    if cplx:
        X = X.view(X.real.dtype).reshape(X.shape + (2,))
    rows = X.reshape(int(np.prod(lead)), -1)
    out = np.empty(rows.shape[::-1], dtype=rows.dtype)
    for i in range(0, len(rows), PLANE_BLOCK):
        out[:, i:i + PLANE_BLOCK] = rows[i:i + PLANE_BLOCK].T
    out = out.reshape(X.shape[len(lead):] + lead)
    return np.moveaxis(out, 2, 0) if cplx else out


def pairings(A: np.ndarray, B: np.ndarray,
             signs: np.ndarray | None = None) -> np.ndarray:
    """The pairings sum_k s_k a_ik b_jk (p, q, ...) of the rows of real
    planes A (p, d, ...) and B (q, d, ...), with s the metric signs (the
    Lorentz pairing, as `inner`) unless `signs` is given.

    The grid axes trail, so the einsum runs one elementwise pass over
    the grid per entry and row: a stacked product of small matrices
    costs several times as much, a complex one several times more.
    """
    d = A.shape[1]
    s = metric_signs(d) if signs is None else signs
    return np.einsum("ik...,jk...->ij...",
                     A * s.reshape((d,) + (1,) * (A.ndim - 2)), B)


def is_forward_lightlike(x: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """True where <x,x> ~ 0 (relative to |x|^2) and x0 > 0."""
    x = np.asarray(x)
    scale = np.sum(np.abs(x) ** 2, axis=-1) + 1e-300
    return (np.abs(norm2(x)) <= tol * scale) & (np.real(x[..., 0]) > 0)


def validate_group(M: np.ndarray, tol: float = 1e-9):
    """Membership test for SO+(1, d-1) acting on R^d.

    Checks M^T I M = I, det M = +1 and the orthochronous condition
    M[0,0] > 0 (forward light cone preserved).  Returns (ok, residual)
    where residual is the largest violation of the two equality
    constraints; pointwise over leading axes.
    """
    M = np.asarray(M)
    d = M.shape[-1]
    # M^T I M - I: the signs come off the diagonal of the fresh Gram
    # matrix in place (x - 0 is exact), then one max per point
    G = gram(M).reshape(M.shape[:-2] + (d * d,))
    G[..., ::d + 1] -= metric_signs(d)
    res_orth = np.max(np.abs(G), axis=-1)
    res_det = np.abs(np.linalg.det(M) - 1.0)
    residual = np.maximum(res_orth, res_det)
    ok = (residual <= tol) & (np.real(M[..., 0, 0]) > 0)
    return ok, residual


def lorentz_inverse(M: np.ndarray) -> np.ndarray:
    """Exact inverse I M^T I for M in O(1, d-1); cheaper than LU.

    The diagonal metric only flips signs, so I M^T I is the transpose
    with entries (i, j) scaled by s_i s_j, s = diag(I).  The result is a
    new C-contiguous array (matmuls on a strided transpose are slower).
    """
    M = np.asarray(M)
    s = metric_signs(M.shape[-1])
    out = np.swapaxes(M, -1, -2).copy()
    out *= np.outer(s, s)
    return out
