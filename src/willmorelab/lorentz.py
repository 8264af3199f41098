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
    "inner",
    "norm2",
    "is_forward_lightlike",
    "validate_group",
]


def metric(dim: int) -> np.ndarray:
    """diag(-1, 1, ..., 1) of size dim x dim."""
    I = np.eye(dim)
    I[0, 0] = -1.0
    return I


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
    I = metric(d)
    G = np.swapaxes(M, -1, -2) @ I @ M
    res_orth = np.max(np.abs(G - I), axis=(-1, -2))
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
    s = np.diag(metric(M.shape[-1]))
    out = np.swapaxes(M, -1, -2).copy()
    out *= np.outer(s, s)
    return out
