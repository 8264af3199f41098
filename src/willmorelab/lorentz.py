"""Minkowski linear algebra for R^{n+4} with signature (1, n+3).

Vectors are numpy arrays whose last axis has length n+4; all operations
broadcast over leading (grid) axes.  The metric is

    <x, y> = -x0*y0 + sum_{j>=1} xj*yj,

bilinear (not Hermitian) also for complex arguments.

The per-point kernels of the frame path run over row blocks of the grid
(`row_blocks`), each block laid out as planes (`to_planes`): the
Minkowski complement of a span (`complement_solver`), the normal of a
surface in S^3 from the maximal minors of its four sphere fields
(`minors`, in `surface.normal_frame`), the group test (`validate_group`:
the Gram defect from pairings of the column planes, the determinant by
the Laplace expansion `det`, the d = m case of `minors`) and the inverse
and products of the Maurer-Cartan form (`gauss_frame.maurer_cartan`).
No kernel calls LAPACK per grid point; the LAPACK determinant and solves
are oracles in the tests only.  Each block holds about PLANE_BLOCK
points, so a kernel's temporaries are a few MB that stay in cache and are
reused by the allocator, where grid-sized ones (38-46 MB per call at
N=256) are handed back to the OS after each call and faulted in again on
the next.
Every point runs the same arithmetic in every layout, so the results do
not depend on the block size bit for bit.
"""

from __future__ import annotations

import itertools

import numpy as np

__all__ = [
    "metric_signs",
    "inner",
    "norm2",
    "gram",
    "to_planes",
    "grid_first",
    "row_blocks",
    "pairings",
    "product",
    "minors",
    "det",
    "complement_solver",
    "is_forward_lightlike",
    "validate_group",
]


def metric_signs(dim: int) -> np.ndarray:
    """The diagonal (-1, 1, ..., 1) of the metric: multiplying a vector
    by it entrywise is multiplying by the metric, with the same bits."""
    s = np.ones(dim)
    s[0] = -1.0
    return s


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
    """X^T I X: the pairings <x_i, x_j> of the columns of a complex X
    (..., d, m), such as the block B1 of the Maurer-Cartan form.

    With X = R + iI: <R, R> - <I, I> + i(<R, I> + <I, R>) from the real
    `pairings` of the columns laid out as planes, with no complex
    matmul.  Raises TypeError for a real X.
    """
    if not np.iscomplexobj(X):
        raise TypeError("gram takes a complex field; pair real columns "
                        "with `pairings`")
    s = metric_signs(X.shape[-2])
    R, I = np.swapaxes(to_planes(X), 1, 2)      # the columns as rows
    RI = pairings(R, I, s)
    G = np.empty(RI.shape, dtype=complex)
    np.subtract(pairings(R, R, s), pairings(I, I, s), out=G.real)
    np.add(RI, np.swapaxes(RI, 0, 1), out=G.imag)
    return np.moveaxis(G, (0, 1), (-2, -1))


# points per block of the grid: `to_planes` transposes the grid in blocks
# of this many points, which stay in cache (about 3x faster than one
# strided copy at N=256), and the per-point kernels of the frame path run
# over row blocks of about this many points (`row_blocks`), so that their
# temporaries are block-sized and never fault in fresh pages
PLANE_BLOCK = 4096


def row_blocks(grid: tuple) -> list:
    """Indices of the row blocks of a grid of shape `grid`: slices of its
    leading axis, max(1, PLANE_BLOCK // Nv) rows each, Nv the points per
    row.  A grid of at most PLANE_BLOCK points (a single point too) is one
    block, `...`, the whole."""
    points = int(np.prod(grid))
    if points <= PLANE_BLOCK:
        return [...]
    rows = max(1, PLANE_BLOCK // (points // grid[0]))
    return [slice(i, i + rows) for i in range(0, grid[0], rows)]


def to_planes(X: np.ndarray, values: int = 2) -> np.ndarray:
    """A real field (..., a, b) as contiguous planes (a, b, ...), or a
    complex one as its real and imaginary planes (2, a, b, ...), so that
    each entry is one unit-stride (...) array; `values` is the number of
    trailing value axes (two: a, b).

    A real field whose entries already are contiguous planes (built on
    planes and viewed with the grid axes first, `grid_first`) is returned
    as a view.  Otherwise the grid is flattened and transposed in blocks
    of PLANE_BLOCK points; a complex field is read as interleaved
    floats, so the reads run along memory."""
    X = np.asarray(X)
    k = X.ndim - values
    cplx = np.iscomplexobj(X)
    if not cplx:
        P = X.transpose(*range(k, X.ndim), *range(k))
        if P.flags.c_contiguous:
            return P
    X = np.ascontiguousarray(X)
    lead = X.shape[:k]
    if cplx:
        X = X.view(X.real.dtype).reshape(X.shape + (2,))
    rows = X.reshape(int(np.prod(lead)), -1)
    out = np.empty(rows.shape[::-1], dtype=rows.dtype)
    for i in range(0, len(rows), PLANE_BLOCK):
        out[:, i:i + PLANE_BLOCK] = rows[i:i + PLANE_BLOCK].T
    out = out.reshape(X.shape[k:] + lead)
    return np.moveaxis(out, values, 0) if cplx else out


def grid_first(P: np.ndarray) -> np.ndarray:
    """Planes (..., Nu, Nv) viewed as a field (Nu, Nv, ...)."""
    return np.moveaxis(P, (-2, -1), (0, 1))


def pairings(A: np.ndarray, B: np.ndarray,
             signs: np.ndarray | None = None) -> np.ndarray:
    """The pairings sum_k s_k a_ik b_jk (p, q, ...) of the rows of real
    planes A (p, d, ...) and B (q, d, ...), with s the metric signs (the
    Lorentz pairing, as `inner`) unless `signs` is given: the `product`
    of the signed A with B transposed."""
    d = A.shape[1]
    s = metric_signs(d) if signs is None else signs
    return product(A * s.reshape((d,) + (1,) * (A.ndim - 2)),
                   np.swapaxes(B, 0, 1))


def product(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """X Y for small matrices of fields stored as planes, X (a, b, ...)
    and Y (b, c, ...).

    The grid axes trail, so the einsum runs one elementwise pass over
    the grid per entry and row: a stacked product of small matrices
    costs several times as much, a complex one several times more.
    """
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


def minors(columns) -> dict:
    """The maximal minors of a d x m matrix field, m <= d, given as its m
    columns, each planes (d, ...): {rows: minor} for each increasing
    tuple of m of the d rows, the minor on those rows.

    The Laplace expansion along the last column, and along the last
    column of every smaller minor, built up from the first column: the
    minor on each set of k+1 rows and the first k+1 columns is the
    alternating sum, last row first, of the rows' entries in column k
    times the minors on the other k rows.  No pivoting.
    """
    d = len(columns[0])
    level = {(i,): columns[0][i] for i in range(d)}
    for k in range(1, len(columns)):
        column, below = columns[k], level
        level = {}
        for rows in itertools.combinations(range(d), k + 1):
            # the last row's term has the sign (-1)^(2k) = +1
            acc = column[rows[k]] * below[rows[:k]]
            for p in range(k - 1, -1, -1):
                term = column[rows[p]] * below[rows[:p] + rows[p + 1:]]
                if (k - p) % 2:
                    acc -= term
                else:
                    acc += term
            level[rows] = acc
    return level


def det(X: np.ndarray) -> np.ndarray:
    """Determinant of a d x d matrix field X (d, d, ...) stored as planes:
    its one maximal minor (`minors`), d 2^(d-1) products of planes."""
    return minors(np.swapaxes(X, 0, 1))[tuple(range(len(X)))]


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
    X = product(Ai, C)
    Si = _small_inverse(G[k:, k:] - product(np.swapaxes(C, 0, 1), X))
    Z = product(X, Si)
    upper = np.concatenate(
        [Ai + product(Z, np.swapaxes(X, 0, 1)), -Z], axis=1)
    lower = np.concatenate([-np.swapaxes(Z, 0, 1), Si], axis=1)
    return np.concatenate([upper, lower], axis=0)


def complement_solver(B: np.ndarray) -> np.ndarray:
    """Q = G^{-1} B s for the rows B (..., m, dim), m <= 4, G = (B s) B^T
    their Lorentz Gram matrix and s the metric signs.

    The Minkowski-orthogonal projection of w onto the complement of the
    span of the rows is then w - B^T (Q w).  Each row block of the grid
    (`row_blocks`) is laid out as contiguous planes (m, dim, ...), so
    that the Gram matrix, its closed-form inverse (`_gram_inverse`) and
    the product with B s are entry-by-entry passes over the block, not a
    LAPACK solve per point.
    Raises np.linalg.LinAlgError for a singular or non-finite G.
    """
    Q = np.empty(B.shape)
    for rows in row_blocks(B.shape[:-2]):
        _complement_block(B[rows], Q[rows])
    return Q


def _complement_block(B: np.ndarray, out: np.ndarray) -> None:
    """`complement_solver` of the rows B of one block, written into out."""
    P = to_planes(B)
    Ps = P * metric_signs(B.shape[-1]).reshape((-1,) + (1,) * (B.ndim - 2))
    Q = product(_gram_inverse(pairings(P, P)), Ps)
    out[...] = np.moveaxis(Q, (0, 1), (-2, -1))


def is_forward_lightlike(x: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """True where <x,x> ~ 0 (relative to |x|^2) and x0 > 0."""
    x = np.asarray(x)
    scale = np.sum(np.abs(x) ** 2, axis=-1) + 1e-300
    return (np.abs(norm2(x)) <= tol * scale) & (np.real(x[..., 0]) > 0)


def validate_group(M: np.ndarray, tol: float = 1e-9):
    """Membership test for SO+(1, d-1) acting on R^d, for real M.

    Checks M^T I M = I, det M = +1 and the orthochronous condition
    M[0,0] > 0 (forward light cone preserved).  Returns (ok, residual)
    where residual is the largest violation of the two equality
    constraints; pointwise over leading axes, one row block of the grid
    (`row_blocks`) at a time, laid out as planes: the d(d+1)/2 pairings
    of the column planes on and above the diagonal, less I, reduced by a
    running max, and `det`.  M^T I M is symmetric bit for bit (s_k = +-1
    and the product of two planes commutes), so the entries below the
    diagonal would repeat those above.
    """
    M = np.asarray(M)
    d = M.shape[-1]
    s = metric_signs(d)
    residual = np.empty(M.shape[:-2])
    for rows in row_blocks(M.shape[:-2]):
        C = np.swapaxes(to_planes(M[rows]), 0, 1)   # the columns as rows
        Cs = C * s.reshape((d,) + (1,) * (C.ndim - 2))
        r = np.abs(det(C) - 1.0)
        for i in range(d):
            for j in range(i, d):
                g = np.einsum("k...,k...->...", Cs[i], C[j])
                if i == j:
                    g -= s[i]        # I's diagonal entry
                r = np.maximum(r, np.abs(g))
        residual[rows] = r
    ok = (residual <= tol) & (M[..., 0, 0] > 0)
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
