"""Minkowski linear algebra for R^{n+4} with signature (1, n+3).

Vectors are numpy arrays whose last axis has length n+4; all operations
broadcast over leading (grid) axes.  The metric is

    <x, y> = -x0*y0 + sum_{j>=1} xj*yj,

bilinear (not Hermitian) also for complex arguments.

The per-point kernels of the frame path run over row blocks of the grid
(`row_blocks`), each block laid out as planes (`to_planes`): the
Lorentz Gram-Schmidt (`orthonormalize`, whose rows project onto the
complement of their span by sign flips, `rejection`), the normal of a
surface in S^3 from the maximal minors of its four sphere fields
(`minors`, in `surface.normal_frame`), the group test (`validate_group`:
the Gram defect from pairings of the column planes, the determinant by
the Laplace expansion `det`, the d = m case of `minors`), the stencils,
inverse and products of the Maurer-Cartan form
(`gauss_frame.maurer_cartan`) and its so-defect
(`gauss_frame.MCBlocks.b2_residual`), the loop curvature
(`harmonic.loop_curvature`) and the forward invariants with their
structure residuals (`surface.invariants`, in two passes).
No kernel calls LAPACK per grid point or solves a Gram matrix; LAPACK
determinants and solves are oracles in the tests only.  Each block holds
about PLANE_BLOCK points (4 PLANE_BLOCK for the invariants: with
blocks of PLANE_BLOCK, their many small per-block calls contend for the
interpreter lock and ran slower than on the whole grid), so a kernel's
temporaries are a few MB that stay in cache and are reused by the
allocator, where grid-sized ones (38-46 MB per call at N=256) are handed
back to the OS after each call and faulted in again on the next.
The Maurer-Cartan form, its so-defect, the loop curvature and the
invariants run their row blocks on all the CPUs the process may use
(`for_blocks`), each block writing only its own rows; the other kernels
run theirs in order on the calling thread (threaded, the group test's
many small per-block calls contend for the interpreter lock and ran
slower).  Every point runs the same arithmetic in every layout and on
every thread, so the results depend neither on the block size nor on
the worker count, bit for bit.
A block body calls neither `inner` nor `chart.d_u`/`chart.d_v`: it takes
`inner_unchecked` and `chart.partial_rows`, the same arithmetic.  The
benchmark's traced run (perfbench/tracer.py) counts the outermost calls
of those three on one span stack that every thread shares, so a call
from two threads at once could nest one under the other and the count
would depend on how the threads interleave.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np


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
    return inner_unchecked(x, y)


def inner_unchecked(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The kernel of `inner`, with no dimension check: the Lorentz
    pairing a block body of `for_blocks` calls, since it must not call
    `inner` (see the module docstring)."""
    return -x[..., 0] * y[..., 0] + np.sum(x[..., 1:] * y[..., 1:], axis=-1)


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


def row_blocks(grid: tuple, block: int | None = None) -> list:
    """Indices of the row blocks of a grid of shape `grid`: slices of its
    leading axis, max(1, block // Nv) rows each, Nv the points per row
    and `block` PLANE_BLOCK unless given.  A grid of at most `block`
    points (a single point too) is one block, `...`, the whole."""
    block = PLANE_BLOCK if block is None else block
    points = math.prod(grid)
    if points <= block:
        return [...]
    rows = max(1, block // (points // grid[0]))
    return [slice(i, i + rows) for i in range(0, grid[0], rows)]


# the process's CPUs, the most workers of `for_blocks`, and its pool of
# the workers other than the calling thread; both set on first use
_workers = None
_pool = None
_pool_lock = threading.Lock()
# marks a thread that is running a block of `for_blocks`
_in_block = threading.local()


def _worker_count() -> int:
    global _workers
    if _workers is None:
        try:
            _workers = len(os.sched_getaffinity(0))
        except AttributeError:      # no CPU affinity off Linux
            _workers = os.cpu_count() or 1
    return _workers


def _helpers() -> ThreadPoolExecutor:
    """The pool of the workers other than the calling thread, made once."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(_worker_count() - 1,
                                       thread_name_prefix="willmorelab-blocks")
        return _pool


def for_blocks(fn, grid: tuple, points: int | None = None) -> None:
    """Run fn(rows) once for each row block `rows` of a grid of shape
    `grid`, on w workers: the calling thread and a pool of the process's
    other CPUs (its CPU affinity), made on first use, take the blocks in
    turn.  With p = `points` (PLANE_BLOCK unless given), each block holds
    p // w points, so the points in flight, and the temporaries, stay
    about p; w is the CPU count, or p // Nv (Nv the points per row) if
    smaller, so that each block is one whole row or more.  A grid of at
    most p points, and a call from inside a block, run as on one worker:
    the calling thread alone, blocks of p points, so a small grid starts
    no thread and the pool never waits on itself.  fn must write only the
    rows it is given; numpy releases the interpreter lock in its loops,
    so the blocks overlap.  Returns once every block has ended; after an
    exception in a block no block starts, and the first exception is
    raised once the running ones have ended."""
    points = PLANE_BLOCK if points is None else points
    nested = getattr(_in_block, "active", False)
    size = math.prod(grid)
    w = 1 if nested or size <= points else min(
        _worker_count(), max(1, points // (size // grid[0])))
    todo = iter(row_blocks(grid, points // w))
    lock = threading.Lock()
    errors = []

    def work():
        _in_block.active = True
        try:
            while True:
                with lock:
                    rows = None if errors else next(todo, None)
                if rows is None:
                    return
                try:
                    fn(rows)
                except BaseException as exc:    # raised by the caller
                    with lock:
                        errors.append(exc)
        finally:
            _in_block.active = nested

    jobs = [_helpers().submit(work) for _ in range(w - 1)]
    work()
    for job in jobs:
        if not job.cancel():        # started: wait for its blocks
            job.result()
    if errors:
        raise errors[0]


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
    rows = X.reshape(math.prod(lead), -1)
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


def orthonormalize(X: np.ndarray) -> np.ndarray:
    """Lorentz Gram-Schmidt of the rows X (..., m, dim): rows E with
    <E_i, E_j> = eps_j delta_ij, eps_j = +-1, E_j a combination of X_0..X_j
    with a positive coefficient on X_j: E_j is w/sqrt|<w, w>|, w the
    `rejection` X_j - sum_{i<j} eps_i <X_j, E_i> E_i, eps_j the sign of
    <w, w>.  A timelike first row of a Lorentzian span gives the signs
    `rejection` takes.  Per row block (`row_blocks`) on planes, pairings
    summed in index order, so every layout runs the same arithmetic.
    Raises np.linalg.LinAlgError where <w, w> is zero or not finite:
    dependent rows or a degenerate span."""
    def pair(x, y):
        p = x * y
        return sum(p[2:], p[1]) - p[0]

    E = np.empty(X.shape)
    for rows in row_blocks(X.shape[:-2]):
        kept, eps = [], []
        for x in to_planes(X[rows]):
            w = x
            for e, sign in zip(kept, eps):
                w = w - (pair(x, e) * sign) * e
            q = pair(w, w)
            if not np.all(np.isfinite(q) & (q != 0)):
                raise np.linalg.LinAlgError("degenerate span of the rows")
            kept.append(w * (1.0 / np.sqrt(np.abs(q))))
            eps.append(np.sign(q))
        E[rows] = np.moveaxis(np.array(kept), (0, 1), (-2, -1))
    return E


def rejection(F: np.ndarray, X: np.ndarray) -> np.ndarray:
    """X - sum_k eps_k f_k <f_k, X>, the Minkowski-orthogonal projection
    of the columns of X (..., dim, m) onto the complement of the span of
    the orthonormal columns f_k of F (..., dim, k), the first timelike:
    eps = diag(-1, 1, ..., 1), their Gram inverse, and the metric I in
    <f_k, X> = f_k^T I X are diagonal, so they act as sign flips."""
    IX = X * metric_signs(X.shape[-2])[:, None]
    return X - F @ ((np.swapaxes(F, -1, -2) @ IX)
                    * metric_signs(F.shape[-1])[:, None])


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
