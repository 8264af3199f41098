"""Harmonic-map side: loop-parameter family, flatness, harmonicity tests.

For a map into SO+(1,n+3)/SO+(1,3)xSO(n) with Maurer-Cartan coefficient
alpha(d_z) = k + p, k = diag(A1, A2) and p the off-diagonal (B1, B2),
the family

    alpha_lambda = (k + lambda^{-1} p) dz + (conj(k) + lambda conj(p)) dzbar

is flat for every unit lambda exactly when the map is harmonic (the
loop-group criterion of Uhlenbeck and of Dorfmeister-Pedit-Wu); the
flatness defect at non-trivial lambda is therefore a harmonicity meter.

The curvature of alpha_lambda is a Laurent polynomial in lambda,
R(lambda) = R0 + lambda R+ + lambda^{-1} R-, and R- = -conj(R+) holds
exactly on the grid, because the stencils have real coefficients.  So on
|lambda| = 1

    R(lambda) = R0 + lambda R+ - conj(lambda R+) = R0 + 2i Im(lambda R+).

The frame is real, so alpha = (P - iQ)/2 with P = F^{-1} F_u and
Q = F^{-1} F_v, the real pair that `MCBlocks` holds; `loop_curvature`
reads P and Q as they are, with no conversion, and the coefficients
split into two real fields:

    K = Q_u - P_v + [P, Q]                  the Maurer-Cartan defect of F
    H = P_u + Q_v + [P_k, P] + [Q_k, Q]     its p-part H_p is the tension

K is O(h^2) for every frame, harmonic or not; H_p = 0 is the harmonic
map equation.  In these terms

    R0 = -2i diag(W1, W2),   W = -K_k / 4,
    R+ = (H_p + i K_p) / 4,  Im(lambda R+) = (Re(lambda) K_p
                                              + Im(lambda) H_p) / 4,

so lambda = +-1 measures only the discretization floor K, and lambda = i
adds the tension H_p.  The harmonicity lines of `harmonic_residuals`
come from the same fields: B1_line = (H - iK)/4 on the B1 block (the
conjugate of R+ there), and A1_line, A2_line are W1, W2 with B2 written
as -B1^T I13.  They differ from W by terms linear in the O(h^2) defect
D = B2 + B1^T I13 of P and of Q (`MCBlocks.so_defects`, whose sup over
alpha is `MCBlocks.b2_residual`).

The arithmetic is real because a stacked product of small complex
matrices costs several times its real counterpart: at N=256 on a 2-CPU
Xeon with one BLAS thread, an (N, N, 4, 4) complex matmul takes about
17 ms against 2.4 ms for the real one.  `loop_curvature` takes one real
stencil per partial of K, stencils H only on the off-diagonal blocks,
where R+ and B1_line read it, and accumulates both in place.
`flatness_sweep` and `harmonic_residuals` both read that one
`LoopCurvature` and reduce each field to its interior sup, the number a
report prints; each lambda sample costs a real axpy on the off-diagonal
entries and a max.

The small block products of H and of the A-lines run as per-entry
passes on planes (`lorentz.product`), one row block of the grid at a
time (`lorentz.row_blocks`), because a stacked product of small real
matrices is one BLAS call per grid point: at N=255 on veronese_s4,
P[..., :4, :4] @ P[..., :4, 4:] takes 5.7 ms that way against 2.6 ms as
passes on planes.  The planes of one row block stay in cache, and no
planes copy of the whole P and Q is made (it would add about 35 MB to
the call's peak).  K's commutator stays a BLAS matmul per row block, so
K, W and R+'s imaginary part have the bits of one stacked product; H,
the A-lines and B1_line differ from it by roundoff, since BLAS fuses
multiply-adds and the passes do not.  The fields are kept as planes,
so every reduction runs across them and none over a short trailing
axis.  At N=255 on veronese_s4, one call takes about 130 ms against
210 ms with stacked products, and its temporaries peak 40 MB above its
fields against 54 MB; a flatness sweep takes 19 ms against 47 ms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chart import Chart, d_u, d_v, sup_norm
from .gauss_frame import MCBlocks
from .lorentz import gram, grid_first, product, row_blocks, to_planes

DEFAULT_LAMBDAS = (1.0, np.exp(1j * np.pi / 4), 1j, -1.0)


def _max_abs(X: np.ndarray) -> np.ndarray:
    """Per-point max |X| of a field (Nu, Nv, a, b): the max across the
    planes of the fresh |X| (`to_planes`, a view of a field built on
    planes)."""
    return np.max(np.abs(to_planes(X)), axis=(0, 1))


def _block_planes(X: np.ndarray, rows, cols) -> np.ndarray:
    """The block X[..., rows, cols] of a grid field as contiguous planes,
    viewed with the grid axes first.  One strided copy: for a block of a
    few entries it takes about a fifth of the time of `to_planes`, which
    first gathers the block into a contiguous field."""
    planes = np.moveaxis(X[..., rows, cols], (0, 1), (-2, -1)).copy()
    return grid_first(planes)


@dataclass
class LoopCurvature:
    """Laurent coefficients of the curvature of alpha_lambda, as real fields.

    R0 = -2i diag(W1, W2); R+ = `plus_re` + i `plus_im`, its off-diagonal
    entries (the B1 block, then the B2 block, each row by row) with
    `plus_re` = H_p/4 and `plus_im` = K_p/4; R- = -conj(R+).  `lines`
    holds the three harmonicity fields of `harmonic_residuals`.  Every
    field has the grid axes first; `loop_curvature` stores them as
    planes, one contiguous (Nu, Nv) array per entry (`grid_first`
    views), so that each reduction runs across the planes.  The
    per-point max |R0|, the lambda-independent part of each flatness
    sup, is reduced once, at construction.
    """
    W: tuple               # (W1, W2): (Nu, Nv, 4, 4), (Nu, Nv, n, n) real
    plus_re: np.ndarray    # (Nu, Nv, 8n) real
    plus_im: np.ndarray    # (Nu, Nv, 8n) real
    lines: dict
    chart: Chart
    r0_max: np.ndarray = field(init=False, repr=False)   # per-point max |R0|

    def __post_init__(self):
        W1, W2 = self.W
        self.r0_max = 2.0 * np.maximum(_max_abs(W1), _max_abs(W2))


def loop_curvature(M: MCBlocks) -> LoopCurvature:
    """Laurent coefficients of the curvature of alpha_lambda.

    K on every block, from one stencil of Q and one of P over the grid
    and [P, Q] by stacked products per row block; H on the B1 and B2
    blocks only, where [P_k, P] = P_k P_p - P_p P_k: its stencils act on
    the planes of those blocks over the grid, and its products, like
    those of the A-lines, run per row block (`row_blocks`) as per-entry
    passes on the block's planes, written into planes outputs.
    """
    c = M.chart
    P, Q = M.P, M.Q
    a, b = slice(None, 4), slice(4, None)
    n = P.shape[-1] - 4
    m = 4 * n
    plus_re = np.empty((2 * m,) + c.shape)
    plus_im = np.empty_like(plus_re)
    W1, A1 = np.empty((2, 4, 4) + c.shape)
    W2, A2 = np.empty((2, n, n) + c.shape)
    # (rows, columns, H's planes, K's planes) of the B1 and B2 blocks
    blocks = [(i, j) + tuple(X[k].reshape(shape + c.shape)
                             for X in (plus_re, plus_im))
              for i, j, k, shape in ((a, b, slice(None, m), (4, n)),
                                     (b, a, slice(m, None), (n, 4)))]
    # H_p = P_u + Q_v + ...: the stencils of the blocks' planes
    for i, j, H, _ in blocks:
        np.add(d_u(_block_planes(P, i, j), c),
               d_v(_block_planes(Q, i, j), c), out=grid_first(H))
    # K = Q_u - P_v + [P, Q], accumulated in place
    K = d_u(Q, c)
    K -= d_v(P, c)
    # the so-defects B2 + B1^T I13 of P and of Q
    DP, DQ = M.so_defects()
    for rows in row_blocks(c.shape):
        Kr = K[rows]
        PQ = np.matmul(P[rows], Q[rows])
        Kr += PQ
        Kr -= np.matmul(Q[rows], P[rows], out=PQ)
        Pp, Qp, Kp, DPp, DQp = (to_planes(X[rows])
                                for X in (P, Q, K, DP, DQ))
        np.multiply(Kp[a, a], -0.25, out=W1[:, :, rows])
        np.multiply(Kp[b, b], -0.25, out=W2[:, :, rows])
        for i, j, H, I in blocks:
            h = H[:, :, rows]
            for X in (Pp, Qp):
                h += product(X[i, i], X[i, j])
                h -= product(X[i, j], X[j, j])
            np.multiply(Kp[i, j], 0.25, out=I[:, :, rows])
        P1, Q1 = Pp[a, b], Qp[a, b]
        np.add(W1[:, :, rows],
               0.25 * (product(P1, DQp) - product(Q1, DPp)),
               out=A1[:, :, rows])
        np.add(W2[:, :, rows],
               0.25 * (product(DPp, Q1) - product(DQp, P1)),
               out=A2[:, :, rows])
    plus_re *= 0.25
    # B1_line = (H - iK)/4 on the B1 block
    H1, K1 = blocks[0][2:]
    B1 = np.empty(H1.shape, dtype=complex)
    B1.real = H1
    np.negative(K1, out=B1.imag)
    lines = {"A1_line": grid_first(A1), "A2_line": grid_first(A2),
             "B1_line": grid_first(B1)}
    return LoopCurvature(W=(grid_first(W1), grid_first(W2)),
                         plus_re=grid_first(plus_re),
                         plus_im=grid_first(plus_im), lines=lines, chart=c)


def _unit(lam) -> complex:
    lam = complex(lam)
    if not abs(abs(lam) - 1.0) <= 1e-12:        # a NaN fails too
        raise ValueError(f"lambda must be unimodular, got |lambda|={abs(lam)}")
    return lam


def harmonic_residuals(K: LoopCurvature) -> dict:
    """Interior sup of each of the three block equations equivalent to
    harmonicity, from the fields of `loop_curvature`:

    Line 1: Im(A1_zbar + conj(A1) A1 - conj(B1) B1^T I13) = 0
    Line 2: Im(A2_zbar + conj(A2) A2 - conj(B1)^T I13 B1) = 0
    Line 3: B1_zbar + conj(A1) B1 - B1 conj(A2) = 0
    """
    return {name: sup_norm(f, K.chart.interior)
            for name, f in K.lines.items()}


def strong_conformal_check(B1: np.ndarray,
                           mask: np.ndarray | None = None) -> float:
    """sup-norm of B1^T I13 B1, the strong-conformal-harmonicity defect."""
    return sup_norm(gram(B1), mask)


def flatness_sweep(K: LoopCurvature,
                   lambdas=DEFAULT_LAMBDAS) -> list[dict]:
    """Interior sup of the curvature of alpha_lambda at each unit lambda
    sample, from the Laurent coefficients of `loop_curvature`."""
    lambdas = [_unit(lam) for lam in lambdas]
    mask = K.chart.interior
    re, im = (to_planes(x, values=1) for x in (K.plus_re, K.plus_im))
    X, T = np.empty((2,) + re.shape)
    out = []
    for lam in lambdas:
        # R(lam) = R0 + 2i Im(lam R+); Im(lam R+) is a real axpy
        np.multiply(im, lam.real, out=X)
        X += np.multiply(re, lam.imag, out=T)
        pmax = np.max(np.abs(X, out=X), axis=0)
        pmax *= 2.0
        out.append({"lambda": lam,
                    "sup": sup_norm(np.maximum(K.r0_max, pmax, out=pmax),
                                    mask)})
    return out
