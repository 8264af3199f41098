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
Q = F^{-1} F_v, the real pair that `MCBlocks` holds; the kernel
(`_curvature`) reads P and Q as they are, with no conversion, and the
coefficients split into two real fields:

    K = Q_u - P_v + [P, Q]                  the Maurer-Cartan defect of F
    H = P_u + Q_v + [P_k, P] + [Q_k, Q]     its p-part H_p is the tension

K is O(h^2) for every frame, harmonic or not; H_p = 0 is the harmonic
map equation.  In these terms

    R0 = -2i diag(W1, W2),   W = -K_k / 4,
    R+ = (H_p + i K_p) / 4,  Im(lambda R+) = (Re(lambda) K_p
                                              + Im(lambda) H_p) / 4,

so lambda = +-1 measures only the discretization floor K, and lambda = i
adds the tension H_p.  The harmonicity lines come from the same fields:
B1_line = (H - iK)/4 on the B1 block is the conjugate of R+ there, read
off its planes, and A1_line, A2_line are W1, W2 with B2 written as
-B1^T I13.  They differ from W by terms linear in the O(h^2) defect
D = B2 + B1^T I13 of P and of Q (`MCBlocks.so_defects`).

`harmonicity`, the one stage of this module, computes every residual
verify-harmonic reports in one pass over the row blocks of the grid,
run on all the process's CPUs (`lorentz.for_blocks`).  Per block the
kernel takes the block's rows of the four partials Q_u, P_v, P_u and
Q_v (`chart.partial_rows`, bit for bit those rows of `d_u` and `d_v`,
wrap rows included), read from the whole P and Q, which are the only
fields read whole, since their stencils read neighbour rows; it sums
them into the block's K and H, with K's commutator [P, Q] a stacked
matmul, next to the so-defects of the block's rows of P and Q.  The
block's P, Q, K and H are then laid out as planes
(`lorentz.to_planes`), and the small block products of H_p and of the
A-lines run as per-entry passes on them (`lorentz.product`): a stacked
product of small real matrices is one BLAS call per grid point, a
complex one several times more.  The block's coefficients
(`LoopCurvature`, scaled by 1/4) are reduced at once to per-point
maxima (`_maxima`): the curvature at each lambda sample (a real axpy on
the off-diagonal planes and a max across them), the three lines, and,
from the block's B1 (`MCBlocks.b1_rows`), |B1^T I13 B1| (`lorentz.gram`).
Then the block's fields are dropped: besides P and Q, only these
(Nu, Nv) max planes are grid-sized, and the sups over the chart's
interior are taken from them at the end.  K, W and R+'s imaginary
part have the bits of K formed by stacked products over the whole grid;
H and the A-lines differ from stacked products by roundoff, since BLAS
fuses multiply-adds and the passes do not.  The results depend neither
on the block layout nor on the worker count, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chart import partial_rows
from .gauss_frame import MCBlocks
from .lorentz import for_blocks, gram, product, to_planes

DEFAULT_LAMBDAS = (1.0, np.exp(1j * np.pi / 4), 1j, -1.0)

# the harmonicity lines, in the order of the report
LINES = ("A1_line", "A2_line", "B1_line")


@dataclass
class LoopCurvature:
    """Laurent coefficients of the curvature of alpha_lambda on a row
    block of the grid, as real planes: each entry one contiguous
    (rows, Nv) array, the entries first.

    R0 = -2i diag(W1, W2); R+ = `plus_re` + i `plus_im`, its off-diagonal
    entries (the B1 block, then the B2 block, each row by row) with
    `plus_re` = H_p/4 and `plus_im` = K_p/4; R- = -conj(R+).  `lines`
    holds the A-lines of the harmonicity equations (the B1 line is the
    conjugate of R+ on the B1 block).
    """
    W: tuple               # (W1, W2): (4, 4, rows, Nv), (n, n, rows, Nv)
    plus_re: np.ndarray    # (8n, rows, Nv)
    plus_im: np.ndarray    # (8n, rows, Nv)
    lines: dict            # A1_line (4, 4, rows, Nv), A2_line (n, n, ...)


def _curvature(M: MCBlocks, rows) -> LoopCurvature:
    """The Laurent coefficients on the grid rows `rows` (a slice of the
    first axis, or `...`), from the whole pair of M.

    K = Q_u - P_v + [P, Q] and the stencil part P_u + Q_v of H, from the
    block's rows of the four partials of the whole P and Q
    (`partial_rows`) and [P, Q] by stacked products; the so-defects of
    the block's rows of P and Q (`MCBlocks.so_defects`); then, on the
    block's planes, H_p = P_u + Q_v + [P_k, P] + [Q_k, Q] on the B1 and
    B2 blocks, where [P_k, P] = P_k P_p - P_p P_k, and the A-lines, as
    per-entry passes, each scaled by 1/4.  Every value depends on its
    point's stencils alone, so a block's coefficients are bit for bit
    those rows of any other layout's.
    """
    c = M.chart
    P, Q = M.P, M.Q
    a, b = slice(None, 4), slice(4, None)
    n = P.shape[-1] - 4
    m = 4 * n
    # K = Q_u - P_v + [P, Q] and H's P_u + Q_v, accumulated in place
    K = partial_rows(Q, c, 0, rows)
    K -= partial_rows(P, c, 1, rows)
    H = partial_rows(P, c, 0, rows)
    H += partial_rows(Q, c, 1, rows)
    Pr, Qr = P[rows], Q[rows]
    PQ = np.matmul(Pr, Qr)
    K += PQ
    K -= np.matmul(Qr, Pr, out=PQ)
    Pp, Qp, Kp, Hp = (to_planes(X) for X in (Pr, Qr, K, H))
    del K, H, PQ
    # the so-defects B2 + B1^T I13 of P and of Q
    DPp, DQp = (to_planes(D) for D in M.so_defects(rows))
    grid = Kp.shape[2:]
    plus_re, plus_im = np.empty((2, 2 * m) + grid)
    W1, W2 = Kp[a, a] * -0.25, Kp[b, b] * -0.25
    for i, j, k, shape in ((a, b, slice(None, m), (4, n)),
                           (b, a, slice(m, None), (n, 4))):
        h = Hp[i, j]
        for X in (Pp, Qp):
            h += product(X[i, i], X[i, j])
            h -= product(X[i, j], X[j, j])
        np.multiply(h, 0.25, out=plus_re[k].reshape(shape + grid))
        np.multiply(Kp[i, j], 0.25, out=plus_im[k].reshape(shape + grid))
    P1, Q1 = Pp[a, b], Qp[a, b]
    lines = {"A1_line": W1 + 0.25 * (product(P1, DQp) - product(Q1, DPp)),
             "A2_line": W2 + 0.25 * (product(DPp, Q1) - product(DQp, P1))}
    return LoopCurvature(W=(W1, W2), plus_re=plus_re, plus_im=plus_im,
                         lines=lines)


def _maxima(K: LoopCurvature, lambdas) -> np.ndarray:
    """Per-point maxima (len(lambdas) + 3, rows, Nv) of the Laurent
    coefficients K of a row block: the curvature of alpha_lambda at each
    unit lambda, max(2 max(|W1|, |W2|), 2 |Im(lambda R+)|) (|R0| is
    reduced once), then the A1, A2 and B1 lines (`LINES`), B1's the
    complex modulus of `plus_re` less i `plus_im` on the first 4n
    entries.  Each lambda sample costs a real axpy on the off-diagonal
    entries and a max across the planes."""
    W1, W2 = K.W
    r0 = np.maximum(np.max(np.abs(W1), axis=(0, 1)),
                    np.max(np.abs(W2), axis=(0, 1)))
    r0 *= 2.0
    re, im = K.plus_re, K.plus_im
    out = np.empty((len(lambdas) + len(LINES),) + re.shape[1:])
    X, T = np.empty((2,) + re.shape)
    for k, lam in enumerate(lambdas):
        # R(lam) = R0 + 2i Im(lam R+); Im(lam R+) is a real axpy
        np.multiply(im, lam.real, out=X)
        X += np.multiply(re, lam.imag, out=T)
        pmax = np.max(np.abs(X, out=X), axis=0)
        pmax *= 2.0
        np.maximum(r0, pmax, out=out[k])
    A = [np.max(np.abs(K.lines[name]), axis=(0, 1)) for name in LINES[:2]]
    m = len(re) // 2
    B1 = np.empty(re[:m].shape, dtype=complex)
    B1.real, B1.imag = re[:m], -im[:m]
    out[len(lambdas):] = A + [np.max(np.abs(B1), axis=0)]
    return out


def _unit(lam) -> complex:
    lam = complex(lam)
    if not abs(abs(lam) - 1.0) <= 1e-12:        # a NaN fails too
        raise ValueError(f"lambda must be unimodular, got |lambda|={abs(lam)}")
    return lam


def _point_maxima(M: MCBlocks, lambdas) -> np.ndarray:
    """Per-point maxima (len(lambdas) + 4, Nu, Nv) of every residual of
    `harmonicity` over the whole grid: the flatness at each lambda
    (unit complex numbers), the A1, A2 and B1 lines (`_maxima`), then
    |B1^T I13 B1| (`lorentz.gram`), from one pass over the row blocks of
    the grid on all the process's CPUs (`for_blocks`).  Each block's
    coefficients (`_curvature`) and B1 (`MCBlocks.b1_rows`) are reduced
    at once and dropped, so only P, Q and these planes are grid-sized."""
    c = M.chart
    top = np.empty((len(lambdas) + len(LINES) + 1,) + c.shape)

    def block(rows):
        top[:-1, rows] = _maxima(_curvature(M, rows), lambdas)
        top[-1, rows] = np.max(np.abs(gram(M.b1_rows(rows))), axis=(-2, -1))

    for_blocks(block, c.shape)
    return top


def harmonicity(M: MCBlocks, lambdas=DEFAULT_LAMBDAS) -> dict:
    """The interior sups (`Chart.interior`) of the harmonicity residuals
    of the form M, as the report prints them: {"flatness": [{"lambda",
    "sup"} for each unit lambda sample], "harmonic": {A1_line, A2_line,
    B1_line}, "strong_conformality"}.

    The flatness of alpha_lambda at each sample, and the three block
    equations equivalent to harmonicity:

    Line 1: Im(A1_zbar + conj(A1) A1 - conj(B1) B1^T I13) = 0
    Line 2: Im(A2_zbar + conj(A2) A2 - conj(B1)^T I13 B1) = 0
    Line 3: B1_zbar + conj(A1) B1 - B1 conj(A2) = 0

    and the strong-conformality defect B1^T I13 B1.  Each sup is the max
    over the interior of the per-point maxima of one pass
    (`_point_maxima`), so it equals the max over the interior of the
    whole-grid field, bit for bit.  Raises ValueError for a lambda off
    the unit circle, before the pass.
    """
    lambdas = [_unit(lam) for lam in lambdas]
    inside = M.chart.interior
    sups = [float(np.max(t[inside])) for t in _point_maxima(M, lambdas)]
    k = len(lambdas)
    return {"flatness": [{"lambda": lam, "sup": sup}
                         for lam, sup in zip(lambdas, sups)],
            "harmonic": dict(zip(LINES, sups[k:-1])),
            "strong_conformality": sups[-1]}
