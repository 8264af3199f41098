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
come from the same fields: B1_line = (H - iK)/4 on the B1 block is the
conjugate of R+ there, read off its planes, and A1_line, A2_line are
W1, W2 with B2 written as -B1^T I13.  They differ from W by terms
linear in the O(h^2) defect D = B2 + B1^T I13 of P and of Q
(`MCBlocks.so_defects`, whose sup over alpha is `MCBlocks.b2_residual`).

The arithmetic is real because a stacked product of small complex
matrices costs several times its real counterpart.  `loop_curvature`
forms everything in one pass over the row blocks of the grid, run on
all the process's CPUs (`lorentz.for_blocks`).  Per block it takes the
block's rows of the four partials Q_u, P_v, P_u and Q_v
(`chart.partial_rows`, bit for bit those rows of `d_u` and `d_v`, wrap
rows included), read from the whole P and Q, and sums them into the
block's K and H; K's commutator [P, Q] is a stacked matmul, next to the
so-defects of the block's rows of P and Q (`MCBlocks.so_defects`).  The
block's P, Q, K and H are then laid out as planes
(`lorentz.to_planes`), and the small block products of H_p and of the
A-lines run as per-entry passes on them (`lorentz.product`): a stacked
product of small real matrices is one BLAS call per grid point.  Each
block's entries are written into its rows of the planes of the output
fields, already scaled by 1/4, so no grid-sized K, H, stencil or
so-defect exists and no pass over the grid follows the loop.  K, W and
R+'s imaginary part have the bits of K formed by stacked products over
the whole grid; H and the A-lines differ from stacked products by
roundoff, since BLAS fuses multiply-adds and the passes do not.  The
results depend neither on the block layout nor on the worker count, bit
for bit.

`flatness_sweep` and `harmonic_residuals` both read that one
`LoopCurvature` and reduce each field to its interior sup, the number a
report prints.  The fields are kept as planes, so every reduction runs
across them and none over a short trailing axis; each lambda sample
costs a real axpy on the off-diagonal entries and a max.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chart import Chart, partial_rows, sup_norm
from .gauss_frame import MCBlocks
from .lorentz import for_blocks, gram, grid_first, product, to_planes

DEFAULT_LAMBDAS = (1.0, np.exp(1j * np.pi / 4), 1j, -1.0)


@dataclass
class LoopCurvature:
    """Laurent coefficients of the curvature of alpha_lambda, as real fields.

    R0 = -2i diag(W1, W2); R+ = `plus_re` + i `plus_im`, its off-diagonal
    entries (the B1 block, then the B2 block, each row by row) with
    `plus_re` = H_p/4 and `plus_im` = K_p/4; R- = -conj(R+).  `lines`
    holds the A-lines of `harmonic_residuals` (its B1 line is the
    conjugate of R+ on the B1 block).  Every field has the grid axes
    first; `loop_curvature` stores them as planes, one contiguous
    (Nu, Nv) array per entry (`grid_first` views), so that each
    reduction runs across the planes.  Nothing is derived from the
    fields here: each reader reduces what it reads.
    """
    W: tuple               # (W1, W2): (Nu, Nv, 4, 4), (Nu, Nv, n, n) real
    plus_re: np.ndarray    # (Nu, Nv, 8n) real
    plus_im: np.ndarray    # (Nu, Nv, 8n) real
    lines: dict
    chart: Chart


def loop_curvature(M: MCBlocks) -> LoopCurvature:
    """Laurent coefficients of the curvature of alpha_lambda, in one pass
    over the row blocks of the grid, on all the process's CPUs
    (`for_blocks`).

    Per block: K = Q_u - P_v + [P, Q] and the stencil part P_u + Q_v of
    H, from the block's rows of the four partials of the whole P and Q
    (`partial_rows`) and [P, Q] by stacked products; the so-defects of
    the block's rows of P and Q (`MCBlocks.so_defects`); then, on the
    block's planes, H_p = P_u + Q_v + [P_k, P] + [Q_k, Q] on the B1 and
    B2 blocks, where [P_k, P] = P_k P_p - P_p P_k, and the A-lines, as
    per-entry passes written into the block's rows of the planes
    outputs.  No grid-sized K, H, stencil or so-defect is allocated.
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

    def block(rows):
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
        # the so-defects B2 + B1^T I13 of P and of Q
        DPp, DQp = (to_planes(D) for D in M.so_defects(rows))
        np.multiply(Kp[a, a], -0.25, out=W1[:, :, rows])
        np.multiply(Kp[b, b], -0.25, out=W2[:, :, rows])
        for i, j, Hb, Kb in blocks:
            h = Hp[i, j]
            for X in (Pp, Qp):
                h += product(X[i, i], X[i, j])
                h -= product(X[i, j], X[j, j])
            np.multiply(h, 0.25, out=Hb[:, :, rows])
            np.multiply(Kp[i, j], 0.25, out=Kb[:, :, rows])
        P1, Q1 = Pp[a, b], Qp[a, b]
        np.add(W1[:, :, rows],
               0.25 * (product(P1, DQp) - product(Q1, DPp)),
               out=A1[:, :, rows])
        np.add(W2[:, :, rows],
               0.25 * (product(DPp, Q1) - product(DQp, P1)),
               out=A2[:, :, rows])

    for_blocks(block, c.shape)
    lines = {"A1_line": grid_first(A1), "A2_line": grid_first(A2)}
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

    Line 3's field is (H - iK)/4 on the B1 block, the conjugate of R+
    there: `plus_re` less i `plus_im` on its first 4n entries, reduced
    by the complex modulus.
    """
    c = K.chart
    out = {name: sup_norm(f, c) for name, f in K.lines.items()}
    re, im = (to_planes(x, values=1) for x in (K.plus_re, K.plus_im))
    m = len(re) // 2
    B1 = np.empty(re[:m].shape, dtype=complex)
    B1.real, B1.imag = re[:m], -im[:m]
    out["B1_line"] = sup_norm(grid_first(B1), c)
    return out


def strong_conformal_check(B1: np.ndarray, c: Chart) -> float:
    """Interior sup-norm of B1^T I13 B1, the strong-conformal-harmonicity
    defect."""
    return sup_norm(gram(B1), c)


def flatness_sweep(K: LoopCurvature,
                   lambdas=DEFAULT_LAMBDAS) -> list[dict]:
    """Interior sup of the curvature of alpha_lambda at each unit lambda
    sample, from the Laurent coefficients of `loop_curvature`: the
    per-point max of 2 max(|W1|, |W2|) (|R0|, reduced once from `K.W`)
    and 2 |Im(lambda R+)|."""
    lambdas = [_unit(lam) for lam in lambdas]
    r0 = np.maximum(*(np.max(np.abs(to_planes(W)), axis=(0, 1))
                      for W in K.W))
    r0 *= 2.0
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
                    "sup": sup_norm(np.maximum(r0, pmax, out=pmax), K.chart)})
    return out
