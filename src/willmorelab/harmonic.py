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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chart import Chart, DEFAULT_MARGIN, d_u, d_v, sup_norm
from .gauss_frame import MCBlocks
from .lorentz import gram

DEFAULT_LAMBDAS = (1.0, np.exp(1j * np.pi / 4), 1j, -1.0)


def _max_abs(X: np.ndarray) -> np.ndarray:
    """Per-point max |X|: every trailing axis in one max over the
    (Nu, Nv, -1) reshape of the fresh |X|."""
    a = np.abs(X)
    return np.max(a.reshape(a.shape[:2] + (-1,)), axis=-1)


@dataclass
class LoopCurvature:
    """Laurent coefficients of the curvature of alpha_lambda, as real fields.

    R0 = -2i diag(W1, W2); R+ = `plus_re` + i `plus_im`, its off-diagonal
    entries (the B1 block, then the B2 block, each row by row) with
    `plus_re` = H_p/4 and `plus_im` = K_p/4; R- = -conj(R+).  `lines`
    holds the three harmonicity fields of `harmonic_residuals`.  The
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

    K on every block, from one stencil of Q and one of P; H on the B1
    and B2 blocks only, where [P_k, P] = P_k P_p - P_p P_k.
    """
    c = M.chart
    P, Q = M.P, M.Q
    # K = Q_u - P_v + [P, Q], accumulated in place
    K = d_u(Q, c)
    K -= d_v(P, c)
    PQ = np.matmul(P, Q)
    K += PQ
    K -= np.matmul(Q, P, out=PQ)
    # R+ = (H_p + i K_p)/4: the B1 block's entries, then the B2 block's,
    # written into the flat arrays through block-shaped views (splitting
    # the unit-stride last axis is always a view)
    a, b = slice(None, 4), slice(4, None)
    m = 4 * (P.shape[-1] - 4)
    plus_re = np.empty(c.shape + (2 * m,))
    plus_im = np.empty_like(plus_re)
    for i, j, k in ((a, b, slice(None, m)), (b, a, slice(m, None))):
        shape = P[..., i, j].shape
        H = plus_re[..., k].reshape(shape)
        # the stencils read contiguous copies of the blocks: on the
        # strided views they take about three times as long, with the
        # same bits (a stencil is elementwise)
        np.add(d_u(np.ascontiguousarray(P[..., i, j]), c),
               d_v(np.ascontiguousarray(Q[..., i, j]), c), out=H)
        for X in (P, Q):
            H += X[..., i, i] @ X[..., i, j]
            H -= X[..., i, j] @ X[..., j, j]
        np.multiply(K[..., i, j], 0.25, out=plus_im[..., k].reshape(shape))
    plus_re *= 0.25
    W = (-0.25 * K[..., a, a], -0.25 * K[..., b, b])
    # the so-defects B2 + B1^T I13 of P and of Q
    P1, Q1 = P[..., a, b], Q[..., a, b]
    DP, DQ = M.so_defects()
    lines = {"A1_line": W[0] + 0.25 * (P1 @ DQ - Q1 @ DP),
             "A2_line": W[1] + 0.25 * (DP @ Q1 - DQ @ P1),
             "B1_line": (plus_re[..., :m] - 1j * plus_im[..., :m]).reshape(
                 P1.shape)}
    return LoopCurvature(W=W, plus_re=plus_re, plus_im=plus_im,
                         lines=lines, chart=c)


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
    mask = K.chart.interior_mask(DEFAULT_MARGIN)
    return {name: sup_norm(f, mask) for name, f in K.lines.items()}


def strong_conformal_check(B1: np.ndarray,
                           mask: np.ndarray | None = None) -> float:
    """sup-norm of B1^T I13 B1, the strong-conformal-harmonicity defect."""
    return sup_norm(gram(B1), mask)


def flatness_sweep(K: LoopCurvature,
                   lambdas=DEFAULT_LAMBDAS) -> list[dict]:
    """Interior sup of the curvature of alpha_lambda at each unit lambda
    sample, from the Laurent coefficients of `loop_curvature`."""
    lambdas = [_unit(lam) for lam in lambdas]
    mask = K.chart.interior_mask(DEFAULT_MARGIN)
    out = []
    for lam in lambdas:
        # R(lam) = R0 + 2i Im(lam R+); Im(lam R+) is a real axpy
        X = lam.real * K.plus_im + lam.imag * K.plus_re
        pmax = np.maximum(K.r0_max, 2.0 * np.max(np.abs(X), axis=-1))
        out.append({"lambda": lam, "sup": sup_norm(pmax, mask)})
    return out
