"""Harmonic-map side: loop-parameter family, flatness, harmonicity tests.

For a map into SO+(1,n+3)/SO+(1,3)xSO(n) with Maurer-Cartan coefficient
alpha(d_z) = k + p, k = diag(A1, A2) and p the off-diagonal (B1, B2),
the family

    alpha_lambda = (k + lambda^{-1} p) dz + (conj(k) + lambda conj(p)) dzbar

is flat for every unit lambda exactly when the map is harmonic; the
flatness defect at non-trivial lambda is therefore a harmonicity meter.

The curvature d_z Q - d_zbar P + [P, Q] of alpha_lambda = P dz + Q dzbar
is a Laurent polynomial in lambda:

    R(lambda) = R0 + lambda R+ + lambda^{-1} R-
    R0 = d_z conj(k) - d_zbar k + [k, conj k] + [p, conj p]   (A1, A2 blocks)
    R+ = d_z conj(p) + [k, conj p]                             (B1, B2 blocks)
    R- = -d_zbar p + [p, conj k] = -conj(R+)

The last identity is exact on the grid, because the stencils have real
coefficients: d_z conj(f) = conj(d_zbar f).  So on |lambda| = 1

    R(lambda) = R0 + lambda R+ - conj(lambda R+) = R0 + 2i Im(lambda R+),

and R0 = -2i Im(W) is purely imaginary, with W1 = A1_zbar + conj(A1) A1
+ conj(B1) B2 and W2 = A2_zbar + conj(A2) A2 + conj(B2) B1.
`loop_curvature` computes the coefficients once, in blocks, from one
d_zbar stencil per block; each lambda sample then costs a real axpy on
the off-diagonal blocks and a reduction.  The harmonicity lines of
`harmonic_residuals` come from the same stencils and products: B1_line
is conj of the B1 block of R+, and A1_line, A2_line are Im(W1), Im(W2)
with B2 written as -B1^T I13 (they differ from R0 by the O(h^2) defect
of that identity, `MCBlocks.b2_residual`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chart import (Chart, DEFAULT_MARGIN, d_zbar, integrate, residual_norms,
                    sup_norm)
from .gauss_frame import S13, MCBlocks
from .lorentz import gram

DEFAULT_LAMBDAS = (1.0, np.exp(1j * np.pi / 4), 1j, -1.0)


@dataclass
class LoopCurvature:
    """Laurent coefficients of the curvature of alpha_lambda, in blocks.

    R0 = -2i diag(W1, W2); R+ has the off-diagonal blocks `plus` =
    (B1 block, B2 block); R- = -conj(R+).  `lines` holds the three
    harmonicity fields of `harmonic_residuals`.  The lambda-independent
    part of the flatness norms is reduced once, at construction.
    """
    W: tuple               # (W1, W2): (Nu, Nv, 4, 4), (Nu, Nv, n, n) real
    plus: tuple            # (Nu, Nv, 4, n), (Nu, Nv, n, 4) complex
    lines: dict
    chart: Chart
    r0_max: np.ndarray = field(init=False, repr=False)   # per-point max |R0|
    r0_sq: np.ndarray = field(init=False, repr=False)    # per-point sum |R0|^2
    plus_re: np.ndarray = field(init=False, repr=False)  # R+ entries, flat
    plus_im: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        W1, W2 = self.W
        self.r0_max = 2.0 * np.maximum(np.max(np.abs(W1), axis=(-2, -1)),
                                       np.max(np.abs(W2), axis=(-2, -1)))
        self.r0_sq = 4.0 * (np.einsum("...ij,...ij->...", W1, W1)
                            + np.einsum("...ij,...ij->...", W2, W2))
        off = np.concatenate([b.reshape(self.chart.shape + (-1,))
                              for b in self.plus], axis=-1)
        self.plus_re = np.ascontiguousarray(off.real)
        self.plus_im = np.ascontiguousarray(off.imag)


def loop_curvature(M: MCBlocks) -> LoopCurvature:
    """Laurent coefficients of the curvature of alpha_lambda.

    One d_zbar stencil per block; d_z conj(f) = conj(d_zbar f) gives the
    d_z terms, and conj(X) Y gives the products with conjugated factors.
    """
    c = M.chart
    A1, A2, B1, B2 = M.A1, M.A2, M.B1, M.B2
    cA1, cA2, cB1 = np.conj(A1), np.conj(A2), np.conj(B1)
    B1tI = np.swapaxes(B1, -1, -2) * S13          # -B2 up to the so-defect
    T1 = d_zbar(A1, c) + cA1 @ A1
    T2 = d_zbar(A2, c) + cA2 @ A2
    Z1 = d_zbar(B1, c) + cA1 @ B1 - B1 @ cA2      # conj of R+ B1 block
    Z2 = d_zbar(B2, c) + cA2 @ B2 - B2 @ cA1      # conj of R+ B2 block
    lines = {"A1_line": np.imag(T1 - cB1 @ B1tI),
             "A2_line": np.imag(T2 - np.conj(B1tI) @ B1),
             "B1_line": Z1}
    W = (np.imag(T1 + cB1 @ B2), np.imag(T2 + np.conj(B2) @ B1))
    return LoopCurvature(W=W, plus=(np.conj(Z1), np.conj(Z2)), lines=lines,
                         chart=c)


def _curvature(M: MCBlocks | LoopCurvature) -> LoopCurvature:
    return M if isinstance(M, LoopCurvature) else loop_curvature(M)


def _unit(lam) -> complex:
    lam = complex(lam)
    if abs(abs(lam) - 1.0) > 1e-12:
        raise ValueError(f"lambda must be unimodular, got |lambda|={abs(lam)}")
    return lam


def harmonic_residuals(M: MCBlocks | LoopCurvature) -> dict:
    """The three block equations equivalent to harmonicity.

    Line 1: Im(A1_zbar + conj(A1) A1 - conj(B1) B1^T I13) = 0
    Line 2: Im(A2_zbar + conj(A2) A2 - conj(B1)^T I13 B1) = 0
    Line 3: B1_zbar + conj(A1) B1 - B1 conj(A2) = 0

    M is the blocks, or their `loop_curvature` when the caller also runs
    `flatness_sweep` on the same stencils.
    """
    K = _curvature(M)
    c = K.chart
    mask = c.interior_mask(DEFAULT_MARGIN)
    return residual_norms(K.lines, c, mask)


def strong_conformal_check(B1: np.ndarray,
                           mask: np.ndarray | None = None) -> dict:
    """sup-norm of B1^T I13 B1, the strong-conformal-harmonicity defect.

    Also reports the conformality scalar tr(B1^T I13 B1) separately
    (its vanishing alone is ordinary conformality of the harmonic map).
    """
    G = gram(B1)
    tr = np.trace(G, axis1=-2, axis2=-1)
    return {"sup": sup_norm(G, mask),
            "trace_sup": sup_norm(tr, mask)}


def flatness_sweep(M: MCBlocks | LoopCurvature,
                   lambdas=DEFAULT_LAMBDAS) -> list[dict]:
    """Norms of the curvature of alpha_lambda at each unit lambda sample.

    M is the blocks, or their `loop_curvature` when the caller also runs
    `harmonic_residuals` on the same stencils.
    """
    lambdas = [_unit(lam) for lam in lambdas]
    K = _curvature(M)
    c = K.chart
    mask = c.interior_mask(DEFAULT_MARGIN)
    out = []
    for lam in lambdas:
        # R(lam) = R0 + 2i Im(lam R+); Im(lam R+) is a real axpy
        X = lam.real * K.plus_im + lam.imag * K.plus_re
        pmax = np.maximum(K.r0_max, 2.0 * np.max(np.abs(X), axis=-1))
        psq = K.r0_sq + 4.0 * np.einsum("...i,...i->...", X, X)
        out.append({"lambda": lam, "sup": sup_norm(pmax, mask),
                    "l2": float(np.sqrt(integrate(np.where(mask, psq, 0.0),
                                                  c)))})
    return out
