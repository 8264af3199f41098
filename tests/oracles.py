"""Independent oracles computed by classical surface geometry.

The geometric oracles work directly on embedding samples with their own
finite differences (np.roll on periodic grids), deliberately sharing no
code with the package under test.  The loop-curvature oracle shares
only the package's stencils and norms: it assembles the full
(n+4)x(n+4) coefficients of alpha_lambda and differentiates them, where
`harmonic.flatness_sweep` works on Laurent coefficients in blocks.  The
oracles after it are the reference forms of package code written
otherwise (per-point einsums, per-point CSV rows) and helpers that no
package path calls.
"""

import csv
from dataclasses import dataclass

import numpy as np

from willmorelab.chart import (Chart, DEFAULT_MARGIN, d_u, d_v, d_z, d_zbar,
                               l2_norm, sup_norm)
from willmorelab.lorentz import metric


def _roll_diff(f, axis, h):
    """Central difference on a periodic axis."""
    return (np.roll(f, -1, axis=axis) - np.roll(f, 1, axis=axis)) / (2 * h)


def classical_willmore_energy_s3(y, hu, hv):
    """Conformal bending energy of a doubly-periodic torus in the unit S^3.

    y: (Nu, Nv, 4) samples of the embedding (|y| = 1 pointwise), both
    directions periodic with steps hu, hv.  Uses the classical
    fundamental-form quadrature of integral (H^2 - K_ext) dA; by the
    Gauss equation in S^3 and Gauss-Bonnet this equals
    integral (H^2 - K + 1) dA for a torus.
    """
    yu = _roll_diff(y, 0, hu)
    yv = _roll_diff(y, 1, hv)
    yuu = _roll_diff(yu, 0, hu)
    yvv = _roll_diff(yv, 1, hv)
    yuv = _roll_diff(yu, 1, hv)

    E = np.sum(yu * yu, axis=-1)
    F = np.sum(yu * yv, axis=-1)
    G = np.sum(yv * yv, axis=-1)

    # unit normal inside S^3: orthogonal to y, yu, yv in R^4
    M = np.stack([y, yu, yv], axis=-2)                 # (Nu, Nv, 3, 4)
    _, _, vt = np.linalg.svd(M)
    n = vt[..., 3, :]                                  # right-singular, σ=0

    L = np.sum(yuu * n, axis=-1)
    Mc = np.sum(yuv * n, axis=-1)
    N = np.sum(yvv * n, axis=-1)

    W2 = E * G - F * F
    H = (G * L - 2 * F * Mc + E * N) / (2 * W2)
    Kext = (L * N - Mc * Mc) / W2
    dA = np.sqrt(W2)
    return float(np.sum((H**2 - Kext) * dA) * hu * hv)


def clifford_k2():
    """|kappa|^2 of the Clifford torus, by hand.

    Canonical lift Y = sqrt2 (1, y) with y = (cos u, sin u, cos v, sin v)
    / sqrt2; then Y_zz = (0, -cos u, -sin u, cos v, sin v)/4 is already
    orthogonal to Y, N, Y_z, so kappa = Y_zz and
    |kappa|^2 = (1 + 1)/16 = 1/8.
    """
    return 0.125


def holomorphic_sphere_frame(g, gz, eps=0.0):
    """Adapted SO(3) frame of a holomorphic map into the unit 2-sphere.

    g: complex samples, gz: its z-derivative (exact).  Returns the frame
    R with columns (t1, t2, n) where n is the inverse stereographic image
    of g and t1 - i t2 spans the (1,0)-tangent.  The Maurer-Cartan form
    R^{-1} R_z then has an exactly null third column -- the classical
    statement that holomorphic maps to S^2 are conformal.
    """
    d = 1.0 + np.abs(g) ** 2
    n = np.stack([2 * np.real(g), 2 * np.imag(g),
                  np.abs(g) ** 2 - 1.0], axis=-1) / d[..., None]
    # (1,0) tangent: dn/dg is complex-bilinear null, |dn/dg| = sqrt2/d;
    # the phase of gz rotates it into the z-direction
    gb = np.conj(g)
    w = gz / (np.abs(gz) + eps + 1e-300)
    tc = np.stack([1 - gb**2, -1j * (1 + gb**2), 2 * gb], axis=-1) \
        * (w / d)[..., None]
    t1 = np.real(tc)
    t2 = -np.imag(tc)
    R = np.stack([t1, t2, n], axis=-1)
    # keep det = +1 (the construction gives a constant sign over a chart)
    if np.linalg.det(R.reshape(-1, 3, 3)[0]) < 0:
        R[..., 1] = -R[..., 1]
    return R


@dataclass
class ExtendedForm:
    """Coefficients (P, Q) of alpha_lambda = P dz + Q dzbar."""
    P: np.ndarray
    Q: np.ndarray
    lam: complex
    chart: Chart


def extend(M, lam: complex) -> ExtendedForm:
    """Insert the loop parameter into the Maurer-Cartan blocks M."""
    if abs(abs(lam) - 1.0) > 1e-12:
        raise ValueError(f"lambda must be unimodular, got |lambda|={abs(lam)}")
    k = M.k_part()
    p = M.p_part()
    P = k + p / lam
    Q = np.conj(k) + lam * np.conj(p)
    return ExtendedForm(P=P, Q=Q, lam=complex(lam), chart=M.chart)


def flatness_residual(E: ExtendedForm, margin: int = DEFAULT_MARGIN) -> dict:
    """Norms of the curvature d_z Q - d_zbar P + [P, Q] of alpha_lambda."""
    c = E.chart
    R = d_z(E.Q, c) - d_zbar(E.P, c) + (E.P @ E.Q - E.Q @ E.P)
    mask = c.interior_mask(margin)
    return {"lambda": E.lam, "sup": sup_norm(R, mask),
            "l2": l2_norm(R, c, mask)}


def bracket(X, Y):
    """Matrix commutator XY - YX."""
    return X @ Y - Y @ X


def sphere_bundle_projector(S):
    """Minkowski-orthogonal projector onto span{Y, N, Y_u, Y_v}."""
    c = S.chart
    phi1 = (S.Y + S.N) / np.sqrt(2.0)
    phi2 = (-S.Y + S.N) / np.sqrt(2.0)
    phi3 = d_u(S.Y, c)
    phi4 = d_v(S.Y, c)
    I = metric(S.Y.shape[-1])
    P = -np.einsum("...i,...j->...ij", phi1, phi1 @ I)
    for phi in (phi2, phi3, phi4):
        P += np.einsum("...i,...j->...ij", phi, phi @ I)
    return P


def conformal_gauss_metric(S):
    """Induced metric of the sphere congruence, as coefficient fields.

    Computed from the projector field P onto the central sphere bundle
    as g_ab = (1/8) tr(d_a P d_b P); for a conformal Gauss map this
    equals <kappa, conj kappa> (du^2 + dv^2) up to discretization error.
    """
    P = sphere_bundle_projector(S)
    Pu = d_u(P, S.chart)
    Pv = d_v(P, S.chart)
    guu = np.einsum("...ij,...ji->...", Pu, Pu) / 8.0
    gvv = np.einsum("...ij,...ji->...", Pv, Pv) / 8.0
    guv = np.einsum("...ij,...ji->...", Pu, Pv) / 8.0
    return {"guu": guu, "gvv": gvv, "guv": guv}


def rejection_operator(F, eps=(-1.0, 1.0, 1.0, 1.0), I=None):
    """Grid mean of C^T C, C = Id - P, P the projector onto the first
    four columns of F: per-point einsums, as `constant_lightlike_vector`
    computed it before its single product.

    `eps` (the metric on the four columns) and `I` (the ambient metric)
    are exposed so tests can build deliberately broken operators.
    """
    dim = F.shape[-1]
    if I is None:
        I = metric(dim)
    P = np.einsum("...ik,k,...jk,jl->...il", F[..., :, :4], np.asarray(eps),
                  F[..., :, :4], I)
    C = np.eye(dim) - P
    return np.mean(np.einsum("...ki,...kj->...ij", C, C), axis=(0, 1))


def save_csv_per_point(path, field, c):
    """CSV lift export one grid point at a time, each float by repr."""
    U, V = c.grid()
    dim = field.shape[-1]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["u", "v"] + [f"Y{i}" for i in range(dim)])
        for i in range(c.Nu):
            for j in range(c.Nv):
                w.writerow([repr(float(U[i, j])), repr(float(V[i, j]))]
                           + [repr(float(x)) for x in field[i, j]])
