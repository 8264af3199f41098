"""Independent oracles computed by classical surface geometry.

The geometric oracles work directly on embedding samples with their own
finite differences (np.roll on periodic grids), deliberately sharing no
code with the package under test.  The loop-curvature oracle shares
only the package's stencils and norms: it assembles the full
(n+4)x(n+4) coefficients of alpha_lambda and differentiates them, where
`harmonic.flatness_sweep` works on Laurent coefficients in blocks.  The
oracles after it, and `roll_diff_axis` beside the rolled difference it
extends, are the reference forms of package code written otherwise
(rolled stencil copies, per-point einsums, per-point CSV rows, per-call
span projections, the explicit complement of a null pair, complex
products, the csv module's float reader, the Gauss-bundle match through
full surface data, one SVD per grid point) and helpers that no package
path calls.
"""

import csv
from dataclasses import dataclass

import numpy as np

from willmorelab import spinor
from willmorelab.chart import (Chart, DEFAULT_MARGIN, d_u, d_v, d_z, d_zbar,
                               l2_norm, sup_norm)
from willmorelab.gauss_frame import FrameField, I13, MCBlocks, maurer_cartan
from willmorelab.lorentz import inner, metric
from willmorelab.surface import build_surface_data


def _roll_diff(f, axis, h):
    """Central difference on a periodic axis."""
    return (np.roll(f, -1, axis=axis) - np.roll(f, 1, axis=axis)) / (2 * h)


def roll_diff_axis(f, h, axis, periodic):
    """`chart._diff_axis` with two rolled copies on a periodic axis and
    each stencil expression divided by 2h on its own."""
    f = np.asarray(f)
    if periodic:
        return _roll_diff(f, axis, h)
    df = np.empty_like(f, dtype=np.result_type(f.dtype, float))
    sl = [slice(None)] * f.ndim

    def at(i):
        s = list(sl)
        s[axis] = i
        return tuple(s)

    df[at(slice(1, -1))] = \
        (f[at(slice(2, None))] - f[at(slice(0, -2))]) / (2 * h)
    df[at(0)] = (-3 * f[at(0)] + 4 * f[at(1)] - f[at(2)]) / (2 * h)
    df[at(-1)] = (3 * f[at(-1)] - 4 * f[at(-2)] + f[at(-3)]) / (2 * h)
    return df


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


def read_csv_per_float(path):
    """The Y columns of a lift CSV through the csv module and float()."""
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        next(r)
        return np.asarray([[float(x) for x in row[2:]] for row in r],
                          dtype=float)


def conformality_residual(Y, c):
    """sup |<Y_z, Y_z>| (zero for a conformal immersion)."""
    Yz = d_z(Y, c)
    return float(np.max(np.abs(inner(Yz, Yz))))


def b_operator(Ff, M):
    """The sphere-congruence derivative operator F alpha_p(d_z) F^{-1}.

    Conjugating the off-diagonal Maurer-Cartan part back to the ambient
    space makes the operator frame-independent; it exchanges the bundle
    spanned by (Y, N, Y_u, Y_v) with its normal complement and is
    nilpotent on the complement exactly when the underlying map is a
    conformal Gauss map.
    """
    Fi = Ff.inverse().astype(complex)
    return Ff.F.astype(complex) @ M.p_part() @ Fi


def maurer_cartan_complex(Ff):
    """F^{-1} d_z F as one complex product, d_z by the complex formula."""
    c = Ff.chart
    Fz = 0.5 * (d_u(Ff.F, c) - 1j * d_v(Ff.F, c))
    return Ff.inverse().astype(complex) @ Fz


def validate_algebra(X, tol=1e-9):
    """Membership test for so(1, d-1): X^T I + I X = 0."""
    X = np.asarray(X)
    I = metric(X.shape[-1])
    res = np.max(np.abs(np.swapaxes(X, -1, -2) @ I + I @ X), axis=(-1, -2))
    return res <= tol, res


def involution_matrix(n):
    """diag(-I4, In), the involution defining the symmetric-space split."""
    D = np.eye(n + 4)
    D[:4, :4] *= -1.0
    return D


def cartan_split(X, tol=1e-9):
    """Split X in so(1, n+3) into block-diagonal k-part and off-diagonal p-part.

    The k-part keeps the 4x4 and nxn diagonal blocks, the p-part the 4xn
    and nx4 off-diagonal blocks.  Raises ValueError if X is not in the
    algebra beyond tol (relative to |X|).
    """
    X = np.asarray(X)
    scale = np.max(np.abs(X)) + 1e-300
    ok, res = validate_algebra(X, tol * scale)
    if not np.all(ok):
        raise ValueError(f"input not in so(1,n+3): residual {np.max(res):.3e}")
    k = np.zeros_like(X)
    p = np.zeros_like(X)
    k[..., :4, :4] = X[..., :4, :4]
    k[..., 4:, 4:] = X[..., 4:, 4:]
    p[..., :4, 4:] = X[..., :4, 4:]
    p[..., 4:, :4] = X[..., 4:, :4]
    return k, p


def boost(t, dim, axis=1):
    """Boost by rapidity t in the (0, axis) plane of R^dim."""
    B = np.eye(dim)
    B[0, 0] = B[axis, axis] = np.cosh(t)
    B[0, axis] = B[axis, 0] = np.sinh(t)
    return B


def project_out_span(w, basis):
    """Minkowski-orthogonal projection of w onto the complement of
    span(basis), by a Gram solve per call.

    basis has shape (..., m, dim) with a nondegenerate Gram matrix.
    """
    G = inner(basis[..., :, None, :], basis[..., None, :, :])
    rhs = inner(basis, w[..., None, :])
    coef = np.linalg.solve(G, rhs[..., None])[..., 0]
    return w - np.sum(coef[..., None] * basis, axis=-2)


def null_pair_complement_basis(L, Z):
    """Orthonormal basis of span{L, Z}^perp for null L, Z with
    <L, Z> = -1: Gram-Schmidt on the standard basis vectors e projected
    by the explicit formula e + <e, Z> L + <e, L> Z, no Gram solve."""
    dim = L.shape[-1]
    basis = []
    for e in np.eye(dim):
        w = e + inner(e, Z) * L + inner(e, L) * Z
        for prev in basis:
            w = w - inner(w, prev) * prev
        nrm = inner(w, w)
        if nrm > 1e-8:
            basis.append(w / np.sqrt(nrm))
        if len(basis) == dim - 2:
            break
    return np.stack(basis)


def _gram_schmidt(vecs):
    """Modified Gram-Schmidt on (..., n, dim) spacelike vectors."""
    out = np.array(vecs, dtype=float)
    for j in range(out.shape[-2]):
        for i in range(j):
            out[..., j, :] -= inner(out[..., j, :], out[..., i, :])[..., None] \
                * out[..., i, :]
        nrm = np.sqrt(inner(out[..., j, :], out[..., j, :]))
        out[..., j, :] /= nrm[..., None]
    return out


def normal_frame_per_row(Y, N, c):
    """The normal frame psi swept as `surface.normal_frame` does, each
    step projecting with its own Gram solve on the basis (Y, N, Y_u, Y_v)."""
    dim = Y.shape[-1]
    n = dim - 4
    basis = np.stack([Y, N, d_u(Y, c), d_v(Y, c)], axis=-2)
    seed = []
    for e in np.eye(dim):
        w = project_out_span(e, basis[0, 0])
        for prev in seed:
            w = w - inner(w, prev) * prev
        nrm = inner(w, w)
        if nrm > 1e-6:
            seed.append(w / np.sqrt(nrm))
        if len(seed) == n:
            break
    r2 = np.sqrt(2.0)
    F0 = np.stack([(Y[0, 0] + N[0, 0]) / r2, (-Y[0, 0] + N[0, 0]) / r2,
                   basis[0, 0, 2], basis[0, 0, 3]] + seed, axis=-1)
    if np.linalg.det(F0) < 0:
        seed[-1] = -seed[-1]
    psi = np.empty(Y.shape[:2] + (n, dim))
    psi[0, 0] = np.stack(seed)
    for j in range(1, Y.shape[1]):
        cand = project_out_span(psi[0, j - 1], basis[0, j][None, :, :])
        psi[0, j] = _gram_schmidt(cand)
    for i in range(1, Y.shape[0]):
        cand = project_out_span(psi[i - 1], basis[i][:, None, :, :])
        psi[i] = _gram_schmidt(cand)
    return psi


def invariants_by_span_projection(Y, N, c):
    """kappa, psi, b and beta, with kappa projected off the complex basis
    (Y, N, Y_z, Y_zbar) and psi from `normal_frame_per_row`."""
    Yz = d_z(Y, c)
    Yzz = d_z(Yz, c)
    s = 2.0 * inner(Yzz, N)
    kap_raw = Yzz + 0.5 * s[..., None] * Y
    basis = np.stack([Y, N, Yz, np.conj(Yz)], axis=-2).astype(complex)
    kap = project_out_span(kap_raw, basis)
    psi = normal_frame_per_row(Y, N, c)
    k = inner(kap[..., None, :], psi)
    b_raw = inner(d_z(psi, c)[..., :, None, :], psi[..., None, :, :])
    b = 0.5 * (b_raw - np.swapaxes(b_raw, -1, -2))
    beta = d_zbar(k, c) - np.einsum("...jl,...l->...j", np.conj(b), k)
    return {"kappa": k, "psi": psi, "b": b, "beta": beta}


def gauss_match_by_surface_data(y, NF, margin=DEFAULT_MARGIN,
                                gram_metric=True):
    """`reconstruct.verify_gauss_match` through the full surface data of
    y and `inner` broadcasts over (..., 4, 4, dim), with the sup
    principal-angle distance between the two subspace fields.

    gram_metric=False builds the Gram matrix of phi without the metric
    signs (M keeps them), a deliberately broken variant for the tests.
    """
    c = NF.chart
    S = build_surface_data(y.lift(), c)
    r2 = np.sqrt(2.0)
    phi = np.stack([(S.Y + S.N) / r2, (-S.Y + S.N) / r2,
                    d_u(S.Y, c), d_v(S.Y, c)], axis=-2)
    f = np.stack([NF.e0, NF.e0hat, NF.e1, NF.e2], axis=-2)
    Qp = np.linalg.qr(np.swapaxes(phi, -1, -2))[0]
    Qf = np.linalg.qr(np.swapaxes(f, -1, -2))[0]
    D = Qp @ np.swapaxes(Qp, -1, -2) - Qf @ np.swapaxes(Qf, -1, -2)
    mask = c.interior_mask(margin)
    dist = sup_norm(D, mask)
    if gram_metric:
        G = inner(phi[..., :, None, :], phi[..., None, :, :])
    else:
        G = np.sum(phi[..., :, None, :] * phi[..., None, :, :], axis=-1)
    M = inner(phi[..., :, None, :], f[..., None, :, :])
    sgn = np.sign(np.linalg.det(np.linalg.solve(G, M)))
    votes = np.mean(sgn[mask])
    return {"subspace_distance": dist,
            "orientation": "same" if votes > 0 else "opposite",
            "orientation_votes": float(votes)}


def surface_gauge_blocks(S):
    """Predicted Maurer-Cartan blocks of the conformal Gauss frame.

    Closed-form in the invariants: A1 from the Schwarzian and
    k^2 = <kappa, conj kappa>, B1 columns (sqrt2 beta_j, -sqrt2 beta_j,
    -k_j, -i k_j), A2 the normal connection.  The oracle for
    `maurer_cartan` on frames built by `build_frame`.
    """
    r2 = np.sqrt(2.0)
    s = S.schwarzian
    k2 = S.k2
    s1 = (1 - s - 2 * k2) / (2 * r2)
    s2 = -1j * (1 + s - 2 * k2) / (2 * r2)
    s3 = (1 + s + 2 * k2) / (2 * r2)
    s4 = -1j * (1 - s + 2 * k2) / (2 * r2)
    M = MCBlocks(np.zeros(s.shape + (S.n + 4, S.n + 4), dtype=complex),
                 S.chart)
    A1 = M.A1
    A1[..., 0, 2], A1[..., 0, 3] = s1, s2
    A1[..., 1, 2], A1[..., 1, 3] = s3, s4
    A1[..., 2, 0], A1[..., 2, 1] = s1, -s3
    A1[..., 3, 0], A1[..., 3, 1] = s2, -s4
    M.B1[...] = np.stack([r2 * S.beta, -r2 * S.beta,
                          -S.kappa, -1j * S.kappa], axis=-2)
    M.B2[...] = -np.swapaxes(M.B1, -1, -2) @ I13
    M.A2[...] = np.swapaxes(S.b, -1, -2)
    return M


def gauge(M, Ff, G, tol=1e-8):
    """Apply a pointwise gauge F -> F G with G in SO+(1,3) x SO(n).

    G is (.., n+4, n+4) (constant matrices broadcast); must be
    block-diagonal and Lorentz-orthogonal.  Blocks are recomputed from
    the gauged frame, so the transformation law A-hat, B-hat carries all
    stencil consistency with it.
    """
    G = np.asarray(G, dtype=float)
    dim = Ff.F.shape[-1]
    if G.shape[-1] != dim:
        raise ValueError("gauge has wrong dimension")
    if np.max(np.abs(G[..., :4, 4:])) > tol or \
            np.max(np.abs(G[..., 4:, :4])) > tol:
        raise ValueError("gauge is not block-diagonal")
    I = metric(dim)
    res = np.max(np.abs(np.swapaxes(G, -1, -2) @ I @ G - I))
    if res > tol:
        raise ValueError(f"gauge not in the group: residual {res:.3e}")
    Ffh = FrameField(F=Ff.F @ G, chart=Ff.chart,
                     group_residual=Ff.group_residual)
    return Ffh, maurer_cartan(Ffh)


def normalize_null_column(b, c, tol=1e-8):
    """Gauge a nowhere-vanishing null C^4 field into the (p, -p, q, iq) plane.

    Returns (g, canonical) where g is an SL(2,C) field, continuous along
    the sweep order, and canonical = sl2_to_so13(g) @ b has the shape
    (p, -p, q, iq) pointwise.
    """
    b = np.asarray(b, dtype=complex)
    scale = np.sum(np.abs(b) ** 2, axis=-1)
    if np.min(scale) <= tol * np.max(scale):
        raise ValueError("null field vanishes at a grid point")
    X = spinor.vec_to_mat(b)
    if np.max(np.abs(np.linalg.det(X))) > tol * np.max(scale):
        raise ValueError("field is not null within tolerance")
    g = spinor._smooth_gauge(spinor._gauge_from_w(
        spinor._rank1_row_direction(X)))
    A = spinor.sl2_to_so13(g)
    canonical = np.einsum("...ij,...j->...i", A, b)
    return g, canonical


def svd_rank(B1, tol=1e-6, mask=None):
    """`gauss_frame.s_willmore_rank` by one LAPACK SVD per grid point:
    singular values above tol times the chart-wide largest one."""
    sv = np.linalg.svd(B1, compute_uv=False)
    scale = np.max(sv)
    rank = np.sum(sv > tol * (scale + 1e-300), axis=-1)
    if mask is not None:
        mrank = int(np.max(rank[mask])) if np.any(mask) else 0
    else:
        mrank = int(np.max(rank))
    return rank, mrank
