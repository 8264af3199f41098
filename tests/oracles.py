"""Independent oracles computed by classical surface geometry.

The geometric oracles work directly on embedding samples with their own
finite differences (np.roll on periodic grids), deliberately sharing no
code with the package under test.  The loop-curvature oracle shares
only the package's stencils and norms: it assembles the full
(n+4)x(n+4) coefficients of alpha_lambda and differentiates them, where
`harmonic.flatness_sweep` works on Laurent coefficients in blocks.  The
oracles after it, and `roll_diff_axis` beside the rolled difference it
extends, are the reference forms of package code written otherwise
(rolled stencil copies, the loop curvature in complex blocks, per-point
einsums, per-point CSV rows, the sup reduced one trailing axis at a
time, per-call span projections, the explicit complement of a null
pair, complex products, the group defect against the full metric, the
csv module's float reader, the Gauss-bundle match through full surface
data, one SVD, one LAPACK solve and one LAPACK determinant per grid
point, stacked 2x2 products for the spin cover, the invariants, normal
derivatives, structure fields, Ricci residual and Gram matrix in complex
broadcasts, einsums and stacked complex products) and helpers that no
package path calls.
"""

import csv
from dataclasses import dataclass

import numpy as np

from willmorelab import spinor
from willmorelab.chart import (Chart, DEFAULT_MARGIN, d_u, d_v, d_z, d_zbar,
                               integrate, sup_norm, wirtinger)
from willmorelab.gauss_frame import (S13, FrameField, MCBlocks,
                                     maurer_cartan)
from willmorelab.lorentz import inner, lorentz_inverse, metric_signs
from willmorelab.surface import build_surface_data


def metric(dim):
    """diag(-1, 1, ..., 1) of size dim x dim: the full metric, where the
    package multiplies by its diagonal of signs (`lorentz.metric_signs`)."""
    return np.diag(metric_signs(dim))


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
    """Interior sup of the curvature d_z Q - d_zbar P + [P, Q] of
    alpha_lambda."""
    c = E.chart
    R = d_z(E.Q, c) - d_zbar(E.P, c) + (E.P @ E.Q - E.Q @ E.P)
    return {"lambda": E.lam, "sup": sup_norm(R, c.interior_mask(margin))}


def loop_curvature_complex(M):
    """`harmonic.loop_curvature` in complex blocks: (W, plus, lines).

    W = (W1, W2), plus = the (B1, B2) blocks of R+ and lines the three
    harmonicity fields, from one d_zbar stencil per block of alpha;
    d_z conj(f) = conj(d_zbar f) gives the d_z terms.
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
    return W, (np.conj(Z1), np.conj(Z2)), lines


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
    Fi = lorentz_inverse(Ff.F).astype(complex)
    return Ff.F.astype(complex) @ M.p_part() @ Fi


def maurer_cartan_complex(Ff):
    """F^{-1} d_z F as one complex product, d_z by the complex formula."""
    c = Ff.chart
    Fz = 0.5 * (d_u(Ff.F, c) - 1j * d_v(Ff.F, c))
    return lorentz_inverse(Ff.F).astype(complex) @ Fz


def validate_group_against_metric(M, tol=1e-9):
    """`lorentz.validate_group` with the orthogonality defect taken as
    |M^T I M - I| against the full metric matrix, reduced over both
    matrix axes."""
    M = np.asarray(M)
    d = M.shape[-1]
    res_orth = np.max(np.abs(np.swapaxes(M, -1, -2) @ metric(d) @ M
                             - metric(d)), axis=(-1, -2))
    res_det = np.abs(np.linalg.det(M) - 1.0)
    residual = np.maximum(res_orth, res_det)
    ok = (residual <= tol) & (np.real(M[..., 0, 0]) > 0)
    return ok, residual


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


def sup_by_nested_max(a, mask=None):
    """The sup of a = |f|, reducing one trailing axis at a time, then
    masking."""
    while a.ndim > 2:
        a = np.max(a, axis=-1)
    if mask is not None:
        a = a[mask]
    return float(np.max(a))


def l2_by_nested_sum(a, c, mask):
    """The L2 norm of a = |f| over the mask, its squares reduced one
    trailing axis at a time (the last first) and then integrated, as
    `chart.residual_norms` took it before it summed across planes."""
    a = a ** 2
    while a.ndim > 2:
        a = np.sum(a, axis=-1)
    return float(np.sqrt(integrate(np.where(mask, a, 0.0), c)))


def lapack_det(M):
    """`lorentz.det` as one LAPACK determinant per grid point of the
    planes M (d, d, ...)."""
    return np.linalg.det(np.moveaxis(M, (0, 1), (-2, -1)))


def lapack_cofactors(X):
    """The cofactors (d, ...) of the last column of a d x d matrix field
    whose first d - 1 columns are the planes X (d, d - 1, ...):
    (-1)^(k + d - 1) times one LAPACK determinant per grid point of X
    without row k, for each row k."""
    d = len(X)
    return np.array([(-1) ** (k + d - 1)
                     * lapack_det(np.delete(X, k, axis=0))
                     for k in range(d)])


def lapack_complement_solver(B):
    """Q = G^{-1} B s for the rows B (..., m, dim), G = (B s) B^T their
    Gram matrix and s the metric signs, as one LAPACK solve per grid
    point: Id - B^T Q projects onto the complement of the rows, as the
    rejection from `lorentz.orthonormalize(B)` does."""
    Bs = B * np.diag(metric(B.shape[-1]))
    return np.linalg.solve(Bs @ np.swapaxes(B, -1, -2), Bs)


def mat_to_vec(m):
    """Inverse of `spinor.vec_to_mat`."""
    m = np.asarray(m, dtype=complex)
    x = np.empty(m.shape[:-2] + (4,), dtype=complex)
    x[..., 0] = 0.5 * (m[..., 0, 0] + m[..., 1, 1])
    x[..., 1] = 0.5 * (m[..., 1, 1] - m[..., 0, 0])
    x[..., 2] = 0.5 * (m[..., 0, 1] + m[..., 1, 0])
    x[..., 3] = 0.5 * (m[..., 0, 1] - m[..., 1, 0]) / 1j
    return x


def sl2_to_so13_by_matmul(g):
    """`spinor.sl2_to_so13` as the stacked products g m(e_j) g^H of the
    2x2-matrix model, mapped back to columns by `mat_to_vec`."""
    g = np.asarray(g, dtype=complex)
    gh = np.conj(np.swapaxes(g, -1, -2))
    cols = [mat_to_vec(g @ spinor.vec_to_mat(e) @ gh) for e in np.eye(4)]
    return np.real(np.stack(cols, axis=-1))


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


def surface_gauge_blocks(inv, c):
    """Predicted Maurer-Cartan blocks of the conformal Gauss frame.

    Closed-form in the invariants: A1 from the Schwarzian and
    k^2 = <kappa, conj kappa>, B1 columns (sqrt2 beta_j, -sqrt2 beta_j,
    -k_j, -i k_j), A2 the normal connection.  The oracle for
    `maurer_cartan` on frames built by `build_frame`, from the
    invariants `inv` of `surface.invariants`.
    """
    r2 = np.sqrt(2.0)
    s = inv.schwarzian
    k2 = inv.k2
    n = inv.kappa.shape[-1]
    s1 = (1 - s - 2 * k2) / (2 * r2)
    s2 = -1j * (1 + s - 2 * k2) / (2 * r2)
    s3 = (1 + s + 2 * k2) / (2 * r2)
    s4 = -1j * (1 - s + 2 * k2) / (2 * r2)
    alpha = np.zeros(s.shape + (n + 4, n + 4), dtype=complex)
    A1 = alpha[..., :4, :4]
    A1[..., 0, 2], A1[..., 0, 3] = s1, s2
    A1[..., 1, 2], A1[..., 1, 3] = s3, s4
    A1[..., 2, 0], A1[..., 2, 1] = s1, -s3
    A1[..., 3, 0], A1[..., 3, 1] = s2, -s4
    B1 = alpha[..., :4, 4:]
    B1[...] = np.stack([r2 * inv.beta, -r2 * inv.beta,
                        -inv.kappa, -1j * inv.kappa], axis=-2)
    alpha[..., 4:, :4] = -np.swapaxes(B1, -1, -2) @ metric(4)
    alpha[..., 4:, 4:] = np.swapaxes(inv.b, -1, -2)
    # the real pair of alpha = (P - iQ)/2; its blocks give alpha's back
    return MCBlocks(2.0 * alpha.real, -2.0 * alpha.imag, c)


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


def _second_wirtinger_complex(S):
    """Y_zz and Y_zzbar in complex arithmetic from the oracle's own real
    stencils d_u Y_u, d_v Y_v and d_u Y_v of S.Yu and S.Yv."""
    c = S.chart
    Yuu, Yvv, Yuv = d_u(S.Yu, c), d_v(S.Yv, c), d_u(S.Yv, c)
    return 0.25 * (Yuu - Yvv) - 0.5j * Yuv, 0.25 * (Yuu + Yvv)


def invariants_complex(S):
    """The invariants of `surface.invariants` with complex broadcasts, as a
    dict: k as one complex (Nu, Nv, n, dim) pairing, b_raw as one complex
    (n, n, dim) pairing of d_z psi with psi, and beta and D_z kappa by
    einsums over the stacked entries; b_asym_residual is half the sup of
    b_raw's symmetric part, which the antisymmetric b leaves out."""
    c, Y, psi = S.chart, S.Y, S.psi
    Yzz, _ = _second_wirtinger_complex(S)
    s = 2.0 * inner(Yzz, S.N)
    kap_raw = Yzz + 0.5 * s[..., None] * Y
    k = inner(kap_raw[..., None, :], psi)
    b_raw = inner(d_z(psi, c)[..., :, None, :], psi[..., None, :, :])
    b = 0.5 * (b_raw - np.swapaxes(b_raw, -1, -2))
    b_res = float(np.max(np.abs(b_raw + np.swapaxes(b_raw, -1, -2)))) / 2
    beta = d_zbar(k, c) - np.einsum("...jl,...l->...j", np.conj(b), k)
    dz_kappa = d_z(k, c) - np.einsum("...jl,...l->...j", b, k)
    return {"kappa": k, "schwarzian": s, "b": b, "beta": beta,
            "dz_kappa": dz_kappa, "b_asym_residual": b_res}


def normal_derivative_components_complex(b, c, comps, zbar=False):
    """Components of D_z (or D_zbar) of sum_j comps_j psi_j in the psi
    frame with normal connection b, which `surface.invariants` and
    `surface.willmore_residual` take by per-entry passes, with the
    connection term as an einsum over the stacked entries of b, its
    diagonal included."""
    if zbar:
        return d_zbar(comps, c) - np.einsum("...lj,...j->...l",
                                            np.conj(b), comps)
    return d_z(comps, c) - np.einsum("...lj,...j->...l", b, comps)


def structure_fields_complex(S, inv):
    """The four structure-equation fields whose norms `surface.invariants`
    returns, with complex broadcasts from S and its invariants `inv`:
    sum_j k_j psi_j and sum_j beta_j psi_j over a complex copy of psi,
    and b psi by an einsum."""
    c = S.chart
    Yz = wirtinger(S.Yu, S.Yv, -1)
    Yzz, Yzzbar = _second_wirtinger_complex(S)
    psi_c = S.psi.astype(complex)
    kap = np.sum(inv.kappa[..., :, None] * S.psi, axis=-2)
    k2 = np.sum(np.abs(inv.kappa) ** 2, axis=-1)
    Dzbar_kap = np.sum(inv.beta[..., :, None] * psi_c, axis=-2)
    r1 = Yzz + 0.5 * inv.schwarzian[..., None] * S.Y - kap
    r2 = Yzzbar + k2[..., None] * S.Y - 0.5 * S.N
    r3 = d_z(S.N, c) + 2 * k2[..., None] * Yz \
        + inv.schwarzian[..., None] * np.conj(Yz) - 2 * Dzbar_kap
    r4 = d_z(S.psi, c) \
        - np.einsum("...jl,...lm->...jm", inv.b, psi_c) \
        - 2 * inv.beta[..., None] * S.Y[..., None, :] \
        + 2 * inv.kappa[..., None] * np.conj(Yz)[..., None, :]
    return {"lift": r1, "mixed": r2, "N_deriv": r3, "normal": r4}


def ricci_complex(inv, c):
    """The Ricci residual b_zbar - conj(b_zbar) + b conj(b) - conj(b) b
    - 2 (k conj(k)^T - conj(k) k^T) in complex arithmetic, with stacked
    complex products."""
    k, b = inv.kappa, inv.b
    b_zbar = d_zbar(b, c)
    curv = b_zbar - np.conj(b_zbar) + b @ np.conj(b) - np.conj(b) @ b
    rhs = 2 * (k[..., :, None] * np.conj(k)[..., None, :]
               - np.conj(k)[..., :, None] * k[..., None, :])
    return curv - rhs


def gram_complex(X):
    """`lorentz.gram` as one stacked product (X s)^T X, complex for a
    complex X."""
    Xs = X * metric_signs(X.shape[-2])[:, None]
    return np.swapaxes(Xs, -1, -2) @ X
