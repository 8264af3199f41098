"""From a sampled light-cone immersion to its conformal invariants.

The pipeline is: canonical lift Y (normalized so <Y_z, Y_zbar> = 1/2),
the second lightlike section N, an orthonormal normal frame psi_j of the
conformally invariant normal bundle, and the invariant data kappa
(conformal Hopf differential), s (Schwarzian), b (normal connection) and
beta (components of D_zbar kappa).

The conformal Gauss map takes values in SO+(1,n+3)/SO+(1,3)xSO(n).  For
a surface in S^3 (n = 1) the SO(n) factor is trivial: psi is the
oriented unit normal of span(Y, N, Y_u, Y_v), the Lorentz cross product
of the four fields, fixed pointwise with no gauge to choose.  For n >= 2
the gauge of psi is chosen by a continuation sweep over the grid, so
that it varies smoothly (`normal_frame`).

`sphere_fields` is the one path from a lift to the fields of the
central sphere bundle (Y, N, Y_u, Y_v); `build_surface_data` adds the
normal frame psi and stops at the fields of the conformal Gauss frame,
so the commands that only read the frame (verify-harmonic,
reconstruct) never derive more, and `reconstruct.verify_gauss_match`
rebuilds a candidate surface's sphere bundle through it.  `invariants`
is the forward stage, which only analyze runs: it takes the rest of
what it reads as its own locals (Y's second partials Y_uu = d_u Y_u,
Y_vv = d_v Y_v and Y_uv = d_u Y_v, psi's partials and N's), derives
kappa, s, b, beta and D_z kappa, and norms the four structure
residuals, dropping each partial after its last reader; it leaves its
`SurfaceData` as it found it.

Within a stage each field is differentiated at most once along each
axis; `invariants` takes Y_uu and Y_vv again, the stencils of N, since
`SurfaceData` does not carry them past the frame.  Y's Hessian is real:
Y_zzbar = (Y_uu + Y_vv)/4 is the W that N is built from, and
Y_zz = (Y_uu - Y_vv)/4 - i Y_uv/2.  kappa's one d_u/d_v pair gives both
beta and D_z kappa.  The per-point algebra runs on contiguous planes,
one (Nu, Nv) array per entry: the pairings of the invariants, and the
structure residuals, which are built as real and imaginary planes and
normed across them (`chart.field_norms`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .chart import Chart, d_u, d_v, d_zbar, field_norms, sweep, wirtinger
from .lorentz import det, grid_first, inner, metric_signs, minors, \
    orthonormalize, pairings, rejection, row_blocks, to_planes


class DegenerateImmersionError(ValueError):
    pass


def canonical_lift(raw: np.ndarray, c: Chart) -> np.ndarray:
    """Rescale a forward-lightlike lift so that <Y_z, Y_zbar> = 1/2.

    The one test of a lift, in this order: ValueError for a dimension
    below 5 (codimension n >= 1), for a non-finite grid point, and for a
    grid point x that is not forward lightlike, |<x, x>| <= 1e-9 sum x_k^2
    and x0 > 0, named by its row of a lift file (row-major); then
    DegenerateImmersionError where the immersion degenerates.  The scale
    rho = sqrt(2 <raw_z, raw_zbar>) is insensitive to the input scaling
    because the lift is null.
    """
    raw = np.asarray(raw, dtype=float)
    if raw.shape[-1] < 5:
        raise ValueError("a lift needs dimension at least 5 (codimension "
                         f"n >= 1, R^(1,n+3)), got dimension {raw.shape[-1]}")
    if not np.all(np.isfinite(raw)):
        i, j = np.argwhere(~np.isfinite(raw))[0][:2]
        raise ValueError(f"input field is not finite at grid point ({i}, {j})")
    forward = (np.abs(inner(raw, raw)) <= 1e-9 * np.sum(raw**2, axis=-1)) \
        & (raw[..., 0] > 0)
    if not np.all(forward):
        i, j = np.argwhere(~forward)[0]
        raise ValueError(f"row {i * c.Nv + j} (grid point {i},{j}) is not "
                         "forward lightlike")
    ru, rv = d_u(raw, c), d_v(raw, c)
    e = np.real(inner(wirtinger(ru, rv, -1), wirtinger(ru, rv, 1)))
    if np.min(e) <= 1e-8 * np.max(e):
        raise DegenerateImmersionError(
            f"immersion degenerates: min <raw_z, raw_zbar> = {np.min(e):.3e}")
    rho = np.sqrt(2.0 * e)
    return raw / rho[..., None]


def zzbar(Yuu: np.ndarray, Yvv: np.ndarray) -> np.ndarray:
    """Y_zzbar = (Y_uu + Y_vv)/4, real, from Y_uu = d_u Y_u and
    Y_vv = d_v Y_v in any layout, scaled in place."""
    W = Yuu + Yvv
    W *= 0.25
    return W


def zz(Yuu: np.ndarray, Yvv: np.ndarray, Yuv: np.ndarray) -> np.ndarray:
    """Y_zz = (Y_uu - Y_vv)/4 - i Y_uv/2 from Y's real second partials,
    as one complex array of their layout (C order for plane views)."""
    out = np.empty(Yuu.shape, dtype=complex)
    out.real, out.imag = 0.25 * (Yuu - Yvv), -0.5 * Yuv
    return out


def frame_N(Y: np.ndarray, W: np.ndarray) -> np.ndarray:
    """The section N with <N,Y> = -1, <N,N> = 0, N = 2 Y_zzbar mod Y.

    W is Y_zzbar (`zzbar`), from stencils taken by the caller.  Both
    defining pairings are enforced pointwise-algebraically, so they hold
    at machine precision; the derivative conditions <N, Y_z> = 0 are
    inherited from the stencils at O(h^2).
    """
    A = inner(W, W)
    B = inner(W, Y)           # ~ -1/2
    a = -1.0 / B
    coef = -a * A / (2.0 * B)
    return a[..., None] * W + coef[..., None] * Y


def sphere_columns(Y: np.ndarray, N: np.ndarray, Yu: np.ndarray,
                   Yv: np.ndarray) -> list:
    """The frame columns (Y+N)/sqrt2, (-Y+N)/sqrt2, Y_u, Y_v spanning the
    central sphere bundle of the canonical lift Y with its section N."""
    r2 = np.sqrt(2.0)
    return [(Y + N) / r2, (-Y + N) / r2, Yu, Yv]


def complement_basis(E: np.ndarray) -> np.ndarray:
    """Orthonormal basis (dim - m, dim) of the Minkowski complement of
    one point's orthonormal rows E (m, dim), the first timelike, so that
    the complement is spacelike (`lorentz.orthonormalize`).

    Gram-Schmidt on the standard basis vectors, each first rejected from
    the rows (`lorentz.rejection`); a candidate whose remainder has
    squared norm below 1e-8 lies in the span already kept and is skipped.
    """
    m, dim = E.shape
    basis = []
    for w in rejection(E.T, np.eye(dim)).T:
        for prev in basis:
            w = w - inner(w, prev) * prev
        nrm = inner(w, w)
        if nrm > 1e-8:
            basis.append(w / np.sqrt(nrm))
        if len(basis) == dim - m:
            return np.stack(basis)
    raise RuntimeError("the rows leave no spacelike complement of "
                       f"dimension {dim - m}")


def normal_frame(Y: np.ndarray, N: np.ndarray, Yu: np.ndarray,
                 Yv: np.ndarray) -> np.ndarray:
    """Oriented orthonormal frame psi of the normal bundle, shape (Nu,Nv,n,dim).

    The normal bundle is the Minkowski complement of span(Y, N, Y_u, Y_v),
    the mean curvature sphere bundle; (phi1..phi4, psi) is positively
    oriented, phi = `sphere_columns`.

    Codimension n = 1 (a surface in S^3): SO(1) is trivial, so psi is the
    oriented unit normal, fixed at each point with no gauge to choose
    (`_oriented_normal`).

    n >= 2: the SO(n) gauge is chosen by continuation.  Rows w project
    onto the normal bundle as their rejection (`lorentz.rejection`) from
    E, phi orthonormalized once over the grid (`lorentz.orthonormalize`).
    Seeded by `complement_basis` at (0,0) and propagated by nearest-frame
    alignment (`chart.sweep`): each point projects its neighbour's frame
    onto its own normal space and re-orthonormalizes.
    """
    if Y.shape[-1] - 4 == 1:
        return _oriented_normal(Y, N, Yu, Yv)
    E = orthonormalize(np.stack(sphere_columns(Y, N, Yu, Yv), axis=-2))
    seed = complement_basis(E[0, 0])
    # (E, psi) has the orientation of (phi, psi): E is T phi, det T > 0
    if det(np.concatenate([E[0, 0], seed])) < 0:
        seed[-1] = -seed[-1]
    F = np.swapaxes(E, -1, -2)          # the bundle's columns

    def step(w, at):
        return orthonormalize(np.swapaxes(
            rejection(F[at], np.swapaxes(w, -1, -2)), -1, -2))

    psi = np.empty(E.shape[:2] + seed.shape)
    psi[0, 0] = seed
    return sweep(psi, step)


def _oriented_normal(Y: np.ndarray, N: np.ndarray, Yu: np.ndarray,
                     Yv: np.ndarray) -> np.ndarray:
    """The positively oriented unit normal psi (Nu, Nv, 1, 5) of
    span(Y, N, Y_u, Y_v) in R^{1,4}: the Lorentz cross product nu,
    nu_k = s_k (-1)^k M_k, normalized, with M_k the minor of the rows
    (Y, N, Y_u, Y_v) without column k (`lorentz.minors`) and s the metric
    signs.

    Expanding det(Y, N, Y_u, Y_v, w) along its last column gives <w, nu>,
    so nu is orthogonal to the four rows, and det(phi1..phi4, psi) =
    det(Y, N, Y_u, Y_v, psi) = sqrt(<nu, nu>) > 0 (the change of basis
    to the phi has determinant 1): psi is the normal that the orientation
    of (phi1..phi4, psi) picks.  One row block (`row_blocks`) at a time,
    on the fields' planes.  Raises np.linalg.LinAlgError where <nu, nu>
    is not finite and positive, where the span is degenerate.
    """
    s = metric_signs(5)
    psi = np.empty(Y.shape[:-1] + (1, 5))
    for rows in row_blocks(Y.shape[:-1]):
        M = minors([to_planes(f[rows], values=1) for f in (Y, N, Yu, Yv)])
        nu = np.empty((5,) + Y[rows].shape[:-1])
        for k in range(5):      # M_k: the minor on the rows other than k
            np.multiply(M[tuple(_others(5, k))], (-1) ** k * s[k],
                        out=nu[k])
        q = np.einsum("k,k...,k...->...", s, nu, nu)
        if not np.all(np.isfinite(q) & (q > 0)):
            raise np.linalg.LinAlgError(
                "span(Y, N, Y_u, Y_v) is degenerate")
        nu /= np.sqrt(q)
        psi[rows][..., 0, :] = np.moveaxis(nu, 0, -1)
    return psi


class Invariants(NamedTuple):
    """The forward invariants of a `SurfaceData` and the norms of its
    structure residuals (`invariants`)."""
    kappa: np.ndarray      # (Nu, Nv, n) components k_j
    schwarzian: np.ndarray  # (Nu, Nv) complex s
    b: np.ndarray          # (Nu, Nv, n, n) normal connection, antisymmetric
    beta: np.ndarray       # (Nu, Nv, n) components of D_zbar kappa
    dz_kappa: np.ndarray   # (Nu, Nv, n) components of D_z kappa
    k2: np.ndarray         # (Nu, Nv) <kappa, conj kappa> = sum |k_j|^2
    structure: dict        # name -> norms of each structure residual


@dataclass
class SurfaceData:
    """Canonical lift and its normal frame, the fields of the conformal
    Gauss frame: Y, N, Y_u and Y_v (`sphere_fields`) give its sphere
    columns (`gauss_frame.build_frame`) and psi gives its normal columns.
    A command drops its SurfaceData once the frame is built."""
    chart: Chart
    Y: np.ndarray          # (Nu, Nv, dim) canonical lift
    N: np.ndarray          # (Nu, Nv, dim)
    Yu: np.ndarray         # (Nu, Nv, dim) d_u Y
    Yv: np.ndarray         # (Nu, Nv, dim) d_v Y
    psi: np.ndarray        # (Nu, Nv, n, dim) normal frame

    @property
    def n(self) -> int:
        return self.psi.shape[-2]


def _others(n: int, *skip: int) -> list:
    """The indices 0..n-1 other than `skip`."""
    return [m for m in range(n) if m not in skip]


def _subtract_connection(out: np.ndarray, b: np.ndarray, comps: np.ndarray,
                         conjugate: bool) -> np.ndarray:
    """out_j -= sum_l b_jl comps_l (conj(b_jl) if conjugate), in place,
    one elementwise pass per entry: b is antisymmetric with an exactly
    zero diagonal, so the terms l = j are left out and n = 1 has none."""
    n = comps.shape[-1]
    for j in range(n):
        for l in _others(n, j):
            bjl = np.conj(b[..., j, l]) if conjugate else b[..., j, l]
            out[..., j] -= bjl * comps[..., l]
    return out


def _complex_planes(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """re + i im for real planes (a, ..., Nu, Nv), as a complex field
    (Nu, Nv, a, ...) whose entries are contiguous planes."""
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, im
    return grid_first(out)


def invariants(S: SurfaceData) -> Invariants:
    """The forward stage: kappa, s, b, beta, D_z kappa and |kappa|^2 from
    the canonical data of S, and the residual norms of the four
    moving-frame structure equations

        lift     Y_zz + (s/2) Y - sum_j k_j psi_j
        mixed    Y_zzbar + <kappa, conj kappa> Y - N/2
        N_deriv  N_z + 2 <kappa, conj kappa> Y_z + s conj(Y_z)
                 - 2 sum_j beta_j psi_j
        normal   psi_j,z + 2 k_j conj(Y_z) - sum_l b_jl psi_l - 2 beta_j Y

    with Y_z = (Y_u - i Y_v)/2.  The partials that only this stage reads,
    Y's Hessian Y_uu = d_u Y_u, Y_vv = d_v Y_v, Y_uv = d_u Y_v and the
    partials of psi (on psi's planes) and of N, are its own locals, each
    dropped after its last reader; S is left as it was.

    The pairings with the real normal frame are real `pairings` on
    planes: k_j from those of the real and imaginary parts of kappa's
    raw field, and b from U_jl = <psi_j,u, psi_l> and
    V_jl = <psi_j,v, psi_l>, since <psi_j,z, psi_l> = (U_jl - i V_jl)/2.
    kappa and b come out with each entry a contiguous plane, which the
    per-entry passes downstream read.  kappa's one d_u/d_v pair gives
    both beta = D_zbar kappa and D_z kappa.

    Each residual is built on planes: an array (entries, Nu, Nv) that
    starts as Y_zz (`zz`), Y_zzbar (`zzbar`, N's W, so "mixed" is real),
    N_z or psi_z, into whose real and imaginary planes the real products
    of Y, Y_u, Y_v and psi with the real and imaginary parts of the
    invariants are added, one plane of coefficients across all entries
    at a time; no complex field is broadcast.  Each residual is normed
    (`field_norms`) and released before the next is built.
    """
    c, n = S.chart, S.n
    Yuu, Yvv, Yuv = d_u(S.Yu, c), d_v(S.Yv, c), d_u(S.Yv, c)
    Yzz = zz(Yuu, Yvv, Yuv)
    s = 2.0 * inner(Yzz, S.N)
    kap_raw = Yzz + 0.5 * s[..., None] * S.Y
    del Yzz             # lowers the peak
    # psi spans the complement of span(Y, N, Y_z, Y_zbar) = span(Y, N, Y_u,
    # Y_v) (d_z is the same linear stencil), so kappa's part in that
    # bundle drops out of the pairing
    Psi = to_planes(S.psi)                                  # (n, dim, ...)
    Psi_u, Psi_v = (to_planes(d(grid_first(Psi), c)) for d in (d_u, d_v))
    k = _complex_planes(*(pairings(part, Psi)[0]
                          for part in to_planes(kap_raw[..., None, :])))
    del kap_raw

    # b = (b_raw - b_raw^T)/2, b_raw = <psi_z, psi> = (U - iV)/2
    U = pairings(Psi_u, Psi)                                # (n, n, ...)
    V = pairings(Psi_v, Psi)
    b = _complex_planes(0.25 * (U - np.swapaxes(U, 0, 1)),
                        -0.25 * (V - np.swapaxes(V, 0, 1)))
    del U, V

    ku, kv = d_u(k, c), d_v(k, c)
    beta = _subtract_connection(wirtinger(ku, kv, 1), b, k, conjugate=True)
    dz_kappa = _subtract_connection(wirtinger(ku, kv, -1), b, k,
                                    conjugate=False)
    del ku, kv
    k2 = np.sum(k.real ** 2 + k.imag ** 2, axis=-1)

    kr, ki = to_planes(k, values=1)                     # (n, Nu, Nv)
    br, bi = 2.0 * to_planes(beta, values=1)
    b_re, b_im = to_planes(b)                           # (n, n, Nu, Nv)
    Yuu, Yvv, Yuv = (np.moveaxis(x, -1, 0)              # (dim, Nu, Nv)
                     for x in (Yuu, Yvv, Yuv))           # views
    Y = to_planes(S.Y, values=1)
    tmp = np.empty_like(Y)

    def add(out, coef, vecs, sign=1.0):
        """out += sign * coef * vecs, coef one plane across the entries"""
        np.multiply(coef, vecs, out=tmp)
        if sign > 0:
            out += tmp
        else:
            out -= tmp

    # psi_z first: psi's partials, the largest fields here, are released
    # before the other residuals are built; the report keeps its order
    structure = dict.fromkeys(("lift", "mixed", "N_deriv", "normal"))
    Yu, Yv = (to_planes(x, values=1) for x in (S.Yu, S.Yv))
    r = np.empty(Psi.shape, dtype=complex)               # psi_z
    np.multiply(Psi_u, 0.5, out=r.real)
    np.multiply(Psi_v, -0.5, out=r.imag)
    del Psi_u, Psi_v
    for j in range(n):
        re, im = r.real[j], r.imag[j]
        add(re, kr[j], Yu)
        add(re, ki[j], Yv, -1.0)
        add(im, ki[j], Yu)
        add(im, kr[j], Yv)
        for l in _others(n, j):       # b's zero diagonal is left out
            add(re, b_re[j, l], Psi[l], -1.0)
            add(im, b_im[j, l], Psi[l], -1.0)
        add(re, br[j], Y, -1.0)
        add(im, bi[j], Y, -1.0)
    structure["normal"] = field_norms(grid_first(r), c)

    r = zz(Yuu, Yvv, Yuv)
    del Yuv
    for part, sx, kx in ((r.real, s.real, kr), (r.imag, s.imag, ki)):
        add(part, 0.5 * sx, Y)
        for j in range(n):
            add(part, kx[j], Psi[j], -1.0)
    structure["lift"] = field_norms(grid_first(r), c)

    N = to_planes(S.N, values=1)
    r = zzbar(Yuu, Yvv)
    del Yuu, Yvv
    add(r, k2, Y)
    add(r, 0.5, N, -1.0)
    structure["mixed"] = field_norms(grid_first(r), c)

    r = np.empty(N.shape, dtype=complex)                 # N_z
    for d, part, scale in ((d_u, r.real, 0.5), (d_v, r.imag, -0.5)):
        np.multiply(to_planes(d(grid_first(N), c), values=1), scale,
                    out=part)
    del N
    add(r.real, k2 + 0.5 * s.real, Yu)
    add(r.real, 0.5 * s.imag, Yv, -1.0)
    add(r.imag, 0.5 * s.real - k2, Yv)
    add(r.imag, 0.5 * s.imag, Yu)
    for part, bx in ((r.real, br), (r.imag, bi)):
        for j in range(n):
            add(part, bx[j], Psi[j], -1.0)
    structure["N_deriv"] = field_norms(grid_first(r), c)
    return Invariants(kappa=k, schwarzian=s, b=b, beta=beta,
                      dz_kappa=dz_kappa, k2=k2, structure=structure)


def sphere_fields(raw: np.ndarray, c: Chart) -> tuple:
    """Raw lift -> (Y, N, Y_u, Y_v), the fields of the central sphere
    bundle: the canonical lift Y, its partials, and N from Y's Hessian
    (`frame_N`, with W = (d_u Y_u + d_v Y_v)/4)."""
    Y = canonical_lift(raw, c)
    Yu, Yv = d_u(Y, c), d_v(Y, c)
    N = frame_N(Y, zzbar(d_u(Yu, c), d_v(Yv, c)))
    return Y, N, Yu, Yv


def build_surface_data(raw: np.ndarray, c: Chart) -> SurfaceData:
    """Raw lift -> SurfaceData: the sphere fields (`sphere_fields`) and
    the normal frame psi, the fields of the conformal Gauss frame."""
    Y, N, Yu, Yv = sphere_fields(raw, c)
    return SurfaceData(chart=c, Y=Y, N=N, Yu=Yu, Yv=Yv,
                       psi=normal_frame(Y, N, Yu, Yv))


def willmore_residual(inv: Invariants, c: Chart) -> np.ndarray:
    """Component field of D_zbar D_zbar kappa + (conj s / 2) kappa, with
    D_zbar beta from beta's components in the psi frame."""
    beta = inv.beta
    eta = _subtract_connection(d_zbar(beta, c), inv.b, beta, conjugate=True)
    return eta + 0.5 * np.conj(inv.schwarzian)[..., None] * inv.kappa


def _ricci(inv: Invariants, c: Chart) -> np.ndarray:
    """The Ricci residual divided by i, a real antisymmetric (Nu, Nv, n, n)
    field.

    The residual b_zbar - conj(b_zbar) + b conj(b) - conj(b) b
    - 2 (k conj(k)^T - conj(k) k^T) is purely imaginary: with b = b_r + i b_i
    it is i times 2 Im(b_zbar) + 2 [b_i, b_r] - 4 Im(k conj(k)^T), and
    2 Im(b_zbar) = d_u b_i + d_v b_r.  Each entry above the diagonal is a
    few real passes (the commutator skips b's zero diagonal, so it
    vanishes for n <= 2, where so(n) is abelian); the diagonal is zero.
    """
    b, k = inv.b, inv.kappa
    n = k.shape[-1]
    br, bi = b.real, b.imag
    out = np.zeros(c.shape + (n, n))
    for j in range(n):
        for l in range(j + 1, n):
            r = d_u(bi[..., j, l], c) + d_v(br[..., j, l], c)
            for m in _others(n, j, l):
                r += 2 * (bi[..., j, m] * br[..., m, l]
                          - br[..., j, m] * bi[..., m, l])
            r -= 4 * (k[..., j].imag * k[..., l].real
                      - k[..., j].real * k[..., l].imag)
            out[..., j, l] = r
            out[..., l, j] = -r
    return out


def integrability_residuals(inv: Invariants, W: np.ndarray,
                            c: Chart) -> dict:
    """Residual norms of the conformal Gauss, Codazzi and Ricci equations.

    W is `willmore_residual(inv, c)`, whose imaginary part is the Codazzi
    residual; callers that report W itself build it once for both.  The
    Ricci residual is purely imaginary and is normed as its imaginary
    part (`_ricci`).
    """
    k, beta, s = inv.kappa, inv.beta, inv.schwarzian
    gauss = 0.5 * d_zbar(s, c) \
        - 3 * np.sum(k * np.conj(beta), axis=-1) \
        - np.sum(inv.dz_kappa * np.conj(k), axis=-1)
    codazzi = np.imag(W)
    ricci = _ricci(inv, c)
    return {name: field_norms(f, c) for name, f in
            (("gauss", gauss), ("codazzi", codazzi), ("ricci", ricci))}
