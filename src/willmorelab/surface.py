"""From a sampled light-cone immersion to its conformal invariants.

The pipeline is: canonical lift Y (normalized so <Y_z, Y_zbar> = 1/2),
the second lightlike section N, an orthonormal normal frame psi_j of the
conformally invariant normal bundle, and the invariant data kappa
(conformal Hopf differential), s (Schwarzian), b (normal connection) and
beta (components of D_zbar kappa).

Each field is differentiated at most once along each axis.  The raw
lift takes one d_u/d_v pair (for the scale of Y), Y takes one (Y_u, Y_v,
kept on `SurfaceData`), and N takes d_u Y_u and d_v Y_v.  Y's Hessian,
the pair d_u Y_z, d_v Y_z, and psi's partials d_u psi, d_v psi are taken
on first read and cached on `SurfaceData`: the invariants read Y_zz from
the Hessian and the normal connection from psi's partials, and the
structure residuals, their last reader, read Y_zz, Y_zzbar and psi_z
from the same fields and then drop them.  N's own partials are taken
only for N_z there.  The Hessian's complex stencils hold Y_uu and Y_vv
again: numpy divides a complex field by 2h as a product with 1/(2h),
which rounds differently from N's real stencils, so a Y_zz built from
those would move kappa by an ulp, which the second derivatives in the
Codazzi and Willmore residuals amplify by up to 1/h^2.

`build_surface_data` stops at the fields of the conformal Gauss frame
(Y, N, Y_u, Y_v and psi).  The invariants kappa, s, b and beta are
computed on first read, by one call of `invariants`, so the commands
that only read the frame (verify-harmonic, reconstruct) never derive
them, nor the Hessian or psi's partials.

The per-point algebra runs on contiguous planes, one (Nu, Nv) array per
entry: the pairings of the invariants, and the structure residuals,
which are built as real and imaginary planes and normed across them
(`chart.field_norms`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .chart import (Chart, DEFAULT_MARGIN, d_u, d_v, d_z, d_zbar,
                    field_norms, residual_norms, sweep, wirtinger)
from .lorentz import complement_solver, grid_first, inner, pairings, \
    to_planes


class DegenerateImmersionError(ValueError):
    pass


def canonical_lift(raw: np.ndarray, c: Chart) -> np.ndarray:
    """Rescale a forward-lightlike lift so that <Y_z, Y_zbar> = 1/2.

    The scale rho = sqrt(2 <raw_z, raw_zbar>) is insensitive to the input
    scaling because the lift is null.  Raises for non-null input (relative
    defect above 1e-8) or where the immersion degenerates.
    """
    tol = 1e-8
    raw = np.asarray(raw, dtype=float)
    scale = np.sum(raw**2, axis=-1)
    if np.max(np.abs(inner(raw, raw))) > tol * np.max(scale):
        raise ValueError("input field is not lightlike")
    if np.min(raw[..., 0]) <= 0:
        raise ValueError("input field is not forward (x0 <= 0 somewhere)")
    ru, rv = d_u(raw, c), d_v(raw, c)
    e = np.real(inner(wirtinger(ru, rv, -1), wirtinger(ru, rv, 1)))
    if np.min(e) <= tol * np.max(e):
        raise DegenerateImmersionError(
            f"immersion degenerates: min <raw_z, raw_zbar> = {np.min(e):.3e}")
    rho = np.sqrt(2.0 * e)
    return raw / rho[..., None]


def frame_N(Y: np.ndarray, Yu: np.ndarray, Yv: np.ndarray,
            c: Chart) -> np.ndarray:
    """The section N with <N,Y> = -1, <N,N> = 0, N = 2 Y_zzbar mod Y.

    Yu, Yv are d_u Y and d_v Y, taken once by the caller; Y_zzbar =
    (Y_uu + Y_vv)/4 takes one more stencil of each.  Both defining
    pairings are enforced pointwise-algebraically, so they hold at
    machine precision; the derivative conditions <N, Y_z> = 0 are
    inherited from the stencils at O(h^2).
    """
    W = 0.25 * (d_u(Yu, c) + d_v(Yv, c))   # Y_zzbar, real
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


def complement_basis(B: np.ndarray) -> np.ndarray:
    """Orthonormal basis (dim - m, dim) of the Minkowski complement of
    the rows of one point's B (m, dim), which must be spacelike.

    Gram-Schmidt on the standard basis vectors, each first projected
    onto the complement (`lorentz.complement_solver`); a candidate whose
    remainder has squared norm below 1e-8 lies in the span already kept
    and is skipped.
    """
    m, dim = B.shape
    basis = []
    for w in np.eye(dim) - complement_solver(B).T @ B:
        for prev in basis:
            w = w - inner(w, prev) * prev
        nrm = inner(w, w)
        if nrm > 1e-8:
            basis.append(w / np.sqrt(nrm))
        if len(basis) == dim - m:
            return np.stack(basis)
    raise RuntimeError("the rows leave no spacelike complement of "
                       f"dimension {dim - m}")


def _orthonormalize(vecs: np.ndarray) -> np.ndarray:
    """Modified Gram-Schmidt on (..., n, dim) spacelike vectors."""
    out = np.array(vecs, dtype=float)
    n = out.shape[-2]
    for j in range(n):
        for i in range(j):
            out[..., j, :] -= inner(out[..., j, :], out[..., i, :])[..., None] \
                * out[..., i, :]
        nrm = np.sqrt(inner(out[..., j, :], out[..., j, :]))
        out[..., j, :] /= nrm[..., None]
    return out


def normal_frame(B: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Oriented orthonormal frame psi of the normal bundle, shape (Nu,Nv,n,dim).

    B = stack(Y, N, Y_u, Y_v) of shape (Nu, Nv, 4, dim) spans the mean
    curvature sphere bundle and Q = `lorentz.complement_solver(B)`, so
    rows w project onto the normal bundle as w - (w Q^T) B.  Seeded by
    `complement_basis` at (0,0) and propagated by nearest-frame
    alignment (`chart.sweep`): each point projects its neighbour's frame
    onto its own normal space and re-orthonormalizes.
    """
    QT = np.swapaxes(Q, -1, -2)
    seed = complement_basis(B[0, 0])
    # orient the seed so that (phi1..phi4, psi) is positively oriented
    if np.linalg.det(np.stack(sphere_columns(*B[0, 0]) + list(seed),
                              axis=-1)) < 0:
        seed[-1] = -seed[-1]

    def step(w, at):
        return _orthonormalize(w - (w @ QT[at]) @ B[at])

    psi = np.empty(B.shape[:2] + seed.shape)
    psi[0, 0] = seed
    return sweep(psi, step)


def _second_wirtinger(zu: tuple, zv: tuple, sign: int) -> np.ndarray:
    """Y_zz (sign = -1) or Y_zzbar (sign = +1), (zu -+ i zv)/2, from
    the real and imaginary parts of zu = d_u Y_z and zv = d_v Y_z, in
    any layout: written from real sums into one complex array of that
    layout, bit for bit the complex formula (`chart.wirtinger`)."""
    (ur, ui), (vr, vi) = zu, zv
    out = np.empty(ur.shape, dtype=complex)
    if sign < 0:
        np.add(ur, vi, out=out.real)
        np.subtract(ui, vr, out=out.imag)
    else:
        np.subtract(ur, vi, out=out.real)
        np.add(ui, vr, out=out.imag)
    out.real *= 0.5
    out.imag *= 0.5
    return out


class Invariants(NamedTuple):
    """The forward invariants of a `SurfaceData`."""
    kappa: np.ndarray      # (Nu, Nv, n) components k_j
    schwarzian: np.ndarray  # (Nu, Nv) complex s
    b: np.ndarray          # (Nu, Nv, n, n) normal connection, antisymmetric
    beta: np.ndarray       # (Nu, Nv, n) components of D_zbar kappa
    b_asym_residual: float  # half the sup of the symmetric part of b


@dataclass
class SurfaceData:
    """Canonical lift, its normal frame and, on first read, its invariants.

    The fields are those of the conformal Gauss frame: Y, N, Y_u and Y_v
    give its sphere columns (`gauss_frame.build_frame`), and psi gives
    its normal columns.  What only the forward checks read is derived on
    first read and cached on the instance, not as dataclass fields: Y's
    Hessian, psi and its partials as planes, kappa, s, b and beta (one
    `invariants` call) and k2.  A command drops its SurfaceData once the
    frame is built.
    """
    chart: Chart
    Y: np.ndarray          # (Nu, Nv, dim) canonical lift
    N: np.ndarray          # (Nu, Nv, dim)
    Yu: np.ndarray         # (Nu, Nv, dim) d_u Y
    Yv: np.ndarray         # (Nu, Nv, dim) d_v Y
    psi: np.ndarray        # (Nu, Nv, n, dim) normal frame

    @cached_property
    def hessian(self) -> tuple:
        """Y's second partials as the complex pair
        d_u Y_z = (Y_uu - i d_u Y_v)/2 and d_v Y_z = (d_v Y_u - i Y_vv)/2,
        (Nu, Nv, dim) each: taken once, for Y_zz in the invariants and
        Y_zz, Y_zzbar in the structure residuals."""
        c, Yz = self.chart, wirtinger(self.Yu, self.Yv, -1)
        return d_u(Yz, c), d_v(Yz, c)

    @cached_property
    def psi_planes(self) -> tuple:
        """psi, d_u psi and d_v psi as contiguous planes (n, dim, Nu, Nv).
        The stencils run on psi's planes (viewed with the grid axes
        first), so each partial is taken once, in the layout that the
        pairings of `invariants` and the structure residuals read."""
        c = self.chart
        Psi = to_planes(self.psi)
        return (Psi,) + tuple(to_planes(d(grid_first(Psi), c))
                              for d in (d_u, d_v))

    @cached_property
    def _invariants(self) -> Invariants:
        return invariants(self)

    @property
    def kappa(self) -> np.ndarray:
        return self._invariants.kappa

    @property
    def schwarzian(self) -> np.ndarray:
        return self._invariants.schwarzian

    @property
    def b(self) -> np.ndarray:
        return self._invariants.b

    @property
    def beta(self) -> np.ndarray:
        return self._invariants.beta

    @property
    def b_asym_residual(self) -> float:
        return self._invariants.b_asym_residual

    @property
    def n(self) -> int:
        return self.psi.shape[-2]

    @cached_property
    def k2(self) -> np.ndarray:
        """<kappa, conj kappa> = sum |k_j|^2, derived on first read."""
        k = self.kappa
        return np.sum(k.real ** 2 + k.imag ** 2, axis=-1)

    def residual_mask(self) -> np.ndarray:
        """Region used for residual norms; trims open-chart boundaries."""
        return self.chart.interior_mask(DEFAULT_MARGIN)


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
    """Compute kappa, s, b, beta from the canonical data of S.

    Y_zz comes from S's Hessian and psi's partials from S.psi_planes.
    The pairings with the real normal frame are real `pairings` on
    planes: k_j from those of the real and imaginary parts of kappa's
    raw field, and b from U_jl = <psi_j,u, psi_l> and
    V_jl = <psi_j,v, psi_l>, since <psi_j,z, psi_l> = (U_jl - i V_jl)/2.
    kappa and b come out with each entry a contiguous plane, which the
    per-entry passes downstream read.
    """
    c, Y = S.chart, S.Y
    Yzz = _second_wirtinger(*((x.real, x.imag) for x in S.hessian), -1)
    s = 2.0 * inner(Yzz, S.N)
    kap_raw = Yzz + 0.5 * s[..., None] * Y
    del Yzz             # lowers the peak
    # psi spans the complement of span(Y, N, Y_z, Y_zbar) = span(Y, N, Y_u,
    # Y_v) (d_z is the same linear stencil), so kappa's part in that
    # bundle drops out of the pairing
    Psi, Psi_u, Psi_v = S.psi_planes                        # (n, dim, ...)
    k = _complex_planes(*(pairings(part, Psi)[0]
                          for part in to_planes(kap_raw[..., None, :])))
    del kap_raw

    # b = (b_raw - b_raw^T)/2 and the sup of the symmetric part,
    # b_raw = <psi_z, psi> = (U - iV)/2
    U = pairings(Psi_u, Psi)                                # (n, n, ...)
    V = pairings(Psi_v, Psi)
    Ut, Vt = np.swapaxes(U, 0, 1), np.swapaxes(V, 0, 1)
    b = _complex_planes(0.25 * (U - Ut), -0.25 * (V - Vt))
    b_res = float(np.max(np.hypot(U + Ut, V + Vt))) / 4

    beta = _subtract_connection(d_zbar(k, c), b, k, conjugate=True)
    return Invariants(kappa=k, schwarzian=s, b=b, beta=beta,
                      b_asym_residual=b_res)


def build_surface_data(raw: np.ndarray, c: Chart) -> SurfaceData:
    """Raw lift -> SurfaceData: the canonical lift Y, its partials, N
    and the normal frame psi, the fields of the conformal Gauss frame."""
    Y = canonical_lift(raw, c)
    Yu, Yv = d_u(Y, c), d_v(Y, c)
    N = frame_N(Y, Yu, Yv, c)
    B = np.stack([Y, N, Yu, Yv], axis=-2)
    psi = normal_frame(B, complement_solver(B))
    return SurfaceData(chart=c, Y=Y, N=N, Yu=Yu, Yv=Yv, psi=psi)


def normal_derivative_components(S: SurfaceData, comps: np.ndarray,
                                 zbar: bool = False) -> np.ndarray:
    """Components of D_z (or D_zbar) of sum_j comps_j psi_j in the psi frame."""
    c = S.chart
    D = d_zbar(comps, c) if zbar else d_z(comps, c)
    return _subtract_connection(D, S.b, comps, conjugate=zbar)


def willmore_residual(S: SurfaceData) -> np.ndarray:
    """Component field of D_zbar D_zbar kappa + (conj s / 2) kappa."""
    eta = normal_derivative_components(S, S.beta, zbar=True)
    return eta + 0.5 * np.conj(S.schwarzian)[..., None] * S.kappa


def structure_residuals(S: SurfaceData) -> dict:
    """Residual norms of the four moving-frame structure equations

        lift     Y_zz + (s/2) Y - sum_j k_j psi_j
        mixed    Y_zzbar + <kappa, conj kappa> Y - N/2
        N_deriv  N_z + 2 <kappa, conj kappa> Y_z + s conj(Y_z)
                 - 2 sum_j beta_j psi_j
        normal   psi_j,z + 2 k_j conj(Y_z) - sum_l b_jl psi_l - 2 beta_j Y

    with Y_z = (Y_u - i Y_v)/2.  Each residual is built on planes: a
    complex array (entries, Nu, Nv) that starts as Y_zz, Y_zzbar (from
    the planes of S's Hessian), N_z or psi_z (from the planes of their
    partials), into whose real and imaginary planes the real products of
    Y, Y_u, Y_v and psi with the real and imaginary parts of the
    invariants are added, one plane of coefficients across all entries
    at a time; no complex field is broadcast.  Each residual is normed
    (`field_norms`) and released before the next is built.  This is the
    last reader of the Hessian and of psi's planes, so it drops them
    from S's cache.
    """
    c, n = S.chart, S.n
    mask = S.residual_mask()
    s, k2 = S.schwarzian, S.k2        # the invariants read the Hessian
    kr, ki = to_planes(S.kappa, values=1)               # (n, Nu, Nv)
    br, bi = 2.0 * to_planes(S.beta, values=1)
    b_re, b_im = to_planes(S.b)                         # (n, n, Nu, Nv)
    H = [to_planes(x, values=1) for x in S.hessian]     # (2, dim, Nu, Nv)
    Psi, Psi_u, Psi_v = S.psi_planes                    # (n, dim, Nu, Nv)
    for name in ("hessian", "psi_planes"):
        vars(S).pop(name, None)
    Y = to_planes(S.Y, values=1)                        # (dim, Nu, Nv)
    tmp = np.empty_like(Y)

    def add(out, coef, vecs, sign=1.0):
        """out += sign * coef * vecs, coef one plane across the entries"""
        np.multiply(coef, vecs, out=tmp)
        if sign > 0:
            out += tmp
        else:
            out -= tmp

    out = {}
    r = _second_wirtinger(*H, -1)                        # Y_zz
    for part, sx, kx in ((r.real, s.real, kr), (r.imag, s.imag, ki)):
        add(part, 0.5 * sx, Y)
        for j in range(n):
            add(part, kx[j], Psi[j], -1.0)
    out["lift"] = field_norms(grid_first(r), c, mask)

    N = to_planes(S.N, values=1)
    r = _second_wirtinger(*H, 1)                         # Y_zzbar
    del H
    add(r.real, k2, Y)
    add(r.real, 0.5, N, -1.0)
    out["mixed"] = field_norms(grid_first(r), c, mask)

    Yu, Yv = (to_planes(x, values=1) for x in (S.Yu, S.Yv))
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
    out["N_deriv"] = field_norms(grid_first(r), c, mask)

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
    out["normal"] = field_norms(grid_first(r), c, mask)
    return out


def _ricci(S: SurfaceData) -> np.ndarray:
    """The Ricci residual divided by i, a real antisymmetric (Nu, Nv, n, n)
    field.

    The residual b_zbar - conj(b_zbar) + b conj(b) - conj(b) b
    - 2 (k conj(k)^T - conj(k) k^T) is purely imaginary: with b = b_r + i b_i
    it is i times 2 Im(b_zbar) + 2 [b_i, b_r] - 4 Im(k conj(k)^T), and
    2 Im(b_zbar) = d_u b_i + d_v b_r.  Each entry above the diagonal is a
    few real passes (the commutator skips b's zero diagonal, so it
    vanishes for n <= 2, where so(n) is abelian); the diagonal is zero.
    """
    c, b, k, n = S.chart, S.b, S.kappa, S.n
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


def integrability_residuals(S: SurfaceData, W: np.ndarray) -> dict:
    """Residual norms of the conformal Gauss, Codazzi and Ricci equations.

    W is `willmore_residual(S)`, whose imaginary part is the Codazzi
    residual; callers that report W itself build it once for both.  The
    Ricci residual is purely imaginary and is normed as its imaginary
    part (`_ricci`).
    """
    c = S.chart
    k, beta, s = S.kappa, S.beta, S.schwarzian
    gamma = normal_derivative_components(S, k, zbar=False)     # D_z kappa

    gauss = 0.5 * d_zbar(s, c) \
        - 3 * np.sum(k * np.conj(beta), axis=-1) \
        - np.sum(gamma * np.conj(k), axis=-1)
    codazzi = np.imag(W)
    ricci = _ricci(S)

    mask = S.residual_mask()
    return residual_norms(
        {"gauss": gauss, "codazzi": codazzi, "ricci": ricci}, c, mask)
