"""Recovering Willmore data from a strongly conformally harmonic map.

Once the off-diagonal Maurer-Cartan block is in canonical shape, the
frame columns (e0, e0hat, e1, e2) carry everything: the candidate
surface [e0 - e0hat], the function h = a13 + a23 whose vanishing rules
the degenerate branch, the dual-surface field Y_mu, and, when the
four-column bundle contains a constant lightlike vector, the minimal
surface seen through stereographic projection from that vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spinor
from .chart import (Chart, DEFAULT_MARGIN, d_u, d_v, d_z, d_zbar,
                    sup_norm)
from .gauss_frame import FrameField, MCBlocks, maurer_cartan, \
    s_willmore_rank
from .lorentz import gram, inner, lorentz_inverse, metric
from .surface import canonical_lift, complement_basis, frame_N, \
    sphere_columns

SQRT2 = np.sqrt(2.0)


@dataclass
class NormalizedFrame:
    """Frame with the B1 block in canonical row shape.

    `orientation` records the holomorphic coordinate of the blocks:
    "same" means d_z, "conjugate" means the blocks were canonicalized in
    the conjugate coordinate and all dz-coefficients are stored with
    respect to d_zbar.
    """
    F: np.ndarray          # (Nu, Nv, dim, dim), real
    blocks: MCBlocks       # w.r.t. the orientation's holomorphic coordinate
    orientation: str
    chart: Chart
    shape_residual: float = 0.0
    null_residual: float = 0.0

    # the frame columns (e0, e0hat, e1, e2) of the four-column bundle
    e0 = property(lambda self: self.F[..., :, 0])
    e0hat = property(lambda self: self.F[..., :, 1])
    e1 = property(lambda self: self.F[..., :, 2])
    e2 = property(lambda self: self.F[..., :, 3])

    @property
    def Y0(self) -> np.ndarray:
        return (self.e0 - self.e0hat) / SQRT2

    @property
    def N0(self) -> np.ndarray:
        return (self.e0 + self.e0hat) / SQRT2

    @property
    def h(self) -> np.ndarray:
        """a13 + a23; its zero set is the branch locus of [e0 - e0hat]."""
        return self.blocks.a(1, 3) + self.blocks.a(2, 3)

    def d_hol(self, f: np.ndarray) -> np.ndarray:
        """Derivative in the orientation's holomorphic coordinate."""
        if self.orientation == "conjugate":
            return d_zbar(f, self.chart)
        return d_z(f, self.chart)

    def speccond_residual(self) -> float:
        """sup |a13 + a23 - i(a14 + a24)|, forced by harmonicity."""
        r = self.blocks.a(1, 3) + self.blocks.a(2, 3) \
            - 1j * (self.blocks.a(1, 4) + self.blocks.a(2, 4))
        return sup_norm(r, self.chart.interior_mask(DEFAULT_MARGIN))


def _beta_k(B1: np.ndarray):
    """(beta, k) from canonical rows (sqrt2 beta, -sqrt2 beta, -k, -ik)."""
    return B1[..., 0, :] / SQRT2, -B1[..., 2, :]


def normalize(Ff: FrameField, M: MCBlocks | None = None,
              tol: float = 1e-6,
              orientation: str | None = None) -> NormalizedFrame:
    """Gauge a frame so that its B1 block takes the canonical row shape.

    M, if given, must be maurer_cartan(Ff).  When B1 already has the
    canonical shape, the frame is Ff.F and the blocks are M (conjugated
    for orientation "conjugate"): the arrays are shared, not copied.
    Otherwise the SO+(1,3) gauge comes from the pointwise rank-1
    factorization of the columns in the 2x2-matrix model plus a
    continuation sweep, so it is smooth wherever B1 is, and the frame and
    all blocks are recomputed in the new gauge.
    """
    c = Ff.chart
    if M is None:
        M = maurer_cartan(Ff)
    A, _, orient = spinor.canonicalize_B1(M.B1, c, tol=tol,
                                          orientation=orientation)
    F = Ff.F
    if A is not None:
        del M           # the blocks are recomputed below; lowers the peak
        F = F.copy()    # the gauge acts on the four-column bundle only
        F[..., :, :4] = F[..., :, :4] @ lorentz_inverse(A)
        M = maurer_cartan(FrameField(F=F, chart=c,
                                     group_residual=Ff.group_residual))
    if orient == "conjugate":
        M = M.conjugate()
    return NormalizedFrame(
        F=F, blocks=M, orientation=orient, chart=c,
        shape_residual=spinor.canonical_shape_residual(M.B1),
        null_residual=float(np.max(np.abs(gram(M.B1)))))


def _bundle_projector(F: np.ndarray) -> np.ndarray:
    """P = sum_k eps_k f_k f_k^T I, the Minkowski-orthogonal projection
    onto the span of the first four columns f_k of F.

    eps = diag(-1, 1, 1, 1) is the Gram inverse of the orthonormal
    columns and I the ambient metric; both are diagonal, so they act as
    sign flips.  For a group-valued F the general Gram solve of
    `surface._complement_solver` gives the same P, but its batched 4x4
    solve costs about 0.08 s more per call at N=256 (measured on a
    2-CPU Xeon with one BLAS thread), on each constant-vector search and
    duality check.
    """
    F4 = F[..., :, :4]
    return ((F4 * np.array([-1.0, 1.0, 1.0, 1.0])) @ np.swapaxes(F4, -1, -2)) \
        * np.diag(metric(F.shape[-1]))


def _rejection_operator(F: np.ndarray) -> np.ndarray:
    """Grid mean of C^T C, C = Id - P the rejection from the bundle
    (P = `_bundle_projector(F)`), as one product of the stacked
    rejections."""
    dim = F.shape[-1]
    C = (np.eye(dim) - _bundle_projector(F)).reshape(-1, dim)
    return (C.T @ C) / (F.shape[0] * F.shape[1])


def constant_lightlike_vector(F: np.ndarray):
    """Search the bundle spanned by the first four columns of F for a
    constant lightlike vector.

    A constant vector of the bundle is a (near-)kernel vector of the
    grid-averaged squared rejection operator; eigenvalues below 1e-2
    times the largest one count as kernel.  A sphere-minimal surface
    contributes a constant *timelike* vector, so within a kernel of
    dimension up to two the lightlike direction is solved for exactly.
    Returns L, a unit Euclidean vector on the forward null cone, or None
    if the kernel holds no null vector within 5e-2.
    """
    w, V = np.linalg.eigh(_rejection_operator(F))
    kdim = int(np.sum(w < 1e-2 * w[-1]))

    candidates = []
    if kdim >= 1:
        candidates.append(V[:, 0])
    if kdim >= 2:
        # null directions inside span{v1, v2}: a quadratic in the mix angle
        v1, v2 = V[:, 0], V[:, 1]
        q11, q12, q22 = inner(v1, v1), inner(v1, v2), inner(v2, v2)
        disc = q12**2 - q11 * q22
        if disc >= 0:
            if abs(q11) > 1e-12:
                for t in ((-q12 + np.sqrt(disc)) / q11,
                          (-q12 - np.sqrt(disc)) / q11):
                    v = t * v1 + v2
                    candidates.append(v / np.linalg.norm(v))
            else:
                candidates.append(v1)

    # the candidate closest to the cone (each has unit Euclidean norm)
    best = min(candidates, key=lambda v: abs(inner(v, v)), default=None)
    if best is not None and abs(inner(best, best)) < 5e-2:
        if best[0] < 0:
            best = -best
        # snap onto the forward null cone (removes the off-cone component
        # of the estimation error)
        ls = best[1:]
        t = 0.5 * (best[0] + np.linalg.norm(ls))
        best = t * np.concatenate([[1.0], ls / np.linalg.norm(ls)])
        return best / np.linalg.norm(best)
    return None


@dataclass
class SphereMap:
    """Grid of unit vectors in R^{n+3}, representatives of projective
    light-cone points with the first coordinate scaled to 1."""
    values: np.ndarray     # (Nu, Nv, n+3)
    chart: Chart

    def distance(self, other: "SphereMap") -> float:
        return float(np.max(np.sqrt(np.sum(
            (self.values - other.values) ** 2, axis=-1))))

    def lift(self) -> np.ndarray:
        one = np.ones(self.values.shape[:-1] + (1,))
        return np.concatenate([one, self.values], axis=-1)


def to_sphere_map(Y: np.ndarray, c: Chart) -> SphereMap:
    """Scale a lightlike field to first coordinate 1; the rest is a unit
    vector in R^{n+3}."""
    x0 = Y[..., 0]
    if np.min(np.abs(x0)) < 1e-12 * np.max(np.abs(Y)):
        raise ValueError("representative has a vanishing first coordinate")
    vals = Y[..., 1:] / x0[..., None]
    nrm = np.sqrt(np.sum(vals**2, axis=-1))
    return SphereMap(values=vals / nrm[..., None], chart=c)


def dual_mu(NF: NormalizedFrame) -> np.ndarray:
    """The Moebius-coordinate field mu of the dual construction.

    Solves beta_j = -(conj(mu)/2) k_j in the modulus-weighted least-squares
    sense per point; at isolated common zeros of the canonical block the
    shared monomial factor is divided out first.  mu is 0 where beta
    vanishes and not finite where k does.
    """
    eps_rel = 1e-6
    B1 = NF.blocks.B1
    if np.min(np.sqrt(np.sum(np.abs(B1)**2, axis=(-2, -1)))) \
            <= eps_rel * np.max(np.abs(B1)):
        _, B1 = spinor.common_factor(B1, NF.chart, eps_rel)
    beta, k = _beta_k(B1)
    k2 = np.sum(np.abs(k)**2, axis=-1)
    b2 = np.sum(np.abs(beta)**2, axis=-1)
    scale2 = np.max(k2 + b2) + 1e-300
    zero = b2 <= eps_rel**2 * scale2          # beta = 0, mu = 0

    with np.errstate(divide="ignore", invalid="ignore"):
        mubar = -2.0 * np.sum(np.conj(k) * beta, axis=-1) / k2
    return np.where(zero, 0.0, np.conj(mubar))


def build_Y_mu(NF: NormalizedFrame, mu: np.ndarray):
    """The field Y_mu = N0 + mu1 e1 - mu2 e2 + (|mu|^2/2) Y0, lightlike
    by construction, and its holomorphic derivative: (Y_mu, Y_mu')."""
    mu1 = np.real(mu)
    mu2 = np.imag(mu)
    Ymu = NF.N0 + mu1[..., None] * NF.e1 - mu2[..., None] * NF.e2 \
        + 0.5 * (np.abs(mu)**2)[..., None] * NF.Y0
    return Ymu, NF.d_hol(Ymu)


def dual_surface(NF: NormalizedFrame, mu: np.ndarray, max_rank: int) -> dict:
    """Dual-surface representative for a rank-1 (duality) frame.

    The sphere map ("map") of build_Y_mu's Y_mu, and the sup over the
    interior of the rejection of Y_mu' from the four-column bundle
    ("duality_residual"), which the duality condition forces to vanish.
    `max_rank` is the maximal rank of NF.blocks.B1 that `classify`
    reports.
    """
    if max_rank > 1:
        raise ValueError("dual surface needs max rank 1, got rank "
                         f"{max_rank}")
    Ymu, Yd = build_Y_mu(NF, mu)
    rej = Yd - np.einsum("...ij,...j->...i", _bundle_projector(NF.F), Yd)
    c = NF.chart
    return {"duality_residual": sup_norm(rej,
                                         c.interior_mask(DEFAULT_MARGIN)),
            "map": to_sphere_map(Ymu, c)}


def stereographic(Ymu: np.ndarray, Y0c: np.ndarray, c: Chart) -> dict:
    """Affine coordinates of [Y_mu] in the chart complementary to the
    constant lightlike vector Y0c, with minimality diagnostics.

    The representative is scaled to <rep, Y0c> = -1; the coordinates are
    Minkowski pairings with an orthonormal basis of {Y0c, Z}^perp, where
    Z is the time-reflected null partner of Y0c.  For the degenerate
    harmonic branch the result is conformal with harmonic components.
    """
    L = Y0c / Y0c[..., 0]                   # first coordinate 1
    Z = np.concatenate([[L[0]], -L[1:]])
    Z = Z / 2.0                              # <L, Z> = -1, null
    den = -inner(Ymu, L)
    if np.min(np.abs(den)) < 1e-12 * np.max(np.abs(Ymu)):
        raise ValueError("representative meets the projection center")
    rep = Ymu / den[..., None]

    x = inner(rep[..., None, :], complement_basis(np.stack([L, Z])))

    xu = d_u(x, c)
    xv = d_v(x, c)
    Ecoef = np.sum(xu * xu, axis=-1)
    Gcoef = np.sum(xv * xv, axis=-1)
    Fcoef = np.sum(xu * xv, axis=-1)
    lap = d_u(xu, c) + d_v(xv, c)
    mask = c.interior_mask(DEFAULT_MARGIN)
    scale = float(np.max(Ecoef + Gcoef)) + 1e-300
    return {"x": x,
            "conformal_residual": float(max(
                sup_norm(Ecoef - Gcoef, mask), sup_norm(Fcoef, mask))
                / scale),
            "harmonic_residual": sup_norm(lap, mask) / np.sqrt(scale)}


@dataclass
class Classification:
    case: str              # a1 | a2 | b1 | b2i | b2ii | ambiguous
    max_rank: int
    h_sup: float
    constant_vector: np.ndarray | None
    verdict: str
    speccond_residual: float
    Ymu: np.ndarray | None = None   # Y_mu of the conjugate renormalization

    @property
    def has_willmore_surface(self) -> bool:
        return self.case in ("a1", "a2", "b2i")


def classify(NF: NormalizedFrame) -> Classification:
    """Case analysis of a normalized strongly conformally harmonic frame.

    Non-degenerate branch (no constant lightlike vector in the bundle):
    the surface is [e0 - e0hat]; rank 1 means it has a dual.  Degenerate
    branch: rank 2 admits no surface at all; rank 1 leads, through the
    conjugate-orientation renormalization, either to a minimal surface
    in flat space (positive mixed pairing <Y_mu', conj Y_mu'>) or to a
    further reduction.  The Y_mu of that renormalization is kept as
    `Ymu`, the field the minimal surface is read off.
    """
    c = NF.chart
    tol = 1e-6
    mask = c.interior_mask(DEFAULT_MARGIN)
    _, maxrank = s_willmore_rank(NF.blocks.B1, tol=max(tol, 50 * c.h**2),
                                 mask=mask)
    L = constant_lightlike_vector(NF.F)
    h_sup = float(np.max(np.abs(NF.h)))
    speccond = NF.speccond_residual()

    if L is None:
        if h_sup < tol * (float(np.max(np.abs(NF.blocks.A1))) + c.h):
            # no constant vector yet h vanishes identically: borderline
            return Classification("ambiguous", maxrank, h_sup, None,
                                  "borderline data: h vanishes but no "
                                  "constant lightlike vector found",
                                  speccond)
        case = "a1" if maxrank >= 2 else "a2"
        verdict = "willmore surface [e0 - e0hat]" + \
            ("" if maxrank >= 2 else " (has a dual)")
        return Classification(case, maxrank, h_sup, None, verdict, speccond)

    if maxrank >= 2:
        return Classification(
            "b1", maxrank, h_sup, L,
            "no Willmore surface: degenerate with rank 2, not the "
            "conformal Gauss map of any surface", speccond)

    # degenerate rank-1: renormalize so the constant vector is [e0-e0hat];
    # NF.blocks are maurer_cartan(NF.F), conjugated with the orientation
    M0 = NF.blocks.conjugate() if NF.orientation == "conjugate" \
        else NF.blocks
    NFc = normalize(FrameField(F=NF.F, chart=c), M0,
                    orientation="conjugate")
    Ymu, Yd = build_Y_mu(NFc, dual_mu(NFc))
    mixed = np.real(inner(Yd, np.conj(Yd)))
    pos_frac = float(np.mean(mixed[mask] > tol * np.max(np.abs(mixed))))

    if pos_frac > 0.5:
        return Classification(
            "b2i", maxrank, h_sup, L,
            "minimal surface in flat space via stereographic projection",
            speccond, Ymu)
    return Classification(
        "b2ii", maxrank, h_sup, L,
        "no Willmore surface: reduced degenerate harmonic map, not a "
        "conformal Gauss map", speccond, Ymu)


def verify_gauss_match(y: SphereMap, NF: NormalizedFrame) -> dict:
    """Orientation of the four-column bundle of NF against the
    central-sphere bundle rebuilt from the candidate surface y.

    Returns "orientation" ("same" or "opposite"), the majority sign of
    the determinant of the change of basis over the interior, and
    "orientation_votes", the mean of those signs.
    """
    c = NF.chart
    Y = canonical_lift(y.lift(), c)
    phi = np.stack(sphere_columns(Y, frame_N(Y, c), d_u(Y, c), d_v(Y, c)),
                   axis=-2)                              # (.., 4, dim)
    f = np.stack([NF.e0, NF.e0hat, NF.e1, NF.e2], axis=-2)

    # change of basis in the Minkowski metric and its orientation; the
    # diagonal metric only flips the sign of coordinate 0
    phis = phi * np.diag(metric(phi.shape[-1]))
    G = phis @ np.swapaxes(phi, -1, -2)
    M = phis @ np.swapaxes(f, -1, -2)
    Cmat = np.linalg.solve(G, M)
    sgn = np.sign(np.linalg.det(Cmat))
    votes = np.mean(sgn[c.interior_mask(DEFAULT_MARGIN)])
    return {"orientation": "same" if votes > 0 else "opposite",
            "orientation_votes": float(votes)}
