"""Recovering Willmore data from a strongly conformally harmonic map.

Once the off-diagonal Maurer-Cartan block is in canonical shape, the
frame columns (e0, e0hat, e1, e2) carry everything: the candidate
surface [e0 - e0hat], the function h = a13 + a23 whose vanishing rules
the degenerate branch, the dual-surface field Y_mu, and, when the
four-column bundle contains a constant lightlike vector, the minimal
surface seen through stereographic projection from that vector.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import spinor
from .chart import Chart, d_u, d_v, d_z, d_zbar, sup_norm
from .gauss_frame import MCBlocks, maurer_cartan, s_willmore_rank
from .lorentz import det, inner, lorentz_inverse, pairings, \
    rejection, row_blocks, to_planes
from .surface import complement_basis, sphere_columns, sphere_fields

SQRT2 = np.sqrt(2.0)


@dataclass
class NormalizedFrame:
    """Frame with the B1 block in canonical row shape.

    The holomorphic coordinate is `blocks.sign`, set by `normalize`: -1
    for z, +1 when B1 was canonicalized in the conjugate coordinate and
    the blocks are the dzbar-coefficients.
    """
    F: np.ndarray          # (Nu, Nv, dim, dim), real
    blocks: MCBlocks       # in the coordinate blocks.sign

    chart = property(lambda self: self.blocks.chart)

    # the frame columns (e0, e0hat, e1, e2) of the four-column bundle
    e0 = property(lambda self: self.F[..., :, 0])
    e0hat = property(lambda self: self.F[..., :, 1])
    e1 = property(lambda self: self.F[..., :, 2])
    e2 = property(lambda self: self.F[..., :, 3])
    Y0 = property(lambda self: (self.e0 - self.e0hat) / SQRT2)
    N0 = property(lambda self: (self.e0 + self.e0hat) / SQRT2)

    @property
    def h(self) -> np.ndarray:
        """a13 + a23; its zero set is the branch locus of [e0 - e0hat]."""
        return self.blocks.a(1, 3) + self.blocks.a(2, 3)

    def d_hol(self, f: np.ndarray) -> np.ndarray:
        """Derivative in the blocks' holomorphic coordinate `blocks.sign`."""
        return (d_zbar if self.blocks.sign > 0 else d_z)(f, self.chart)

    def without_pair(self) -> NormalizedFrame:
        """This frame with its blocks' pair (P, Q) dropped: the frame, the
        chart and the coordinate stay, and no block can be read.  A stage
        that holds the only reference frees the pair by rebinding to it."""
        return replace(self, blocks=replace(self.blocks, P=None, Q=None))

    def speccond_residual(self, h: np.ndarray) -> float:
        """sup |h - i(a14 + a24)| for h = `self.h` = a13 + a23, forced to
        vanish by harmonicity; h is passed in, so a caller that reads it
        too builds it once."""
        return sup_norm(h - 1j * (self.blocks.a(1, 4) + self.blocks.a(2, 4)),
                        self.chart)


def _beta_k(B1: np.ndarray):
    """(beta, k) from canonical rows (sqrt2 beta, -sqrt2 beta, -k, -ik)."""
    return B1[..., 0, :] / SQRT2, -B1[..., 2, :]


def normalize(F: np.ndarray, M: MCBlocks, tol: float = 1e-6,
              sign: int | None = None) -> NormalizedFrame:
    """Gauge a frame F so that its B1 block takes the canonical row shape
    in the holomorphic coordinate `sign` (`spinor.canonicalize_B1`: -1
    for z, +1 for zbar, by default the first that succeeds).

    M must be maurer_cartan(F, c) in either coordinate, its chart c the
    frame's; B1 is read in z whatever M's `sign`.  The returned blocks
    carry the coordinate chosen as their `sign`.  When B1 already has
    the canonical shape, the frame is F and the blocks share M's P and
    Q: no array is copied.  Otherwise the SO+(1,3) gauge comes from the
    pointwise rank-1 factorization of the columns in the 2x2-matrix
    model plus a continuation sweep, so it is smooth wherever B1 is, and
    the frame and all blocks are recomputed in the new gauge.
    """
    c = M.chart
    A, Bhat, sign = spinor.canonicalize_B1(replace(M, sign=-1).B1, c,
                                           tol=tol, sign=sign)
    if A is not None:
        # the blocks are recomputed below, B1 with them; lowers the peak
        del M, Bhat
        F = F.copy()    # the gauge acts on the four-column bundle only
        F[..., :, :4] = F[..., :, :4] @ lorentz_inverse(A)
        del A
        M = maurer_cartan(F, c)
    if M.sign != sign:
        M = replace(M, sign=sign)
    return NormalizedFrame(F=F, blocks=M)


def _rejection_operator(F: np.ndarray) -> np.ndarray:
    """Grid mean of C^T C, C the `rejection` of Id from the first four
    columns of F, as one product of the stacked rejections.  C is filled
    one row block (`row_blocks`) at a time, so the rejection's
    temporaries are block-sized; the product stays one, since a sum of
    per-block products would add in another order."""
    dim = F.shape[-1]
    C = np.empty(F.shape)
    for rows in row_blocks(F.shape[:-2]):
        C[rows] = rejection(F[rows][..., :, :4], np.eye(dim))
    C = C.reshape(-1, dim)
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


def to_sphere_map(Y: np.ndarray) -> np.ndarray:
    """The sphere map of a lightlike field Y (Nu, Nv, n+4) as its lift
    (1, y) (Nu, Nv, n+4): Y scaled to first coordinate 1, the rest
    normalized to a unit vector y in R^{n+3}."""
    x0 = Y[..., 0]
    if np.min(np.abs(x0)) < 1e-12 * np.max(np.abs(Y)):
        raise ValueError("representative has a vanishing first coordinate")
    vals = Y[..., 1:] / x0[..., None]
    nrm = np.sqrt(np.sum(vals**2, axis=-1))
    one = np.ones(vals.shape[:-1] + (1,))
    return np.concatenate([one, vals / nrm[..., None]], axis=-1)


def sphere_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Largest Euclidean distance between the points y of two sphere
    maps, given as their lifts (1, y) (`to_sphere_map`)."""
    return float(np.max(np.sqrt(np.sum((a[..., 1:] - b[..., 1:]) ** 2,
                                       axis=-1))))


def dual_mu(NF: NormalizedFrame) -> np.ndarray:
    """The Moebius-coordinate field mu of the dual construction.

    beta_j = -(conj(mu)/2) k_j on the canonical rows, so conj(mu) is the
    ratio -2 <k, beta> / |k|^2 of B1's entries, in which a common factor
    of beta and k cancels, also where B1 is near zero.  mu is 0 where
    beta vanishes and k does not, and not finite where k alone vanishes.
    Where B1 vanishes exactly (0/0), mu is the mean of the finite mu of
    the 4-neighbours, periodic axes wrapping; ValueError if none is.
    """
    eps_rel = 1e-6
    beta, k = _beta_k(NF.blocks.B1)
    k2 = np.sum(np.abs(k)**2, axis=-1)
    b2 = np.sum(np.abs(beta)**2, axis=-1)
    small = eps_rel**2 * (np.max(k2 + b2) + 1e-300)
    with np.errstate(divide="ignore", invalid="ignore"):
        mubar = -2.0 * np.sum(np.conj(k) * beta, axis=-1) / k2
    mu = np.where((b2 <= small) & (k2 > small), 0.0, np.conj(mubar))
    void = (b2 == 0) & (k2 == 0)
    if np.any(void):
        mu[void] = _neighbour_mean(mu, void, NF.chart)
    return mu


def _neighbour_mean(f: np.ndarray, at: np.ndarray, c: Chart) -> np.ndarray:
    """Mean of the finite values of f over the 4-neighbours of each point
    of the mask `at`, periodic axes wrapping; ValueError at a point with
    no finite neighbour."""
    g = f       # f with one line of wrapped (periodic) or NaN (open) cells
    for axis, periodic in ((0, c.periodic_u), (1, c.periodic_v)):
        pad = [(1, 1) if a == axis else (0, 0) for a in (0, 1)]
        g = np.pad(g, pad, mode="wrap") if periodic \
            else np.pad(g, pad, constant_values=np.nan)
    i, j = np.nonzero(at)
    nb = np.stack([g[i + 2, j + 1], g[i, j + 1], g[i + 1, j + 2], g[i + 1, j]])
    ok = np.isfinite(nb)
    count = np.sum(ok, axis=0)
    if np.min(count) == 0:
        n = np.argmin(count)
        raise ValueError(f"dual mu: B1 vanishes at grid point ({i[n]}, "
                         f"{j[n]}) and no neighbour has a finite mu")
    return np.sum(np.where(ok, nb, 0.0), axis=0) / count


def build_Y_mu(NF: NormalizedFrame, mu: np.ndarray):
    """The field Y_mu = N0 + mu1 e1 - mu2 e2 + (|mu|^2/2) Y0, mu the field
    `dual_mu(NF)`, lightlike by construction, and its holomorphic
    derivative: (Y_mu, Y_mu').  It reads no block, so NF may be
    `without_pair`."""
    Ymu = NF.N0 + mu.real[..., None] * NF.e1 - mu.imag[..., None] * NF.e2 \
        + 0.5 * (np.abs(mu)**2)[..., None] * NF.Y0
    return Ymu, NF.d_hol(Ymu)


def dual_surface(NF: NormalizedFrame, mu: np.ndarray, max_rank: int) -> dict:
    """Dual-surface representative for a rank-1 (duality) frame.

    The sphere map ("map") of build_Y_mu's Y_mu, and the sup over the
    interior of the rejection of Y_mu' from the four-column bundle
    ("duality_residual"), which the duality condition forces to vanish.
    mu is `dual_mu(NF)` and `max_rank` the maximal rank of NF.blocks.B1
    that `classify` reports.  The dual reads no block, so NF may be
    `without_pair` (cmd_reconstruct drops the pair once mu is read);
    the rejection runs one row block (`row_blocks`) at a time, so of it
    only the per-point max of its norms is grid-sized.
    """
    if max_rank > 1:
        raise ValueError("dual surface needs max rank 1, got rank "
                         f"{max_rank}")
    Ymu, Yd = build_Y_mu(NF, mu)
    c = NF.chart
    norm = np.empty(c.shape)
    for rows in row_blocks(c.shape):
        # the real and imaginary parts of Yd as two columns
        rej = rejection(NF.F[rows][..., :, :4],
                        np.stack([Yd[rows].real, Yd[rows].imag], axis=-1))
        norm[rows] = np.max(np.hypot(rej[..., 0], rej[..., 1]), axis=-1)
    return {"duality_residual": sup_norm(norm, c), "map": to_sphere_map(Ymu)}


def stereographic(Ymu: np.ndarray, Y0c: np.ndarray, c: Chart) -> dict:
    """Minimality diagnostics of the affine coordinates x of [Y_mu] in
    the chart complementary to the constant lightlike vector Y0c.

    The representative is scaled to <rep, Y0c> = -1; the coordinates are
    Minkowski pairings with an orthonormal basis of {Y0c, Z}^perp, where
    Z is the time-reflected null partner of Y0c, from the orthonormal pair
    (L + Z)/sqrt2, (L - Z)/sqrt2, L = Y0c/Y0c_0.  For the degenerate
    harmonic branch x is conformal with harmonic components:
    "conformal_residual" and "harmonic_residual" measure both.
    """
    L = Y0c / Y0c[..., 0]                   # first coordinate 1
    Z = np.concatenate([[L[0]], -L[1:]])
    Z = Z / 2.0                              # <L, Z> = -1, null
    den = -inner(Ymu, L)
    if np.min(np.abs(den)) < 1e-12 * np.max(np.abs(Ymu)):
        raise ValueError("representative meets the projection center")
    rep = Ymu / den[..., None]

    pair = np.stack([L + Z, L - Z]) / SQRT2     # <., .> = diag(-1, 1)
    x = inner(rep[..., None, :], complement_basis(pair))

    xu = d_u(x, c)
    xv = d_v(x, c)
    Ecoef = np.sum(xu * xu, axis=-1)
    Gcoef = np.sum(xv * xv, axis=-1)
    Fcoef = np.sum(xu * xv, axis=-1)
    lap = d_u(xu, c) + d_v(xv, c)
    scale = float(np.max(Ecoef + Gcoef)) + 1e-300
    conformal = max(sup_norm(Ecoef - Gcoef, c), sup_norm(Fcoef, c))
    return {"conformal_residual": float(conformal / scale),
            "harmonic_residual": sup_norm(lap, c) / np.sqrt(scale)}


@dataclass
class Classification:
    case: str              # a1 | a2 | b1 | b2i | b2ii | ambiguous
    max_rank: int
    h_sup: float
    constant_vector: np.ndarray | None
    verdict: str
    speccond_residual: float
    Ymu: np.ndarray | None = None   # Y_mu of the conjugate renormalization
    # the frame the surface [e0 - e0hat] is read off (a1, a2)
    frame: NormalizedFrame | None = None

    @property
    def has_willmore_surface(self) -> bool:
        return self.case in ("a1", "a2", "b2i")


def _max_abs_A1(M: MCBlocks) -> float:
    """max |A1| over the grid, one row block (`row_blocks`) at a time: A1
    of the pair's rows is those rows of A1, so no grid-sized block is
    built; the max of the blocks' maxima is the grid's, NaN included."""
    return float(np.max([np.max(np.abs(replace(M, P=M.P[rows],
                                               Q=M.Q[rows]).A1))
                         for rows in row_blocks(M.P.shape[:-2])]))


def classify(NF: NormalizedFrame) -> Classification:
    """Case analysis of a normalized strongly conformally harmonic frame.

    Non-degenerate branch (no constant lightlike vector in the bundle):
    the surface is [e0 - e0hat]; rank 1 means it has a dual.  Degenerate
    branch: rank 2 admits no surface at all; rank 1 leads, through the
    renormalization in the conjugate coordinate, either to a minimal
    surface in flat space (positive mixed pairing <Y_mu', conj Y_mu'>)
    or to a further reduction.  The Y_mu of that renormalization is kept as
    `Ymu`, the field the minimal surface is read off.

    Lifetimes: NF's B1 is built one row block at a time for the rank
    (`s_willmore_rank`), h = a13 + a23 lives for h_sup and the speccond
    residual, and A1 one row block at a time for the scale of h.  Cases
    a1 and a2 return NF as `frame`.  The degenerate rank-1 branch hands
    NF's frame and pair to `normalize` and keeps no reference to them,
    so when the caller handed NF over (as cmd_reconstruct does) they are
    freed before the gauged frame's pair is built; the renormalized
    frame's pair lives until its B1 has given mu, and Y_mu and its
    derivative are built without it.
    """
    c = NF.chart
    tol = 1e-6
    _, maxrank = s_willmore_rank(NF.blocks, tol=max(tol, 50 * c.h**2))
    L = constant_lightlike_vector(NF.F)
    h = NF.h
    h_sup = float(np.max(np.abs(h)))
    speccond = NF.speccond_residual(h)
    del h

    if L is None:
        if h_sup < tol * (_max_abs_A1(NF.blocks) + c.h):
            # no constant vector yet h vanishes identically: borderline
            return Classification("ambiguous", maxrank, h_sup, None,
                                  "borderline data: h vanishes but no "
                                  "constant lightlike vector found",
                                  speccond)
        case = "a1" if maxrank >= 2 else "a2"
        verdict = "willmore surface [e0 - e0hat]" + \
            ("" if maxrank >= 2 else " (has a dual)")
        return Classification(case, maxrank, h_sup, None, verdict, speccond,
                              frame=NF)

    if maxrank >= 2:
        return Classification(
            "b1", maxrank, h_sup, L,
            "no Willmore surface: degenerate with rank 2, not the "
            "conformal Gauss map of any surface", speccond)

    # degenerate rank-1: renormalize so the constant vector is [e0-e0hat];
    # the frame and the pair reach normalize through a list emptied as
    # they are passed, so no reference to them stays here
    frame_and_pair = [NF.F, NF.blocks]
    del NF
    NFc = normalize(frame_and_pair.pop(0), frame_and_pair.pop(), sign=1)
    mu = dual_mu(NFc)
    NFc = NFc.without_pair()
    Ymu, Yd = build_Y_mu(NFc, mu)
    del NFc
    mixed = np.real(inner(Yd, np.conj(Yd)))
    pos_frac = float(np.mean(mixed[c.interior] > tol * np.max(np.abs(mixed))))

    if pos_frac > 0.5:
        return Classification(
            "b2i", maxrank, h_sup, L,
            "minimal surface in flat space via stereographic projection",
            speccond, Ymu)
    return Classification(
        "b2ii", maxrank, h_sup, L,
        "no Willmore surface: reduced degenerate harmonic map, not a "
        "conformal Gauss map", speccond, Ymu)


def verify_gauss_match(y: np.ndarray, NF: NormalizedFrame) -> dict:
    """Orientation of the four-column bundle of NF against the
    central-sphere bundle rebuilt from the candidate surface y, a sphere
    map as its lift (1, y) (`to_sphere_map`).

    Returns "orientation" ("same" or "opposite"), the majority sign of
    the determinant of the change of basis over the interior, and
    "orientation_votes", the mean of those signs.  Raises
    np.linalg.LinAlgError where a determinant is zero or not finite, so
    a degenerate or NaN point casts no vote.
    """
    c = NF.chart
    phi = np.stack(sphere_columns(*sphere_fields(y, c)), axis=-2)

    # sign of det(eps <phi_i, f_k>) per row block, phi the sphere columns
    # (.., 4, dim) of y, f the frame columns, eps = diag(-1, 1, 1, 1): for
    # E = T phi orthonormalized, T triangular with det T > 0, it is the
    # sign of det(eps <E_i, f_k>) = det(eps T eps) det(eps <phi_i, f_k>)
    sgn = np.empty(c.shape)
    for rows in row_blocks(c.shape):
        C = pairings(to_planes(phi[rows]),
                     np.swapaxes(to_planes(NF.F[rows][..., :, :4]), 0, 1))
        C[0] *= -1.0        # eps_0
        d = det(C)
        if not np.all(np.isfinite(d) & (d != 0)):
            raise np.linalg.LinAlgError(
                "the change of basis to the frame is singular or not "
                "finite")
        sgn[rows] = np.sign(d)
    votes = np.mean(sgn[c.interior])
    return {"orientation": "same" if votes > 0 else "opposite",
            "orientation_votes": float(votes)}
