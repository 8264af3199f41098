"""Shared builders for synthetic fields used across the test modules."""

import numpy as np

from willmorelab.chart import Chart
from willmorelab.lorentz import metric

import oracles


def expm_field(A):
    """Matrix exponential of a (..., d, d) field by scaling and squaring."""
    A = np.asarray(A, dtype=float)
    nrm = np.max(np.sum(np.abs(A), axis=-1))
    s = max(0, int(np.ceil(np.log2(max(nrm, 1e-300)))) + 1)
    X = A / 2**s
    E = np.zeros_like(A) + np.eye(A.shape[-1])
    term = np.zeros_like(E) + np.eye(A.shape[-1])
    for k in range(1, 18):
        term = term @ X / k
        E = E + term
    for _ in range(s):
        E = E @ E
    return E


def so13_basis():
    """The six standard generators of so(1,3): 3 boosts then 3 rotations."""
    gens = []
    for i in (1, 2, 3):                      # boosts e0 <-> ei
        B = np.zeros((4, 4))
        B[0, i] = B[i, 0] = 1.0
        gens.append(B)
    for (i, j) in ((1, 2), (1, 3), (2, 3)):  # rotations
        R = np.zeros((4, 4))
        R[i, j], R[j, i] = -1.0, 1.0
        gens.append(R)
    return gens


def smooth_scalar_field(c: Chart, rng, amp=1.0, modes=2):
    """Random bandlimited real field on the chart."""
    U, V = c.grid()
    su = 2 * np.pi / (c.u_max - c.u_min)
    sv = 2 * np.pi / (c.v_max - c.v_min)
    f = np.zeros_like(U)
    for _ in range(modes):
        a, b = rng.integers(-2, 3, size=2)
        ph = rng.uniform(0, 2 * np.pi)
        f += rng.normal() * np.sin(a * su * U + b * sv * V + ph)
    return amp * f / modes


def random_so13_gauge(c: Chart, rng, amp=0.4):
    """Smooth SO+(1,3)-valued field, exp of a random algebra field."""
    gens = so13_basis()
    C = np.zeros(c.shape + (4, 4))
    for X in gens:
        C += smooth_scalar_field(c, rng, amp)[..., None, None] * X
    return expm_field(C)


def canonical_B1_field(c: Chart, rng, n=2, rank=2):
    """Smooth B1 field already in the canonical row shape.

    Columns are combinations of the two null basis directions
    (sqrt2, -sqrt2, 0, 0) and (0, 0, -1, -i); rank 1 makes all columns
    proportional to a single (beta, k) profile.
    """
    r2 = np.sqrt(2.0)

    def cplx(off):
        re = smooth_scalar_field(c, rng, 1.0) + off
        im = smooth_scalar_field(c, rng, 1.0)
        return re + 1j * im

    if rank == 1:
        beta0, k0 = cplx(0.3), cplx(1.0)
        coef = [1.0 + 0.2 * j + 0.1j * j for j in range(n)]
        beta = np.stack([cj * beta0 for cj in coef], axis=-1)
        k = np.stack([cj * k0 for cj in coef], axis=-1)
    else:
        assert n >= 2
        beta = np.stack([cplx(0.3 * (j + 1)) for j in range(n)], axis=-1)
        k = np.stack([cplx(1.0 + 0.5 * j) for j in range(n)], axis=-1)
    return np.stack([r2 * beta, -r2 * beta, -k, -1j * k], axis=-2)


def null_stab_generator(v, dim):
    """Generator x -> v <L0, x> - L0 <v, x> of the parabolic fixing
    L0 = e0 + e1; v should be Minkowski-orthogonal to L0."""
    I = metric(dim)
    L0 = np.zeros(dim)
    L0[0] = L0[1] = 1.0
    return np.outer(v, I @ L0) - np.outer(L0, I @ v)


def rotation_generator(i, j, dim):
    R = np.zeros((dim, dim))
    R[i, j], R[j, i] = -1.0, 1.0
    return R


def rank2_degenerate_frame(c: Chart, amp=0.5):
    """SO+(1,5) frame field whose four-column bundle contains the
    constant null vector e0 + e1 while the B1 block has rank 2.

    Built from generators of the stabilizer of [e0 + e1], so the
    degeneracy is exact; no strong-conformality is claimed (rank-2
    degenerate data admits no surface regardless).  The profile fields
    are fixed so the two B1 directions stay comparably strong.
    """
    dim = 6
    e4 = np.zeros(dim)
    e4[4] = 1.0
    e5 = np.zeros(dim)
    e5[5] = 1.0
    gens = [null_stab_generator(e4, dim), null_stab_generator(e5, dim),
            rotation_generator(2, 4, dim), rotation_generator(3, 5, dim)]
    U, V = c.grid()
    su = 2 * np.pi / (c.u_max - c.u_min)
    sv = 2 * np.pi / (c.v_max - c.v_min)
    profiles = [np.sin(su * U), np.cos(sv * V),
                np.sin(su * U + sv * V), np.cos(su * U - sv * V)]
    C = np.zeros(c.shape + (dim, dim))
    for X, f in zip(gens, profiles):
        C += (amp * f)[..., None, None] * X
    return expm_field(C)


def hexagonal_torus_patch(N=48):
    """Raw lift of the flat hexagonal torus in S^5 (n = 3), minimal and
    so Willmore, on an open sub-chart of its period rectangle
    [0, 4pi] x [0, 4pi/sqrt3]."""
    c = Chart(0.0, 2.0, 0.0, 2.0, N, N, "open")
    U, V = c.grid()
    r3 = np.sqrt(3.0)
    angles = (U, -U / 2 + r3 * V / 2, -U / 2 - r3 * V / 2)
    y = np.stack([f(a) for a in angles for f in (np.cos, np.sin)],
                 axis=-1) / r3
    return np.concatenate([np.ones(c.shape + (1,)), y], axis=-1), c


def reduced_frame_field(c: Chart):
    """SO+(1,4) frame field that never moves e0, e1: the degenerate
    harmonic maps reduced to the rotation subgroup.

    The rotating 3x3 block is the adapted frame of a holomorphic map to
    the 2-sphere, so the single B1 column is (analytically) null.
    """
    Z = c.zgrid()
    g = 0.8 * Z + 0.15 * Z**2
    gz = 0.8 + 0.3 * Z
    R3 = oracles.holomorphic_sphere_frame(g, gz)
    F = np.zeros(c.shape + (5, 5))
    F[..., 0, 0] = F[..., 1, 1] = 1.0
    F[..., 2:, 2:] = R3
    return F


def neighbor_jump(A):
    """Largest entrywise jump between grid neighbours of a matrix field."""
    du = np.abs(A[1:, :] - A[:-1, :]).max()
    dv = np.abs(A[:, 1:] - A[:, :-1]).max()
    return float(max(du, dv))
