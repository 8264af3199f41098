"""Shared builders for synthetic fields used across the test modules."""

from dataclasses import replace

import numpy as np

from willmorelab import harmonic, lorentz
from willmorelab.chart import Chart
from willmorelab.gauss_frame import MCBlocks
from willmorelab.lorentz import orthonormalize, rejection

import oracles
from oracles import metric


def same_bits(x, y):
    """Equal arrays down to the sign of zero and the payload of NaN."""
    x, y = np.ascontiguousarray(x), np.ascontiguousarray(y)
    return x.shape == y.shape and x.dtype == y.dtype and np.array_equal(
        x.view(np.uint64), y.view(np.uint64))


def force_workers(monkeypatch, workers, pool=None):
    """Run `lorentz.for_blocks` as on a host of `workers` CPUs: that
    worker count, and `pool` as the pool of the other workers (None: a
    pool of workers - 1 threads, made on first use)."""
    monkeypatch.setattr(lorentz, "_workers", workers)
    monkeypatch.setattr(lorentz, "_pool", pool)


def pair_with_B1(B1, c: Chart) -> MCBlocks:
    """A form (sign -1) whose B1 block is the complex field B1
    (Nu, Nv, 4, n) bit for bit, NaN and inf included, and whose other
    blocks are zero: P = 2 Re B1 and Q = -2 Im B1 there, halved exactly
    by alpha = (P - iQ)/2."""
    n = B1.shape[-1]
    P, Q = np.zeros((2,) + B1.shape[:-2] + (4 + n, 4 + n))
    P[..., :4, 4:], Q[..., :4, 4:] = 2.0 * B1.real, -2.0 * B1.imag
    return MCBlocks(P, Q, c)


def loop_curvature(M: MCBlocks) -> harmonic.LoopCurvature:
    """The Laurent coefficients of `harmonic.harmonicity`'s row-block
    kernel over the whole grid: `harmonic._curvature` of each row block
    of `lorentz.for_blocks` (so the block layout and the worker count
    are those of the pass), written into whole-grid planes and returned
    with the grid axes first: W1 (Nu, Nv, 4, 4), W2 (Nu, Nv, n, n),
    plus_re and plus_im (Nu, Nv, 8n) and the A-lines as W1 and W2."""
    n = M.P.shape[-1] - 4
    shapes = {"W1": (4, 4), "W2": (n, n), "plus_re": (8 * n,),
              "plus_im": (8 * n,), "A1_line": (4, 4), "A2_line": (n, n)}
    out = {name: np.empty(shape + M.chart.shape)
           for name, shape in shapes.items()}

    def block(rows):
        K = harmonic._curvature(M, rows)
        for name, X in (("W1", K.W[0]), ("W2", K.W[1]),
                        ("plus_re", K.plus_re), ("plus_im", K.plus_im),
                        *K.lines.items()):
            out[name][(slice(None),) * (X.ndim - 2) + (rows,)] = X

    lorentz.for_blocks(block, M.chart.shape)
    first = {name: lorentz.grid_first(X) for name, X in out.items()}
    return harmonic.LoopCurvature(
        W=(first["W1"], first["W2"]), plus_re=first["plus_re"],
        plus_im=first["plus_im"],
        lines={name: first[name] for name in ("A1_line", "A2_line")})


def planes(K: harmonic.LoopCurvature) -> harmonic.LoopCurvature:
    """Whole-grid coefficients with the grid axes first (as
    `loop_curvature` returns them) as the kernel's planes: views where
    the entries are contiguous planes (`lorentz.to_planes`)."""
    return replace(K, W=tuple(lorentz.to_planes(W) for W in K.W),
                   plus_re=lorentz.to_planes(K.plus_re, values=1),
                   plus_im=lorentz.to_planes(K.plus_im, values=1),
                   lines={name: lorentz.to_planes(X)
                          for name, X in K.lines.items()})


def sweep(K: harmonic.LoopCurvature, c: Chart, lambdas) -> list:
    """The flatness sups of `harmonic.harmonicity` on whole-grid
    coefficients K (grid axes first, possibly altered by a test): the
    per-point maxima of the kernel's reduction (`harmonic._maxima`) over
    the chart's interior, [{"lambda", "sup"}] per unit lambda."""
    lambdas = [harmonic._unit(lam) for lam in lambdas]
    top = harmonic._maxima(planes(K), lambdas)
    return [{"lambda": lam, "sup": float(np.max(t[c.interior]))}
            for lam, t in zip(lambdas, top)]


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


def qmul(p, q):
    """Quaternion product pq of the components (w, x, y, z) of
    w + x i + y j + z k, each a float or an array: a 4-tuple."""
    a, b, c, d = p
    e, f, g, h = q
    return (a * e - b * f - c * g - d * h,
            a * f + b * e + c * h - d * g,
            a * g - b * h + c * e + d * f,
            a * h + b * g - c * f + d * e)


def hopf_cylinder(H0, mu, N, substeps=64):
    """Raw lift (1, X) of a flat Hopf cylinder in S^3 on the N x N chart
    [0, 3] x [0, 2pi), periodic in v, and the closed form of its energy
    2pi int_0^3 (H^2 + 1) ds: (raw, chart, energy).

    A unit-speed curve q(s) in S^3, the unit quaternions, horizontal for
    the Hopf fibration q -> q i conj(q), solves q' = q w with
    w = cos(a) j + sin(a) k.  X(s, t) = q(s) e^{it} has X_s = q w e^{it}
    and X_t = q i e^{it}, orthonormal: (s, t) are isometric coordinates
    of a flat cylinder.  Its unit normal in S^3 is nu = q u e^{it} with
    u = w i = sin(a) j - cos(a) k, and w' = -a' u, so
    X_ss = -X - a' nu, X_st = nu and X_tt = -X.  The second fundamental
    form has h_ss = -a', h_st = 1, h_tt = 0: the fibres are asymptotic,
    H = (h_ss + h_tt)/2 = -a'/2, and a' = 2H up to the sign of nu.  Its
    determinant is -1, so the energy density is H^2 + 1 and the Willmore
    equation Delta H + 2H(H^2 - det) = 0 reads H'' + 2H(H^2 + 1) = 0.

    Here H'' = -2H^3 - mu H, H(0) = H0, H'(0) = 0, a(0) = 0, q(0) = 1,
    by RK4 with `substeps` steps per grid step, the energy integrated as
    one more component: mu = 2 is Willmore, any other mu is not.
    """
    c = Chart(0.0, 3.0, 0.0, 2 * np.pi, N, N, "periodic-v")

    def rate(y):        # y = (q, a, H, H', energy / 2pi)
        q0, q1, q2, q3, a, H, dH, _ = y.tolist()
        w = (0.0, 0.0, np.cos(a), np.sin(a))
        return np.array(qmul((q0, q1, q2, q3), w)
                        + (2.0 * H, dH, -2.0 * H**3 - mu * H, H**2 + 1.0))

    y = np.array([1.0, 0.0, 0.0, 0.0, 0.0, H0, 0.0, 0.0])
    dt = c.hu / substeps
    q = [y[:4]]
    for _ in range(N - 1):
        for _ in range(substeps):
            k1 = rate(y)
            k2 = rate(y + 0.5 * dt * k1)
            k3 = rate(y + 0.5 * dt * k2)
            k4 = rate(y + dt * k3)
            y = y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        q.append(y[:4])
    _, T = c.grid()
    X = qmul(np.array(q).T[..., None], (np.cos(T), np.sin(T), 0.0, 0.0))
    raw = np.stack((np.ones(c.shape),) + X, axis=-1)
    return raw, c, 2 * np.pi * y[7]


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


def projector_miss(B, E=None):
    """Per grid point, the largest miss of the rejection (`lorentz.rejection`
    of Id) from the orthonormal rows E (..., k, dim), the first timelike,
    against the LAPACK projector Id - B^T Q onto the complement of the
    rows B (..., m, dim), Q = G^{-1} B s, relative to the largest entry of
    LAPACK's projector there.  E defaults to `lorentz.orthonormalize(B)`."""
    dim = B.shape[-1]
    if E is None:
        E = orthonormalize(B)
    want = np.eye(dim) - np.swapaxes(B, -1, -2) \
        @ oracles.lapack_complement_solver(B)
    got = rejection(np.swapaxes(E, -1, -2), np.eye(dim))
    return np.max(np.abs(got - want), axis=(-1, -2)) \
        / np.max(np.abs(want), axis=(-1, -2))
