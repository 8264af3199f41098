from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from willmorelab import cli, reconstruct, spinor, surface
from willmorelab.chart import Chart
from willmorelab.gauss_frame import MCBlocks, maurer_cartan
from willmorelab.lorentz import inner, rejection

import helpers
import oracles
from oracles import metric


def normalized(pipe, kind, N=48, param=None, **kw):
    c, S, F, M = pipe(kind, N, param)
    return c, S, reconstruct.normalize(F, M, **kw)


def test_normalize_reaches_canonical_shape(pipe):
    c, S, NF = normalized(pipe, "clifford_torus")
    assert spinor.canonical_shape_residual(NF.blocks.B1) < 1e-10
    assert NF.blocks.sign == -1
    # the four-column bundle is untouched: Y0 still the input surface
    y0 = reconstruct.to_sphere_map(NF.Y0)
    yin = reconstruct.to_sphere_map(S.Y)
    assert reconstruct.sphere_distance(y0, yin) < 1e-10


def test_normalize_keeps_an_already_canonical_frame(pipe, monkeypatch):
    """A zoo Gauss frame already has the canonical B1 shape: normalize
    runs no maurer_cartan and returns the input frame and its blocks."""
    _, _, F, M = pipe("clifford_torus")
    made = []

    def counting(*args):
        made.append(args)
        return maurer_cartan(*args)

    monkeypatch.setattr(reconstruct, "maurer_cartan", counting)
    NF = reconstruct.normalize(F, M)
    assert made == []
    assert NF.F is F and NF.blocks is M


def test_normalized_beta_k_match_invariants(pipe):
    """Reading (beta, k) off the canonical block recovers the surface data."""
    c, S, NF = normalized(pipe, "clifford_torus")
    beta, k = reconstruct._beta_k(NF.blocks.B1)
    # the canonical gauge can differ from the surface gauge by a rotation
    # of the normal frame, so compare the invariant |k|^2 and beta*conj(k)
    inv = surface.invariants(S)
    assert np.max(np.abs(np.sum(np.abs(k)**2, axis=-1) - inv.k2)) < 1e-8
    lhs = np.sum(beta * np.conj(k), axis=-1)
    rhs = np.sum(inv.beta * np.conj(inv.kappa), axis=-1)
    assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_speccond_residual_small(pipe):
    for kind in ("clifford_torus", "catenoid"):
        c, _, NF = normalized(pipe, kind)
        assert NF.speccond_residual(NF.h) < 100 * c.h**2, kind


def test_h_is_constant_for_direct_gauss_frames(pipe):
    _, _, NF = normalized(pipe, "clifford_torus")
    assert np.max(np.abs(NF.h - 1 / np.sqrt(2))) < 1e-8


def test_constant_vector_absent_for_clifford(pipe):
    _, _, NF = normalized(pipe, "clifford_torus")
    assert reconstruct.constant_lightlike_vector(NF.F) is None


def test_constant_vector_found_for_reduced_frame():
    c = Chart(-1, 1, -1, 1, 32, 32, "open")
    F = helpers.reduced_frame_field(c)
    L = reconstruct.constant_lightlike_vector(F)
    assert L is not None
    assert abs(inner(L, L)) < 1e-10           # snapped onto the cone
    # the bundle holds e0 and e1, so L is (e0 +- e1)/sqrt2
    err = min(np.max(np.abs(L[1:] - s * np.array([1 / np.sqrt(2), 0, 0, 0])))
              for s in (1.0, -1.0))
    assert abs(L[0] - 1 / np.sqrt(2)) < 1e-6 and err < 1e-6


def test_constant_vector_solves_a_two_dimensional_kernel(monkeypatch):
    """Where the kernel of the rejection operator is a plane, the vector
    is one of its two null directions: in span{e0, e1} rotated by 0.3,
    whose basis vectors are not null and not orthogonal in the metric,
    it is (e0 + e1)/sqrt2 or (e0 - e1)/sqrt2."""
    dim, th = 5, 0.3
    V = np.eye(dim)
    V[:2, :2] = [[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]]
    op = V @ np.diag([0.0, 1e-9, 1.0, 2.0, 3.0]) @ V.T
    monkeypatch.setattr(reconstruct, "_rejection_operator", lambda F: op)
    L = reconstruct.constant_lightlike_vector(None)
    assert L is not None
    want = [np.array([1.0, s, 0, 0, 0]) / np.sqrt(2) for s in (1.0, -1.0)]
    assert min(np.max(np.abs(L - w)) for w in want) < 1e-12


def _lightlike_cases(pipe):
    """(name, frame) pairs for the lightlike-vector search: normalized
    zoo frames without (clifford, veronese) and with (enneper, catenoid)
    a constant lightlike vector, and the reduced degenerate frame."""
    for kind in ("clifford_torus", "veronese_s4", "enneper", "catenoid"):
        _, _, NF = normalized(pipe, kind)
        yield kind, NF.F
    c = Chart(-1, 1, -1, 1, 32, 32, "open")
    yield "reduced", helpers.reduced_frame_field(c)


def test_constant_vector_search_matches_einsum_oracle(pipe, monkeypatch):
    """The one-product rejection operator equals the per-point einsum
    form, and the search reads the same kernel and vector off either."""
    for name, F in _lightlike_cases(pipe):
        want = oracles.rejection_operator(F)
        got = reconstruct._rejection_operator(F)
        assert np.max(np.abs(got - want)) <= 1e-12, name
        L = reconstruct.constant_lightlike_vector(F)
        with monkeypatch.context() as m:
            m.setattr(reconstruct, "_rejection_operator",
                      oracles.rejection_operator)
            L_ref = reconstruct.constant_lightlike_vector(F)
        assert (L is None) == (L_ref is None), name
        if L is not None:
            assert np.max(np.abs(L - L_ref)) <= 1e-12, name


def test_rejection_oracle_rejects_broken_operators(pipe):
    """Dropping the timelike sign of column 0, or the ambient metric,
    misses the oracle by O(1) (4 to 14 at N=48) on every case."""
    for name, F in _lightlike_cases(pipe):
        want = oracles.rejection_operator(F)
        no_eps = oracles.rejection_operator(F, eps=(1.0, 1.0, 1.0, 1.0))
        no_metric = oracles.rejection_operator(F, I=np.eye(F.shape[-1]))
        for mutant in (no_eps, no_metric):
            assert np.max(np.abs(mutant - want)) > 1.0, name


def _projector_defect(P, F):
    """Worst of |P^2 - P|, |P f_k - f_k| on the four bundle columns and
    |P psi| on the others."""
    PF = P @ F
    return max(np.max(np.abs(P @ P - P)),
               np.max(np.abs(PF[..., :, :4] - F[..., :, :4])),
               np.max(np.abs(PF[..., :, 4:])))


def _projector_frames(pipe):
    """Frame fields that are exact group elements: the Clifford torus's
    normalized Gauss frame and the two synthetic degenerate frames."""
    _, _, NF = normalized(pipe, "clifford_torus")
    yield "clifford_torus", NF.F
    yield "rank2", helpers.rank2_degenerate_frame(
        Chart(0, 2 * np.pi, 0, 2 * np.pi, 32, 32, "periodic-both"))
    yield "reduced", helpers.reduced_frame_field(
        Chart(-1, 1, -1, 1, 32, 32, "open"))


def test_bundle_projector_is_the_projection_onto_the_bundle(pipe):
    """P = Id - (the rejection of Id from the bundle, `lorentz.rejection`)
    is idempotent, fixes the four bundle columns and kills the normal
    columns; without the timelike sign eps_0 = -1 it is not."""
    for name, F in _projector_frames(pipe):
        dim = F.shape[-1]
        P = np.eye(dim) - rejection(F[..., :, :4], np.eye(dim))
        assert _projector_defect(P, F) < 1e-10, name
        F4 = F[..., :, :4]
        no_eps = (F4 @ np.swapaxes(F4, -1, -2)) * np.diag(
            metric(F.shape[-1]))
        assert _projector_defect(no_eps, F) > 1.0, name


@pytest.mark.parametrize("kind", ["enneper", "catenoid"])
# ids: the coordinate of NF, the same as the input's (z) or its conjugate
@pytest.mark.parametrize("sign", [-1, 1], ids=["same", "conjugate"])
def test_classify_reuses_the_normalized_blocks(pipe, kind, sign):
    """The renormalization in the conjugate coordinate in classify starts
    from NF.blocks, in whichever coordinate normalize set them, and
    matches a renormalization that recomputes maurer_cartan: same frame
    and blocks, and bit for bit the same Y_mu in classify."""
    c, _, F, M = pipe(kind)
    NF = reconstruct.normalize(F, M, sign=sign)
    assert NF.blocks.sign == sign
    ref = reconstruct.normalize(NF.F, maurer_cartan(NF.F, c), sign=1)
    got = reconstruct.normalize(NF.F, NF.blocks, sign=1)
    assert np.array_equal(got.F, ref.F)
    assert got.blocks.sign == ref.blocks.sign == 1
    for b in ("A1", "A2", "B1"):
        assert np.array_equal(getattr(got.blocks, b),
                              getattr(ref.blocks, b)), b
    assert np.array_equal(oracles.B2(got.blocks), oracles.B2(ref.blocks))
    Ymu, _ = reconstruct.build_Y_mu(ref, reconstruct.dual_mu(ref))
    assert np.array_equal(reconstruct.classify(NF).Ymu, Ymu)


@pytest.mark.parametrize("kind", ["clifford_torus", "enneper", "catenoid"])
@pytest.mark.parametrize("sign", [None, -1, 1])
def test_normalize_reads_B1_in_z_whatever_the_coordinate(pipe, kind, sign):
    """normalize reads B1 in z whatever coordinate its blocks carry: the
    form set to zbar gives the frame and blocks of the form in z, bit for
    bit, for every choice of the coordinate to canonicalize in."""
    _, _, F, M = pipe(kind)
    want = reconstruct.normalize(F, M, sign=sign)
    got = reconstruct.normalize(F, replace(M, sign=1), sign=sign)
    assert got.blocks.sign == want.blocks.sign
    for x, y in ((got.F, want.F), (got.blocks.P, want.blocks.P),
                 (got.blocks.Q, want.blocks.Q)):
        assert helpers.same_bits(x, y)


@pytest.mark.parametrize("kind", ["enneper", "catenoid"])
def test_classify_reads_the_frame_in_either_coordinate(pipe, kind):
    """classify of a normalized frame whose blocks are set to zbar gives
    the case and, bit for bit, the Y_mu of the same frame in z."""
    _, _, NF = normalized(pipe, kind)
    want = reconstruct.classify(NF)
    got = reconstruct.classify(replace(NF, blocks=replace(NF.blocks,
                                                          sign=1)))
    assert got.case == want.case == "b2i"
    assert helpers.same_bits(got.Ymu, want.Ymu)


def test_sphere_map_representatives(pipe):
    c, S, _, _ = pipe("clifford_torus")
    y = reconstruct.to_sphere_map(S.Y)
    assert y.shape == S.Y.shape and np.all(y[..., 0] == 1.0)
    assert np.max(np.abs(np.sum(y[..., 1:]**2, axis=-1) - 1.0)) < 1e-12
    assert np.max(np.abs(inner(y, y))) < 1e-12


def test_clifford_roundtrip_machine_exact(pipe):
    c, S, NF = normalized(pipe, "clifford_torus")
    y0 = reconstruct.to_sphere_map(NF.Y0)
    yin = reconstruct.to_sphere_map(S.Y)
    assert reconstruct.sphere_distance(y0, yin) < 1e-12
    # h never vanishes: [e0 - e0hat] immerses everywhere
    scale = np.max(np.abs(NF.blocks.A1)) + c.h
    assert not np.any(np.abs(NF.h) < 1e-6 * scale)


def test_veronese_roundtrip(pipe):
    # the Gauss frame of the generator is already in canonical shape, so
    # normalization is the identity gauge and projection returns the
    # input surface on the nose
    c, S, NF = normalized(pipe, "veronese_s4", 48)
    y0 = reconstruct.to_sphere_map(NF.Y0)
    yin = reconstruct.to_sphere_map(S.Y)
    m = c.interior
    d = np.sqrt(np.sum((y0[..., 1:] - yin[..., 1:])**2, axis=-1))
    assert np.max(d[m]) < 1e-10


def test_scrambled_veronese_roundtrip_converges(pipe):
    """A smooth gauge scramble forces the full normalization machinery."""
    rng = np.random.default_rng(7)
    dists = []
    for N in (48, 96):
        c, S, F, M = pipe("veronese_s4", N)
        G = np.zeros(c.shape + (6, 6))
        G[..., :4, :4] = helpers.random_so13_gauge(c, rng, amp=0.3)
        G[..., 4, 4] = G[..., 5, 5] = 1.0
        Fs = F @ np.linalg.inv(G)
        NF = reconstruct.normalize(Fs, maurer_cartan(Fs, c))
        y0 = reconstruct.to_sphere_map(NF.Y0)
        yin = reconstruct.to_sphere_map(S.Y)
        m = c.interior
        d = np.sqrt(np.sum((y0[..., 1:] - yin[..., 1:])**2, axis=-1))
        dists.append(float(np.max(d[m])))
    assert dists[0] < 0.5
    assert dists[0] / dists[1] > 2.5          # at least O(h^2)


def test_clifford_dual_surface(pipe):
    c, S, NF = normalized(pipe, "clifford_torus")
    cl = reconstruct.classify(NF)
    assert (cl.case, cl.max_rank) == ("a2", 1)
    mu = reconstruct.dual_mu(NF)
    # rank-1 consistency: mu solves beta = -(conj(mu)/2) k
    beta, k = reconstruct._beta_k(NF.blocks.B1)
    scale = np.sqrt(np.max(np.sum(np.abs(beta)**2 + np.abs(k)**2, axis=-1)))
    assert np.max(np.abs(beta + 0.5 * np.conj(mu)[..., None] * k)) \
        < 1e-8 * scale
    ds = reconstruct.dual_surface(NF, mu, cl.max_rank)
    assert ds["duality_residual"] < 1e-10
    vg = reconstruct.verify_gauss_match(ds["map"], NF)
    assert vg["orientation"] == "opposite"
    assert oracles.gauss_match_by_surface_data(
        ds["map"], NF)["subspace_distance"] < 100 * c.h**2
    # the dual of the Clifford torus is again a Clifford-type torus,
    # distinct from the original
    yin = reconstruct.to_sphere_map(S.Y)
    assert reconstruct.sphere_distance(ds["map"], yin) > 0.5


def test_dual_surface_rejects_rank_two(pipe):
    _, _, NF = normalized(pipe, "clifford_torus")
    with pytest.raises(ValueError, match="max rank 1, got rank 2"):
        reconstruct.dual_surface(NF, reconstruct.dual_mu(NF), 2)


def _factored_B1(c, h0):
    """A stand-in normalized frame whose canonical block is B1 = h0 Bt,
    and the mu of Bt: Bt has rows (sqrt2 beta, -sqrt2 beta, -k, -ik) with
    k (n = 2) and mu non-vanishing, mu not harmonic (so a neighbour mean
    is off by O(h^2)), and beta = -(conj(mu)/2) k."""
    U, V = c.grid()
    mu = 1.5 + 0.5 * np.cos(U) + 0.4j * (V**2 + np.sin(U))
    k = np.stack([1 + 0.3 * np.sin(U) * np.cos(V) + 0.2j * V,
                  0.5 + 0.2j * np.cos(U) + 0.1 * V**2], axis=-1)
    beta = -0.5 * np.conj(mu)[..., None] * k
    r2 = np.sqrt(2.0)
    Bt = np.stack([r2 * beta, -r2 * beta, -k, -1j * k], axis=-2)
    B1 = h0[..., None, None] * Bt
    return SimpleNamespace(blocks=SimpleNamespace(B1=B1), chart=c), mu


def _mu_error(N, h0, z0, topology="open"):
    """For B1 = h0(z) Bt: |dual_mu - mu| over the chart, and the grid
    point nearest to z0 with h0 there.  The chart is [-1, 1]^2 with N by
    N points, or [0, 2pi) x [-1, 1] with N by N + 1 points when periodic
    in u."""
    if topology == "open":
        c = Chart(-1, 1, -1, 1, N, N)
    else:
        c = Chart(0, 2 * np.pi, -1, 1, N, N + 1, topology)
    z = c.zgrid()
    NF, mu = _factored_B1(c, h0(z))
    at = np.unravel_index(np.argmin(np.abs(z - z0)), c.shape)
    return np.abs(reconstruct.dual_mu(NF) - mu), at, h0(z)[at]


def test_dual_mu_cancels_a_zero_within_roundoff_of_a_grid_point():
    """B1 = (z - 0.1) Bt is 1e-16 of its size at z = 0.1, yet the ratio
    of its entries is mu(Bt) to roundoff there and everywhere else."""
    err, at, h = _mu_error(41, lambda z: z - 0.1, 0.1)
    assert 0 < abs(h) < 1e-14
    assert err[at] < 1e-12 and np.max(err) < 1e-12


def test_dual_mu_handles_two_common_zeros():
    """A zero within roundoff of a grid point (z = 0.1, the ratio) and
    an exact one (z = -0.5 + 0.25i, the neighbour mean)."""
    for z0, exact in ((0.1, False), (-0.5 + 0.25j, True)):
        err, at, h = _mu_error(41, lambda z: (z - 0.1) * (z + 0.5 - 0.25j),
                               z0)
        assert (h == 0) == exact and abs(h) < 1e-14
        assert err[at] < 2e-3
    assert np.max(err) < 2e-3


def test_dual_mu_fills_an_exact_zero_from_its_neighbours():
    """B1 vanishes exactly at z = 0: mu there is the neighbour mean, off
    by O(h^2)."""
    errs = []
    for N in (41, 81):
        err, at, h = _mu_error(N, lambda z: z, 0.0)
        assert h == 0
        errs.append(err[at])
    assert errs[0] / errs[1] > 3.0


def test_dual_mu_fills_across_a_periodic_seam():
    """B1 = (sin u + iv) Bt vanishes exactly on the seam u = 0: the fill
    takes the wrapped neighbour at u = 2pi - h, so it is O(h^2); at u = pi
    sin u is roundoff and the ratio is exact."""
    errs = []
    for N in (40, 80):
        err, at, h = _mu_error(N, lambda z: np.sin(z.real) + 1j * z.imag,
                               0.0, "periodic-u")
        assert h == 0 and at == (0, N // 2)
        assert err[N // 2, N // 2] < 1e-12
        errs.append(err[at])
    assert errs[0] / errs[1] > 3.0


def test_dual_mu_zero_beta_and_zero_k():
    """On a B1 bounded below, mu is the ratio; it is 0 where beta
    vanishes, or is below 1e-6 of B1's largest entries, and k does not,
    and not finite where k alone vanishes; at any scale of B1."""
    c = Chart(-1, 1, -1, 1, 21, 21)
    NF, want = _factored_B1(c, np.ones(c.shape))
    NF.blocks.B1[3, 4, :2] = 0.0        # beta
    NF.blocks.B1[5, 6, :2] *= 1e-8      # beta under the bar
    NF.blocks.B1[9, 9, 2:] = 0.0        # k
    rest = np.ones(c.shape, dtype=bool)
    rest[3, 4] = rest[5, 6] = rest[9, 9] = False
    for scale in (1.0, 2.0**20):
        mu = reconstruct.dual_mu(SimpleNamespace(
            blocks=SimpleNamespace(B1=scale * NF.blocks.B1), chart=c))
        assert mu[3, 4] == 0 and mu[5, 6] == 0, scale
        assert not np.isfinite(mu[9, 9])
        assert np.max(np.abs(mu - want)[rest]) < 1e-12, scale


def test_dual_mu_raises_without_a_finite_neighbour():
    """B1 = 0 on a 3x3 patch: the fill gives its rim the mean of the
    outer neighbours, but the centre has no finite neighbour."""
    c = Chart(-1, 1, -1, 1, 41, 41)
    NF, _ = _factored_B1(c, np.ones(c.shape))
    NF.blocks.B1[19:22, 19:22] = 0.0
    with pytest.raises(ValueError, match=r"grid point \(20, 20\)"):
        reconstruct.dual_mu(NF)


def _gauss_match_cases(pipe):
    """(name, sphere map, normalized frame) for the Gauss-bundle match:
    the duals of clifford_torus and veronese_s4 and the direct surface."""
    for kind in ("clifford_torus", "veronese_s4"):
        c, S, NF = normalized(pipe, kind)
        ds = reconstruct.dual_surface(NF, reconstruct.dual_mu(NF),
                                      reconstruct.classify(NF).max_rank)
        yield f"{kind}:dual", ds["map"], NF
    c, S, NF = normalized(pipe, "clifford_torus")
    yield "clifford_torus:direct", reconstruct.to_sphere_map(S.Y), NF


def test_gauss_match_matches_surface_data_oracle(pipe):
    """Built from (Y, N, Y_u, Y_v) alone, the match gives the orientation
    and votes of the full-surface-data form."""
    want_orient = {"clifford_torus:dual": "opposite",
                   "veronese_s4:dual": "opposite",
                   "clifford_torus:direct": "same"}
    for name, y, NF in _gauss_match_cases(pipe):
        got = reconstruct.verify_gauss_match(y, NF)
        want = oracles.gauss_match_by_surface_data(y, NF)
        assert got["orientation"] == want["orientation"] \
            == want_orient[name], name
        assert got["orientation_votes"] == want["orientation_votes"], name


def test_gauss_match_oracle_rejects_metric_free_gram(pipe):
    """A Gram matrix without the metric signs flips the sign of det G,
    so it reports the opposite orientation with every vote reversed."""
    for name, y, NF in _gauss_match_cases(pipe):
        want = oracles.gauss_match_by_surface_data(y, NF)
        broken = oracles.gauss_match_by_surface_data(y, NF,
                                                     gram_metric=False)
        assert broken["orientation"] != want["orientation"], name
        assert broken["orientation_votes"] == -want["orientation_votes"], \
            name


def test_gauss_match_fails_closed_on_a_nan_point(pipe, monkeypatch,
                                                 capsys):
    """A NaN point of the candidate sphere map casts no vote: the match
    raises a ValueError naming the point (from `surface.canonical_lift`)
    where NaN signs would read "opposite", so reconstruct exits 3 on a
    dual map with a NaN point instead of passing
    dual_orientation_opposite."""
    for name, y, NF in _gauss_match_cases(pipe):
        y = y.copy()
        y[20, 24] = np.nan
        with pytest.raises(ValueError,
                           match=r"not finite at grid point \(20, 24\)"):
            reconstruct.verify_gauss_match(y, NF)
    dual = reconstruct.dual_surface

    def nan_map(*args):
        ds = dual(*args)
        ds["map"][20, 24] = np.nan
        return ds
    monkeypatch.setattr(reconstruct, "dual_surface", nan_map)
    c = pipe("clifford_torus")[0]
    chart = ",".join(map(str, (c.Nu, c.Nv, c.u_min, c.u_max, c.v_min,
                               c.v_max, c.topology)))
    code = cli.main(["reconstruct", "--surface", "clifford_torus",
                     "--chart", chart])
    assert code == 3
    assert "not finite at grid point (20, 24)" in capsys.readouterr().err


def test_gauss_match_fails_closed_on_a_singular_change_of_basis(
        pipe, monkeypatch):
    """A zero determinant of the change of basis casts no vote either:
    the match raises np.linalg.LinAlgError instead of counting sign 0."""
    monkeypatch.setattr(reconstruct, "det",
                        lambda X: np.zeros(X.shape[2:]))
    for name, y, NF in _gauss_match_cases(pipe):
        with pytest.raises(np.linalg.LinAlgError,
                           match="singular or not finite"):
            reconstruct.verify_gauss_match(y, NF)


def test_direct_surface_gauss_match_is_same_oriented(pipe):
    c, S, NF = normalized(pipe, "clifford_torus")
    yin = reconstruct.to_sphere_map(S.Y)
    vg = reconstruct.verify_gauss_match(yin, NF)
    assert vg["orientation"] == "same"
    assert oracles.gauss_match_by_surface_data(
        yin, NF)["subspace_distance"] < 100 * c.h**2


@pytest.mark.parametrize("kind", ["enneper", "catenoid"])
def test_minimal_surfaces_classify_b2i(pipe, kind):
    c, S, NF = normalized(pipe, kind)
    cl = reconstruct.classify(NF)
    assert cl.case == "b2i"
    assert cl.has_willmore_surface
    assert cl.constant_vector is not None


def test_stereographic_refuses_the_projection_center(pipe):
    """A representative of Y_mu within 1e-14 of the line of the constant
    vector, relative to its size, is a ValueError, at any scale."""
    c, _, NF = normalized(pipe, "enneper")
    cl = reconstruct.classify(NF)
    L = cl.constant_vector
    Ymu = cl.Ymu.copy()
    Ymu[5, 5] = L + 1e-14 * np.eye(len(L))[0]
    for scale in (1.0, 2.0**20):
        with pytest.raises(ValueError, match="projection center"):
            reconstruct.stereographic(scale * Ymu, L, c)


def test_enneper_recovers_a_minimal_immersion(pipe):
    c, _, NF = normalized(pipe, "enneper")
    cl = reconstruct.classify(NF)
    st = reconstruct.stereographic(cl.Ymu, cl.constant_vector, c)
    assert st["conformal_residual"] < 100 * c.h**2
    assert st["harmonic_residual"] < 100 * c.h**2


def test_rank2_degenerate_classifies_b1():
    c = Chart(0, 2 * np.pi, 0, 2 * np.pi, 96, 96, "periodic-both")
    F = helpers.rank2_degenerate_frame(c)
    M = maurer_cartan(F, c)
    NF = reconstruct.NormalizedFrame(F=F, blocks=M)
    cl = reconstruct.classify(NF)
    assert cl.case == "b1"
    assert not cl.has_willmore_surface
    assert "no Willmore surface" in cl.verdict


def _stub_frame(c, dim, a12, h, B1=None):
    """A stand-in normalized frame on the chart c: identity frames and
    the pair (P, 0), so each block entry is half the entry of P, exactly.
    A1 has a12 and a13 = a23 = h/2, so a13 + a23 = h and max |A1| is
    max(a12, h/2); B1 is the constant (4, n) block given, zero if not."""
    P = np.zeros(c.shape + (dim, dim))
    P[..., 0, 1] = 2 * a12
    P[..., 0, 2] = P[..., 1, 2] = h
    if B1 is not None:
        P[..., :4, 4:] = 2 * B1
    F = np.broadcast_to(np.eye(dim), P.shape).copy()
    return reconstruct.NormalizedFrame(F, MCBlocks(P, np.zeros_like(P), c))


@pytest.mark.parametrize("factor, case", [(0.5, "ambiguous"), (1.0, "a2"),
                                          (1.5, "a2")])
def test_classify_reads_h_against_the_scale_of_A1(monkeypatch, factor,
                                                  case):
    """With no constant lightlike vector in the bundle, the frame is
    borderline ("ambiguous") exactly when sup |h| < 1e-6 (max |A1| + h),
    h the grid step: on a chart of step 1 with max |A1| = 1 (so the bar
    is 2e-6), h = a13 + a23 a constant at half, at and one and a half
    times the bar; B1 is zero, so the rank is 0 and the case otherwise
    a2."""
    monkeypatch.setattr(reconstruct, "constant_lightlike_vector",
                        lambda F: None)
    c = Chart(0.0, 15.0, 0.0, 15.0, 16, 16, "open")
    bar = 1e-6 * (1.0 + c.h)
    assert c.h == 1.0 and bar == 2e-6
    cl = reconstruct.classify(_stub_frame(c, 5, 1.0, factor * bar))
    assert cl.h_sup == factor * bar
    assert cl.case == case


def test_classify_reads_rank_two_without_a_constant_vector_as_a1(
        monkeypatch):
    """With no constant lightlike vector and B1 of rank 2 the case is a1:
    the surface [e0 - e0hat], with no dual, read off the frame given."""
    monkeypatch.setattr(reconstruct, "constant_lightlike_vector",
                        lambda F: None)
    c = Chart(0.0, 1.0, 0.0, 1.0, 16, 16, "open")
    B1 = np.zeros((4, 2))
    B1[0, 0] = B1[1, 1] = 1.0
    NF = _stub_frame(c, 6, 1.0, 1.0, B1)
    cl = reconstruct.classify(NF)
    assert (cl.case, cl.max_rank) == ("a1", 2)
    assert cl.verdict == "willmore surface [e0 - e0hat]"
    assert cl.frame is NF


@pytest.mark.parametrize("extra, case", [(0, "b2ii"), (1, "b2i")])
def test_classify_b2i_needs_a_strict_majority(monkeypatch, extra, case):
    """The degenerate rank-1 branch reads b2i (a minimal surface) when
    the mixed pairing <Y_mu', conj Y_mu'> is positive on more than half
    of the interior, and b2ii at exactly half: with the rank, the
    constant vector, the renormalization and Y_mu' stubbed, Y_mu' = e1
    (pairing +1) on half the interior points, plus `extra`, and e0
    (pairing -1) elsewhere."""
    c = Chart(0.0, 15.0, 0.0, 15.0, 16, 16, "open")
    NF = _stub_frame(c, 5, 1.0, 1.0)
    inside = np.flatnonzero(c.interior)
    assert inside.size % 2 == 0
    positive = np.zeros(c.shape, dtype=bool)
    positive.flat[inside[:inside.size // 2 + extra]] = True
    Yd = np.zeros(c.shape + (5,), dtype=complex)
    Yd[..., 1] = positive
    Yd[..., 0] = ~positive
    monkeypatch.setattr(reconstruct, "s_willmore_rank",
                        lambda M, tol: (None, 1))
    monkeypatch.setattr(reconstruct, "constant_lightlike_vector",
                        lambda F: np.array([1.0, 1.0, 0.0, 0.0, 0.0]))
    monkeypatch.setattr(reconstruct, "normalize",
                        lambda F, M, sign: NF)
    monkeypatch.setattr(reconstruct, "dual_mu",
                        lambda NF: np.zeros(c.shape, dtype=complex))
    monkeypatch.setattr(reconstruct, "build_Y_mu",
                        lambda NF, mu: (np.zeros_like(Yd), Yd))
    assert reconstruct.classify(NF).case == case


def test_reduced_frame_classifies_b2ii():
    c = Chart(-1, 1, -1, 1, 64, 64, "open")
    F = helpers.reduced_frame_field(c)
    NF = reconstruct.normalize(F, maurer_cartan(F, c), tol=1e-3)
    cl = reconstruct.classify(NF)
    assert cl.case == "b2ii"
    assert not cl.has_willmore_surface
    assert "no Willmore surface" in cl.verdict


def test_round_sphere_cannot_be_normalized(pipe):
    c, S, F, M = pipe("round_sphere")
    with pytest.raises(spinor.TotallyUmbilicError):
        reconstruct.normalize(F, M)


def _degenerate_run(pipe, kind, monkeypatch, conjugate=None):
    """classify on the normalized zoo frame, with the blocks of every
    frame that normalize returns in the conjugate coordinate (sign +1)
    replaced by conjugate(frame) if given: (classification, stereographic
    residuals, the conjugate renormalization's frame) at N=48."""
    c, _, F, M = pipe(kind)
    with monkeypatch.context() as m:
        renormalized = []
        normalize = reconstruct.normalize

        def spy(*args, **kwargs):
            NF = normalize(*args, **kwargs)
            if conjugate is not None and NF.blocks.sign > 0:
                NF = replace(NF, blocks=conjugate(NF))
            renormalized.append(NF)
            return NF

        m.setattr(reconstruct, "normalize", spy)
        cl = reconstruct.classify(reconstruct.normalize(F, M))
    st = reconstruct.stereographic(cl.Ymu, cl.constant_vector, c)
    return cl, st, renormalized[-1]


def test_degenerate_branch_matches_the_conjugated_complex_form(
        pipe, monkeypatch):
    """On enneper (case b2i) classify's Y_mu, h_sup, the stereographic
    residuals and the blocks of the conjugate renormalization match a run
    whose blocks in the conjugate coordinate are the conjugate of the
    complex product F^{-1} d_z F of its frame
    (`oracles.maurer_cartan_complex`).

    Blocks (-P, -Q) in that coordinate, that is -conj(alpha), leave
    Y_mu, h_sup and the stereographic residuals unchanged: each is even
    in the sign of the form (mu is a ratio of products of two B1
    entries, h enters only as |h|), so only the renormalized blocks tell
    the two apart, and they are pinned here."""
    c, _, _, _ = pipe("enneper")
    calls = []

    def oracle_conjugate(NF):
        # the pair of the complex form alpha = (P - iQ)/2: sign +1 reads
        # it as conj(alpha)
        alpha = oracles.maurer_cartan_complex(NF.F, c)
        calls.append(NF)
        return MCBlocks(2.0 * alpha.real, -2.0 * alpha.imag, c, 1)

    def negated_conjugate(NF):
        return MCBlocks(-NF.blocks.P, -NF.blocks.Q, c, 1)

    got = _degenerate_run(pipe, "enneper", monkeypatch)
    want = _degenerate_run(pipe, "enneper", monkeypatch, oracle_conjugate)
    assert calls, "the oracle conjugate never ran"
    negated = _degenerate_run(pipe, "enneper", monkeypatch,
                              negated_conjugate)

    def close(x, y):
        x, y = np.asarray(x), np.asarray(y)
        return np.max(np.abs(x - y)) <= 1e-12 * max(np.max(np.abs(y)), 1.0)

    for run in (want, negated):
        cl, st, _ = run
        assert cl.case == got[0].case == "b2i"
        assert close(got[0].Ymu, cl.Ymu)
        assert close(got[0].h_sup, cl.h_sup)
        for key in ("conformal_residual", "harmonic_residual"):
            assert close(got[1][key], st[key]), key
    assert got[2].blocks.sign == 1
    def blocks(run):
        M = run[2].blocks
        return M.A1, M.A2, M.B1, oracles.B2(M)

    for mine, theirs, neg in zip(blocks(got), blocks(want), blocks(negated)):
        assert close(mine, theirs)
        assert close(-mine, neg)
    assert np.max(np.abs(got[2].blocks.B1)) > 0.1
