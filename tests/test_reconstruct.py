import numpy as np
import pytest

from willmorelab import reconstruct, spinor
from willmorelab.chart import Chart, DEFAULT_MARGIN
from willmorelab.gauss_frame import FrameField, maurer_cartan
from willmorelab.lorentz import inner, metric

import helpers
import oracles


def normalized(pipe, kind, N=48, param=None, **kw):
    c, S, Ff, M = pipe(kind, N, param)
    return c, S, reconstruct.normalize(Ff, M, **kw)


def test_normalize_reaches_canonical_shape(pipe):
    c, S, NF = normalized(pipe, "clifford_torus")
    assert NF.shape_residual < 1e-10
    assert NF.orientation == "same"
    # the four-column bundle is untouched: Y0 still the input surface
    y0 = reconstruct.to_sphere_map(NF.Y0, c)
    yin = reconstruct.to_sphere_map(S.Y, c)
    assert y0.distance(yin) < 1e-10


def test_normalize_keeps_an_already_canonical_frame(pipe, monkeypatch):
    """A zoo Gauss frame already has the canonical B1 shape: normalize
    runs maurer_cartan once and returns the input frame and its blocks."""
    _, _, Ff, _ = pipe("clifford_torus")
    made = []

    def counting(Ff):
        made.append(maurer_cartan(Ff))
        return made[-1]

    monkeypatch.setattr(reconstruct, "maurer_cartan", counting)
    NF = reconstruct.normalize(Ff)
    assert len(made) == 1
    assert NF.F is Ff.F and NF.blocks is made[0]


def test_normalized_beta_k_match_invariants(pipe):
    """Reading (beta, k) off the canonical block recovers the surface data."""
    c, S, NF = normalized(pipe, "clifford_torus")
    beta, k = reconstruct._beta_k(NF.blocks.B1)
    # the canonical gauge can differ from the surface gauge by a rotation
    # of the normal frame, so compare the invariant |k|^2 and beta*conj(k)
    assert np.max(np.abs(np.sum(np.abs(k)**2, axis=-1) - S.k2)) < 1e-8
    lhs = np.sum(beta * np.conj(k), axis=-1)
    rhs = np.sum(S.beta * np.conj(S.kappa), axis=-1)
    assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_speccond_residual_small(pipe):
    for kind in ("clifford_torus", "catenoid"):
        c, _, NF = normalized(pipe, kind)
        assert NF.speccond_residual() < 100 * c.h**2, kind


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
    """P is idempotent, fixes the four bundle columns and kills the
    normal columns; without the timelike sign eps_0 = -1 it is not."""
    for name, F in _projector_frames(pipe):
        assert _projector_defect(reconstruct._bundle_projector(F), F) \
            < 1e-10, name
        F4 = F[..., :, :4]
        no_eps = (F4 @ np.swapaxes(F4, -1, -2)) * np.diag(
            metric(F.shape[-1]))
        assert _projector_defect(no_eps, F) > 1.0, name


@pytest.mark.parametrize("kind", ["enneper", "catenoid"])
@pytest.mark.parametrize("orientation", ["same", "conjugate"])
def test_classify_reuses_the_normalized_blocks(pipe, kind, orientation):
    """The conjugate renormalization in classify starts from NF.blocks
    and matches a renormalization that recomputes maurer_cartan: same
    frame and blocks, and bit for bit the same Y_mu in classify."""
    c, _, Ff, M = pipe(kind)
    NF = reconstruct.normalize(Ff, M, orientation=orientation)
    assert NF.orientation == orientation
    M0 = NF.blocks.conjugate() if orientation == "conjugate" else NF.blocks
    ref = reconstruct.normalize(FrameField(F=NF.F, chart=c),
                                orientation="conjugate")
    got = reconstruct.normalize(FrameField(F=NF.F, chart=c), M0,
                                orientation="conjugate")
    assert np.array_equal(got.F, ref.F)
    for b in ("A1", "A2", "B1", "B2"):
        assert np.array_equal(getattr(got.blocks, b),
                              getattr(ref.blocks, b)), b
    Ymu, _ = reconstruct.build_Y_mu(ref, reconstruct.dual_mu(ref))
    assert np.array_equal(reconstruct.classify(NF).Ymu, Ymu)


def test_sphere_map_representatives(pipe):
    c, S, _, _ = pipe("clifford_torus")
    y = reconstruct.to_sphere_map(S.Y, c)
    assert np.max(np.abs(np.sum(y.values**2, axis=-1) - 1.0)) < 1e-12
    lifted = y.lift()
    assert np.max(np.abs(inner(lifted, lifted))) < 1e-12


def test_clifford_roundtrip_machine_exact(pipe):
    c, S, NF = normalized(pipe, "clifford_torus")
    y0 = reconstruct.to_sphere_map(NF.Y0, c)
    yin = reconstruct.to_sphere_map(S.Y, c)
    assert y0.distance(yin) < 1e-12
    # h never vanishes: [e0 - e0hat] immerses everywhere
    scale = np.max(np.abs(NF.blocks.A1)) + c.h
    assert not np.any(np.abs(NF.h) < 1e-6 * scale)


def test_veronese_roundtrip(pipe):
    # the Gauss frame of the generator is already in canonical shape, so
    # normalization is the identity gauge and projection returns the
    # input surface on the nose
    c, S, NF = normalized(pipe, "veronese_s4", 48)
    y0 = reconstruct.to_sphere_map(NF.Y0, c)
    yin = reconstruct.to_sphere_map(S.Y, c)
    m = c.interior_mask(DEFAULT_MARGIN)
    d = np.sqrt(np.sum((y0.values - yin.values)**2, axis=-1))
    assert np.max(d[m]) < 1e-10


def test_scrambled_veronese_roundtrip_converges(pipe):
    """A smooth gauge scramble forces the full normalization machinery."""
    rng = np.random.default_rng(7)
    dists = []
    for N in (48, 96):
        c, S, Ff, M = pipe("veronese_s4", N)
        G = np.zeros(c.shape + (6, 6))
        G[..., :4, :4] = helpers.random_so13_gauge(c, rng, amp=0.3)
        G[..., 4, 4] = G[..., 5, 5] = 1.0
        Fs = FrameField(F=Ff.F @ np.linalg.inv(G), chart=c)
        NF = reconstruct.normalize(Fs)
        y0 = reconstruct.to_sphere_map(NF.Y0, c)
        yin = reconstruct.to_sphere_map(S.Y, c)
        m = c.interior_mask(DEFAULT_MARGIN)
        d = np.sqrt(np.sum((y0.values - yin.values)**2, axis=-1))
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
    yin = reconstruct.to_sphere_map(S.Y, c)
    assert ds["map"].distance(yin) > 0.5


def test_dual_surface_rejects_rank_two(pipe):
    _, _, NF = normalized(pipe, "clifford_torus")
    mu = reconstruct.dual_mu(NF)
    with pytest.raises(ValueError, match="max rank 1, got rank 2"):
        reconstruct.dual_surface(NF, mu, 2)


def _gauss_match_cases(pipe):
    """(name, sphere map, normalized frame) for the Gauss-bundle match:
    the duals of clifford_torus and veronese_s4 and the direct surface."""
    for kind in ("clifford_torus", "veronese_s4"):
        c, S, NF = normalized(pipe, kind)
        ds = reconstruct.dual_surface(NF, reconstruct.dual_mu(NF),
                                      reconstruct.classify(NF).max_rank)
        yield f"{kind}:dual", ds["map"], NF
    c, S, NF = normalized(pipe, "clifford_torus")
    yield "clifford_torus:direct", reconstruct.to_sphere_map(S.Y, c), NF


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


def test_direct_surface_gauss_match_is_same_oriented(pipe):
    c, S, NF = normalized(pipe, "clifford_torus")
    yin = reconstruct.to_sphere_map(S.Y, c)
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


def test_enneper_recovers_a_minimal_immersion(pipe):
    c, _, NF = normalized(pipe, "enneper")
    cl = reconstruct.classify(NF)
    st = reconstruct.stereographic(cl.Ymu, cl.constant_vector, c)
    assert st["conformal_residual"] < 100 * c.h**2
    assert st["harmonic_residual"] < 100 * c.h**2


def test_rank2_degenerate_classifies_b1():
    c = Chart(0, 2 * np.pi, 0, 2 * np.pi, 96, 96, "periodic-both")
    F = helpers.rank2_degenerate_frame(c)
    M = maurer_cartan(FrameField(F=F, chart=c))
    NF = reconstruct.NormalizedFrame(F=F, blocks=M, orientation="same",
                                     chart=c)
    cl = reconstruct.classify(NF)
    assert cl.case == "b1"
    assert not cl.has_willmore_surface
    assert "no Willmore surface" in cl.verdict


def test_reduced_frame_classifies_b2ii():
    c = Chart(-1, 1, -1, 1, 64, 64, "open")
    Ff = FrameField(F=helpers.reduced_frame_field(c), chart=c)
    NF = reconstruct.normalize(Ff, tol=1e-3)
    cl = reconstruct.classify(NF)
    assert cl.case == "b2ii"
    assert not cl.has_willmore_surface
    assert "no Willmore surface" in cl.verdict


def test_round_sphere_cannot_be_normalized(pipe):
    c, S, Ff, M = pipe("round_sphere")
    with pytest.raises(spinor.TotallyUmbilicError):
        reconstruct.normalize(Ff, M)
