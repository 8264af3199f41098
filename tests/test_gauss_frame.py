import numpy as np
import pytest

from willmorelab import gauss_frame, surface, zoo
from willmorelab.chart import DEFAULT_MARGIN, sup_norm
from willmorelab.lorentz import validate_group

import helpers
import oracles


def test_frame_is_group_valued(pipe):
    _, _, Ff, _ = pipe("clifford_torus")
    ok, res = validate_group(Ff.F, 1e-9)
    assert np.all(ok)
    assert Ff.group_residual < 1e-10


def test_frame_inverse(pipe):
    c, _, Ff, _ = pipe("enneper")
    err = np.max(np.abs(Ff.inverse() @ Ff.F - np.eye(5)),
                 axis=(-1, -2))
    # exact wherever the columns are; boundary stencils degrade both alike
    assert sup_norm(err, c.interior_mask(6)) < 100 * c.h**2
    _, _, Fc, _ = pipe("clifford_torus")
    assert np.max(np.abs(Fc.inverse() @ Fc.F - np.eye(5))) < 1e-12


@pytest.mark.parametrize("kind", ["clifford_torus", "catenoid",
                                  "veronese_s4"])
def test_maurer_cartan_matches_block_formulas(pipe, kind):
    """Numerical F^{-1} d_z F against the closed-form invariant blocks."""
    c, S, _, M = pipe(kind)
    P = oracles.surface_gauge_blocks(S)
    mask = S.residual_mask()
    scale = np.max(np.abs(M.full()))
    for got, want in ((M.A1, P.A1), (M.A2, P.A2),
                      (M.B1, P.B1), (M.B2, P.B2)):
        assert sup_norm(got - want, mask) < 100 * c.h**2 * scale, kind


def test_b2_block_relation(pipe):
    _, _, _, M = pipe("veronese_s4")
    assert M.b2_residual < 1e-1
    want = -np.swapaxes(M.B1, -1, -2) @ gauss_frame.I13
    assert np.max(np.abs(M.B2 - want)) == pytest.approx(M.b2_residual)


def test_block_assembly_roundtrip(pipe):
    _, _, _, M = pipe("clifford_torus")
    full = M.full()
    assert np.allclose(full, M.k_part() + M.p_part())
    assert np.allclose(full[..., :4, :4], M.A1)
    assert np.allclose(M.a(1, 3), M.A1[..., 0, 2])


def test_mc_blocks_are_views_of_one_array(pipe, rng):
    """Block writes reach alpha, conjugate() is the blockwise conjugate
    and k_part() + p_part() rebuilds full() exactly."""
    c, _, _, M0 = pipe("veronese_s4")
    M = gauss_frame.MCBlocks(M0.full().copy(), c)
    assert M.full() is M.alpha
    for name, rows, cols in (("A1", slice(0, 4), slice(0, 4)),
                             ("A2", slice(4, 6), slice(4, 6)),
                             ("B1", slice(0, 4), slice(4, 6)),
                             ("B2", slice(4, 6), slice(0, 4))):
        block = getattr(M, name)
        new = rng.normal(size=block.shape) + 1j * rng.normal(size=block.shape)
        block[...] = new
        assert np.array_equal(M.alpha[..., rows, cols], new), name
    Mc = M.conjugate()
    for name in ("A1", "A2", "B1", "B2"):
        assert np.array_equal(getattr(Mc, name), np.conj(getattr(M, name)))
    k, p = M.k_part(), M.p_part()
    assert np.array_equal(k + p, M.full())
    assert not np.any(k[..., :4, 4:]) and not np.any(k[..., 4:, :4])
    assert not np.any(p[..., :4, :4]) and not np.any(p[..., 4:, 4:])


def test_willmore_energy_clifford_vs_quadrature_oracle(pipe):
    c, S, _, _ = pipe("clifford_torus", 64)
    got = gauss_frame.willmore_energy(S)
    assert not got["chart_local"]
    spec = zoo.SurfaceSpec("clifford_torus")
    y = zoo.generate(spec, c)[..., 1:]        # back to the unit S^3
    want = oracles.classical_willmore_energy_s3(y, c.hu, c.hv)
    assert got["value"] == pytest.approx(want, rel=5e-3)
    assert got["value"] == pytest.approx(2 * np.pi**2, rel=5e-3)


def test_willmore_energy_open_chart_is_flagged(pipe):
    _, S, _, _ = pipe("catenoid")
    assert gauss_frame.willmore_energy(S)["chart_local"]


def test_willmore_residual_zoo_vs_control(pipe):
    c, S, _, _ = pipe("clifford_torus")
    r = sup_norm(surface.willmore_residual(S), S.residual_mask())
    assert r < 1e-10
    ct, St, _, _ = pipe("torus_of_revolution", 48, 3.0)
    rt = sup_norm(surface.willmore_residual(St), St.residual_mask())
    assert rt > 0.1


def test_s_willmore_rank(pipe):
    c, S, _, M = pipe("clifford_torus")
    rank, mrank = gauss_frame.s_willmore_rank(M.B1)
    assert mrank == 1
    assert np.all(rank <= 1)
    c2, S2, _, M2 = pipe("round_sphere")
    _, mr0 = gauss_frame.s_willmore_rank(
        M2.B1, tol=max(1e-6, 50 * c2.h**2), mask=S2.residual_mask())
    assert mr0 == 0


def _threshold_B1(rng, n, factor, tol, shape=(6, 7)):
    """B1 field with singular values (1, factor * tol, 0...) at every
    point, in random unitary bases."""
    def unitary(k):
        z = rng.normal(size=shape + (k, k)) + 1j * rng.normal(
            size=shape + (k, k))
        return np.linalg.qr(z)[0]

    s = np.zeros(n)
    s[:2] = 1.0, factor * tol
    return (unitary(4)[..., :, :n] * s) @ unitary(n)


def _rank_cases(pipe, rng, case):
    """(B1, [(tol, mask, expected max rank or None)]) for one case."""
    if case.startswith("threshold"):
        _, n, factor = case.split(":")
        tol = 1e-6
        B1 = _threshold_B1(rng, int(n), float(factor), tol)
        return B1, [(tol, None, 2 if float(factor) > 1 else 1)]
    if case == "hexagonal_torus_s5":
        raw, c = helpers.hexagonal_torus_patch(48)
        M = gauss_frame.maurer_cartan(gauss_frame.build_frame(
            surface.build_surface_data(raw, c)))
    else:
        kind, N = case.split(":")
        param = 3.0 if kind == "torus_of_revolution" else None
        c, _, _, M = pipe(kind, int(N), param)
    mask = c.interior_mask(DEFAULT_MARGIN)
    return M.B1, [(tol, m, None) for tol in (1e-6, max(1e-6, 50 * c.h**2))
                  for m in (None, mask)]


@pytest.mark.parametrize(
    "case", [f"{k}:{N}" for k in zoo.KINDS for N in (24, 48)]
    + ["hexagonal_torus_s5"]
    + [f"threshold:{n}:{x}" for n in (2, 3) for x in (1.01, 0.99)])
def test_rank_matches_svd_oracle(pipe, rng, case):
    """The rank from the eigenvalues of B1^H B1 is the per-point SVD's:
    the same rank field and maximal rank, on the zoo at N=24 and 48 with
    the analyze and classify tolerances, on a surface in S^5 (n = 3),
    and where a second singular value sits 1% off the threshold."""
    B1, checks = _rank_cases(pipe, rng, case)
    for tol, mask, expected in checks:
        rank, mrank = gauss_frame.s_willmore_rank(B1, tol=tol, mask=mask)
        want, wmrank = oracles.svd_rank(B1, tol=tol, mask=mask)
        assert np.array_equal(rank, want), (tol, mask is None)
        assert mrank == wmrank, (tol, mask is None)
        if expected is not None:
            assert mrank == expected and np.all(rank == expected)


def test_b_operator_exchanges_bundles(pipe):
    """F alpha_p F^{-1} maps the normal bundle into the sphere bundle."""
    c, S, Ff, M = pipe("clifford_torus")
    B = oracles.b_operator(Ff, M)
    img = np.einsum("...ij,...kj->...ki", B, S.psi.astype(complex))
    # the image must be Minkowski-orthogonal to every normal direction
    from willmorelab.lorentz import inner
    ip = inner(img[..., :, None, :], S.psi[..., None, :, :])
    assert np.max(np.abs(ip)) < 1e-10


@pytest.mark.parametrize("kind", ["enneper", "veronese_s4"])
def test_maurer_cartan_is_the_complex_product(pipe, kind):
    """Two real products combined into d_z give F^{-1} d_z F bit for bit."""
    _, _, Ff, M = pipe(kind)
    assert np.array_equal(M.full(), oracles.maurer_cartan_complex(Ff))


def test_conformal_gauss_metric_is_round(pipe):
    c, S, _, _ = pipe("clifford_torus")
    g = oracles.conformal_gauss_metric(S)
    k2 = S.k2
    m = S.residual_mask()
    assert sup_norm(g["guu"] - k2, m) < 100 * c.h**2
    assert sup_norm(g["gvv"] - k2, m) < 100 * c.h**2
    assert sup_norm(g["guv"], m) < 100 * c.h**2
