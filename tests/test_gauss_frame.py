import numpy as np
import pytest

from willmorelab import gauss_frame, surface, zoo
from willmorelab.chart import d_u, d_v, sup_norm, wirtinger
from willmorelab.lorentz import lorentz_inverse, validate_group

import helpers
import oracles
from oracles import metric


def test_frame_is_group_valued(pipe):
    _, _, Ff, _ = pipe("clifford_torus")
    ok, res = validate_group(Ff.F, 1e-9)
    assert np.all(ok)
    assert Ff.group_residual < 1e-10


def test_frame_inverse(pipe):
    c, _, Ff, _ = pipe("enneper")
    err = np.max(np.abs(lorentz_inverse(Ff.F) @ Ff.F - np.eye(5)),
                 axis=(-1, -2))
    # exact wherever the columns are; boundary stencils degrade both alike
    assert sup_norm(err, c.interior_mask(6)) < 100 * c.h**2
    _, _, Fc, _ = pipe("clifford_torus")
    assert np.max(np.abs(lorentz_inverse(Fc.F) @ Fc.F - np.eye(5))) \
        < 1e-12


@pytest.mark.parametrize("kind", ["clifford_torus", "catenoid",
                                  "veronese_s4"])
def test_maurer_cartan_matches_block_formulas(pipe, kind):
    """Numerical F^{-1} d_z F against the closed-form invariant blocks."""
    c, S, _, M = pipe(kind)
    P = oracles.surface_gauge_blocks(surface.invariants(S), c)
    mask = S.chart.interior
    scale = np.max(np.abs(M.full()))
    for got, want in ((M.A1, P.A1), (M.A2, P.A2),
                      (M.B1, P.B1), (M.B2, P.B2)):
        assert sup_norm(got - want, mask) < 100 * c.h**2 * scale, kind


def test_b2_block_relation(pipe):
    _, _, _, M = pipe("veronese_s4")
    assert M.b2_residual < 1e-1
    want = -np.swapaxes(M.B1, -1, -2) @ metric(4)
    assert np.max(np.abs(M.B2 - want)) == pytest.approx(M.b2_residual)


def test_block_assembly_roundtrip(pipe):
    _, _, _, M = pipe("clifford_torus")
    full = M.full()
    assert np.allclose(full, M.k_part() + M.p_part())
    assert np.allclose(full[..., :4, :4], M.A1)
    assert np.allclose(M.a(1, 3), M.A1[..., 0, 2])


def _same_bits(x, y):
    """Equal arrays down to the sign of zero and the payload of NaN."""
    x, y = np.ascontiguousarray(x), np.ascontiguousarray(y)
    return x.shape == y.shape and x.dtype == y.dtype and np.array_equal(
        x.view(np.uint64), y.view(np.uint64))


def test_mc_blocks_are_views_of_one_array(pipe, rng):
    """Every block reads the one real pair (P, Q): writes to a block of P
    and Q reach that block of alpha = (P - iQ)/2 and of full(),
    conjugate() is the blockwise conjugate and k_part() + p_part()
    rebuilds full() exactly."""
    c, _, _, M0 = pipe("veronese_s4")
    M = gauss_frame.MCBlocks(M0.P.copy(), M0.Q.copy(), c)
    assert _same_bits(M.full(), wirtinger(M.P, M.Q, -1))
    for name, rows, cols in (("A1", slice(0, 4), slice(0, 4)),
                             ("A2", slice(4, 6), slice(4, 6)),
                             ("B1", slice(0, 4), slice(4, 6)),
                             ("B2", slice(4, 6), slice(0, 4))):
        shape = M.P[..., rows, cols].shape
        p, q = rng.normal(size=shape), rng.normal(size=shape)
        M.P[..., rows, cols], M.Q[..., rows, cols] = p, q
        new = 0.5 * p - 0.5j * q
        block = getattr(M, name)
        assert np.array_equal(block, new), name
        assert np.array_equal(M.full()[..., rows, cols], new), name
    Mc = M.conjugate()
    assert Mc.P is M.P
    for name in ("A1", "A2", "B1", "B2"):
        assert _same_bits(getattr(Mc, name), np.conj(getattr(M, name)))
    k, p = M.k_part(), M.p_part()
    assert np.array_equal(k + p, M.full())
    assert not np.any(k[..., :4, 4:]) and not np.any(k[..., 4:, :4])
    assert not np.any(p[..., :4, :4]) and not np.any(p[..., 4:, 4:])


@pytest.mark.parametrize("kind", ["enneper", "veronese_s4"])
def test_conjugate_shares_P_and_is_the_conjugate_bit_for_bit(pipe, kind):
    """conjugate() is (P, -Q): it keeps P, and full(), every block and
    a(i, j) equal np.conj of the form's own, signed zeros included."""
    _, _, _, M = pipe(kind)
    Mc = M.conjugate()
    assert Mc.P is M.P and np.shares_memory(Mc.P, M.P)
    assert Mc.b2_residual == M.b2_residual
    assert _same_bits(Mc.full(), np.conj(M.full()))
    for name in ("A1", "A2", "B1", "B2"):
        assert _same_bits(getattr(Mc, name), np.conj(getattr(M, name)))
    for i, j in ((1, 3), (2, 3), (1, 4), (2, 4)):
        assert _same_bits(Mc.a(i, j), np.conj(M.a(i, j)))


def test_willmore_energy_clifford_vs_quadrature_oracle(pipe):
    c, S, _, _ = pipe("clifford_torus", 64)
    got = gauss_frame.willmore_energy(surface.invariants(S), c)
    assert not got["chart_local"]
    spec = zoo.SurfaceSpec("clifford_torus")
    y = zoo.generate(spec, c)[..., 1:]        # back to the unit S^3
    want = oracles.classical_willmore_energy_s3(y, c.hu, c.hv)
    assert got["value"] == pytest.approx(want, rel=5e-3)
    assert got["value"] == pytest.approx(2 * np.pi**2, rel=5e-3)


@pytest.mark.parametrize("R", [np.sqrt(2), 3.0])
def test_willmore_energy_torus_of_revolution_vs_closed_form(R):
    """An oracle that shares no code with the package: the torus of
    revolution with radius ratio R has energy pi^2 R^2 / sqrt(R^2 - 1)
    (Willmore 1965; 2 pi^2 at R = sqrt2).  The relative error at
    N = 32, 64, 128 falls at an observed order in [1.9, 2.1]."""
    spec = zoo.SurfaceSpec("torus_of_revolution", R)
    exact = np.pi**2 * R**2 / np.sqrt(R**2 - 1)
    errs = []
    for N in (32, 64, 128):
        c = zoo.default_chart(spec, N)
        S = surface.build_surface_data(zoo.generate(spec, c), c)
        energy = gauss_frame.willmore_energy(surface.invariants(S), c)
        errs.append(abs(energy["value"] - exact) / exact)
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert errs[-1] < 1e-3, errs
    assert np.all((1.9 <= orders) & (orders <= 2.1)), (errs, orders)


def test_willmore_energy_open_chart_is_flagged(pipe):
    c, S, _, _ = pipe("catenoid")
    assert gauss_frame.willmore_energy(surface.invariants(S), c)[
        "chart_local"]


def test_willmore_residual_zoo_vs_control(pipe):
    c, S, _, _ = pipe("clifford_torus")
    r = sup_norm(surface.willmore_residual(surface.invariants(S), c),
                 c.interior)
    assert r < 1e-10
    ct, St, _, _ = pipe("torus_of_revolution", 48, 3.0)
    rt = sup_norm(surface.willmore_residual(surface.invariants(St), ct),
                  ct.interior)
    assert rt > 0.1


def test_s_willmore_rank(pipe):
    c, S, _, M = pipe("clifford_torus")
    rank, mrank = gauss_frame.s_willmore_rank(M.B1)
    assert mrank == 1
    assert np.all(rank <= 1)
    c2, S2, _, M2 = pipe("round_sphere")
    _, mr0 = gauss_frame.s_willmore_rank(
        M2.B1, tol=max(1e-6, 50 * c2.h**2), mask=S2.chart.interior)
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
    mask = c.interior
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


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_rank_raises_on_a_non_finite_B1(rng, bad):
    """One NaN or inf entry in a rank-2 field is a ValueError naming its
    point, not a rank-0 (totally umbilic) reading."""
    B1 = _threshold_B1(rng, 2, 1e5, 1e-6)       # singular values 1, 0.1
    assert gauss_frame.s_willmore_rank(B1)[1] == 2
    B1[3, 5, 2, 1] = bad
    with pytest.raises(ValueError, match=r"not finite at grid point \(3, 5\)"):
        gauss_frame.s_willmore_rank(B1)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 8])
@pytest.mark.parametrize("scale", ["unit", "graded", "tiny"])
def test_hermitian_eigenvalues_match_lapack(rng, n, scale):
    """The Jacobi eigenvalues on planes are LAPACK's to 16 eps times the
    largest at each point, with no overflow or invalid-value warning, on
    random Hermitian fields with a zero, an identity, a diagonal and a
    rank-1 point among them: of unit scale, graded (D H D with D from
    1e-75 to 1e75, so that off-diagonal entries fall below the last bits
    of the diagonal) and scaled to 1e-300 (squares underflow)."""
    X = rng.normal(size=(48, 64, n, n)) + 1j * rng.normal(size=(48, 64, n, n))
    H = X @ np.swapaxes(X.conj(), -1, -2)
    H[0, 0], H[1, 1], H[2, 2] = 0.0, np.eye(n), np.diag(np.arange(n))
    H[3, 3] = 1.0
    if scale == "graded":
        D = 10.0 ** rng.uniform(-75, 75, size=H.shape[:-1])
        H = D[..., :, None] * H * D[..., None, :]
    elif scale == "tiny":
        H = H * 1e-300
    planes = [np.moveaxis(part, (-2, -1), (0, 1)) for part in (H.real, H.imag)]
    got = np.sort(np.moveaxis(gauss_frame._hermitian_eigvals(*planes), 0, -1),
                  axis=-1)
    want = np.linalg.eigvalsh(H)
    eps = np.finfo(float).eps
    assert np.all(np.max(np.abs(got - want), axis=-1)
                  <= 16 * eps * np.max(np.abs(want), axis=-1))


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


@pytest.mark.parametrize("kind", ["enneper", "veronese_s4"])
def test_maurer_cartan_pair_matches_complex_oracle(pipe, kind):
    """The real pair is the two real products F^{-1} F_u, F^{-1} F_v, and
    full(), k_part() + p_part(), every block and every a(i, j) built from
    it equal the complex product F^{-1} d_z F bit for bit, as does
    b2_residual the sup of |B2 + B1^T I13| on that product; the
    so-defects of P and Q are X_B2 + X_B1^T I13 against the metric."""
    _, _, Ff, M = pipe(kind)
    want = oracles.maurer_cartan_complex(Ff)
    inv = lorentz_inverse(Ff.F)
    assert np.array_equal(M.P, inv @ d_u(Ff.F, M.chart))
    assert np.array_equal(M.Q, inv @ d_v(Ff.F, M.chart))
    assert np.array_equal(M.full(), want)
    assert np.array_equal(M.k_part() + M.p_part(), want)
    for name, rows, cols in (("A1", slice(None, 4), slice(None, 4)),
                             ("A2", slice(4, None), slice(4, None)),
                             ("B1", slice(None, 4), slice(4, None)),
                             ("B2", slice(4, None), slice(None, 4))):
        assert np.array_equal(getattr(M, name), want[..., rows, cols]), name
    for i in range(1, 5):
        for j in range(1, 5):
            assert np.array_equal(M.a(i, j), want[..., i - 1, j - 1])
    defect = want[..., 4:, :4] + np.swapaxes(want[..., :4, 4:], -1, -2) @ \
        metric(4)
    assert M.b2_residual == np.max(np.abs(defect))
    for X, DX in zip((M.P, M.Q), M.so_defects()):
        assert np.array_equal(DX, X[..., 4:, :4] + np.swapaxes(
            X[..., :4, 4:], -1, -2) @ metric(4))


def test_conformal_gauss_metric_is_round(pipe):
    c, S, _, _ = pipe("clifford_torus")
    g = oracles.conformal_gauss_metric(S)
    k2 = surface.invariants(S).k2
    m = S.chart.interior
    assert sup_norm(g["guu"] - k2, m) < 100 * c.h**2
    assert sup_norm(g["gvv"] - k2, m) < 100 * c.h**2
    assert sup_norm(g["guv"], m) < 100 * c.h**2
