from dataclasses import replace

import numpy as np
import pytest

from willmorelab import gauss_frame, lorentz, surface, zoo
from willmorelab.chart import Chart, d_u, d_v, sup_norm, wirtinger
from willmorelab.lorentz import lorentz_inverse, validate_group

import helpers
import oracles
from oracles import metric


def test_frame_is_group_valued(pipe):
    _, S, F, _ = pipe("clifford_torus")
    ok, res = validate_group(F, 1e-9)
    assert np.all(ok)
    F2, residual = gauss_frame.build_frame(S)
    assert np.array_equal(F2, F)
    assert residual == float(np.max(res)) < 1e-10


def test_frame_inverse(pipe):
    c, _, F, _ = pipe("enneper")
    err = np.max(np.abs(lorentz_inverse(F) @ F - np.eye(5)), axis=(-1, -2))
    # exact wherever the columns are; boundary stencils degrade both alike
    assert sup_norm(err, c) < 100 * c.h**2
    _, _, Fc, _ = pipe("clifford_torus")
    assert np.max(np.abs(lorentz_inverse(Fc) @ Fc - np.eye(5))) < 1e-12


@pytest.mark.parametrize("kind", ["clifford_torus", "catenoid",
                                  "veronese_s4"])
def test_maurer_cartan_matches_block_formulas(pipe, kind):
    """Numerical F^{-1} d_z F against the closed-form invariant blocks."""
    c, S, _, M = pipe(kind)
    P = oracles.surface_gauge_blocks(surface.invariants(S), c)
    scale = np.max(np.abs(M.full()))
    for got, want in ((M.A1, P.A1), (M.A2, P.A2), (M.B1, P.B1),
                      (oracles.B2(M), oracles.B2(P))):
        assert sup_norm(got - want, c) < 100 * c.h**2 * scale, kind


def test_b2_block_relation(pipe):
    c, _, F, M = pipe("veronese_s4")
    _, b2 = gauss_frame.frame_diagnostics(F, c)
    assert b2 < 1e-1
    want = -np.swapaxes(M.B1, -1, -2) @ metric(4)
    assert np.max(np.abs(oracles.B2(M) - want)) == pytest.approx(b2)


def test_block_assembly_roundtrip(pipe):
    _, _, _, M = pipe("clifford_torus")
    full = M.full()
    assert np.allclose(full, M.k_part() + M.p_part())
    assert np.allclose(full[..., :4, :4], M.A1)
    assert np.allclose(M.a(1, 3), M.A1[..., 0, 2])


def test_mc_blocks_are_views_of_one_array(pipe, rng):
    """Every block reads the one real pair (P, Q): writes to a block of P
    and Q reach that block of alpha = (P - iQ)/2 and of full(), the
    form in the conjugate coordinate (sign +1) is the blockwise
    conjugate and k_part() + p_part() rebuilds full() exactly."""
    c, _, _, M0 = pipe("veronese_s4")
    M = gauss_frame.MCBlocks(M0.P.copy(), M0.Q.copy(), c)
    assert helpers.same_bits(M.full(), wirtinger(M.P, M.Q, -1))
    news = []
    for rows, cols in ((slice(0, 4), slice(0, 4)), (slice(4, 6), slice(4, 6)),
                       (slice(0, 4), slice(4, 6)), (slice(4, 6), slice(0, 4))):
        shape = M.P[..., rows, cols].shape
        p, q = rng.normal(size=shape), rng.normal(size=shape)
        M.P[..., rows, cols], M.Q[..., rows, cols] = p, q
        news.append(0.5 * p - 0.5j * q)
        assert np.array_equal(M.full()[..., rows, cols], news[-1])
    for block, new in zip((M.A1, M.A2, M.B1, oracles.B2(M)), news):
        assert np.array_equal(block, new)
    Mc = replace(M, sign=1)
    assert Mc.P is M.P and Mc.Q is M.Q
    for got, want in ((Mc.A1, M.A1), (Mc.A2, M.A2), (Mc.B1, M.B1),
                      (oracles.B2(Mc), oracles.B2(M))):
        assert helpers.same_bits(got, np.conj(want))
    k, p = M.k_part(), M.p_part()
    assert np.array_equal(k + p, M.full())
    assert not np.any(k[..., :4, 4:]) and not np.any(k[..., 4:, :4])
    assert not np.any(p[..., :4, :4]) and not np.any(p[..., 4:, 4:])


@pytest.mark.parametrize("kind", ["enneper", "veronese_s4"])
def test_conjugate_shares_P_and_is_the_conjugate_bit_for_bit(pipe, kind):
    """The form set to the conjugate coordinate (sign +1, as `normalize`
    sets it) shares P and Q, and full(), every block and a(i, j) equal
    np.conj of the form's own, signed zeros included; setting sign -1
    again gives the form back."""
    _, _, _, M = pipe(kind)
    Mc = replace(M, sign=1)
    assert Mc.P is M.P and Mc.Q is M.Q
    assert (M.sign, Mc.sign) == (-1, 1)
    assert helpers.same_bits(replace(Mc, sign=-1).full(), M.full())
    for DX, DY in zip(Mc.so_defects(), M.so_defects()):
        assert helpers.same_bits(DX, DY)
    assert helpers.same_bits(Mc.full(), np.conj(M.full()))
    for got, want in ((Mc.A1, M.A1), (Mc.A2, M.A2), (Mc.B1, M.B1),
                      (oracles.B2(Mc), oracles.B2(M))):
        assert helpers.same_bits(got, np.conj(want))
    for i, j in ((1, 3), (2, 3), (1, 4), (2, 4)):
        assert helpers.same_bits(Mc.a(i, j), np.conj(M.a(i, j)))


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
    r = sup_norm(surface.willmore_residual(surface.invariants(S), c), c)
    assert r < 1e-10
    ct, St, _, _ = pipe("torus_of_revolution", 48, 3.0)
    rt = sup_norm(surface.willmore_residual(surface.invariants(St), ct), ct)
    assert rt > 0.1


def test_s_willmore_rank(pipe, rng):
    c, S, _, M = pipe("clifford_torus")
    rank, mrank = gauss_frame.s_willmore_rank(M)
    assert mrank == 1
    assert np.all(rank <= 1)
    c2, S2, _, M2 = pipe("round_sphere")
    _, mr0 = gauss_frame.s_willmore_rank(M2, tol=max(1e-6, 50 * c2.h**2))
    assert mr0 == 0
    # the default tolerance, analyze's, is 1e-6: a second singular value
    # 1% above it counts
    B1 = _threshold_B1(rng, 2, 1.01, 1e-6)
    assert gauss_frame.s_willmore_rank(
        helpers.pair_with_B1(B1, THRESHOLD_CHART))[1] == 2


# a doubly periodic chart of the threshold fields' shape: its interior
# is the whole grid
THRESHOLD_CHART = Chart(0.0, 1.0, 0.0, 1.0, 6, 7, "periodic-both")


def _threshold_B1(rng, n, factor, tol, shape=THRESHOLD_CHART.shape):
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
    """(form M, its frame F or None, [(tol, expected max rank or None)])
    for one case; a threshold case is a form with only its B1 block."""
    if case.startswith("threshold"):
        _, n, factor = case.split(":")
        tol = 1e-6
        B1 = _threshold_B1(rng, int(n), float(factor), tol)
        return helpers.pair_with_B1(B1, THRESHOLD_CHART), None, \
            [(tol, 2 if float(factor) > 1 else 1)]
    if case == "hexagonal_torus_s5":
        raw, c = helpers.hexagonal_torus_patch(48)
        F, _ = gauss_frame.build_frame(surface.build_surface_data(raw, c))
        M = gauss_frame.maurer_cartan(F, c)
    else:
        kind, N = case.split(":")
        param = 3.0 if kind == "torus_of_revolution" else None
        c, _, F, M = pipe(kind, int(N), param)
    return M, F, [(tol, None) for tol in (1e-6, max(1e-6, 50 * c.h**2))]


@pytest.mark.parametrize(
    "case", [f"{k}:{N}" for k in zoo.KINDS for N in (24, 48)]
    + ["hexagonal_torus_s5"]
    + [f"threshold:{n}:{x}" for n in (2, 3) for x in (1.01, 0.99)])
def test_rank_matches_svd_oracle(pipe, rng, case):
    """The rank from the eigenvalues of B1^H B1 is the per-point SVD's:
    the same rank field and maximal rank, on the zoo at N=24 and 48 with
    the analyze and classify tolerances, on a surface in S^5 (n = 3),
    and where a second singular value sits 1% off the threshold; the
    max rank of analyze's pass over the frame (`frame_diagnostics`) is
    the same."""
    M, F, checks = _rank_cases(pipe, rng, case)
    c = M.chart
    for tol, expected in checks:
        rank, mrank = gauss_frame.s_willmore_rank(M, tol=tol)
        want, wmrank = oracles.svd_rank(M.B1, tol=tol, mask=c.interior)
        assert np.array_equal(rank, want), tol
        assert mrank == wmrank, tol
        if F is not None:
            assert gauss_frame.frame_diagnostics(F, c, tol)[0] == wmrank
        if expected is not None:
            assert mrank == expected and np.all(rank == expected)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_rank_raises_on_a_non_finite_B1(rng, bad):
    """One NaN or inf entry in a rank-2 field is a ValueError naming its
    point, not a rank-0 (totally umbilic) reading."""
    B1 = _threshold_B1(rng, 2, 1e5, 1e-6)       # singular values 1, 0.1
    M = helpers.pair_with_B1(B1, THRESHOLD_CHART)
    assert gauss_frame.s_willmore_rank(M)[1] == 2
    M.P[3, 5, 2, 5] = bad
    with pytest.raises(ValueError, match=r"not finite at grid point \(3, 5\)"):
        gauss_frame.s_willmore_rank(M)


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
    c, S, F, M = pipe("clifford_torus")
    B = oracles.b_operator(F, M)
    img = np.einsum("...ij,...kj->...ki", B, S.psi.astype(complex))
    # the image must be Minkowski-orthogonal to every normal direction
    from willmorelab.lorentz import inner
    ip = inner(img[..., :, None, :], S.psi[..., None, :, :])
    assert np.max(np.abs(ip)) < 1e-10


@pytest.mark.parametrize("kind", ["enneper", "veronese_s4"])
def test_maurer_cartan_is_the_complex_product(pipe, kind):
    """Two real products combined into d_z give F^{-1} d_z F bit for bit."""
    c, _, F, M = pipe(kind)
    assert np.array_equal(M.full(), oracles.maurer_cartan_complex(F, c))


@pytest.mark.parametrize("kind", ["enneper", "veronese_s4"])
def test_maurer_cartan_pair_matches_complex_oracle(pipe, kind):
    """The real pair is the two real products F^{-1} F_u, F^{-1} F_v, and
    full(), k_part() + p_part(), every block and every a(i, j) built from
    it equal the complex product F^{-1} d_z F bit for bit, as does
    analyze's so-defect sup (`frame_diagnostics`) the sup of
    |B2 + B1^T I13| on that product; the so-defects of P and Q are
    X_B2 + X_B1^T I13 against the metric."""
    c, _, F, M = pipe(kind)
    want = oracles.maurer_cartan_complex(F, c)
    inv = lorentz_inverse(F)
    assert np.array_equal(M.P, inv @ d_u(F, c))
    assert np.array_equal(M.Q, inv @ d_v(F, c))
    assert np.array_equal(M.full(), want)
    assert np.array_equal(M.k_part() + M.p_part(), want)
    for got, rows, cols in ((M.A1, slice(None, 4), slice(None, 4)),
                            (M.A2, slice(4, None), slice(4, None)),
                            (M.B1, slice(None, 4), slice(4, None)),
                            (oracles.B2(M), slice(4, None), slice(None, 4))):
        assert np.array_equal(got, want[..., rows, cols]), (rows, cols)
    for i in range(1, 5):
        for j in range(1, 5):
            assert np.array_equal(M.a(i, j), want[..., i - 1, j - 1])
    defect = want[..., 4:, :4] + np.swapaxes(want[..., :4, 4:], -1, -2) @ \
        metric(4)
    assert gauss_frame.frame_diagnostics(F, c)[1] == np.max(np.abs(defect))
    for X, DX in zip((M.P, M.Q), M.so_defects()):
        assert np.array_equal(DX, X[..., 4:, :4] + np.swapaxes(
            X[..., :4, 4:], -1, -2) @ metric(4))


def test_conformal_gauss_metric_is_round(pipe):
    c, S, _, _ = pipe("clifford_torus")
    g = oracles.conformal_gauss_metric(S)
    k2 = surface.invariants(S).k2
    assert sup_norm(g["guu"] - k2, c) < 100 * c.h**2
    assert sup_norm(g["gvv"] - k2, c) < 100 * c.h**2
    assert sup_norm(g["guv"], c) < 100 * c.h**2


def _chart_frame(kind, shape):
    """(chart, frame) of a zoo surface on its default chart resized to
    `shape`, or of the hexagonal torus in S^5 (n = 3) at shape[0]^2."""
    if kind == "hexagonal_torus_s5":
        raw, c = helpers.hexagonal_torus_patch(shape[0])
    else:
        spec = zoo.SurfaceSpec(kind)
        c = replace(zoo.default_chart(spec, shape[0]), Nv=shape[1])
        raw = zoo.generate(spec, c)
    F, _ = gauss_frame.build_frame(surface.build_surface_data(raw, c))
    return c, F


@pytest.mark.parametrize("kind", ["enneper", "veronese_s4", "catenoid"])
def test_frame_diagnostics_are_those_of_the_whole_pair(pipe, kind):
    """analyze's pass gives bit for bit the max rank of the whole pair's
    B1 (`s_willmore_rank` on `maurer_cartan`) and the sup of its
    so-defect from the complex blocks (`oracles.b2_residual`)."""
    c, _, F, M = pipe(kind)
    assert gauss_frame.frame_diagnostics(F, c) == (
        gauss_frame.s_willmore_rank(M)[1], oracles.b2_residual(M))


@pytest.mark.parametrize("kind,shape", [("enneper", (37, 48)),
                                        ("veronese_s4", (37, 48)),
                                        ("catenoid", (96, 96)),
                                        ("hexagonal_torus_s5", (48, 48))])
def test_frame_diagnostics_do_not_depend_on_workers_or_blocks(monkeypatch,
                                                              kind, shape):
    """The per-point singular values, finite mask and so-defect maxima of
    analyze's pass (`_point_diagnostics`), and its report, are bit for
    bit the same on one worker and on two, with blocks of 1024 points
    and of PLANE_BLOCK, on a 37 x 48 open chart and on catenoid's 96 x 96
    chart, periodic in u, whose u-stencils wrap across the first and
    last block, and on the hexagonal torus in S^5, whose 3 x 3 Grams
    take several Jacobi sweeps; and so are the ranks of
    `s_willmore_rank`'s pass over the whole pair."""
    c, F = _chart_frame(kind, shape)
    M = gauss_frame.maurer_cartan(F, c)
    runs = []
    for workers in (1, 2):
        for block in (1024, lorentz.PLANE_BLOCK):
            helpers.force_workers(monkeypatch, workers)
            monkeypatch.setattr(lorentz, "PLANE_BLOCK", block)
            runs.append((*gauss_frame._point_diagnostics(F, c),
                         gauss_frame.frame_diagnostics(F, c),
                         gauss_frame.s_willmore_rank(M)[0]))
            monkeypatch.undo()
    sv, finite, defect, report, rank = runs[0]
    assert sv.shape == (F.shape[-1] - 4,) + c.shape and np.all(finite)
    assert np.array_equal(rank, gauss_frame._max_rank(sv, finite, c,
                                                      1e-6)[0])
    for got in runs[1:]:
        for x, y in zip(got, runs[0]):
            assert np.array_equal(x, y)


@pytest.mark.parametrize("point,moves", [((0, 20), False), ((36, 20), False),
                                         ((18, 0), False), ((18, 47), False),
                                         ((18, 20), True)])
def test_frame_diagnostics_rank_reads_the_interior_only(monkeypatch, point,
                                                        moves):
    """On veronese_s4's open 37 x 48 chart with classify's tolerance 50h^2
    the max rank of analyze's pass reads 1.  A B1 of two singular values
    each half the chart's largest, planted at one point of the block's
    pair, leaves it 1 on an open edge line and makes it 2 inside the
    interior; a pass that reduced the whole grid would read 2 in every
    case.  The so-defect sup is taken over the whole grid, edges
    included, as analyze has always reported it, so it moves in every
    case."""
    c, F = _chart_frame("veronese_s4", (37, 48))
    tol = 50 * c.h**2
    M = gauss_frame.maurer_cartan(F, c)
    scale = np.max(np.linalg.svd(M.B1, compute_uv=False))
    base = gauss_frame.frame_diagnostics(F, c, tol)
    assert base[0] == 1
    pair_rows = gauss_frame._pair_rows
    U = np.linalg.qr(np.random.default_rng(1).normal(size=(4, 2)))[0]

    def planted(F, c, rows, out=None):
        P, Q = pair_rows(F, c, rows, out)
        start, stop = (0, c.Nu) if rows is ... else rows.indices(c.Nu)[:2]
        if start <= point[0] < stop:
            at = (point[0] - start, point[1])
            P[at][:4, 4:], Q[at][:4, 4:] = scale * U, 0.0
        return P, Q

    monkeypatch.setattr(gauss_frame, "_pair_rows", planted)
    helpers.force_workers(monkeypatch, 2)
    rank, b2 = gauss_frame.frame_diagnostics(F, c, tol)
    assert c.interior[point] == moves
    assert rank == (2 if moves else 1)
    assert b2 > 10 * base[1]


def test_frame_diagnostics_name_the_first_non_finite_point(monkeypatch):
    """A frame with NaN at two points in different row blocks, run on two
    workers, raises the ValueError of the rank naming the first point
    where B1 is not finite in grid order, (4, 9): the u-stencil of the
    point above the NaN at (5, 9) reads it, whichever block ends
    first."""
    c, F = _chart_frame("enneper", (64, 64))
    F = F.copy()
    F[5, 9, 1, 4] = F[50, 3, 0, 0] = np.nan
    helpers.force_workers(monkeypatch, 2)
    monkeypatch.setattr(lorentz, "PLANE_BLOCK", 1024)
    assert len(lorentz.row_blocks(c.shape, 512)) == 8
    with pytest.raises(ValueError, match=r"not finite at grid point \(4, 9\)"):
        gauss_frame.frame_diagnostics(F, c)
