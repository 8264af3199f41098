import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from willmorelab import chart, gauss_frame, harmonic, lorentz, surface, zoo
from willmorelab.chart import Chart, d_u, d_v, sup_norm

import helpers
import oracles
from oracles import metric


def test_default_lambda_samples_on_unit_circle():
    for lam in harmonic.DEFAULT_LAMBDAS:
        assert abs(abs(lam) - 1.0) < 1e-15
    assert len(harmonic.DEFAULT_LAMBDAS) == 4


def test_flatness_sweep_rejects_off_circle_lambda(pipe):
    _, _, _, M = pipe("clifford_torus")
    for lam in (0.5, np.nan):
        with pytest.raises(ValueError):
            harmonic.harmonicity(M, (1.0, lam))


def test_extend_at_lambda_one_is_alpha(pipe):
    """The full-matrix oracle's alpha_lambda is alpha itself at lambda = 1."""
    _, _, _, M = pipe("clifford_torus")
    E = oracles.extend(M, 1.0)
    assert np.allclose(E.P, M.full())
    assert np.allclose(E.Q, np.conj(M.full()))
    with pytest.raises(ValueError):
        oracles.extend(M, 0.5)


ORACLE_LAMBDAS = harmonic.DEFAULT_LAMBDAS + (np.exp(0.3j), np.exp(2.5j), -1j)
ORACLE_SURFACES = (("enneper", None), ("clifford_torus", None),
                   ("veronese_s4", None), ("torus_of_revolution", 3.0))


def _oracle_sweep(M):
    return [oracles.flatness_residual(oracles.extend(M, lam))
            for lam in ORACLE_LAMBDAS]


def _miss(sweep, ref):
    """Largest absolute distance of the sup from the oracle's."""
    return max(abs(a["sup"] - b["sup"]) for a, b in zip(sweep, ref))


@pytest.mark.parametrize("kind,param", ORACLE_SURFACES)
def test_flatness_sweep_matches_full_matrix_oracle(pipe, kind, param):
    """The Laurent-coefficient sweep equals the full-matrix curvature.

    Open (enneper), periodic-both (clifford_torus), codimension 2
    (veronese_s4) and the non-Willmore control, where R+ is O(1); the
    lambda samples include ones with no symmetry under conjugation.
    """
    _, _, _, M = pipe(kind, 48, param)
    got = harmonic.harmonicity(M, ORACLE_LAMBDAS)["flatness"]
    ref = _oracle_sweep(M)
    assert [r["lambda"] for r in got] == [complex(lam)
                                          for lam in ORACLE_LAMBDAS]
    assert _miss(got, ref) <= 1e-12, kind


def _plus_blocks(K, M):
    """R+ as its (B1, B2) complex blocks, from the flat real entries."""
    n = M.P.shape[-1] - 4
    plus = K.plus_re + 1j * K.plus_im
    return (plus[..., :4 * n].reshape(M.chart.shape + (4, n)),
            plus[..., 4 * n:].reshape(M.chart.shape + (n, 4)))


def _oracle_case(pipe, case):
    if case == "hexagonal_torus_s5":
        raw, c = helpers.hexagonal_torus_patch(48)
        F, _ = gauss_frame.build_frame(surface.build_surface_data(raw, c))
        return gauss_frame.maurer_cartan(F, c)
    kind, _, param = case.partition(":")
    return pipe(kind, 48, float(param) if param else None)[3]


@pytest.mark.parametrize("case", ["enneper", "clifford_torus", "veronese_s4",
                                  "torus_of_revolution:3",
                                  "hexagonal_torus_s5"])
def test_real_curvature_matches_complex_block_oracle(pipe, case):
    """W, both blocks of R+ and the two A-lines from (K, H), the row-block
    kernel's coefficients over the whole grid (`helpers.loop_curvature`),
    equal the complex-block form, and so does each line's sup in
    `harmonic.harmonicity`, B1_line's from R+'s planes, n = 1 (open,
    periodic, control), 2 and 3.

    The tolerance is 1e-13 times the field's max, or times max |alpha|^2
    where that is larger: clifford_torus's fields are 1e-14 cancellations
    of O(1) products, and both forms round them differently.
    """
    M = _oracle_case(pipe, case)
    K = helpers.loop_curvature(M)
    W, plus, lines = oracles.loop_curvature_complex(M)
    a2 = np.max(np.abs(M.full())) ** 2
    pairs = list(zip(K.W, W)) + list(zip(_plus_blocks(K, M), plus)) \
        + [(K.lines[name], lines[name]) for name in K.lines]
    assert sorted(K.lines) == ["A1_line", "A2_line"]
    for got, ref in pairs:
        assert got.shape == ref.shape
        scale = max(np.max(np.abs(ref)), a2)
        assert np.max(np.abs(got - ref)) <= 1e-13 * scale, case
    sups = harmonic.harmonicity(M)["harmonic"]
    assert list(sups) == list(lines)
    for name, ref in lines.items():
        want = oracles.sup_by_nested_max(np.abs(ref), M.chart.interior)
        assert abs(sups[name] - want) <= 1e-13 * max(want, a2), (case, name)


def test_flatness_oracle_rejects_broken_curvatures(pipe):
    """A wrong sign on R- or a dropped [p, conj p] misses by O(1).

    On the control torus at N=48 the two mutants miss the oracle's sup
    by 1.8 and 1.1, against 2.2e-16 for the sweep (the kernel's
    reduction on its whole-grid coefficients, `helpers.sweep`).
    """
    c, _, _, M = pipe("torus_of_revolution", 48, 3.0)
    K = helpers.loop_curvature(M)
    ref = _oracle_sweep(M)
    assert _miss(helpers.sweep(K, c, ORACLE_LAMBDAS), ref) <= 1e-12
    # R- = +conj(R+) turns 2i Im(lam R+) into 2 Re(lam R+) = 2 Im(lam iR+):
    # R+ -> iR+ swaps the roles of H and K
    wrong_sign = replace(K, plus_re=-K.plus_im, plus_im=K.plus_re)
    # without the p-p part of [P, Q] in K_k, W = -K_k/4 loses
    # -(P_B1 Q_B2 - Q_B1 P_B2)/4 and its B2-B1 counterpart
    P, Q = M.P, M.Q                                   # alpha = (P - iQ)/2
    P1, P2 = P[..., :4, 4:], P[..., 4:, :4]
    Q1, Q2 = Q[..., :4, 4:], Q[..., 4:, :4]
    W1, W2 = K.W
    no_pp = replace(K, W=(W1 + 0.25 * (P1 @ Q2 - Q1 @ P2),
                          W2 + 0.25 * (P2 @ Q1 - Q2 @ P1)))
    for mutant in (wrong_sign, no_pp):
        assert _miss(helpers.sweep(mutant, c, ORACLE_LAMBDAS), ref) > 0.1


def test_lambda_one_reads_the_maurer_cartan_defect_alone(pipe):
    """With the tension H zeroed, lambda = +-1 is bit for bit unchanged,
    and on the control torus lambda = i falls to at most lambda = 1: the
    flatness(i)/flatness(1) harmonicity meter."""
    c, _, _, M = pipe("torus_of_revolution", 48, 3.0)
    K = helpers.loop_curvature(M)
    lams = (1.0, -1.0, 1j)
    full = helpers.sweep(K, c, lams)
    assert full == harmonic.harmonicity(M, lams)["flatness"]
    no_h = helpers.sweep(replace(K, plus_re=np.zeros_like(K.plus_re)), c,
                         lams)
    assert full[:2] == no_h[:2]
    assert full[2]["sup"] > 0.1                # the control's tension
    assert no_h[2]["sup"] <= no_h[0]["sup"] < 100 * c.h**2


def test_harmonic_lines_share_the_curvature_blocks(pipe):
    """B1_line's sup is bit for bit that of conj of R+'s B1 block; A1/A2
    lines differ from R0 by the O(h^2) so-defect of B2."""
    c, _, _, M = pipe("enneper")
    K = helpers.loop_curvature(M)
    assert harmonic.harmonicity(M)["harmonic"]["B1_line"] \
        == sup_norm(np.conj(_plus_blocks(K, M)[0]), c)
    gap = max(np.max(np.abs(K.lines["A1_line"] - K.W[0])),
              np.max(np.abs(K.lines["A2_line"] - K.W[1])))
    assert gap <= 10 * oracles.b2_residual(M) * np.max(np.abs(M.B1)) + 1e-14


@pytest.mark.parametrize("kind", ["enneper", "veronese_s4"])
def test_loop_curvature_reads_P_and_Q_without_copies(pipe, monkeypatch,
                                                     kind):
    """Per row block (ten blocks of five rows here, on two workers), the
    four stencils are Q's u-partial and P's v-partial (K), then P's
    u-partial and Q's v-partial (H), of that block's rows, read from M.Q
    and M.P themselves; the so-defects are taken from the block's rows
    of M.P and M.Q as views, with no copy, one of each, P's first, by
    `harmonic.harmonicity`'s pass.  The blocks run in any order, so each
    call is keyed by its rows.  No whole-grid stencil and no whole-grid
    so-defect is taken, and no complex form is assembled."""
    c, _, _, M = pipe(kind)
    monkeypatch.setattr(lorentz, "PLANE_BLOCK", 10 * c.Nv)
    helpers.force_workers(monkeypatch, 2)
    blocks = lorentz.row_blocks(c.shape, 5 * c.Nv)
    assert len(blocks) == 10
    partials, defects = {}, {}
    defect, partial = gauss_frame._so_defect, harmonic.partial_rows

    def first_row(X, W):
        """The row of W where its view X starts."""
        return (X.__array_interface__["data"][0]
                - W.__array_interface__["data"][0]) // W.strides[0]

    def spy_defect(X):
        W = M.P if X.base is M.P else M.Q
        defects.setdefault(first_row(X, W), []).append((X, W))
        return defect(X)

    def spy_partial(f, ch, axis, rows):
        partials.setdefault((rows.start, rows.stop), []).append((f, axis))
        return partial(f, ch, axis, rows)
    monkeypatch.setattr(gauss_frame, "_so_defect", spy_defect)
    monkeypatch.setattr(harmonic, "partial_rows", spy_partial)
    assert not hasattr(harmonic, "d_u") and not hasattr(harmonic, "d_v")
    diff = chart._diff_axis

    def rows_only(f, h, axis, periodic, rows=None):
        assert rows is not None, "a whole-grid stencil"
        return diff(f, h, axis, periodic, rows)
    monkeypatch.setattr(chart, "_diff_axis", rows_only)

    def no_full(self):
        raise AssertionError("harmonicity assembled the complex form")
    monkeypatch.setattr(gauss_frame.MCBlocks, "full", no_full)
    harmonic.harmonicity(M)
    assert sorted(partials) == [(r.start, r.stop) for r in blocks]
    want = [(M.Q, 0), (M.P, 1), (M.P, 0), (M.Q, 1)]
    for rows, calls in partials.items():
        assert len(calls) == 4, rows
        for (f, axis), (X, ax) in zip(calls, want):
            assert f is X and axis == ax, rows
    assert sorted(defects) == [r.start for r in blocks]
    for rows in blocks:
        pair = defects[rows.start]
        assert len(pair) == 2, rows
        assert pair[0][1] is M.P and pair[1][1] is M.Q, rows
        for D, W in pair:
            assert D.shape == W[rows].shape
            assert D.base is W and np.shares_memory(D, W[rows])


def _mc_blocks(spec, c):
    F, _ = gauss_frame.build_frame(
        surface.build_surface_data(zoo.generate(spec, c), c))
    return gauss_frame.maurer_cartan(F, c)


def _curvature_fields(K):
    return [*K.W, K.plus_re, K.plus_im,
            *(K.lines[name] for name in sorted(K.lines))]


@pytest.mark.parametrize("kind", ["enneper", "veronese_s4", "catenoid"])
def test_loop_curvature_does_not_depend_on_the_block_layout(monkeypatch,
                                                            kind):
    """On a 37 x 48 chart, every whole-grid coefficient of the row-block
    kernel (`helpers.loop_curvature`), every per-point maximum of
    `harmonic.harmonicity`'s pass and every sup it reports is bit for
    bit the one-block result with row blocks of one row, of five rows
    (the last block two rows short) and of one row longer than
    PLANE_BLOCK.  On
    catenoid's chart, periodic in u, the wrap rows of K's u-stencil fall
    in the first and the last block of each layout.  W and
    R+'s imaginary part are those of K from stacked products over the
    whole grid; R+'s real part those of H_p from the stencils of the
    off-diagonal blocks over the whole grid and the per-entry products
    on its planes; B1_line's sup that of (H_p - iK)/4 on the B1 block;
    and the sweep's sups those of the reduction over the trailing axis
    of the grid-first fields, bit for bit."""
    spec = zoo.SurfaceSpec(kind)
    c = replace(zoo.default_chart(spec, 48), Nu=37)
    M = _mc_blocks(spec, c)

    lams = [complex(lam) for lam in ORACLE_LAMBDAS]

    def run():
        return (helpers.loop_curvature(M), harmonic._point_maxima(M, lams),
                harmonic.harmonicity(M, ORACLE_LAMBDAS))

    monkeypatch.setattr(lorentz, "PLANE_BLOCK", 37 * 48)
    assert lorentz.row_blocks(c.shape) == [...]
    K0, top0, res0 = run()
    for block, count in ((48, 37), (5 * 48, 8), (16, 37)):
        monkeypatch.setattr(lorentz, "PLANE_BLOCK", block)
        assert len(lorentz.row_blocks(c.shape)) == count, block
        K, top, res = run()
        for got, want in zip(_curvature_fields(K), _curvature_fields(K0)):
            assert got.shape == want.shape, block
            assert np.array_equal(got, want), block
        assert np.array_equal(top, top0) and res == res0, block
    K = d_u(M.Q, c) - d_v(M.P, c) + M.P @ M.Q - M.Q @ M.P
    a, b = slice(None, 4), slice(4, None)
    assert np.array_equal(K0.W[0], -0.25 * K[..., a, a])
    assert np.array_equal(K0.W[1], -0.25 * K[..., b, b])
    n = M.P.shape[-1] - 4
    assert np.array_equal(K0.plus_im, 0.25 * np.concatenate(
        [K[..., a, b].reshape(c.shape + (4 * n,)),
         K[..., b, a].reshape(c.shape + (4 * n,))], axis=-1))
    Pp, Qp = lorentz.to_planes(M.P), lorentz.to_planes(M.Q)
    H = []
    for i, j in ((a, b), (b, a)):
        h = lorentz.to_planes(d_u(M.P[..., i, j], c) + d_v(M.Q[..., i, j], c))
        for X in (Pp, Qp):
            h += lorentz.product(X[i, i], X[i, j])
            h -= lorentz.product(X[i, j], X[j, j])
        H.append(0.25 * lorentz.grid_first(h))
    assert np.array_equal(K0.plus_re, np.concatenate(
        [h.reshape(c.shape + (4 * n,)) for h in H], axis=-1))
    B1 = np.empty(H[0].shape, dtype=complex)
    B1.real, B1.imag = H[0], -0.25 * K[..., a, b]
    assert res0["harmonic"]["B1_line"] == oracles.sup_by_nested_max(
        np.abs(B1), c.interior)
    r0 = 2.0 * np.maximum(*(np.max(np.abs(W), axis=(-2, -1)) for W in K0.W))
    for r in res0["flatness"]:
        lam = r["lambda"]
        X = lam.real * K0.plus_im + lam.imag * K0.plus_re
        pmax = np.maximum(r0, 2.0 * np.max(np.abs(X), axis=-1))
        assert r["sup"] == sup_norm(pmax, c), lam


@pytest.mark.parametrize("kind,shape", [
    ("enneper", (255, 255)), ("veronese_s4", (255, 255)),
    ("catenoid", (96, 95)), ("clifford_torus", (128, 128))])
def test_the_lambda_family_does_not_depend_on_the_worker_count(monkeypatch,
                                                               kind, shape):
    """The Maurer-Cartan pair P, Q, every whole-grid coefficient of the
    row-block kernel (`helpers.loop_curvature`) and every per-point
    maximum of `harmonic.harmonicity`'s pass are bit for bit the same on
    one worker (row blocks of PLANE_BLOCK
    points, in order) and on two (blocks of half as many, two at a
    time).  Each grid exceeds PLANE_BLOCK points, so two workers run
    threaded; on catenoid's 96 x 95 chart, periodic in u, the wrap rows
    of the u-stencils fall in the first and the last block (21 rows each
    on two workers, the last 12), and clifford_torus wraps both ways."""
    spec = zoo.SurfaceSpec(kind)
    c = replace(zoo.default_chart(spec, shape[0]), Nv=shape[1])
    assert c.Nu * c.Nv > lorentz.PLANE_BLOCK
    F, _ = gauss_frame.build_frame(
        surface.build_surface_data(zoo.generate(spec, c), c))
    runs = []
    for workers in (1, 2):
        helpers.force_workers(monkeypatch, workers)
        M = gauss_frame.maurer_cartan(F, c)
        runs.append([M.P, M.Q, *_curvature_fields(helpers.loop_curvature(M)),
                     harmonic._point_maxima(M, [1.0, 1j])])
    for got, want in zip(*runs):
        assert got.shape == want.shape
        assert np.array_equal(got, want)


def test_harmonicity_pass_peaks_a_few_MB_above_the_pair(monkeypatch):
    """At 255^2 on veronese_s4, on two workers, the tracemalloc peak of
    `harmonic.harmonicity` above the Maurer-Cartan pair it reads (built
    before tracing starts) is at most 16 MB: 12.6 MB (12.5 MB on one
    worker) with the coefficients of each row block reduced to per-point
    maxima at once (the 8 max planes take 4.2 MB), against 56.3 MB for
    the whole-grid loop curvature with its flatness sweep, harmonicity
    lines and strong-conformality check, each reducing a grid-sized
    field."""
    spec = zoo.SurfaceSpec("veronese_s4")
    M = _mc_blocks(spec, zoo.default_chart(spec, 255))
    helpers.force_workers(monkeypatch, 2)
    tracemalloc.start()
    try:
        res = harmonic.harmonicity(M)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(res["flatness"]) == 4
    assert peak <= 16e6, peak


def test_r0_max_is_the_per_point_max_of_R0(pipe):
    """The per-point flatness maxima of the kernel's reduction
    (`harmonic._maxima`) with R+ zeroed are bit for bit
    2 max(max |W1|, max |W2|) reduced from `K.W` over the two matrix
    axes, at every lambda; so a W replaced on the coefficients reaches
    the flatness."""
    _, _, _, M = pipe("veronese_s4")
    K = helpers.loop_curvature(M)
    zero = np.zeros_like(K.plus_re)
    for W1, W2 in (K.W, (K.W[0], 3.0 * K.W[1])):
        top = harmonic._maxima(helpers.planes(replace(
            K, W=(W1, W2), plus_re=zero, plus_im=zero)), [1.0, 1j])
        want = 2.0 * np.maximum(np.max(np.abs(W1), axis=(-2, -1)),
                                np.max(np.abs(W2), axis=(-2, -1)))
        assert top.shape == (2 + len(harmonic.LINES),) + M.chart.shape
        for r0 in top[:2]:
            assert np.array_equal(r0, want)


@pytest.mark.parametrize("kind,param", [
    ("round_sphere", None), ("torus_of_revolution", np.sqrt(2.0)),
    ("veronese_s4", None), ("enneper", None), ("catenoid", None)])
def test_harmonicity_meter_is_at_most_two_on_willmore_surfaces(pipe, kind,
                                                               param):
    """flatness(i)/flatness(1) on the default chart at N=64: the tension
    adds at most the discretization floor's size on the Willmore zoo
    (1.0, 1.0, 1.28, 1.48, 1.71)."""
    _, _, _, M = pipe(kind, 64, param)
    one, i = harmonic.harmonicity(M, (1, 1j))["flatness"]
    assert i["sup"] <= 2.0 * one["sup"], (kind, i["sup"], one["sup"])


def test_harmonicity_meter_on_the_clifford_torus_is_roundoff(pipe):
    """On the Clifford torus both sups are roundoff at N=64 (1.5e-13 and
    4.8e-13), so its ratio says nothing and is not read."""
    _, _, _, M = pipe("clifford_torus", 64)
    for r in harmonic.harmonicity(M, (1, 1j))["flatness"]:
        assert r["sup"] < 1e-12, r


def test_harmonicity_meter_grows_under_refinement_on_the_control(pipe):
    """On the non-Willmore torus_of_revolution:3, flatness(i) stays O(1)
    while flatness(1) falls as h^2: the ratio reads 338 at N=64 and 84 at
    N=32, so it is at least 100 and at least 3x its N=32 value."""
    ratio = {}
    for N in (32, 64):
        _, _, _, M = pipe("torus_of_revolution", N, 3.0)
        one, i = harmonic.harmonicity(M, (1, 1j))["flatness"]
        ratio[N] = i["sup"] / one["sup"]
    assert ratio[64] >= 100, ratio
    assert ratio[64] >= 3 * ratio[32], ratio


@pytest.mark.parametrize("kind", ["clifford_torus", "enneper"])
def test_flatness_across_the_family(pipe, kind):
    c, _, _, M = pipe(kind)
    for r in harmonic.harmonicity(M)["flatness"]:
        assert r["sup"] < 100 * c.h**2, (kind, r["lambda"], r["sup"])


def test_flatness_control_fails_off_lambda_one(pipe):
    """A non-Willmore Gauss map has flat alpha but a non-flat family."""
    c, _, _, M = pipe("torus_of_revolution", 48, 3.0)
    by_lam = {r["lambda"]: r["sup"]
              for r in harmonic.harmonicity(M)["flatness"]}
    assert by_lam[1.0] < 100 * c.h**2
    assert by_lam[-1.0] < 100 * c.h**2      # lambda^2 = 1 keeps flatness
    assert by_lam[1j] > 0.1


@pytest.mark.parametrize("kind", ["clifford_torus", "catenoid"])
def test_harmonic_block_residuals(pipe, kind):
    c, _, _, M = pipe(kind)
    res = harmonic.harmonicity(M)["harmonic"]
    for name, sup in res.items():
        assert sup < 100 * c.h**2, (kind, name)


def test_harmonic_residuals_flag_the_control(pipe):
    _, _, _, M = pipe("torus_of_revolution", 48, 3.0)
    res = harmonic.harmonicity(M)["harmonic"]
    assert res["B1_line"] > 0.1


def test_strong_conformality_zoo_vs_random(pipe, rng):
    c, S, _, M = pipe("veronese_s4")
    sup = harmonic.harmonicity(M)["strong_conformality"]
    scale = np.max(np.abs(M.B1)) ** 2
    assert sup < 100 * c.h**2 * scale
    # a generic complex B1 is nowhere near null
    Brand = rng.normal(size=(8, 8, 4, 2)) + 1j * rng.normal(size=(8, 8, 4, 2))
    torus = Chart(0.0, 1.0, 0.0, 1.0, 8, 8, "periodic-both")
    assert harmonic.harmonicity(helpers.pair_with_B1(Brand, torus))[
        "strong_conformality"] > 0.1


def test_gauge_preserves_harmonicity(pipe, rng):
    """Residuals are gauge-covariant under SO+(1,3) x SO(n) changes."""
    c, _, F, M = pipe("clifford_torus")
    G = np.zeros(c.shape + (5, 5))
    G[..., :4, :4] = helpers.random_so13_gauge(c, rng, amp=0.2)
    G[..., 4, 4] = 1.0
    Fh, Mh = oracles.gauge(M, F, G)
    res = harmonic.harmonicity(Mh)
    for name, sup in res["harmonic"].items():
        assert sup < 200 * c.h**2, name
    sup = res["strong_conformality"]
    assert sup < 100 * c.h**2 * (np.max(np.abs(Mh.B1))**2 + 1e-300)


def test_gauge_rejects_off_block_matrices(pipe):
    c, _, F, M = pipe("clifford_torus")
    G = np.zeros(c.shape + (5, 5)) + np.eye(5)
    G[..., 0, 4] = 0.3                      # mixes the two factors
    with pytest.raises(ValueError):
        oracles.gauge(M, F, G)


# a 37 x 48 open chart (one block at PLANE_BLOCK, four of ten rows at 1024
# points on two workers) and a 96 x 96 chart periodic in u (three blocks of
# 42, 42 and 12 rows at PLANE_BLOCK on one worker), whose u-stencils wrap
INVARIANCE_CHARTS = [("enneper", (37, 48)), ("catenoid", (96, 96))]


@pytest.mark.parametrize("kind,shape", INVARIANCE_CHARTS)
def test_harmonicity_does_not_depend_on_workers_or_blocks(monkeypatch, kind,
                                                          shape):
    """Every per-point maximum of `harmonic.harmonicity`'s pass and every
    sup it reports are bit for bit the same on one worker and on two,
    with blocks of 1024 points and of PLANE_BLOCK."""
    spec = zoo.SurfaceSpec(kind)
    c = replace(zoo.default_chart(spec, shape[0]), Nv=shape[1])
    M = _mc_blocks(spec, c)
    lams = [complex(lam) for lam in ORACLE_LAMBDAS]
    runs = []
    for workers in (1, 2):
        for block in (1024, lorentz.PLANE_BLOCK):
            helpers.force_workers(monkeypatch, workers)
            monkeypatch.setattr(lorentz, "PLANE_BLOCK", block)
            runs.append((harmonic._point_maxima(M, lams),
                         harmonic.harmonicity(M, ORACLE_LAMBDAS)))
            monkeypatch.undo()
    top0, res0 = runs[0]
    assert top0.shape == (len(lams) + 4,) + c.shape
    for top, res in runs[1:]:
        assert np.array_equal(top, top0)
        assert res == res0


@pytest.mark.parametrize("kind,point,moves", [
    ("enneper", (0, 20), False), ("enneper", (18, 47), False),
    ("enneper", (18, 20), True), ("catenoid", (0, 20), True),
    ("catenoid", (18, 0), False)])
def test_harmonicity_sups_read_the_interior_only(kind, point, moves):
    """A spike of 1e3 on every entry of P at one grid point leaves every
    sup of `harmonic.harmonicity` bit for bit unchanged when the point
    lies on an open edge line (rows 0 and 36, columns 0 and 47 of
    enneper's open 37 x 48 chart; columns 0 and 47 of catenoid's, open
    in v only): its stencils reach one point in, inside the margin of
    `Chart.interior`.  The same spike inside the interior, or on
    catenoid's row 0, which its periodic u-axis makes interior, raises
    every sup: each flatness sample, the three lines and strong
    conformality.  A pass that reduced the whole grid would move them
    all in every case."""
    spec = zoo.SurfaceSpec(kind)
    c = replace(zoo.default_chart(spec, 37), Nv=48)
    M = _mc_blocks(spec, c)
    base = harmonic.harmonicity(M)
    P = M.P.copy()
    P[point] += 1e3
    got = harmonic.harmonicity(replace(M, P=P))

    def sups(res):
        return [r["sup"] for r in res["flatness"]] \
            + list(res["harmonic"].values()) + [res["strong_conformality"]]
    assert c.interior[point] == moves
    if moves:
        assert all(g > 10 * b for g, b in zip(sups(got), sups(base)))
    else:
        assert got == base
