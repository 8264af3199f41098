import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from willmorelab import gauss_frame, harmonic, lorentz, surface, zoo
from willmorelab.chart import d_u, d_v, sup_norm

import helpers
import oracles
from oracles import metric


def test_default_lambda_samples_on_unit_circle():
    for lam in harmonic.DEFAULT_LAMBDAS:
        assert abs(abs(lam) - 1.0) < 1e-15
    assert len(harmonic.DEFAULT_LAMBDAS) == 4


def test_flatness_sweep_rejects_off_circle_lambda(pipe):
    _, _, _, M = pipe("clifford_torus")
    with pytest.raises(ValueError):
        harmonic.flatness_sweep(harmonic.loop_curvature(M), (0.5,))


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
    got = harmonic.flatness_sweep(harmonic.loop_curvature(M), ORACLE_LAMBDAS)
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
        return gauss_frame.maurer_cartan(gauss_frame.build_frame(
            surface.build_surface_data(raw, c)))
    kind, _, param = case.partition(":")
    return pipe(kind, 48, float(param) if param else None)[3]


@pytest.mark.parametrize("case", ["enneper", "clifford_torus", "veronese_s4",
                                  "torus_of_revolution:3",
                                  "hexagonal_torus_s5"])
def test_real_curvature_matches_complex_block_oracle(pipe, case):
    """W, both blocks of R+ and the three lines from (K, H) equal the
    complex-block form, n = 1 (open, periodic, control), 2 and 3.

    The tolerance is 1e-13 times the field's max, or times max |alpha|^2
    where that is larger: clifford_torus's fields are 1e-14 cancellations
    of O(1) products, and both forms round them differently.
    """
    M = _oracle_case(pipe, case)
    K = harmonic.loop_curvature(M)
    W, plus, lines = oracles.loop_curvature_complex(M)
    a2 = np.max(np.abs(M.full())) ** 2
    pairs = list(zip(K.W, W)) + list(zip(_plus_blocks(K, M), plus)) \
        + [(K.lines[name], lines[name]) for name in lines]
    assert sorted(K.lines) == sorted(lines)
    for got, ref in pairs:
        assert got.shape == ref.shape
        scale = max(np.max(np.abs(ref)), a2)
        assert np.max(np.abs(got - ref)) <= 1e-13 * scale, case


def test_flatness_oracle_rejects_broken_curvatures(pipe):
    """A wrong sign on R- or a dropped [p, conj p] misses by O(1).

    On the control torus at N=48 the two mutants miss the oracle's sup
    by 1.8 and 1.1, against 2.2e-16 for the sweep.
    """
    _, _, _, M = pipe("torus_of_revolution", 48, 3.0)
    K = harmonic.loop_curvature(M)
    ref = _oracle_sweep(M)
    assert _miss(harmonic.flatness_sweep(K, ORACLE_LAMBDAS), ref) <= 1e-12
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
        assert _miss(harmonic.flatness_sweep(mutant, ORACLE_LAMBDAS),
                     ref) > 0.1


def test_lambda_one_reads_the_maurer_cartan_defect_alone(pipe):
    """With the tension H zeroed, lambda = +-1 is bit for bit unchanged,
    and on the control torus lambda = i falls to at most lambda = 1: the
    flatness(i)/flatness(1) harmonicity meter."""
    c, _, _, M = pipe("torus_of_revolution", 48, 3.0)
    K = harmonic.loop_curvature(M)
    lams = (1.0, -1.0, 1j)
    full = harmonic.flatness_sweep(K, lams)
    no_h = harmonic.flatness_sweep(
        replace(K, plus_re=np.zeros_like(K.plus_re)), lams)
    assert full[:2] == no_h[:2]
    assert full[2]["sup"] > 0.1                # the control's tension
    assert no_h[2]["sup"] <= no_h[0]["sup"] < 100 * c.h**2


def test_harmonic_lines_share_the_curvature_blocks(pipe):
    """B1_line is conj of R+'s B1 block; A1/A2 lines differ from R0 by
    the O(h^2) so-defect of B2."""
    c, _, _, M = pipe("enneper")
    K = harmonic.loop_curvature(M)
    assert np.array_equal(K.lines["B1_line"], np.conj(_plus_blocks(K, M)[0]))
    gap = max(np.max(np.abs(K.lines["A1_line"] - K.W[0])),
              np.max(np.abs(K.lines["A2_line"] - K.W[1])))
    assert gap <= 10 * M.b2_residual * np.max(np.abs(M.B1)) + 1e-14


@pytest.mark.parametrize("kind", ["enneper", "veronese_s4"])
def test_loop_curvature_reads_P_and_Q_without_copies(pipe, monkeypatch,
                                                     kind):
    """K starts from d_u(Q) and d_v(P) of M.Q and M.P themselves, and the
    so-defects are taken once each from P and Q themselves.  H's
    stencils read the off-diagonal blocks of P and Q laid out as planes,
    one contiguous grid per entry viewed with the grid axes first, equal
    to the block views entry for entry.  No complex form is assembled."""
    _, _, _, M = pipe(kind)
    args, defects = [], []
    defect = gauss_frame._so_defect

    def spy_defect(X):
        defects.append(X)
        return defect(X)
    monkeypatch.setattr(gauss_frame, "_so_defect", spy_defect)
    for name in ("d_u", "d_v"):
        def spy(f, c, stencil=getattr(harmonic, name), name=name):
            args.append((name, f))
            return stencil(f, c)
        monkeypatch.setattr(harmonic, name, spy)

    def no_full(self):
        raise AssertionError("loop_curvature assembled the complex form")
    monkeypatch.setattr(gauss_frame.MCBlocks, "full", no_full)
    harmonic.loop_curvature(M)
    assert len(defects) == 2 and defects[0] is M.P and defects[1] is M.Q
    assert len(args) == 6
    whole = [(name, f) for name, f in args if f is M.P or f is M.Q]
    assert [(name, f is M.Q) for name, f in whole] == [("d_u", True),
                                                        ("d_v", False)]
    a, b = slice(None, 4), slice(4, None)
    stencils = [(name, f) for name, f in args if not any(
        f is X for X in (M.P, M.Q))]
    for (name, f), want, X, (i, j) in zip(
            stencils, ("d_u", "d_v") * 2, (M.P, M.Q) * 2,
            ((a, b), (a, b), (b, a), (b, a))):
        assert name == want
        assert f.shape == X[..., i, j].shape, name
        planes = np.moveaxis(f, (0, 1), (-2, -1))
        assert planes.flags.c_contiguous, name
        assert not np.shares_memory(f, X), name
        assert np.array_equal(f, X[..., i, j]), name


def _mc_blocks(spec, c):
    return gauss_frame.maurer_cartan(gauss_frame.build_frame(
        surface.build_surface_data(zoo.generate(spec, c), c)))


def _curvature_fields(K):
    return [*K.W, K.plus_re, K.plus_im, K.r0_max,
            *(K.lines[name] for name in sorted(K.lines))]


@pytest.mark.parametrize("kind", ["enneper", "veronese_s4"])
def test_loop_curvature_does_not_depend_on_the_block_layout(monkeypatch,
                                                            kind):
    """On a 37 x 48 chart, every field of `loop_curvature` and every sup
    of `flatness_sweep` and `harmonic_residuals` is bit for bit the
    one-block result with row blocks of one row, of five rows (the last
    block two rows short) and of one row longer than PLANE_BLOCK.  W and
    R+'s imaginary part are those of K from stacked products over the
    whole grid, and the sweep's sups those of the reduction over the
    trailing axis of the grid-first fields, bit for bit."""
    spec = zoo.SurfaceSpec(kind)
    c = replace(zoo.default_chart(spec, 48), Nu=37)
    M = _mc_blocks(spec, c)

    def run():
        K = harmonic.loop_curvature(M)
        return (K, harmonic.flatness_sweep(K, ORACLE_LAMBDAS),
                harmonic.harmonic_residuals(K))

    monkeypatch.setattr(lorentz, "PLANE_BLOCK", 37 * 48)
    assert lorentz.row_blocks(c.shape) == [...]
    K0, sweep0, lines0 = run()
    for block, count in ((48, 37), (5 * 48, 8), (16, 37)):
        monkeypatch.setattr(lorentz, "PLANE_BLOCK", block)
        assert len(lorentz.row_blocks(c.shape)) == count, block
        K, sweep, lines = run()
        for got, want in zip(_curvature_fields(K), _curvature_fields(K0)):
            assert got.shape == want.shape, block
            assert np.array_equal(got, want), block
        assert sweep == sweep0 and lines == lines0, block
    K = d_u(M.Q, c) - d_v(M.P, c) + M.P @ M.Q - M.Q @ M.P
    a, b = slice(None, 4), slice(4, None)
    assert np.array_equal(K0.W[0], -0.25 * K[..., a, a])
    assert np.array_equal(K0.W[1], -0.25 * K[..., b, b])
    n = M.P.shape[-1] - 4
    assert np.array_equal(K0.plus_im, 0.25 * np.concatenate(
        [K[..., a, b].reshape(c.shape + (4 * n,)),
         K[..., b, a].reshape(c.shape + (4 * n,))], axis=-1))
    mask = c.interior
    for r in sweep0:
        lam = r["lambda"]
        X = lam.real * K0.plus_im + lam.imag * K0.plus_re
        pmax = np.maximum(K0.r0_max, 2.0 * np.max(np.abs(X), axis=-1))
        assert r["sup"] == sup_norm(pmax, mask), lam


def test_loop_curvature_keeps_its_temporaries_below_its_fields():
    """At 255^2 on veronese_s4, the tracemalloc peak of `loop_curvature`
    exceeds the fields it returns (46.3 MB) by less than 52 MB: 40.3 MB
    with the block products on the planes of each row block.  Stacked
    products over the whole grid took 54.1 MB, and planes copies of the
    whole P and Q take about 75 MB."""
    spec = zoo.SurfaceSpec("veronese_s4")
    M = _mc_blocks(spec, zoo.default_chart(spec, 255))
    tracemalloc.start()
    try:
        K = harmonic.loop_curvature(M)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert K.plus_re.shape == M.chart.shape + (16,)
    assert peak - held < 52e6, peak - held


def test_r0_max_is_the_per_point_max_of_R0(pipe):
    """r0_max, reduced across the planes of W, is bit for bit
    2 max(max |W1|, max |W2|) reduced over the two matrix axes."""
    _, _, _, M = pipe("veronese_s4")
    K = harmonic.loop_curvature(M)
    W1, W2 = K.W
    want = 2.0 * np.maximum(np.max(np.abs(W1), axis=(-2, -1)),
                            np.max(np.abs(W2), axis=(-2, -1)))
    assert K.r0_max.shape == M.chart.shape
    assert np.array_equal(K.r0_max, want)


@pytest.mark.parametrize("kind", ["clifford_torus", "enneper"])
def test_flatness_across_the_family(pipe, kind):
    c, _, _, M = pipe(kind)
    for r in harmonic.flatness_sweep(harmonic.loop_curvature(M)):
        assert r["sup"] < 100 * c.h**2, (kind, r["lambda"], r["sup"])


def test_flatness_control_fails_off_lambda_one(pipe):
    """A non-Willmore Gauss map has flat alpha but a non-flat family."""
    c, _, _, M = pipe("torus_of_revolution", 48, 3.0)
    by_lam = {r["lambda"]: r["sup"]
              for r in harmonic.flatness_sweep(harmonic.loop_curvature(M))}
    assert by_lam[1.0] < 100 * c.h**2
    assert by_lam[-1.0] < 100 * c.h**2      # lambda^2 = 1 keeps flatness
    assert by_lam[1j] > 0.1


@pytest.mark.parametrize("kind", ["clifford_torus", "catenoid"])
def test_harmonic_block_residuals(pipe, kind):
    c, _, _, M = pipe(kind)
    res = harmonic.harmonic_residuals(harmonic.loop_curvature(M))
    for name, sup in res.items():
        assert sup < 100 * c.h**2, (kind, name)


def test_harmonic_residuals_flag_the_control(pipe):
    _, _, _, M = pipe("torus_of_revolution", 48, 3.0)
    res = harmonic.harmonic_residuals(harmonic.loop_curvature(M))
    assert res["B1_line"] > 0.1


def test_strong_conformality_zoo_vs_random(pipe, rng):
    c, S, _, M = pipe("veronese_s4")
    sup = harmonic.strong_conformal_check(M.B1, S.chart.interior)
    scale = np.max(np.abs(M.B1)) ** 2
    assert sup < 100 * c.h**2 * scale
    # a generic complex B1 is nowhere near null
    Brand = rng.normal(size=(8, 8, 4, 2)) + 1j * rng.normal(size=(8, 8, 4, 2))
    assert harmonic.strong_conformal_check(Brand) > 0.1


def test_gauge_preserves_harmonicity(pipe, rng):
    """Residuals are gauge-covariant under SO+(1,3) x SO(n) changes."""
    c, _, Ff, M = pipe("clifford_torus")
    G = np.zeros(c.shape + (5, 5))
    G[..., :4, :4] = helpers.random_so13_gauge(c, rng, amp=0.2)
    G[..., 4, 4] = 1.0
    Fh, Mh = oracles.gauge(M, Ff, G)
    res = harmonic.harmonic_residuals(harmonic.loop_curvature(Mh))
    for name, sup in res.items():
        assert sup < 200 * c.h**2, name
    sup = harmonic.strong_conformal_check(Mh.B1)
    assert sup < 100 * c.h**2 * (np.max(np.abs(Mh.B1))**2 + 1e-300)


def test_gauge_rejects_off_block_matrices(pipe):
    c, _, Ff, M = pipe("clifford_torus")
    G = np.zeros(c.shape + (5, 5)) + np.eye(5)
    G[..., 0, 4] = 0.3                      # mixes the two factors
    with pytest.raises(ValueError):
        oracles.gauge(M, Ff, G)
