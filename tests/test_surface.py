import numpy as np
import pytest

from willmorelab import surface, zoo
from willmorelab.chart import Chart, d_u, d_v, d_z, d_zbar
from willmorelab.lorentz import inner, metric

import helpers
import oracles


def test_canonical_lift_normalization(pipe):
    c, S, _, _ = pipe("clifford_torus")
    e = np.real(inner(d_z(S.Y, c), d_zbar(S.Y, c)))
    assert np.max(np.abs(e - 0.5)) < 1e-10
    assert np.max(np.abs(inner(S.Y, S.Y))) < 1e-12


def test_canonical_lift_scale_invariance(rng):
    """Rescaling the raw lift by any positive function changes nothing."""
    spec = zoo.SurfaceSpec("clifford_torus")
    c = zoo.default_chart(spec, 24)
    raw = zoo.generate(spec, c)
    errs = []
    for cc in (c, c.refine(2)):
        raw = zoo.generate(spec, cc)
        U, V = cc.grid()
        lam = np.exp(0.5 * np.sin(U) * np.cos(2 * V))
        Y1 = surface.canonical_lift(raw, cc)
        Y2 = surface.canonical_lift(lam[..., None] * raw, cc)
        errs.append(np.max(np.abs(Y1 - Y2)))
    # the scale enters only through the finite-difference stencil: O(h^2)
    assert errs[0] < 2 * c.h**2
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.3)


def test_canonical_lift_rejects_bad_input():
    spec = zoo.SurfaceSpec("clifford_torus")
    c = zoo.default_chart(spec, 24)
    raw = zoo.generate(spec, c)
    with pytest.raises(ValueError):
        surface.canonical_lift(raw + np.array([0, 1.0, 0, 0, 0]), c)
    with pytest.raises(surface.DegenerateImmersionError):
        surface.canonical_lift(np.broadcast_to(raw[0, 0], raw.shape), c)


def test_frame_N_pairings(pipe):
    _, S, _, _ = pipe("clifford_torus")
    assert np.max(np.abs(inner(S.N, S.Y) + 1.0)) < 1e-12
    assert np.max(np.abs(inner(S.N, S.N))) < 1e-12


def test_normal_frame_orthonormal(pipe):
    c, S, _, _ = pipe("veronese_s4")
    G = inner(S.psi[..., :, None, :], S.psi[..., None, :, :])
    assert np.max(np.abs(G - np.eye(S.n))) < 1e-10
    # and orthogonal to the tangent bundle
    for w in (S.Y, S.N):
        assert np.max(np.abs(inner(S.psi, w[..., None, :]))) < 1e-10


def test_round_sphere_is_totally_umbilic(pipe):
    _, S, _, _ = pipe("round_sphere")
    m = S.residual_mask()
    assert np.max(np.abs(S.kappa[m])) < 1e-8
    assert np.all(S.umbilic_mask()[m])


def test_clifford_invariants_match_hand_computation(pipe):
    c, S, _, _ = pipe("clifford_torus")
    h2 = c.h**2
    assert np.max(np.abs(S.k2 - oracles.clifford_k2())) < h2
    assert np.max(np.abs(S.schwarzian)) < h2
    assert np.max(np.abs(S.beta)) < h2


def test_normal_connection_antisymmetric(pipe):
    c, S, _, _ = pipe("veronese_s4")
    assert np.max(np.abs(S.b + np.swapaxes(S.b, -1, -2))) < 1e-13
    # raw asymmetry is O(h^2) with a boundary-stencil constant
    assert S.b_asym_residual < 30 * c.h**2


@pytest.mark.parametrize("kind", ["clifford_torus", "enneper", "veronese_s4"])
def test_structure_residuals_small(pipe, kind):
    c, S, _, _ = pipe(kind)
    res = surface.structure_residuals(S)
    for name, norms in res.items():
        assert norms["sup"] < 100 * c.h**2, (kind, name, norms)


def test_structure_residuals_converge(pipe):
    r48 = surface.structure_residuals(pipe("catenoid", 48)[1])
    r96 = surface.structure_residuals(pipe("catenoid", 96)[1])
    for name in r48:
        hi, lo = r48[name]["sup"], r96[name]["sup"]
        if hi > 1e-11:
            order = np.log2(hi / lo)
            assert 1.5 < order < 2.6, (name, order)


@pytest.mark.parametrize("kind", ["clifford_torus", "catenoid"])
def test_integrability_residuals_small(pipe, kind):
    c, S, _, _ = pipe(kind)
    res = surface.integrability_residuals(S)
    for name, norms in res.items():
        assert norms["sup"] < 100 * c.h**2, (kind, name, norms)


def test_conformality_residual_flags_shear():
    c = Chart(0, 2 * np.pi, 0, 2 * np.pi, 32, 32, "periodic-both")
    spec = zoo.SurfaceSpec("clifford_torus")
    raw = zoo.generate(spec, c)
    assert oracles.conformality_residual(raw, c) < 1e-10
    # stretch one direction: no longer conformal
    cs = Chart(0, 2 * np.pi, 0, 4 * np.pi, 32, 32, "periodic-both")
    U, V = cs.grid()
    y = np.stack([np.cos(U), np.sin(U), np.cos(V / 2), np.sin(V / 2)],
                 axis=-1) / np.sqrt(2)
    raw2 = np.concatenate([np.ones(cs.shape + (1,)), y], axis=-1)
    assert oracles.conformality_residual(raw2, cs) > 0.05


def _span_oracle_case(pipe, case):
    if case == "hexagonal_torus_s5":
        raw, c = helpers.hexagonal_torus_patch()
        S = surface.build_surface_data(raw, c)
    else:
        kind, _, param = case.partition(":")
        c, S, _, _ = pipe(kind, 48, float(param) if param else None)
    return S, oracles.invariants_by_span_projection(S.Y, S.N, c)


@pytest.mark.parametrize("case", ["enneper", "catenoid", "clifford_torus",
                                  "torus_of_revolution:3", "veronese_s4",
                                  "hexagonal_torus_s5"])
def test_invariants_match_span_projection_oracle(pipe, case):
    """One real complement solver per grid gives the invariants of the
    per-call projections: kappa off the complex basis (Y, N, Y_z, Y_zbar),
    psi swept with a Gram solve per row."""
    S, want = _span_oracle_case(pipe, case)
    assert S.n == want["psi"].shape[-2]
    for name in ("kappa", "psi", "b", "beta"):
        err = np.max(np.abs(getattr(S, name) - want[name]))
        assert err <= 1e-12, (case, name, err)


def _gram_without_metric(B):
    return np.linalg.solve(B @ np.swapaxes(B, -1, -2),
                           B * np.diag(metric(B.shape[-1])))


def _three_rows_only(B, solve=surface._complement_solver):
    Q = np.zeros_like(B)
    Q[..., :3, :] = solve(B[..., :3, :])
    return Q


@pytest.mark.filterwarnings("ignore:invalid value encountered in sqrt")
@pytest.mark.parametrize("broken", [_gram_without_metric, _three_rows_only])
def test_span_projection_oracle_rejects_broken_solvers(monkeypatch, broken):
    """The oracle tells solvers apart: a Gram without the metric signs, or
    a solver that leaves out Y_v, misses it by far more than 1e-12.

    The metric-free Gram leaves most of the swept frame timelike (NaN
    after normalization), so the miss is taken over the finite entries.
    """
    raw, c = helpers.hexagonal_torus_patch(24)
    monkeypatch.setattr(surface, "_complement_solver", broken)
    S = surface.build_surface_data(raw, c)
    want = oracles.invariants_by_span_projection(S.Y, S.N, c)
    for name in ("kappa", "psi"):
        assert np.nanmax(np.abs(getattr(S, name) - want[name])) > 0.1, name


def _complement_cases(pipe):
    """(name, rows) for `complement_basis`: the mean curvature sphere
    rows (Y, N, Y_u, Y_v) at a few points of zoo surfaces in S^3 and S^4."""
    for kind in ("clifford_torus", "enneper", "veronese_s4"):
        c, S, _, _ = pipe(kind)
        Yu, Yv = d_u(S.Y, c), d_v(S.Y, c)
        for i, j in ((0, 0), (c.Nu // 2, c.Nv // 3), (-1, -1)):
            yield f"{kind}[{i},{j}]", np.stack([S.Y[i, j], S.N[i, j],
                                                Yu[i, j], Yv[i, j]])


def test_complement_basis_is_orthonormal_and_orthogonal_to_the_rows(pipe):
    for name, B in _complement_cases(pipe):
        E = surface.complement_basis(B)
        dim = B.shape[-1]
        assert E.shape == (dim - 4, dim), name
        G = inner(E[:, None, :], E[None, :, :])
        assert np.max(np.abs(G - np.eye(dim - 4))) < 1e-12, name
        # a kept candidate may have lost up to four digits to the
        # projection (squared norm down to 1e-8 before normalizing)
        assert np.max(np.abs(inner(E[:, None, :], B[None, :, :]))) < 1e-10, \
            name


def test_complement_basis_of_a_null_pair_matches_the_explicit_formula(rng):
    """For null L, Z with <L, Z> = -1 the general projection is the
    explicit e + <e, Z> L + <e, L> Z, and the same candidates are kept."""
    for dim in (5, 6, 7):
        for _ in range(4):
            ls = rng.normal(size=dim - 1)
            L = np.concatenate([[1.0], ls / np.linalg.norm(ls)])
            Z = np.concatenate([[L[0]], -L[1:]]) / 2.0
            got = surface.complement_basis(np.stack([L, Z]))
            want = oracles.null_pair_complement_basis(L, Z)
            assert got.shape == want.shape == (dim - 2, dim)
            assert np.max(np.abs(got - want)) < 1e-14
