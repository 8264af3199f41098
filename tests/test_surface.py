import warnings

import numpy as np
import pytest

from willmorelab import chart, cli, gauss_frame, lorentz, surface, zoo
from willmorelab.chart import Chart, d_u, d_v, d_z, d_zbar
from willmorelab.lorentz import inner, orthonormalize, rejection

import helpers
import oracles


def test_canonical_lift_normalization(pipe):
    c, S, _, _ = pipe("clifford_torus")
    e = np.real(inner(d_z(S.Y, c), d_zbar(S.Y, c)))
    assert np.max(np.abs(e - 0.5)) < 1e-10
    assert np.max(np.abs(inner(S.Y, S.Y))) < 1e-12


@pytest.mark.parametrize("dim", [0, 3, 4])
def test_canonical_lift_rejects_a_dimension_below_5(dim):
    """A lift into R^dim, dim < 5, has no normal bundle of rank n >= 1:
    a ValueError that names the dimension, before any pairing is taken."""
    c = Chart(-1.0, 1.0, -1.0, 1.0, 8, 8, "open")
    raw = np.ones(c.shape + (dim,))
    with pytest.raises(ValueError, match=f"got dimension {dim}$"):
        surface.canonical_lift(raw, c)


def test_canonical_lift_scale_invariance(rng):
    """Rescaling the raw lift by any positive function changes nothing."""
    spec = zoo.SurfaceSpec("clifford_torus")
    c = zoo.default_chart(spec, 24)
    raw = zoo.generate(spec, c)
    errs = []
    for cc in (c, c.refine()):
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


def _off_cone(point):
    point[1:] *= 1 + 3e-9       # a relative null defect of 3.0e-9


def _past_pointing(point):
    point *= -1


def _timelike(point):
    point[1:] = 0


@pytest.mark.parametrize("move", [_off_cone, _past_pointing, _timelike],
                         ids=["off_cone", "past_pointing", "timelike"])
def test_canonical_lift_names_the_first_point_off_the_forward_cone(move):
    """Every grid point must be forward lightlike to 1e-9 relative: one
    point moved off the cone by 3.0e-9, to the past cone or inside it
    is named by its row, the first of two such points, though the field
    as a whole is null to 1e-8 of its largest point."""
    spec = zoo.SurfaceSpec("clifford_torus")
    c = zoo.default_chart(spec, 24)
    raw = zoo.generate(spec, c)
    surface.canonical_lift(raw, c)      # forward lightlike: accepted
    for i, j in ((5, 7), (9, 3)):
        move(raw[i, j])
    with pytest.raises(ValueError, match=r"^row 127 \(grid point 5,7\) is "
                       "not forward lightlike$"):
        surface.canonical_lift(raw, c)


def test_a_point_off_the_cone_in_a_file_exits_3(tmp_path, capsys):
    """The point moved off the cone by 3.0e-9, written by zoo.save and
    read by analyze --input, is refused with the same message."""
    spec = zoo.SurfaceSpec("clifford_torus")
    c = zoo.default_chart(spec, 24)
    raw = zoo.generate(spec, c)
    _off_cone(raw[5, 7])
    p = tmp_path / "lift.csv"
    zoo.save(str(p), raw, c)
    chart = ",".join(map(str, (c.Nu, c.Nv, c.u_min, c.u_max, c.v_min,
                               c.v_max, c.topology)))
    assert cli.main(["analyze", "--input", str(p), "--chart", chart]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: row 127 (grid point 5,7) is not forward lightlike\n"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("stage", [surface.canonical_lift,
                                   surface.sphere_fields])
def test_a_non_finite_lift_point_is_named_before_any_stencil(
        bad, stage, monkeypatch):
    """One non-finite entry of the raw lift raises a ValueError naming
    its grid point, with no stencil taken (it would spread the point to
    its neighbours)."""
    spec = zoo.SurfaceSpec("clifford_torus")
    c = zoo.default_chart(spec, 24)
    raw = zoo.generate(spec, c)
    raw[5, 7, 2] = bad
    raw[9, 3, 0] = bad
    calls = _stencil_spy(monkeypatch)
    with pytest.raises(ValueError,
                       match=r"not finite at grid point \(5, 7\)$"):
        stage(raw, c)
    assert calls == []


def _stencil_spy(monkeypatch):
    """Record (a copy of the field, axis, (start, stop)) of every stencil
    call, start and stop the range of rows it computes: (0, Nu) for the
    whole grid."""
    seen = []
    diff = chart._diff_axis

    def counted(f, h, axis, periodic, rows=None):
        span = (0, len(f)) if rows is None else rows.indices(len(f))[:2]
        seen.append((np.array(f), axis, span))
        return diff(f, h, axis, periodic, rows)

    monkeypatch.setattr(chart, "_diff_axis", counted)
    return seen


def _analyze_stencils(seen, kind):
    """[(name, axis, complex)] of every stencil of `cli.cmd_analyze` on
    the zoo surface at N=24, as recorded by the spy list `seen`, each
    differentiated field named by its content among the fields of the
    analyze path, or "other".  Stencils taken over row ranges count as
    many times as their ranges cover every row of the grid; ranges that
    cover some rows more often than others fail."""
    spec = zoo.SurfaceSpec(kind)
    c = zoo.default_chart(spec, 24)
    raw = zoo.generate(spec, c)
    S = surface.build_surface_data(raw, c)
    inv = surface.invariants(S)
    F, _ = gauss_frame.build_frame(S)
    names = {"raw": raw, "Y": S.Y, "Yu": S.Yu, "Yv": S.Yv, "N": S.N,
             "psi": S.psi, "kappa": inv.kappa, "beta": inv.beta,
             "s": inv.schwarzian, "F": F}
    for j in range(S.n):
        for l in range(j + 1, S.n):
            names[f"b_r[{j},{l}]"] = inv.b.real[..., j, l]
            names[f"b_i[{j},{l}]"] = inv.b.imag[..., j, l]
    cfg = cli.build_config(cli.parse_args(
        ["analyze", "--surface", kind, "--chart",
         ",".join(map(str, (c.Nu, c.Nv, c.u_min, c.u_max, c.v_min, c.v_max,
                            c.topology)))]))
    seen.clear()
    cli.cmd_analyze(cfg)
    cover = {}
    for f, axis, (start, stop) in seen:
        key = (next((name for name, x in names.items()
                     if f.shape == x.shape and np.array_equal(f, x)),
                    "other"), axis, np.iscomplexobj(f))
        cover.setdefault(key, np.zeros(c.Nu, dtype=int))[start:stop] += 1
    got = []
    for key, rows in cover.items():
        assert np.all(rows == rows[0]), (key, rows)
        got += [key] * int(rows[0])
    return got


def test_each_lift_is_differentiated_once(monkeypatch):
    """Across the whole analyze command, each field but Y's partials
    takes at most one stencil per axis: the raw lift, Y, N, psi, kappa,
    beta and s one d_u/d_v pair each; the frame one pair, for its
    Maurer-Cartan form; each entry of b one stencil, for the Ricci
    residual.  Y_u takes d_u and Y_v takes d_v twice, the same stencils
    of the same input (Y_uu and Y_vv for N in `sphere_fields`, then for
    the Hessian in `invariants`, since `SurfaceData` keeps no Hessian),
    and Y_v takes d_u once (Y_uv).  Six stencils are complex (kappa,
    beta and s), and no complex field of the ambient space is
    differentiated: 23 stencils on veronese_s4 (n = 2, one entry of b)
    and 21 on enneper (n = 1).  With row blocks of 96 points on two
    workers, the frame's stencils run over twelve row ranges of two rows
    each, and count once per axis over the whole grid."""
    seen = _stencil_spy(monkeypatch)
    monkeypatch.setattr(lorentz, "PLANE_BLOCK", 96)
    helpers.force_workers(monkeypatch, 2)
    for kind, total in (("veronese_s4", 23), ("enneper", 21)):
        got = _analyze_stencils(seen, kind)
        assert {rows for f, _, rows in seen if f.ndim == 4
                and f.shape[-2] == f.shape[-1]} == {
                    (i, i + 2) for i in range(0, 24, 2)}, kind
        assert len(got) == total, kind
        assert sum(cplx for _, _, cplx in got) == 6, kind
        counts = {}
        for name, axis, _ in got:
            counts.setdefault(name, [0, 0])[axis] += 1
        want = {name: [1, 1] for name in ("raw", "Y", "Yv", "N", "psi",
                                          "kappa", "beta", "s", "F")}
        want["Yu"], want["Yv"] = [2, 0], [1, 2]
        if kind == "veronese_s4":
            want.update({"b_i[0,1]": [1, 0], "b_r[0,1]": [0, 1]})
        assert counts == want, kind


def test_frame_path_takes_the_stencils_of_the_frame_only(monkeypatch):
    """`build_surface_data` then `build_frame`, the path of
    verify-harmonic and reconstruct, takes exactly six stencils: d_u and
    d_v of the raw lift and of Y, then d_u Y_u and d_v Y_v for N.  The
    Hessian and psi's partials are taken only in `surface.invariants`."""
    spec = zoo.SurfaceSpec("veronese_s4")
    c = zoo.default_chart(spec, 24)
    raw = zoo.generate(spec, c)
    seen = _stencil_spy(monkeypatch)
    S = surface.build_surface_data(raw, c)
    gauss_frame.build_frame(S)

    names = {"raw": raw, "Y": S.Y, "Yu": S.Yu, "Yv": S.Yv}
    got = [(next((name for name, x in names.items()
                  if f.shape == x.shape and np.array_equal(f, x)), "other"),
            axis) for f, axis, _ in seen]
    assert got == [("raw", 0), ("raw", 1), ("Y", 0), ("Y", 1),
                   ("Yu", 0), ("Yv", 1)]


def test_invariants_leave_surface_data_untouched(monkeypatch):
    """The forward stage keeps what it derives to itself: after two
    `surface.invariants` calls S holds the same attributes, bound to the
    same arrays, the two results are equal, and each call takes the same
    nine stencils (Y's Hessian Y_uu, Y_vv, Y_uv and the d_u/d_v pairs of
    psi, kappa and N)."""
    spec = zoo.SurfaceSpec("veronese_s4")
    c = zoo.default_chart(spec, 24)
    S = surface.build_surface_data(zoo.generate(spec, c), c)
    before = dict(vars(S))
    seen = _stencil_spy(monkeypatch)
    results, stencils = [], []
    for _ in range(2):
        seen.clear()
        results.append(surface.invariants(S))
        stencils.append(list(seen))
        assert vars(S).keys() == before.keys()
        assert all(vars(S)[key] is value for key, value in before.items())
    first, second = results
    for name in surface.Invariants._fields[:-1]:
        assert np.array_equal(getattr(first, name), getattr(second, name)), \
            name
    assert first.structure == second.structure
    assert len(stencils[0]) == len(stencils[1]) == 9
    for (f, axis, rows), (g, axis2, rows2) in zip(*stencils):
        assert axis == axis2 and rows == rows2 and np.array_equal(f, g)


def test_mixed_residual_reads_the_W_of_N_exactly(pipe):
    """Y_zzbar is N's W bit for bit: `frame_N` rebuilds S.N exactly from
    `zzbar` of the stencils Y_uu = d_u Y_u and Y_vv = d_v Y_v, taken
    again from S, and the "mixed" structure residual is the real field
    W + |kappa|^2 Y - N/2 built from that W."""
    for kind in ("clifford_torus", "enneper", "veronese_s4"):
        c, S, _, _ = pipe(kind)
        W = surface.zzbar(d_u(S.Yu, c), d_v(S.Yv, c))
        assert W.dtype == float
        assert np.array_equal(surface.frame_N(S.Y, W), S.N), kind
        inv = surface.invariants(S)
        want = (W + inv.k2[..., None] * S.Y) - 0.5 * S.N
        got = inv.structure["mixed"]
        assert got == chart.field_norms(want, c), kind


def test_frame_N_pairings(pipe):
    _, S, _, _ = pipe("clifford_torus")
    assert np.max(np.abs(inner(S.N, S.Y) + 1.0)) < 1e-12
    assert np.max(np.abs(inner(S.N, S.N))) < 1e-12


# the zoo surfaces in S^3, whose normal is the oriented Lorentz cross
# product of (Y, N, Y_u, Y_v) with no continuation
CODIM_ONE = [kind for kind in zoo.KINDS if kind != "veronese_s4"]


def _zoo_surface(pipe, kind):
    return pipe(kind, 48, 3.0 if kind == "torus_of_revolution" else None)


def test_normal_frame_orthonormal(pipe):
    """On veronese_s4 (n = 2, swept) and on the five surfaces in S^3, psi
    is orthonormal, orthogonal to Y and N, and (phi1..phi4, psi) is
    positively oriented at every point."""
    for kind in ["veronese_s4"] + CODIM_ONE:
        c, S, _, _ = _zoo_surface(pipe, kind)
        G = inner(S.psi[..., :, None, :], S.psi[..., None, :, :])
        assert np.max(np.abs(G - np.eye(S.n))) < 1e-10, kind
        # and orthogonal to the tangent bundle
        for w in (S.Y, S.N):
            assert np.max(np.abs(inner(S.psi, w[..., None, :]))) < 1e-10, \
                kind
        F = np.stack(surface.sphere_columns(S.Y, S.N, S.Yu, S.Yv)
                     + list(np.moveaxis(S.psi, -2, 0)), axis=-1)
        assert np.all(np.linalg.det(F) > 0), kind


@pytest.mark.parametrize("kind", CODIM_ONE)
def test_codimension_one_normal_matches_the_swept_oracle(pipe, kind):
    """In S^3 the cross product gives the psi that the seeded, oriented
    continuation of `oracles.normal_frame_per_row` sweeps, to roundoff
    (1e-13 of max |psi|): SO(1) leaves no gauge to choose."""
    c, S, _, _ = _zoo_surface(pipe, kind)
    assert S.n == 1
    want = oracles.normal_frame_per_row(S.Y, S.N, c)
    miss = np.max(np.abs(S.psi - want))
    assert miss <= 1e-13 * np.max(np.abs(want)), (kind, miss)


def test_round_sphere_is_totally_umbilic(pipe):
    _, S, _, _ = pipe("round_sphere")
    m = S.chart.interior
    assert np.max(np.abs(surface.invariants(S).kappa[m])) < 1e-8


def test_clifford_invariants_match_hand_computation(pipe):
    c, S, _, _ = pipe("clifford_torus")
    h2 = c.h**2
    inv = surface.invariants(S)
    assert np.max(np.abs(inv.k2 - oracles.clifford_k2())) < h2
    assert np.max(np.abs(inv.schwarzian)) < h2
    assert np.max(np.abs(inv.beta)) < h2


def test_normal_connection_antisymmetric(pipe):
    c, S, _, _ = pipe("veronese_s4")
    b = surface.invariants(S).b
    assert np.max(np.abs(b + np.swapaxes(b, -1, -2))) < 1e-13
    # raw asymmetry is O(h^2) with a boundary-stencil constant
    assert oracles.invariants_complex(S)["b_asym_residual"] < 30 * c.h**2


@pytest.mark.parametrize("kind", ["clifford_torus", "enneper", "veronese_s4"])
def test_structure_residuals_small(pipe, kind):
    c, S, _, _ = pipe(kind)
    res = surface.invariants(S).structure
    for name, norms in res.items():
        assert norms["sup"] < 100 * c.h**2, (kind, name, norms)


def test_structure_residuals_converge(pipe):
    r48 = surface.invariants(pipe("catenoid", 48)[1]).structure
    r96 = surface.invariants(pipe("catenoid", 96)[1]).structure
    for name in r48:
        hi, lo = r48[name]["sup"], r96[name]["sup"]
        if hi > 1e-11:
            order = np.log2(hi / lo)
            assert 1.5 < order < 2.6, (name, order)


@pytest.mark.parametrize("kind", ["clifford_torus", "catenoid"])
def test_integrability_residuals_small(pipe, kind):
    c, S, _, _ = pipe(kind)
    inv = surface.invariants(S)
    res = surface.integrability_residuals(
        inv, surface.willmore_residual(inv, c), c)
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
    """One Gram-Schmidt per grid and rejections from its rows give the
    invariants of the per-call projections: kappa off the complex basis
    (Y, N, Y_z, Y_zbar), psi swept with a Gram solve per row."""
    S, want = _span_oracle_case(pipe, case)
    assert S.n == want["psi"].shape[-2]
    got = dict(surface.invariants(S)._asdict(), psi=S.psi)
    for name in ("kappa", "psi", "b", "beta"):
        err = np.max(np.abs(got[name] - want[name]))
        assert err <= 1e-12, (case, name, err)


def _gram_without_metric(X):
    """Gram-Schmidt that takes the Gram matrix of the rows it keeps as
    the identity, without the sign eps_0 = -1 of the timelike row: each
    row less <X_j, E_i> E_i, not eps_i <X_j, E_i> E_i."""
    E = np.array(X, dtype=float)
    for j in range(E.shape[-2]):
        for i in range(j):
            E[..., j, :] -= inner(X[..., j, :], E[..., i, :])[..., None] \
                * E[..., i, :]
        q = inner(E[..., j, :], E[..., j, :])
        E[..., j, :] /= np.sqrt(np.abs(q))[..., None]
    return E


def _three_rows_only(F, X):
    """The rejection from the first three of the bundle's four columns."""
    return rejection(F[..., :3], X)


@pytest.mark.parametrize("attr, broken",
                         [("orthonormalize", _gram_without_metric),
                          ("rejection", _three_rows_only)],
                         ids=["_gram_without_metric", "_three_rows_only"])
def test_span_projection_oracle_rejects_broken_solvers(monkeypatch, attr,
                                                      broken):
    """The oracle tells projectors apart: a Gram-Schmidt without the
    metric signs, or a rejection that leaves out Y_v, misses it by far
    more than 1e-12."""
    raw, c = helpers.hexagonal_torus_patch(24)
    monkeypatch.setattr(surface, attr, broken)
    S = surface.build_surface_data(raw, c)
    want = oracles.invariants_by_span_projection(S.Y, S.N, c)
    got = {"kappa": surface.invariants(S).kappa, "psi": S.psi}
    for name in ("kappa", "psi"):
        assert np.max(np.abs(got[name] - want[name])) > 0.1, name


def _sphere_rows(pipe, kind):
    """The sphere columns (phi1..phi4) of a zoo surface at N=48 or of the
    hexagonal torus in S^5 (n = 3), as rows: what `normal_frame`
    orthonormalizes."""
    if kind == "hexagonal_torus_s5":
        raw, c = helpers.hexagonal_torus_patch(48)
        S = surface.build_surface_data(raw, c)
    else:
        c, S, _, _ = pipe(kind)
    return np.stack(surface.sphere_columns(S.Y, S.N, d_u(S.Y, c),
                                           d_v(S.Y, c)), axis=-2)


def _complement_cases(pipe):
    """(name, rows, orthonormal rows) for `complement_basis`: the mean
    curvature sphere rows (Y, N, Y_u, Y_v) at a few points of zoo surfaces
    in S^3 and S^4, and the Gram-Schmidt of their sphere columns."""
    for kind in ("clifford_torus", "enneper", "veronese_s4"):
        c, S, _, _ = pipe(kind)
        Yu, Yv = d_u(S.Y, c), d_v(S.Y, c)
        E = orthonormalize(_sphere_rows(pipe, kind))
        for i, j in ((0, 0), (c.Nu // 2, c.Nv // 3), (-1, -1)):
            yield f"{kind}[{i},{j}]", np.stack([S.Y[i, j], S.N[i, j],
                                                Yu[i, j], Yv[i, j]]), E[i, j]


def test_complement_basis_is_orthonormal_and_orthogonal_to_the_rows(pipe):
    for name, B, E0 in _complement_cases(pipe):
        E = surface.complement_basis(E0)
        dim = B.shape[-1]
        assert E.shape == (dim - 4, dim), name
        G = inner(E[:, None, :], E[None, :, :])
        assert np.max(np.abs(G - np.eye(dim - 4))) < 1e-12, name
        # a kept candidate may have lost up to four digits to the
        # projection (squared norm down to 1e-8 before normalizing)
        assert np.max(np.abs(inner(E[:, None, :], B[None, :, :]))) < 1e-10, \
            name


def test_complement_basis_of_a_null_pair_matches_the_explicit_formula(rng):
    """For null L, Z with <L, Z> = -1 the rejection from the orthonormal
    pair (L + Z)/sqrt2, (L - Z)/sqrt2 is the explicit
    e + <e, Z> L + <e, L> Z, and the same candidates are kept."""
    for dim in (5, 6, 7):
        for _ in range(4):
            ls = rng.normal(size=dim - 1)
            L = np.concatenate([[1.0], ls / np.linalg.norm(ls)])
            Z = np.concatenate([[L[0]], -L[1:]]) / 2.0
            got = surface.complement_basis(np.stack([L + Z, L - Z])
                                           / np.sqrt(2.0))
            want = oracles.null_pair_complement_basis(L, Z)
            assert got.shape == want.shape == (dim - 2, dim)
            assert np.max(np.abs(got - want)) < 1e-14


@pytest.mark.parametrize("m", [4, 3])
@pytest.mark.parametrize("kind", ["clifford_torus", "enneper", "veronese_s4",
                                  "hexagonal_torus_s5"])
def test_complement_solver_matches_lapack_on_sphere_rows(pipe, kind, m):
    """The rejection from the Gram-Schmidt of the sphere columns phi is
    LAPACK's projection onto their complement on the whole grid: m=4 as
    `normal_frame` calls it, m=3 on phi1..phi3.  On enneper, veronese_s4
    and the hexagonal torus the pairings of phi1, phi2 with phi3, phi4
    are O(h^2), not roundoff as on clifford_torus, so each step of the
    Gram-Schmidt acts there."""
    B = _sphere_rows(pipe, kind)
    if kind != "clifford_torus":
        cross = inner(B[..., :2, None, :], B[..., None, 2:, :])
        assert np.max(np.abs(cross)) > 1e-3
    assert np.max(helpers.projector_miss(B[..., :m, :])) <= 1e-13


@pytest.mark.parametrize("defect", ["repeated_row", "zero_row", "nan"])
def test_complement_solver_raises_on_a_singular_gram(pipe, defect):
    """One bad grid point is enough: a repeated row of (Y, N, Y_u, Y_v)
    makes a sphere column zero, and so does a zero row; a NaN makes the
    Gram matrix not finite.  On veronese_s4 (a surface in S^4) the
    Gram-Schmidt of the sphere columns raises, and on enneper (in S^3)
    the normal's <nu, nu> is zero or NaN there: `normal_frame` raises on
    both, with no warning and no NaN psi."""
    for kind in ("veronese_s4", "enneper"):
        c, S, _, _ = pipe(kind)
        B = np.stack([S.Y, S.N, d_u(S.Y, c), d_v(S.Y, c)], axis=-2)
        if defect == "repeated_row":
            B[5, 7, 1] = B[5, 7, 0]
        elif defect == "zero_row":
            B[5, 7, 3] = 0.0
        else:
            B[5, 7, 2, 1] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(np.linalg.LinAlgError):
                surface.normal_frame(*np.moveaxis(B, -2, 0))


ORACLE_CASES = list(zoo.KINDS) + ["hexagonal_torus_s5"]


def _oracle_surface(pipe, case):
    """SurfaceData of a zoo surface at N=48, or of the hexagonal torus in
    S^5 (n = 3, the only case whose normal connection has a non-zero
    commutator [b_i, b_r])."""
    if case == "hexagonal_torus_s5":
        raw, c = helpers.hexagonal_torus_patch(48)
        return surface.build_surface_data(raw, c)
    return pipe(case, 48, 3.0 if case == "torus_of_revolution" else None)[1]


def _roundoff_miss(got, want) -> float:
    """Largest |got - want| over 1e-13 times max(sup |want|, 1): at most 1
    means 1e-13 relative, or 1e-13 absolute on these O(1)-scaled fields,
    roundoff (about 500 ulp) that a stencil amplifies by up to 1/h."""
    want = np.asarray(want)
    err = float(np.max(np.abs(np.asarray(got) - want)))
    return err / (1e-13 * max(float(np.max(np.abs(want))), 1.0))


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_invariants_match_complex_oracle(pipe, case):
    """kappa, s, b, beta and D_z kappa from the real pairings on planes
    agree with the complex broadcasts, pairings and einsums they replace
    (`oracles.invariants_complex`, with its own stencils of Y_u and Y_v)
    to roundoff."""
    S = _oracle_surface(pipe, case)
    got = surface.invariants(S)
    want = oracles.invariants_complex(S)
    for name in ("kappa", "schwarzian", "b", "beta", "dz_kappa"):
        assert _roundoff_miss(getattr(got, name), want[name]) <= 1, name


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_normal_derivatives_match_einsum_oracle(pipe, case):
    """D_z kappa, beta = D_zbar kappa and the Willmore residual (from
    D_zbar beta) by per-entry passes agree with the einsum over the
    stacked entries of b."""
    S = _oracle_surface(pipe, case)
    c, inv = S.chart, surface.invariants(S)
    k = inv.kappa
    D = oracles.normal_derivative_components_complex
    assert _roundoff_miss(inv.dz_kappa, D(inv.b, c, k, False)) <= 1
    assert _roundoff_miss(inv.beta, D(inv.b, c, k, True)) <= 1
    want = D(inv.b, c, inv.beta, True) \
        + 0.5 * np.conj(inv.schwarzian)[..., None] * k
    assert _roundoff_miss(surface.willmore_residual(inv, c), want) <= 1


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_structure_residuals_match_complex_oracle(pipe, case):
    """The structure residual norms, with the ambient fields added in
    place from real products, agree with those of the complex-broadcast
    fields (`oracles.structure_fields_complex`)."""
    S = _oracle_surface(pipe, case)
    inv = surface.invariants(S)
    got = inv.structure
    fields = oracles.structure_fields_complex(S, inv)
    for name, norms in ((name, chart.field_norms(f, S.chart))
                        for name, f in fields.items()):
        for key, value in norms.items():
            assert _roundoff_miss(got[name][key], value) <= 1, (name, key)


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_ricci_matches_complex_oracle(pipe, case):
    """The Ricci residual is i times the real field of `surface._ricci`:
    the complex form with b conj(b) - conj(b) b has a real part of
    roundoff only, and its imaginary part is that field.  On the
    hexagonal torus (n = 3) the commutator [b_i, b_r] is larger than the
    residual itself, so a sign error in it misses by far more than the
    bar; for n <= 2 it vanishes identically."""
    S = _oracle_surface(pipe, case)
    c, inv = S.chart, surface.invariants(S)
    want = oracles.ricci_complex(inv, c)
    R = surface._ricci(inv, c)
    assert R.dtype == float
    assert _roundoff_miss(1j * R, want) <= 1
    assert np.array_equal(R, -np.swapaxes(R, -1, -2))
    got = surface.integrability_residuals(
        inv, surface.willmore_residual(inv, c), c)
    norms = chart.field_norms(want, c)
    for key in ("sup", "l2"):
        assert _roundoff_miss(got["ricci"][key], norms[key]) <= 1
    b = inv.b
    comm = np.max(np.abs(b.imag @ b.real - b.real @ b.imag))
    if S.n <= 2:
        assert comm == 0.0
    else:
        assert comm > np.max(np.abs(want))
