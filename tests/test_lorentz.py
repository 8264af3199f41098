import dataclasses
import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from willmorelab import gauss_frame, lorentz, surface, zoo

import helpers
import oracles


def vec_strategy(dim=5):
    return st.lists(st.floats(-10, 10, allow_nan=False), min_size=dim,
                    max_size=dim).map(np.array)


def test_metric_signature():
    I = oracles.metric(6)
    assert I[0, 0] == -1.0
    assert np.allclose(I[1:, 1:], np.eye(5))


@given(vec_strategy(), vec_strategy())
def test_inner_is_symmetric_bilinear(x, y):
    assert lorentz.inner(x, y) == pytest.approx(lorentz.inner(y, x))
    assert lorentz.inner(2.5 * x, y) == pytest.approx(
        2.5 * lorentz.inner(x, y), abs=1e-9)


def test_inner_broadcasts():
    x = np.ones((3, 4, 5))
    y = np.ones(5)
    assert lorentz.inner(x, y).shape == (3, 4)
    assert np.allclose(lorentz.inner(x, y), 3.0)   # -1 + 4


def _gram_miss(gram, X):
    """Largest miss of gram(X) against the pairwise `inner` of the
    columns of X."""
    want = lorentz.inner(np.swapaxes(X, -1, -2)[..., :, None, :],
                         np.swapaxes(X, -1, -2)[..., None, :, :])
    return float(np.max(np.abs(gram(X) - want)))


@pytest.mark.parametrize("shape", [(4, 2), (3, 5, 4, 1), (2, 6, 3)])
def test_gram_is_the_pairwise_inner_of_the_columns(rng, shape):
    """gram(X) = X^T I X on complex blocks; a mutant without the metric
    signs (plain X^T X) misses by far more than roundoff.  A real X is
    refused."""
    X = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    assert lorentz.gram(X).shape == shape[:-2] + (shape[-1], shape[-1])
    assert _gram_miss(lorentz.gram, X) <= 1e-12
    assert _gram_miss(lambda X: np.swapaxes(X, -1, -2) @ X, X) > 0.1
    with pytest.raises(TypeError):
        lorentz.gram(X.real)


@pytest.mark.parametrize("dim", [5, 6, 7])
def test_complex_gram_matches_the_complex_product_oracle(rng, dim):
    """On complex X the real pairings on planes give the stacked complex
    product X^T I X (`oracles.gram_complex`) to roundoff, 1e-13 relative
    to its sup, and an exactly symmetric result."""
    for shape in ((dim, 1), (6, 5, dim, 2), (32, 32, dim, 3)):
        X = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        G, want = lorentz.gram(X), oracles.gram_complex(X)
        assert G.shape == want.shape
        assert np.max(np.abs(G - want)) <= 1e-13 * np.max(np.abs(want))
        assert np.array_equal(G, np.swapaxes(G, -1, -2))
        assert np.array_equal(
            want, np.swapaxes(X, -1, -2) @ oracles.metric(dim) @ X)


@pytest.mark.parametrize("case", list(zoo.KINDS) + ["hexagonal_torus_s5"])
def test_gram_of_B1_matches_the_complex_product_oracle(pipe, case):
    """gram(B1), the strong-conformality and normalization defect, agrees
    with the complex product on the zoo at N=48 and on the hexagonal
    torus in S^5 (n = 3), to 1e-13 of max(sup, 1)."""
    if case == "hexagonal_torus_s5":
        raw, c = helpers.hexagonal_torus_patch(48)
        M = gauss_frame.maurer_cartan(gauss_frame.build_frame(
            surface.build_surface_data(raw, c)))
    else:
        M = pipe(case, 48, 3.0 if case == "torus_of_revolution" else None)[3]
    B1 = M.B1
    want = oracles.gram_complex(B1)
    scale = max(float(np.max(np.abs(want))), 1.0)
    assert np.max(np.abs(lorentz.gram(B1) - want)) <= 1e-13 * scale


def test_inner_is_complex_bilinear():
    # bilinear, not sesquilinear: <ix, ix> = -<x, x>
    x = np.array([1.0, 2.0, 0.5, 0.0, 1.0], dtype=complex)
    assert lorentz.inner(1j * x, 1j * x) == pytest.approx(-lorentz.norm2(x))


def test_forward_lightlike():
    assert lorentz.is_forward_lightlike(np.array([1.0, 1.0, 0, 0]))
    assert not lorentz.is_forward_lightlike(np.array([-1.0, 1.0, 0, 0]))
    assert not lorentz.is_forward_lightlike(np.array([1.0, 0.0, 0, 0]))


def test_boost_in_group():
    B = oracles.boost(0.7, 5)
    ok, res = lorentz.validate_group(B, 1e-12)
    assert ok and res < 1e-12
    x = np.array([2.0, 1.0, 0.3, -0.5, 0.0])
    assert lorentz.inner(B @ x, B @ x) == pytest.approx(lorentz.norm2(x))


def test_group_rejects_reflection():
    R = np.eye(5)
    R[1, 1] = -1.0          # det = -1, metric-preserving
    ok, _ = lorentz.validate_group(R, 1e-9)
    assert not ok


def test_group_rejects_time_reversal():
    T = -np.eye(4)          # preserves metric and det but flips the cone
    ok, _ = lorentz.validate_group(T, 1e-9)
    assert not ok


def _group_cases(pipe):
    """Zoo frames at N=24, a det -1 frame (a normal column flipped) and a
    frame with one NaN entry."""
    frames = {kind: pipe(kind, 24, 3.0 if kind == "torus_of_revolution"
                         else None)[2].F for kind in zoo.KINDS}
    F = frames["veronese_s4"].copy()
    F[..., -1] *= -1.0
    frames["det_minus_one"] = F
    F = frames["enneper"].copy()
    F[5, 7, 2, 3] = np.nan
    frames["nan_point"] = F
    return frames


def test_validate_group_matches_the_metric_difference_oracle(pipe):
    """The pairings of the column planes and the Laplace determinant give
    the oracle's residual to roundoff, |res - want| <= 8 eps max(1, want),
    and its ok exactly, at a strict and a loose tol."""
    for name, F in _group_cases(pipe).items():
        for tol in (1e-12, 1e-2):
            ok, res = lorentz.validate_group(F, tol)
            with np.errstate(invalid="ignore"):     # det of the NaN point
                want_ok, want_res = oracles.validate_group_against_metric(
                    F, tol)
            assert np.array_equal(ok, want_ok), (name, tol)
            assert np.array_equal(np.isnan(res), np.isnan(want_res)), name
            bound = 8 * np.finfo(float).eps * np.maximum(1.0, want_res)
            assert not np.any(np.abs(res - want_res) > bound), (name, tol)
        if name == "det_minus_one":
            assert not np.any(ok) and np.all(res > 1.9)
        if name == "nan_point":
            assert np.isnan(res[5, 7]) and not ok[5, 7]
            assert np.sum(np.isnan(res)) == 1


def _rotation(rng, dim):
    """A random rotation of the space axes 1..dim-1 of R^dim."""
    Q = np.linalg.qr(rng.normal(size=(dim - 1, dim - 1)))[0]
    Q[:, 0] *= np.sign(np.linalg.det(Q))
    R = np.eye(dim)
    R[1:, 1:] = Q
    return R


@pytest.mark.parametrize("dim", [5, 6, 7])
def test_validate_group_on_boosted_frames(rng, dim):
    """Rotations times boosts of rapidity 0.5, 1.5 and 3 on a grid of
    points are accepted at tol 1e-9 with |det - 1| <= 1e-12; a copy with
    one space column reflected (det -1) and a copy with the time and
    first space columns reversed (det +1, the cone flipped) are
    rejected."""
    for r in (0.5, 1.5, 3.0):
        F = np.array([[_rotation(rng, dim) @ oracles.boost(r, dim)
                       @ _rotation(rng, dim) for _ in range(5)]
                      for _ in range(4)])
        ok, res = lorentz.validate_group(F, 1e-9)
        assert np.all(ok) and np.max(res) <= 1e-9, (r, np.max(res))
        det = lorentz.det(lorentz.to_planes(F))
        assert np.max(np.abs(det - 1.0)) <= 1e-12, (r, det)
        reflected = F.copy()
        reflected[..., -1] *= -1.0
        ok, res = lorentz.validate_group(reflected, 1e-9)
        assert not np.any(ok) and np.all(res > 1.9)
        reversed_ = F.copy()
        reversed_[..., :2] *= -1.0
        ok, res = lorentz.validate_group(reversed_, 1e-9)
        assert not np.any(ok) and np.max(res) <= 1e-9


def test_lorentz_inverse_matches_numpy(rng):
    B = oracles.boost(0.4, 6) @ oracles.boost(-0.9, 6, axis=3)
    assert np.allclose(lorentz.lorentz_inverse(B), np.linalg.inv(B))


def test_lorentz_inverse_on_fields(rng):
    ts = rng.uniform(-1, 1, size=(4, 7))
    F = np.array([[oracles.boost(t, 5) for t in row] for row in ts])
    Fi = lorentz.lorentz_inverse(F)
    assert np.allclose(Fi @ F, np.eye(5), atol=1e-12)


@pytest.mark.parametrize("dim", [5, 6])
def test_lorentz_inverse_is_the_metric_transpose(rng, dim):
    """Sign flips give I M^T I bit for bit, as a fresh C-contiguous array
    (maurer_cartan multiplies with it)."""
    I = oracles.metric(dim)
    M = rng.normal(size=(3, 7, dim, dim))
    got = lorentz.lorentz_inverse(M)
    assert np.array_equal(got, I @ np.swapaxes(M, -1, -2) @ I)
    assert got.flags["C_CONTIGUOUS"]
    # a transposed view must not come back as the caller's own buffer
    X = rng.normal(size=(dim, dim))
    Xt = X.T
    keep = X.copy()
    got = lorentz.lorentz_inverse(Xt)
    assert np.array_equal(got, I @ X @ I)
    assert np.array_equal(X, keep) and not np.shares_memory(got, X)


@pytest.mark.parametrize("values", [1, 2])
@pytest.mark.parametrize("dtype", [float, complex])
def test_to_planes_lays_each_entry_out_as_a_contiguous_plane(rng, values,
                                                             dtype):
    """Each entry of a (Nu, Nv, ...) field comes out as one contiguous
    (Nu, Nv) plane, the real and imaginary parts apart for a complex
    field, equal to the moved axes; a real field already built on planes
    and viewed with the grid axes first (`grid_first`) comes back as the
    planes themselves, and `grid_first` of any result is the field."""
    shape = (7, 9) + (3, 5)[2 - values:]
    X = rng.normal(size=shape).astype(dtype)
    if dtype is complex:
        X.imag = rng.normal(size=shape)
    P = lorentz.to_planes(X, values=values)
    parts = (X.real, X.imag) if dtype is complex else (X,)
    for got, part in zip(P if dtype is complex else (P,), parts):
        assert got.dtype == float and got[(0,) * values].flags.c_contiguous
        assert np.array_equal(lorentz.grid_first(got), part)
        assert not np.shares_memory(got, X)
    if dtype is float:
        field = lorentz.grid_first(P)          # planes viewed grid-first
        again = lorentz.to_planes(field, values=values)
        assert np.shares_memory(again, P) and np.array_equal(again, P)


def test_complement_solver_matches_lapack_on_null_pairs(rng):
    """m=2: the rejection from the orthonormal pair (L + Z)/sqrt2,
    (L - Z)/sqrt2 that `reconstruct.stereographic` hands
    `surface.complement_basis` is LAPACK's projection onto the complement
    of the null pair (L, Z), <L, Z> = -1, whose plane it spans."""
    for dim in (5, 6, 7):
        ls = rng.normal(size=(8, 8, dim - 1))
        L = np.concatenate([np.ones((8, 8, 1)),
                            ls / np.linalg.norm(ls, axis=-1, keepdims=True)],
                           axis=-1)
        Z = np.concatenate([L[..., :1], -L[..., 1:]], axis=-1) / 2.0
        pair = np.stack([L + Z, L - Z], axis=-2) / np.sqrt(2.0)
        miss = helpers.projector_miss(np.stack([L, Z], axis=-2), pair)
        assert np.max(miss) <= 1e-13


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_complement_solver_matches_lapack_on_random_indefinite_grams(rng, m):
    """Random rows with a timelike first row, so that every Gram matrix is
    symmetric indefinite (m >= 2).  `lorentz.orthonormalize` gives rows E
    with the Gram matrix diag(-1, 1, ...), each E_j orthogonal to the rows
    X_i before it and with eps_j <E_j, X_j> > 0 (E is X times a
    triangular matrix with a positive diagonal), and the rejection from E
    is LAPACK's projection.  Both lose digits in proportion to the
    condition number of G, so the 1e-13 bounds are scaled by cond(G)/1e3
    where that exceeds 1 (at most 6% of the samples, cond(G) up to 3e4)."""
    for dim in (5, 6, 7):
        B = rng.normal(size=(16, 16, m, dim))
        B[..., 0, 0] = 3 * np.linalg.norm(B[..., 0, 1:], axis=-1)
        G = (B * np.diag(oracles.metric(dim))) @ np.swapaxes(B, -1, -2)
        lam = np.linalg.eigvalsh(G)
        assert np.all((lam[..., 0] < 0) & ((lam[..., -1] > 0) | (m == 1)))
        bound = 1e-13 * np.maximum(1.0, np.linalg.cond(G) / 1e3)
        assert np.all(helpers.projector_miss(B) <= bound), (m, dim)
        E = lorentz.orthonormalize(B)
        eps = lorentz.metric_signs(m)
        EB = lorentz.inner(E[..., :, None, :], B[..., None, :, :])
        gram = lorentz.inner(E[..., :, None, :], E[..., None, :, :])
        assert np.all(np.abs(gram - np.diag(eps)).max(axis=(-1, -2))
                      <= bound), (m, dim)
        assert np.all(np.abs(np.tril(EB, -1)).max(axis=(-1, -2))
                      <= bound * np.abs(EB).max(axis=(-1, -2))), (m, dim)
        assert np.all(eps * np.diagonal(EB, axis1=-2, axis2=-1) > 0)


@pytest.mark.parametrize("defect", ["null_row", "zero_row", "nan"])
def test_orthonormalize_raises_on_a_degenerate_span(rng, defect):
    """One bad grid point is enough: a lightlike first row (its line is
    degenerate), a zero row or a NaN leaves a remainder whose squared norm
    is zero or not finite there, and `lorentz.orthonormalize` raises with
    no warning."""
    B = rng.normal(size=(6, 7, 3, 6))
    B[..., 0, 0] = 3 * np.linalg.norm(B[..., 0, 1:], axis=-1)
    if defect == "null_row":
        B[2, 3, 0] = [1.0, 0.0, 1.0, 0.0, 0.0, 0.0]
    elif defect == "zero_row":
        B[2, 3, 1] = 0.0
    else:
        B[2, 3, 1, 4] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError):
            lorentz.orthonormalize(B)


def _frame_path_kernels(B, Ff):
    """The row-blocked kernels of the frame path on the rows
    B = (Y, N, Y_u, Y_v) and the frame Ff: the Gram-Schmidt of the
    sphere columns, the normal frame (the cross product in S^3, swept
    rejections in S^4), the group test's ok and residual, and the
    Maurer-Cartan pair."""
    M = gauss_frame.maurer_cartan(Ff)
    fields = np.moveaxis(B, -2, 0)
    return (lorentz.orthonormalize(np.stack(surface.sphere_columns(*fields),
                                            axis=-2)),
            surface.normal_frame(*fields),
            *lorentz.validate_group(Ff.F, 1e-3), M.P, M.Q)


@pytest.mark.parametrize("kind", ["veronese_s4", "clifford_torus"])
def test_row_blocked_kernels_do_not_depend_on_the_block_layout(monkeypatch,
                                                               kind):
    """On a 37 x 29 chart, the Gram-Schmidt, the normal frame, the group
    test and the Maurer-Cartan form are bit for bit the one-block result
    with blocks
    of the whole grid, of one row, of five rows (the last block two rows
    short) and of one row for a row longer than PLANE_BLOCK.  The
    single-point complement basis still takes its (m, dim) input."""
    spec = zoo.SurfaceSpec(kind)
    c = dataclasses.replace(zoo.default_chart(spec, 29), Nu=37)
    S = surface.build_surface_data(zoo.generate(spec, c), c)
    Ff = gauss_frame.build_frame(S)
    B = np.stack([S.Y, S.N, S.Yu, S.Yv], axis=-2)
    assert lorentz.row_blocks(c.shape) == [...]
    want = _frame_path_kernels(B, Ff)
    for block, count in ((37 * 29, 1), (29, 37), (5 * 29, 8), (28, 37)):
        monkeypatch.setattr(lorentz, "PLANE_BLOCK", block)
        assert len(lorentz.row_blocks(c.shape)) == count, block
        for got, ref in zip(_frame_path_kernels(B, Ff), want):
            assert np.array_equal(got, ref), block
        E = surface.complement_basis(want[0][3, 5])
        assert E.shape == (S.n, B.shape[-1])
        assert np.max(np.abs(lorentz.inner(E[:, None], E[None])
                             - np.eye(S.n))) <= 1e-12
        assert np.max(np.abs(lorentz.inner(E[:, None], B[3, 5]))) <= 1e-12


def test_row_blocked_kernels_keep_their_temporaries_block_sized():
    """At 256^2 on veronese_s4, and for the cross-product normal on
    enneper (a surface in S^3), the tracemalloc peak of each row-blocked
    kernel exceeds its output by less than 8 MB; grid-sized temporaries
    take 38-46 MB."""
    def surface_data(kind):
        spec = zoo.SurfaceSpec(kind)
        c = zoo.default_chart(spec, 256)
        return surface.build_surface_data(zoo.generate(spec, c), c)

    S = surface_data("veronese_s4")
    Ff = gauss_frame.build_frame(S)
    phi = np.stack(surface.sphere_columns(S.Y, S.N, S.Yu, S.Yv), axis=-2)
    E = surface_data("enneper")
    for name, kernel in (
            ("orthonormalize", lambda: lorentz.orthonormalize(phi)),
            ("normal_frame", lambda: surface.normal_frame(E.Y, E.N, E.Yu,
                                                          E.Yv)),
            ("validate_group", lambda: lorentz.validate_group(Ff.F, 1.0)),
            ("maurer_cartan", lambda: gauss_frame.maurer_cartan(Ff))):
        tracemalloc.start()
        try:
            out = kernel()
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out is not None
        assert peak - held < 8e6, (name, peak - held)


@pytest.mark.parametrize("d", range(1, 9))
def test_laplace_det_matches_lapack(rng, d):
    """The Laplace expansion gives LAPACK's determinant on random d x d
    fields, and its sign on matrices one rounding away from singular as
    well as on well-conditioned ones.  Stopped one column short, on
    random d x (d - 1) fields, its maximal minors (`lorentz.minors`) are
    LAPACK's cofactors of the last column up to their signs
    (-1)^(k + d - 1), to 1e-12 of the largest at each point."""
    M = rng.normal(size=(d, d, 16, 16))
    want = oracles.lapack_det(M)
    got = lorentz.det(M)
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-12
    assert np.array_equal(np.sign(got), np.sign(want))
    if d > 1:
        X = M[:, :-1]
        minors = lorentz.minors(np.swapaxes(X, 0, 1))
        assert sorted(minors) == list(itertools.combinations(range(d),
                                                             d - 1))
        want = oracles.lapack_cofactors(X)
        got = np.array([(-1) ** (k + d - 1)
                        * minors[tuple(i for i in range(d) if i != k)]
                        for k in range(d)])
        # relative to the largest cofactor at each point: a cofactor
        # that cancels to a small value keeps an absolute error
        assert np.max(np.abs(got - want)
                      / np.max(np.abs(want), axis=0)) < 1e-12
    M[d - 1] = M[0] + 1e-6 * rng.normal(size=M[0].shape)   # near-singular
    assert np.array_equal(np.sign(lorentz.det(M)),
                          np.sign(oracles.lapack_det(M)))


def test_algebra_membership():
    X = np.zeros((5, 5))
    X[0, 1] = X[1, 0] = 1.0      # boost generator
    X[2, 3], X[3, 2] = 1.0, -1.0  # rotation generator
    ok, res = oracles.validate_algebra(X, 1e-12)
    assert ok and res < 1e-15
    ok, _ = oracles.validate_algebra(np.eye(5), 1e-9)
    assert not ok


def test_cartan_split_recomposes(rng):
    n = 2
    X = rng.normal(size=(n + 4, n + 4))
    X = X - oracles.metric(n + 4) @ X.T @ oracles.metric(n + 4)  # so(1,n+3)
    k, p = oracles.cartan_split(X)
    assert np.allclose(k + p, X)
    # sigma-eigenspaces: k commutes with the involution, p anticommutes
    D = oracles.involution_matrix(n)
    assert np.allclose(D @ k @ D, k)
    assert np.allclose(D @ p @ D, -p)


def test_cartan_bracket_relations(rng):
    """[k,k] in k, [k,p] in p, [p,p] in k -- the symmetric-space algebra."""
    n = 3
    I = oracles.metric(n + 4)

    def rand_so():
        X = rng.normal(size=(n + 4, n + 4))
        return X - I @ X.T @ I

    k1, p1 = oracles.cartan_split(rand_so())
    k2, p2 = oracles.cartan_split(rand_so())
    for Z, part in ((oracles.bracket(k1, k2), 0),
                    (oracles.bracket(k1, p2), 1),
                    (oracles.bracket(p1, p2), 0)):
        zk, zp = oracles.cartan_split(Z)
        other = zp if part == 0 else zk
        assert np.max(np.abs(other)) < 1e-12 * (np.max(np.abs(Z)) + 1)


@settings(max_examples=30)
@given(st.floats(-2, 2, allow_nan=False), st.floats(-2, 2, allow_nan=False))
def test_boosts_along_one_axis_compose(s, t):
    dim = 4
    assert np.allclose(oracles.boost(s, dim) @ oracles.boost(t, dim),
                       oracles.boost(s + t, dim), atol=1e-9)
