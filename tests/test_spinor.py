import numpy as np
import pytest

from willmorelab import lorentz, reconstruct, spinor
from willmorelab.chart import Chart
from willmorelab.gauss_frame import MCBlocks

import helpers
import oracles


def random_sl2(rng, size=()):
    g = rng.normal(size=size + (2, 2)) + 1j * rng.normal(size=size + (2, 2))
    det = np.linalg.det(g)
    return g / np.sqrt(det)[..., None, None]


def test_vec_mat_roundtrip(rng):
    x = rng.normal(size=(50, 4)) + 1j * rng.normal(size=(50, 4))
    assert np.allclose(oracles.mat_to_vec(spinor.vec_to_mat(x)), x)


def test_det_is_minus_norm(rng):
    x = rng.normal(size=(200, 4))
    assert np.allclose(np.linalg.det(spinor.vec_to_mat(x)),
                       -lorentz.inner(x, x), atol=1e-12)


def test_real_vectors_are_hermitian(rng):
    m = spinor.vec_to_mat(rng.normal(size=(100, 4)))
    assert np.max(np.abs(m - np.conj(np.swapaxes(m, -1, -2)))) < 1e-14


def test_null_plane_is_second_column():
    p, q = 1.3 - 0.2j, 0.7 + 2.0j
    m = spinor.vec_to_mat(np.array([p, -p, q, 1j * q]))
    assert np.max(np.abs(m[:, 1])) < 1e-14
    assert abs(np.linalg.det(m)) < 1e-13


def test_sl2_to_so13_is_lorentz(rng):
    A = spinor.sl2_to_so13(random_sl2(rng, (64,)))
    ok, res = lorentz.validate_group(A, 1e-9)
    assert np.all(ok) and np.max(res) < 1e-10


def test_double_cover_homomorphism(rng):
    g1 = random_sl2(rng, (32,))
    g2 = random_sl2(rng, (32,))
    lhs = spinor.sl2_to_so13(g1 @ g2)
    rhs = spinor.sl2_to_so13(g1) @ spinor.sl2_to_so13(g2)
    assert np.max(np.abs(lhs - rhs)) < 1e-11


def test_kernel_is_plus_minus_identity(rng):
    g = random_sl2(rng, (16,))
    assert np.allclose(spinor.sl2_to_so13(-g), spinor.sl2_to_so13(g))


def test_sl2_det_validation(rng):
    with pytest.raises(ValueError):
        spinor.sl2_to_so13(2.0 * np.eye(2))
    # one grid point off the group is enough
    g = random_sl2(rng, (8, 8))
    g[3, 5] *= 1.001
    with pytest.raises(ValueError):
        spinor.sl2_to_so13(g)


@pytest.mark.parametrize("boost", [0.0, 1.0, 3.0])
def test_sl2_to_so13_matches_the_matmul_oracle(rng, boost):
    """The entrywise cover equals the stacked products g m(e_j) g^H to
    1e-13 relative to the largest entry of each A; boost scales g by
    diag(e^t, e^-t), so entries of A reach about e^(2t)."""
    t = boost * rng.uniform(-1, 1, size=(24, 24))
    diag = np.zeros((24, 24, 2, 2), dtype=complex)
    diag[..., 0, 0], diag[..., 1, 1] = np.exp(t), np.exp(-t)
    g = diag @ random_sl2(rng, (24, 24))
    A = spinor.sl2_to_so13(g)
    want = oracles.sl2_to_so13_by_matmul(g)
    scale = np.max(np.abs(want), axis=(-1, -2))
    assert np.max(np.max(np.abs(A - want), axis=(-1, -2)) / scale) <= 1e-13


def chart():
    return Chart(0, 2 * np.pi, 0, 2 * np.pi, 24, 24, "periodic-both")


def test_normalize_null_column_shape(rng):
    c = chart()
    U, V = c.grid()
    p = np.exp(1j * U) + 0.3 * np.cos(V)
    q = 1.5 + 0.2 * np.sin(U + V) + 0.1j
    b = np.stack([p, -p, q, 1j * q], axis=-1)
    # scramble by a smooth gauge, then normalize back
    A = helpers.random_so13_gauge(c, rng, amp=0.3).astype(complex)
    g, canonical = oracles.normalize_null_column(
        np.einsum("...ij,...j->...i", A, b), c)
    assert spinor.canonical_shape_residual(canonical[..., None]) < 1e-10
    assert np.max(np.abs(np.linalg.det(g) - 1)) < 1e-9


def test_normalize_null_column_rejects_non_null():
    c = chart()
    b = np.ones(c.shape + (4,), dtype=complex)
    b[..., 0] = 2.0                       # timelike
    with pytest.raises(ValueError):
        oracles.normalize_null_column(b, c)


def test_canonicalize_identically_zero_raises():
    c = chart()
    with pytest.raises(spinor.TotallyUmbilicError):
        spinor.canonicalize_B1(np.zeros(c.shape + (4, 1)), c)


def _canonical_column(c, k):
    """The constant canonical block of one column (0, 0, -k, -ik): null,
    max |B1| = |k|, already in canonical shape."""
    B = np.zeros(c.shape + (4, 1), dtype=complex)
    B[..., 2, 0], B[..., 3, 0] = -k, -1j * k
    return B


@pytest.mark.parametrize("k, umbilic", [(0.5e-14, True), (1e-14, False),
                                        (1.5e-14, False)])
def test_canonicalize_reads_vanishing_below_1e_14(k, umbilic):
    """B1 counts as vanishing identically (the round sphere) when max |B1|
    is below 1e-14, and not at or above it: a canonical block of that
    scale raises TotallyUmbilicError, or comes back with no gauge."""
    c = chart()
    B = _canonical_column(c, k)
    if umbilic:
        with pytest.raises(spinor.TotallyUmbilicError):
            spinor.canonicalize_B1(B, c)
    else:
        A, Bhat, sign = spinor.canonicalize_B1(B, c)
        assert A is None and sign == -1 and Bhat is B


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_canonicalize_null_test_is_relative(scale):
    """The nullity precondition compares max |B1^T I B1| with max |B1|^2,
    so a spacelike column (0, s, 0, 0) fails it at every scale s (on a
    chart whose bar 50 h^2 is 0.22)."""
    c = Chart(0.0, 1.0, 0.0, 1.0, 16, 16, "open")
    B = np.zeros(c.shape + (4, 1), dtype=complex)
    B[..., 1, 0] = scale
    with pytest.raises(ValueError, match=r"B1\^t I B1 != 0"):
        spinor.canonicalize_B1(B, c)


def test_default_tolerance_bounds_the_null_test_on_fine_grids():
    """With 50 h^2 below 1e-6 (a chart of step 6.7e-5) the bar of the
    nullity test is the default tolerance 1e-6 of canonicalize_B1 and of
    reconstruct.normalize: a block whose relative null defect is 1.5e-6,
    and whose shape is canonical to 7.5e-7, is refused by both."""
    c = Chart(0.0, 1e-3, 0.0, 1e-3, 16, 16, "open")
    assert 50 * c.h**2 < 1e-6
    B = _canonical_column(c, 1.0)
    B[..., 3, 0] *= 1.0 + 0.75e-6
    assert 1.4e-6 < spinor.null_defect(B) / np.max(np.abs(B))**2 < 1.6e-6
    with pytest.raises(ValueError, match=r"B1\^t I B1 != 0"):
        spinor.canonicalize_B1(B, c)
    dim = 5
    P = np.zeros(c.shape + (dim, dim))
    Q = np.zeros_like(P)
    # B1 = (P - iQ)/2 on rows :4, columns 4:
    P[..., :4, 4:] = 2 * B.real
    Q[..., :4, 4:] = -2 * B.imag
    F = np.broadcast_to(np.eye(dim), P.shape).copy()
    with pytest.raises(ValueError, match=r"B1\^t I B1 != 0"):
        reconstruct.normalize(F, MCBlocks(P, Q, c))


def test_canonicalize_keeps_z_unless_zbar_is_ten_times_sharper(
        monkeypatch):
    """When the block reaches the canonical shape in both coordinates,
    z is kept unless the residual in zbar is below a tenth of z's: with
    the gauge and the residuals stubbed, zbar at 0.15, exactly 0.1 and
    0.05 of z's."""
    c = chart()
    B = _canonical_column(c, 1.0)
    eye = np.broadcast_to(np.eye(4), c.shape + (4, 4))
    monkeypatch.setattr(spinor, "_attempt_canonical_gauge",
                        lambda B, thresh: eye)
    for ratio, want in ((0.15, -1), (0.1, -1), (0.05, 1)):
        # per coordinate: the "already canonical" test, then the gauged
        # block's residual
        residuals = iter([1.0, 1e-3, 1.0, ratio * 1e-3])
        monkeypatch.setattr(spinor, "canonical_shape_residual",
                            lambda B: next(residuals))
        _, _, sign = spinor.canonicalize_B1(B, c)
        assert sign == want, ratio


def test_canonicalize_bars_hold_at_equality(monkeypatch):
    """Each bar of canonicalize_B1 admits a residual equal to it, thresh
    = max(tol, 50 h^2) (stubbed residuals, a canonical block of scale 1):
    a null defect of thresh passes; a block whose shape residual is
    min(thresh, 0.1) needs no gauge; a gauged block whose residual is
    thresh is kept."""
    c = chart()
    thresh = max(1e-6, 50 * c.h**2)
    B = _canonical_column(c, 1.0)
    monkeypatch.setattr(spinor, "null_defect", lambda B: thresh)
    A, _, _ = spinor.canonicalize_B1(B, c)
    assert A is None
    monkeypatch.setattr(spinor, "canonical_shape_residual",
                        lambda B: min(thresh, 0.1))
    A, Bhat, sign = spinor.canonicalize_B1(B, c)
    assert A is None and Bhat is B and sign == -1
    eye = np.broadcast_to(np.eye(4), c.shape + (4, 4))
    monkeypatch.setattr(spinor, "_attempt_canonical_gauge",
                        lambda B, thresh: eye)
    # the "already canonical" test, then the gauged block's residual
    residuals = iter([1.0, thresh])
    monkeypatch.setattr(spinor, "canonical_shape_residual",
                        lambda B: next(residuals))
    A, _, sign = spinor.canonicalize_B1(B, c, sign=-1)
    assert A is eye and sign == -1


@pytest.mark.parametrize("rank", [1, 2])
def test_canonicalize_synthetic_roundtrip(rng, rank):
    c = chart()
    B1can = helpers.canonical_B1_field(c, rng, n=2, rank=rank)
    Lam = helpers.random_so13_gauge(c, rng).astype(complex)
    A, Bhat, sign = spinor.canonicalize_B1(Lam @ B1can, c, sign=-1)
    assert sign == -1
    assert spinor.canonical_shape_residual(Bhat) < 1e-10
    ok, res = lorentz.validate_group(A, 1e-8)
    assert np.all(ok)
    # continuation sweep keeps the gauge smooth
    assert helpers.neighbor_jump(A) < 10 * c.h


def test_canonicalize_detects_conjugate_branch(rng):
    c = chart()
    B1can = helpers.canonical_B1_field(c, rng, n=2, rank=2)
    Lam = helpers.random_so13_gauge(c, rng).astype(complex)
    _, Bhat, sign = spinor.canonicalize_B1(Lam @ np.conj(B1can), c)
    assert sign == 1
    assert spinor.canonical_shape_residual(Bhat) < 1e-10

