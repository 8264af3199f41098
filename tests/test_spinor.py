import numpy as np
import pytest

from willmorelab import lorentz, spinor
from willmorelab.chart import Chart

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
                       -lorentz.norm2(x), atol=1e-12)


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


@pytest.mark.parametrize("rank", [1, 2])
def test_canonicalize_synthetic_roundtrip(rng, rank):
    c = chart()
    B1can = helpers.canonical_B1_field(c, rng, n=2, rank=rank)
    Lam = helpers.random_so13_gauge(c, rng).astype(complex)
    A, Bhat, orient = spinor.canonicalize_B1(Lam @ B1can, c,
                                             orientation="same")
    assert orient == "same"
    assert spinor.canonical_shape_residual(Bhat) < 1e-10
    ok, res = lorentz.validate_group(A, 1e-8)
    assert np.all(ok)
    # continuation sweep keeps the gauge smooth
    assert helpers.neighbor_jump(A) < 10 * c.h


def test_canonicalize_detects_conjugate_branch(rng):
    c = chart()
    B1can = helpers.canonical_B1_field(c, rng, n=2, rank=2)
    Lam = helpers.random_so13_gauge(c, rng).astype(complex)
    _, Bhat, orient = spinor.canonicalize_B1(Lam @ np.conj(B1can), c)
    assert orient == "conjugate"
    assert spinor.canonical_shape_residual(Bhat) < 1e-10


def test_common_factor_trivial_when_bounded_below(rng):
    c = chart()
    B1 = helpers.canonical_B1_field(c, rng, n=1, rank=1)
    h0, Bt = spinor.common_factor(B1, c)
    assert np.allclose(h0, 1.0)
    assert np.allclose(Bt, B1)


def test_common_factor_divides_out_zero():
    c = Chart(-1, 1, -1, 1, 41, 41, "open")
    Z = c.zgrid()
    base = np.stack([np.ones_like(Z), -np.ones_like(Z),
                     1j + 0 * Z, 1.0 + 0 * Z], axis=-1)[..., :, None]
    B1 = ((Z - 0.1) ** 2)[..., None, None] * base
    h0, Bt = spinor.common_factor(B1, c)
    mag = np.sqrt(np.sum(np.abs(Bt) ** 2, axis=(-2, -1)))
    assert np.min(mag) > 0.1 * np.max(mag)
