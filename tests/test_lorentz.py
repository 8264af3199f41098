import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from willmorelab import lorentz

import oracles


def vec_strategy(dim=5):
    return st.lists(st.floats(-10, 10, allow_nan=False), min_size=dim,
                    max_size=dim).map(np.array)


def test_metric_signature():
    I = lorentz.metric(6)
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
    I = lorentz.metric(dim)
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
    X = X - lorentz.metric(n + 4) @ X.T @ lorentz.metric(n + 4)  # so(1,n+3)
    k, p = oracles.cartan_split(X)
    assert np.allclose(k + p, X)
    # sigma-eigenspaces: k commutes with the involution, p anticommutes
    D = oracles.involution_matrix(n)
    assert np.allclose(D @ k @ D, k)
    assert np.allclose(D @ p @ D, -p)


def test_cartan_bracket_relations(rng):
    """[k,k] in k, [k,p] in p, [p,p] in k -- the symmetric-space algebra."""
    n = 3
    I = lorentz.metric(n + 4)

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
