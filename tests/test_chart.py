import numpy as np
import pytest

from willmorelab.chart import (TOPOLOGIES, Chart, d_u, d_v, d_z, d_zbar,
                               integrate, l2_norm, sup_norm, umbilic_mask,
                               wirtinger)

import oracles


def open_chart(N=33):
    return Chart(-1.0, 1.0, -1.0, 1.0, N, N, "open")


def periodic_chart(N=32):
    return Chart(0.0, 2 * np.pi, 0.0, 2 * np.pi, N, N, "periodic-both")


def test_topology_validation():
    with pytest.raises(ValueError):
        Chart(0, 1, 0, 1, 8, 8, "moebius")
    with pytest.raises(ValueError):
        Chart(0, 1, 0, 1, 3, 8, "open")


def test_grid_spacing_periodic_vs_open():
    cp = periodic_chart(32)
    co = open_chart(33)
    assert cp.hu == pytest.approx(2 * np.pi / 32)   # endpoint omitted
    assert co.hu == pytest.approx(2.0 / 32)
    U, _ = cp.grid()
    assert U[-1, 0] < 2 * np.pi                      # no duplicate seam


def test_derivatives_exact_on_quadratics():
    c = open_chart()
    U, V = c.grid()
    f = 2 * U**2 - 3 * U * V + V**2 + U - 4
    assert np.allclose(d_u(f, c), 4 * U - 3 * V + 1, atol=1e-12)
    assert np.allclose(d_v(f, c), -3 * U + 2 * V, atol=1e-12)


def test_wirtinger_on_holomorphic():
    """d_z z^2 = 2z and d_zbar z^2 = 0, exactly for the central stencil."""
    c = open_chart()
    Z = c.zgrid()
    f = Z**2
    assert np.allclose(d_z(f, c), 2 * Z, atol=1e-12)
    assert np.allclose(d_zbar(f, c), 0, atol=1e-12)


@pytest.mark.parametrize("chart", [open_chart(17), periodic_chart(16)],
                         ids=["open", "periodic"])
@pytest.mark.parametrize("dtype", [float, complex])
def test_wirtinger_is_the_complex_formula_bit_for_bit(rng, chart, dtype):
    """Real fields get their halves written into one complex array;
    the result is the complex formula 0.5*(d_u -+ i d_v) bit for bit."""
    f = rng.normal(size=chart.shape + (3, 2))
    if dtype is complex:
        f = f + 1j * rng.normal(size=f.shape)
    fu, fv = d_u(f, chart), d_v(f, chart)
    assert np.array_equal(d_z(f, chart), 0.5 * (fu - 1j * fv))
    assert np.array_equal(d_zbar(f, chart), 0.5 * (fu + 1j * fv))


@pytest.mark.parametrize("topology", TOPOLOGIES)
@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("tail", [(), (5,), (4, 3)])
def test_stencils_match_roll_oracle(rng, topology, dtype, tail):
    """The one-output stencils equal the rolled-copy form value for value.

    The steps are not powers of two, so dividing by 2h and multiplying
    by 1/(2h) round differently."""
    c = Chart(0.0, 1.3, -0.7, 2.1, 16, 16, topology)
    f = rng.normal(size=c.shape + tail)
    if dtype is complex:
        f = f + 1j * rng.normal(size=f.shape)
    f[rng.random(f.shape) < 0.2] = 0.0
    fu = oracles.roll_diff_axis(f, c.hu, 0, c.periodic_u)
    fv = oracles.roll_diff_axis(f, c.hv, 1, c.periodic_v)
    for got, want in ((d_u(f, c), fu), (d_v(f, c), fv),
                      (d_z(f, c), wirtinger(fu, fv, -1)),
                      (d_zbar(f, c), wirtinger(fu, fv, 1))):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def test_second_order_convergence_on_trig():
    errs = []
    for N in (17, 33, 65):
        c = open_chart(N)
        U, V = c.grid()
        f = np.sin(2 * U) * np.cos(V)
        errs.append(np.max(np.abs(d_u(f, c) - 2 * np.cos(2 * U) * np.cos(V))))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.3)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.3)


def test_periodic_derivative_has_no_seam():
    c = periodic_chart(64)
    U, V = c.grid()
    f = np.sin(U) + np.cos(3 * V)
    err = np.abs(d_u(f, c) - np.cos(U))
    # the boundary rows are as accurate as the interior
    assert np.max(err[0, :]) < 2 * np.max(err[32, :]) + 1e-12


def test_integrate_periodic_exact_for_trig():
    c = periodic_chart(32)
    U, V = c.grid()
    # rectangle rule is spectrally accurate on periodic data
    assert integrate(np.sin(U)**2, c) == pytest.approx(2 * np.pi**2, rel=1e-12)


def test_integrate_open_trapezoid():
    c = open_chart(201)
    U, V = c.grid()
    val = integrate(U**2 + V**2, c)
    assert val == pytest.approx(8.0 / 3.0, rel=1e-3)


def test_refine_preserves_domain():
    c = periodic_chart(16)
    r = c.refine(2)
    assert r.Nu == 32 and r.hu == pytest.approx(c.hu / 2)
    co = open_chart(17)
    ro = co.refine(2)
    assert ro.Nu == 33 and ro.hu == pytest.approx(co.hu / 2)
    assert ro.u_max == co.u_max


def test_interior_mask_margins():
    c = open_chart(21)
    m = c.interior_mask(3)
    assert not m[0, 10] and not m[10, 2] and m[10, 10]
    assert np.count_nonzero(m) == 15 * 15
    cp = periodic_chart(16)
    assert np.all(cp.interior_mask(3))   # nothing trimmed on a torus


def test_norms_respect_mask():
    c = open_chart(21)
    f = np.zeros(c.shape)
    f[0, 0] = 100.0
    m = c.interior_mask(2)
    assert sup_norm(f) == 100.0
    assert sup_norm(f, m) == 0.0
    assert l2_norm(f, c, m) == 0.0


def test_umbilic_mask_threshold():
    kappa = np.zeros((8, 8, 2), dtype=complex)
    kappa[4, 4] = 1.0
    mask = umbilic_mask(kappa)
    assert mask[0, 0] and not mask[4, 4]
