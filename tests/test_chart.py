import numpy as np
import pytest

from willmorelab.chart import (TOPOLOGIES, Chart, d_u, d_v, d_z, d_zbar,
                               integrate, residual_norms, sup_norm,
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
    assert residual_norms({"f": f}, c, m)["f"] == {"sup": 0.0, "l2": 0.0}
    assert residual_norms({"f": f}, c, c.interior_mask())["f"]["l2"] > 0.0


@pytest.mark.parametrize("tail", [(), (3,), (4, 2)])
@pytest.mark.parametrize("dtype", [float, complex])
def test_one_pass_sup_equals_nested_reduction(rng, tail, dtype):
    """All trailing axes in one max, then the mask: equal (==) to one
    axis at a time, with and without a mask.  A spike in the trimmed
    band makes the masked and unmasked sups differ."""
    c = open_chart(21)
    f = rng.normal(size=c.shape + tail).astype(dtype)
    if dtype is complex:
        f += 1j * rng.normal(size=f.shape)
    f[(0, 0) + (0,) * len(tail)] = 50.0
    mask = c.interior_mask(3)
    for m in (None, mask):
        assert sup_norm(f, m) == oracles.sup_by_nested_max(np.abs(f), m)
    assert residual_norms({"f": f}, c, mask)["f"]["sup"] \
        == oracles.sup_by_nested_max(np.abs(f), mask) < 50.0 == sup_norm(f)


def _fields(rng, c, tail, dtype):
    """A field (Nu, Nv, *tail) twice: contiguous with the grid axes
    first, and as a view of contiguous planes (*tail, Nu, Nv), the
    layout the structure residuals are built in."""
    f = rng.normal(size=c.shape + tail)
    if dtype is complex:
        f = f + 1j * rng.normal(size=f.shape)
    planes = np.ascontiguousarray(np.moveaxis(f, (0, 1), (-2, -1)))
    return f, np.moveaxis(planes, (-2, -1), (0, 1))


@pytest.mark.parametrize("tail", [(), (3,), (4, 2)])
@pytest.mark.parametrize("dtype", [float, complex])
def test_l2_across_planes_matches_nested_reduction(rng, tail, dtype):
    """The L2 norm summed across planes agrees with the one that reduces
    one trailing axis at a time to roundoff, in both layouts, and the
    sup equals the nested max exactly in both."""
    c = open_chart(21)
    mask = c.interior_mask(3)
    for f in _fields(rng, c, tail, dtype):
        got = residual_norms({"f": f}, c, mask)["f"]
        want = oracles.l2_by_nested_sum(np.abs(f), c, mask)
        assert got["l2"] == pytest.approx(want, rel=1e-15, abs=0)
        assert got["sup"] == oracles.sup_by_nested_max(np.abs(f), mask)


def test_interior_mask_rejects_a_margin_that_leaves_no_point():
    """An open axis of at most 2 * margin points has no interior point;
    the error names the axis, its point count and the margin.  One
    point more keeps one line; periodic axes are never trimmed."""
    with pytest.raises(ValueError, match="open u-axis has 12 points.* "
                       "margin of 6 "):
        open_chart(12).interior_mask(6)
    with pytest.raises(ValueError, match="open v-axis has 10 points.* "
                       "margin of 5 "):
        Chart(-1.0, 1.0, -1.0, 1.0, 16, 10, "open").interior_mask(5)
    assert np.count_nonzero(open_chart(13).interior_mask(6)) == 1
    assert np.all(Chart(0.0, 1.0, 0.0, 1.0, 8, 8,
                        "periodic-both").interior_mask(6))


@pytest.mark.parametrize("dtype", [float, complex])
def test_norms_raise_on_an_empty_mask(rng, dtype):
    """A mask that keeps no point is an error, never a sup of 0 or
    -inf, in both layouts."""
    c = open_chart(21)
    empty = np.zeros(c.shape, dtype=bool)
    for f in _fields(rng, c, (3,), dtype):
        with pytest.raises(ValueError, match="keeps no grid point"):
            residual_norms({"f": f}, c, empty)
        with pytest.raises(ValueError, match="keeps no grid point"):
            sup_norm(f, empty)
