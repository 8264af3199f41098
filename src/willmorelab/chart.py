"""Discrete complex-coordinate charts and finite-difference Wirtinger calculus.

A chart is a rectangular grid in z = u + iv.  Fields are numpy arrays of
shape (Nu, Nv, ...) with arbitrary trailing value axes.  Derivatives use
second-order central stencils; periodic directions wrap, open directions
fall back to second-order one-sided stencils at the two boundary lines.
One routine takes them over the whole grid (`d_u`, `d_v`) or over a
range of rows (`partial_rows`), with the same bits on every row.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .lorentz import to_planes

TOPOLOGIES = ("open", "periodic-u", "periodic-v", "periodic-both")

# Cells trimmed from open-chart edges for residual norms (`Chart.interior`).
# Invariant residuals stack up to four nested one-sided stencils near a
# boundary, so the polluted band is several cells wide.
DEFAULT_MARGIN = 6


@dataclass(frozen=True)
class Chart:
    u_min: float
    u_max: float
    v_min: float
    v_max: float
    Nu: int
    Nv: int
    topology: str = "open"

    def __post_init__(self):
        if self.topology not in TOPOLOGIES:
            raise ValueError(f"unknown topology {self.topology!r}")
        if self.Nu < 5 or self.Nv < 5:
            raise ValueError("grids smaller than 5x5 are not supported")
        for axis in "uv":
            lo, hi = getattr(self, f"{axis}_min"), getattr(self, f"{axis}_max")
            for name, bound in ((f"{axis}_min", lo), (f"{axis}_max", hi)):
                if not np.isfinite(bound):
                    raise ValueError(f"chart bound {name}={bound} is not "
                                     "finite")
            if not lo < hi:
                raise ValueError(f"chart bound {axis}_max={hi} must exceed "
                                 f"{axis}_min={lo}: the {axis}-interval is "
                                 "empty or reversed")

    @property
    def periodic_u(self) -> bool:
        return self.topology in ("periodic-u", "periodic-both")

    @property
    def periodic_v(self) -> bool:
        return self.topology in ("periodic-v", "periodic-both")

    @property
    def hu(self) -> float:
        div = self.Nu if self.periodic_u else self.Nu - 1
        return (self.u_max - self.u_min) / div

    @property
    def hv(self) -> float:
        div = self.Nv if self.periodic_v else self.Nv - 1
        return (self.v_max - self.v_min) / div

    @property
    def h(self) -> float:
        return max(self.hu, self.hv)

    @property
    def shape(self) -> tuple:
        return (self.Nu, self.Nv)

    def grid(self):
        """Meshgrid (U, V) of shape (Nu, Nv); periodic axes omit the endpoint."""
        u = self.u_min + self.hu * np.arange(self.Nu)
        v = self.v_min + self.hv * np.arange(self.Nv)
        return np.meshgrid(u, v, indexing="ij")

    def zgrid(self):
        U, V = self.grid()
        return U + 1j * V

    def refine(self) -> "Chart":
        """Chart on the same domain with twice the resolution."""
        Nu = 2 * self.Nu if self.periodic_u else 2 * self.Nu - 1
        Nv = 2 * self.Nv if self.periodic_v else 2 * self.Nv - 1
        return Chart(self.u_min, self.u_max, self.v_min, self.v_max,
                     Nu, Nv, self.topology)

    @cached_property
    def interior(self) -> np.ndarray:
        """The region of every residual norm, a read-only (Nu, Nv) mask:
        `interior_mask(DEFAULT_MARGIN)`, computed once per chart."""
        mask = self.interior_mask(DEFAULT_MARGIN)
        mask.flags.writeable = False
        return mask

    def interior_mask(self, margin: int = 0) -> np.ndarray:
        """Boolean (Nu, Nv) mask; False within `margin` cells of open edges.

        Raises ValueError when the margin leaves an open axis no interior
        point (at most 2 * margin points on it), so that no norm is taken
        over an empty region.
        """
        for axis, n, periodic in (("u", self.Nu, self.periodic_u),
                                  ("v", self.Nv, self.periodic_v)):
            if margin > 0 and not periodic and n <= 2 * margin:
                raise ValueError(
                    f"the open {axis}-axis has {n} points, and a margin of "
                    f"{margin} points at each edge leaves none of them: "
                    f"use at least {2 * margin + 1}")
        mask = np.ones((self.Nu, self.Nv), dtype=bool)
        if margin > 0:
            if not self.periodic_u:
                mask[:margin, :] = False
                mask[-margin:, :] = False
            if not self.periodic_v:
                mask[:, :margin] = False
                mask[:, -margin:] = False
        return mask


def _diff_axis(f: np.ndarray, h: float, axis: int, periodic: bool,
               rows: slice | None = None) -> np.ndarray:
    """Second-order first derivative along axis (0 or 1), over the whole
    grid or on the rows `rows` of it (a slice of axis 0 with unit step).

    The stencil numerators are written into one output array, which is
    then divided by 2h in place; a periodic axis takes its two wrap rows
    from the edge slices, an open one its one-sided edge rows.  Along
    axis 0 the stencil reads the neighbour rows of the range (the wrap
    rows at a periodic edge) and computes only the rows in it; along
    axis 1 it reads only the rows in it.  Each output row runs the same
    arithmetic in every range, so any row range is bit for bit those
    rows of the whole grid's derivative.
    """
    f = np.asarray(f)
    if axis and rows is not None:
        f, rows = f[rows], None
    n = f.shape[axis]
    start, stop = (0, n) if rows is None else rows.indices(n)[:2]
    shape = f.shape[:axis] + (stop - start,) + f.shape[axis + 1:]
    df = np.empty_like(f, dtype=np.result_type(f.dtype, float), shape=shape)
    sl = [slice(None)] * f.ndim

    def at(i):
        s = list(sl)
        s[axis] = i
        return tuple(s)

    # the central rows of the range, the edge rows excluded (none for a
    # range of one edge row)
    lo, hi = max(start, 1), min(stop, n - 1)
    np.subtract(f[at(slice(lo + 1, hi + 1))], f[at(slice(lo - 1, hi - 1))],
                out=df[at(slice(lo - start, hi - start))])
    if start == 0:
        if periodic:
            np.subtract(f[at(1)], f[at(-1)], out=df[at(0)])
        else:
            df[at(0)] = -3 * f[at(0)] + 4 * f[at(1)] - f[at(2)]
    if stop == n:
        if periodic:
            np.subtract(f[at(0)], f[at(-2)], out=df[at(-1)])
        else:
            df[at(-1)] = 3 * f[at(-1)] - 4 * f[at(-2)] + f[at(-3)]
    df /= 2 * h
    return df


def d_u(f: np.ndarray, c: Chart) -> np.ndarray:
    return _diff_axis(f, c.hu, 0, c.periodic_u)


def d_v(f: np.ndarray, c: Chart) -> np.ndarray:
    return _diff_axis(f, c.hv, 1, c.periodic_v)


def partial_rows(f: np.ndarray, c: Chart, axis: int, rows) -> np.ndarray:
    """The u- (axis 0) or v- (axis 1) partial of a grid field f on the
    rows `rows` of the grid (a slice of axis 0, or `...` for all), bit
    for bit those rows of `d_u(f, c)` or `d_v(f, c)`: a row block of a
    loop over the grid (`lorentz.row_blocks`) takes its stencil with no
    grid-sized output."""
    h, periodic = (c.hu, c.periodic_u) if axis == 0 else (c.hv, c.periodic_v)
    return _diff_axis(f, h, axis, periodic, None if rows is ... else rows)


def wirtinger(fu: np.ndarray, fv: np.ndarray, sign: int) -> np.ndarray:
    """0.5*(fu + sign*i*fv) from the two partials, sign = -1 (d_z) or +1.

    For real partials the halves are written straight into the real and
    imaginary parts of one complex array, with no complex temporaries;
    the result equals the complex formula bit for bit.
    """
    if np.iscomplexobj(fu) or np.iscomplexobj(fv):
        return 0.5 * (fu + 1j * fv) if sign > 0 else 0.5 * (fu - 1j * fv)
    out = np.empty(fu.shape, dtype=complex)
    np.multiply(fu, 0.5, out=out.real)
    np.multiply(fv, 0.5 * sign, out=out.imag)
    return out


def d_z(f: np.ndarray, c: Chart) -> np.ndarray:
    """Wirtinger derivative 0.5*(d_u - i d_v)."""
    return wirtinger(d_u(f, c), d_v(f, c), -1)


def d_zbar(f: np.ndarray, c: Chart) -> np.ndarray:
    """Wirtinger derivative 0.5*(d_u + i d_v)."""
    return wirtinger(d_u(f, c), d_v(f, c), 1)


def integrate(f: np.ndarray, c: Chart):
    """Integral of a scalar field over the chart, du dv measure.

    Trapezoidal rule in open directions, rectangle rule in periodic ones
    (exact for trigonometric polynomials below the Nyquist degree).
    """
    f = np.asarray(f)
    if c.periodic_u:
        g = np.sum(f, axis=0) * c.hu
    else:
        g = np.trapezoid(f, dx=c.hu, axis=0)
    if c.periodic_v:
        return np.sum(g, axis=0) * c.hv
    return np.trapezoid(g, dx=c.hv, axis=0)


def sweep(out: np.ndarray, step) -> np.ndarray:
    """Continuation over the grid of `out` (Nu, Nv, ...), in place from
    the seed out[0, 0]: along row 0 point by point, then each later row
    from its predecessor in one vectorized step, so the result is
    deterministic.  step(prev, at) returns the value at the index `at`
    ((0, j) on row 0, row i after it) continued from `prev`, its
    neighbour's value."""
    for j in range(1, out.shape[1]):
        out[0, j] = step(out[0, j - 1], (0, j))
    for i in range(1, out.shape[0]):
        out[i] = step(out[i - 1], i)
    return out


def _planes(a: np.ndarray) -> np.ndarray:
    """A real (Nu, Nv, ...) field as planes (k, Nu, Nv), one per entry
    (`lorentz.to_planes`)."""
    return to_planes(a.reshape(a.shape[:2] + (-1,)), values=1)


def sup_norm(f: np.ndarray, c: Chart) -> float:
    """Pointwise-magnitude sup of a field f (Nu, Nv, ...) over the
    chart's interior (`Chart.interior`), the region of every residual
    norm; trailing value axes are reduced with max |.|."""
    return float(np.max(np.max(_planes(np.abs(np.asarray(f))),
                               axis=0)[c.interior]))


def point_norms(f: np.ndarray) -> tuple:
    """(max, sum of squares) of the magnitudes |f| of a field f
    (rows, Nv, ...) across its trailing value entries, each a
    (rows, Nv) array: from |f| as contiguous planes (k, rows, Nv), so no
    reduction runs over a short trailing axis.  Pointwise, so a row
    block's values are bit for bit those rows of the whole grid's."""
    P = _planes(np.abs(np.asarray(f)))
    top = np.max(P, axis=0)
    np.square(P, out=P)      # P is |f| or a fresh transpose of it
    return top, np.sum(P, axis=0)


def interior_norms(top: np.ndarray, squares: np.ndarray, c: Chart) -> dict:
    """{"sup", "l2"} over the chart's interior from the whole grid's
    `point_norms`: the sup of the per-point max, the mask applied to the
    (Nu, Nv) array so no masked copy of the field is made, and the L2
    norm from the integral of the per-point sum of squares."""
    return {"sup": float(np.max(top[c.interior])),
            "l2": float(np.sqrt(integrate(
                np.where(c.interior, squares, 0.0), c)))}


def field_norms(f: np.ndarray, c: Chart) -> dict:
    """{"sup", "l2"} of a residual field f (Nu, Nv, ...) over the chart's
    interior (`point_norms`, then `interior_norms`).  The sup equals the
    nested per-axis max exactly; the L2 norm sums the squares in another
    order than one axis at a time, so it may differ from that by
    roundoff."""
    return interior_norms(*point_norms(f), c)
