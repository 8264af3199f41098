"""Discrete complex-coordinate charts and finite-difference Wirtinger calculus.

A chart is a rectangular grid in z = u + iv.  Fields are numpy arrays of
shape (Nu, Nv, ...) with arbitrary trailing value axes.  Derivatives use
second-order central stencils; periodic directions wrap, open directions
fall back to second-order one-sided stencils at the two boundary lines.
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

    def refine(self, factor: int = 2) -> "Chart":
        """Chart on the same domain with factor-times the resolution."""
        if self.periodic_u:
            Nu = self.Nu * factor
        else:
            Nu = (self.Nu - 1) * factor + 1
        Nv = self.Nv * factor if self.periodic_v else (self.Nv - 1) * factor + 1
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


def _diff_axis(f: np.ndarray, h: float, axis: int, periodic: bool) -> np.ndarray:
    """Second-order first derivative along axis.

    The stencil numerators are written into one output array, which is
    then divided by 2h in place; a periodic axis takes its two wrap rows
    from the edge slices.
    """
    f = np.asarray(f)
    df = np.empty_like(f, dtype=np.result_type(f.dtype, float))
    sl = [slice(None)] * f.ndim

    def at(i):
        s = list(sl)
        s[axis] = i
        return tuple(s)

    np.subtract(f[at(slice(2, None))], f[at(slice(0, -2))],
                out=df[at(slice(1, -1))])
    if periodic:
        np.subtract(f[at(1)], f[at(-1)], out=df[at(0)])
        np.subtract(f[at(0)], f[at(-2)], out=df[at(-1)])
    else:
        df[at(0)] = -3 * f[at(0)] + 4 * f[at(1)] - f[at(2)]
        df[at(-1)] = 3 * f[at(-1)] - 4 * f[at(-2)] + f[at(-3)]
    df /= 2 * h
    return df


def d_u(f: np.ndarray, c: Chart) -> np.ndarray:
    return _diff_axis(f, c.hu, 0, c.periodic_u)


def d_v(f: np.ndarray, c: Chart) -> np.ndarray:
    return _diff_axis(f, c.hv, 1, c.periodic_v)


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


def _sup_of_planes(P: np.ndarray, mask: np.ndarray | None) -> float:
    """Sup of the magnitudes P (k, Nu, Nv): the per-point max across the
    planes, then the mask on the (Nu, Nv) result, so no masked copy of
    the whole field is made.  Raises ValueError when the mask keeps no
    grid point."""
    a = np.max(P, axis=0)
    if mask is not None:
        if not np.any(mask):
            raise ValueError("the residual mask keeps no grid point")
        a = a[mask]
    return float(np.max(a))


def sup_norm(f: np.ndarray, mask: np.ndarray | None = None) -> float:
    """Pointwise-magnitude sup over the (unmasked) grid.

    Trailing value axes are reduced with max |.|; mask has shape (Nu, Nv)
    and True means "keep".
    """
    return _sup_of_planes(_planes(np.abs(np.asarray(f))), mask)


def field_norms(f: np.ndarray, c: Chart, mask: np.ndarray) -> dict:
    """{"sup", "l2"} of a residual field f (Nu, Nv, ...) over the mask.

    Both come from one |f|, as contiguous planes (k, Nu, Nv): the sup
    from the per-point max across the planes, the L2 norm from the sum
    of their squares, so no reduction runs over a short trailing axis.
    The sup equals the nested per-axis max exactly; the L2 norm sums the
    squares in another order than one axis at a time, so it may differ
    from that by roundoff.
    """
    P = _planes(np.abs(np.asarray(f)))
    sup = _sup_of_planes(P, mask)
    np.square(P, out=P)      # P is |f| or a fresh transpose of it
    a = np.sum(P, axis=0)
    return {"sup": sup, "l2": float(np.sqrt(integrate(np.where(mask, a, 0.0),
                                                      c)))}


def residual_norms(fields: dict, c: Chart, mask: np.ndarray) -> dict:
    """{name: {"sup", "l2"}} of each field (`field_norms`)."""
    return {name: field_norms(f, c, mask) for name, f in fields.items()}
