"""Discrete complex-coordinate charts and finite-difference Wirtinger calculus.

A chart is a rectangular grid in z = u + iv.  Fields are numpy arrays of
shape (Nu, Nv, ...) with arbitrary trailing value axes.  Derivatives use
second-order central stencils; periodic directions wrap, open directions
fall back to second-order one-sided stencils at the two boundary lines.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

TOPOLOGIES = ("open", "periodic-u", "periodic-v", "periodic-both")

# Default number of cells to trim from open-chart edges before taking
# residual norms.  Invariant residuals stack up to four nested one-sided
# stencils near a boundary, so the polluted band is several cells wide.
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

    def interior_mask(self, margin: int = 0) -> np.ndarray:
        """Boolean (Nu, Nv) mask; False within `margin` cells of open edges."""
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


def umbilic_mask(kappa: np.ndarray, eps_rel: float = 1e-8) -> np.ndarray:
    """Flag grid points where all Hopf-differential components nearly vanish.

    kappa has shape (Nu, Nv, n); the threshold is eps_rel times the field
    maximum of sqrt(sum |k_j|^2).
    """
    k = np.sqrt(np.sum(np.abs(kappa) ** 2, axis=-1))
    return k < eps_rel * (np.max(k) + 1e-300)


def _sup_of_abs(a: np.ndarray, mask: np.ndarray | None) -> float:
    while a.ndim > 2:
        a = np.max(a, axis=-1)
    if mask is not None:
        a = a[mask]
    return float(np.max(a))


def _l2_of_abs(a: np.ndarray, c: Chart, mask: np.ndarray | None) -> float:
    a = a ** 2
    while a.ndim > 2:
        a = np.sum(a, axis=-1)
    if mask is not None:
        a = np.where(mask, a, 0.0)
    return float(np.sqrt(integrate(a, c)))


def sup_norm(f: np.ndarray, mask: np.ndarray | None = None) -> float:
    """Pointwise-magnitude sup over the (unmasked) grid.

    Trailing value axes are reduced with max |.|; mask has shape (Nu, Nv)
    and True means "keep".
    """
    return _sup_of_abs(np.abs(np.asarray(f)), mask)


def l2_norm(f: np.ndarray, c: Chart, mask: np.ndarray | None = None) -> float:
    """Grid L2 norm sqrt(integral |f|^2 du dv), mask zeroing excluded points."""
    return _l2_of_abs(np.abs(np.asarray(f)), c, mask)


def residual_norms(fields: dict, c: Chart, mask: np.ndarray) -> dict:
    """{name: {"sup", "l2"}} of each field, both norms from one |f|."""
    out = {}
    for name, f in fields.items():
        a = np.abs(np.asarray(f))
        out[name] = {"sup": _sup_of_abs(a, mask),
                     "l2": _l2_of_abs(a, c, mask)}
    return out
