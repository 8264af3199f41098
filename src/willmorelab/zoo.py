"""Analytic example surfaces (as light-cone lifts) and file ingestion.

Every generator returns samples of a forward-lightlike lift of a
conformal immersion into the sphere, ready for the canonical-lift
pipeline.  Nothing here is trusted: the test suite re-validates each
example through the structure equations.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

from .chart import Chart
from .lorentz import is_forward_lightlike

KINDS = ("round_sphere", "clifford_torus", "torus_of_revolution",
         "catenoid", "enneper", "veronese_s4")


@dataclass(frozen=True)
class SurfaceSpec:
    kind: str
    param: float | None = None   # radius ratio for torus_of_revolution

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown surface kind {self.kind!r}")
        if self.kind == "torus_of_revolution":
            # NaN fails both comparisons
            if self.param is None or not 1.0 < self.param < np.inf:
                raise ValueError("torus_of_revolution needs a finite ratio "
                                 f"param > 1, got {self.param!r}")
        elif self.param is not None:
            raise ValueError(f"{self.kind} takes no parameter, got "
                             f"param {self.param!r}")

    @property
    def n(self) -> int:
        """Codimension in the sphere (ambient R^{n+4})."""
        return 2 if self.kind == "veronese_s4" else 1


def default_chart(spec: SurfaceSpec, N: int = 64) -> Chart:
    """The natural chart for each example at resolution about N."""
    kind = spec.kind
    if kind in ("clifford_torus",):
        return Chart(0, 2 * np.pi, 0, 2 * np.pi, N, N, "periodic-both")
    if kind == "torus_of_revolution":
        T = 2 * np.pi / np.sqrt(spec.param**2 - 1.0)
        return Chart(0, 2 * np.pi, 0, T, N, N, "periodic-both")
    if kind == "catenoid":
        return Chart(0, 2 * np.pi, -1.0, 1.0, N, N, "periodic-u")
    if kind in ("round_sphere", "veronese_s4"):
        return Chart(-1.0, 1.0, -1.0, 1.0, N, N, "open")
    if kind == "enneper":
        return Chart(-0.8, 0.8, -0.8, 0.8, N, N, "open")
    raise ValueError(kind)


def _stereo_sphere(U, V):
    """Inverse stereographic map of the (u,v) plane onto the unit 2-sphere."""
    r2 = U**2 + V**2
    den = 1.0 + r2
    return 2 * U / den, 2 * V / den, (r2 - 1.0) / den


def inverse_stereo_lift(x: np.ndarray) -> np.ndarray:
    """Light-cone lift of a map x into R^{n+2}.

    Y = ((1+|x|^2)/2, x, (1-|x|^2)/2); under the projective identification
    this is the inverse stereographic image of x in S^{n+2}.
    """
    r2 = np.sum(x**2, axis=-1)
    return np.concatenate([(1 + r2)[..., None] / 2, x,
                           (1 - r2)[..., None] / 2], axis=-1)


def _unit_sphere_lift(y: np.ndarray) -> np.ndarray:
    """Lift (1, y) of a unit-sphere-valued map."""
    one = np.ones(y.shape[:-1] + (1,))
    return np.concatenate([one, y], axis=-1)


def _torus_profile(v: np.ndarray, R: float) -> np.ndarray:
    """theta(v) solving d theta / d v = R + cos theta, theta(0) = 0.

    Closed form: with a = sqrt(R^2-1) and w = a v / 2,
    theta = 2 atan2(sqrt((R+1)/(R-1)) sin w, cos w), unwrapped over full
    periods of w.
    """
    a = np.sqrt(R * R - 1.0)
    w = a * v / 2.0
    cyc = np.floor(w / np.pi + 0.5)
    wr = w - np.pi * cyc
    c = np.sqrt((R + 1.0) / (R - 1.0))
    return 2.0 * (np.arctan2(c * np.sin(wr), np.cos(wr)) + np.pi * cyc)


def generate(spec: SurfaceSpec, c: Chart) -> np.ndarray:
    """Sample the lift of the requested surface on the chart."""
    U, V = c.grid()
    kind = spec.kind

    if kind == "round_sphere":
        x, y, z = _stereo_sphere(U, V)
        sphere = np.stack([x, y, z, np.zeros_like(x)], axis=-1)
        return _unit_sphere_lift(sphere)

    if kind == "clifford_torus":
        if not (c.periodic_u and c.periodic_v):
            raise ValueError("clifford_torus needs a doubly periodic chart")
        y = np.stack([np.cos(U), np.sin(U), np.cos(V), np.sin(V)],
                     axis=-1) / np.sqrt(2.0)
        return _unit_sphere_lift(y)

    if kind == "torus_of_revolution":
        if not (c.periodic_u and c.periodic_v):
            raise ValueError("torus_of_revolution needs a doubly periodic chart")
        R = spec.param
        th = _torus_profile(V, R)
        rad = R + np.cos(th)
        x = np.stack([rad * np.cos(U), rad * np.sin(U), np.sin(th)], axis=-1)
        return inverse_stereo_lift(x)

    if kind == "catenoid":
        if not c.periodic_u:
            raise ValueError("catenoid needs a u-periodic chart")
        x = np.stack([np.cosh(V) * np.cos(U), np.cosh(V) * np.sin(U), V],
                     axis=-1)
        return inverse_stereo_lift(x)

    if kind == "enneper":
        x = np.stack([U - U**3 / 3 + U * V**2,
                      V - V**3 / 3 + V * U**2,
                      U**2 - V**2], axis=-1)
        return inverse_stereo_lift(x)

    if kind == "veronese_s4":
        x, y, z = _stereo_sphere(U, V)
        r3 = np.sqrt(3.0)
        phi = np.stack([r3 * y * z, r3 * z * x, r3 * x * y,
                        (r3 / 2) * (x**2 - y**2),
                        0.5 * (x**2 + y**2 - 2 * z**2)], axis=-1)
        return _unit_sphere_lift(phi)

    raise ValueError(kind)


def chart_to_dict(c: Chart) -> dict:
    return {"u_min": c.u_min, "u_max": c.u_max, "v_min": c.v_min,
            "v_max": c.v_max, "Nu": c.Nu, "Nv": c.Nv,
            "topology": c.topology}


def chart_from_dict(d: dict) -> Chart:
    return Chart(d["u_min"], d["u_max"], d["v_min"], d["v_max"],
                 int(d["Nu"]), int(d["Nv"]), d.get("topology", "open"))


def save(path: str, field: np.ndarray, c: Chart, fmt: str = "csv") -> None:
    """Write a lift field; csv has one row per grid point, json embeds the chart."""
    if fmt == "json":
        with open(path, "w") as fh:
            json.dump({"chart": chart_to_dict(c),
                       "values": field.tolist()}, fh)
        return
    U, V = c.grid()
    dim = field.shape[-1]
    table = np.concatenate([U[..., None], V[..., None], field], axis=-1,
                           dtype=float)
    # The bytes of the csv module's writer (repr of each float, \r\n
    # line ends).  The grid columns and the lifts repeat values, so each
    # distinct float is formatted once; distinct by bit pattern, since
    # by value -0.0 would merge into 0.0.
    bits, idx = np.unique(table.view(np.int64).ravel(), return_inverse=True)
    text = np.array(list(map(repr, bits.view(np.float64).tolist())),
                    dtype=object)
    idx = idx.reshape(table.shape)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["u", "v"] + [f"Y{i}" for i in range(dim)])
                 + "\r\n")
        # one grid row at a time bounds the strings held at once
        for i in range(c.Nu):
            fh.write("\r\n".join(map(",".join, text[idx[i]].tolist()))
                     + "\r\n")


def _read_csv(path: str) -> np.ndarray:
    """The Y columns of a lift CSV, one row per grid point.

    numpy's parser rounds each float correctly, so a file written by
    `save` reads back bit for bit.  Short, long and malformed rows raise
    ValueError.
    """
    with open(path) as fh:
        header = fh.readline().rstrip("\r\n").split(",")
        if header[:2] != ["u", "v"]:
            raise ValueError("expected header u,v,Y0,...")
        with warnings.catch_warnings():
            # a file without rows is reported as a grid mismatch
            warnings.simplefilter("ignore", UserWarning)
            table = np.loadtxt(fh, delimiter=",", ndmin=2)
    if len(table) and table.shape[1] != len(header):
        raise ValueError(f"rows have {table.shape[1]} columns, "
                         f"header has {len(header)}")
    return np.ascontiguousarray(table[:, 2:])


def load(path: str, c: Chart) -> np.ndarray:
    """Read a lift field and validate it against the chart.

    Rejects grids of the wrong size and rows that are not forward
    lightlike within a relative null defect of 1e-9 (reported by row
    index).
    """
    if path.endswith(".json"):
        with open(path) as fh:
            data = json.load(fh)
        cf = chart_from_dict(data["chart"])
        if chart_to_dict(cf) != chart_to_dict(c):
            raise ValueError("chart in file does not match requested chart")
        field = np.asarray(data["values"], dtype=float)
        if field.ndim != 3 or field.shape[:2] != c.shape:
            raise ValueError(
                f"grid mismatch: values have shape {field.shape}, "
                f"chart wants ({c.Nu}, {c.Nv}, dim)")
    else:
        rows = _read_csv(path)
        if len(rows) != c.Nu * c.Nv:
            raise ValueError(
                f"grid mismatch: file has {len(rows)} points, "
                f"chart wants {c.Nu * c.Nv}")
        field = rows.reshape(c.Nu, c.Nv, -1)
    ok = is_forward_lightlike(field, 1e-9)
    if not np.all(ok):
        i, j = np.argwhere(~ok)[0]
        raise ValueError(
            f"row {int(i) * c.Nv + int(j)} (grid point {int(i)},{int(j)}) "
            "is not forward lightlike")
    return field
