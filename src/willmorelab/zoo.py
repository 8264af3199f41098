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
from .lorentz import row_blocks

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


def _json_fields(d, keys: tuple, what: str) -> list:
    """The values of `keys` in the JSON object `what`, d; else ValueError."""
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be a JSON object")
    missing = [key for key in keys if key not in d]
    if missing:
        raise ValueError(f"{what} has no {missing[0]!r} key")
    return [d[key] for key in keys]


def chart_from_dict(d: dict) -> Chart:
    """The chart of `chart_to_dict`; topology defaults to "open"."""
    u0, u1, v0, v1, Nu, Nv = _json_fields(
        d, ("u_min", "u_max", "v_min", "v_max", "Nu", "Nv"), "chart")
    return Chart(u0, u1, v0, v1, int(Nu), int(Nv), d.get("topology", "open"))


# Shortest round-trip digits of a float64 in numpy arithmetic (see
# _float_text): 10^k and its Veltkamp halves are exact doubles for
# 0 <= k <= 22.
_POW10 = np.array([float(10**k) for k in range(23)])
_VELTKAMP = 2.0**27 + 1.0
_POW10_HI = _VELTKAMP * _POW10 - (_VELTKAMP * _POW10 - _POW10)
_POW10_LO = _POW10 - _POW10_HI
_MANTISSA = (1 << 52) - 1
_EXPONENT = 0x7FF << 52
_GUARD = 2.0**-40
_DIGITS4 = np.frombuffer(b"".join(b"%04d" % i for i in range(10**4)),
                         dtype=np.uint32)
# distinct floats formatted per call, which bounds the temporaries
_TEXT_CHUNK = 1 << 15


def _two_product(a: np.ndarray, k: np.ndarray):
    """a * 10^k exactly, as hi + lo with hi = fl(a * 10^k) (Dekker 1971)."""
    hi = a * _POW10[k]
    t = _VELTKAMP * a
    ah = t - (t - a)
    al = a - ah
    ph, pl = _POW10_HI[k], _POW10_LO[k]
    return hi, ((ah * ph - hi) + ah * pl + al * ph) + al * pl


def _digits17(D: np.ndarray) -> np.ndarray:
    """The 17 ASCII decimal digits of each integer in [1e16, 1e17)."""
    quads = np.empty((D.size, 5), dtype=np.uint32)
    top = D // 10**8
    low = D - top * 10**8
    first = top // 10**8
    mid = top - first * 10**8
    quads[:, 0] = _DIGITS4[first]
    for col, part in ((1, mid), (3, low)):
        q = part // 10**4
        quads[:, col] = _DIGITS4[q]
        quads[:, col + 1] = _DIGITS4[part - q * 10**4]
    return quads.view(np.uint8)[:, 3:]


def _float_text(x: np.ndarray) -> np.ndarray:
    """repr() of each float of the 1-D float64 array x, as an S24 array.

    Normal values with 1e-6 < |x| < 1e16 whose shortest round-trip form
    has 15, 16 or 17 significant digits take a vectorized path: M =
    |x| 10^k in [1e16, 1e17) is formed exactly as hi + lo, the shortest
    digit count p is the least whose nearest p-digit rounding of M lies
    within half an ulp of x (the rounding interval holds at most one
    15-digit and at most two 16-digit candidates, the nearest of which
    repr writes), and the digits are laid out by repr's rules, one block
    of whole columns per (sign, decimal point) group.  repr itself
    formats the rest, chosen from each value's own bits: non-finite
    values, zeros, subnormals, |x| <= 1e-6 or >= 1e16, power-of-two
    mantissas (their rounding interval is lopsided), shortest forms
    below 15 digits, and any decision within 2^-40 (in units of M's last
    digit) of a tie or of the half-ulp bound.
    """
    text = np.zeros(x.size, dtype="S24")
    a = np.abs(x)
    bits = a.view(np.int64)
    eligible = (a > 1e-6) & (a < 1e16) & (bits & _MANTISSA != 0)
    fast = np.flatnonzero(eligible)
    a = a[fast]
    k = np.clip(16 - np.floor(np.log10(a)), 0, 22).astype(np.intp)
    hi, lo = _two_product(a, k)
    # half an ulp of a on M's scale: a power of two times 10^k, exact
    half_ulp = (bits[fast] & _EXPONENT).view(np.float64) * _POW10[k] \
        * 2.0**-53
    # M = 1000 q + rem: hi, an integer above 2^53, is exact in int64,
    # and rem is exact to 2^-44
    whole = hi.astype(np.int64)
    q = whole // 1000
    rem = (whole - 1000 * q).astype(np.float64) + lo
    # the nearest 15-, 16- and 17-digit roundings of M and their distances
    n15, n16, n17 = np.rint(rem * 0.01), np.rint(rem * 0.1), np.rint(rem)
    d15 = np.abs(rem - 100.0 * n15)
    d16 = np.abs(rem - 10.0 * n16)
    d17 = np.abs(rem - n17)
    p15 = d15 < half_ulp
    p16 = d16 < half_ulp        # true wherever p15 is
    # np.where would also turn an int64 operand into float64 and lose
    # the digits above 2^53, so only the last three digits pass through it
    D = 1000 * q + np.where(p15, 100.0 * n15,
                            np.where(p16, 10.0 * n16, n17)).astype(np.int64)
    exact = ((hi > 1e16) & (hi < 1e17)
             & (np.minimum(np.abs(d15 - half_ulp), np.abs(d16 - half_ulp))
                > _GUARD)
             & (np.minimum(np.abs(d16 - 5.0), np.abs(d17 - 0.5)) > _GUARD)
             # the 15-digit form ends in 0: shorter forms exist
             & ~(p15 & ((n15 == 0) | (n15 == 10))))
    slow = np.concatenate((np.flatnonzero(~eligible), fast[~exact]))
    text[slow] = [repr(v).encode() for v in x[slow].tolist()]

    p = (17 - p15 - p16)[exact]
    decpt = 17 - k[exact]          # x = 0.d1...d17 10^decpt
    D, fast = D[exact], fast[exact]
    # repr switches to exponent notation for decpt <= -4, where the
    # exponent follows the last digit, so those groups split by p
    key = (x[fast] < 0) * 128 + (decpt + 5) * 4 \
        + np.where(decpt < -3, p - 14, 0)
    order = np.argsort(key, kind="stable")
    key, decpt, p, D, fast = key[order], decpt[order], p[order], \
        D[order], fast[order]
    digits = _digits17(D)
    # digits past the last one repr writes read NUL, which the S24
    # view drops; in fixed notation repr writes up to the decimal
    # point and one digit after it
    last = np.maximum(p, decpt + 1)
    digits[:, 16] *= last > 16
    digits[:, 15] *= last > 15
    out = np.zeros((fast.size, 24), dtype=np.uint8)
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    for i, j in zip(starts, [*starts[1:], fast.size]):
        o, d = out[i:j], digits[i:j]
        s, e = int(key[i] >= 128), int(decpt[i])
        o[:, :s] = ord("-")
        if e > 0:
            o[:, s:s + e] = d[:, :e]
            o[:, s + e] = ord(".")
            o[:, s + e + 1:s + 18] = d[:, e:]
        elif e > -4:
            z = 2 - e
            o[:, s:s + z] = ord("0")
            o[:, s + 1] = ord(".")
            o[:, s + z:s + z + 17] = d
        else:
            n = int(p[i])
            o[:, s] = d[:, 0]
            o[:, s + 1] = ord(".")
            o[:, s + 2:s + n + 1] = d[:, 1:n]
            o[:, s + n + 1:s + n + 5] = np.frombuffer(b"e-0%d" % (1 - e),
                                                      dtype=np.uint8)
    text[fast] = out.view("S24")[:, 0]
    return text


def _text_table(x: np.ndarray) -> np.ndarray:
    """repr() of each float of the 1-D float64 array x (`_float_text`), as
    NUL-padded rows of bytes (x.size, 24), formatted _TEXT_CHUNK floats at
    a time."""
    table = np.empty((x.size, 24), dtype=np.uint8)
    for i in range(0, x.size, _TEXT_CHUNK):
        table[i:i + _TEXT_CHUNK] = \
            _float_text(x[i:i + _TEXT_CHUNK]).view(np.uint8).reshape(-1, 24)
    return table


def save(path: str, field: np.ndarray, c: Chart, fmt: str = "csv") -> None:
    """Write a lift field; csv has one row per grid point, json embeds the chart.

    The csv bytes are those of the csv module's writer fed repr() of each
    float, with CRLF line ends.  Each distinct float of the field (by bit
    pattern, so -0.0 stays apart from 0.0) is formatted once, by
    `_float_text`; its vectorized path takes 98.4-99.2% of the distinct
    floats of the N=256 reconstruct exports (92.8% of the 1447 of
    clifford_torus), and repr the rest.  u and v are formatted from the
    chart's `axes`.

    Lifetimes: the texts, NUL-padded byte rows, and each grid point's
    index into them live for the whole export.  The bytes of one row
    block of the grid (`lorentz.row_blocks`) at a time are gathered from
    them, each text followed by its separator (',' or CRLF, NUL-padded),
    and the NULs dropped, so no per-float object or per-row join exists.
    """
    if fmt == "json":
        with open(path, "w") as fh:
            json.dump({"chart": chart_to_dict(c),
                       "values": field.tolist()}, fh)
        return
    field = np.ascontiguousarray(field, dtype=float)
    if field.ndim != 3 or field.shape[:2] != c.shape:
        raise ValueError(f"field of shape {field.shape} is not a lift "
                         f"field on the chart's {c.Nu} x {c.Nv} grid")
    dim = field.shape[-1]
    bits, idx = np.unique(field.view(np.int64).ravel(), return_inverse=True)
    idx = idx.reshape(field.shape)
    text = _text_table(bits.view(np.float64))
    del bits
    u_text, v_text = (_text_table(x) for x in c.axes())
    # the separator after each column: a comma, or CRLF after the last
    sep = np.zeros((2 + dim, 2), dtype=np.uint8)
    sep[:, 0] = ord(",")
    sep[-1] = np.frombuffer(b"\r\n", dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(",".join(["u", "v"] + [f"Y{i}" for i in range(dim)])
                 .encode() + b"\r\n")
        for rows in row_blocks(c.shape):
            block = np.empty(idx[rows].shape[:2] + (2 + dim, 26),
                             dtype=np.uint8)
            block[..., 0, :24] = u_text[rows][:, None]
            block[..., 1, :24] = v_text
            block[..., 2:, :24] = text[idx[rows]]
            block[..., 24:] = sep
            fh.write(block[block != 0].tobytes())


def _read_table(path: str) -> np.ndarray:
    """The columns u, v, Y0, ... of a lift CSV, one row per grid point.

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
    return table


def load(path: str, c: Chart) -> np.ndarray:
    """Read a lift field on the chart c.

    Rejects grids of the wrong size and CSV rows whose u, v are not the
    chart's grid point in C order (within 1e-6 h; reported by row index).
    Whether the field is a lift is `surface.canonical_lift`'s test.
    """
    if path.endswith(".json"):
        with open(path) as fh:
            data = json.load(fh)
        chart, values = _json_fields(data, ("chart", "values"),
                                     "a JSON lift file")
        try:    # a value of the wrong JSON type, e.g. null or an object
            cf, field = chart_from_dict(chart), np.asarray(values, float)
        except TypeError as exc:
            raise ValueError(f"malformed JSON lift file: {exc}") from None
        if chart_to_dict(cf) != chart_to_dict(c):
            raise ValueError("chart in file does not match requested chart")
        if field.ndim != 3 or field.shape[:2] != c.shape:
            raise ValueError(
                f"grid mismatch: values have shape {field.shape}, "
                f"chart wants ({c.Nu}, {c.Nv}, dim)")
        return field
    table = _read_table(path)
    if len(table) != c.Nu * c.Nv:
        raise ValueError(
            f"grid mismatch: file has {len(table)} points, "
            f"chart wants {c.Nu * c.Nv}")
    uv = np.stack([g.ravel() for g in c.grid()], axis=-1)
    off = ~np.all(np.abs(table[:, :2] - uv) <= 1e-6 * c.h, axis=-1)
    if np.any(off):
        k = int(np.argmax(off))
        raise ValueError(
            f"row {k} has (u, v) = {tuple(table[k, :2].tolist())}, the "
            f"chart's grid point {k // c.Nv},{k % c.Nv} is "
            f"{tuple(uv[k].tolist())}")
    return np.ascontiguousarray(table[:, 2:]).reshape(c.Nu, c.Nv, -1)
