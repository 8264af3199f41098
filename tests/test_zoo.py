import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from willmorelab import cli, surface, zoo
from willmorelab.chart import Chart

import oracles


def test_spec_validation():
    with pytest.raises(ValueError):
        zoo.SurfaceSpec("klein_bottle")
    with pytest.raises(ValueError):
        zoo.SurfaceSpec("torus_of_revolution", 0.5)
    assert zoo.SurfaceSpec("veronese_s4").n == 2
    assert zoo.SurfaceSpec("catenoid").n == 1


@pytest.mark.parametrize("kind,param", [
    ("enneper", 7.0), ("round_sphere", 0.0), ("clifford_torus", 3.0),
    ("torus_of_revolution", None), ("torus_of_revolution", 1.0),
    ("torus_of_revolution", np.nan), ("torus_of_revolution", np.inf)])
def test_spec_rejects_ignored_or_invalid_parameters(kind, param):
    """A parameter on a kind that takes none, or a torus ratio that is
    not a finite number > 1, is rejected by name, not ignored or left
    to fail inside the pipeline."""
    with pytest.raises(ValueError, match=f"^{kind} .*param"):
        zoo.SurfaceSpec(kind, param)


@pytest.mark.parametrize("kind,param", [
    ("round_sphere", None), ("clifford_torus", None),
    ("torus_of_revolution", 3.0), ("catenoid", None),
    ("enneper", None), ("veronese_s4", None)])
def test_generated_lifts_are_forward_lightlike(kind, param):
    spec = zoo.SurfaceSpec(kind, param)
    c = zoo.default_chart(spec, 24)
    raw = zoo.generate(spec, c)
    assert raw.shape == c.shape + (spec.n + 4,)
    surface.canonical_lift(raw, c)      # raises at a point off the cone


@pytest.mark.parametrize("kind,param", [
    ("clifford_torus", None), ("torus_of_revolution", 2.0),
    ("enneper", None), ("veronese_s4", None)])
def test_generated_lifts_are_conformal(kind, param):
    spec = zoo.SurfaceSpec(kind, param)
    c = zoo.default_chart(spec, 32)
    raw = zoo.generate(spec, c)
    Y = surface.canonical_lift(raw, c)
    assert oracles.conformality_residual(Y, c) < 50 * c.h**2


def test_periodicity_enforced():
    spec = zoo.SurfaceSpec("clifford_torus")
    with pytest.raises(ValueError):
        zoo.generate(spec, Chart(0, 2 * np.pi, 0, 2 * np.pi, 16, 16, "open"))


def test_torus_profile_solves_the_ode():
    """theta' = R + cos theta, checked by finite differences."""
    R = 3.0
    v = np.linspace(0, 4 * np.pi, 4001)
    th = zoo._torus_profile(v, R)
    h = v[1] - v[0]
    dth = (th[2:] - th[:-2]) / (2 * h)
    rhs = R + np.cos(th[1:-1])
    assert np.max(np.abs(dth - rhs)) < 1e-4
    assert th[0] == pytest.approx(0.0)


def test_csv_roundtrip_is_bit_exact(tmp_path):
    spec = zoo.SurfaceSpec("catenoid")
    c = zoo.default_chart(spec, 16)
    raw = zoo.generate(spec, c)
    p = tmp_path / "lift.csv"
    zoo.save(str(p), raw, c)
    back = zoo.load(str(p), c)
    assert np.array_equal(back, raw)          # repr() round-trips floats


def _reconstructed_lift(tmp_path, kind):
    """The sphere-map lift `reconstruct --format csv` exports, read back
    (the CSV round trip is bit exact)."""
    c = zoo.default_chart(zoo.SurfaceSpec(kind), 96)
    p = tmp_path / "export.csv"
    chart = ",".join(map(str, (c.Nu, c.Nv, c.u_min, c.u_max, c.v_min,
                               c.v_max, c.topology)))
    assert cli.main(["reconstruct", "--surface", kind, "--chart", chart,
                     "--format", "csv", "--out", str(p)]) == 0
    return zoo.load(str(p), c), c


@pytest.mark.parametrize("source,kind,param", [
    ("generate", "round_sphere", None), ("generate", "clifford_torus", None),
    ("generate", "torus_of_revolution", 3.0), ("generate", "catenoid", None),
    ("generate", "enneper", None), ("generate", "veronese_s4", None),
    ("reconstruct", "veronese_s4", None), ("reconstruct", "enneper", None)],
    ids=["round_sphere", "clifford_torus", "torus_of_revolution", "catenoid",
         "enneper", "veronese_s4", "reconstruct-veronese_s4",
         "reconstruct-enneper"])
def test_csv_bytes_match_per_point_writer(tmp_path, source, kind, param):
    """The export writes the bytes of the per-point repr writer: on every
    zoo lift at N=96 (open and periodic charts) and on the sphere-map
    lifts that reconstruct exports."""
    if source == "generate":
        spec = zoo.SurfaceSpec(kind, param)
        c = zoo.default_chart(spec, 96)
        raw = zoo.generate(spec, c)
    else:
        raw, c = _reconstructed_lift(tmp_path, kind)
    zoo.save(str(tmp_path / "got.csv"), raw, c)
    oracles.save_csv_per_point(str(tmp_path / "want.csv"), raw, c)
    want = (tmp_path / "want.csv").read_bytes()
    assert len(want) > 0
    assert (tmp_path / "got.csv").read_bytes() == want


def test_csv_bytes_match_per_point_writer_on_special_values(tmp_path):
    """Each distinct float is formatted once, distinct by bit pattern:
    -0.0 next to 0.0, nan, +-inf, the smallest subnormal, values where
    repr switches notation, and values repeated across columns all come
    out as the per-point repr writer writes them."""
    c = Chart(0.0, 1.0, 0.0, 1.0, 5, 5, "open")
    special = [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e16,
               1e-5, 1e-4, 0.1 + 0.2, 0.3, 1.0, 0.25, -1.0]
    field = np.resize(np.array(special), c.shape + (7,))
    field[..., 3] = field[..., 0]          # a column repeated
    field[2, :, 5] = 0.25                  # a value of the u/v grid
    zoo.save(str(tmp_path / "got.csv"), field, c)
    oracles.save_csv_per_point(str(tmp_path / "want.csv"), field, c)
    got = (tmp_path / "got.csv").read_bytes()
    assert got == (tmp_path / "want.csv").read_bytes()
    for text in (b",-0.0,", b",0.0,", b"nan", b"-inf", b"5e-324", b"1e+16",
                 b"1e-05", b"0.30000000000000004"):
        assert text in got, text


def _edge_field(shape, dim, rng):
    """Floats at each edge of `zoo._float_text`'s vectorized path, laid
    over a field of the given grid shape and dim: signed zeros, nan,
    +-inf, subnormals, |x| at and next to 1e-6 and 1e16 (the path takes
    1e-6 < |x| < 1e16), and repr's fallbacks (power-of-two mantissas and
    short forms), among random floats of every scale."""
    edges = [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324,
             2.225073858507201e-308, 2.2250738585072014e-308, 0.5,
             2.0**-30, 1e22, 123.0, 0.1 + 0.2]
    for x in (1e-6, 1e16):
        edges += [x, -x, np.nextafter(x, 0.0), np.nextafter(x, np.inf)]
    field = rng.standard_normal(shape + (dim,)) \
        * 10.0 ** rng.integers(-30, 30, shape + (dim,))
    field.flat[:len(edges)] = edges
    field.flat[-len(edges):] = edges[::-1]
    return field


def _edge_fields():
    """(name, field) on a 70 x 64 grid, which makes row blocks of 64 rows
    (`lorentz.row_blocks`), so the last block has 6."""
    rng = np.random.default_rng(7)
    shape = (70, 64)
    transposed = _edge_field((64, 70), 10, rng).transpose(1, 0, 2)[..., ::2]
    assert not transposed.flags.c_contiguous
    return [("edges-dim5", _edge_field(shape, 5, rng)),
            ("edges-dim7", _edge_field(shape, 7, rng)),
            ("constant", np.full(shape + (5,), 0.1 + 0.2)),
            ("float32", _edge_field(shape, 5, rng).astype(np.float32)),
            ("non-contiguous", transposed)]


@pytest.mark.parametrize("name", [name for name, _ in _edge_fields()])
def test_csv_bytes_match_per_point_writer_on_edge_fields(tmp_path, name):
    """The export gathers each row block of the grid from the texts of
    the distinct floats and of the chart's u and v, and drops the NUL
    padding: its bytes are those of the per-point repr writer on fields
    at every edge of the formatter, with one distinct float, of dim 5
    and 7, on a grid whose rows are not a multiple of the row block, of
    float32 and not contiguous."""
    field = dict(_edge_fields())[name]
    c = Chart(-1.0, 1.0, 0.0, 2 * np.pi, 70, 64, "periodic-v")
    zoo.save(str(tmp_path / "got.csv"), field, c)
    oracles.save_csv_per_point(str(tmp_path / "want.csv"), field, c)
    want = (tmp_path / "want.csv").read_bytes()
    assert want.count(b"\r\n") == 70 * 64 + 1
    assert (tmp_path / "got.csv").read_bytes() == want


def test_csv_export_rejects_a_field_off_the_chart_grid(tmp_path):
    """A field whose grid is not the chart's is refused, not written."""
    c = Chart(0.0, 1.0, 0.0, 1.0, 5, 5, "open")
    with pytest.raises(ValueError, match="not a lift field"):
        zoo.save(str(tmp_path / "f.csv"), np.zeros((5, 4, 5)), c)
    assert not (tmp_path / "f.csv").exists()


def _float_text_edges():
    """Bit patterns at every branch of `zoo._float_text` and next to it."""
    pow2 = [2.0**e for e in range(-1074, 1024)]
    named = [0.0, np.nan, np.inf, 5e-324, 2.2250738585072014e-308,
             1e-4, 1e-5, 1e15, 1e16, 1e-6, 9999999999999998.0, 1e22, 1e23,
             0.1, 0.3, 0.1 + 0.2, 1 / 3, 2 / 3]
    # M = x 10^k is a half-integer (17th digit on a tie) or ends in an
    # exact 5 (16th digit on a tie): x = odd 2^-17, odd 2^-16 in [1, 10)
    # and x = m + 1/4, m + 1/2 from 1e15 up to 2^52 ...
    ties = ([(2**17 + 2 * i + 1) * 2.0**-17 for i in range(0, 2**20, 4099)]
            + [(2**16 + 2 * i + 1) * 2.0**-16 for i in range(0, 2**19, 2053)]
            + [1e15 + j / 4 for j in range(1, 64)]
            + [2.0**52 - j / 2 for j in range(1, 64, 2)])
    # and M = I + 1/2 +- 2^-s: x = o 2^-(s+k) with o 5^k = 2^(s-1) +- 1
    # (mod 2^s), an offset from the tie that float64 cannot resolve in
    # M's last three digits for s > 44
    for k in range(14, 23):
        for s in range(44, 55):
            for j in (1, -1):
                o = (2**(s - 1) + j) * pow(5**k, -1, 2**s) % 2**s
                o -= (o - 2**52) // 2**s * 2**s   # into [2^52, ...)
                if o < 2**53:
                    ties.append(o * 2.0**-(s + k))
    # x in [2^e, 2^(e+1)) whose rounding interval ends within 5 2^c (16
    # digits) or 25 2^c (15 digits) of a candidate, c = e - 53 + k: the
    # end's numerator o' = 2o +- 1 solves o' 5^(k-m) = +-1 (mod 2^(m-c)),
    # m = 1 or 2; float64 cannot resolve that offset in M's last three
    # digits when c < -46
    bounds = []
    for e in range(-20, 0):
        for k in range(16, 23):
            c = e - 53 + k
            for m in (1, 2):
                mod = 2**(m - c)
                for sign in (1, -1):
                    t = sign * pow(5**(k - m), -1, mod) % mod
                    odd = t - (t - 2**53) // mod * mod   # into [2^53, ...)
                    for o in ((odd - 1) // 2, (odd + 1) // 2):
                        if o < 2**53:
                            bounds.append(o * 2.0**(e - 52))
    base = np.array(pow2 + named + ties + bounds)
    near = np.concatenate([base, np.nextafter(base, 0.0),
                           np.nextafter(base, np.inf)])
    return np.concatenate([near, -near]).view(np.uint64).tolist()


# the bits of one float64: fully random, or with the exponent of the
# vectorized range (2^-20 <= |x| < 2^55) so that most draws exercise it
_any_bits = st.integers(0, 2**64 - 1)
_fast_bits = st.builds(lambda s, e, m: (s << 63) | (e << 52) | m,
                       st.integers(0, 1), st.integers(1003, 1077),
                       st.integers(0, 2**52 - 1))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(_any_bits, _fast_bits), min_size=1, max_size=64))
@example(_float_text_edges())
def test_float_text_matches_repr(patterns):
    """The vectorized formatter writes repr's bytes on raw 64-bit
    patterns, and on a fixed table of edge values: zeros, nan,
    infinities, subnormals, powers of two, the notation switches at
    1e-4/1e-5 and 1e15/1e16, the fast path's bounds 1e-6 and 1e16, 1e22,
    1e23 and values whose 16th or 17th digit sits on a tie, each with its
    two neighbours."""
    x = np.array(patterns, dtype=np.uint64).view(np.float64)
    assert zoo._float_text(x).tolist() == [repr(v).encode()
                                           for v in x.tolist()]


def test_float_text_takes_the_fast_path(monkeypatch):
    """repr formats at most 1% of a seeded sample of floats spanning
    seven decades: the fast path is on, not only the bytes right (170 of
    the 20,000 fall back here)."""
    rng = np.random.default_rng(0)
    x = rng.uniform(-1e3, 1e3, 20000) * 10.0 ** rng.integers(-4, 4, 20000)
    slow = []

    def spy(v):
        slow.append(v)
        return repr(v)

    monkeypatch.setattr(zoo, "repr", spy, raising=False)
    got = zoo._float_text(x).tolist()
    monkeypatch.undo()
    assert got == [repr(v).encode() for v in x.tolist()]
    assert 0 < len(slow) <= 0.01 * x.size


def test_two_product_is_exact(rng):
    """hi + lo is a 10^k exactly, with hi = fl(a 10^k), for every k the
    formatter uses."""
    a = rng.uniform(1, 10, 2000) * 10.0 ** rng.integers(-6, 16, 2000)
    k = np.clip(16 - np.floor(np.log10(a)), 0, 22).astype(np.intp)
    hi, lo = zoo._two_product(a, k)
    assert np.array_equal(hi, a * 10.0 ** k)
    for h, l, x, e in zip(hi.tolist(), lo.tolist(), a.tolist(), k.tolist()):
        assert Fraction(h) + Fraction(l) == Fraction(x) * 10**e, (x, e)


@pytest.mark.parametrize("kind,param,bounds,topology", [
    ("round_sphere", None, (-1.0, 1.0, -1.0, 1.0), "open"),
    ("clifford_torus", None, (0.0, 2 * np.pi, 0.0, 2 * np.pi),
     "periodic-both"),
    ("torus_of_revolution", 3.0, (0.0, 2 * np.pi, 0.0, np.pi / np.sqrt(2)),
     "periodic-both"),
    ("torus_of_revolution", 1.25, (0.0, 2 * np.pi, 0.0, 8 * np.pi / 3),
     "periodic-both"),
    ("catenoid", None, (0.0, 2 * np.pi, -1.0, 1.0), "periodic-u"),
    ("enneper", None, (-0.8, 0.8, -0.8, 0.8), "open"),
    ("veronese_s4", None, (-1.0, 1.0, -1.0, 1.0), "open")])
def test_default_chart_bounds_size_and_topology(kind, param, bounds,
                                                topology):
    """Each kind's default chart: its bounds (a torus of revolution's v
    period is 2 pi / sqrt(R^2 - 1)), N x N points, 64 by default, and
    its topology."""
    spec = zoo.SurfaceSpec(kind, param)
    for N, c in ((64, zoo.default_chart(spec)),
                 (24, zoo.default_chart(spec, 24))):
        assert (c.Nu, c.Nv, c.topology) == (N, N, topology)
        assert (c.u_min, c.u_max, c.v_min, c.v_max) \
            == pytest.approx(bounds, rel=1e-15, abs=0.0)


def test_json_roundtrip(tmp_path):
    spec = zoo.SurfaceSpec("round_sphere")
    c = zoo.default_chart(spec, 12)
    raw = zoo.generate(spec, c)
    p = tmp_path / "lift.json"
    zoo.save(str(p), raw, c, fmt="json")
    assert np.array_equal(zoo.load(str(p), c), raw)


def test_load_rejects_grid_mismatch(tmp_path):
    spec = zoo.SurfaceSpec("round_sphere")
    c = zoo.default_chart(spec, 12)
    zoo.save(str(tmp_path / "f.csv"), zoo.generate(spec, c), c)
    wrong = zoo.default_chart(spec, 16)
    with pytest.raises(ValueError, match="^grid mismatch: file has 144 "
                       "points, chart wants 256$"):
        zoo.load(str(tmp_path / "f.csv"), wrong)


@pytest.mark.filterwarnings("error")
def test_load_header_only_is_a_grid_mismatch(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("u,v,Y0,Y1,Y2,Y3,Y4\r\n")
    c = zoo.default_chart(zoo.SurfaceSpec("round_sphere"), 12)
    with pytest.raises(ValueError, match="^grid mismatch: file has 0 "):
        zoo.load(str(p), c)


def test_csv_reader_matches_float_reader(tmp_path, rng):
    """numpy's parser gives the csv module's float() values bit for bit:
    on an exported lift and on repr floats spanning 1e-300 to 1e300."""
    spec = zoo.SurfaceSpec("enneper")
    c = zoo.default_chart(spec, 64)
    p = tmp_path / "enneper.csv"
    zoo.save(str(p), zoo.generate(spec, c), c)
    assert np.array_equal(zoo._read_table(str(p))[:, 2:],
                          oracles.read_csv_per_float(str(p)))
    x = rng.uniform(1, 10, size=(4000, 7)) * rng.choice([-1, 1], (4000, 7)) \
        * 10.0 ** rng.integers(-300, 300, size=(4000, 7))
    p = tmp_path / "random.csv"
    p.write_text("u,v,Y0,Y1,Y2,Y3,Y4\r\n" + "".join(
        ",".join(repr(float(v)) for v in row) + "\r\n" for row in x))
    got = zoo._read_table(str(p))[:, 2:]
    assert np.array_equal(got, x[:, 2:])
    assert np.array_equal(got, oracles.read_csv_per_float(str(p)))


@pytest.mark.parametrize("line,text", [
    (5, "0,0,1,1"), (5, "0,0,1,1,0,0,x"), (5, "0,0,1,1,0,0,"),
    (5, "0,0,1,1,0,0,0,0"), (0, "u,v,Y0,Y1,Y2,Y3")],
    ids=["short", "word", "empty", "long", "narrow_header"])
def test_load_rejects_malformed_row(tmp_path, capsys, line, text):
    """A bad row, or rows wider than the header, raise ValueError, which
    the CLI turns into exit 3."""
    spec = zoo.SurfaceSpec("round_sphere")
    c = zoo.default_chart(spec, 12)
    p = tmp_path / "f.csv"
    zoo.save(str(p), zoo.generate(spec, c), c)
    lines = p.read_text().splitlines()
    lines[line] = text
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError):
        zoo.load(str(p), c)
    chart = ",".join(map(str, (c.Nu, c.Nv, c.u_min, c.u_max, c.v_min,
                               c.v_max, c.topology)))
    assert cli.main(["analyze", "--input", str(p), "--chart", chart]) == 3
    assert "error" in capsys.readouterr().err


def test_load_rejects_spacelike_row_with_index(tmp_path):
    """zoo.load reads a point off the cone as it is; canonical_lift, the
    one test of a lift, names its row of the file."""
    spec = zoo.SurfaceSpec("round_sphere")
    c = zoo.default_chart(spec, 12)
    raw = zoo.generate(spec, c).copy()
    raw[3, 7, 1] += 0.5                       # knock one point off the cone
    p = tmp_path / "bad.csv"
    zoo.save(str(p), raw, c)
    back = zoo.load(str(p), c)
    assert np.array_equal(back, raw)
    with pytest.raises(ValueError, match=f"^row {3 * c.Nv + 7} "):
        surface.canonical_lift(back, c)


ENNEPER_48 = "48,48,-0.8,0.8,-0.8,0.8,open"


@pytest.mark.parametrize("chart, columns, row", [
    ("48,48,-1.6,1.6,-1.6,1.6,open", [0, 1], 0),
    (ENNEPER_48, [1, 0], 1)], ids=["wrong_chart", "u_v_swapped"])
def test_load_rejects_u_v_off_the_chart_grid(tmp_path, capsys, chart,
                                             columns, row):
    """A CSV's u, v columns must be the chart's grid in C order: a file
    read on another chart of the same size, or written v-major, is a
    configuration error (exit 3) naming the first row off the grid, not
    a run of the pipeline on a rescaled or transposed surface."""
    c = cli._parse_chart(ENNEPER_48)
    p = tmp_path / "enneper.csv"
    zoo.save(str(p), zoo.generate(zoo.SurfaceSpec("enneper"), c), c)
    lines = p.read_text().splitlines()
    p.write_text("\n".join(lines[:1] + [
        ",".join([fields[i] for i in columns] + fields[2:])
        for fields in (line.split(",") for line in lines[1:])]) + "\n")
    with pytest.raises(ValueError, match=f"^row {row} has "):
        zoo.load(str(p), cli._parse_chart(chart))
    assert cli.main(["analyze", "--input", str(p), "--chart", chart]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: row {row} has ")


def test_load_json_chart_mismatch(tmp_path):
    spec = zoo.SurfaceSpec("round_sphere")
    c = zoo.default_chart(spec, 12)
    zoo.save(str(tmp_path / "f.json"), zoo.generate(spec, c), c, fmt="json")
    with pytest.raises(ValueError, match="chart"):
        zoo.load(str(tmp_path / "f.json"), c.refine())


@pytest.mark.parametrize("reshape", [lambda v: v.reshape(-1).tolist(),
                                     lambda v: v[:, :20].tolist()],
                         ids=["flat_list", "24x20"])
def test_load_json_rejects_values_off_the_chart_grid(tmp_path, capsys,
                                                     reshape):
    """JSON values that are not (Nu, Nv, dim) raise a grid mismatch, which
    the CLI turns into exit 3 (not a degenerate immersion, not an
    IndexError)."""
    spec = zoo.SurfaceSpec("enneper")
    c = zoo.default_chart(spec, 24)
    p = tmp_path / "f.json"
    p.write_text(json.dumps({"chart": zoo.chart_to_dict(c),
                             "values": reshape(zoo.generate(spec, c))}))
    with pytest.raises(ValueError, match=r"^grid mismatch: values have "
                       r"shape \(.*\), chart wants \(24, 24, dim\)$"):
        zoo.load(str(p), c)
    chart = ",".join(map(str, (c.Nu, c.Nv, c.u_min, c.u_max, c.v_min,
                               c.v_max, c.topology)))
    assert cli.main(["analyze", "--input", str(p), "--chart", chart]) == 3
    assert "error: grid mismatch" in capsys.readouterr().err


@pytest.mark.parametrize("data, message", [
    ({"values": [[1, 2]]}, "no 'chart' key"),
    ([[1, 2]], "must be a JSON object"),
    ({"chart": {"u_max": 1, "v_min": 0, "v_max": 1, "Nu": 8, "Nv": 8},
      "values": [[1, 2]]}, "no 'u_min' key"),
    ({"chart": {"u_min": 0, "u_max": 1, "v_min": 0, "v_max": 1, "Nu": None,
                "Nv": 8}, "values": [[1, 2]]}, "malformed JSON lift file"),
    ({"chart": {"u_min": 0, "u_max": 1, "v_min": 0, "v_max": 1, "Nu": 8,
                "Nv": 8}, "values": {"Y0": 1}}, "malformed JSON lift file"),
], ids=["no_chart", "top_level_list", "chart_without_a_bound", "null_Nu",
        "values_object"])
def test_malformed_json_input_exits_3(tmp_path, capsys, data, message):
    """A JSON lift file without its keys, that is not an object, or with a
    value of the wrong JSON type is a configuration error (exit 3) that
    names what is wrong, not a KeyError or TypeError."""
    p = tmp_path / "f.json"
    p.write_text(json.dumps(data))
    assert cli.main(["analyze", "--input", str(p), "--chart",
                     "8,8,0,1,0,1,open"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_external_minimal_surface_data_runs(tmp_path):
    """Hand-made samples (not from the generators) go through the pipeline."""
    c = Chart(-0.7, 0.7, -0.7, 0.7, 24, 24, "open")
    U, V = c.grid()
    # helicoid, a classical minimal surface
    x = np.stack([np.sinh(U) * np.cos(V), np.sinh(U) * np.sin(V), V],
                 axis=-1)
    raw = zoo.inverse_stereo_lift(x)
    p = tmp_path / "helicoid.csv"
    zoo.save(str(p), raw, c)
    S = surface.build_surface_data(zoo.load(str(p), c), c)
    res = surface.invariants(S).structure
    assert res["lift"]["sup"] < 100 * c.h**2
