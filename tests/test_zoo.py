import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from willmorelab import cli, surface, zoo
from willmorelab.chart import Chart
from willmorelab.lorentz import is_forward_lightlike

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
    assert np.all(is_forward_lightlike(raw, 1e-9))


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
    assert np.array_equal(zoo._read_csv(str(p)),
                          oracles.read_csv_per_float(str(p)))
    x = rng.uniform(1, 10, size=(4000, 7)) * rng.choice([-1, 1], (4000, 7)) \
        * 10.0 ** rng.integers(-300, 300, size=(4000, 7))
    p = tmp_path / "random.csv"
    p.write_text("u,v,Y0,Y1,Y2,Y3,Y4\r\n" + "".join(
        ",".join(repr(float(v)) for v in row) + "\r\n" for row in x))
    got = zoo._read_csv(str(p))
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
    spec = zoo.SurfaceSpec("round_sphere")
    c = zoo.default_chart(spec, 12)
    raw = zoo.generate(spec, c).copy()
    raw[3, 7, 1] += 0.5                       # knock one point off the cone
    p = tmp_path / "bad.csv"
    zoo.save(str(p), raw, c)
    with pytest.raises(ValueError, match=str(3 * c.Nv + 7)):
        zoo.load(str(p), c)


def test_load_json_chart_mismatch(tmp_path):
    spec = zoo.SurfaceSpec("round_sphere")
    c = zoo.default_chart(spec, 12)
    zoo.save(str(tmp_path / "f.json"), zoo.generate(spec, c), c, fmt="json")
    with pytest.raises(ValueError, match="chart"):
        zoo.load(str(tmp_path / "f.json"), c.refine(2))


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
