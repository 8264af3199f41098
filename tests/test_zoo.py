import json

import numpy as np
import pytest

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


@pytest.mark.parametrize("kind", ["enneper", "clifford_torus"])
def test_csv_bytes_match_per_point_writer(tmp_path, kind):
    """Row-at-a-time export writes the bytes of the per-point repr writer,
    on an open and on a periodic chart."""
    spec = zoo.SurfaceSpec(kind)
    c = zoo.default_chart(spec, 12)
    raw = zoo.generate(spec, c)
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
    res = surface.structure_residuals(S)
    assert res["lift"]["sup"] < 100 * c.h**2
