import numpy as np
import pytest

from willmorelab import surface, zoo
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
    assert surface.conformality_residual(Y, c) < 50 * c.h**2


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
    with pytest.raises(ValueError, match="mismatch"):
        zoo.load(str(tmp_path / "f.csv"), wrong)


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
