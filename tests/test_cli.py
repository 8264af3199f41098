import ast
import dataclasses
import json
import os
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from willmorelab import (cli, gauss_frame, harmonic, lorentz, reconstruct,
                         surface, zoo)

import helpers

CLIFF_CHART = "32,32,0,6.283185307179586,0,6.283185307179586,periodic-both"


def run(*argv):
    return cli.main(list(argv))


def test_analyze_clifford_passes(tmp_path):
    out = tmp_path / "report.json"
    code = run("analyze", "--surface", "clifford_torus",
               "--chart", CLIFF_CHART, "--out", str(out))
    assert code == 0
    rep = json.loads(out.read_text())
    for section in ("config", "invariants", "residuals",
                    "classification", "roundtrip"):
        assert section in rep
    assert rep["invariants"]["willmore_energy"] == pytest.approx(
        2 * np.pi**2, rel=5e-2)
    assert all(ch["pass"] for ch in rep["checks"])
    for ch in rep["checks"]:               # every line carries value + tol
        assert "value" in ch and "tol" in ch


def test_analyze_round_sphere_kappa(tmp_path):
    out = tmp_path / "r.json"
    assert run("analyze", "--surface", "round_sphere",
               "--out", str(out)) == 0
    rep = json.loads(out.read_text())
    assert rep["invariants"]["kappa_max"] <= 1e-10


def test_analyze_control_torus_fails(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = run("analyze", "--surface", "torus_of_revolution:3",
               "--out", str(out))
    assert code == 2
    rep = json.loads(out.read_text())
    failed = {c["name"] for c in rep["checks"] if not c["pass"]}
    assert "willmore_residual" in failed
    assert "FAIL" in capsys.readouterr().out


def test_verify_harmonic_with_lambda_samples(tmp_path):
    out = tmp_path / "vh.json"
    code = run("verify-harmonic", "--surface", "clifford_torus",
               "--chart", CLIFF_CHART, "--lambda-samples", "1,i,-1",
               "--refine", "2", "--out", str(out))
    assert code == 0
    rep = json.loads(out.read_text())
    assert set(rep) == {"config", "invariants", "residuals",
                        "classification", "roundtrip", "checks"}
    levels = rep["residuals"]["levels"]
    assert len(levels) == 2
    assert len(levels[0]["flatness"]) == 3
    assert "observed_orders" in levels[-1]


def test_verify_harmonic_external_input_skips_convergence_order(
        tmp_path, capsys):
    """External data has no generator: one level and an explicit SKIP."""
    c = cli._parse_chart(CLIFF_CHART)
    lift = tmp_path / "lift.csv"
    zoo.save(str(lift), zoo.generate(zoo.SurfaceSpec("clifford_torus"), c),
             c, fmt="csv")
    out = tmp_path / "vh.json"
    code = run("verify-harmonic", "--input", str(lift),
               "--chart", CLIFF_CHART, "--refine", "3", "--out", str(out))
    assert code == 0
    assert ("SKIP convergence_order: external input has no generator to "
            "refine") in capsys.readouterr().out.splitlines()
    rep = json.loads(out.read_text())
    assert rep["skipped"] == [{"name": "convergence_order", "reason":
                               "external input has no generator to refine"}]
    levels = rep["residuals"]["levels"]
    assert len(levels) == 1 and "observed_orders" not in levels[0]
    assert levels[0]["h"] == pytest.approx(c.h)


def test_reconstruct_clifford_exports_surface(tmp_path):
    out = tmp_path / "dump.csv"
    code = run("reconstruct", "--surface", "clifford_torus",
               "--chart", CLIFF_CHART, "--format", "csv",
               "--out", str(out))
    assert code == 0
    c = cli._parse_chart(CLIFF_CHART)
    back = zoo.load(str(out), c)        # valid lift samples round-trip
    assert back.shape == (32, 32, 5)


# analyze at N=48 on the default chart: willmore_energy, kappa_max and
# s_willmore_max_rank (for clifford_torus and veronese_s4 the values that
# the tier-1 workflow's round trips store)
ROUND_TRIP_STORED = {
    "clifford_torus": (19.626724057496666, 0.3525445816247156, 1),
    "torus_of_revolution:3": (31.22592404312485, 0.7493889070158901, 1),
    "veronese_s4": (13.896551426476494, 1.0008527821557844, 2),
    "enneper": (5.563337219073534, 0.995196020052018, 1),
    "catenoid": (9.530874957867557, 0.49841992684653286, 1)}

# the b2i export is not the input surface: reconstruct exits 0, but
# analyze --input of its export exits 3 on enneper (group residual 2.44
# against 0.579) and 2 on catenoid (integrability.gauss 1.72 against 1.71)
B2I_EXPORT = pytest.mark.xfail(
    strict=True, reason="the b2i export does not read back through "
    "analyze: its frame fails the group test (enneper) or the Gauss "
    "equation (catenoid)")


@pytest.mark.parametrize("surface", [
    "clifford_torus",
    pytest.param("torus_of_revolution:3", marks=pytest.mark.xfail(
        strict=True, reason="the non-Willmore control lies outside the "
        "reconstruction theorem: reconstruct exits 2 (case a2, dual "
        "orientation fails) and its export is another surface")),
    "veronese_s4",
    pytest.param("enneper", marks=B2I_EXPORT),
    pytest.param("catenoid", marks=B2I_EXPORT)])
def test_csv_export_reads_back_to_the_direct_invariants(tmp_path, surface):
    """reconstruct --format csv, then analyze --input of the export, at
    N=48: all three runs exit 0, and the export's Willmore energy and
    kappa_max agree with those of the surface analyzed directly to 1e-12
    relative, its S-Willmore rank exactly.  The direct values agree as
    closely with stored ones, so a defect both runs share still fails."""
    kind, _, param = surface.partition(":")
    c = zoo.default_chart(zoo.SurfaceSpec(kind, float(param) if param
                                          else None), 48)
    chart = ",".join(map(str, (c.Nu, c.Nv, c.u_min, c.u_max, c.v_min,
                               c.v_max, c.topology)))
    export = tmp_path / "export.csv"
    assert run("reconstruct", "--surface", surface, "--chart", chart,
               "--format", "csv", "--out", str(export)) == 0
    reports = {}
    for name, source in (("direct", ["--surface", surface]),
                         ("export", ["--input", str(export)])):
        out = tmp_path / f"{name}.json"
        assert run("analyze", *source, "--chart", chart,
                   "--out", str(out)) == 0
        reports[name] = json.loads(out.read_text())["invariants"]
    stored = dict(zip(("willmore_energy", "kappa_max",
                       "s_willmore_max_rank"), ROUND_TRIP_STORED[surface]))
    direct, back = reports["direct"], reports["export"]
    for key in ("willmore_energy", "kappa_max"):
        assert direct[key] == pytest.approx(stored[key], rel=1e-12, abs=0)
        assert back[key] == pytest.approx(direct[key], rel=1e-12, abs=0)
    key = "s_willmore_max_rank"
    assert back[key] == direct[key] == stored[key]


def _mobius(dim, r):
    """T = B R in SO+(1, dim - 1), in closed form: B a boost of rapidity
    r along a unit direction drawn with seed 0, R a rotation by 0.3 rad
    in the (1, 2) plane."""
    d = np.random.default_rng(0).standard_normal(dim - 1)
    d /= np.linalg.norm(d)
    B = np.eye(dim)
    B[0, 0] = np.cosh(r)
    B[0, 1:] = B[1:, 0] = np.sinh(r) * d
    B[1:, 1:] += (np.cosh(r) - 1.0) * np.outer(d, d)
    R = np.eye(dim)
    R[1, 1] = R[2, 2] = np.cos(0.3)
    R[2, 1] = np.sin(0.3)
    R[1, 2] = -R[2, 1]
    return B @ R


MOBIUS_FAILS = "a strong boost moves the case: clifford_torus reads b2i " \
    "and exits 2, veronese_s4 exits 3 (could not reach the canonical B1 " \
    "shape)"


@pytest.mark.parametrize("kind, r", [
    ("clifford_torus", 1.5), ("veronese_s4", 1.5),
    pytest.param("clifford_torus", 3.0, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason=MOBIUS_FAILS)),
    pytest.param("veronese_s4", 3.0, marks=pytest.mark.xfail(
        strict=True, reason=MOBIUS_FAILS))])
def test_reconstruct_is_mobius_invariant(tmp_path, kind, r):
    """A constant Moebius transform T of the lift, applied as raw @ T.T
    at N=64 and read through zoo.save and --input, is a congruent
    surface: reconstruct keeps case a2 and exits 0."""
    spec = zoo.SurfaceSpec(kind)
    c = zoo.default_chart(spec, 64)
    raw = zoo.generate(spec, c)
    T = _mobius(raw.shape[-1], r)
    I = np.diag(lorentz.metric_signs(raw.shape[-1]))
    assert np.max(np.abs(T.T @ I @ T - I)) < 1e-9 and T[0, 0] > 0
    lift, out = tmp_path / "lift.csv", tmp_path / "report.json"
    zoo.save(str(lift), raw @ T.T, c, fmt="csv")
    chart = ",".join(map(str, (c.Nu, c.Nv, c.u_min, c.u_max, c.v_min,
                               c.v_max, c.topology)))
    code = run("reconstruct", "--input", str(lift), "--chart", chart,
               "--out", str(out))
    assert out.exists()
    assert json.loads(out.read_text())["classification"]["case"] == "a2"
    assert code == 0


# canonicalize_B1 refuses B1 when max|B1^t I B1| / max|B1|^2 exceeds
# max(tol, 50 h^2), so both runs exit 3 with "B1^t I B1 != 0": enneper
# from N=448 on (6.54e-4 against 6.41e-4, the max on the open edge line:
# an O(h) band against an h^2 bar), veronese_s4 on [-2, 2]^2 at N=96
# (9.25e-2 against 8.86e-2, the max inside: O(h^2) with a constant of
# about 54 against 50)
NULLITY_BAR = pytest.mark.xfail(
    strict=True, reason="the B1 nullity bar 50 h^2 refuses a Willmore "
    "surface under refinement")


@pytest.mark.parametrize("kind, chart, case", [
    pytest.param("enneper", "448,448,-0.8,0.8,-0.8,0.8,open", "b2i",
                 marks=NULLITY_BAR),
    pytest.param("veronese_s4", "96,96,-2.0,2.0,-2.0,2.0,open", "a2",
                 marks=NULLITY_BAR)])
def test_reconstruct_keeps_a_refined_willmore_surface(tmp_path, kind, chart,
                                                      case):
    """reconstruct of a Willmore surface exits 0 with its case on a finer
    grid or a wider chart than the default."""
    out = tmp_path / "report.json"
    assert run("reconstruct", "--surface", kind, "--chart", chart,
               "--out", str(out)) == 0
    assert json.loads(out.read_text())["classification"]["case"] == case


@pytest.mark.parametrize("command", ["analyze", "verify-harmonic"])
def test_csv_export_without_a_surface_is_rejected(tmp_path, capsys, command):
    """Only reconstruct exports CSV; elsewhere --format csv --out would
    write nothing, so it is a configuration error (exit 3)."""
    out = tmp_path / "f.csv"
    assert run(command, "--surface", "clifford_torus", "--chart",
               CLIFF_CHART, "--format", "csv", "--out", str(out)) == 3
    assert "--format csv is for reconstruct" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("case", ["b1", "b2ii", "ambiguous"])
def test_reconstruct_skips_export_without_a_surface(tmp_path, capsys,
                                                    monkeypatch, case):
    """A case with no surface prints and reports a SKIP for the requested
    export instead of silently writing nothing."""
    classify = reconstruct.classify
    monkeypatch.setattr(reconstruct, "classify",
                        lambda NF: dataclasses.replace(classify(NF),
                                                       case=case))
    out = tmp_path / "f.csv"
    argv = ["--surface", "clifford_torus", "--chart", CLIFF_CHART,
            "--format", "csv", "--out", str(out)]
    assert run("reconstruct", *argv) == 0
    line = f"SKIP export: case {case} has no surface to export"
    assert line in capsys.readouterr().out.splitlines()
    assert not out.exists()
    report, _ = cli.cmd_reconstruct(cli.build_config(
        cli.make_parser().parse_args(["reconstruct"] + argv)))
    assert report["skipped"] == [{"name": "export", "reason":
                                  f"case {case} has no surface to export"}]


def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"surface": "torus_of_revolution:3",
                               "chart": CLIFF_CHART}))
    out = tmp_path / "rep.json"
    # the flag beats the config file
    code = run("analyze", "--config", str(cfg),
               "--surface", "clifford_torus", "--out", str(out))
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["config"]["surface"] == "clifford_torus"


@pytest.mark.parametrize("flags", [["--format", "xml"], ["--refine", "x"],
                                   ["--refine", "1"], ["--refine", "0"],
                                   ["--refine", "-3"]])
def test_bad_flag_value_exits_3(capsys, flags):
    """A bad flag is a configuration error (3), not argparse's 2, which
    would read as a verification failure; fewer than two refinement
    levels would leave no convergence order to observe."""
    assert run("analyze", "--surface", "clifford_torus", *flags) == 3
    err = capsys.readouterr().err
    assert "invalid" in err and flags[0] in err


@pytest.mark.parametrize("tol", [np.inf, np.nan, -1.0])
@pytest.mark.parametrize("via", ["flag", "config"])
def test_tol_that_is_not_finite_or_is_negative_exits_3(tmp_path, capsys,
                                                       tol, via):
    """An infinite --tol would pass every check, the Willmore residual of
    the non-Willmore control torus included, and a NaN one fail them all
    as verification failures: either, or a negative one, is a
    configuration error, from the flag or the config file, and nothing is
    analyzed."""
    if via == "flag":
        argv = ["--tol", str(tol)]
    else:
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"tol": tol}))
        argv = ["--config", str(cfg)]
    assert run("analyze", "--surface", "torus_of_revolution:3", *argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: --tol must be finite and >= 0")


def test_zero_tol_is_accepted():
    args = cli.parse_args(["analyze", "--surface", "clifford_torus",
                           "--tol", "0"])
    assert cli.build_config(args)["tol"] == 0.0


def test_nan_lambda_sample_exits_3(capsys):
    """A NaN lambda is not unimodular: a configuration error, not a
    flatness check that fails with value nan."""
    assert run("verify-harmonic", "--surface", "clifford_torus", "--chart",
               CLIFF_CHART, "--lambda-samples", "nan,1") == 3
    out, err = capsys.readouterr()
    assert "FAIL" not in out
    assert err.startswith("error: lambda must be unimodular")


@pytest.mark.parametrize("samples, token", [("abc", "'abc'"),
                                            ("1,,i", "''"),
                                            ("1, 2x ,i", "' 2x '")])
def test_malformed_lambda_sample_is_named(capsys, samples, token):
    """A lambda sample that is no complex number exits 3 with an error
    that names the token, before any check runs."""
    assert run("verify-harmonic", "--surface", "clifford_torus", "--chart",
               CLIFF_CHART, "--lambda-samples", samples) == 3
    out, err = capsys.readouterr()
    assert "PASS" not in out and "FAIL" not in out
    assert err == f"error: invalid lambda sample {token}\n"


@pytest.mark.parametrize("spec", ["enneper:7", "clifford_torus:2",
                                  "torus_of_revolution:nan",
                                  "torus_of_revolution:inf",
                                  "torus_of_revolution:1"])
def test_bad_surface_parameter_exits_3(capsys, spec):
    """An ignored or invalid surface parameter is a configuration error
    whose message names the parameter; nothing is analyzed."""
    assert run("analyze", "--surface", spec) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {spec.split(':')[0]} ") and "param" in err


def test_config_file_values_are_read_like_flags(tmp_path):
    """A config value is the flag's text, so "1e-6" is the tolerance the
    flag --tol 1e-6 would set."""
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"surface": "clifford_torus",
                               "chart": CLIFF_CHART, "tol": "1e-6"}))
    out = tmp_path / "rep.json"
    assert run("analyze", "--config", str(cfg), "--out", str(out)) == 0
    assert json.loads(out.read_text())["config"]["tol"] == 1e-6


@pytest.mark.parametrize("command, entry, message", [
    ("verify-harmonic", {"lambda_samples": [1, 2]}, "string or number"),
    ("reconstruct", {"format": "xml"}, "invalid choice"),
    ("analyze", {"surfac": "enneper"}, "unknown config key 'surfac'"),
])
def test_bad_config_file_entry_exits_3(tmp_path, capsys, command, entry,
                                       message):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"chart": CLIFF_CHART, **entry}))
    out = tmp_path / "out.csv"
    assert run(command, "--config", str(cfg), "--surface", "clifford_torus",
               "--out", str(out)) == 3
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_error_exit_codes(capsys):
    assert run("analyze") == 3                         # nothing to run
    assert run("analyze", "--surface", "klein") == 3   # unknown kind
    assert run("analyze", "--surface", "clifford_torus",
               "--chart", "8,8,0,1") == 3              # malformed chart
    assert run("reconstruct", "--surface", "round_sphere") == 3  # umbilic
    assert "error" in capsys.readouterr().err


def test_chart_parser():
    c = cli._parse_chart("16,24,0,1,-2,2,periodic-u")
    assert (c.Nu, c.Nv) == (16, 24)
    assert c.topology == "periodic-u"
    assert cli._parse_lambdas("1,i,-1") == [1 + 0j, 1j, -1 + 0j]


@pytest.mark.parametrize("argv", [["analyze"],
                                  ["verify-harmonic", "--refine", "2"],
                                  ["reconstruct"]])
def test_surface_data_is_dead_when_the_blocks_are_built(monkeypatch, argv):
    """Each command drops its SurfaceData (on every refinement level)
    once its last reader has run, before the Maurer-Cartan blocks, the
    largest fields of an op, are built."""
    refs, alive = [], []
    build, blocks = surface.build_surface_data, gauss_frame.maurer_cartan

    def tracked(*args):
        S = build(*args)
        refs.append(weakref.ref(S))
        return S

    def checked(*args):
        alive.append([r() is not None for r in refs])
        return blocks(*args)

    monkeypatch.setattr(surface, "build_surface_data", tracked)
    monkeypatch.setattr(gauss_frame, "maurer_cartan", checked)
    monkeypatch.setattr(reconstruct, "maurer_cartan", checked)
    assert run(*argv, "--surface", "clifford_torus",
               "--chart", CLIFF_CHART) == 0
    levels = 2 if argv[0] == "verify-harmonic" else 1
    assert len(refs) == levels and len(alive) >= levels
    assert not any(map(any, alive)), alive


@pytest.mark.parametrize("argv, reader", [
    (["analyze", "--surface", "veronese_s4", "--chart",
      "32,32,-1,1,-1,1,open"], "s_willmore_rank"),
    (["reconstruct", "--surface", "veronese_s4", "--chart",
      "32,32,-1,1,-1,1,open"], "classify")], ids=["analyze", "reconstruct"])
def test_commands_release_the_frame_after_its_last_reader(monkeypatch, argv,
                                                          reader):
    """analyze drops the frame once its Maurer-Cartan form is built, so
    it is dead when the rank runs; reconstruct drops it once `normalize`
    has run, so it is dead when `classify` runs (veronese_s4's frame at
    32 x 32 is gauged, so the normalized frame is another array)."""
    frames, seen = [], []
    build = gauss_frame.build_frame

    def spy_build(S):
        F, residual = build(S)
        frames.append(weakref.ref(F))
        return F, residual

    module = gauss_frame if reader == "s_willmore_rank" else reconstruct
    stage = getattr(module, reader)

    def spy_stage(*args, **kwargs):
        seen.append(frames[-1]())
        return stage(*args, **kwargs)

    monkeypatch.setattr(gauss_frame, "build_frame", spy_build)
    monkeypatch.setattr(module, reader, spy_stage)
    run(*argv)
    assert len(frames) == 1 and seen == [None]


def test_verify_harmonic_report_does_not_depend_on_the_worker_count(
        monkeypatch):
    """`verify-harmonic --refine 2` on catenoid's 96 x 96 chart, periodic
    in u, gives the same report dict on one worker and on two: every
    sup, order and verdict bit for bit on both levels, each larger than
    PLANE_BLOCK points."""
    cfg = cli.build_config(cli.parse_args(
        ["verify-harmonic", "--surface", "catenoid", "--refine", "2",
         "--chart", "96,96,0.0,6.283185307179586,-1.0,1.0,periodic-u"]))
    reports = []
    for workers in (1, 2):
        helpers.force_workers(monkeypatch, workers)
        reports.append(cli.cmd_verify_harmonic(cfg))
    assert reports[0] == reports[1]
    assert reports[0][1] == 0


def test_verify_harmonic_releases_the_pair_before_the_sweep(monkeypatch):
    """On every level, verify-harmonic takes strong conformality from the
    Maurer-Cartan pair before the loop curvature is built, and drops the
    pair once it is: it is dead when the flatness sweep and the
    harmonicity lines run, and each level's curvature is dead when the
    next level's pair is built."""
    pairs, curvatures, events = [], [], []
    blocks, loop = gauss_frame.maurer_cartan, harmonic.loop_curvature
    sweep, lines = harmonic.flatness_sweep, harmonic.harmonic_residuals
    strong = harmonic.strong_conformal_check

    def alive(refs):
        return [r() is not None for r in refs]

    def mc(*args):
        events.append(("pair", alive(curvatures)))
        M = blocks(*args)
        pairs.append(weakref.ref(M))
        return M

    def curvature(M):
        K = loop(M)
        curvatures.append(weakref.ref(K))
        events.append(("curvature", None))
        return K

    def spy(name, fn):
        def run_stage(*args):
            events.append((name, alive(pairs)))
            return fn(*args)
        return run_stage

    monkeypatch.setattr(gauss_frame, "maurer_cartan", mc)
    monkeypatch.setattr(harmonic, "loop_curvature", curvature)
    monkeypatch.setattr(harmonic, "flatness_sweep", spy("sweep", sweep))
    monkeypatch.setattr(harmonic, "harmonic_residuals", spy("lines", lines))
    monkeypatch.setattr(harmonic, "strong_conformal_check",
                        spy("strong", strong))
    assert run("verify-harmonic", "--surface", "clifford_torus",
               "--chart", CLIFF_CHART, "--refine", "2") == 0
    assert [name for name, _ in events] == [
        "pair", "strong", "curvature", "sweep", "lines"] * 2
    assert events[0][1] == [] and events[5][1] == [False]
    assert events[1][1] == [True] and events[6][1] == [False, True]
    for i in (3, 4, 8, 9):
        assert not any(events[i][1]), events[i]


def test_verify_harmonic_reports_observed_orders_of_every_check(tmp_path):
    """The observed convergence orders of verify-harmonic cover every
    flatness sample, each harmonicity line and strong conformality.  On
    enneper, refined once from 48 x 48, each sits near 2 (1.95-1.99),
    except A2_line, the 1 x 1 block of a surface in S^3, which falls
    about twice as fast (3.9)."""
    out = tmp_path / "vh.json"
    code = run("verify-harmonic", "--surface", "enneper",
               "--chart", "48,48,-0.8,0.8,-0.8,0.8,open", "--refine", "2",
               "--out", str(out))
    assert code == 0
    level = json.loads(out.read_text())["residuals"]["levels"][-1]
    orders = level["observed_orders"]
    flat = [f"flatness[lambda={f['lambda']}]" for f in level["flatness"]]
    assert len(flat) == 4
    assert sorted(orders) == sorted(flat + ["A1_line", "A2_line", "B1_line",
                                            "strong_conformality"])
    for key, order in orders.items():
        if key == "A2_line":
            assert 3.5 <= order <= 4.5, (key, order)
        else:
            assert 1.9 <= order <= 2.1, (key, order)


def test_verify_harmonic_memory_peak():
    """The tracemalloc peak of one verify-harmonic op on veronese_s4,
    refined once from its default 128 x 128 chart, stays below 115 MB:
    102.2 MB with the loop curvature formed one row block at a time and
    the Maurer-Cartan pair dropped once it is built, against 139.7 MB
    with whole-grid K, stencils and so-defects and the pair held to the
    end of each level."""
    spec = zoo.SurfaceSpec("veronese_s4")
    c = zoo.default_chart(spec, 128)
    chart = ",".join([str(c.Nu), str(c.Nv)]
                     + [repr(float(x)) for x in (c.u_min, c.u_max, c.v_min,
                                                 c.v_max)] + [c.topology])
    tracemalloc.start()
    try:
        code = run("verify-harmonic", "--surface", "veronese_s4",
                   "--chart", chart, "--refine", "2")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2            # flatness at lambda = i, as stored
    assert peak < 115e6, peak


@pytest.mark.parametrize("argv, calls", [(["analyze"], 1),
                                         (["verify-harmonic", "--refine",
                                           "2"], 0),
                                         (["reconstruct"], 0)])
def test_invariants_are_derived_only_where_read(monkeypatch, argv, calls):
    """`surface.invariants` is the forward stage: analyze calls it once,
    while verify-harmonic (on both levels) and reconstruct read only the
    frame and never call it."""
    seen = []
    derive = surface.invariants

    def spy(S):
        seen.append(S)
        return derive(S)

    monkeypatch.setattr(surface, "invariants", spy)
    assert run(*argv, "--surface", "clifford_torus",
               "--chart", CLIFF_CHART) == 0
    assert len(seen) == calls


@pytest.mark.parametrize("argv, reads, defects", [
    (["analyze"], {"B1"}, [(32, 32)] * 2),
    (["verify-harmonic", "--refine", "2"], {"B1"},
     [(32, 32)] * 2 + [(8, 64)] * 16),
    (["reconstruct"], {"A1", "B1"}, [])],
    ids=["analyze", "verify-harmonic", "reconstruct"])
def test_complex_form_is_built_only_where_read(monkeypatch, argv, reads,
                                               defects):
    """The Maurer-Cartan form stays the real pair (P, Q): no command calls
    full(), k_part() or p_part() or builds a complex field of the pair's
    shape, and each builds only the complex blocks it reads: B1 for the
    rank, the strong-conformality check and the normalization, and in
    reconstruct A1 for the scale of h (a_ij are single entries).  The
    so-defects of P and Q are derived once per row block for analyze's
    b2_residual and of each level's harmonicity lines (with row blocks
    of 1024 points on two workers: the 32 x 32 level is one block, the
    64 x 64 level eight blocks of 8 rows), and never in reconstruct."""
    shapes, built, assembled, derived = set(), [], [], []
    blocks, block, wirt, defect = (gauss_frame.maurer_cartan,
                                   gauss_frame.MCBlocks._block,
                                   gauss_frame.wirtinger,
                                   gauss_frame._so_defect)

    def mc(*args):
        M = blocks(*args)
        shapes.add(M.P.shape)
        return M

    # a block by the (start, stop) of its row and column slices
    names = {(None, 4, None, 4): "A1", (4, None, 4, None): "A2",
             (None, 4, 4, None): "B1", (4, None, None, 4): "B2"}

    def spy_block(self, rows, cols):
        if isinstance(rows, slice):
            built.append(names[rows.start, rows.stop, cols.start, cols.stop])
        return block(self, rows, cols)

    def spy_wirtinger(fu, fv, sign):
        out = wirt(fu, fv, sign)
        if out.shape in shapes:
            assembled.append(out.shape)
        return out

    def spy_defect(X):
        derived.append(X.shape)
        return defect(X)

    monkeypatch.setattr(gauss_frame, "maurer_cartan", mc)
    monkeypatch.setattr(reconstruct, "maurer_cartan", mc)
    monkeypatch.setattr(gauss_frame.MCBlocks, "_block", spy_block)
    monkeypatch.setattr(gauss_frame, "_so_defect", spy_defect)
    monkeypatch.setattr(gauss_frame, "wirtinger", spy_wirtinger)
    monkeypatch.setattr(lorentz, "PLANE_BLOCK", 1024)
    helpers.force_workers(monkeypatch, 2)
    for name in ("full", "k_part", "p_part"):
        def forbidden(self, name=name):
            raise AssertionError(f"MCBlocks.{name} called")
        monkeypatch.setattr(gauss_frame.MCBlocks, name, forbidden)
    assert run(*argv, "--surface", "clifford_torus",
               "--chart", CLIFF_CHART) == 0
    levels = 2 if argv[0] == "verify-harmonic" else 1
    assert len(shapes) == levels
    assert not assembled
    assert set(built) == reads
    assert [shape[:2] for shape in derived] == defects


def _matmul_sites(package) -> dict:
    """{(file, line): [(site, left code, right code)]} for each `@`
    product in the package's modules, keyed by every line of the simple
    statement, or of the header of the compound statement (a `for`
    iterator, an `if` test), that holds it."""
    sites = {}
    root = os.path.dirname(package.__file__)
    for name in sorted(os.listdir(root)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(root, name)
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        for stmt in ast.walk(tree):
            if not isinstance(stmt, ast.stmt):
                continue
            if hasattr(stmt, "body"):
                parts = [v for k, v in ast.iter_fields(stmt) if k not in
                         ("body", "orelse", "finalbody", "handlers")]
                last = max(stmt.lineno, stmt.body[0].lineno - 1)
            else:
                parts, last = [stmt], stmt.end_lineno
            for node in (n for part in parts for top in
                         (part if isinstance(part, list) else [part])
                         if isinstance(top, ast.AST)
                         for n in ast.walk(top)):
                if isinstance(node, ast.BinOp) and \
                        isinstance(node.op, ast.MatMult):
                    codes = [compile(ast.Expression(x), path, "eval")
                             for x in (node.left, node.right)]
                    for line in range(stmt.lineno, last + 1):
                        sites.setdefault((path, line), []).append(
                            ((path, node.lineno, node.col_offset), *codes))
    return sites


SPY_KINDS = ["veronese_s4", "enneper"]
SPY_ARGV = [["analyze"], ["verify-harmonic", "--refine", "2"],
            ["reconstruct"]]


def _spied_run(argv, kind):
    """(exit code, violations, `@` sites run) of one command on a zoo
    surface at N=32, with the package's small matrix algebra spied on
    (`test_no_stacked_complex_or_per_point_linear_algebra`).

    Explicit calls are spied on.  The `@` operator cannot be patched on
    ndarray, so a line tracer evaluates both operands of every `@` in
    the package (found in its source) in the executing frame, just
    before the statement that holds it runs."""
    import willmorelab
    bad, checked = [], set()

    def linalg_spy(name, fn):
        def spy(a, *args, **kwargs):
            caller = sys._getframe(1).f_code.co_name
            if np.ndim(a) > 2:
                bad.append(f"np.linalg.{name} on {np.shape(a)} "
                           f"from {caller}")
            return fn(a, *args, **kwargs)
        return spy

    einsum, matmul = np.einsum, np.matmul

    def einsum_spy(subscripts, *operands, **kwargs):
        if any(sub.strip().startswith("...")
               for sub in subscripts.split("->")[0].split(",")):
            bad.append(f"stacked einsum {subscripts!r}")
        return einsum(subscripts, *operands, **kwargs)

    def matmul_spy(a, b, *args, **kwargs):
        if np.iscomplexobj(a) or np.iscomplexobj(b):
            bad.append(f"complex np.matmul from "
                       f"{sys._getframe(1).f_code.co_name}")
        return matmul(a, b, *args, **kwargs)

    sites = _matmul_sites(willmorelab)
    files = {path for path, _ in sites}

    def trace(frame, event, arg):
        if frame.f_code.co_filename not in files:
            return None
        if event == "line":
            here = (frame.f_code.co_filename, frame.f_lineno)
            for site, *codes in sites.get(here, ()):
                scope = dict(frame.f_locals)
                operands = [eval(code, frame.f_globals, scope)
                            for code in codes]
                checked.add(site)
                if any(np.iscomplexobj(x) for x in operands):
                    bad.append(f"complex @ at {os.path.basename(here[0])}:"
                               f"{here[1]}")
        return trace

    # at N=32 enneper is case b2i (at N=24 classify reads it as a2)
    spec = zoo.SurfaceSpec(kind)
    c = zoo.default_chart(spec, 32)
    chart = ",".join([str(c.Nu), str(c.Nv)]
                     + [repr(float(x)) for x in (c.u_min, c.u_max, c.v_min,
                                                 c.v_max)] + [c.topology])
    with pytest.MonkeyPatch.context() as monkeypatch:
        for name in dir(np.linalg):
            fn = getattr(np.linalg, name)
            if callable(fn) and not name.startswith("_") \
                    and not isinstance(fn, type):
                monkeypatch.setattr(np.linalg, name, linalg_spy(name, fn))
        monkeypatch.setattr(np, "einsum", einsum_spy)
        monkeypatch.setattr(np, "matmul", matmul_spy)
        sys.settrace(trace)
        try:
            code = run(*argv, "--surface", kind, "--chart", chart)
        finally:
            sys.settrace(None)
    return code, sorted(set(bad)), checked


@pytest.mark.parametrize("kind", SPY_KINDS)
@pytest.mark.parametrize("argv", SPY_ARGV,
                         ids=["analyze", "verify-harmonic", "reconstruct"])
def test_no_stacked_complex_or_per_point_linear_algebra(argv, kind):
    """The three commands do their small matrix algebra as per-entry
    passes: no np.linalg call on a grid of matrices (ndim > 2), the
    group test's determinant included, no einsum over stacked entries
    (an operand subscript with a leading ellipsis), and no matmul with a
    complex operand (`_spied_run`)."""
    code, bad, _ = _spied_run(argv, kind)
    assert code in (0, 2)
    assert not bad, bad


def test_every_matmul_site_runs_in_a_spied_case():
    """The cases of `test_no_stacked_complex_or_per_point_linear_algebra`
    between them run every `@` of the package: veronese_s4 (n = 2, the
    swept normal frame, case a2 with the dual surface and the gauge of
    `spinor.canonicalize_B1`) and enneper (n = 1, the degenerate branch
    and its conjugate renormalization).  enneper's analyze and
    verify-harmonic run no `@` at all."""
    import willmorelab
    sites = {site for entries in _matmul_sites(willmorelab).values()
             for site, *_ in entries}
    ran = set()
    for argv in SPY_ARGV:
        for kind in SPY_KINDS:
            ran |= _spied_run(argv, kind)[2]
    missed = sorted(f"{os.path.basename(path)}:{line}"
                    for path, line, _ in sites - ran)
    assert sites and not missed, missed


def test_no_module_imports_a_private_name_of_another():
    """A name with a leading underscore stays in its module: no module of
    the package imports one from another (`from .x import _y`), nor reads
    one off a package module it imported (`x._y`)."""
    import willmorelab
    root = os.path.dirname(willmorelab.__file__)
    bad = []
    for name in sorted(os.listdir(root)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(root, name)) as fh:
            tree = ast.parse(fh.read(), name)
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0]
                    == "willmorelab"):
                for alias in node.names:
                    if alias.name.startswith("_"):
                        bad.append(f"{name}:{node.lineno} imports "
                                   f"{alias.name}")
                    elif node.module in (None, "willmorelab"):
                        modules.add(alias.asname or alias.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id in modules \
                    and node.attr.startswith("_"):
                bad.append(f"{name}:{node.lineno} reads "
                           f"{node.value.id}.{node.attr}")
    assert not bad, bad


def test_no_module_calls_a_lapack_solve_inverse_or_determinant():
    """No module of the package names np.linalg.solve, inv or det (as
    `np.linalg.x`, `numpy.linalg.x` or `from numpy.linalg import x`): the
    projectors reject from orthonormal rows and the determinants are the
    Laplace expansion `lorentz.det`, so no Gram solve comes back."""
    import willmorelab
    root = os.path.dirname(willmorelab.__file__)
    banned = {"solve", "inv", "det"}
    bad = []
    for name in sorted(os.listdir(root)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(root, name)) as fh:
            tree = ast.parse(fh.read(), name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in banned \
                    and isinstance(node.value, ast.Attribute) \
                    and node.value.attr == "linalg":
                bad.append(f"{name}:{node.lineno} {ast.unparse(node)}")
            elif isinstance(node, ast.ImportFrom) \
                    and node.module == "numpy.linalg":
                bad += [f"{name}:{node.lineno} imports {alias.name}"
                        for alias in node.names if alias.name in banned]
    assert not bad, bad


TAU = "6.283185307179586"


def _short_lift(tmp_path, lift, c):
    """A lift file whose last axis is shorter than 5: a CSV whose header
    is only u,v, JSON values of shape (Nu, Nv, 0), or the 4-column lift
    of the identity chart of the plane onto S^2 (codimension 0)."""
    if lift == "csv_without_Y":
        path = tmp_path / "f.csv"
        U, V = c.grid()
        path.write_text("u,v\n" + "".join(
            f"{u!r},{v!r}\n" for u, v in zip(U.ravel().tolist(),
                                             V.ravel().tolist())))
    elif lift == "json_without_Y":
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"chart": zoo.chart_to_dict(c),
                                    "values": np.zeros(c.shape + (0,))
                                    .tolist()}))
    else:
        path = tmp_path / "s2.csv"
        zoo.save(str(path), zoo.inverse_stereo_lift(np.stack(c.grid(), -1)),
                 c, fmt="csv")
    return str(path)


@pytest.mark.parametrize("command", ["analyze", "verify-harmonic",
                                     "reconstruct"])
@pytest.mark.parametrize("lift, dim", [("csv_without_Y", 0),
                                       ("json_without_Y", 0),
                                       ("s2_lift", 4)])
def test_lift_of_dimension_below_5_exits_3(tmp_path, capsys, command, lift,
                                           dim):
    """An input lift with no Y columns, or one of a surface in S^2
    (codimension 0), is a configuration error (exit 3) whose message
    names the dimension, not an IndexError from the lightlike test or an
    empty stack in the normal frame."""
    chart = "8,8,-1.0,1.0,-1.0,1.0,open"
    path = _short_lift(tmp_path, lift, cli._parse_chart(chart))
    assert run(command, "--input", path, "--chart", chart) == 3
    out, err = capsys.readouterr()
    assert "PASS" not in out and "FAIL" not in out
    assert err == ("error: a lift needs dimension at least 5 (codimension "
                   f"n >= 1, R^(1,n+3)), got dimension {dim}\n")


@pytest.mark.parametrize("bounds, name", [
    (f"{TAU},0,0,{TAU}", "u_max"),        # reversed
    (f"nan,{TAU},0,{TAU}", "u_min"),      # not a number
    (f"0,{TAU},0,inf", "v_max"),          # infinite
    (f"0,{TAU},1,1", "v_max"),            # zero width
])
def test_degenerate_chart_exits_3(capsys, bounds, name):
    """A reversed, NaN, infinite or zero-width interval is a configuration
    error whose message names the bound; nothing is analyzed."""
    assert run("analyze", "--surface", "clifford_torus",
               "--chart", f"32,32,{bounds},periodic-both") == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: chart bound {name}=")


@pytest.mark.parametrize("command", ["analyze", "verify-harmonic",
                                     "reconstruct"])
@pytest.mark.parametrize("size, axis, points", [("10,10", "u", 10),
                                                ("12,12", "u", 12),
                                                ("24,12", "v", 12)])
def test_chart_without_interior_points_exits_3(capsys, command, size, axis,
                                               points):
    """An open axis of at most 2 * DEFAULT_MARGIN points leaves no grid
    point to take a residual over: each command exits 3 with one message
    that names the axis, its point count and the margin."""
    assert run(command, "--surface", "enneper",
               "--chart", f"{size},-0.8,0.8,-0.8,0.8,open") == 3
    err = capsys.readouterr().err
    assert err == (f"error: the open {axis}-axis has {points} points, and "
                   "a margin of 6 points at each edge leaves none of them: "
                   "use at least 13\n")
