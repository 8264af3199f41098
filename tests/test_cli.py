import dataclasses
import json

import numpy as np
import pytest

from willmorelab import cli, reconstruct, zoo

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


@pytest.mark.parametrize("flags", [["--format", "xml"], ["--refine", "x"]])
def test_bad_flag_value_exits_3(capsys, flags):
    """A bad flag is a configuration error (3), not argparse's 2, which
    would read as a verification failure."""
    assert run("analyze", "--surface", "clifford_torus", *flags) == 3
    assert "invalid" in capsys.readouterr().err


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
