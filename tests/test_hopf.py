"""Hopf cylinders over elastic curves (`helpers.hopf_cylinder`), read
through zoo.save and --input as external data.

With mu = 2 the cylinder is Willmore and not conformal to a minimal
surface, unlike every Willmore surface of the zoo: all three commands
pass it, its Willmore residual falls at order 2 and its chart energy
meets the closed form 2pi int (H^2 + 1) ds at order 2.  With mu = 1.5
it is not Willmore: its residual stalls, yet every command passes it,
so each command's refusal is a strict xfail.
"""

import json

import numpy as np
import pytest

from willmorelab import cli, zoo

import helpers

H0 = 0.8
WILLMORE, CONTROL = 2.0, 1.5


@pytest.fixture(scope="module")
def command(tmp_path_factory):
    """command(name, mu, N): (exit code, report, closed-form energy) of
    a CLI command on the cylinder, its lift written as CSV; each run
    once per module."""
    runs = {}

    def run(name, mu, N):
        key = (name, mu, N)
        if key not in runs:
            raw, c, energy = helpers.hopf_cylinder(H0, mu, N)
            d = tmp_path_factory.mktemp("hopf")
            lift, out = d / "lift.csv", d / "report.json"
            zoo.save(str(lift), raw, c, fmt="csv")
            chart = ",".join(map(str, (c.Nu, c.Nv, c.u_min, c.u_max,
                                       c.v_min, c.v_max, c.topology)))
            code = cli.main([name, "--input", str(lift), "--chart", chart,
                             "--out", str(out)])
            runs[key] = (code, json.loads(out.read_text()), energy)
        return runs[key]
    return run


def _orders(values):
    """log2 of the ratios of successive values, grids halving h."""
    return [float(np.log2(a / b)) for a, b in zip(values, values[1:])]


@pytest.mark.parametrize("name", ["analyze", "verify-harmonic",
                                  "reconstruct"])
def test_willmore_cylinder_passes_every_command(command, name):
    code, report, _ = command(name, WILLMORE, 64)
    assert code == 0, [ch for ch in report["checks"] if not ch["pass"]]
    if name == "reconstruct":
        assert report["classification"]["case"] == "a2"


def test_willmore_residual_falls_at_order_two(command):
    res = [command("analyze", WILLMORE, N)[1]["residuals"]
           ["willmore_residual_sup"] for N in (32, 64, 128)]
    assert min(_orders(res)) >= 1.9, res


def test_chart_energy_meets_the_closed_form_at_order_two(command):
    err = []
    for N in (32, 64, 128):
        _, report, energy = command("analyze", WILLMORE, N)
        assert report["invariants"]["energy_chart_local"]
        err.append(abs(report["invariants"]["willmore_energy"] - energy)
                   / energy)
    assert all(1.9 <= p <= 2.1 for p in _orders(err)), err


def test_control_willmore_residual_stalls(command):
    """The control is not Willmore, and its residual shows it: it stays
    near 5e-2 under refinement, where the Willmore one falls as h^2."""
    res = [command("analyze", CONTROL, N)[1]["residuals"]
           ["willmore_residual_sup"] for N in (32, 64, 128)]
    assert min(res) > 4e-2 and max(_orders(res)) < 0.1, res


@pytest.mark.xfail(strict=True, reason=(
    "every command passes the non-Willmore control: its Willmore "
    "residual stalls near 5e-2, under analyze's bar 100 h^2 up to "
    "N = 128; verify-harmonic and reconstruct (case a2) report no "
    "failing check"))
@pytest.mark.parametrize("name", ["analyze", "verify-harmonic",
                                  "reconstruct"])
def test_control_is_refused(command, name):
    code, report, _ = command(name, CONTROL, 64)
    assert code == 2
    assert not all(ch["pass"] for ch in report["checks"])
