"""The benchmark's tracer (perfbench/tracer.py) on the current package.

The traced benchmark runs wrap the public functions of each layer module
and a few methods by name, so a rename in the package would only show
there.  These tests load the tracer from its file, without writing
anything under perfbench/, and install it on the package as it is.
"""

import importlib.util
import inspect
import pathlib
import sys

import pytest

from willmorelab import cli  # imports every layer module

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" \
    / "tracer.py"


@pytest.fixture
def tracing(monkeypatch):
    """The tracer module, loaded with no bytecode written next to it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _package_modules() -> dict:
    return {name: mod for name, mod in sys.modules.items()
            if name.startswith("willmorelab.") and mod is not None}


def _bindings(tracing) -> dict:
    """Every attribute of every package module, and every method the
    tracer wraps on its class, as the objects bound now."""
    out = {name: dict(vars(mod)) for name, mod in _package_modules().items()}
    for _, modname, clsname, methods in tracing.METHODS:
        cls = getattr(sys.modules[f"willmorelab.{modname}"], clsname)
        out[f"{modname}.{clsname}"] = {m: vars(cls)[m] for m in methods}
    return out


def test_every_traced_method_exists(tracing):
    """Each (module, class, method) of METHODS names a function defined
    on that class, among them MCBlocks.full/k_part/p_part and
    Chart.grid/zgrid/refine/interior_mask."""
    named = set()
    for layer, modname, clsname, methods in tracing.METHODS:
        assert layer in tracing.LAYERS
        cls = getattr(sys.modules[f"willmorelab.{modname}"], clsname)
        for m in methods:
            assert inspect.isfunction(vars(cls).get(m)), f"{clsname}.{m}"
            named.add(f"{clsname}.{m}")
    assert {"MCBlocks.full", "MCBlocks.k_part", "MCBlocks.p_part",
            "Chart.grid", "Chart.zgrid", "Chart.refine",
            "Chart.interior_mask"} <= named


def test_tracer_wraps_every_layer_and_uninstalls_cleanly(tracing):
    """install() gives each layer module at least one wrapper of its own
    functions and wraps every listed method; a traced analyze op records
    spans in the layers it runs through; uninstall() restores every
    binding of every package module and class."""
    before = _bindings(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for layer in tracing.LAYERS:
            mod = sys.modules[f"willmorelab.{layer}"]
            wrapped = [name for name, val in vars(mod).items()
                       if getattr(val, "__wrapped__", None) is not None
                       and val.__wrapped__.__module__ == mod.__name__]
            assert wrapped, f"no wrapper in {layer}"
        for _, modname, clsname, methods in tracing.METHODS:
            cls = getattr(sys.modules[f"willmorelab.{modname}"], clsname)
            for m in methods:
                assert vars(cls)[m].__wrapped__ \
                    is before[f"{modname}.{clsname}"][m], f"{clsname}.{m}"
        tracer.op = 0
        code = sys.modules["willmorelab.cli"].main(
            ["analyze", "--surface", "clifford_torus", "--chart",
             "24,24,0.0,6.283185307179586,0.0,6.283185307179586,"
             "periodic-both"])
    finally:
        tracer.uninstall()
    assert code == 0
    layers = tracing.active_layers(tracer.spans, {0})
    assert {"cli", "zoo", "surface", "gauss_frame", "chart",
            "lorentz"} <= layers
    assert not layers & {"harmonic", "spinor", "reconstruct"}
    after = _bindings(tracing)
    assert after.keys() == before.keys()
    for key, names in before.items():
        assert after[key].keys() == names.keys(), key
        moved = [n for n, val in names.items() if after[key][n] is not val]
        assert not moved, (key, moved)
    assert sys.modules["willmorelab.cli"].main is cli.main
