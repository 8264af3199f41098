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
import threading

import pytest

from willmorelab import cli, lorentz  # cli imports every layer module

import helpers

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


SPIED = (("lorentz", "inner"), ("chart", "d_u"), ("chart", "d_v"),
         ("chart", "partial_rows"))


@pytest.mark.parametrize("argv", [
    ["analyze", "--surface", "veronese_s4",
     "--chart", "64,64,-1.0,1.0,-1.0,1.0,open"],
    ["verify-harmonic", "--surface", "catenoid", "--refine", "2",
     "--chart", "64,64,0.0,6.283185307179586,-1.0,1.0,periodic-u"],
    ["reconstruct", "--surface", "clifford_torus", "--chart",
     "64,64,0.0,6.283185307179586,0.0,6.283185307179586,periodic-both"]],
    ids=["analyze", "verify-harmonic", "reconstruct"])
def test_counted_calls_run_on_the_calling_thread_only(monkeypatch, argv):
    """The traced run counts the outermost calls of `lorentz.inner`,
    `chart.d_u` and `chart.d_v` on one span stack that all threads share,
    so such a call from a block of `lorentz.for_blocks` on a pool thread
    could nest under another thread's and move the count.  With two
    workers and row blocks of 512 points, small enough that every kernel
    run through `for_blocks` threads on these 64 x 64 grids, analyze,
    verify-harmonic --refine 2 and reconstruct call the three only on
    the thread that runs the command: each is spied at every package
    module binding, as the tracer wraps it.  `chart.partial_rows`,
    spied likewise, also runs on a pool thread, so blocks did run
    there."""
    monkeypatch.setattr(lorentz, "PLANE_BLOCK", 512)
    helpers.force_workers(monkeypatch, 2)
    calls = []
    for layer, name in SPIED:
        fn = getattr(sys.modules[f"willmorelab.{layer}"], name)

        def spy(*args, fn=fn, name=name, **kwargs):
            calls.append((name, threading.get_ident()))
            return fn(*args, **kwargs)

        for mod in _package_modules().values():
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    monkeypatch.setattr(mod, attr, spy)
    assert sys.modules["willmorelab.cli"].main(argv) in (0, 2)
    here = threading.get_ident()
    elsewhere = {name for name, ident in calls if ident != here}
    assert elsewhere == {"partial_rows"}, elsewhere
    assert {name for name, _ in calls} >= {"inner", "d_u", "d_v"}
