"""Outside-in tracer: spans around the calls into willmorelab's layers.

The tracer replaces every public function of each layer module with a
timing wrapper, at every module binding: `from .chart import d_z` gives
surface, gauss_frame, harmonic and reconstruct their own name for the
function, so patching only `chart.d_z` would miss most calls.  A few
methods are wrapped on their class as well.  Nothing under src/ changes;
`uninstall` restores every binding.

A span is [op, parent, layer, func, start, end, nbytes].  Spans stay in
memory; `write` dumps them as JSON lines when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from dataclasses import fields, is_dataclass

import numpy as np

# Layer modules, innermost first.  cli is the root of every op.
LAYERS = ("lorentz", "chart", "surface", "gauss_frame", "harmonic",
          "spinor", "reconstruct", "zoo", "cli")

# Methods wrapped on their class: (layer, module, class, method names).
METHODS = (
    ("chart", "chart", "Chart", ("grid", "zgrid", "refine",
                                 "interior_mask")),
    ("gauss_frame", "gauss_frame", "MCBlocks", ("full", "k_part",
                                                "p_part")),
)

# Layers whose output sizes are recorded (bytes of the returned arrays).
OUTPUT_LAYERS = ("surface", "gauss_frame", "reconstruct")

OP, PARENT, LAYER, FUNC, T0, T1, NBYTES = range(7)


def array_bytes(value) -> int:
    """Bytes of the arrays in a return value: the value itself, or its
    dataclass fields, dict values or tuple items one level down."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    if is_dataclass(value):
        items = [getattr(value, f.name) for f in fields(value)]
    elif isinstance(value, dict):
        items = list(value.values())
    elif isinstance(value, (tuple, list)):
        items = value
    else:
        return 0
    return sum(v.nbytes for v in items if isinstance(v, np.ndarray))


def _arg(args, kwargs, i: int, name: str):
    return kwargs[name] if name in kwargs else args[i]


def _stencil_bytes(args, kwargs, result) -> int:
    return np.asarray(_arg(args, kwargs, 0, "f")).nbytes + result.nbytes


def _save_bytes(args, kwargs, result) -> int:
    return np.asarray(_arg(args, kwargs, 1, "field")).nbytes


def _load_bytes(args, kwargs, result) -> int:
    return result.nbytes


def _output_bytes(args, kwargs, result) -> int:
    return array_bytes(result)


# Computed bytes recorded per call: stencil input + output, the field
# zoo.save writes, the field zoo.load returns.
MEASURES = {("chart", "d_u"): _stencil_bytes, ("chart", "d_v"): _stencil_bytes,
            ("zoo", "save"): _save_bytes, ("zoo", "load"): _load_bytes}


class Tracer:
    """Span recorder for one process; install() once willmorelab is imported."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, layer: str, name: str, fn, measure=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [self.op, stack[-1] if stack else -1, layer, name, 0.0,
                   0.0, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[T0] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[T1] = clock()
                stack.pop()
            if measure is not None:
                rec[NBYTES] = measure(args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"willmorelab.{layer}"]
            names = ("main",) if layer == "cli" else [
                n for n, f in vars(mod).items()
                if inspect.isfunction(f) and f.__module__ == mod.__name__
                and not n.startswith("_")]
            for name in names:
                fn = getattr(mod, name)
                measure = MEASURES.get((layer, name))
                if measure is None and layer in OUTPUT_LAYERS:
                    measure = _output_bytes
                wrappers[id(fn)] = (fn, self._wrap(layer, name, fn, measure))
        mods = [m for k, m in sys.modules.items()
                if k.startswith("willmorelab.") and m is not None]
        for mod in mods:
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._patches.append((mod, attr, val))
        for layer, modname, clsname, methods in METHODS:
            cls = getattr(sys.modules[f"willmorelab.{modname}"], clsname)
            for m in methods:
                fn = vars(cls)[m]
                measure = _output_bytes if layer in OUTPUT_LAYERS else None
                setattr(cls, m, self._wrap(layer, f"{clsname}.{m}", fn,
                                           measure))
                self._patches.append((cls, m, fn))

    def uninstall(self) -> None:
        for obj, attr, val in reversed(self._patches):
            setattr(obj, attr, val)
        self._patches.clear()

    def write(self, path: str) -> None:
        keys = ("op", "parent", "layer", "func", "start", "end", "nbytes")
        with open(path, "w") as fh:
            for sid, rec in enumerate(self.spans):
                fh.write(json.dumps(dict(zip(keys, rec), id=sid)) + "\n")


def _outermost(spans, sid: int, inside) -> bool:
    """True if no ancestor of span sid satisfies inside(ancestor)."""
    p = spans[sid][PARENT]
    while p != -1:
        if inside(spans[p]):
            return False
        p = spans[p][PARENT]
    return True


def layer_metrics(spans, ops: set, specs) -> dict:
    """Per-layer metrics over the spans of the given op ids.

    specs is a sequence of (name, kind, layer, funcs): kind "self" sums
    the layer's self time (span time minus the time its child spans
    cover); "calls", "incl" and "mb" count, time or sum the computed
    bytes of the calls to funcs (None: any function of the layer) that
    have no such call above them on the stack.
    """
    sel = [sid for sid, s in enumerate(spans) if s[OP] in ops]
    child = dict.fromkeys(sel, 0.0)
    for sid in sel:
        p = spans[sid][PARENT]
        if p != -1:
            child[p] += spans[sid][T1] - spans[sid][T0]
    out = {}
    for name, kind, layer, funcs in specs:
        mine = [sid for sid in sel if spans[sid][LAYER] == layer
                and (funcs is None or spans[sid][FUNC] in funcs)]
        if kind == "self":
            out[name] = sum(spans[s][T1] - spans[s][T0] - child[s]
                            for s in mine)
            continue

        def inside(a, layer=layer, funcs=funcs):
            return a[LAYER] == layer and (funcs is None or a[FUNC] in funcs)
        top = [s for s in mine if _outermost(spans, s, inside)]
        if kind == "calls":
            out[name] = len(top)
        elif kind == "incl":
            out[name] = sum(spans[s][T1] - spans[s][T0] for s in top)
        elif kind == "mb":
            out[name] = sum(spans[s][NBYTES] for s in top) / 1e6
        else:
            raise ValueError(kind)
    return out


def active_layers(spans, ops: set) -> set:
    return {s[LAYER] for s in spans if s[OP] in ops}
