"""Command-line driver: analyze, verify-harmonic, reconstruct.

Each command builds the surface pipeline on a configured chart, runs its
verification suite, prints one PASS/FAIL line per check (with the
tolerance used and the measured value) and optionally writes a JSON
report / CSV field dump.

Exit codes: 0 all checks pass, 2 verification failures, 3 configuration
or precondition errors.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import gauss_frame, harmonic, reconstruct, surface, zoo
from .chart import Chart, sup_norm
from .spinor import TotallyUmbilicError


def _parse_chart(text: str) -> Chart:
    """Nu,Nv,u0,u1,v0,v1,topology."""
    parts = text.split(",")
    if len(parts) != 7:
        raise ValueError("chart must be Nu,Nv,u0,u1,v0,v1,topology")
    Nu, Nv = int(parts[0]), int(parts[1])
    u0, u1, v0, v1 = (float(p) for p in parts[2:6])
    return Chart(u0, u1, v0, v1, Nu, Nv, parts[6])


def _parse_lambdas(text: str):
    """Comma list of complex numbers, i or j the imaginary unit."""
    out = []
    for tok in text.split(","):
        try:
            out.append(complex(tok.strip().replace("i", "j")))
        except ValueError:
            raise ValueError(f"invalid lambda sample {tok!r}") from None
    return out


def _refine_levels(text: str) -> int:
    """--refine: an integer count of levels, at least 2, so that the
    convergence order has two levels to compare."""
    try:
        levels = int(text)
    except ValueError:
        levels = 0
    if levels < 2:
        raise argparse.ArgumentTypeError(
            f"invalid level count {text!r}: needs an integer >= 2")
    return levels


def _parse_surface(text: str) -> zoo.SurfaceSpec:
    """Name, optionally with a parameter: e.g. torus_of_revolution:3."""
    if ":" in text:
        kind, param = text.split(":", 1)
        return zoo.SurfaceSpec(kind, float(param))
    return zoo.SurfaceSpec(text)


CONFIG_KEYS = ("surface", "input", "chart", "tol", "lambda_samples",
               "refine", "out", "format")


def _config_flags(path: str) -> list:
    """A JSON --config file as flags: each key names a flag and its
    string or number value is that flag's text."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    flags = []
    for key, val in data.items():
        if key not in CONFIG_KEYS:
            raise ValueError(f"unknown config key {key!r}")
        if isinstance(val, bool) or not isinstance(val, (str, int, float)):
            raise ValueError(f"config key {key!r} needs a string or number")
        flags.append(f"--{key.replace('_', '-')}={val}")
    return flags


def parse_args(argv: list) -> argparse.Namespace:
    """Parse the command line; with --config, parse it again after the
    file's flags, so that one parser checks both and the flags win."""
    args = make_parser().parse_args(argv)
    if args.config:
        args = make_parser().parse_args(_config_flags(args.config) + argv)
    return args


def build_config(args) -> dict:
    cfg = {key: getattr(args, key) for key in CONFIG_KEYS
           if getattr(args, key) is not None}
    cfg.setdefault("tol", 1e-6)
    if not 0.0 <= cfg["tol"] < np.inf:
        # an infinite tolerance would pass every check, a NaN fail them
        raise ValueError(f"--tol must be finite and >= 0, got {cfg['tol']}")
    cfg.setdefault("refine", 2)
    cfg.setdefault("format", "json")
    if not cfg.get("surface") and not cfg.get("input"):
        raise ValueError("one of --surface / --input is required")
    if cfg["format"] == "csv" and cfg.get("out") \
            and args.command != "reconstruct":
        raise ValueError(f"{args.command} writes no CSV export; "
                         "--format csv is for reconstruct")
    return cfg


def _load_field(cfg):
    if cfg.get("surface"):
        spec = _parse_surface(cfg["surface"])
        c = _parse_chart(cfg["chart"]) if cfg.get("chart") \
            else zoo.default_chart(spec)
        return zoo.generate(spec, c), c, spec
    if not cfg.get("chart"):
        raise ValueError("--chart is required with --input")
    c = _parse_chart(cfg["chart"])
    return zoo.load(cfg["input"], c), c, None


def _check(checks: list, name: str, value: float, tol: float,
           passed: bool | None = None) -> bool:
    ok = (value <= tol) if passed is None else passed
    checks.append({"name": name, "value": float(value), "tol": float(tol),
                   "pass": bool(ok)})
    print(f"{'PASS' if ok else 'FAIL'}  {name}: value={value:.3e} "
          f"tol={tol:.3e}")
    return ok


def _skip(skipped: list, name: str, reason: str) -> None:
    """Record and print a check that cannot run, with its reason."""
    skipped.append({"name": name, "reason": reason})
    print(f"SKIP {name}: {reason}")


def _residual_tol(c: Chart, tol: float) -> float:
    """Scale-aware threshold for O(h^2) residuals.

    Open edges bring large one-sided-stencil constants; doubly periodic
    charts have none, so the threshold can be much sharper there.
    """
    const = 10.0 if (c.periodic_u and c.periodic_v) else 100.0
    return max(tol, const * c.h**2)


def cmd_analyze(cfg) -> tuple[dict, int]:
    raw, c, spec = _load_field(cfg)
    S = surface.build_surface_data(raw, c)
    inv = surface.invariants(S)

    checks = []
    rtol = _residual_tol(c, cfg["tol"])
    sr = inv.structure
    for name, norms in sr.items():
        _check(checks, f"structure.{name}", norms["sup"], rtol)
    W = surface.willmore_residual(inv, c)
    ir = surface.integrability_residuals(inv, W, c)
    for name, norms in ir.items():
        _check(checks, f"integrability.{name}", norms["sup"], rtol)
    wres = sup_norm(W, c.interior)
    _check(checks, "willmore_residual", wres, rtol)
    energy = gauss_frame.willmore_energy(inv, c)
    kappa_max = float(np.max(np.abs(inv.kappa)))
    schwarzian_max = float(np.max(np.abs(inv.schwarzian)))
    # the invariants go before the frame is built, and the frame is the
    # last reader of S: the blocks are the largest fields
    del inv, W
    Ff = gauss_frame.build_frame(S)
    del S
    M = gauss_frame.maurer_cartan(Ff)
    _, max_rank = gauss_frame.s_willmore_rank(M.B1, mask=c.interior)

    report = {
        "config": cfg,
        "invariants": {
            "kappa_max": kappa_max,
            "schwarzian_max": schwarzian_max,
            "willmore_energy": energy["value"],
            "energy_chart_local": energy["chart_local"],
            "s_willmore_max_rank": max_rank,
        },
        "residuals": {
            "structure": sr, "integrability": ir,
            "willmore_residual_sup": wres,
            "frame_group_residual": Ff.group_residual,
            "b2_block_residual": M.b2_residual,
        },
        "classification": {},
        "roundtrip": {},
        "checks": checks,
    }
    code = 0 if all(ch["pass"] for ch in checks) else 2
    return report, code


def cmd_verify_harmonic(cfg) -> tuple[dict, int]:
    raw, c, spec = _load_field(cfg)
    lambdas = _parse_lambdas(cfg["lambda_samples"]) \
        if cfg.get("lambda_samples") else list(harmonic.DEFAULT_LAMBDAS)

    checks = []
    skipped = []
    levels = []
    chart = c
    field = raw
    # external data has no generator to refine, so it gets one level
    nlevels = cfg["refine"] if spec is not None else 1
    for level in range(nlevels):
        if level > 0:
            chart = chart.refine(2)
            field = zoo.generate(spec, chart)
        M = gauss_frame.maurer_cartan(gauss_frame.build_frame(
            surface.build_surface_data(field, chart)))
        K = harmonic.loop_curvature(M)
        entry = {
            "h": chart.h,
            "flatness": [{"lambda": str(r["lambda"]), "sup": r["sup"]}
                         for r in harmonic.flatness_sweep(K, lambdas)],
            "harmonic": harmonic.harmonic_residuals(K),
            "strong_conformality":
                harmonic.strong_conformal_check(M.B1, chart.interior),
        }
        levels.append(entry)

    last = levels[-1]
    rtol = _residual_tol(chart, cfg["tol"])
    for item in last["flatness"]:
        _check(checks, f"flatness[lambda={item['lambda']}]", item["sup"],
               rtol)
    for name, val in last["harmonic"].items():
        _check(checks, f"harmonic.{name}", val, rtol)
    _check(checks, "strong_conformality", last["strong_conformality"], rtol)
    if len(levels) >= 2:
        orders = {}
        a, b = levels[-2], levels[-1]
        ratio = np.log(a["h"] / b["h"])
        for key in a["harmonic"]:
            lo, hi = b["harmonic"][key], a["harmonic"][key]
            if hi > 1e-12:
                orders[key] = float(np.log(hi / max(lo, 1e-15)) / ratio)
        levels[-1]["observed_orders"] = orders
    else:
        _skip(skipped, "convergence_order",
              "external input has no generator to refine")

    report = {"config": cfg, "invariants": {}, "residuals": {
        "levels": levels}, "classification": {}, "roundtrip": {},
        "checks": checks}
    if skipped:
        report["skipped"] = skipped
    code = 0 if all(ch["pass"] for ch in checks) else 2
    return report, code


def cmd_reconstruct(cfg) -> tuple[dict, int]:
    raw, c, spec = _load_field(cfg)
    S = surface.build_surface_data(raw, c)
    Ff = gauss_frame.build_frame(S)
    Y = S.Y             # the round trip's reference; nothing else of S
    del S
    NF = reconstruct.normalize(Ff, tol=cfg["tol"])
    cl = reconstruct.classify(NF)

    checks = []
    rtol = _residual_tol(c, cfg["tol"])
    classification = {
        "case": cl.case,
        "max_rank": cl.max_rank,
        "verdict": cl.verdict,
        "h_sup": cl.h_sup,
        "speccond_residual": cl.speccond_residual,
        "has_willmore_surface": cl.has_willmore_surface,
    }
    _check(checks, "speccond", cl.speccond_residual, rtol)

    roundtrip = {}
    out_map = None
    if cl.case in ("a1", "a2"):
        out_map = reconstruct.to_sphere_map(NF.Y0, c)
        yin = reconstruct.to_sphere_map(Y, c)
        dist = out_map.distance(yin)
        roundtrip["projected_vs_input"] = dist
        _check(checks, "roundtrip_distance", dist,
               1e-6 + 100.0 * c.h**2)
        if cl.case == "a2":
            ds = reconstruct.dual_surface(NF, reconstruct.dual_mu(NF),
                                          cl.max_rank)
            vg = reconstruct.verify_gauss_match(ds["map"], NF)
            roundtrip["dual_duality_residual"] = ds["duality_residual"]
            roundtrip["dual_orientation"] = vg["orientation"]
            _check(checks, "dual_orientation_opposite",
                   0.0 if vg["orientation"] == "opposite" else 1.0, 0.5)
    elif cl.case == "b2i":
        st = reconstruct.stereographic(cl.Ymu, cl.constant_vector, c)
        roundtrip["minimal_conformal_residual"] = st["conformal_residual"]
        roundtrip["minimal_harmonic_residual"] = st["harmonic_residual"]
        _check(checks, "minimal.conformal", st["conformal_residual"], rtol)
        _check(checks, "minimal.harmonic", st["harmonic_residual"], rtol)
        out_map = reconstruct.to_sphere_map(cl.Ymu, c)
    else:
        # b1 / b2ii / ambiguous: a structured verdict, not a failure
        roundtrip["verdict"] = cl.verdict

    report = {"config": cfg, "invariants": {},
              "residuals": {"normalization_shape": NF.shape_residual,
                            "normalization_null": NF.null_residual},
              "classification": classification, "roundtrip": roundtrip,
              "checks": checks}
    if cfg.get("out") and cfg["format"] == "csv":
        if out_map is None:
            report["skipped"] = []
            _skip(report["skipped"], "export",
                  f"case {cl.case} has no surface to export")
        else:
            zoo.save(cfg["out"], out_map.lift(), c, fmt="csv")
    code = 0 if all(ch["pass"] for ch in checks) else 2
    return report, code


COMMANDS = {"analyze": cmd_analyze,
            "verify-harmonic": cmd_verify_harmonic,
            "reconstruct": cmd_reconstruct}


class _Parser(argparse.ArgumentParser):
    """Reports a bad flag as a ValueError, so that it exits 3."""

    def error(self, message):
        raise ValueError(message)


def make_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="willmorelab")
    p.add_argument("command", choices=sorted(COMMANDS))
    p.add_argument("--surface", help="zoo surface, e.g. clifford_torus or "
                   "torus_of_revolution:3")
    p.add_argument("--input", help="CSV/JSON lift samples")
    p.add_argument("--chart", help="Nu,Nv,u0,u1,v0,v1,topology")
    p.add_argument("--tol", type=float)
    p.add_argument("--lambda-samples", dest="lambda_samples",
                   help="comma list of unit complex numbers, e.g. 1,i,-1")
    p.add_argument("--refine", type=_refine_levels,
                   help="refinement levels (>= 2)")
    p.add_argument("--out", help="report/export path")
    p.add_argument("--format", choices=("json", "csv"))
    p.add_argument("--config", help="JSON file mirroring the flags")
    return p


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else list(argv))
        cfg = build_config(args)
        report, code = COMMANDS[args.command](cfg)
    except (ValueError, OSError, TotallyUmbilicError,
            surface.DegenerateImmersionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if cfg.get("out") and cfg["format"] == "json":
        with open(cfg["out"], "w") as fh:
            json.dump(report, fh, indent=2, default=str)
    return code


if __name__ == "__main__":
    sys.exit(main())
