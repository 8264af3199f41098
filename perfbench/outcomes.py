"""What an op produced, and its comparison with the seed reference.

An op's outcome is its exit code, the check verdicts it printed, its
report (every section but `config`) and, for ops that write a CSV, the
row count and a stride of rows.  An op fails if any of these differs
from the reference; numbers may move by REL relative, or by ABS_FLOOR
absolute, the level of roundoff in a residual.
"""

from __future__ import annotations

import json
import math
import os
import re

REL = 1e-12
# Roundoff in these numbers is absolute, not relative: the stencils turn
# a last-bit change of the lift into up to ~2e-10 of any residual.  At
# N=256 analytically zero residuals read up to 1.3e-10 (clifford_torus),
# and summing lorentz.inner in another order moves veronese_s4's
# flatness at lambda=i, 6.4e-3, by 1.5e-10.  Numbers may therefore move
# by max(REL * |value|, ABS_FLOOR).
ABS_FLOOR = 1e-9
CSV_STRIDE = 4099

_VERDICT = re.compile(r"^(PASS|FAIL)\s+(.*?): value=")


def _plain(value):
    """numpy scalars and other leaves as JSON values."""
    if hasattr(value, "item"):
        return value.item()
    return str(value)


def _csv_sample(path: str):
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        lines = fh.read().splitlines()
    rows = lines[1:]
    return {"header": lines[0], "rows": len(rows),
            "sample": {str(i): [float(x) for x in rows[i].split(",")]
                       for i in range(0, len(rows), CSV_STRIDE)}}


def _drop_orders(report: dict) -> None:
    """Leave out verify-harmonic's observed convergence orders.

    Each is log(coarse / fine) / log 2 of two level residuals that are
    compared themselves; for small residuals the ratio magnifies
    roundoff beyond any fixed tolerance (a 2e-15 change moves the order
    of enneper's A2_line, 4e-8 over 3e-9, by 1e-6).
    """
    for level in report.get("residuals", {}).get("levels", []):
        level.pop("observed_orders", None)


def summarize(code, stdout: str, report, csv_out) -> dict:
    """The comparable outcome of one op."""
    if report is not None:
        report = {k: v for k, v in report.items() if k != "config"}
        report = json.loads(json.dumps(report, default=_plain))
        _drop_orders(report)
    verdicts = [" ".join(m.groups()) for m in map(_VERDICT.match,
                                                   stdout.splitlines()) if m]
    return {"exit": code, "verdicts": verdicts, "report": report,
            "csv": _csv_sample(csv_out) if csv_out else None}


def _close(a: float, b: float) -> bool:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return True
    return abs(a - b) <= max(REL * max(abs(a), abs(b)), ABS_FLOOR)


def differences(ref, got, path: str = "") -> list[str]:
    """Where got departs from ref; empty when the outcome matches."""
    if isinstance(ref, dict) and isinstance(got, dict):
        if ref.keys() != got.keys():
            return [f"{path}: keys {sorted(ref)} != {sorted(got)}"]
        return [d for k in ref for d in differences(ref[k], got[k],
                                                    f"{path}.{k}")]
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return [f"{path}: length {len(ref)} != {len(got)}"]
        return [d for i, (r, g) in enumerate(zip(ref, got))
                for d in differences(r, g, f"{path}[{i}]")]
    if isinstance(ref, float) and isinstance(got, float):
        return [] if _close(ref, got) else [f"{path}: {ref!r} -> {got!r}"]
    if type(ref) is not type(got) or ref != got:
        return [f"{path}: {_short(ref)} -> {_short(got)}"]
    return []


def _short(value) -> str:
    text = repr(value)
    return text if len(text) <= 80 else text[:77] + "..."
