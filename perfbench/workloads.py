"""The benchmark's three workloads as fixed lists of `willmorelab` CLI calls.

Each workload is a list of ops; one pass runs every op once, in an order
the benchmark seed fixes.  The inputs are the deterministic zoo, so what
each op must print and return does not depend on the seed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

# Grid size per workload.  harmonic-refine starts at 128 and refines once,
# so its fine level is 256 like the other two.
N = {"analyze-zoo": 256, "harmonic-refine": 128, "reconstruct-cases": 256}
WORKLOADS = tuple(N)

# Size of the warm-up pass run during set-up: every op once on a tiny grid.
WARM_N = 24

# (CLI surface argument, zoo.SurfaceSpec arguments)
ZOO = {
    "round_sphere": ("round_sphere",),
    "clifford_torus": ("clifford_torus",),
    "torus_of_revolution:3": ("torus_of_revolution", 3.0),
    "catenoid": ("catenoid",),
    "enneper": ("enneper",),
    "veronese_s4": ("veronese_s4",),
}

ANALYZE = ("round_sphere", "clifford_torus", "torus_of_revolution:3",
           "catenoid", "enneper", "veronese_s4")
HARMONIC = ("enneper", "clifford_torus", "veronese_s4",
            "torus_of_revolution:3")
RECONSTRUCT = ("clifford_torus", "veronese_s4", "torus_of_revolution:3",
               "catenoid", "enneper", "round_sphere")

# The external-data op of analyze-zoo reads this lift, written in set-up.
INPUT_SURFACE = "enneper"


@dataclass(frozen=True)
class Op:
    name: str            # stable key into the reference outcomes
    argv: tuple          # arguments of willmorelab.cli.main
    csv_out: str | None = None   # file the op writes, if any


def chart_arg(zoo, surface: str, n: int) -> str:
    """The --chart string of the surface's default chart at size n.

    Bounds go through float() before repr(): numpy 2 prints np.float64
    values as 'np.float64(...)', which the CLI cannot parse.
    """
    c = zoo.default_chart(zoo.SurfaceSpec(*ZOO[surface]), n)
    bounds = (c.u_min, c.u_max, c.v_min, c.v_max)
    return ",".join([str(c.Nu), str(c.Nv)]
                    + [repr(float(b)) for b in bounds] + [c.topology])


def input_csv(work: str) -> str:
    return os.path.join(work, f"{INPUT_SURFACE}_lift.csv")


def write_input(zoo, work: str, n: int) -> None:
    """Write the external lift that analyze-zoo's --input op reads."""
    c = zoo.default_chart(zoo.SurfaceSpec(*ZOO[INPUT_SURFACE]), n)
    field = zoo.generate(zoo.SurfaceSpec(*ZOO[INPUT_SURFACE]), c)
    zoo.save(input_csv(work), field, c, fmt="csv")


def ops(zoo, workload: str, n: int, work: str) -> list[Op]:
    """The op list of a workload at grid size n; outputs go under work."""
    if workload == "analyze-zoo":
        out = [Op(f"analyze:{s}", ("analyze", "--surface", s,
                                   "--chart", chart_arg(zoo, s, n)))
               for s in ANALYZE]
        out.append(Op(f"analyze-input:{INPUT_SURFACE}",
                      ("analyze", "--input", input_csv(work),
                       "--chart", chart_arg(zoo, INPUT_SURFACE, n))))
        return out
    if workload == "harmonic-refine":
        return [Op(f"verify-harmonic:{s}",
                   ("verify-harmonic", "--surface", s,
                    "--chart", chart_arg(zoo, s, n), "--refine", "2"))
                for s in HARMONIC]
    if workload == "reconstruct-cases":
        out = []
        for s in RECONSTRUCT:
            path = os.path.join(work, f"{s.replace(':', '_')}.csv")
            out.append(Op(f"reconstruct:{s}",
                          ("reconstruct", "--surface", s,
                           "--chart", chart_arg(zoo, s, n),
                           "--format", "csv", "--out", path), path))
        return out
    raise ValueError(f"unknown workload {workload!r}")
