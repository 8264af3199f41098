"""Per-stage wall time and tracemalloc peak of the three commands on the zoo.

For each command (analyze, verify-harmonic --refine 2, reconstruct with
its CSV export), each zoo surface and each grid size N, one child
process runs the command on the surface's default chart at N (so
verify-harmonic's fine level is about 2N), pinned to one CPU of the
process's affinity, so every row-block pass runs on one worker and the
peaks do not depend on thread scheduling, with one BLAS thread.

A stage is a call, on the main thread, of a public function of the
package's stage modules (STAGE_MODULES), seen by a profile hook, so no
wrapper holds the stage's arguments; the work of the pool threads of
`lorentz.for_blocks`, and a function of another module, is counted in
the stage that runs it.  Each stage records its calls, its wall time
(inclusive, the hook's cost of a Python call per function call on the
main thread included) and its tracemalloc peak (the most memory traced
while it ran, what its caller holds included).  The command runs twice
in the child: first with tracemalloc on, for the peaks, then with it
off, for the times, which tracemalloc would inflate.

    python tools/stages.py --label change --out BENCH.json
    python tools/stages.py --label parent --tree ../parent --out BENCH.json
    python tools/stages.py --label smoke --sizes 24 --out /tmp/stages.json

--tree names the checkout whose src/willmorelab is measured (this one by
default); the results go under --label in --out, and the other labels
already in that file are kept, so two checkouts are compared in one
file.  Exits 1 if a child fails; a command's own exit code (3 for the
round sphere's reconstruct, 2 for a failed check) is recorded, not an
error.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMMANDS = ("analyze", "verify-harmonic", "reconstruct")
SURFACES = ("round_sphere", "clifford_torus", "torus_of_revolution:3",
            "catenoid", "enneper", "veronese_s4")
SIZES = (64, 128, 256)
# modules whose public functions are stages; lorentz and chart hold the
# kernels that run inside the stages' row blocks, on pool threads too
STAGE_MODULES = ("zoo", "surface", "gauss_frame", "harmonic", "spinor",
                 "reconstruct")


class _Stages:
    """A profile hook (`sys.setprofile`, so the main thread only) that
    records into `stats` {stage: (calls, wall s, peak bytes)} each call
    of a stage function, given as {code object: stage name}.

    A hook holds no reference to a stage's arguments, where a wrapper
    would keep alive an argument that the stage frees as its only
    reference (`del`).  tracemalloc has one peak, so each stage resets
    it on entry and exit, and `open_peaks` holds the running peak of
    each stage still open."""

    def __init__(self, stages: dict):
        self.stages, self.stats, self.open = stages, {}, []

    def __call__(self, frame, event, arg):
        if event != "call" and event != "return":
            return
        stage = self.stages.get(frame.f_code)
        if stage is None:
            return
        tracing = tracemalloc.is_tracing()
        peak = tracemalloc.get_traced_memory()[1] if tracing else 0
        if tracing:
            tracemalloc.reset_peak()
        if event == "call":
            if self.open:
                self.open[-1][1] = max(self.open[-1][1], peak)
            self.open.append([time.perf_counter(), 0])
            return
        start, top = self.open.pop()
        top = max(top, peak)
        if self.open:
            self.open[-1][1] = max(self.open[-1][1], top)
        calls, wall, most = self.stats.get(stage, (0, 0.0, 0))
        self.stats[stage] = (calls + 1, wall + time.perf_counter() - start,
                             max(most, top))


def _stage_codes(cli) -> dict:
    """{code object: "module.function"} of every public function of
    STAGE_MODULES, and of the command entry point as "cli.main"."""
    out = {cli.main.__code__: "cli.main"}
    for name in STAGE_MODULES:
        mod = sys.modules[f"willmorelab.{name}"]
        for attr, fn in vars(mod).items():
            if not attr.startswith("_") and inspect.isfunction(fn) \
                    and fn.__module__ == mod.__name__:
                out[fn.__code__] = f"{name}.{attr}"
    return out


def _chart_arg(zoo, surface: str, n: int) -> str:
    kind, _, param = surface.partition(":")
    c = zoo.default_chart(zoo.SurfaceSpec(kind, float(param) if param
                                          else None), n)
    return ",".join([str(c.Nu), str(c.Nv)]
                    + [repr(float(x)) for x in (c.u_min, c.u_max, c.v_min,
                                                c.v_max)] + [c.topology])


def one(tree: str, command: str, surface: str, n: int) -> dict:
    """Run one command in this process, as a child does: the record of
    its exit code, its total and per-stage times and peaks."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, os.path.join(tree, "src"))
    from willmorelab import cli, zoo

    argv = [command, "--surface", surface, "--chart",
            _chart_arg(zoo, surface, n)]
    if command == "verify-harmonic":
        argv += ["--refine", "2"]
    codes, runs = _stage_codes(cli), []
    with tempfile.TemporaryDirectory() as tmp:
        if command == "reconstruct":
            argv += ["--format", "csv", "--out",
                     os.path.join(tmp, "export.csv")]
        for traced in (True, False):
            hook = _Stages(codes)
            if traced:
                tracemalloc.start()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                sys.setprofile(hook)
                try:
                    code = cli.main(argv)
                finally:
                    sys.setprofile(None)
            tracemalloc.stop()
            runs.append((code, hook.stats))
    (code, traced), (_, timed) = runs
    total = timed.pop("cli.main")
    return {"command": command, "surface": surface, "N": n, "exit": code,
            "wall_s": round(total[1], 4),
            "peak_mb": round(traced["cli.main"][2] / 1e6, 2),
            "stages": {name: {"calls": timed[name][0],
                              "wall_s": round(timed[name][1], 4),
                              "peak_mb": round(traced[name][2] / 1e6, 2)}
                       for name in sorted(timed)}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--label", required=True, help="key of this run in --out")
    p.add_argument("--out", required=True, help="JSON file to update")
    p.add_argument("--tree", default=ROOT, help="checkout to measure")
    p.add_argument("--sizes", type=int, nargs="+", default=list(SIZES))
    p.add_argument("--one", nargs=3, metavar=("COMMAND", "SURFACE", "N"),
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    tree = os.path.abspath(args.tree)
    if args.one:
        command, surface, n = args.one
        print(json.dumps(one(tree, command, surface, int(n))))
        return 0
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1")
    records = []
    for n in args.sizes:
        for command in COMMANDS:
            for surface in SURFACES:
                child = subprocess.run(
                    [sys.executable, os.path.abspath(__file__), "--label",
                     args.label, "--out", args.out, "--tree", tree,
                     "--one", command, surface, str(n)],
                    capture_output=True, text=True, env=env)
                if child.returncode != 0:
                    print(child.stderr, file=sys.stderr)
                    print(f"{command} {surface} N={n}: child failed",
                          file=sys.stderr)
                    return 1
                rec = json.loads(child.stdout)
                records.append(rec)
                print(f"{command:<16} {surface:<22} N={n:<4} "
                      f"exit {rec['exit']}  {rec['wall_s']:8.3f} s  "
                      f"{rec['peak_mb']:8.2f} MB", flush=True)
    data = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            data = json.load(fh)
    data[args.label] = {"tree": os.path.basename(tree),
                        "python": platform.python_version(),
                        "machine": platform.machine(),
                        "cpus_used": 1, "runs": records}
    with open(args.out, "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
