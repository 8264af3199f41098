"""One workload run inside its own process; run.py starts it.

Modes:
  setup    set up, report the set-up time and exit;
  measure  set up, then time passes over the op list untraced;
  trace    set up traced, time passes untraced, then traced, and report
           the per-layer metrics;
  record   set up, run two passes and write their outcomes to
           reference.json as the reference of the workload.

The child calls willmorelab.cli.main(argv) in process, one op at a time
(a closed loop with one client), and captures what each op prints.  The
last line of its standard output is `PERFBENCH_CHILD <json>`.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import hostspeed
import layers
import outcomes
import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
RESULT_TAG = "PERFBENCH_CHILD"


def import_willmorelab():
    """Import the package from the checkout's src/, and nowhere else."""
    src = ROOT / "src"
    if not (src / "willmorelab" / "__init__.py").is_file():
        raise SystemExit(f"no willmorelab sources under {src}")
    sys.path.insert(0, str(src))
    from willmorelab import cli, zoo
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"willmorelab imported from {cli.__file__}")
    return cli, zoo


class Runner:
    """Runs ops through cli.main and keeps what each one returned."""

    def __init__(self, cli):
        self.cli = cli
        self.report = None
        for name, cmd in list(cli.COMMANDS.items()):
            cli.COMMANDS[name] = self._capturing(cmd)

    def _capturing(self, cmd):
        def run(cfg):
            report, code = cmd(cfg)
            self.report = report
            return report, code
        return run

    def run(self, op: workloads.Op):
        """(seconds, outcome) of one op; only cli.main is timed."""
        if op.csv_out and os.path.exists(op.csv_out):
            os.remove(op.csv_out)
        self.report = None
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = self.cli.main(list(op.argv))
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:   # counted as a failed op
                code = f"raised {type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
        return dt, (code, out.getvalue(), self.report, op.csv_out)


def set_up(zoo, runner: Runner, workload: str, work: str):
    """Write the inputs, warm up on a tiny grid, return the op list."""
    warm = os.path.join(work, "warm")
    os.makedirs(warm, exist_ok=True)
    if workload == "analyze-zoo":
        workloads.write_input(zoo, warm, workloads.WARM_N)
        workloads.write_input(zoo, work, workloads.N[workload])
    for op in workloads.ops(zoo, workload, workloads.WARM_N, warm):
        runner.run(op)
    return workloads.ops(zoo, workload, workloads.N[workload], work)


class Passes:
    """Timed passes over the op list, each in an order drawn from rng.

    The host-speed kernel runs after every op; an op's adjusted time uses
    the mean of the kernel times just before and just after it.
    """

    def __init__(self, runner, op_list, rng, reference, kernel, kernel_s,
                 tracer=None):
        self.runner, self.op_list, self.rng = runner, op_list, rng
        self.reference, self.kernel, self.tracer = reference, kernel, tracer
        self.pass_s, self.op_s = [], []          # adjusted to REF_S
        self.raw_pass_s, self.raw_op_s, self.kernel_s = [], [], [kernel_s]
        self.op_ids, self.failures = [], []
        self.attempted = 0
        self._wall = []
        self._next_id = 0

    def run(self, seconds: float, min_passes: int) -> None:
        """Passes while the next one should end within seconds."""
        start = time.monotonic()
        while len(self._wall) < min_passes or time.monotonic() - start \
                + statistics.median(self._wall) <= seconds:
            t0 = time.monotonic()
            self.one_pass()
            self._wall.append(time.monotonic() - t0)

    def one_pass(self) -> None:
        order = self.rng.sample(self.op_list, len(self.op_list))
        ids, raw, adjusted, results = [], [], [], []
        for op in order:
            if self.tracer is not None:
                self.tracer.op = self._next_id
            ids.append(self._next_id)
            self._next_id += 1
            dt, result = self.runner.run(op)
            self.kernel_s.append(self.kernel.seconds())
            raw.append(dt)
            adjusted.append(dt * hostspeed.REF_S
                            / statistics.mean(self.kernel_s[-2:]))
            results.append((op, outcomes.summarize(*result)))
        self.pass_s.append(sum(adjusted))
        self.op_s.extend(adjusted)
        self.raw_pass_s.append(sum(raw))
        self.raw_op_s.extend(raw)
        self.op_ids.append(set(ids))
        self.attempted += len(order)
        for op, got in results:
            diffs = outcomes.differences(self.reference[op.name], got)
            if diffs:
                self.failures.append((op.name, diffs))


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def report_failures(failures) -> None:
    for name, diffs in failures:
        print(f"FAILED op {name}: " + "; ".join(diffs[:5]), file=sys.stderr)


def layer_check(workload: str, spans, op_ids, metrics) -> list[str]:
    """Layers that read zero where the workload must use them, or
    non-zero where it must not."""
    problems = []
    want = layers.ACTIVE[workload]
    for ids in op_ids:
        used = tracing.active_layers(spans, ids)
        for layer in sorted(want - used):
            problems.append(f"layer {layer} idle on {workload}")
        for layer in sorted(used - want):
            problems.append(f"layer {layer} busy on {workload}, "
                            "predicted idle")
    for name in layers.NONZERO[workload]:
        if not metrics[name]:
            problems.append(f"{name} reads zero on {workload}")
    for name in layers.ZERO[workload]:
        if metrics[name]:
            problems.append(f"{name} reads {metrics[name]} on {workload}, "
                            "predicted zero")
    return sorted(set(problems))


def per_layer(workload, tr, traced: Passes, untraced: Passes):
    """Median per-layer metrics over the traced passes, plus the checks
    that counts repeat and that each layer is busy where predicted."""
    per_pass = [tracing.layer_metrics(tr.spans, ids, layers.SPECS)
                for ids in traced.op_ids]
    metrics, problems = {}, []
    for name, kind, _, _ in layers.SPECS:
        vals = [m[name] for m in per_pass]
        if kind in ("calls", "mb"):
            if len(set(vals)) > 1:
                problems.append(f"{name} differs between passes: {vals}")
            metrics[name] = vals[0]
        else:
            metrics[name] = statistics.median(vals)
    metrics.update(tracing.layer_metrics(tr.spans, {"setup"},
                                         layers.SETUP_SPECS))
    metrics[layers.OVERHEAD] = statistics.median(traced.pass_s) \
        - statistics.median(untraced.pass_s)
    problems += layer_check(workload, tr.spans, traced.op_ids, metrics)
    return metrics, problems


def record(workload: str, runner: Runner, op_list) -> None:
    """Store the outcomes of two passes, which must agree, as reference."""
    got = {}
    for order in (op_list, op_list[::-1]):
        for op in order:
            _, result = runner.run(op)
            summary = outcomes.summarize(*result)
            if op.name in got and outcomes.differences(got[op.name], summary):
                raise SystemExit(f"{op.name}: outcome not reproducible")
            got[op.name] = summary
    ref = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    ref[workload] = got
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


def measure(args, runner: Runner, op_list, tr, kernel, kernel_s) -> dict:
    """Timed passes, untraced and (with a tracer) traced, checked
    against the reference."""
    reference = json.loads(REFERENCE.read_text())[args.workload]
    rng = random.Random(args.seed)
    untraced = Passes(runner, op_list, rng, reference, kernel, kernel_s)
    out = {}
    if tr is None:
        untraced.run(args.seconds, min_passes=2)
    else:
        tr.uninstall()
        untraced.run(args.seconds / 2, min_passes=1)
        traced = Passes(runner, op_list, rng, reference, kernel,
                        untraced.kernel_s[-1], tr)
        tr.install()
        traced.run(args.seconds / 2, min_passes=1)
        tr.uninstall()
        out["layers"], out["problems"] = per_layer(args.workload, tr,
                                                   traced, untraced)
        if args.spans:
            tr.write(args.spans)
        untraced.attempted += traced.attempted
        untraced.failures += traced.failures
    report_failures(untraced.failures)
    out.update(pass_s=statistics.median(untraced.pass_s),
               pass_samples=untraced.pass_s,
               op_s=statistics.median(untraced.op_s),
               op_samples=len(untraced.op_s),
               raw_pass_s=statistics.median(untraced.raw_pass_s),
               raw_op_s=statistics.median(untraced.raw_op_s),
               kernel_s=statistics.median(untraced.kernel_s),
               attempted=untraced.attempted,
               failed=len(untraced.failures),
               peak_rss_mb=resource.getrusage(
                   resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--mode", required=True,
                   choices=("setup", "measure", "trace", "record"))
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--t0", type=float, help="time.monotonic() at spawn")
    p.add_argument("--work", required=True, help="directory for files")
    p.add_argument("--spans", help="where the traced run writes its spans")
    args = p.parse_args(argv)
    t0 = time.monotonic() if args.t0 is None else args.t0

    cli, zoo = import_willmorelab()
    tr = None
    if args.mode == "trace":
        tr = tracing.Tracer()
        tr.install()
        tr.op = "setup"
    runner = Runner(cli)
    op_list = set_up(zoo, runner, args.workload, args.work)
    raw_setup_s = time.monotonic() - t0
    if args.mode == "record":
        record(args.workload, runner, op_list)
        return 0
    kernel = hostspeed.Kernel()
    kernel_s = kernel.median_seconds()
    out = {"setup_s": raw_setup_s * hostspeed.REF_S / kernel_s,
           "raw_setup_s": raw_setup_s, **environment()}
    if args.mode != "setup":
        out.update(measure(args, runner, op_list, tr, kernel, kernel_s))
    print(RESULT_TAG, json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
