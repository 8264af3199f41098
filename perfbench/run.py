"""Benchmark of the willmorelab CLI over three workloads.

    python3 perfbench/run.py --workload analyze-zoo --seed 1 --seconds 34 --trace 0

Run from the root of a checkout.  Every run gets fresh child processes
with BLAS and OpenMP pinned to one thread.  With --trace 0 it prints the
end-to-end metrics (set-up is repeated in separate children and its
median reported), as times at the host speed hostspeed.REF_S stands for;
the env line gives the raw times.  With --trace 1 a single traced child
prints the per-layer metrics and the tracing overhead.  Every op is checked against
the seed reference in reference.json.  The last line of standard output
is the JSON result; the line before it records the run environment.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
OUT = ROOT / ".bench_out"
# Set-up-only children before and after the measuring one; with the
# measuring child's own set-up, their median is setup_s.  Spreading them
# over the run keeps a slow phase of the machine from moving all of them.
SETUP_AROUND = 2
DEADLINE_S = 170       # the whole run, children included
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}


class ChildFailed(RuntimeError):
    pass


def spawn(mode: str, args, work: Path, deadline: float, spans=None) -> dict:
    """Run child.py in its own process and return its result line."""
    t0 = time.monotonic()
    cmd = [sys.executable, str(CHILD), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--t0", repr(t0),
           "--work", str(work)]
    if spans:
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **THREADS},
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} child exceeded the deadline") from exc
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines \
            or not lines[-1].startswith("PERFBENCH_CHILD "):
        raise ChildFailed(f"{mode} child exited {proc.returncode}:\n"
                          + proc.stderr[-3000:])
    sys.stderr.write(proc.stderr)
    return json.loads(lines[-1].split(" ", 1)[1])


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="willmorelab CLI benchmark")
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "willmorelab" / "__init__.py").is_file():
        print(f"error: no willmorelab sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = time.monotonic() + DEADLINE_S
    work = OUT / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            res = spawn("trace", args, work, deadline, spans)
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            if set(units) != set(res["layers"]):
                raise ChildFailed("per-layer metrics differ from "
                                  "BENCHMARK.json")
            metrics = {k: metric(v, units[k])
                       for k, v in res["layers"].items()}
            problems = res["problems"]
            extra = {"trace_overhead_s": res["layers"][layers.OVERHEAD],
                     "spans": str(spans.relative_to(ROOT))}
        else:
            setups = [spawn("setup", args, work, deadline)
                      for _ in range(SETUP_AROUND)]
            res = spawn("measure", args, work, deadline)
            setups.append(res)
            setups += [spawn("setup", args, work, deadline)
                       for _ in range(SETUP_AROUND)]
            metrics = {
                "setup_s": metric(statistics.median(
                    r["setup_s"] for r in setups), "s"),
                "pass_s": metric(res["pass_s"], "s"),
                "op_s": metric(res["op_s"], "s"),
                "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
            }
            if set(metrics) != {m["name"] for m in spec["end_to_end"]}:
                raise ChildFailed("end-to-end metrics differ from "
                                  "BENCHMARK.json")
            problems = []
            extra = {"setup_samples": [r["setup_s"] for r in setups],
                     "raw_s": {"setup_s": statistics.median(
                         r["raw_setup_s"] for r in setups),
                         "pass_s": res["raw_pass_s"],
                         "op_s": res["raw_op_s"]}}
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in problems:
        print(f"LAYER CHECK FAILED: {problem}", file=sys.stderr)
    correct = res["failed"] == 0 and not problems
    env = {"workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace,
           "nproc": os.cpu_count(),
           "cpus_allowed": len(os.sched_getaffinity(0)),
           "threads": THREADS, "python": res["python"],
           "numpy": res["numpy"], "blas": res["blas"],
           "N": workloads.N, "pass_samples": res["pass_samples"],
           "op_samples": res["op_samples"],
           "kernel_s": res["kernel_s"], "ref_kernel_s": hostspeed.REF_S,
           "fail_ratio": res["failed"] / res["attempted"], **extra}
    print("perfbench env " + json.dumps(env))
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
