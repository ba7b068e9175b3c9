#!/usr/bin/env python3
"""The febvp benchmark, one command:

    python3 bench/run.py --workload {laws-numeric,laws-closed,requests} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it imports febvp from the checkout's
``src/``.  Every run starts single-threaded child processes in turn: one
that only does the workload's set-up and also compiles bytecode (not
counted), SETUP_PROBES // 2 more set-up-only ones, the one that sets up
and runs the workload for S seconds, checking every output it computes,
and SETUP_PROBES // 2 set-up-only ones after it.

It prints one line per metric, then, as its last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with --trace 0, and with --trace 1 the per-layer metrics of a traced run.
Exit status: 0 when every output passed its check, 1 when one did not,
2 when the checkout holds no febvp sources or a child process failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".bench_work")
WORKLOADS = ("laws-numeric", "laws-closed", "requests")
SETUP_PROBES = 10

END_TO_END = {
    "setup_s": "s",
    "samples_per_s": "1/s",
    "request_ms_p50": "ms",
    "request_ms_p95": "ms",
    "accuracy_margin_decades": "decades",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--child", choices=("setup", "run"), help=argparse.SUPPRESS)
    p.add_argument("--t0-ns", type=int, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0", PYTHONPATH=SRC)
    return env


def run_child(mode: str, args, timeout: float) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--child", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    # The child measures its set-up from this instant: process start-up,
    # imports and input generation all count.
    cmd += ["--t0-ns", str(time.time_ns())]
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, timeout=timeout,
                          capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{mode} child exited with {proc.returncode}")
    return json.loads(lines[-1])


def parent(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "febvp", "__init__.py")):
        print(f"no febvp sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(WORKDIR, exist_ok=True)
    try:
        # the first probe also compiles the checkout's bytecode; drop it.
        # Half the probes run after the workload, so that set-up is timed
        # at both ends of the run.
        run_child("setup", args, 120)
        probes = [run_child("setup", args, 120)
                  for _ in range(SETUP_PROBES // 2)]
        result = run_child("run", args, args.seconds + 120)
        probes += [run_child("setup", args, 120)
                   for _ in range(SETUP_PROBES // 2)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    digests = {p["digest"] for p in probes} | {result["digest"]}
    if len(digests) != 1:
        print("inputs differ between processes with one seed",
              file=sys.stderr)
        return 2

    print(f"workload {args.workload} seed {args.seed} "
          f"inputs {result['digest'][:16]} trace {args.trace}")
    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in result["per_layer"].items()}
    else:
        values = dict(result["metrics"])
        # in wall-clock time: the host-speed kernel does not track set-up
        values["setup_s"] = statistics.median(
            [p["setup_s"] for p in probes] + [result["setup_s"]])
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        # printed, but not a JSON metric: a run with any failure is not
        # correct and exits 1, so the ratio is 0 in every accepted run
        ratio = result["failed"] / result["attempted"]
        print(f"failure_ratio = {ratio!r} 1")
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    if not args.trace:
        # unscaled figures, and the host-speed kernel's median time
        print("wall-clock: " + "; ".join(
            f"{name} = {value!r}"
            for name, value in result["wall"].items()))
    print(f"passes {result['passes']} of {result['items']} items; "
          f"smallest margin {result['min_margin']!r} decades; "
          f"by {'kind' if args.workload == 'requests' else 'law'} "
          f"{json.dumps(result['group_min'])}; "
          f"attempted {result['attempted']} failed {result['failed']} "
          f"failures by code {json.dumps(result['codes'])}")
    for problem in result["problems"]:
        print(f"FAILED {problem}")
    correct = result["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


def child(args) -> int:
    import workloads  # imports numpy and febvp: part of the set-up

    import febvp
    if not os.path.abspath(febvp.__file__).startswith(SRC + os.sep):
        print(f"febvp imported from {febvp.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    runner = workloads.make_runner(args.workload, args.seed, WORKDIR)
    setup_s = (time.time_ns() - args.t0_ns) / 1e9
    doc = {"setup_s": setup_s, "digest": runner.digest()}
    if args.child == "run":
        doc.update(workloads.measure(runner, args.seconds, args.trace,
                                     WORKDIR))
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    ARGS = parse_args()
    sys.exit(child(ARGS) if ARGS.child else parent(ARGS))
