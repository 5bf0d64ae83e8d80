#!/usr/bin/env python3
"""The repository's benchmark: interactive, analysis and fleet sessions
against `qdd-tool serve`, every answer checked by an independent oracle.

    python3 sessbench/run.py --workload interactive|analysis|fleet \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It builds the program and the
benchmark in Release under .bench_build/, starts the server as its own
process, drives it from a single-threaded closed-loop client
(sessbench-load), and prints one JSON object as the last line of stdout:
the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1. The traced mode also replays the recorded requests in-process
(sessbench-replay), writes its spans as a Chrome trace and checks that
trace with qdd-trace-check. Everything a run writes lives in one temporary
directory under .bench_build/, removed at the end.
"""

import argparse
import ctypes
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "sessbench")
TARGETS = ["qdd_tool", "qdd_trace_check", "sessbench-load", "sessbench-replay"]
PR_SET_PDEATHSIG = 1


def die_with_parent():
    """Runs in each child before exec: it gets SIGKILL when this process
    dies, so no child outlives a killed benchmark."""
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)


def run_child(argv, **kwargs):
    return subprocess.run(argv, preexec_fn=die_with_parent, check=False,
                          **kwargs)


def build():
    """Configures and builds in Release; build output goes to stderr so the
    last line of stdout stays the result."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        raise RuntimeError("no program sources next to the benchmark: "
                           "run from the root of a full checkout")
    steps = [["cmake", "--build", BUILD, "-j", "4", "--target"] + TARGETS]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for argv in steps:
        if run_child(argv, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise RuntimeError("build failed: " + " ".join(argv))


def last_json_line(text, what):
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise RuntimeError(what + " printed no result")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["interactive", "analysis", "fleet"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build()
    # The load generator, the server and all its threads share one CPU. On
    # a shared 4-vCPU VM this was the layout that repeated: steal time was
    # 0.2-3 % with one busy vCPU against 6-23 % with the default spread, and
    # a request's thread hand-offs never wait for another vCPU to be woken.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    tool = os.path.join(BUILD, "qdd", "src", "tools", "qdd-tool")
    checker = os.path.join(BUILD, "qdd", "src", "tools", "qdd-trace-check")
    workdir = tempfile.mkdtemp(prefix="run-", dir=os.path.dirname(BUILD))
    # SIGTERM unwinds through the finally below, so the directory goes too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        script = os.path.join(workdir, "requests.tsv")
        load_argv = [os.path.join(BUILD, "sessbench-load"),
                     "--workload", args.workload, "--seed", str(args.seed),
                     "--seconds", str(args.seconds), "--tool", tool,
                     "--workdir", workdir]
        if args.trace:
            load_argv += ["--script", script]
        load = run_child(load_argv, stdout=subprocess.PIPE,
                         stderr=sys.stderr, text=True, timeout=170)
        if load.returncode:
            raise RuntimeError("sessbench-load exited with %d"
                               % load.returncode)
        result = last_json_line(load.stdout, "sessbench-load")
        correct = result["correct"]
        errors = list(result["info"]["errors"])

        if args.trace:
            trace = os.path.join(workdir, "trace.json")
            replay = run_child(
                [os.path.join(BUILD, "sessbench-replay"), "--script", script,
                 "--workload", args.workload, "--workdir", workdir,
                 "--trace-out", trace],
                stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                timeout=170)
            if replay.returncode:
                raise RuntimeError("sessbench-replay exited with %d"
                                   % replay.returncode)
            replayed = last_json_line(replay.stdout, "sessbench-replay")
            errors += replayed["errors"]
            correct = correct and not replayed["errors"]
            check = run_child([checker, trace], stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
            print("trace: " + check.stdout.strip())
            if check.returncode:
                correct = False
                errors.append("trace rejected by qdd-trace-check")
            metrics = dict(result["layers"])
            metrics.update(replayed["layers"])
        else:
            metrics = result["metrics"]

        info = result["info"]
        print("%s seed %d: %d operations attempted, %d failed; op_ms p90 "
              "%.4g p99 %.4g of %d samples; open_ms p90 %.4g p99 %.4g of %d "
              "samples; errors: %s" % (
                  args.workload, args.seed, result["attempted"],
                  result["failed"], info["op_ms_p90"], info["op_ms_p99"],
                  info["op_samples"], info["open_ms_p90"],
                  info["open_ms_p99"], info["open_samples"],
                  "; ".join(errors) or "none"))
        print(json.dumps({"correct": correct,
                          "attempted": result["attempted"],
                          "failed": result["failed"],
                          "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, subprocess.TimeoutExpired, OSError,
            json.JSONDecodeError, KeyError) as e:
        print("sessbench: %s" % e, file=sys.stderr)
        sys.exit(1)
