#!/usr/bin/env python3
"""Benchmark entry point: builds the benchmark binary from source, runs one
workload and prints the result as the last line of stdout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The build goes to .bench_build/, traces and
run logs to .bench_out/. Every BGL_* variable of the caller's environment is
dropped; a traced run sets BGL_TRACE itself.
"""
import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
EXE = os.path.join(BUILD, "perfbench")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    BENCH = json.load(_f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
# Spans the program records (obs::Span), reported as self time per rank-step
# under the per-layer name "self_ms.<span>".
SPANS = [m["name"][len("self_ms."):] for m in BENCH["per_layer"]
         if m["name"].startswith("self_ms.")]
# Layers only one kind of workload exercises; on the other kind their
# metrics read 0. Any other metric the binary does not report is an error.
SERVING_LAYERS = ("serve.", "model.", "tensor.gemm_gflops.decode")
TRAINING_LAYERS = ("parallel.", "train.", "runtime.", "collectives.", "core.",
                   "moe.", "tensor.gemm_gflops.train")


def build():
    """Configures once and builds the benchmark binary; exits 1 on failure."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs share one build
        with open(log_path, "w") as log:
            steps = []
            if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
                steps.append(["cmake", "-S", HERE, "-B", BUILD,
                              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
            steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                          "-j", jobs])
            for cmd in steps:
                if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                    # A half-configured tree must not be mistaken for a good one.
                    if cmd[1] == "-S" and os.path.exists(
                            os.path.join(BUILD, "CMakeCache.txt")):
                        os.remove(os.path.join(BUILD, "CMakeCache.txt"))
                    with open(log_path) as f:
                        sys.stderr.write(f.read()[-4000:])
                    sys.exit("perfbench: build failed (see .bench_build/build.log)")


def child_env(trace_dir=None):
    """The caller's environment, with BGL_TRACE only when this run traces.
    The binary drops every other BGL_* variable itself."""
    env = {k: v for k, v in os.environ.items() if k != "BGL_TRACE"}
    if trace_dir:
        env["BGL_TRACE"] = trace_dir
    return env


def idle_layers(workload):
    return TRAINING_LAYERS if workload.startswith("serve") else SERVING_LAYERS


def span_self_ms(trace_dir, begin_us, end_us, rank_steps):
    """Self time per span name inside [begin_us, end_us], ms per rank-step.

    Self time is a span's duration minus the part covered by its direct
    children on the same thread.
    """
    totals = {s: 0.0 for s in SPANS}
    if rank_steps <= 0 or not os.path.isdir(trace_dir):
        return totals
    for fname in sorted(os.listdir(trace_dir)):
        if not fname.startswith("trace.rank"):
            continue
        by_thread = {}
        with open(os.path.join(trace_dir, fname)) as f:
            for line in f:
                if '"ph":"X"' not in line:
                    continue
                e = json.loads(line.strip().rstrip(","))
                ts, dur = e["ts"], e["dur"]
                if ts < begin_us or ts + dur > end_us:
                    continue
                by_thread.setdefault((e["pid"], e["tid"]), []).append(
                    (ts, -dur, e["name"]))
        for events in by_thread.values():
            events.sort()
            stack = []  # [end, name, self]
            def close(entry):
                if entry[1] in totals:
                    totals[entry[1]] += entry[2]
            for ts, neg_dur, name in events:
                dur = -neg_dur
                while stack and stack[-1][0] <= ts:
                    close(stack.pop())
                if stack:
                    stack[-1][2] -= dur
                stack.append([ts + dur, name, float(dur)])
            while stack:
                close(stack.pop())
    return {s: v / 1e3 / rank_steps for s, v in totals.items()}


def run_workload(args):
    os.makedirs(os.path.join(OUT, "logs"), exist_ok=True)
    trace_dir = os.path.join(OUT, "trace", args.workload)
    if args.trace:
        shutil.rmtree(trace_dir, ignore_errors=True)
    env = child_env(trace_dir if args.trace else None)
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    t0 = time.monotonic()  # CLOCK_MONOTONIC, shared with the benchmark binary
    # The timed phase, then set-up and the replays (a few times shorter).
    timeout = 3 * args.seconds + 120
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], env=env, cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: %s did not finish within %.0f s" %
                 (args.workload, timeout))
    log = os.path.join(OUT, "logs", "%s-seed%d-trace%d.log" %
                       (args.workload, args.seed, args.trace))
    with open(log, "w") as f:
        f.write(proc.stdout)
        f.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        sys.exit("perfbench: %s exited with %d" % (args.workload, proc.returncode))
    for line in lines[:-1]:
        print(line)
    raw = json.loads(lines[-1])
    values = raw["metrics"]
    if args.trace:
        values = dict(values)
        values["trace.tokens_per_s"] = values["tokens_per_s"]
        t = raw["trace"]
        for span, ms in span_self_ms(trace_dir, t["begin_us"], t["end_us"],
                                     t["rank_steps"]).items():
            values["self_ms." + span] = ms
        table = BENCH["per_layer"]
    else:
        table = BENCH["end_to_end"]
    metrics = {}
    for m in table:
        name = m["name"]
        if name not in values:
            if not name.startswith(idle_layers(args.workload)):
                sys.exit("perfbench: %s reported no %s" % (args.workload, name))
            values[name] = 0.0
        metrics[name] = {"value": float(values[name]), "unit": m["unit"]}
    print(json.dumps({"correct": raw["correct"], "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true",
                   help="show every check fires on a broken result and every "
                        "workload passes at toy size")
    args = p.parse_args()
    if not args.selftest and not args.workload:
        p.error("--workload is required")
    build()
    if args.selftest:
        sys.exit(subprocess.run([EXE, "--selftest"], env=child_env(),
                                cwd=ROOT, timeout=900).returncode)
    run_workload(args)


if __name__ == "__main__":
    main()
