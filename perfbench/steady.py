#!/usr/bin/env python3
"""Steadiness check: runs each workload with several seeds and prints, for
every end-to-end metric, the median, the quartiles and the spread (distance
between the quartiles as a share of the median) beside the bound in
BENCHMARK.json. These are the numbers the bounds were set from.

    python3 perfbench/steady.py [--runs 10] [--workloads a,b] [--traced]

With --traced it also makes one traced run per seed and reports the tracing
overhead on tokens_per_s (traced median against untraced median). Raw
results are appended to .bench_out/steady.jsonl. On Linux it also prints
the share of CPU time the hypervisor took from the host (steal) while
each workload ran: spreads measured under steal say little about the
benchmark.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit("run failed: " + " ".join(cmd))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cpu_times():
    """(steal, total) jiffies of all CPUs, or None where /proc is absent."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7] if len(fields) > 7 else 0, sum(fields)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--traced", action="store_true")
    args = p.parse_args()

    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    raw = open(os.path.join(ROOT, ".bench_out", "steady.jsonl"), "a")
    worst = 0.0
    for workload in args.workloads.split(","):
        results, traced = [], []
        cpu_before = cpu_times()
        for i in range(args.runs):
            seed = args.first_seed + i
            r = run(workload, seed, args.seconds, 0)
            raw.write(json.dumps({"workload": workload, "seed": seed, "trace": 0,
                                  "result": r}) + "\n")
            raw.flush()
            if not r["correct"] or r["failed"]:
                print("%s seed %d: correct=%s failed=%d" %
                      (workload, seed, r["correct"], r["failed"]))
            results.append(r)
            if args.traced:
                t = run(workload, seed, args.seconds, 1)
                raw.write(json.dumps({"workload": workload, "seed": seed,
                                      "trace": 1, "result": t}) + "\n")
                traced.append(t)
        cpu_after = cpu_times()
        steal = ""
        if cpu_before and cpu_after and cpu_after[1] > cpu_before[1]:
            steal = ", host steal %.1f%%" % (100.0 * (cpu_after[0] - cpu_before[0]) /
                                             (cpu_after[1] - cpu_before[1]))
        shares = {r["failed"] / r["attempted"] for r in results}
        print("\n%s: %d runs, attempted %s, failed share %s%s" %
              (workload, len(results),
               sorted(r["attempted"] for r in results), sorted(shares), steal))
        print("  %-16s %12s %12s %12s %8s %7s" %
              ("metric", "median", "q1", "q3", "spread", "bound"))
        for m in bench["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            if m["name"] != "setup_s":
                worst = max(worst, spread / m["bound"])
            print("  %-16s %12.5g %12.5g %12.5g %7.1f%% %6.0f%%" %
                  (m["name"], med, q1, q3, 100 * spread, 100 * m["bound"]))
        if traced:
            plain = statistics.median(r["metrics"]["tokens_per_s"]["value"]
                                      for r in results)
            with_trace = statistics.median(t["metrics"]["trace.tokens_per_s"]["value"]
                                           for t in traced)
            print("  tracing overhead on tokens_per_s: %.1f%% (%.5g -> %.5g)" %
                  (100 * (plain - with_trace) / plain, plain, with_trace))
    print("\nlargest spread / bound (setup_s excluded): %.2f" % worst)


if __name__ == "__main__":
    main()
