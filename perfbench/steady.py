#!/usr/bin/env python3
"""Steadiness runs: each workload run repeatedly, one seed per run.

    python3 perfbench/steady.py [--traced]

Run from the root of a checkout. For every workload of BENCHMARK.json it
calls perfbench/run.py once per seed, seeds 1 to 10, each run as long as
BENCHMARK.json's run_seconds, and prints, per end-to-end metric, the
median, the first and third quartiles (statistics.quantiles(n=4)) and
their distance as a share of the median, next to the bound BENCHMARK.json
fixes; a spread above a third of the bound is flagged (setup_s, one cold
set-up a run, is compared by its median only). It also prints the share of failed operations. With --traced
every seed is run a second time with --trace 1: the per-layer medians are
printed, and the tracing overhead is the traced run's end-to-end pass (or
request) time minus the untraced one, read from the trace file.

Every report is stamped with the build type, nproc, the load average before
and after, and the git revision (when the checkout is a git repository).
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = list(range(1, 11))


def git_rev():
    try:
        return subprocess.check_output(
            ["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
            stderr=subprocess.DEVNULL, text=True).strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def build_type():
    cache = os.path.join(ROOT, ".bench_build", "perfbench", "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    return "unknown"


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-3000:])
        raise SystemExit("%s seed %d trace %d: exit %d" %
                         (workload, seed, trace, proc.returncode))
    result = json.loads(lines[-1])
    if trace:
        path = os.path.join(ROOT, ".bench_out",
                            "trace-%s-seed%d.json" % (workload, seed))
        with open(path) as f:
            result["other"] = json.load(f)["otherData"]
    return result


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"),
            "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()
    seconds = spec["run_seconds"]

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print("rev %s, build %s, nproc %d (%s), load %.2f %.2f %.2f, %g s per run"
          % ((git_rev(), build_type(), os.cpu_count(), platform.machine()) +
             os.getloadavg() + (seconds,)), flush=True)
    for workload in [w["name"] for w in spec["workloads"]]:
        plain, traced = [], []
        for seed in SEEDS:
            plain.append(run_once(workload, seed, seconds, 0))
            if args.traced:
                traced.append(run_once(workload, seed, seconds, 1))
        print("\n%s (seeds %d..%d): correct %s, failed share %s" %
              (workload, SEEDS[0], SEEDS[-1],
               all(r["correct"] for r in plain + traced),
               sorted({r["failed"] / r["attempted"] for r in plain})))
        print("  %-26s %12s %12s %12s %8s %6s" %
              ("metric", "median", "q1", "q3", "spread", "bound"))
        for name in sorted(plain[0]["metrics"]):
            s = summarize([r["metrics"][name]["value"] for r in plain])
            if name == "setup_s":  # one cold set-up a run: only its median
                flag = "  (spread not gated)"
            elif s["spread"] > bounds[name] / 3:
                flag = "  <-- unsteady"
            else:
                flag = ""
            print("  %-26s %12.6g %12.6g %12.6g %8.3f %6.2f%s" %
                  (name, s["median"], s["q1"], s["q3"], s["spread"],
                   bounds[name], flag))
            print("      " + " ".join("%.4g" % v for v in s["values"]))
        if traced:
            print("  per-layer medians (traced runs):")
            for name in sorted(traced[0]["metrics"]):
                s = summarize([r["metrics"][name]["value"] for r in traced])
                print("    %-34s %14.6g %s" %
                      (name, s["median"], traced[0]["metrics"][name]["unit"]))
            overhead = summarize([t["other"]["e2e.e2e_p50_ms"]["value"] -
                                  p["metrics"]["e2e_p50_ms"]["value"]
                                  for p, t in zip(plain, traced)])
            print("  tracing overhead on e2e_p50_ms: median %.4g ms "
                  "(q1 %.4g, q3 %.4g)" %
                  (overhead["median"], overhead["q1"], overhead["q3"]))
    print("\nload after: %.2f %.2f %.2f" % os.getloadavg())
    return 0

if __name__ == "__main__":
    sys.exit(main())
