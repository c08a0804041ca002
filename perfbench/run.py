#!/usr/bin/env python3
"""End-to-end benchmark of the AGL pipeline, its multi-process twin and the
serving service.

    python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1

Run from the root of a checkout. It builds perfbench/ (and through it the
repository's libraries) into .bench_build/ when the build is missing or
stale, generates the seeded input tables in a private scratch directory
under .bench_scratch/, runs the workload for T seconds, and prints one JSON
object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end set of BENCHMARK.json, with
--trace 1 the per-layer set; a traced run also writes a Chrome trace-event
file to .bench_out/. BENCHMARK.json is the one list of metric names and
units: the binary prints what the workload measured, and this script
completes it to the declared set (a count, byte or share figure of a layer
the workload does not run reads 0) and refuses a declared timing that was
not measured, a unit that differs, or an undeclared name. The exit code is 0 whenever the run reached its end
(failed operations and failed checks are reported in the object), and
nonzero when it could not: no sources to build, a build error, or a
benchmark process that died.
"""

import argparse
import fcntl
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
SCRATCH_DIR = os.path.join(ROOT, ".bench_scratch")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "agl_perfbench")
RUN_LIMIT_S = 170  # a run (without the build) ends well inside 180 s


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the benchmark binary; returns an error or None.

    A file lock serializes concurrent runs in one checkout; the build tree
    lives inside the checkout, so separate checkouts never share it."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        return "no repository sources next to perfbench/ (nothing to build)"
    if shutil.which("cmake") is None:
        return "cmake not found"
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    log_path = os.path.join(BUILD_DIR, "build.log")
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                      "--target", "agl_perfbench"])
        with open(log_path, "w") as out:
            for cmd in steps:
                rc = subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT,
                                     stdin=subprocess.DEVNULL)
                if rc != 0:
                    with open(log_path) as f:
                        sys.stderr.write("".join(f.readlines()[-40:]))
                    return "build step failed: " + " ".join(cmd)
    return None


def reap_group(pgid):
    """Kills whatever is left of the benchmark's process group and waits
    until the group is empty (the driver's workers live in it too)."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return True
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return True
        time.sleep(0.05)
    return False


def run_child(cmd, timeout):
    """Runs `cmd` in its own session; returns (returncode, stdout)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=None,
                            stdin=subprocess.DEVNULL, start_new_session=True,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        log("timed out after %.0f s: %s" % (timeout, " ".join(cmd)))
        reap_group(proc.pid)
        proc.communicate()
        return None, ""
    if not reap_group(proc.pid):
        log("processes of the run are still alive after SIGKILL")
        return None, out
    return proc.returncode, out


TIME_UNITS = {"s", "ms", "us"}


def declared_metrics(trace):
    """(name, unit) of every metric BENCHMARK.json declares for the mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def complete(measured, declared):
    """The declared metrics filled from `measured`; returns (metrics, error)."""
    names = {name for name, _ in declared}
    extra = sorted(set(measured) - names)
    if extra:
        return None, "undeclared metrics: %s" % extra
    metrics = {}
    for name, unit in declared:
        m = measured.get(name)
        if m is None:
            if unit in TIME_UNITS:
                return None, "timing %s was not measured" % name
            m = {"value": 0, "unit": unit}
        elif m["unit"] != unit:
            return None, "%s measured in %s, declared %s" % (
                name, m["unit"], unit)
        metrics[name] = m
    return metrics, None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["pipeline_threads", "pipeline_processes",
                                 "serve_mixed"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")

    if not os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")):
        log("no BENCHMARK.json at the root of the checkout")
        return 1
    error = build()
    if error:
        log(error)
        return 1

    started = time.monotonic()
    os.makedirs(SCRATCH_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="%s-%d-" % (args.workload, args.seed),
                               dir=SCRATCH_DIR)
    try:
        common = ["--workload", args.workload, "--seed", str(args.seed),
                  "--dir", scratch]
        rc, _ = run_child([BINARY, "gen"] + common, 60)
        if rc != 0:
            log("input generation failed")
            return 1
        cmd = [BINARY, "run"] + common + ["--seconds", repr(args.seconds),
                                          "--trace", str(args.trace)]
        if args.trace:
            os.makedirs(OUT_DIR, exist_ok=True)
            cmd += ["--trace-out", os.path.join(
                OUT_DIR, "trace-%s-seed%d.json" % (args.workload, args.seed))]
        rc, out = run_child(cmd, RUN_LIMIT_S - (time.monotonic() - started))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = [line for line in out.splitlines() if line.strip()]
    if rc != 0 or not lines:
        log("the benchmark process did not reach its end (exit %s)" % rc)
        return 1
    for line in lines[:-1]:
        print(line)
    printed = json.loads(lines[-1])
    metrics, error = complete(
        printed["per_layer" if args.trace else "end_to_end"],
        declared_metrics(args.trace))
    if error:
        log(error)
        return 1
    result = {key: printed[key] for key in ("correct", "attempted", "failed")}
    result["metrics"] = metrics
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
