#!/usr/bin/env python3
"""MISTIQUE benchmark: builds the driver, runs one workload, checks its
answers and prints the metrics.

    python3 perfbench/run.py --workload diag_cold --seed 1 --seconds 10 \
        --trace 0

Run from the root of a checkout. The driver is built from ../src with
CMake into $CARGO_TARGET_DIR (default .bench_build) on first use. The last
line of standard output is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
with the end-to-end metrics (--trace 0) or the per-layer metrics of a
traced run (--trace 1). Every line before it is a human-readable summary.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave nothing behind in the checkout

import metrics  # noqa: E402

WORKLOADS = ("diag_cold", "serve_routed", "ingest_serve")
FAULT_VARS = ("MISTIQUE_FAULT_POINT", "MISTIQUE_FAULT_MODE",
              "MISTIQUE_FAULT_NTH")
DRIVER_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(root):
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(root, target, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench_driver",
         "-j", str(os.cpu_count() or 1)],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return build_dir


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for var in FAULT_VARS:
        if var in os.environ:
            log("run.py: refusing to start with %s set: fault injection would "
                "crash or heal the program under measurement" % var)
            return 2

    root = os.path.dirname(HERE)
    try:
        build_dir = build(root)
    except (subprocess.CalledProcessError, OSError) as e:
        log("run.py: build failed: %s" % e)
        return 1

    tag = "%s-%d" % (args.workload, os.getpid())
    work_dir = os.path.join(build_dir, "work", tag)
    out_path = os.path.join(build_dir, "work", tag + ".json")
    cmd = [os.path.join(build_dir, "perfbench_driver"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out_path, "--work-dir", work_dir]
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=DRIVER_TIMEOUT_S)
        if proc.returncode != 0:
            log("run.py: driver exited with %d" % proc.returncode)
            return 1
        with open(out_path) as f:
            raw = json.load(f)
    except subprocess.TimeoutExpired:
        log("run.py: driver timed out")
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if os.path.exists(out_path):
            os.remove(out_path)

    timed = raw["plain_pass"] if args.trace else raw["timed"]
    failed = timed["errors"] + timed["wrong"]
    correct = timed["wrong"] == 0
    if args.trace:
        values = metrics.per_layer(raw)
        table = metrics.PER_LAYER
    else:
        values = metrics.end_to_end(raw)
        table = metrics.END_TO_END
        n = len(raw["timed"]["samples"])
        per_cat = metrics.split_by_category(raw["timed"]["samples"])
        print("samples: %d timed ops (p99 holds from 1000), %s" % (
            n, ", ".join("%s=%d" % (c, len(v)) for c, v in per_cat.items())))
        # Each category's p50 sits in its anchor shape (README); this line
        # shows every shape's median, with its sample count.
        shapes = metrics.split_by_shape(raw["timed"]["samples"], raw["kinds"])
        print("shape_p50_ms: " + ", ".join(
            "%s=%.4g(%d)" % (name, metrics.median(v) * 1e3, len(v))
            for name, v in shapes.items()))
    counts = dict(raw["counts"])
    counts["storage_ratio"] = metrics.storage_ratio(raw["footprint_bytes"],
                                                    raw["live"])
    print("counts: " + json.dumps(counts, sort_keys=True))
    print("info: " + json.dumps(raw["info"], sort_keys=True))
    missing = [name for name, _u, _b in table if values.get(name) is None]
    if missing:
        log("run.py: no value for %s" % ", ".join(missing))
        return 1
    for name, unit, better in table:
        print("%-30s %14.6g %-8s (%s is better)" % (name, values[name], unit,
                                                    better))
    print(json.dumps({
        "correct": correct,
        "attempted": timed["attempted"],
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit, _better in table},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
