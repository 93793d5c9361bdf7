#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 perfbench/run.py --workload serve_zipf --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --list-metrics

Run from the root of a checkout. The script builds the benchmark
program (perfbench/perfbench.cc plus the library under src/) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs it, checks
that every answer matched the brute-force reference, and prints a table of
every metric with its unit and clock, then one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1 runs the
workload twice in fresh processes with the same seed, untraced and traced,
and reports the per-layer metrics, including the tracing overhead; the
Chrome trace and the per-layer self-time summary land next to the run record
under $CARGO_TARGET_DIR/perfbench-results/. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import time

WORKLOADS = ("serve_zipf", "serve_uniform", "cold_disk")
SETUPS_PER_RUN = 3
RUN_BUDGET_S = 170  # Every perfbench process of one run, build excluded.

# Which clock each metric is read from: "wall" (the benchmark's
# steady_clock around calls into the library), "simulated" (the library's
# DiskModel pricing of counted block accesses), or "count"/"size" (public
# counters and structure sizes).
CLOCKS = {
    "setup_s": "wall",
    "query_p50_ms": "wall",
    "query_p99_ms": "wall",
    "throughput_qps": "wall",
    "sim_disk_ms_per_query": "simulated",
    "answered_frac": "count",
    "space_amp": "size",
    "peak_rss_mb": "size",
    "server_loop.submit_us.p50": "wall",
    "server_loop.queue_wait_ms.p50": "wall",
    "server_loop.queue_wait_ms.p99": "wall",
    "server_loop.shed": "count",
    "result_cache.hit_ratio": "count",
    "result_cache.near_hit_ratio": "count",
    "result_cache.lookups": "count",
    "result_cache.hit_us.p50": "wall",
    "result_cache.admitted_per_1k": "count",
    "result_cache.evictions_per_1k": "count",
    "sharded_database.miss_us.p50": "wall",
    "sharded_database.miss_us.p99": "wall",
    "sharded_database.legs_per_query": "count",
    "sharded_database.pruned_per_query": "count",
    "sharded_database.overhead_us.p50": "wall",
    "planner.plan_us.p50": "wall",
    "planner.pick.iio": "count",
    "planner.pick.rtree": "count",
    "planner.pick.ir2": "count",
    "planner.pick.mir2": "count",
    "planner.pick.kctree": "count",
    "planner.predicted_over_observed.p50": "simulated",
    "leg.us.p50": "wall",
    "leg.us.p99": "wall",
    "leg.nodes_visited": "count",
    "leg.entries_pruned": "count",
    "leg.objects_loaded": "count",
    "leg.false_positives": "count",
    "leg.verify_yield": "count",
    "storage.demand_random_reads": "count",
    "storage.demand_seq_reads": "count",
    "storage.physical_reads": "count",
    "storage.pool_hit_ratio": "count",
    "storage.pool_evictions": "count",
    "storage.drop_caches_us.p50": "wall",
    "storage.build_s": "wall",
    "storage.save_s": "wall",
    "storage.open_s": "wall",
    "storage.bytes.objects": "size",
    "storage.bytes.rtree": "size",
    "storage.bytes.ir2": "size",
    "storage.bytes.mir2": "size",
    "storage.bytes.kctree": "size",
    "storage.bytes.iio": "size",
    "trace.overhead_frac": "wall",
}

# Per-layer metrics a workload does not exercise by design; they read 0
# there and the table marks them "n/a".
SERVING_PREFIXES = ("server_loop.", "result_cache.", "sharded_database.")
NOT_EXERCISED = {
    "serve_zipf": ("storage.save_s", "storage.open_s",
                   "storage.drop_caches_us.p50"),
    "serve_uniform": ("storage.save_s", "storage.open_s",
                      "storage.drop_caches_us.p50"),
    "cold_disk": SERVING_PREFIXES,
}

# Evidence each layer left in the traced run: span names that must have
# been recorded, or per-layer counts that must be non-zero.
LAYER_EVIDENCE = {
    "serving.server_loop": {
        "spans": ["server_loop.request", "server_loop.submit"],
        "counts": ["latency"]},
    "serving.result_cache": {
        "spans": ["result_cache.enable"],
        "counts": ["cache_lookups"]},
    "serving.sharded_database": {
        "spans": ["sharded_database.build", "sharded_database.query",
                  "sharded_database.explain"],
        "counts": ["replay.tier_misses"]},
    "core.planner": {"spans": ["planner.plan"], "counts": ["planner.plans"]},
    "core.query": {"spans": [], "counts": ["leg.count"]},
    "storage": {"spans": [], "counts": []},
    "obs": {"spans": [], "counts": ["spans", "trace_events"]},
}
COLD_LAYER_EVIDENCE = {
    "core.planner": {"spans": ["planner.plan"], "counts": ["planner.plans"]},
    "core.query": {"spans": ["database.query"], "counts": ["leg.count"]},
    "storage": {"spans": ["database.build", "database.save", "database.open",
                          "storage.drop_caches"], "counts": []},
    "obs": {"spans": [], "counts": ["spans", "trace_events"]},
}


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def load_manifest(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    for entry in manifest["end_to_end"] + manifest["per_layer"]:
        if entry["name"] not in CLOCKS:
            fail("metric %s has no clock in run.py" % entry["name"])
    return manifest


def build_root(root):
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return target if os.path.isabs(target) else os.path.join(root, target)


def build(root, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            fail("configuring the benchmark failed", 3)
    cmd = ["cmake", "--build", build_dir, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                      env=env).returncode:
        fail("building the benchmark failed", 3)
    binary = os.path.join(build_dir, "perfbench")
    if not os.path.exists(binary):
        fail("the build produced no perfbench binary", 3)
    return binary


def run_child(binary, args, out_root, deadline, setups, traced,
              trace_out=None):
    data_dir = os.path.join(out_root, "perfbench-data", str(os.getpid()))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--setups", str(setups),
           "--data-dir", data_dir]
    if traced:
        cmd.append("--traced")
    if trace_out:
        cmd += ["--trace-out", trace_out]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=max(1, deadline - time.monotonic()),
                              text=True)
    except subprocess.TimeoutExpired:
        fail("workload %s timed out" % args.workload)
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    if proc.returncode != 0:
        fail("workload %s exited with %d" % (args.workload, proc.returncode))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("workload %s printed nothing" % args.workload)
    return json.loads(lines[-1])


def source_digest(root):
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def host_fingerprint(root, child):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha = None
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        sha = proc.stdout.strip() or None
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "compiler": child.get("compiler"),
        "build_type": child.get("build_type"),
        "git_sha": sha,
        "source_digest": source_digest(root),
        "kernel": platform.release(),
    }


def check_layers(workload, traced):
    """Names every layer of the map that left no spans or counts."""
    evidence = COLD_LAYER_EVIDENCE if workload == "cold_disk" else LAYER_EVIDENCE
    missing = []
    layers, samples = traced["layers"], traced["samples"]
    for layer, want in evidence.items():
        for span in want["spans"]:
            if layers.get(span, {}).get("count", 0) == 0:
                missing.append("%s (span %s)" % (layer, span))
        for count in want["counts"]:
            if samples.get(count, 0) <= 0:
                missing.append("%s (count %s)" % (layer, count))
    if traced["metrics"].get("storage.physical_reads", 0) <= 0:
        missing.append("storage (count storage.physical_reads)")
    return missing


def not_exercised(workload, name):
    return any(name == p or (p.endswith(".") and name.startswith(p))
               for p in NOT_EXERCISED[workload])


def print_table(workload, entries, values):
    print("%-38s %16s  %-7s %s" % ("metric", "value", "unit", "clock"))
    for entry in entries:
        name = entry["name"]
        shown = ("n/a" if not_exercised(workload, name)
                 else "%.6g" % values[name])
        print("%-38s %16s  %-7s %s" % (name, shown, entry["unit"],
                                       CLOCKS[name]))


def list_metrics(manifest):
    for group in ("end_to_end", "per_layer"):
        print("[%s]" % group)
        for entry in manifest[group]:
            print("  %-38s %-7s %-9s better=%s%s" % (
                entry["name"], entry["unit"], CLOCKS[entry["name"]],
                entry["better"],
                " bound=%g" % entry["bound"] if "bound" in entry else ""))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list-metrics", action="store_true",
                        help="print every metric with unit and clock")
    args = parser.parse_args()

    root = os.getcwd()
    for needed in ("BENCHMARK.json", "perfbench/CMakeLists.txt",
                   "src/CMakeLists.txt"):
        if not os.path.exists(os.path.join(root, needed)):
            fail("run from the root of a full checkout: %s is missing" % needed,
                 2)
    manifest = load_manifest(root)
    if args.list_metrics:
        list_metrics(manifest)
        return
    if args.workload is None:
        fail("--workload is required", 2)
    if args.seconds < 1:
        fail("--seconds must be at least 1", 2)

    out_root = build_root(root)
    binary = build(root, os.path.join(out_root, "perfbench"))
    results_dir = os.path.join(out_root, "perfbench-results")
    os.makedirs(results_dir, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)

    deadline = time.monotonic() + RUN_BUDGET_S
    if args.trace == 0:
        children = [run_child(binary, args, out_root, deadline, SETUPS_PER_RUN,
                              False)]
        entries = manifest["end_to_end"]
        values = dict(children[0]["metrics"])
    else:
        trace_path = os.path.join(results_dir, stem + ".trace.json")
        baseline = run_child(binary, args, out_root, deadline, 1, False)
        traced = run_child(binary, args, out_root, deadline, 1, True,
                           trace_path)
        children = [baseline, traced]
        entries = manifest["per_layer"]
        values = dict(traced["metrics"])
        base_qps = baseline["metrics"]["throughput_qps"]
        values["trace.overhead_frac"] = (
            1.0 - traced["metrics"]["throughput_qps"] / base_qps
            if base_qps > 0 else 0.0)
        missing = check_layers(args.workload, traced)
        if missing:
            fail("layers left no spans or counts: " + ", ".join(missing))

    absent = [e["name"] for e in entries
              if not isinstance(values.get(e["name"]), (int, float))
              or not math.isfinite(values[e["name"]])]
    if absent:
        fail("perfbench reported no value for: " + ", ".join(absent))

    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    # Every workload is chosen so that no request fails: a shed request, an
    # error and a wrong answer each make the run incorrect.
    correct = failed == 0 and all(
        c["mismatches"] == 0 and c["errors"] == 0 and c["shed"] == 0
        for c in children)
    metrics = {e["name"]: {"value": values[e["name"]], "unit": e["unit"]}
               for e in entries}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_fingerprint(root, children[-1]),
        "runs": {"processes": len(children),
                 "setups_per_process": [c["samples"]["setups"]
                                        for c in children],
                 "workers": children[-1]["workers"],
                 "clients": children[-1]["clients"]},
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: dict(m, clock=CLOCKS[name],
                               exercised=not not_exercised(args.workload,
                                                           name))
                    for name, m in metrics.items()},
        "children": children,
    }
    if args.trace:
        record["trace_file"] = trace_path
        record["layer_self_time_ms"] = traced["layers"]
    record_path = os.path.join(results_dir, stem + ".json")
    with open(record_path, "w") as f:
        json.dump(record, f, indent=1)

    print_table(args.workload, entries, values)
    samples = children[-1]["samples"]
    print("samples: %d latencies, %d beyond p99, %d set-ups; record: %s" % (
        samples["latency"], samples["beyond_p99"], samples["setups"],
        os.path.relpath(record_path, root)))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
