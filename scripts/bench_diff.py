#!/usr/bin/env python3
"""Diff a fresh bench JSON against a committed baseline.

check.sh runs the benches with --smoke, so the fresh numbers come from a
smaller dataset/query count than the checked-in full-size baselines: raw
scale-dependent figures (qps, seconds, ms, counts) are NOT comparable and
are only tallied. What must still agree across scales:

  * booleans — acceptance verdicts (auto_beats_all_fixed, decode_2x,
    determinism_checked, no_repeat_sim_qps_at_least_0_9x, ...) may not
    flip relative to the baseline;
  * mismatch counters — any *mismatch* field that is 0 in the baseline
    (golden_mismatches, profile_mismatches) must stay 0;
  * bounded ratios — rates and shares in [0, 1] that are properties of
    the workload or the planner (match_rate, hot_shard_share, ...) must
    stay within --atol of the baseline. Cache hit rates do NOT qualify:
    they track working-set size, which --smoke shrinks.

Elements of result lists are matched by their identity fields (dataset,
tree, kernel, threads, ...); baseline entries missing from the smoke run
(e.g. datasets the smoke skips) are reported but not failed.

Usage:
  scripts/bench_diff.py BASELINE.json FRESH.json [--atol=0.25]
  scripts/bench_diff.py --all BUILD_DIR [--atol=0.25]
      # compares every repo-root BENCH_*.json with a fresh counterpart
      # in BUILD_DIR; baselines with no fresh file are skipped.
"""

import glob
import json
import os
import re
import sys

# Fields whose values identify an element of a result list.
ID_KEYS = ("bench", "dataset", "tree", "kernel", "algorithm", "engine",
           "workload", "shards", "shard", "threads", "regime", "backend",
           "cache")
# Baseline-zero integers that must stay zero at any scale.
ZERO_PIN = re.compile(r"mismatch|read_errors", re.IGNORECASE)
# Scale-invariant ratios in [0, 1], compared with --atol.
RATIO = re.compile(r"match_rate|share|fraction", re.IGNORECASE)
# Run descriptors that differ by design between smoke and full runs.
DESCRIPTOR = re.compile(r"^smoke$", re.IGNORECASE)


def identity(obj):
    """Identity tuple for a dict inside a result list."""
    return tuple((k, obj[k]) for k in ID_KEYS if k in obj)


class Diff:
    def __init__(self, atol):
        self.atol = atol
        self.violations = []
        self.checked = 0
        self.skipped_scale = 0
        self.missing = []

    def fail(self, path, message):
        self.violations.append(f"{path}: {message}")

    def compare(self, path, base, fresh):
        if isinstance(base, dict) and isinstance(fresh, dict):
            for key, base_value in base.items():
                if key not in fresh:
                    self.missing.append(f"{path}.{key}")
                    continue
                self.compare(f"{path}.{key}", base_value, fresh[key])
            return
        if isinstance(base, list) and isinstance(fresh, list):
            if base and isinstance(base[0], dict):
                fresh_by_id = {identity(f): f
                               for f in fresh if isinstance(f, dict)}
                for element in base:
                    eid = identity(element)
                    label = ",".join(f"{k}={v}" for k, v in eid) or "?"
                    if eid in fresh_by_id:
                        self.compare(f"{path}[{label}]", element,
                                     fresh_by_id[eid])
                    else:
                        self.missing.append(f"{path}[{label}]")
            return
        self.leaf(path, base, fresh)

    def leaf(self, path, base, fresh):
        key = path.rsplit(".", 1)[-1]
        if DESCRIPTOR.match(key):
            self.skipped_scale += 1
        elif isinstance(base, bool):
            self.checked += 1
            if fresh is not base:
                self.fail(path, f"baseline {base} but fresh run says {fresh}")
        elif isinstance(base, (int, float)) and ZERO_PIN.search(key):
            if base == 0:
                self.checked += 1
                if fresh != 0:
                    self.fail(path, f"baseline is clean (0) but fresh run "
                                    f"reports {fresh}")
            else:
                self.skipped_scale += 1
        elif isinstance(base, (int, float)) and RATIO.search(key):
            self.checked += 1
            if abs(float(fresh) - float(base)) > self.atol:
                self.fail(path, f"baseline {base} vs fresh {fresh} "
                                f"(atol {self.atol})")
        elif isinstance(base, str):
            # Identity strings (bench/dataset names) already matched above;
            # anything else (dispatch_level, algo) is informational.
            self.skipped_scale += 1
        else:
            self.skipped_scale += 1  # Raw qps/ms/counts: not comparable.


def diff_pair(baseline_path, fresh_path, atol):
    with open(baseline_path) as f:
        base = json.load(f)
    with open(fresh_path) as f:
        fresh = json.load(f)
    name = os.path.basename(baseline_path)
    if base.get("bench") != fresh.get("bench"):
        print(f"{name}: FAIL — bench id {base.get('bench')!r} vs "
              f"{fresh.get('bench')!r}")
        return False
    diff = Diff(atol)
    diff.compare(name, base, fresh)
    for violation in diff.violations:
        print(f"  VIOLATION {violation}")
    summary = (f"{diff.checked} invariants checked, "
               f"{diff.skipped_scale} scale-dependent fields ignored")
    if diff.missing:
        summary += f", {len(diff.missing)} baseline entries absent from smoke"
    if diff.violations:
        print(f"{name}: FAIL — {len(diff.violations)} violations ({summary})")
        return False
    print(f"{name}: OK — {summary}")
    return True


def main(argv):
    atol = 0.25
    args = []
    for arg in argv[1:]:
        if arg.startswith("--atol="):
            atol = float(arg.split("=", 1)[1])
        else:
            args.append(arg)

    pairs = []
    if args and args[0] == "--all":
        if len(args) != 2:
            print(__doc__)
            return 2
        build_dir = args[1]
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        for baseline in sorted(glob.glob(os.path.join(root, "BENCH_*.json"))):
            fresh = os.path.join(build_dir, os.path.basename(baseline))
            if os.path.exists(fresh):
                pairs.append((baseline, fresh))
            else:
                print(f"{os.path.basename(baseline)}: no fresh run in "
                      f"{build_dir}, skipped")
    elif len(args) == 2:
        pairs.append((args[0], args[1]))
    else:
        print(__doc__)
        return 2

    ok = True
    for baseline, fresh in pairs:
        ok = diff_pair(baseline, fresh, atol) and ok
    if not pairs:
        print("bench_diff: nothing to compare")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
