#!/usr/bin/env bash
# CI-style gate: build + test in Release, smoke-run the cold and warm
# throughput benches, then rebuild the concurrency-sensitive suites under
# ThreadSanitizer (and, optionally, the cache/traversal suites under
# AddressSanitizer). All configurations must pass for the tree to be
# considered healthy.
#
#   scripts/check.sh          # Release ctest + bench smoke + TSan suites
#   IR2_CHECK_FULL=1 scripts/check.sh   # run the WHOLE suite under TSan too
#   IR2_CHECK_ASAN=1 scripts/check.sh   # also run the ASan+UBSan stage
set -euo pipefail
cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 2)

# The anchored ctest -R regex that selects exactly the named suites, so a
# sanitizer stage names its suites once, in one array, for both the build
# targets and the test selection.
suite_regex() {
  local IFS='|'
  echo "^($*)\$"
}

echo "== Release build + full test suite =="
cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build -j "$jobs"
ctest --test-dir build --output-on-failure

echo
echo "== Bench smoke: cold + warm throughput =="
# One short run per regime (see docs/performance.md): cold exercises the
# per-query determinism check, warm exercises the NodeCache + hot pools.
# JSON lands in build/ so the checked-in full-size results are untouched.
(cd build && ./bench/bench_throughput --regime=cold --smoke)
(cd build && ./bench/bench_throughput --regime=warm --smoke)

echo
echo "== Bench smoke: cold-path I/O engine =="
# Baseline vs prefetch+locality on the same dataset and workload; the
# binary itself flags any engine that falls below the 1.5x simulated
# disk-time target (see docs/performance.md).
(cd build && ./bench/bench_cold_latency --smoke)

echo
echo "== Bench smoke: cost-based planner =="
# Auto vs every fixed algorithm vs the per-query oracle on the skewed
# workloads (see docs/planner.md); the JSON must parse, and an auto-mode
# EXPLAIN must render the planner's candidate table.
(cd build && ./bench/bench_planner --smoke)
if command -v python3 > /dev/null 2>&1; then
  python3 -m json.tool build/BENCH_planner.json > /dev/null
  echo "planner bench json: valid"
  python3 - <<'PYEOF'
import json
for d in json.load(open("build/BENCH_planner.json"))["datasets"]:
    assert d["auto_beats_all_fixed"], d["dataset"]
    assert d["auto_vs_oracle"] <= 1.15, (d["dataset"], d["auto_vs_oracle"])
    kc = d["kc_ablation"]
    assert kc["kc_wins_hot_slice"], (d["dataset"], kc)
    assert kc["kc_no_rest_regression"], (d["dataset"], kc)
    serving = d["leave_one_out"]["serving_set"]
    assert serving["within_15pct_of_oracle"], (d["dataset"], serving)
print("planner bench acceptance: auto beats fixed, KC-Tree ablation wins"
      " hot slice, no rest regression, serving set within 15% of oracle")
PYEOF
fi
(cd build && ./examples/explain_query --algo=auto) | grep -q 'Planner' \
  && echo "auto EXPLAIN: planner section present"

echo
echo "== KC-Tree: goldens + bitmap/signature agreement, both SIMD tiers =="
# The KC-Tree's exact hot-word bitmaps and cold-tail signature ride the
# same scalar containment loop as IR2 signatures, and its candidates go
# through the dispatched FindToken verification; run the suite
# (build/save/open round-trips, bitmap-vs-brute-force fuzz, top-k pinned
# to the IR2/IIO answers) with dispatch on and forced scalar, and hold the
# cold-regime KC disk-count goldens on both tiers too (see
# docs/performance.md).
./build/tests/kc_tree_test > /dev/null && echo "kc_tree_test: OK"
IR2_DISABLE_SIMD=1 ./build/tests/kc_tree_test > /dev/null   && echo "kc_tree_test (scalar forced): OK"
./build/tests/cold_regime_regression_test   --gtest_filter='*KcTree*' > /dev/null   && echo "cold-regime KC goldens: OK"
IR2_DISABLE_SIMD=1 ./build/tests/cold_regime_regression_test   --gtest_filter='*KcTree*' > /dev/null   && echo "cold-regime KC goldens (scalar forced): OK"

echo
echo "== SIMD kernels: dispatch smoke + scalar-tier golden diff =="
# bench_kernels reports each kernel scalar-vs-dispatched and evaluates
# the >=2x acceptance in its JSON (see docs/performance.md). The golden
# diff is the regression binaries re-run with dispatch forced to the
# scalar tier: the embedded cold-regime disk counts must pass untouched,
# which pins that the kernels change where cycles go and nothing else.
(cd build && ./bench/bench_kernels --smoke)
IR2_DISABLE_SIMD=1 ./build/tests/simd_test > /dev/null \
  && echo "simd_test (scalar forced): OK"
# Candidate verification (FindToken per keyword) against the tokenizer's
# own token sets, starting from the scalar tier.
IR2_DISABLE_SIMD=1 ./build/tests/tokenizer_test > /dev/null \
  && echo "tokenizer_test (scalar forced): OK"
IR2_DISABLE_SIMD=1 ./build/tests/cold_regime_regression_test > /dev/null \
  && echo "cold-regime goldens (scalar forced): OK"

echo
echo "== Observability: EXPLAIN + trace + exporter goldens =="
# One traced query end to end (see docs/observability.md): the EXPLAIN
# report renders, the Chrome trace and the metrics dump are written, the
# trace must parse as JSON, and the exporter goldens are re-diffed.
(cd build && ./examples/explain_query --algo=ir2 \
  --trace=explain_trace.json --metrics=explain_metrics.prom > /dev/null)
if command -v python3 > /dev/null 2>&1; then
  python3 -m json.tool build/explain_trace.json > /dev/null
  echo "explain trace: valid JSON ($(wc -c < build/explain_trace.json) bytes)"
else
  echo "explain trace: python3 unavailable, JSON validation skipped"
fi
grep -q '^ir2_queries_total [1-9]' build/explain_metrics.prom
# Byte-exact exporter goldens (Prometheus text, JSON snapshot, Chrome
# trace events) live in obs_test.
./build/tests/obs_test --gtest_filter='*Golden*' > /dev/null && \
  echo "exporter goldens: OK"
# A traced throughput smoke must produce a Perfetto-loadable trace.
(cd build && ./bench/bench_throughput --regime=warm --smoke \
  --trace=throughput_trace.json > /dev/null)
if command -v python3 > /dev/null 2>&1; then
  python3 -m json.tool build/throughput_trace.json > /dev/null
  echo "throughput trace: valid JSON"
fi

echo
echo "== Serving tier: sharded scatter-gather smoke + golden diff =="
# bench_shards builds 1/2/4-shard databases over one dataset, serves a
# uniform and a Zipf hot-region workload through the ServerLoop, and
# re-checks that every sharded answer is identical to the single database
# (see docs/serving.md). Its JSON embeds the acceptance verdicts; the
# golden-mismatch count must be zero.
(cd build && ./bench/bench_shards --smoke)
if command -v python3 > /dev/null 2>&1; then
  python3 -m json.tool build/BENCH_shards.json > /dev/null
  python3 - <<'EOF'
import json
acceptance = json.load(open("build/BENCH_shards.json"))["acceptance"]
assert acceptance["golden_mismatches"] == 0, acceptance
assert acceptance["pruned_fanouts_on_skewed"], acceptance
print("shard bench acceptance: 0 golden mismatches, pruning active")
EOF
fi

echo
echo "== Semantic result cache: ablation smoke + live /cachez =="
# bench_cache replays Zipf-hot template traffic through a sharded tier with
# the cache off and then on: every answer — cached or planned — is
# re-checked against an uncached single database, and the JSON embeds the
# >=1.5x simulated-tier speedup verdict (docs/performance.md, result-cache
# chapter). A non-repeating row prices what the cache costs when nothing
# repeats: the cache-on tier must keep >=0.9x the cache-off throughput.
(cd build && ./bench/bench_cache --smoke)
if command -v python3 > /dev/null 2>&1; then
  python3 -m json.tool build/BENCH_cache.json > /dev/null
  python3 - <<'EOF'
import json
acceptance = json.load(open("build/BENCH_cache.json"))["acceptance"]
assert acceptance["golden_mismatches"] == 0, acceptance
assert acceptance["speedup_at_least_1_5x"], acceptance
assert acceptance["no_repeat_sim_qps_at_least_0_9x"], acceptance
print("cache bench acceptance: 0 mismatches, >=1.5x tier speedup, "
      ">=0.9x on non-repeating traffic")
EOF
fi
# Live hit/miss smoke: a short cached serve run repeats a small query pool,
# so the cache must take hits, and /cachez must render the keyword-set
# table while the server is up.
rm -f build/serve_cache.log
(cd build && ./examples/serve --cache --duration-s=6 --load-qps=120 \
  --shards=2 > serve_cache.log 2>&1) &
serve_pid=$!
serve_url=""
for _ in $(seq 1 200); do
  serve_url=$(sed -n 's#.*admin server on \(http://[0-9.:]*\).*#\1#p' \
    build/serve_cache.log 2>/dev/null | head -n 1)
  [ -n "$serve_url" ] && break
  sleep 0.1
done
if [ -z "$serve_url" ]; then
  echo "cached serve run never came up:"
  cat build/serve_cache.log
  exit 1
fi
sleep 2  # Let the self-load revisit the pool so hits exist.
curl -fsS "$serve_url/cachez" > build/serve_cachez.json
grep -q '"keyword_sets"' build/serve_cachez.json \
  && echo "admin /cachez: keyword-set table present"
if command -v python3 > /dev/null 2>&1; then
  python3 -m json.tool build/serve_cachez.json > /dev/null \
    && echo "admin /cachez: valid JSON"
fi
# Each shard row names the structures the shard built (the serving set);
# a missing list fails the check.
curl -fsS "$serve_url/statusz" > build/serve_statusz.json
grep -q '"structures":\["kctree","iio"\]' build/serve_statusz.json
echo "admin /statusz: shard structures listed"
wait "$serve_pid"
grep -Eq 'result cache: [1-9][0-9]* hits' build/serve_cache.log \
  && echo "cached serve run: hits recorded"

echo
echo "== Bench baselines: smoke runs vs committed full-size JSON =="
# The smoke JSONs written by the stages above against the checked-in
# full-size baselines: scale-dependent numbers are ignored, but acceptance
# booleans, mismatch counters, and workload-structural ratios must agree
# (scripts/bench_diff.py).
if command -v python3 > /dev/null 2>&1; then
  python3 scripts/bench_diff.py --all build
else
  echo "bench_diff: python3 unavailable, skipped"
fi

echo
echo "== Admin server: live /metrics, /healthz, /statusz mid-bench =="
# bench_throughput --admin-port=0 starts the embedded admin endpoint for
# the run (and holds it --admin-hold-ms after), printing the kernel-chosen
# port; curl the endpoints while it is up — /healthz answers, /metrics
# speaks Prometheus text, /statusz parses as JSON (docs/observability.md,
# admin chapter).
rm -f build/admin_check.log
(cd build && ./bench/bench_throughput --regime=warm --smoke \
  --trace=admin_trace.json --admin-port=0 --admin-hold-ms=8000 \
  > admin_check.log 2>&1) &
bench_pid=$!
admin_url=""
for _ in $(seq 1 100); do
  admin_url=$(sed -n 's#.*admin server on \(http://[0-9.:]*\).*#\1#p' \
    build/admin_check.log 2>/dev/null | head -n 1)
  [ -n "$admin_url" ] && break
  sleep 0.1
done
if [ -z "$admin_url" ]; then
  echo "admin server never came up:"
  cat build/admin_check.log
  exit 1
fi
curl -fsS "$admin_url/healthz" | grep -q '^ok$' && echo "admin /healthz: ok"
curl -fsS "$admin_url/metrics" > build/admin_metrics.prom
grep -q '^ir2_queries_total [0-9]' build/admin_metrics.prom \
  && echo "admin /metrics: Prometheus text with live counters"
if command -v python3 > /dev/null 2>&1; then
  curl -fsS "$admin_url/statusz" | python3 -m json.tool > /dev/null \
    && echo "admin /statusz: valid JSON"
  curl -fsS "$admin_url/tracez" | python3 -m json.tool > /dev/null \
    && echo "admin /tracez: valid JSON"
fi
wait "$bench_pid"
echo "admin bench run: clean exit"

echo
echo "== ThreadSanitizer build =="
cmake -B build-tsan -S . -DIR2_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo
if [ "${IR2_CHECK_FULL:-0}" = "1" ]; then
  cmake --build build-tsan -j "$jobs"
  ctest --test-dir build-tsan --output-on-failure
else
  # The suites that exercise the concurrent machinery (sharded pool,
  # decoded-node cache, per-thread I/O accounting, BatchExecutor, the
  # prefetch scheduler's worker thread, the async I/O backend's
  # submit/reap ring under demand+prefetch races, the sharded
  # metrics/tracer hammers, the planner's lock-free feedback under
  # batches, the facade's per-query step (global metrics and spans) that
  # every batch worker runs, the serving tier's admission queue +
  # concurrent scatter-gather workers, the tier's concurrent shard build
  # (two builds beside a serving tier, and a failed shard build), the
  # database's concurrent structure build (two builds beside a serving
  # database, a failed structure build, and every build of the build
  # equivalence and corpus suites), and the striped result cache's
  # lookup/fill/evict races) — the rest of the suite is single-threaded
  # and covered by the Release run.
  tsan_suites=(
    concurrency_test batch_executor_test database_test node_cache_test
    storage_test io_scheduler_test file_device_async_test obs_test
    planner_test server_loop_test sharded_database_test kc_tree_test
    telemetry_test admin_server_test result_cache_test
    build_equivalence_test corpus_terms_test
  )
  cmake --build build-tsan -j "$jobs" --target "${tsan_suites[@]}"
  ctest --test-dir build-tsan --output-on-failure \
    -R "$(suite_regex "${tsan_suites[@]}")"
fi

echo
echo "== UndefinedBehaviorSanitizer build =="
# The cold-path I/O engine does a lot of BlockId arithmetic (run
# coalescing, span clipping, ref-to-block division) where overflow or bad
# shifts would corrupt placement silently; UBSan-check the storage and
# traversal suites that drive it. The result cache rides along for its
# distance re-rank arithmetic and the EWMA decay exponentials; the
# tokenizer and corruption suites for the keyword-token search and the
# coordinate parser.
cmake -B build-ubsan -S . -DIR2_SANITIZE=undefined \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
ubsan_suites=(
  io_scheduler_test prefetch_invariance_test cold_regime_regression_test
  storage_test bulk_load_test simd_test kc_tree_test result_cache_test
  tokenizer_test corruption_test
)
# The kernel-heavy subset reruns on the scalar tier.
ubsan_scalar_suites=(
  cold_regime_regression_test simd_test kc_tree_test tokenizer_test
)
cmake --build build-ubsan -j "$jobs" --target "${ubsan_suites[@]}"
# Twice: dispatched kernels (wide loads, unaligned pointers) and the
# scalar tier both have to be UB-clean.
ctest --test-dir build-ubsan --output-on-failure \
  -R "$(suite_regex "${ubsan_suites[@]}")"
IR2_DISABLE_SIMD=1 ctest --test-dir build-ubsan --output-on-failure \
  -R "$(suite_regex "${ubsan_scalar_suites[@]}")"

if [ "${IR2_CHECK_ASAN:-0}" = "1" ]; then
  echo
  echo "== AddressSanitizer build =="
  cmake -B build-asan -S . -DIR2_SANITIZE="address;undefined" \
    -DCMAKE_BUILD_TYPE=Debug
  # The serving suites ride along: a warm tier hands decoded nodes out as
  # shared_ptrs from tier-owned node caches, so the cache/tree destruction
  # order on tier teardown is checked here. So do the database suites:
  # SpatialKeywordDatabase's destructor stops schedulers and async
  # backends before its trees, pools and devices tear down. And the cursor
  # suites: every tree search's filter signatures, batch flags and
  # candidate buffers live in a query scratch the verified NN cursor owns
  # or borrows, which is where a dangling pointer would hide. The
  # concurrency suite's batch workers own private read pools that their
  # query contexts point at until worker exit. The build-path suites
  # cover the one tree loop: MIR2's deferred-payload build, the bulk
  # loader's per-object payload fill and the locality_placement
  # compaction, each of which swaps trees, pools and devices in and out of
  # the structure table. The corpus suites drive the build's one tokenize
  # pass (CorpusTerms), whose term lookup keys on views into its word
  # store, and the builders that read its CSR and inverse CSR.
  asan_suites=(
    node_cache_test cold_regime_regression_test ir2_tree_test rtree_test
    algorithms_test simd_test file_device_async_test sharded_database_test
    server_loop_test tokenizer_test corruption_test storage_test
    database_test persistence_test batch_executor_test planner_test
    result_cache_test io_scheduler_test cursor_test kc_tree_test
    hybrid_index_test general_cursor_test concurrency_test
    mir2_tree_test bulk_load_test prefetch_invariance_test
    corpus_terms_test build_equivalence_test inverted_index_test
  )
  asan_scalar_suites=(cold_regime_regression_test simd_test tokenizer_test)
  cmake --build build-asan -j "$jobs" --target "${asan_suites[@]}"
  # Both SIMD ways here too: the dispatched kernels read signature and
  # posting buffers in wide chunks, exactly where an out-of-bounds read
  # would hide from the scalar tier. FindToken's lane loads reach up to
  # keyword length - 1 + 32 bytes past a lane start; simd_test searches
  # exactly sized heap copies so a read past the text is reported.
  ctest --test-dir build-asan --output-on-failure \
    -R "$(suite_regex "${asan_suites[@]}")"
  IR2_DISABLE_SIMD=1 ctest --test-dir build-asan --output-on-failure \
    -R "$(suite_regex "${asan_scalar_suites[@]}")"
fi

echo
echo "check.sh: all green"
