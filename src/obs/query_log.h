#ifndef IR2TREE_OBS_QUERY_LOG_H_
#define IR2TREE_OBS_QUERY_LOG_H_

// Sampled structured query log (docs/observability.md, query-log chapter).
//
// The serving tier appends one QueryLogRecord per *captured* request to a
// bounded ring: head-sampled at QueryLogOptions::sample_rate by hashing the
// admission ticket (deterministic — the same ticket always samples the same
// way, so tests and replays agree), with slow-tail requests (latency over
// the SLO threshold) and errors always captured regardless of the sample
// coin. Records render as JSON lines with a fixed key order so the schema
// can be pinned byte-exactly; they drain via /querylogz or DrainToFile.
//
// This layer sits below core (obs depends only on common), so the record
// carries a flat QueryLogStats mirror of the interesting core::QueryStats
// fields instead of the struct itself; serving does the conversion.
//
// The planner audit fields (algo, predicted_ms, observed_ms, plans) come
// from the request's QueryContext (core/database.h): every executed kAuto
// plan adds its chosen algorithm and predicted and observed cost there, so
// the serving tier can attribute planner mispricing per logged query.
// Under a sharded scatter-gather each executed shard leg adds once.

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace ir2 {
namespace obs {

// Flat mirror of the core QueryStats fields worth auditing per query.
struct QueryLogStats {
  uint64_t objects_loaded = 0;
  uint64_t false_positives = 0;
  uint64_t nodes_visited = 0;
  uint64_t node_decodes = 0;
  uint64_t entries_pruned = 0;
  uint64_t demand_random_reads = 0;
  uint64_t demand_sequential_reads = 0;
  uint64_t speculative_random_reads = 0;
  uint64_t speculative_sequential_reads = 0;
  double simulated_disk_ms = 0.0;
  uint64_t shards_queried = 0;
  uint64_t shards_pruned = 0;
};

struct QueryLogRecord {
  // Caller-supplied wall time (ms since Unix epoch) so goldens can pin the
  // serialization with fixed inputs.
  uint64_t ts_ms = 0;
  uint64_t ticket = 0;  // Admission ticket (also the sampling coin).
  std::string tenant;

  // Query shape.
  uint32_t k = 0;
  uint32_t num_keywords = 0;
  bool area = false;  // Region query (MINDIST to a rect) vs point query.

  // Planner audit (empty algo = no kAuto plan executed: a forced
  // algorithm or a result-cache hit). predicted/observed are
  // DiskModel-priced ms, summed over the audited shard legs (`plans` of
  // them).
  std::string algo;
  double predicted_ms = 0.0;
  double observed_ms = 0.0;
  uint32_t plans = 0;

  // Outcome.
  bool ok = true;
  std::string error;  // Status message when !ok.
  bool slow = false;  // Captured because latency exceeded the SLO threshold.
  double latency_ms = 0.0;
  double queue_ms = 0.0;
  uint32_t results = 0;
  QueryLogStats stats;

  // One JSON object, no trailing newline, fixed key order (the schema the
  // golden test pins — see docs/observability.md before changing it).
  std::string ToJson() const;
};

struct QueryLogOptions {
  size_t capacity = 1024;  // Ring size; oldest captured records drop first.
  // Head-sampling rate in [0, 1] applied to ok-and-fast requests; slow or
  // failed requests are always captured.
  double sample_rate = 0.01;
};

class QueryLog {
 public:
  explicit QueryLog(QueryLogOptions options = {});
  QueryLog(const QueryLog&) = delete;
  QueryLog& operator=(const QueryLog&) = delete;

  // Deterministic head-sampling coin for an admission ticket.
  bool ShouldSample(uint64_t ticket) const;

  // Appends unconditionally — the caller decides capture via
  // ShouldSample(ticket) || slow || !ok.
  void Record(QueryLogRecord record);

  // Captured records, oldest first.
  std::vector<QueryLogRecord> Snapshot() const;
  // One JSON object per line, oldest first, trailing newline per line.
  std::string ToJsonLines() const;
  // Appends ToJsonLines() to `path` and clears the ring on success.
  Status DrainToFile(const std::string& path);

  uint64_t recorded() const;  // Records ever accepted.
  uint64_t dropped() const;   // Accepted records later overwritten.
  const QueryLogOptions& options() const { return options_; }

 private:
  QueryLogOptions options_;
  mutable std::mutex mu_;
  std::vector<QueryLogRecord> ring_;
  size_t next_ = 0;
  uint64_t recorded_ = 0;
};

}  // namespace obs
}  // namespace ir2

#endif  // IR2TREE_OBS_QUERY_LOG_H_
