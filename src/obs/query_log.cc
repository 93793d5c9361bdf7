#include "obs/query_log.h"

#include <cstdio>
#include <string_view>

#include "common/hash.h"

namespace ir2 {
namespace obs {

namespace {

// Matches the registry exporters' double formatting so one parser serves
// every telemetry surface.
void AppendDouble(std::string* out, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  *out += buf;
}

void AppendString(std::string* out, std::string_view s) {
  out->push_back('"');
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      *out += buf;
    } else {
      out->push_back(c);
    }
  }
  out->push_back('"');
}

}  // namespace

std::string QueryLogRecord::ToJson() const {
  std::string out = "{\"ts_ms\":" + std::to_string(ts_ms);
  out += ",\"ticket\":" + std::to_string(ticket);
  out += ",\"tenant\":";
  AppendString(&out, tenant);
  out += ",\"k\":" + std::to_string(k);
  out += ",\"keywords\":" + std::to_string(num_keywords);
  out += ",\"area\":";
  out += area ? "true" : "false";
  out += ",\"algo\":";
  AppendString(&out, algo);
  out += ",\"predicted_ms\":";
  AppendDouble(&out, predicted_ms);
  out += ",\"observed_ms\":";
  AppendDouble(&out, observed_ms);
  out += ",\"plans\":" + std::to_string(plans);
  out += ",\"ok\":";
  out += ok ? "true" : "false";
  out += ",\"error\":";
  AppendString(&out, error);
  out += ",\"slow\":";
  out += slow ? "true" : "false";
  out += ",\"latency_ms\":";
  AppendDouble(&out, latency_ms);
  out += ",\"queue_ms\":";
  AppendDouble(&out, queue_ms);
  out += ",\"results\":" + std::to_string(results);
  out += ",\"objects_loaded\":" + std::to_string(stats.objects_loaded);
  out += ",\"false_positives\":" + std::to_string(stats.false_positives);
  out += ",\"nodes_visited\":" + std::to_string(stats.nodes_visited);
  out += ",\"node_decodes\":" + std::to_string(stats.node_decodes);
  out += ",\"entries_pruned\":" + std::to_string(stats.entries_pruned);
  out += ",\"demand_random_reads\":" +
         std::to_string(stats.demand_random_reads);
  out += ",\"demand_sequential_reads\":" +
         std::to_string(stats.demand_sequential_reads);
  out += ",\"speculative_random_reads\":" +
         std::to_string(stats.speculative_random_reads);
  out += ",\"speculative_sequential_reads\":" +
         std::to_string(stats.speculative_sequential_reads);
  out += ",\"simulated_disk_ms\":";
  AppendDouble(&out, stats.simulated_disk_ms);
  out += ",\"shards_queried\":" + std::to_string(stats.shards_queried);
  out += ",\"shards_pruned\":" + std::to_string(stats.shards_pruned);
  out += "}";
  return out;
}

QueryLog::QueryLog(QueryLogOptions options) : options_(options) {
  if (options_.capacity == 0) options_.capacity = 1;
  if (options_.sample_rate < 0.0) options_.sample_rate = 0.0;
  if (options_.sample_rate > 1.0) options_.sample_rate = 1.0;
  ring_.reserve(options_.capacity < 4096 ? options_.capacity : 4096);
}

bool QueryLog::ShouldSample(uint64_t ticket) const {
  if (options_.sample_rate >= 1.0) return true;
  if (options_.sample_rate <= 0.0) return false;
  // Mix the ticket into a uniform 53-bit fraction; deterministic per
  // ticket, so a replay of the same admission stream samples identically.
  const uint64_t mixed = Mix64(ticket + 0x51700ddbeefULL);
  const double unit =
      static_cast<double>(mixed >> 11) * 0x1.0p-53;  // [0, 1).
  return unit < options_.sample_rate;
}

void QueryLog::Record(QueryLogRecord record) {
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.size() < options_.capacity) {
    ring_.push_back(std::move(record));
  } else {
    ring_[next_] = std::move(record);
    next_ = (next_ + 1) % options_.capacity;
  }
  ++recorded_;
}

std::vector<QueryLogRecord> QueryLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<QueryLogRecord> records;
  records.reserve(ring_.size());
  for (size_t i = 0; i < ring_.size(); ++i) {
    records.push_back(ring_[(next_ + i) % ring_.size()]);
  }
  return records;
}

std::string QueryLog::ToJsonLines() const {
  std::string out;
  for (const QueryLogRecord& record : Snapshot()) {
    out += record.ToJson();
    out += "\n";
  }
  return out;
}

Status QueryLog::DrainToFile(const std::string& path) {
  const std::string lines = ToJsonLines();
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) {
    return Status::IoError("query log: cannot open " + path);
  }
  const size_t written = std::fwrite(lines.data(), 1, lines.size(), f);
  const bool closed = std::fclose(f) == 0;
  if (written != lines.size() || !closed) {
    return Status::IoError("query log: short write to " + path);
  }
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  next_ = 0;
  return Status::Ok();
}

uint64_t QueryLog::recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recorded_;
}

uint64_t QueryLog::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recorded_ - ring_.size();
}

}  // namespace obs
}  // namespace ir2
