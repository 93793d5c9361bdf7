#ifndef IR2TREE_SERVING_ADMIN_SERVER_H_
#define IR2TREE_SERVING_ADMIN_SERVER_H_

// Minimal embedded HTTP admin endpoint (docs/observability.md, admin
// chapter): a dependency-free blocking-socket server that answers GET
// requests from one accept-loop thread. It exists to make the serving tier
// observable — /metrics (Prometheus text), /healthz, /statusz (JSON),
// /tracez (Chrome-trace JSON), /querylogz (JSON lines), /cachez (semantic
// result-cache contents) — not to serve traffic: one connection is handled
// at a time, responses close the connection, and anything but GET gets 405.
//
// StatusSnapshot/RenderStatusJson split the /statusz payload from its data
// sources so the JSON shape is pinned by a byte-exact golden over a
// constructed snapshot, and MountAdminEndpoints wires the live objects
// (ServerLoop, ShardedDatabase, Tracer) to the five paths.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "geo/rect.h"
#include "obs/trace.h"
#include "obs/windowed.h"
#include "serving/server_loop.h"
#include "serving/sharded_database.h"

namespace ir2 {
namespace serving {

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

class AdminServer {
 public:
  struct Options {
    // Loopback by default: the admin surface is diagnostics, not a public
    // API, and it carries query text.
    std::string bind_address = "127.0.0.1";
    int port = 0;  // 0 = ephemeral; read the choice back via port().
  };

  // Handler for one mounted path; receives the request path without the
  // query string. Runs on the accept-loop thread.
  using Handler = std::function<HttpResponse(const std::string& path)>;

  AdminServer() : AdminServer(Options()) {}
  explicit AdminServer(Options options);
  ~AdminServer();  // Stop().

  AdminServer(const AdminServer&) = delete;
  AdminServer& operator=(const AdminServer&) = delete;

  // Mounts `handler` at exactly `path` (e.g. "/metrics"). Must be called
  // before Start().
  void Handle(const std::string& path, Handler handler);

  // Binds, listens, and starts the accept loop. Fails if the port is taken.
  Status Start();
  // Closes the listen socket and joins the accept loop. Idempotent.
  void Stop();

  // The bound port (the kernel's pick when Options::port was 0); 0 before
  // Start().
  int port() const { return port_; }

 private:
  void AcceptLoop(int listen_fd);

  Options options_;
  std::map<std::string, Handler> handlers_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::thread accept_thread_;
};

// The /statusz data, separated from rendering so the JSON shape has a
// byte-exact golden (tests construct fixed snapshots).
struct StatusSnapshot {
  double uptime_seconds = 0.0;
  std::string build_info;
  uint64_t queue_depth = 0;
  ServerStats totals;
  std::vector<TenantRow> tenants;
  obs::WindowedHistogram::Snapshot latency;  // Sliding-window quantiles.
  obs::SloTracker::Report slo;
  double slo_latency_threshold_ms = 0.0;
  double slo_objective = 0.0;
  struct ShardRow {
    uint32_t shard = 0;
    uint64_t num_objects = 0;
    double lo_x = 0.0, lo_y = 0.0, hi_x = 0.0, hi_y = 0.0;
    // The index structures the shard built (a fixed algorithm outside the
    // set fails with FailedPrecondition) and the bytes of every stored
    // structure by table slot, the object file included.
    StructureSet structures;
    uint64_t bytes[kNumStructures] = {};
  };
  std::vector<ShardRow> shards;
  // Semantic result-cache totals (serving/result_cache.h); rendered as
  // "result_cache":null when the tier runs without a cache.
  bool has_result_cache = false;
  ResultCache::Stats result_cache;
};

std::string RenderStatusJson(const StatusSnapshot& snapshot);

// Live objects behind the mounted endpoints; null members disable the
// corresponding sections/paths gracefully (e.g. /tracez without a tracer
// returns an empty trace).
struct AdminEndpoints {
  ServerLoop* server = nullptr;
  ShardedDatabase* db = nullptr;
  obs::Tracer* tracer = nullptr;
  std::string build_info;
};

// Mounts /metrics, /healthz, /statusz, /tracez, /querylogz, and /cachez on
// `admin`. The endpoint objects must outlive the server. Uptime counts from
// this call.
void MountAdminEndpoints(AdminServer* admin, const AdminEndpoints& endpoints);

}  // namespace serving
}  // namespace ir2

#endif  // IR2TREE_SERVING_ADMIN_SERVER_H_
