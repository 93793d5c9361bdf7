#include "serving/admin_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <utility>

#include "obs/metrics.h"

namespace ir2 {
namespace serving {

namespace {

std::string FormatDouble(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}

void AppendJsonString(std::string* out, std::string_view s) {
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

const char* StatusText(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    default:
      return "Error";
  }
}

// Reads until the end of the request headers (we never accept bodies) or a
// small cap; returns false on socket error/timeout before any data.
bool ReadRequestHead(int fd, std::string* head) {
  char buf[1024];
  while (head->size() < 8192) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) return !head->empty();
    head->append(buf, static_cast<size_t>(n));
    if (head->find("\r\n\r\n") != std::string::npos ||
        head->find("\n\n") != std::string::npos) {
      return true;
    }
  }
  return true;
}

void WriteAll(int fd, std::string_view data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                             MSG_NOSIGNAL);
    if (n <= 0) return;
    off += static_cast<size_t>(n);
  }
}

}  // namespace

AdminServer::AdminServer(Options options) : options_(std::move(options)) {}

AdminServer::~AdminServer() { Stop(); }

void AdminServer::Handle(const std::string& path, Handler handler) {
  handlers_[path] = std::move(handler);
}

Status AdminServer::Start() {
  if (listen_fd_ >= 0) {
    return Status::FailedPrecondition("admin server already started");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError("admin server: socket() failed");
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(fd);
    return Status::InvalidArgument("admin server: bad bind address " +
                                   options_.bind_address);
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return Status::IoError("admin server: cannot bind " +
                           options_.bind_address + ":" +
                           std::to_string(options_.port));
  }
  if (::listen(fd, 16) != 0) {
    ::close(fd);
    return Status::IoError("admin server: listen() failed");
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    port_ = ntohs(bound.sin_port);
  }
  listen_fd_ = fd;
  // The loop gets its own copy of the fd: Stop() rewrites listen_fd_ from
  // the owner thread, and the accept thread must not read the member.
  accept_thread_ = std::thread([this, fd] { AcceptLoop(fd); });
  return Status::Ok();
}

void AdminServer::Stop() {
  if (listen_fd_ < 0) return;
  // shutdown() unblocks the accept(2) the loop is parked in.
  ::shutdown(listen_fd_, SHUT_RDWR);
  ::close(listen_fd_);
  listen_fd_ = -1;
  if (accept_thread_.joinable()) accept_thread_.join();
}

void AdminServer::AcceptLoop(int listen_fd) {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) return;  // Listen socket closed: shutting down.
    timeval timeout{};
    timeout.tv_sec = 5;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    std::string head;
    if (!ReadRequestHead(fd, &head)) {
      ::close(fd);
      continue;
    }
    // Request line: METHOD SP PATH SP VERSION.
    const size_t line_end = head.find_first_of("\r\n");
    const std::string line = head.substr(0, line_end);
    const size_t sp1 = line.find(' ');
    const size_t sp2 = line.find(' ', sp1 + 1);
    const std::string method = sp1 == std::string::npos ? "" : line.substr(0, sp1);
    std::string path = sp1 == std::string::npos || sp2 == std::string::npos
                           ? ""
                           : line.substr(sp1 + 1, sp2 - sp1 - 1);
    const size_t query = path.find('?');
    if (query != std::string::npos) path.resize(query);

    HttpResponse response;
    if (method != "GET") {
      response.status = 405;
      response.body = "method not allowed\n";
    } else {
      auto it = handlers_.find(path);
      if (it == handlers_.end()) {
        response.status = 404;
        response.body = "not found\n";
      } else {
        response = it->second(path);
      }
    }

    std::string out = "HTTP/1.1 " + std::to_string(response.status) + " " +
                      StatusText(response.status) + "\r\n";
    out += "Content-Type: " + response.content_type + "\r\n";
    out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
    out += "Connection: close\r\n\r\n";
    out += response.body;
    WriteAll(fd, out);
    ::close(fd);
  }
}

std::string RenderStatusJson(const StatusSnapshot& snapshot) {
  std::string out = "{\"uptime_seconds\":" +
                    FormatDouble(snapshot.uptime_seconds);
  out += ",\"build\":";
  AppendJsonString(&out, snapshot.build_info);
  out += ",\"queue_depth\":" + std::to_string(snapshot.queue_depth);
  out += ",\"totals\":{\"admitted\":" + std::to_string(snapshot.totals.admitted);
  out += ",\"rejected_queue_full\":" +
         std::to_string(snapshot.totals.rejected_queue_full);
  out += ",\"rejected_quota\":" +
         std::to_string(snapshot.totals.rejected_quota);
  out += ",\"completed\":" + std::to_string(snapshot.totals.completed);
  out += "},\"tenants\":[";
  for (size_t i = 0; i < snapshot.tenants.size(); ++i) {
    const TenantRow& row = snapshot.tenants[i];
    if (i > 0) out += ",";
    out += "{\"tenant\":";
    AppendJsonString(&out, row.tenant);
    out += ",\"admitted\":" + std::to_string(row.admitted);
    out += ",\"rejected_queue_full\":" +
           std::to_string(row.rejected_queue_full);
    out += ",\"rejected_quota\":" + std::to_string(row.rejected_quota);
    out += ",\"completed\":" + std::to_string(row.completed);
    out += ",\"cache_hits\":" + std::to_string(row.cache_hits);
    out += ",\"cache_near_hits\":" + std::to_string(row.cache_near_hits);
    out += ",\"cache_misses\":" + std::to_string(row.cache_misses);
    out += ",\"cache_invalidations\":" +
           std::to_string(row.cache_invalidations);
    out += "}";
  }
  out += "],\"latency_window\":{\"window_seconds\":" +
         FormatDouble(snapshot.latency.window_seconds);
  out += ",\"count\":" + std::to_string(snapshot.latency.count);
  out += ",\"mean_ms\":" + FormatDouble(snapshot.latency.Mean());
  out += ",\"p50_ms\":" + FormatDouble(snapshot.latency.p50);
  out += ",\"p95_ms\":" + FormatDouble(snapshot.latency.p95);
  out += ",\"p99_ms\":" + FormatDouble(snapshot.latency.p99);
  out += "},\"slo\":{\"latency_threshold_ms\":" +
         FormatDouble(snapshot.slo_latency_threshold_ms);
  out += ",\"objective\":" + FormatDouble(snapshot.slo_objective);
  out += ",\"total_5m\":" + std::to_string(snapshot.slo.total_5m);
  out += ",\"bad_5m\":" + std::to_string(snapshot.slo.bad_5m);
  out += ",\"burn_5m\":" + FormatDouble(snapshot.slo.burn_5m);
  out += ",\"total_1h\":" + std::to_string(snapshot.slo.total_1h);
  out += ",\"bad_1h\":" + std::to_string(snapshot.slo.bad_1h);
  out += ",\"burn_1h\":" + FormatDouble(snapshot.slo.burn_1h);
  out += ",\"budget_remaining_1h\":" +
         FormatDouble(snapshot.slo.budget_remaining_1h);
  out += "},\"result_cache\":";
  if (snapshot.has_result_cache) {
    const ResultCache::Stats& cache = snapshot.result_cache;
    out += "{\"entries\":" + std::to_string(cache.entries);
    out += ",\"hits\":" + std::to_string(cache.hits);
    out += ",\"near_hits\":" + std::to_string(cache.near_hits);
    out += ",\"misses\":" + std::to_string(cache.misses);
    out += ",\"invalidations\":" + std::to_string(cache.invalidations);
    out += ",\"admitted\":" + std::to_string(cache.admitted);
    out += ",\"evictions\":" + std::to_string(cache.evictions);
    out += ",\"hit_rate\":" + FormatDouble(cache.HitRate());
    out += ",";
    AppendAdmissionJson(&out, cache);
    out += "}";
  } else {
    out += "null";
  }
  out += ",\"shards\":[";
  for (size_t i = 0; i < snapshot.shards.size(); ++i) {
    const StatusSnapshot::ShardRow& row = snapshot.shards[i];
    if (i > 0) out += ",";
    out += "{\"shard\":" + std::to_string(row.shard);
    out += ",\"objects\":" + std::to_string(row.num_objects);
    out += ",\"bounds\":[" + FormatDouble(row.lo_x) + "," +
           FormatDouble(row.lo_y) + "," + FormatDouble(row.hi_x) + "," +
           FormatDouble(row.hi_y) + "]";
    // "structures" lists the built indexes in table order; "bytes" sizes
    // the object file and each of them.
    std::string structures;
    std::string bytes =
        "\"objects\":" +
        std::to_string(row.bytes[static_cast<size_t>(Structure::kObjects)]);
    for (size_t s = 0; s < kNumStructures; ++s) {
      const Structure structure = static_cast<Structure>(s);
      if (structure == Structure::kObjects || !row.structures.Has(structure)) {
        continue;
      }
      const std::string name = std::string("\"") + kStructureNames[s] + "\"";
      structures += (structures.empty() ? "" : ",") + name;
      bytes += "," + name + ":" + std::to_string(row.bytes[s]);
    }
    out += ",\"structures\":[" + structures + "],\"bytes\":{" + bytes + "}}";
  }
  out += "]}";
  return out;
}

void MountAdminEndpoints(AdminServer* admin, const AdminEndpoints& endpoints) {
  const auto started = std::chrono::steady_clock::now();

  admin->Handle("/healthz", [](const std::string&) {
    HttpResponse response;
    response.body = "ok\n";
    return response;
  });

  admin->Handle("/metrics", [](const std::string&) {
    HttpResponse response;
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body = obs::MetricsRegistry::Global().RenderPrometheus();
    return response;
  });

  admin->Handle("/statusz", [endpoints, started](const std::string&) {
    StatusSnapshot snapshot;
    snapshot.uptime_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started)
            .count();
    snapshot.build_info = endpoints.build_info;
    if (endpoints.server != nullptr) {
      ServerLoop* server = endpoints.server;
      snapshot.queue_depth = server->queue_depth();
      snapshot.totals = server->stats();
      snapshot.tenants = server->TenantTable();
      snapshot.latency = server->LatencyWindow();
      snapshot.slo = server->SloReport();
      snapshot.slo_latency_threshold_ms =
          server->options().slo.latency_threshold_ms;
      snapshot.slo_objective = server->options().slo.objective;
    }
    if (endpoints.db != nullptr) {
      for (size_t i = 0; i < endpoints.db->num_shards(); ++i) {
        const auto& info = endpoints.db->shard_info(i);
        StatusSnapshot::ShardRow row;
        row.shard = static_cast<uint32_t>(i);
        row.num_objects = info.num_objects;
        if (info.bounds.dims() >= 2) {
          row.lo_x = info.bounds.lo()[0];
          row.lo_y = info.bounds.lo()[1];
          row.hi_x = info.bounds.hi()[0];
          row.hi_y = info.bounds.hi()[1];
        }
        const SpatialKeywordDatabase& shard = *endpoints.db->shard(i);
        row.structures = shard.options().structures;
        for (size_t s = 0; s < kNumStructures; ++s) {
          row.bytes[s] = shard.StructureBytes(static_cast<Structure>(s));
        }
        snapshot.shards.push_back(row);
      }
      if (endpoints.db->result_cache() != nullptr) {
        snapshot.has_result_cache = true;
        snapshot.result_cache = endpoints.db->result_cache()->GetStats();
      }
    }
    HttpResponse response;
    response.content_type = "application/json";
    response.body = RenderStatusJson(snapshot) + "\n";
    return response;
  });

  admin->Handle("/tracez", [endpoints](const std::string&) {
    HttpResponse response;
    response.content_type = "application/json";
    response.body = endpoints.tracer != nullptr
                        ? endpoints.tracer->ToChromeTraceJson()
                        : "{\"traceEvents\":[]}\n";
    return response;
  });

  admin->Handle("/querylogz", [endpoints](const std::string&) {
    HttpResponse response;
    response.content_type = "application/x-ndjson";
    if (endpoints.server != nullptr) {
      response.body = endpoints.server->query_log()->ToJsonLines();
    }
    return response;
  });

  admin->Handle("/cachez", [endpoints](const std::string&) {
    HttpResponse response;
    response.content_type = "application/json";
    if (endpoints.db != nullptr && endpoints.db->result_cache() != nullptr) {
      ResultCache* cache = endpoints.db->result_cache();
      response.body = RenderCachezJson(cache->GetStats(), cache->Table(),
                                       endpoints.db->MutationEpoch()) +
                      "\n";
    } else {
      response.body = "{\"result_cache\":null}\n";
    }
    return response;
  });
}

}  // namespace serving
}  // namespace ir2
