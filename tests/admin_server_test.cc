// AdminServer HTTP behavior over real loopback sockets: ephemeral-port
// bind, routing, 404/405 handling, and Stop() idempotence.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <string>

#include "serving/admin_server.h"
#include "serving/sharded_database.h"
#include "tests/test_util.h"

namespace ir2 {
namespace serving {
namespace {

// One blocking HTTP exchange against 127.0.0.1:`port`; returns the full
// response (status line + headers + body) or "" on connect failure.
std::string HttpGet(int port, const std::string& request_line) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string request = request_line + "\r\nHost: localhost\r\n\r\n";
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;  // Server closes after one response.
    response.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string BodyOf(const std::string& response) {
  const size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? "" : response.substr(split + 4);
}

TEST(AdminServerTest, ServesMountedHandlersOnEphemeralPort) {
  AdminServer admin;  // Port 0: the kernel picks.
  admin.Handle("/healthz", [](const std::string&) {
    HttpResponse response;
    response.body = "ok\n";
    return response;
  });
  admin.Handle("/echo", [](const std::string& path) {
    HttpResponse response;
    response.content_type = "application/json";
    response.body = "{\"path\":\"" + path + "\"}";
    return response;
  });
  ASSERT_TRUE(admin.Start().ok());
  ASSERT_GT(admin.port(), 0);

  const std::string health =
      HttpGet(admin.port(), "GET /healthz HTTP/1.1");
  EXPECT_NE(health.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(health.find("Content-Length: 3"), std::string::npos);
  EXPECT_EQ(BodyOf(health), "ok\n");

  const std::string echo = HttpGet(admin.port(), "GET /echo HTTP/1.1");
  EXPECT_NE(echo.find("Content-Type: application/json"), std::string::npos);
  EXPECT_EQ(BodyOf(echo), "{\"path\":\"/echo\"}");

  admin.Stop();
}

TEST(AdminServerTest, StripsQueryStringBeforeRouting) {
  AdminServer admin;
  admin.Handle("/metrics", [](const std::string& path) {
    HttpResponse response;
    response.body = path;  // Handler sees the path sans query.
    return response;
  });
  ASSERT_TRUE(admin.Start().ok());
  const std::string response =
      HttpGet(admin.port(), "GET /metrics?format=prom HTTP/1.1");
  EXPECT_EQ(BodyOf(response), "/metrics");
}

TEST(AdminServerTest, UnknownPathIs404) {
  AdminServer admin;
  admin.Handle("/healthz", [](const std::string&) {
    return HttpResponse{};
  });
  ASSERT_TRUE(admin.Start().ok());
  const std::string response =
      HttpGet(admin.port(), "GET /nothing-here HTTP/1.1");
  EXPECT_NE(response.find("HTTP/1.1 404 Not Found"), std::string::npos);
}

TEST(AdminServerTest, NonGetIs405) {
  AdminServer admin;
  admin.Handle("/healthz", [](const std::string&) {
    return HttpResponse{};
  });
  ASSERT_TRUE(admin.Start().ok());
  const std::string response =
      HttpGet(admin.port(), "POST /healthz HTTP/1.1");
  EXPECT_NE(response.find("HTTP/1.1 405 Method Not Allowed"),
            std::string::npos);
}

TEST(AdminServerTest, StopIsIdempotentAndDestructorStops) {
  auto admin = std::make_unique<AdminServer>();
  admin->Handle("/healthz", [](const std::string&) {
    return HttpResponse{};
  });
  ASSERT_TRUE(admin->Start().ok());
  const int port = admin->port();
  admin->Stop();
  admin->Stop();  // Second Stop is a no-op.
  // Socket is gone: a fresh connect must fail.
  EXPECT_EQ(HttpGet(port, "GET /healthz HTTP/1.1"), "");
  admin.reset();  // Destructor after explicit Stop: still fine.
}

TEST(AdminServerTest, PortAlreadyTakenFailsStart) {
  AdminServer first;
  first.Handle("/healthz", [](const std::string&) {
    return HttpResponse{};
  });
  ASSERT_TRUE(first.Start().ok());

  AdminServer::Options options;
  options.port = first.port();
  AdminServer second(options);
  second.Handle("/healthz", [](const std::string&) {
    return HttpResponse{};
  });
  EXPECT_FALSE(second.Start().ok());
}

// /statusz names each shard's structures and their bytes, so an operator
// can see why a fixed-algorithm request failed and what the tier stores.
TEST(AdminServerTest, StatuszNamesEachShardsStructures) {
  const std::vector<StoredObject> objects =
      testing_util::RandomObjects(31, 200, 20, 4);
  DatabaseOptions options;
  options.cold_queries = false;
  ShardingOptions sharding;
  sharding.num_shards = 2;
  auto tier = ShardedDatabase::Build(objects, options, sharding).value();

  AdminServer admin;
  AdminEndpoints endpoints;
  endpoints.db = tier.get();
  MountAdminEndpoints(&admin, endpoints);
  ASSERT_TRUE(admin.Start().ok());
  const std::string body =
      BodyOf(HttpGet(admin.port(), "GET /statusz HTTP/1.1"));
  for (size_t s = 0; s < tier->num_shards(); ++s) {
    const SpatialKeywordDatabase& shard = *tier->shard(s);
    const std::string row =
        "\"shard\":" + std::to_string(s) + ",\"objects\":" +
        std::to_string(shard.stats().num_objects);
    const size_t at = body.find(row);
    ASSERT_NE(at, std::string::npos) << body;
    const std::string structures =
        "\"structures\":[\"kctree\",\"iio\"],\"bytes\":{\"objects\":" +
        std::to_string(shard.ObjectFileBytes()) + ",\"kctree\":" +
        std::to_string(shard.KcTreeBytes()) + ",\"iio\":" +
        std::to_string(shard.IioBytes()) + "}}";
    EXPECT_NE(body.find(structures, at), std::string::npos) << body;
  }
  EXPECT_EQ(body.find("\"ir2\""), std::string::npos) << body;
  admin.Stop();
}

}  // namespace
}  // namespace serving
}  // namespace ir2
