#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/sharded_query_engine.h"
#include "server/client.h"
#include "server/load_gen.h"
#include "server/server.h"
#include "sim/config.h"
#include "sim/query_exec.h"
#include "sim/simulator.h"
#include "sim/workload.h"
#include "spatial/generators.h"

/// End-to-end server tests over real sockets: a Server on an ephemeral
/// port, the load generator replaying the simulator's workload, and the
/// answer digest diffed against a `sim::Simulator` run on the same config
/// — the executable form of the lbsq_load ↔ lbsq_sim parity claim. Plus
/// the failure modes a network server must survive: mid-session
/// disconnects, version mismatch over the wire, and overload (backpressure
/// sheds queries but the replay still lands the exact digest).

namespace lbsq::server {
namespace {

/// Small but non-trivial run: ~hundreds of measured queries in well under
/// a second of wall time. accept_approximate=false is what makes the
/// digest a pure function of (config, seed) — see load_gen.h.
sim::SimConfig TestConfig() {
  sim::SimConfig config;
  config.params = sim::LosAngelesCity();
  config.world_side_mi = 2.0;
  config.warmup_min = 5.0;
  config.duration_min = 5.0;
  config.seed = 3;
  config.shards = 2;
  config.accept_approximate = false;
  return config;
}

/// Builds the engine exactly as tools/lbsq_server.cc does: same POI RNG
/// stream, same options — required for digest parity with the simulator.
core::ShardedQueryEngine BuildEngine(const sim::SimConfig& config) {
  const geom::Rect world{0.0, 0.0, config.world_side_mi,
                         config.world_side_mi};
  Rng poi_rng(DeriveStreamSeed(config.seed, sim::kStreamPois));
  std::vector<spatial::Poi> pois =
      spatial::GenerateUniformPois(&poi_rng, world, config.ScaledPoiCount());
  return core::ShardedQueryEngine(std::move(pois), world, config.broadcast,
                                  sim::EngineOptionsFromConfig(config),
                                  config.shards);
}

uint64_t SimulatorDigest(const sim::SimConfig& config) {
  sim::Simulator simulator(config);
  return simulator.Run().answer_digest;
}

/// Polls `predicate` until true or the deadline passes.
template <typename Predicate>
bool WaitFor(Predicate predicate, int timeout_ms = 2000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (!predicate()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return true;
}

int ConnectRaw(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

TEST(ServerTest, ReplayDigestMatchesSimulator) {
  const sim::SimConfig config = TestConfig();
  const uint64_t expected = SimulatorDigest(config);

  const core::ShardedQueryEngine engine = BuildEngine(config);
  ServerOptions options;
  options.num_workers = 2;
  Server server(engine, /*epoch=*/0, options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  LoadOptions load;
  load.port = server.port();
  load.connections = 2;
  load.pipeline = 8;
  load.queries_per_session = 64;
  const LoadResult result = ReplayWorkload(config, load);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_GT(result.queries, 0);
  EXPECT_GT(result.sessions, 0);
  EXPECT_EQ(result.digest, expected);
  server.Stop();
  EXPECT_EQ(server.counters().queries_executed.load(), result.queries);
}

TEST(ServerTest, BackpressureShedsButDigestStaysExact) {
  const sim::SimConfig config = TestConfig();
  const uint64_t expected = SimulatorDigest(config);

  const core::ShardedQueryEngine engine = BuildEngine(config);
  // Starved deployment: one worker, tiny queue and in-flight budget, so an
  // overloading client must see RETRY_AFTER frames.
  ServerOptions options;
  options.num_workers = 1;
  options.worker_queue_capacity = 2;
  options.session_inflight_limit = 2;
  options.retry_after_ms = 1;
  Server server(engine, /*epoch=*/0, options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  LoadOptions load;
  load.port = server.port();
  load.connections = 2;
  load.pipeline = 32;
  load.overload = true;  // resend immediately, ignore the suggested delay
  const LoadResult result = ReplayWorkload(config, load);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_GT(result.retries_received, 0);
  // Shedding loses no answers: every shed query was retried to completion
  // and the digest still matches the simulator bit-for-bit.
  EXPECT_EQ(result.digest, expected);
  server.Stop();
  EXPECT_EQ(server.counters().retry_after_sent.load(),
            result.retries_received);
}

TEST(ServerTest, MidSessionDisconnectIsSurvived) {
  const sim::SimConfig config = TestConfig();
  const core::ShardedQueryEngine engine = BuildEngine(config);
  Server server(engine, /*epoch=*/0, ServerOptions{});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  // Abrupt close mid-frame: two bytes of a length prefix, then gone.
  {
    const int fd = ConnectRaw(server.port());
    ASSERT_GE(fd, 0);
    const uint8_t partial[] = {0x10, 0x00};
    ASSERT_EQ(::send(fd, partial, sizeof(partial), 0),
              static_cast<ssize_t>(sizeof(partial)));
    ::close(fd);
  }
  // Abrupt close after a successful handshake, no BYE.
  {
    Client client;
    ASSERT_TRUE(client.Connect(server.port(), 1, 2, &error)) << error;
  }  // destructor closes the socket without BYE
  ASSERT_TRUE(WaitFor([&] {
    return server.counters().sessions_closed.load() >= 2;
  })) << "server did not reap the dropped connections";

  // The server still serves new sessions correctly after both drops.
  Client client;
  ASSERT_TRUE(client.Connect(server.port(), 1, 2, &error)) << error;
  EXPECT_EQ(client.hello().num_shards, 2u);
  QueryCall call;
  call.request_id = 1;
  call.kind = core::QueryKind::kKnn;
  call.position = {1.0, 1.0};
  call.k = 3;
  ASSERT_TRUE(client.SendQuery(call, &error)) << error;
  QueryAnswer answer;
  RetryAfter retry;
  ASSERT_EQ(client.Receive(&answer, &retry, &error), Client::Reply::kAnswer)
      << error;
  EXPECT_EQ(answer.request_id, 1u);
  EXPECT_EQ(answer.neighbor_ids.size(), 3u);
  client.Close();
  server.Stop();
}

TEST(ServerTest, NonFiniteQueryIsRejectedOverTheWire) {
  const sim::SimConfig config = TestConfig();
  const core::ShardedQueryEngine engine = BuildEngine(config);
  Server server(engine, /*epoch=*/0, ServerOptions{});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  // Neither call may reach the engine: a NaN position has no neighbours to
  // find, and an infinite window would feed float-to-int casts in the cover.
  QueryCall knn;
  knn.request_id = 1;
  knn.kind = core::QueryKind::kKnn;
  knn.position = {std::numeric_limits<double>::quiet_NaN(), 1.0};
  knn.k = 3;
  QueryCall window;
  window.request_id = 2;
  window.kind = core::QueryKind::kWindow;
  window.window = geom::Rect{0.5, 0.5, std::numeric_limits<double>::infinity(),
                             1.0};
  for (const QueryCall& call : {knn, window}) {
    Client client;
    ASSERT_TRUE(client.Connect(server.port(), 1, 2, &error)) << error;
    ASSERT_TRUE(client.SendQuery(call, &error)) << error;
    QueryAnswer answer;
    RetryAfter retry;
    EXPECT_EQ(client.Receive(&answer, &retry, &error), Client::Reply::kError);
    EXPECT_NE(error.find("malformed QUERY"), std::string::npos) << error;
  }
  EXPECT_GE(server.counters().protocol_errors.load(), 2);

  // The listener keeps serving well-formed queries.
  Client client;
  ASSERT_TRUE(client.Connect(server.port(), 1, 2, &error)) << error;
  knn.position = {1.0, 1.0};
  ASSERT_TRUE(client.SendQuery(knn, &error)) << error;
  QueryAnswer answer;
  RetryAfter retry;
  ASSERT_EQ(client.Receive(&answer, &retry, &error), Client::Reply::kAnswer)
      << error;
  EXPECT_EQ(answer.neighbor_ids.size(), 3u);
  client.Close();
  server.Stop();
}

TEST(ServerTest, VersionMismatchIsRejectedOverTheWire) {
  const sim::SimConfig config = TestConfig();
  const core::ShardedQueryEngine engine = BuildEngine(config);
  Server server(engine, /*epoch=*/0, ServerOptions{});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  Client client;
  EXPECT_FALSE(client.Connect(server.port(), 99, 100, &error));
  EXPECT_NE(error.find("version"), std::string::npos) << error;

  // The rejection didn't poison the listener.
  Client ok;
  ASSERT_TRUE(ok.Connect(server.port(), 1, 2, &error)) << error;
  ok.Close();
  server.Stop();
  EXPECT_GE(server.counters().protocol_errors.load(), 1);
}

TEST(ServerTest, V1SessionServesEpochFreeBroadcastFrames) {
  const sim::SimConfig config = TestConfig();
  const core::ShardedQueryEngine engine = BuildEngine(config);
  Server server(engine, /*epoch=*/0, ServerOptions{});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  Client client;
  ASSERT_TRUE(client.Connect(server.port(), 1, 1, &error)) << error;
  EXPECT_EQ(client.hello().version, 1u);
  EXPECT_EQ(client.hello().epoch, 0u);

  // The three-step access protocol end to end: probe the directory, then
  // fetch a bucket it points at; both must match the shard's in-memory
  // broadcast system.
  std::vector<broadcast::AirIndex::Entry> entries;
  uint64_t epoch = 99;
  ASSERT_TRUE(client.FetchIndex(0, &entries, &epoch, &error)) << error;
  EXPECT_EQ(epoch, 0u);
  const broadcast::BroadcastSystem* system = engine.shard_system(0);
  ASSERT_NE(system, nullptr);
  ASSERT_EQ(entries.size(), system->index().entries().size());

  broadcast::DataBucket bucket;
  ASSERT_TRUE(client.FetchBucket(0, 0, &bucket, &error)) << error;
  ASSERT_FALSE(bucket.pois.empty());
  EXPECT_EQ(bucket.pois.size(), system->buckets()[0].pois.size());
  client.Close();
  server.Stop();
}

}  // namespace
}  // namespace lbsq::server
