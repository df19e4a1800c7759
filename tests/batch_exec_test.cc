#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "broadcast/system.h"
#include "common/observability.h"
#include "common/rng.h"
#include "core/query_engine.h"
#include "core/query_workspace.h"
#include "spatial/generators.h"

/// The batched zero-allocation execution contract: for any request mix,
/// `ExecuteBatch` (and the workspace `Execute` overload it is built on) is
/// field-for-field identical to a sequential loop of convenience `Execute`
/// calls — with faults on or off, with tracing on or off, on one thread or
/// on many with per-thread workspaces, and through an arbitrarily reused
/// (warm, kind-flipped) workspace, including one that outlives the system
/// it was bound to.

namespace lbsq::core {
namespace {

const geom::Rect kWorld{0.0, 0.0, 20.0, 20.0};

struct Fixture {
  std::unique_ptr<broadcast::BroadcastSystem> system;

  explicit Fixture(int n_pois, uint64_t seed = 1) {
    Rng rng(seed);
    broadcast::BroadcastParams params;
    params.hilbert_order = 6;
    params.bucket_capacity = 4;
    system = std::make_unique<broadcast::BroadcastSystem>(
        spatial::GenerateUniformPois(&rng, kWorld, n_pois), kWorld, params);
  }
};

// A peer holding the verified content of `region` — honest by construction.
PeerData PeerWithRegion(const broadcast::BroadcastSystem& system,
                        const geom::Rect& region) {
  VerifiedRegion vr;
  vr.region = region;
  for (const spatial::Poi& p : system.pois()) {
    if (region.Contains(p.pos)) vr.pois.push_back(p);
  }
  return PeerData{{vr}};
}

// A request batch plus the peer storage backing its requests' spans (the
// requests hold non-owning views; the storage must outlive every Execute).
struct RequestSet {
  std::vector<QueryRequest> requests;
  std::vector<std::vector<PeerData>> peer_storage;
};

// A randomized mixed workload: kNN and window queries, varying k, window
// sizes, slots across several broadcast cycles, and peer knowledge.
RequestSet MakeRequests(const broadcast::BroadcastSystem& system, int n,
                        uint64_t seed) {
  Rng rng(seed);
  const int64_t cycle = system.schedule().cycle_length();
  RequestSet set;
  set.requests.reserve(static_cast<size_t>(n));
  set.peer_storage.resize(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    QueryRequest r;
    const geom::Point q{rng.Uniform(0.0, 20.0), rng.Uniform(0.0, 20.0)};
    if (rng.NextBool(0.5)) {
      r.kind = QueryKind::kKnn;
      r.position = q;
      r.k = 1 + static_cast<int>(rng.NextBelow(6));
    } else {
      r.kind = QueryKind::kWindow;
      r.window = geom::Rect::CenteredSquare(q, rng.Uniform(0.3, 2.5));
    }
    r.slot = static_cast<int64_t>(
        rng.NextBelow(static_cast<uint64_t>(3 * cycle)));
    if (rng.NextBool(0.6)) {
      set.peer_storage[static_cast<size_t>(i)].push_back(PeerWithRegion(
          system, geom::Rect::CenteredSquare(q, rng.Uniform(0.5, 2.0))));
    }
    r.fault_stream = static_cast<uint64_t>(i);
    set.requests.push_back(std::move(r));
  }
  // Bind spans only after all storage is final (no more vector growth).
  for (int i = 0; i < n; ++i) {
    set.requests[static_cast<size_t>(i)].peers =
        set.peer_storage[static_cast<size_t>(i)];
  }
  return set;
}

void ExpectCommonEq(const QueryResultCommon& a, const QueryResultCommon& b) {
  EXPECT_EQ(a.stats.access_latency, b.stats.access_latency);
  EXPECT_EQ(a.stats.tuning_time, b.stats.tuning_time);
  EXPECT_EQ(a.stats.buckets_read, b.stats.buckets_read);
  EXPECT_EQ(a.buckets, b.buckets);
  EXPECT_EQ(a.cacheable.region, b.cacheable.region);
  EXPECT_EQ(a.cacheable.pois, b.cacheable.pois);
  EXPECT_EQ(a.degraded, b.degraded);
  EXPECT_EQ(a.failed_buckets, b.failed_buckets);
  EXPECT_EQ(a.fault_losses, b.fault_losses);
  EXPECT_EQ(a.fault_corruptions, b.fault_corruptions);
  EXPECT_EQ(a.fault_deadline_hit, b.fault_deadline_hit);
}

void ExpectHeapEq(const ResultHeap& a, const ResultHeap& b) {
  ASSERT_EQ(a.entries().size(), b.entries().size());
  for (size_t i = 0; i < a.entries().size(); ++i) {
    EXPECT_EQ(a.entries()[i].poi, b.entries()[i].poi);
    EXPECT_EQ(a.entries()[i].distance, b.entries()[i].distance);
    EXPECT_EQ(a.entries()[i].verified, b.entries()[i].verified);
    EXPECT_EQ(a.entries()[i].correctness, b.entries()[i].correctness);
    EXPECT_EQ(a.entries()[i].surpassing_ratio,
              b.entries()[i].surpassing_ratio);
  }
}

void ExpectOutcomeEq(const QueryOutcome& a, const QueryOutcome& b) {
  ASSERT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.regions_rejected, b.regions_rejected);
  if (a.kind == QueryKind::kKnn) {
    ASSERT_TRUE(a.knn.has_value());
    ASSERT_TRUE(b.knn.has_value());
    EXPECT_FALSE(b.window.has_value());
    const SbnnOutcome& x = *a.knn;
    const SbnnOutcome& y = *b.knn;
    ExpectCommonEq(x, y);
    EXPECT_EQ(x.resolved_by, y.resolved_by);
    ASSERT_EQ(x.neighbors.size(), y.neighbors.size());
    for (size_t i = 0; i < x.neighbors.size(); ++i) {
      EXPECT_EQ(x.neighbors[i].poi, y.neighbors[i].poi);
      EXPECT_EQ(x.neighbors[i].distance, y.neighbors[i].distance);
    }
    ExpectHeapEq(x.nnv.heap, y.nnv.heap);
    EXPECT_EQ(x.nnv.mvr.pieces(), y.nnv.mvr.pieces());
    EXPECT_EQ(x.nnv.boundary_distance, y.nnv.boundary_distance);
    EXPECT_EQ(x.nnv.candidate_count, y.nnv.candidate_count);
    ASSERT_EQ(x.nnv.candidates.size(), y.nnv.candidates.size());
    for (size_t i = 0; i < x.nnv.candidates.size(); ++i) {
      EXPECT_EQ(x.nnv.candidates[i].poi, y.nnv.candidates[i].poi);
      EXPECT_EQ(x.nnv.candidates[i].distance, y.nnv.candidates[i].distance);
    }
    EXPECT_EQ(x.buckets_skipped, y.buckets_skipped);
  } else {
    ASSERT_TRUE(a.window.has_value());
    ASSERT_TRUE(b.window.has_value());
    EXPECT_FALSE(b.knn.has_value());
    const SbwqOutcome& x = *a.window;
    const SbwqOutcome& y = *b.window;
    ExpectCommonEq(x, y);
    EXPECT_EQ(x.resolved_by_peers, y.resolved_by_peers);
    EXPECT_EQ(x.pois, y.pois);
    EXPECT_EQ(x.mvr.pieces(), y.mvr.pieces());
    EXPECT_EQ(x.residual_windows, y.residual_windows);
    EXPECT_EQ(x.residual_fraction, y.residual_fraction);
  }
}

EngineOptions FaultyOptions() {
  EngineOptions options;
  options.fault.channel.model = fault::LossModel::kGilbertElliott;
  options.fault.channel.p_bad_to_good = 0.1;
  options.fault.channel.p_good_to_bad = 0.3 / 0.7 * 0.1;
  options.fault.channel.loss_bad = 0.8;
  options.fault.channel.corruption_prob = 0.05;
  options.fault.screen_peers = true;
  return options;
}

TEST(BatchExecTest, BatchMatchesSequentialExecute) {
  Fixture f(600);
  const QueryEngine engine(*f.system, kWorld, EngineOptions{});
  const RequestSet set = MakeRequests(*f.system, 60, /*seed=*/11);
  const std::vector<QueryRequest>& requests = set.requests;

  std::vector<QueryOutcome> sequential;
  for (const QueryRequest& r : requests) sequential.push_back(engine.Execute(r));

  QueryWorkspace workspace;
  const std::span<const QueryOutcome> batch =
      engine.ExecuteBatch(requests, workspace);
  ASSERT_EQ(batch.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    SCOPED_TRACE(i);
    ExpectOutcomeEq(sequential[i], batch[i]);
  }
  // A warm workspace replaying the batch reproduces it.
  const std::span<const QueryOutcome> replay =
      engine.ExecuteBatch(requests, workspace);
  for (size_t i = 0; i < requests.size(); ++i) {
    SCOPED_TRACE(i);
    ExpectOutcomeEq(sequential[i], replay[i]);
  }
}

TEST(BatchExecTest, BatchMatchesSequentialUnderFaults) {
  Fixture f(600, /*seed=*/3);
  const QueryEngine engine(*f.system, kWorld, FaultyOptions());
  const RequestSet set = MakeRequests(*f.system, 50, /*seed=*/23);
  const std::vector<QueryRequest>& requests = set.requests;

  std::vector<QueryOutcome> sequential;
  for (const QueryRequest& r : requests) sequential.push_back(engine.Execute(r));
  // The fault schedule is keyed by fault_stream, so at least one query must
  // actually have exercised the faulty path for this test to mean anything.
  int64_t losses = 0;
  for (const QueryOutcome& o : sequential) losses += o.Common().fault_losses;
  EXPECT_GT(losses, 0);

  QueryWorkspace workspace;
  const std::span<const QueryOutcome> batch =
      engine.ExecuteBatch(requests, workspace);
  ASSERT_EQ(batch.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    SCOPED_TRACE(i);
    ExpectOutcomeEq(sequential[i], batch[i]);
  }
}

TEST(BatchExecTest, TraceEventsIdenticalAcrossModes) {
  if (!obs::kObservabilityCompiledIn) GTEST_SKIP();
  Fixture f(600);
  const QueryEngine engine(*f.system, kWorld, EngineOptions{});
  RequestSet set = MakeRequests(*f.system, 20, 31);
  std::vector<QueryRequest>& requests = set.requests;

  QueryWorkspace workspace;
  for (size_t i = 0; i < requests.size(); ++i) {
    SCOPED_TRACE(i);
    obs::TraceRecorder plain_trace, reuse_trace;
    plain_trace.Reset(static_cast<int64_t>(i), 0, "q");
    reuse_trace.Reset(static_cast<int64_t>(i), 0, "q");

    requests[i].trace = &plain_trace;
    const QueryOutcome plain = engine.Execute(requests[i]);

    requests[i].trace = &reuse_trace;
    QueryOutcome reused;
    engine.Execute(requests[i], workspace, &reused);
    requests[i].trace = nullptr;

    ExpectOutcomeEq(plain, reused);
    ASSERT_EQ(plain_trace.events().size(), reuse_trace.events().size());
    for (size_t e = 0; e < plain_trace.events().size(); ++e) {
      EXPECT_EQ(plain_trace.events()[e], reuse_trace.events()[e]);
    }
  }
}

TEST(BatchExecTest, ShardedWorkspacesMatchSingleThread) {
  Fixture f(600, /*seed=*/5);
  const QueryEngine engine(*f.system, kWorld, EngineOptions{});
  const RequestSet set = MakeRequests(*f.system, 64, /*seed=*/47);
  const std::vector<QueryRequest>& requests = set.requests;

  QueryWorkspace single;
  const std::span<const QueryOutcome> reference =
      engine.ExecuteBatch(requests, single);

  for (int threads : {1, 4}) {
    std::vector<QueryOutcome> sharded(requests.size());
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&, t]() {
        QueryWorkspace workspace;  // one per thread
        for (size_t i = static_cast<size_t>(t); i < requests.size();
             i += static_cast<size_t>(threads)) {
          engine.Execute(requests[i], workspace, &sharded[i]);
        }
      });
    }
    for (std::thread& th : pool) th.join();
    for (size_t i = 0; i < requests.size(); ++i) {
      SCOPED_TRACE(testing::Message() << "threads=" << threads << " i=" << i);
      ExpectOutcomeEq(reference[i], sharded[i]);
    }
  }
}

TEST(BatchExecTest, WarmWorkspaceAndKindFlipsStayIdentical) {
  Fixture f(600, /*seed=*/9);
  const QueryEngine engine(*f.system, kWorld, EngineOptions{});
  const RequestSet set = MakeRequests(*f.system, 40, /*seed=*/71);
  const std::vector<QueryRequest>& mixed = set.requests;

  // Reference outcomes from the convenience path, once.
  std::vector<QueryOutcome> reference;
  for (const QueryRequest& r : mixed) reference.push_back(engine.Execute(r));

  // The same batch through one workspace repeatedly: outcome slots flip
  // between kNN and window as the arena is recycled, capacities stay warm.
  QueryWorkspace workspace;
  for (int round = 0; round < 3; ++round) {
    const std::span<const QueryOutcome> batch =
        engine.ExecuteBatch(mixed, workspace);
    ASSERT_EQ(batch.size(), mixed.size());
    for (size_t i = 0; i < mixed.size(); ++i) {
      SCOPED_TRACE(testing::Message() << "round=" << round << " i=" << i);
      ExpectOutcomeEq(reference[i], batch[i]);
    }
  }

  // Reversing the batch remaps every arena slot to the opposite mix of
  // kinds; the reset logic must still produce identical outcomes.
  std::vector<QueryRequest> reversed(mixed.rbegin(), mixed.rend());
  const std::span<const QueryOutcome> flipped =
      engine.ExecuteBatch(reversed, workspace);
  for (size_t i = 0; i < reversed.size(); ++i) {
    SCOPED_TRACE(i);
    ExpectOutcomeEq(reference[mixed.size() - 1 - i], flipped[i]);
  }
}

TEST(BatchExecTest, ReusedOutcomeKeepsBothKindsStorageAcrossFlips) {
  // One outcome serving a mixed stream, the way a server worker reuses it.
  // Every answer must equal a fresh one, and a kind flip must park the
  // other kind's storage rather than destroy it: capacity reserved in each
  // kind up front is still there whenever that kind is engaged again.
  Fixture f(600, /*seed=*/9);
  const QueryEngine engine(*f.system, kWorld, EngineOptions{});
  const RequestSet set = MakeRequests(*f.system, 40, /*seed=*/73);
  constexpr size_t kReserved = 4096;
  QueryWorkspace workspace;
  QueryOutcome outcome;
  outcome.UseWindow().pois.reserve(kReserved);
  outcome.UseKnn(5).neighbors.reserve(kReserved);
  int flips = 0;
  for (size_t i = 0; i < set.requests.size(); ++i) {
    SCOPED_TRACE(i);
    const QueryRequest& r = set.requests[i];
    if (i > 0 && r.kind != set.requests[i - 1].kind) ++flips;
    engine.Execute(r, workspace, &outcome);
    ExpectOutcomeEq(engine.Execute(r), outcome);
    if (r.kind == QueryKind::kKnn) {
      EXPECT_GE(outcome.knn->neighbors.capacity(), kReserved);
    } else {
      EXPECT_GE(outcome.window->pois.capacity(), kReserved);
    }
  }
  EXPECT_GT(flips, 4);
}

TEST(BatchExecTest, ReusedWorkspaceMatchesFreshAcrossEpochsAndCycles) {
  // The epoch-publish shape: the next epoch's system is built at the
  // address of the one it replaces, with the same POI count. A workspace
  // that served the old epoch must answer the new one exactly as a fresh
  // workspace does, within one broadcast cycle and across cycles.
  broadcast::BroadcastParams params;
  params.hilbert_order = 6;
  params.bucket_capacity = 4;
  Rng old_rng(13);
  Rng moved_rng(14);
  std::optional<broadcast::BroadcastSystem> system;
  system.emplace(spatial::GenerateUniformPois(&old_rng, kWorld, 600), kWorld,
                 params);
  const broadcast::BroadcastSystem* const address = &*system;

  // Every request lies in broadcast cycle 0 of both epochs.
  auto requests_for = [](const broadcast::BroadcastSystem& s) {
    RequestSet set = MakeRequests(s, 40, /*seed=*/83);
    for (size_t i = 0; i < set.requests.size(); ++i) {
      set.requests[i].slot = static_cast<int64_t>(i);
      EXPECT_LT(set.requests[i].slot, s.schedule().cycle_length());
    }
    return set;
  };

  QueryWorkspace workspace;
  {
    const QueryEngine engine(*system, kWorld, EngineOptions{});
    const RequestSet set = requests_for(*system);
    QueryOutcome outcome;
    for (const QueryRequest& r : set.requests) {
      engine.Execute(r, workspace, &outcome);
    }
  }

  system.reset();
  params.epoch += 1;
  system.emplace(spatial::GenerateUniformPois(&moved_rng, kWorld, 600),
                 kWorld, params);
  ASSERT_EQ(&*system, address);
  ASSERT_EQ(system->pois().size(), 600u);

  const QueryEngine engine(*system, kWorld, EngineOptions{});
  const RequestSet set = requests_for(*system);
  QueryWorkspace fresh;
  QueryOutcome reused;
  QueryOutcome reference;
  for (size_t i = 0; i < set.requests.size(); ++i) {
    SCOPED_TRACE(i);
    engine.Execute(set.requests[i], workspace, &reused);
    engine.Execute(set.requests[i], fresh, &reference);
    ExpectOutcomeEq(reference, reused);
  }

  // The same requests one and two cycles later.
  for (int64_t cycle = 1; cycle <= 2; ++cycle) {
    for (size_t i = 0; i < set.requests.size(); ++i) {
      SCOPED_TRACE(i);
      QueryRequest later = set.requests[i];
      later.slot += cycle * system->schedule().cycle_length();
      QueryWorkspace later_fresh;
      engine.Execute(later, workspace, &reused);
      engine.Execute(later, later_fresh, &reference);
      ExpectOutcomeEq(reference, reused);
    }
  }
}

}  // namespace
}  // namespace lbsq::core
