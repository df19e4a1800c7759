#include "core/query_engine.h"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "broadcast/system.h"
#include "common/rng.h"
#include "core/query_workspace.h"
#include "spatial/generators.h"

namespace lbsq::core {
namespace {

const geom::Rect kWorld{0.0, 0.0, 20.0, 20.0};

struct Fixture {
  std::unique_ptr<broadcast::BroadcastSystem> system;
  double poi_density;

  explicit Fixture(int n_pois, uint64_t seed = 1) {
    Rng rng(seed);
    broadcast::BroadcastParams params;
    params.hilbert_order = 5;
    params.bucket_capacity = 8;
    system = std::make_unique<broadcast::BroadcastSystem>(
        spatial::GenerateUniformPois(&rng, kWorld, n_pois), kWorld, params);
    poi_density = static_cast<double>(n_pois) / kWorld.area();
  }

  PeerData PeerWithRegion(geom::Rect region) const {
    VerifiedRegion vr;
    vr.region = region;
    for (const spatial::Poi& p : system->pois()) {
      if (region.Contains(p.pos)) vr.pois.push_back(p);
    }
    return PeerData{{vr}};
  }
};

TEST(QueryEngineTest, KnnExecutionModesMatch) {
  Fixture f(300);
  EngineOptions options;
  options.sbnn.k = 5;
  const QueryEngine engine(*f.system, kWorld, options);
  EXPECT_DOUBLE_EQ(engine.poi_density(), f.poi_density);

  const std::vector<PeerData> peers = {
      f.PeerWithRegion(geom::Rect{6.0, 6.0, 14.0, 14.0})};
  QueryRequest request;
  request.kind = QueryKind::kKnn;
  request.position = {10.0, 10.0};
  request.k = 5;
  request.slot = 17;
  request.peers = peers;
  const QueryOutcome outcome = engine.Execute(request);
  ASSERT_EQ(outcome.kind, QueryKind::kKnn);
  ASSERT_TRUE(outcome.knn.has_value());

  // The workspace form and a single-element batch must agree with the
  // convenience form exactly.
  QueryWorkspace workspace;
  QueryOutcome reused;
  engine.Execute(request, workspace, &reused);
  ASSERT_TRUE(reused.knn.has_value());
  const std::span<const QueryOutcome> batch =
      engine.ExecuteBatch(std::span<const QueryRequest>(&request, 1),
                          workspace);
  ASSERT_EQ(batch.size(), 1u);
  const QueryOutcome* const knn_modes[] = {&reused, &batch[0]};
  for (const QueryOutcome* other : knn_modes) {
    const SbnnOutcome& direct = *other->knn;
    EXPECT_EQ(outcome.knn->resolved_by, direct.resolved_by);
    EXPECT_EQ(outcome.knn->stats.access_latency, direct.stats.access_latency);
    EXPECT_EQ(outcome.knn->stats.tuning_time, direct.stats.tuning_time);
    ASSERT_EQ(outcome.knn->neighbors.size(), direct.neighbors.size());
    for (size_t i = 0; i < direct.neighbors.size(); ++i) {
      EXPECT_EQ(outcome.knn->neighbors[i].poi.id, direct.neighbors[i].poi.id);
    }
    EXPECT_EQ(outcome.ResolvedByPeers(),
              direct.resolved_by != ResolvedBy::kBroadcast);
    EXPECT_EQ(outcome.Stats().access_latency, direct.stats.access_latency);
  }
}

TEST(QueryEngineTest, ZeroKFallsBackToConfiguredDefault) {
  Fixture f(200);
  EngineOptions options;
  options.sbnn.k = 7;
  const QueryEngine engine(*f.system, kWorld, options);

  QueryRequest request;
  request.kind = QueryKind::kKnn;
  request.position = {10.0, 10.0};
  request.k = 0;  // "use the engine's default"
  const QueryOutcome outcome = engine.Execute(request);
  ASSERT_TRUE(outcome.knn.has_value());
  EXPECT_EQ(outcome.knn->neighbors.size(), 7u);
}

TEST(QueryEngineTest, WindowExecutionModesMatch) {
  Fixture f(300);
  const QueryEngine engine(*f.system, kWorld, EngineOptions{});

  const geom::Rect window{8.0, 8.0, 12.0, 12.0};
  QueryRequest request;
  request.kind = QueryKind::kWindow;
  request.window = window;
  request.slot = 5;
  const QueryOutcome outcome = engine.Execute(request);
  ASSERT_EQ(outcome.kind, QueryKind::kWindow);
  ASSERT_TRUE(outcome.window.has_value());
  // The window answer matches the oracle (the engine is the only public
  // entry point, so this doubles as the algorithm-level sanity check).
  const std::vector<spatial::Poi> truth =
      spatial::BruteForceWindow(f.system->pois(), window);
  EXPECT_EQ(outcome.window->pois, truth);

  QueryWorkspace workspace;
  QueryOutcome reused;
  engine.Execute(request, workspace, &reused);
  ASSERT_TRUE(reused.window.has_value());
  const std::span<const QueryOutcome> batch =
      engine.ExecuteBatch(std::span<const QueryRequest>(&request, 1),
                          workspace);
  ASSERT_EQ(batch.size(), 1u);
  const QueryOutcome* const window_modes[] = {&reused, &batch[0]};
  for (const QueryOutcome* other : window_modes) {
    const SbwqOutcome& direct = *other->window;
    EXPECT_EQ(outcome.window->resolved_by_peers, direct.resolved_by_peers);
    EXPECT_EQ(outcome.window->stats.access_latency,
              direct.stats.access_latency);
    ASSERT_EQ(outcome.window->pois.size(), direct.pois.size());
    for (size_t i = 0; i < direct.pois.size(); ++i) {
      EXPECT_EQ(outcome.window->pois[i].id, direct.pois[i].id);
    }
  }
}

TEST(QueryEngineTest, ValidateRejectsBadOptions) {
  Fixture f(50);
  EngineOptions bad_k;
  bad_k.sbnn.k = 0;
  EXPECT_DEATH(QueryEngine(*f.system, kWorld, bad_k), "LBSQ_CHECK");

  EngineOptions bad_correctness;
  bad_correctness.sbnn.min_correctness = 1.5;
  EXPECT_DEATH(QueryEngine(*f.system, kWorld, bad_correctness), "LBSQ_CHECK");

  EngineOptions bad_prefetch;
  bad_prefetch.sbnn.prefetch_radius_factor = 0.5;
  EXPECT_DEATH(QueryEngine(*f.system, kWorld, bad_prefetch), "LBSQ_CHECK");
}

TEST(QueryEngineTest, ValidateRejectsNonFiniteRequests) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  QueryRequest knn;
  knn.kind = QueryKind::kKnn;
  knn.position = {kNan, 1.0};
  EXPECT_DEATH(knn.Validate(), "LBSQ_CHECK");
  knn.position = {1.0, -kInf};
  EXPECT_DEATH(knn.Validate(), "LBSQ_CHECK");

  QueryRequest window;
  window.kind = QueryKind::kWindow;
  window.window = geom::Rect{1.0, 1.0, kInf, 2.0};
  EXPECT_DEATH(window.Validate(), "LBSQ_CHECK");
  window.window = geom::Rect{-kInf, 1.0, 2.0, 2.0};
  EXPECT_DEATH(window.Validate(), "LBSQ_CHECK");
}

TEST(QueryEngineTest, TraceRecordsBroadcastSpans) {
  if (!obs::kObservabilityCompiledIn) GTEST_SKIP();
  Fixture f(300);
  EngineOptions options;
  options.sbnn.accept_approximate = false;
  const QueryEngine engine(*f.system, kWorld, options);

  obs::TraceRecorder trace;
  trace.Reset(1, 0, "knn");
  QueryRequest request;
  request.kind = QueryKind::kKnn;
  request.position = {10.0, 10.0};
  request.slot = 0;
  request.trace = &trace;
  const QueryOutcome outcome = engine.Execute(request);
  ASSERT_EQ(outcome.knn->resolved_by, ResolvedBy::kBroadcast);

  bool saw_nnv = false, saw_fallback = false, saw_probe = false;
  for (const obs::TraceEvent& event : trace.events()) {
    if (std::string(event.name) == "sbnn.nnv") saw_nnv = true;
    if (std::string(event.name) == "sbnn.fallback") saw_fallback = true;
    if (std::string(event.name) == "bcast.probe") saw_probe = true;
  }
  EXPECT_TRUE(saw_nnv);
  EXPECT_TRUE(saw_fallback);
  EXPECT_TRUE(saw_probe);
}

}  // namespace
}  // namespace lbsq::core
