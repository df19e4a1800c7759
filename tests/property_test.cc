#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <tuple>
#include <vector>

#include <unordered_set>

#include "broadcast/system.h"
#include "common/rng.h"
#include "engine_shim.h"
#include "core/nnv.h"
#include "core/peer_cache.h"
#include "core/query_engine.h"
#include "core/query_workspace.h"
#include "core/sbnn.h"
#include "core/sbwq.h"
#include "dynamic/sharded_world.h"
#include "geom/rect_region.h"
#include "spatial/generators.h"

/// Parameterized property sweeps across densities, region sizes, and query
/// parameters — the invariants of DESIGN.md §4 exercised over wide input
/// spaces.

namespace lbsq {
namespace {

using core::PeerData;
using core::VerifiedRegion;
using spatial::Poi;

PeerData PeerWithRegion(const std::vector<Poi>& server, geom::Rect region) {
  VerifiedRegion vr;
  vr.region = region;
  for (const Poi& p : server) {
    if (region.Contains(p.pos)) vr.pois.push_back(p);
  }
  return PeerData{{vr}};
}

// --- Region algebra properties -------------------------------------------

class RegionAlgebraProperty
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(RegionAlgebraProperty, UnionInvariants) {
  const auto [num_rects, max_side] = GetParam();
  Rng rng(static_cast<uint64_t>(num_rects * 1000) +
          static_cast<uint64_t>(max_side * 10));
  for (int trial = 0; trial < 10; ++trial) {
    geom::RectRegion region;
    std::vector<geom::Rect> inputs;
    double bound_area = 0.0;
    for (int i = 0; i < num_rects; ++i) {
      const geom::Point a{rng.Uniform(0.0, 10.0), rng.Uniform(0.0, 10.0)};
      const geom::Rect r{a.x, a.y, a.x + rng.Uniform(0.05, max_side),
                         a.y + rng.Uniform(0.05, max_side)};
      inputs.push_back(r);
      region.Add(r);
      bound_area += r.area();
    }
    // Area is subadditive and at least the largest input.
    double max_input = 0.0;
    for (const auto& r : inputs) max_input = std::max(max_input, r.area());
    EXPECT_LE(region.Area(), bound_area + 1e-9);
    EXPECT_GE(region.Area(), max_input - 1e-9);
    // Membership: every input corner and center is in the region.
    for (const auto& r : inputs) {
      EXPECT_TRUE(region.Contains(r.center()));
      EXPECT_TRUE(region.Contains({r.x1, r.y1}));
      EXPECT_TRUE(region.Contains({r.x2, r.y2}));
      EXPECT_TRUE(region.ContainsRect(r));
    }
    // Random points: region membership == any input rect contains it.
    for (int probe = 0; probe < 200; ++probe) {
      const geom::Point p{rng.Uniform(-1.0, 12.0), rng.Uniform(-1.0, 12.0)};
      const bool in_any =
          std::any_of(inputs.begin(), inputs.end(),
                      [&p](const geom::Rect& r) { return r.Contains(p); });
      EXPECT_EQ(region.Contains(p), in_any);
    }
    // Idempotence: re-adding all inputs changes nothing.
    const double area_before = region.Area();
    for (const auto& r : inputs) region.Add(r);
    EXPECT_DOUBLE_EQ(region.Area(), area_before);
  }
}

TEST_P(RegionAlgebraProperty, SubtractComplementsContainment) {
  const auto [num_rects, max_side] = GetParam();
  Rng rng(77 + static_cast<uint64_t>(num_rects));
  for (int trial = 0; trial < 10; ++trial) {
    geom::RectRegion region;
    for (int i = 0; i < num_rects; ++i) {
      const geom::Point a{rng.Uniform(0.0, 10.0), rng.Uniform(0.0, 10.0)};
      region.Add(geom::Rect{a.x, a.y, a.x + rng.Uniform(0.1, max_side),
                            a.y + rng.Uniform(0.1, max_side)});
    }
    const geom::Point a{rng.Uniform(0.0, 8.0), rng.Uniform(0.0, 8.0)};
    const geom::Rect query{a.x, a.y, a.x + rng.Uniform(0.5, 4.0),
                           a.y + rng.Uniform(0.5, 4.0)};
    std::vector<geom::Rect> residual;
    region.SubtractFrom(query, &residual);
    double residual_area = 0.0;
    for (const auto& r : residual) {
      residual_area += r.area();
      EXPECT_TRUE(query.ContainsRect(r));
    }
    // area(query) = area(query ∩ region) + area(residual).
    geom::RectRegion clipped;
    for (const auto& piece : region.pieces()) {
      const geom::Rect overlap = piece.Intersection(query);
      if (!overlap.empty()) clipped.Add(overlap);
    }
    EXPECT_NEAR(residual_area + clipped.Area(), query.area(), 1e-9);
    // Empty residual <=> containment.
    EXPECT_EQ(residual.empty(), region.ContainsRect(query));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RegionAlgebraProperty,
    ::testing::Combine(::testing::Values(1, 3, 8, 20, 50),
                       ::testing::Values(0.5, 2.0, 6.0)));

// --- Disc-coverage area against Monte Carlo -------------------------------

class DiscCoverageProperty : public ::testing::TestWithParam<int> {};

TEST_P(DiscCoverageProperty, CoveredAreaMatchesMonteCarlo) {
  const int num_rects = GetParam();
  Rng rng(900 + static_cast<uint64_t>(num_rects));
  for (int trial = 0; trial < 5; ++trial) {
    geom::RectRegion region;
    for (int i = 0; i < num_rects; ++i) {
      const geom::Point c{rng.Uniform(2.0, 8.0), rng.Uniform(2.0, 8.0)};
      region.Add(geom::Rect::CenteredSquare(c, rng.Uniform(0.3, 1.5)));
    }
    const geom::Circle disc{{rng.Uniform(3.0, 7.0), rng.Uniform(3.0, 7.0)},
                            rng.Uniform(0.5, 2.5)};
    const double exact = region.DiscCoveredArea(disc);
    // Monte Carlo over the disc.
    int inside = 0;
    const int samples = 60000;
    for (int s = 0; s < samples; ++s) {
      const double radius = disc.radius * std::sqrt(rng.NextDouble());
      const double angle = rng.Uniform(0.0, 2.0 * M_PI);
      const geom::Point p{disc.center.x + radius * std::cos(angle),
                          disc.center.y + radius * std::sin(angle)};
      if (region.Contains(p)) ++inside;
    }
    const double mc =
        disc.area() * static_cast<double>(inside) / samples;
    const double sigma = disc.area() / std::sqrt(static_cast<double>(samples));
    EXPECT_NEAR(exact, mc, 4.0 * sigma + 1e-6)
        << "rects " << num_rects << " trial " << trial;
    // Bounds: covered <= disc area, uncovered >= 0.
    EXPECT_LE(exact, disc.area() + 1e-9);
    EXPECT_GE(region.DiscUncoveredArea(disc), -1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, DiscCoverageProperty,
                         ::testing::Values(1, 4, 12, 30));

// --- SBWQ residual decomposition invariants --------------------------------

class SbwqResidualProperty : public ::testing::TestWithParam<int> {};

TEST_P(SbwqResidualProperty, ResidualsPartitionTheUncoveredWindow) {
  const int num_regions = GetParam();
  Rng rng(1300 + static_cast<uint64_t>(num_regions));
  for (int trial = 0; trial < 15; ++trial) {
    geom::RectRegion mvr;
    for (int i = 0; i < num_regions; ++i) {
      const geom::Point c{rng.Uniform(0.0, 10.0), rng.Uniform(0.0, 10.0)};
      mvr.Add(geom::Rect::CenteredSquare(c, rng.Uniform(0.4, 2.0)));
    }
    const geom::Point a{rng.Uniform(0.0, 7.0), rng.Uniform(0.0, 7.0)};
    const geom::Rect window{a.x, a.y, a.x + rng.Uniform(1.0, 3.0),
                            a.y + rng.Uniform(1.0, 3.0)};
    std::vector<geom::Rect> residuals;
    mvr.SubtractFrom(window, &residuals);
    // Residuals are inside the window, interior-disjoint, disjoint from the
    // MVR interior, and their area completes the covered part.
    double residual_area = 0.0;
    for (size_t i = 0; i < residuals.size(); ++i) {
      EXPECT_TRUE(window.ContainsRect(residuals[i]));
      residual_area += residuals[i].area();
      EXPECT_FALSE(mvr.Contains(residuals[i].center()));
      for (size_t j = i + 1; j < residuals.size(); ++j) {
        EXPECT_LE(residuals[i].Intersection(residuals[j]).area(), 0.0);
      }
    }
    geom::RectRegion covered;
    for (const auto& piece : mvr.pieces()) {
      const geom::Rect overlap = piece.Intersection(window);
      if (!overlap.empty()) covered.Add(overlap);
    }
    EXPECT_NEAR(residual_area + covered.Area(), window.area(), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SbwqResidualProperty,
                         ::testing::Values(0, 2, 6, 15, 40));

// --- NNV soundness across POI densities and peer footprints ---------------

class NnvProperty
    : public ::testing::TestWithParam<std::tuple<int, double, int>> {};

TEST_P(NnvProperty, VerifiedPrefixMatchesOracle) {
  const auto [n_pois, region_half, k] = GetParam();
  Rng rng(static_cast<uint64_t>(n_pois) * 31 +
          static_cast<uint64_t>(k) * 7);
  const geom::Rect world{0.0, 0.0, 10.0, 10.0};
  for (int trial = 0; trial < 20; ++trial) {
    const auto server = spatial::GenerateUniformPois(&rng, world, n_pois);
    std::vector<PeerData> peers;
    const int n_peers = static_cast<int>(rng.UniformInt(0, 10));
    for (int p = 0; p < n_peers; ++p) {
      const geom::Point c{rng.Uniform(0.0, 10.0), rng.Uniform(0.0, 10.0)};
      peers.push_back(PeerWithRegion(
          server, geom::Rect::CenteredSquare(c, region_half)));
    }
    const geom::Point q{rng.Uniform(0.0, 10.0), rng.Uniform(0.0, 10.0)};
    const core::NnvResult result = core::NearestNeighborVerify(
        q, k, peers, static_cast<double>(n_pois) / 100.0);
    const auto truth = spatial::BruteForceKnn(server, q, k);
    const auto& entries = result.heap.entries();
    // Property 1: the verified prefix equals the oracle prefix.
    for (size_t i = 0; i < entries.size() && entries[i].verified; ++i) {
      ASSERT_LT(i, truth.size());
      EXPECT_EQ(entries[i].poi.id, truth[i].poi.id);
    }
    // Property 2: the k-NN disc of the verified prefix is inside the MVR.
    const auto lower = result.heap.LowerBound();
    if (lower.has_value() && *lower > 0.0) {
      EXPECT_TRUE(
          result.mvr.ContainsDisc(geom::Circle{q, *lower * (1 - 1e-12)}));
    }
    // Property 3: correctness probabilities are valid and monotone
    // (later unverified entries have larger unverified regions).
    double prev_correctness = 1.0;
    for (const auto& e : entries) {
      EXPECT_GE(e.correctness, 0.0);
      EXPECT_LE(e.correctness, 1.0);
      if (!e.verified) {
        EXPECT_LE(e.correctness, prev_correctness + 1e-9);
        prev_correctness = e.correctness;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, NnvProperty,
    ::testing::Combine(::testing::Values(20, 100, 400),
                       ::testing::Values(0.4, 1.0, 2.5),
                       ::testing::Values(1, 5, 12)));

// --- NNV soundness against real peer caches (Lemma 3.1) --------------------

// The sweep above hand-builds complete verified regions; this property runs
// NNV against peer data produced by actual PeerCache instances — including
// capacity-driven region shrinking and direction-based eviction — across
// 1000 randomized configurations. Lemma 3.1's claim under test: a POI
// reported as *verified* is always a member of the brute-force kNN answer
// (NNV may verify fewer than k, never a wrong one). Holds for the sound
// cache policy; kCollectiveMbr forfeits it by design.
TEST(NnvCacheSoundness, NeverVerifiesAPoiTheOracleRejects) {
  Rng rng(20240806);
  const geom::Rect world{0.0, 0.0, 10.0, 10.0};
  int64_t verified_total = 0;
  for (int config = 0; config < 1000; ++config) {
    const int n_pois = static_cast<int>(rng.UniformInt(10, 250));
    const auto server = spatial::GenerateUniformPois(&rng, world, n_pois);

    // A handful of hosts, each with a capacity-constrained cache fed a few
    // complete regions (the insert invariant the simulator maintains).
    const int n_hosts = static_cast<int>(rng.UniformInt(1, 8));
    std::vector<PeerData> peers;
    for (int h = 0; h < n_hosts; ++h) {
      core::PeerCache cache(static_cast<int>(rng.UniformInt(1, 40)),
                            static_cast<int>(rng.UniformInt(1, 6)));
      const int n_inserts = static_cast<int>(rng.UniformInt(1, 5));
      for (int i = 0; i < n_inserts; ++i) {
        const geom::Point c{rng.Uniform(0.0, 10.0), rng.Uniform(0.0, 10.0)};
        const geom::Rect region =
            geom::Rect::CenteredSquare(c, rng.Uniform(0.2, 2.5));
        VerifiedRegion vr;
        vr.region = region;
        for (const Poi& p : server) {
          if (region.Contains(p.pos)) vr.pois.push_back(p);
        }
        const double angle = rng.Uniform(0.0, 2.0 * M_PI);
        cache.Insert(vr, c,
                     {rng.Uniform(0.0, 10.0), rng.Uniform(0.0, 10.0)},
                     {std::cos(angle), std::sin(angle)});
      }
      PeerData shared = cache.Share();
      if (!shared.empty()) peers.push_back(std::move(shared));
    }

    const geom::Point q{rng.Uniform(0.0, 10.0), rng.Uniform(0.0, 10.0)};
    const int k = static_cast<int>(rng.UniformInt(1, 10));
    const core::NnvResult result = core::NearestNeighborVerify(
        q, k, peers, static_cast<double>(n_pois) / world.area());
    const auto truth = spatial::BruteForceKnn(server, q, k);

    const auto& entries = result.heap.entries();
    for (size_t i = 0; i < entries.size(); ++i) {
      if (!entries[i].verified) break;  // verified entries form a prefix
      // The i-th verified entry IS the oracle's i-th nearest neighbor.
      ASSERT_LT(i, truth.size()) << "config " << config;
      EXPECT_EQ(entries[i].poi.id, truth[i].poi.id)
          << "config " << config << " rank " << i;
      ++verified_total;
    }
  }
  // The sweep must actually exercise verification, not vacuously pass.
  EXPECT_GT(verified_total, 100);
}

// --- SBNN / SBWQ end-to-end exactness across broadcast organizations ------

class SharingExactnessProperty
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(SharingExactnessProperty, SbnnAlwaysExact) {
  const auto [bucket_capacity, m, hilbert_order] = GetParam();
  const geom::Rect world{0.0, 0.0, 20.0, 20.0};
  Rng rng(static_cast<uint64_t>(bucket_capacity) * 131 +
          static_cast<uint64_t>(m) * 17 + static_cast<uint64_t>(hilbert_order));
  broadcast::BroadcastParams params;
  params.bucket_capacity = bucket_capacity;
  params.m = m;
  params.hilbert_order = hilbert_order;
  auto system = std::make_unique<broadcast::BroadcastSystem>(
      spatial::GenerateUniformPois(&rng, world, 250), world, params);
  for (int trial = 0; trial < 15; ++trial) {
    const geom::Point q{rng.Uniform(0.0, 20.0), rng.Uniform(0.0, 20.0)};
    std::vector<PeerData> peers;
    const int n_peers = static_cast<int>(rng.UniformInt(0, 3));
    for (int p = 0; p < n_peers; ++p) {
      peers.push_back(PeerWithRegion(
          system->pois(),
          geom::Rect::CenteredSquare(
              {q.x + rng.Uniform(-1.0, 1.0), q.y + rng.Uniform(-1.0, 1.0)},
              rng.Uniform(0.3, 2.0))));
    }
    core::SbnnOptions options;
    options.k = static_cast<int>(rng.UniformInt(1, 10));
    options.accept_approximate = false;
    const core::SbnnOutcome outcome = core::RunSbnn(
        q, options, peers, 250.0 / world.area(), *system, trial * 3);
    const auto truth =
        spatial::BruteForceKnn(system->pois(), q, options.k);
    ASSERT_EQ(outcome.neighbors.size(), truth.size());
    for (size_t i = 0; i < truth.size(); ++i) {
      EXPECT_DOUBLE_EQ(outcome.neighbors[i].distance, truth[i].distance);
    }
  }
}

TEST_P(SharingExactnessProperty, SbwqAlwaysExact) {
  const auto [bucket_capacity, m, hilbert_order] = GetParam();
  const geom::Rect world{0.0, 0.0, 20.0, 20.0};
  Rng rng(static_cast<uint64_t>(bucket_capacity) * 57 +
          static_cast<uint64_t>(m) * 3 + static_cast<uint64_t>(hilbert_order));
  broadcast::BroadcastParams params;
  params.bucket_capacity = bucket_capacity;
  params.m = m;
  params.hilbert_order = hilbert_order;
  auto system = std::make_unique<broadcast::BroadcastSystem>(
      spatial::GenerateUniformPois(&rng, world, 250), world, params);
  for (int trial = 0; trial < 15; ++trial) {
    const geom::Point a{rng.Uniform(0.0, 16.0), rng.Uniform(0.0, 16.0)};
    const geom::Rect window{a.x, a.y, a.x + rng.Uniform(0.5, 4.0),
                            a.y + rng.Uniform(0.5, 4.0)};
    std::vector<PeerData> peers;
    const int n_peers = static_cast<int>(rng.UniformInt(0, 3));
    for (int p = 0; p < n_peers; ++p) {
      peers.push_back(PeerWithRegion(
          system->pois(),
          geom::Rect::CenteredSquare(
              {a.x + rng.Uniform(-2.0, 2.0), a.y + rng.Uniform(-2.0, 2.0)},
              rng.Uniform(0.5, 3.0))));
    }
    const core::SbwqOutcome outcome =
        core::RunSbwq(window, {}, peers, *system, trial * 3);
    EXPECT_EQ(outcome.pois,
              spatial::BruteForceWindow(system->pois(), window));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SharingExactnessProperty,
    ::testing::Combine(::testing::Values(2, 8, 32),
                       ::testing::Values(1, 4),
                       ::testing::Values(3, 6)));

// --- Cache invariant under adversarial churn -------------------------------

class CacheChurnProperty : public ::testing::TestWithParam<int> {};

TEST_P(CacheChurnProperty, InvariantSurvivesChurn) {
  const int capacity = GetParam();
  Rng rng(500 + static_cast<uint64_t>(capacity));
  const geom::Rect world{0.0, 0.0, 10.0, 10.0};
  const auto server = spatial::GenerateUniformPois(&rng, world, 300);
  core::PeerCache cache(capacity, 6);
  for (int step = 0; step < 100; ++step) {
    const geom::Point c{rng.Uniform(0.0, 10.0), rng.Uniform(0.0, 10.0)};
    const geom::Rect region =
        geom::Rect::CenteredSquare(c, rng.Uniform(0.2, 2.0));
    VerifiedRegion vr;
    vr.region = region;
    for (const Poi& p : server) {
      if (region.Contains(p.pos)) vr.pois.push_back(p);
    }
    const geom::Point host{rng.Uniform(0.0, 10.0), rng.Uniform(0.0, 10.0)};
    cache.Insert(vr, c, host, {rng.Uniform(-1.0, 1.0), rng.Uniform(-1.0, 1.0)});
    EXPECT_LE(cache.TotalPois(), capacity);
    for (const VerifiedRegion& entry : cache.entries()) {
      for (const Poi& p : server) {
        if (!entry.region.Contains(p.pos)) continue;
        EXPECT_TRUE(std::any_of(
            entry.pois.begin(), entry.pois.end(),
            [&p](const Poi& c2) { return c2.id == p.id; }))
            << "step " << step;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Capacities, CacheChurnProperty,
                         ::testing::Values(1, 5, 20, 100));

// --- Snapshot isolation under randomized update/query interleavings --------

// 1000 randomized interleavings of POI update batches and epoch-pinned
// queries. The property of MVCC-lite snapshot isolation: a query pinned to
// epoch e sees exactly the epoch-e POI database — it never observes a POI
// deleted at or before e, never misses one inserted at or before e, and its
// kNN / window answers equal the brute-force oracle over the epoch-e
// snapshot, regardless of how many later epochs exist by the time it runs.
TEST(DynamicWorldProperty, PinnedQueriesMatchTheirEpochSnapshot) {
  Rng rng(20260808);
  const geom::Rect world{0.0, 0.0, 10.0, 10.0};
  int64_t steps_total = 0;
  int64_t deleted_checks = 0;
  int64_t inserted_checks = 0;
  for (int config = 0; config < 50; ++config) {
    const int n_pois = static_cast<int>(rng.UniformInt(20, 120));
    std::vector<Poi> initial = spatial::GenerateUniformPois(&rng, world,
                                                            n_pois);
    broadcast::BroadcastParams params;
    params.bucket_capacity = static_cast<int>(rng.UniformInt(2, 16));
    params.m = static_cast<int>(rng.UniformInt(1, 4));
    core::EngineOptions options;
    options.sbnn.accept_approximate = false;
    // One to four shards: snapshot isolation must not depend on how many
    // channels a batch republishes.
    dynamic::ShardedWorld versions(initial, world, params, options,
                                   1 + config % 4);
    // Every published epoch, pinned by id: a retained pin keeps its epoch
    // queryable however many epochs follow.
    std::vector<std::shared_ptr<const dynamic::ShardedEpoch>> history{
        versions.Current()};
    int64_t next_id = 1000000;  // disjoint from generated ids

    // Cumulative-by-epoch bookkeeping: ids deleted at or before epoch e,
    // POIs inserted at or before epoch e (and not re-deleted by then).
    std::vector<std::unordered_set<int64_t>> deleted_by{{}};
    std::vector<std::vector<Poi>> inserted_by{{}};

    core::ShardedQueryWorkspace workspace;
    core::QueryOutcome outcome;
    for (int step = 0; step < 20; ++step) {
      ++steps_total;
      if (rng.NextBool(0.4)) {
        // Apply a random update batch -> publish the next epoch.
        const std::vector<Poi>& live = history.back()->pois;
        std::vector<dynamic::PoiUpdate> batch;
        deleted_by.push_back(deleted_by.back());
        inserted_by.push_back(inserted_by.back());
        const int n_ops = static_cast<int>(rng.UniformInt(1, 6));
        for (int op = 0; op < n_ops; ++op) {
          const double kind = rng.NextDouble();
          dynamic::PoiUpdate u;
          if (kind < 0.4 && !live.empty()) {
            u.kind = dynamic::PoiUpdate::Kind::kDelete;
            u.id = live[rng.NextBelow(live.size())].id;
            deleted_by.back().insert(u.id);
            std::erase_if(inserted_by.back(),
                          [&u](const Poi& p) { return p.id == u.id; });
          } else if (kind < 0.7 && !live.empty()) {
            u.kind = dynamic::PoiUpdate::Kind::kMove;
            u.id = live[rng.NextBelow(live.size())].id;
            u.pos = {rng.Uniform(0.0, 10.0), rng.Uniform(0.0, 10.0)};
            std::erase_if(inserted_by.back(),
                          [&u](const Poi& p) { return p.id == u.id; });
          } else {
            u.kind = dynamic::PoiUpdate::Kind::kInsert;
            u.id = next_id++;
            u.pos = {rng.Uniform(0.0, 10.0), rng.Uniform(0.0, 10.0)};
            inserted_by.back().push_back(Poi{u.id, u.pos});
          }
          batch.push_back(u);
        }
        versions.Apply(std::move(batch));
        history.push_back(versions.Current());
        ASSERT_EQ(versions.latest_epoch() + 1, deleted_by.size());
      }

      // Pin a (possibly historical) epoch and query it.
      const uint64_t e = static_cast<uint64_t>(
          rng.UniformInt(0, static_cast<int64_t>(versions.latest_epoch())));
      const std::shared_ptr<const dynamic::ShardedEpoch>& epoch =
          history[static_cast<size_t>(e)];
      ASSERT_EQ(epoch->id, e);

      core::QueryRequest knn;
      knn.kind = core::QueryKind::kKnn;
      knn.position = {rng.Uniform(0.0, 10.0), rng.Uniform(0.0, 10.0)};
      knn.k = static_cast<int>(rng.UniformInt(1, 8));
      knn.slot = step * 5;
      epoch->engine->Execute(knn, workspace, &outcome);
      const auto truth =
          spatial::BruteForceKnn(epoch->pois, knn.position, knn.k);
      ASSERT_EQ(outcome.knn->neighbors.size(), truth.size());
      for (size_t i = 0; i < truth.size(); ++i) {
        EXPECT_EQ(outcome.knn->neighbors[i].poi.id, truth[i].poi.id)
            << "config " << config << " step " << step << " epoch " << e;
        // Never observe a POI deleted at or before the pinned epoch.
        EXPECT_FALSE(deleted_by[e].contains(outcome.knn->neighbors[i].poi.id));
        ++deleted_checks;
      }

      core::QueryRequest win;
      win.kind = core::QueryKind::kWindow;
      const geom::Point a{rng.Uniform(0.0, 7.0), rng.Uniform(0.0, 7.0)};
      win.window = {a.x, a.y, a.x + rng.Uniform(0.5, 3.0),
                    a.y + rng.Uniform(0.5, 3.0)};
      win.slot = step * 5;
      epoch->engine->Execute(win, workspace, &outcome);
      EXPECT_EQ(outcome.window->pois,
                spatial::BruteForceWindow(epoch->pois, win.window))
          << "config " << config << " step " << step << " epoch " << e;
      for (const Poi& p : outcome.window->pois) {
        EXPECT_FALSE(deleted_by[e].contains(p.id));
        ++deleted_checks;
      }
      // Never miss a POI inserted at or before the pinned epoch.
      for (const Poi& p : inserted_by[e]) {
        if (!win.window.Contains(p.pos)) continue;
        EXPECT_TRUE(std::any_of(
            outcome.window->pois.begin(), outcome.window->pois.end(),
            [&p](const Poi& q) { return q.id == p.id; }))
            << "config " << config << " step " << step << " epoch " << e;
        ++inserted_checks;
      }
    }
  }
  EXPECT_EQ(steps_total, 1000);
  // The sweep must actually exercise the staleness hazards, not vacuously
  // pass.
  EXPECT_GT(deleted_checks, 500);
  EXPECT_GT(inserted_checks, 50);
}

}  // namespace
}  // namespace lbsq
