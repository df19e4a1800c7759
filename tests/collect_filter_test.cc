#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>
#include <tuple>
#include <vector>

#include "broadcast/system.h"
#include "common/observability.h"
#include "common/rng.h"
#include "core/query_engine.h"
#include "core/query_workspace.h"
#include "fault/fault_model.h"
#include "fault/peer_faults.h"
#include "hilbert/hilbert.h"
#include "onair/onair_window.h"
#include "sim/config.h"
#include "spatial/generators.h"
#include "spatial/poi.h"
#include "spatial/rtree.h"

/// Differential oracle for output-sensitive bucket collection. The engine
/// downloads the whole cover span (or ranges) but processes only the
/// received buckets whose MBR can meet the answer; these tests rebuild the
/// answer the engine gave before that split — everything received, merged
/// with the peer candidates — straight from each outcome, and require the
/// two to agree field for field across index organizations, curves,
/// retrieval strategies, bucket capacities, honest and corrupted peers and
/// a lossy channel. They also pin the certificate fallback
/// (`sbnn.collect_refills`) and the cycle memo's replay.

namespace lbsq {
namespace {

using core::QueryKind;
using core::QueryOutcome;
using core::QueryRequest;
using spatial::Poi;

struct Dataset {
  geom::Rect world;
  std::vector<Poi> pois;
  int order = 7;
  /// Jitter of query positions around their anchor POI.
  double spread = 0.1;
  spatial::RTree tree;
};

// Table 3 "Los Angeles City" at full scale: 2,750 uniform POIs on 20 mi.
const Dataset& LaCity() {
  static const Dataset* d = [] {
    auto* data = new Dataset;
    data->world = geom::Rect{0.0, 0.0, 20.0, 20.0};
    Rng rng(11);
    data->pois = spatial::GenerateUniformPois(
        &rng, data->world,
        static_cast<int>(sim::LosAngelesCity().poi_number));
    data->tree = spatial::RTree::BulkLoadStr(data->pois);
    return data;
  }();
  return *d;
}

// A clustered metro city at curve order 9: 60% of the POIs in 80 cores, so
// a kNN span crosses major curve boundaries and holds far more buckets than
// the search square meets.
const Dataset& Metro() {
  static const Dataset* d = [] {
    auto* data = new Dataset;
    data->world = geom::Rect{0.0, 0.0, 40.0, 40.0};
    data->order = 9;
    data->spread = 0.15;
    Rng rng(5);
    data->pois = spatial::GenerateMetroPois(&rng, data->world, 40'000,
                                            /*clustered_fraction=*/0.6,
                                            /*num_clusters=*/80,
                                            /*cluster_spread=*/0.5);
    data->tree = spatial::RTree::BulkLoadStr(data->pois);
    return data;
  }();
  return *d;
}

geom::Point QueryPoint(const Dataset& d, Rng* rng) {
  const Poi& anchor = d.pois[rng->NextBelow(d.pois.size())];
  return geom::Point{
      std::clamp(anchor.pos.x + rng->Normal(0.0, d.spread), d.world.x1,
                 d.world.x2),
      std::clamp(anchor.pos.y + rng->Normal(0.0, d.spread), d.world.y1,
                 d.world.y2)};
}

// One or two complete verified regions around q (honest peers).
std::vector<core::PeerData> HonestPeers(const Dataset& d, geom::Point q,
                                        Rng* rng) {
  std::vector<core::PeerData> peers(rng->NextBool(0.5) ? 1 : 2);
  for (core::PeerData& peer : peers) {
    core::VerifiedRegion vr;
    const geom::Point c{q.x + rng->Normal(0.0, 2.0 * d.spread),
                        q.y + rng->Normal(0.0, 2.0 * d.spread)};
    vr.region = geom::Rect::CenteredSquare(
        c, rng->Uniform(0.5, 6.0) * d.spread);
    vr.pois = d.tree.WindowQuery(vr.region);
    peer.regions.push_back(std::move(vr));
  }
  return peers;
}

// Buckets the client actually received: the download set minus the ones
// the faulty channel gave up on.
std::vector<int64_t> Received(const core::QueryResultCommon& c) {
  std::vector<int64_t> failed = c.failed_buckets;
  std::sort(failed.begin(), failed.end());
  std::vector<int64_t> out;
  std::set_difference(c.buckets.begin(), c.buckets.end(), failed.begin(),
                      failed.end(), std::back_inserter(out));
  return out;
}

void SortUniqueById(std::vector<Poi>* pois) {
  std::sort(pois->begin(), pois->end(),
            [](const Poi& a, const Poi& b) { return a.id < b.id; });
  pois->erase(std::unique(pois->begin(), pois->end()), pois->end());
}

std::vector<Poi> InRect(const std::vector<Poi>& pois, const geom::Rect& r) {
  std::vector<Poi> out;
  for (const Poi& p : pois) {
    if (r.Contains(p.pos)) out.push_back(p);
  }
  return out;
}

void ExpectNeighborsEq(const std::vector<spatial::PoiDistance>& got,
                       const std::vector<spatial::PoiDistance>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].poi, want[i].poi) << "i=" << i;
    EXPECT_EQ(got[i].distance, want[i].distance) << "i=" << i;
  }
}

// The pre-split kNN answer: every received bucket plus the NNV candidates,
// scanned whole. Returns false for peer-resolved outcomes (nothing
// collected, nothing to compare).
bool ExpectKnnMatchesOracle(const broadcast::BroadcastSystem& system,
                            const QueryRequest& request,
                            const QueryOutcome& outcome) {
  const core::SbnnOutcome& o = *outcome.knn;
  if (o.resolved_by != core::ResolvedBy::kBroadcast) return false;
  std::vector<Poi> known = system.CollectPois(Received(o));
  if (!o.nnv.candidates.empty()) {
    for (const spatial::PoiDistance& c : o.nnv.candidates) {
      known.push_back(c.poi);
    }
    SortUniqueById(&known);
  }
  ExpectNeighborsEq(o.neighbors,
                    spatial::BruteForceKnn(known, request.position,
                                           o.nnv.heap.k()));
  if (o.degraded) {
    EXPECT_TRUE(o.cacheable.region.empty());
    EXPECT_TRUE(o.cacheable.pois.empty());
  } else {
    EXPECT_EQ(o.cacheable.pois, InRect(known, o.cacheable.region));
  }
  return true;
}

// The pre-split window answer: the peers' POIs inside the window plus every
// received POI inside it.
void ExpectWindowMatchesOracle(const broadcast::BroadcastSystem& system,
                               const QueryRequest& request,
                               const QueryOutcome& outcome) {
  const core::SbwqOutcome& o = *outcome.window;
  std::vector<Poi> pool;
  for (const core::PeerData& peer : request.peers) {
    for (const core::VerifiedRegion& vr : peer.regions) {
      const std::vector<Poi> inside = InRect(vr.pois, request.window);
      pool.insert(pool.end(), inside.begin(), inside.end());
    }
  }
  const bool peers_contributed = !pool.empty();
  if (!o.residual_windows.empty()) {
    const std::vector<Poi> inside =
        InRect(system.CollectPois(Received(o)), request.window);
    pool.insert(pool.end(), inside.begin(), inside.end());
  }
  if (peers_contributed) SortUniqueById(&pool);
  EXPECT_EQ(o.pois, pool);
  if (o.degraded) {
    EXPECT_TRUE(o.cacheable.region.empty());
  } else {
    EXPECT_EQ(o.cacheable.region, request.window);
    EXPECT_EQ(o.cacheable.pois, pool);
  }
}

void ExpectSameOutcome(const QueryOutcome& a, const QueryOutcome& b) {
  ASSERT_EQ(a.kind, b.kind);
  const core::QueryResultCommon& ca = a.Common();
  const core::QueryResultCommon& cb = b.Common();
  EXPECT_EQ(ca.stats.access_latency, cb.stats.access_latency);
  EXPECT_EQ(ca.stats.tuning_time, cb.stats.tuning_time);
  EXPECT_EQ(ca.stats.buckets_read, cb.stats.buckets_read);
  EXPECT_EQ(ca.buckets, cb.buckets);
  EXPECT_EQ(ca.failed_buckets, cb.failed_buckets);
  EXPECT_EQ(ca.degraded, cb.degraded);
  EXPECT_EQ(ca.cacheable.region, cb.cacheable.region);
  EXPECT_EQ(ca.cacheable.pois, cb.cacheable.pois);
  if (a.kind == QueryKind::kKnn) {
    EXPECT_EQ(a.knn->resolved_by, b.knn->resolved_by);
    EXPECT_EQ(a.knn->buckets_skipped, b.knn->buckets_skipped);
    ExpectNeighborsEq(a.knn->neighbors, b.knn->neighbors);
  } else {
    EXPECT_EQ(a.window->resolved_by_peers, b.window->resolved_by_peers);
    EXPECT_EQ(a.window->residual_windows, b.window->residual_windows);
    EXPECT_EQ(a.window->pois, b.window->pois);
  }
}

int CountRefills(const obs::TraceRecorder& trace) {
  int n = 0;
  for (const obs::TraceEvent& e : trace.events()) {
    if (std::string(e.name) == "sbnn.collect_refills") ++n;
  }
  return n;
}

enum class DataKind { kLaCity, kMetro };
enum class PeerMode { kNone, kHonest, kCorrupted };

using Combo = std::tuple<DataKind, broadcast::IndexKind, hilbert::CurveKind,
                         onair::WindowRetrieval, int>;

class CollectFilterTest : public ::testing::TestWithParam<Combo> {};

TEST_P(CollectFilterTest, AnswersMatchTheWholeDownloadOracle) {
  const auto [data_kind, index_kind, curve, retrieval, capacity] = GetParam();
  const Dataset& d = data_kind == DataKind::kLaCity ? LaCity() : Metro();
  broadcast::BroadcastParams params;
  params.hilbert_order = d.order;
  params.index_kind = index_kind;
  params.curve = curve;
  params.bucket_capacity = capacity;
  const broadcast::BroadcastSystem system(d.pois, d.world, params);
  const int64_t cycle = system.schedule().cycle_length();

  fault::PeerFaultConfig corrupt;
  corrupt.stale_prob = 0.3;
  corrupt.stale_drift = 2.0 * d.spread;
  corrupt.truncate_prob = 0.3;
  corrupt.flip_prob = 0.2;

  int broadcast_knn = 0;
  int degraded = 0;
  for (int variant = 0; variant < 4; ++variant) {
    core::EngineOptions options;
    options.sbwq.retrieval = retrieval;
    if (variant % 2 == 1) {
      // The non-paper knobs: index-tightened radius, prefetch, no
      // approximate acceptance, no window reduction.
      options.sbnn.accept_approximate = false;
      options.sbnn.tighten_with_index_bound = true;
      options.sbnn.prefetch_radius_factor = 1.5;
      options.sbwq.use_window_reduction = false;
    }
    if (variant >= 2) {
      options.fault.channel.model = fault::LossModel::kIid;
      options.fault.channel.loss_prob = 0.3;
      options.fault.channel.corruption_prob = 0.05;
      options.fault.policy.max_retries_per_bucket = 1;
      options.fault.seed = 7;
    }
    const core::QueryEngine engine(system, d.world, options);
    core::QueryWorkspace shared;
    Rng rng(1000 + static_cast<uint64_t>(variant));
    for (PeerMode mode :
         {PeerMode::kNone, PeerMode::kHonest, PeerMode::kCorrupted}) {
      for (int i = 0; i < 24; ++i) {
        const geom::Point q = QueryPoint(d, &rng);
        std::vector<core::PeerData> peers;
        if (mode != PeerMode::kNone) peers = HonestPeers(d, q, &rng);
        if (mode == PeerMode::kCorrupted) {
          fault::CorruptPeerData(corrupt, &rng, &peers);
        }
        QueryRequest request;
        request.slot = rng.UniformInt(0, 3 * cycle);
        request.peers = peers;
        request.fault_stream = static_cast<uint64_t>(i);
        if (i % 2 == 0) {
          request.kind = QueryKind::kKnn;
          request.position = q;
          request.k = static_cast<int>(rng.UniformInt(1, 12));
        } else {
          request.kind = QueryKind::kWindow;
          const double w = d.world.width();
          request.window = geom::Rect{
              q.x - rng.Uniform(0.002, 0.04) * w,
              q.y - rng.Uniform(0.002, 0.04) * w,
              q.x + rng.Uniform(0.002, 0.04) * w,
              q.y + rng.Uniform(0.002, 0.04) * w};
        }
        SCOPED_TRACE(::testing::Message()
                     << "variant=" << variant << " mode="
                     << static_cast<int>(mode) << " i=" << i);

        // First pass through the shared workspace, then again (the memo
        // now holds this request's cover), then a fresh workspace.
        QueryOutcome first;
        QueryOutcome replay;
        engine.Execute(request, shared, &first);
        engine.Execute(request, shared, &replay);
        const QueryOutcome fresh = engine.Execute(request);
        ExpectSameOutcome(first, replay);
        ExpectSameOutcome(first, fresh);

        if (request.kind == QueryKind::kKnn) {
          if (ExpectKnnMatchesOracle(system, request, first)) ++broadcast_knn;
        } else {
          ExpectWindowMatchesOracle(system, request, first);
        }
        if (first.Degraded()) ++degraded;
      }
    }
  }
  // The comparison must have exercised the collection path, and the lossy
  // variants the received-subset one.
  EXPECT_GT(broadcast_knn, 40);
  EXPECT_GT(degraded, 0);
}

std::string ComboName(const ::testing::TestParamInfo<Combo>& info) {
  const auto [data_kind, index_kind, curve, retrieval, capacity] = info.param;
  std::string name = data_kind == DataKind::kLaCity ? "LaCity" : "Metro";
  name += index_kind == broadcast::IndexKind::kFlat ? "_Flat" : "_Tree";
  name += curve == hilbert::CurveKind::kHilbert ? "_Hilbert" : "_Morton";
  name += retrieval == onair::WindowRetrieval::kSingleSpan ? "_Span"
                                                            : "_Ranges";
  name += "_Cap" + std::to_string(capacity);
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CollectFilterTest,
    ::testing::Combine(
        ::testing::Values(DataKind::kLaCity, DataKind::kMetro),
        ::testing::Values(broadcast::IndexKind::kFlat,
                          broadcast::IndexKind::kTree),
        ::testing::Values(hilbert::CurveKind::kHilbert,
                          hilbert::CurveKind::kMorton),
        ::testing::Values(onair::WindowRetrieval::kSingleSpan,
                          onair::WindowRetrieval::kPartitionedRanges),
        ::testing::Values(4, broadcast::BroadcastParams{}.bucket_capacity)),
    ComboName);

// Runs `count` kNN requests near metro POIs through one workspace and
// returns how many refilled; every broadcast answer is checked against the
// oracle on the way.
int RunKnnStream(const core::QueryEngine& engine, const Dataset& d,
                 int count, uint64_t seed,
                 const std::vector<core::PeerData>* peers) {
  core::QueryWorkspace ws;
  obs::TraceRecorder trace;
  QueryOutcome outcome;
  Rng rng(seed);
  int refills = 0;
  const int64_t cycle = engine.system().schedule().cycle_length();
  for (int i = 0; i < count; ++i) {
    QueryRequest request;
    request.kind = QueryKind::kKnn;
    request.position = QueryPoint(d, &rng);
    request.k = static_cast<int>(rng.UniformInt(1, 12));
    request.slot = rng.UniformInt(0, 4 * cycle);
    request.fault_stream = static_cast<uint64_t>(i);
    if (peers != nullptr) request.peers = *peers;
    trace.Reset(i, 0, "knn");
    request.trace = &trace;
    engine.Execute(request, ws, &outcome);
    refills += CountRefills(trace);
    ExpectKnnMatchesOracle(engine.system(), request, outcome);
  }
  return refills;
}

TEST(CollectRefillTest, PeerlessFaultFreeStreamNeverRefills) {
  const Dataset& d = Metro();
  broadcast::BroadcastParams params;
  params.hilbert_order = d.order;
  const broadcast::BroadcastSystem system(d.pois, d.world, params);
  const core::QueryEngine engine(system, d.world, core::EngineOptions{});
  EXPECT_EQ(RunKnnStream(engine, d, 2000, 17, nullptr), 0);
}

TEST(CollectRefillTest, LossyRetrievalRefillsAndStillMatchesOracle) {
  // A peerless query's radius is the air index's bound on the k-th
  // distance; when lost buckets held some of those k POIs, the processed
  // subset cannot certify and the whole received set is rescanned. (The
  // tree index: a lost flat-directory read fails the whole retrieval, which
  // leaves nothing to rescan.)
  const Dataset& d = LaCity();
  broadcast::BroadcastParams params;
  params.index_kind = broadcast::IndexKind::kTree;
  const broadcast::BroadcastSystem system(d.pois, d.world, params);
  core::EngineOptions options;
  options.fault.channel.model = fault::LossModel::kIid;
  options.fault.channel.loss_prob = 0.3;
  options.fault.policy.max_retries_per_bucket = 0;
  const core::QueryEngine engine(system, d.world, options);
  EXPECT_GT(RunKnnStream(engine, d, 300, 23, nullptr), 0);
}

// Runs 200 kNN queries, each with one peer reporting the 12 true nearest
// neighbours at a tenth of their real distance from q — an upper bound far
// below the true k-th distance — and returns the refill count. With
// `fresh_ids` the peer's objects carry ids the server never issued;
// otherwise they are stale copies of the real neighbours.
int RunUndercuttingPeerStream(bool fresh_ids) {
  const Dataset& d = Metro();
  broadcast::BroadcastParams params;
  params.hilbert_order = d.order;
  const broadcast::BroadcastSystem system(d.pois, d.world, params);
  core::EngineOptions options;
  options.sbnn.k = 12;
  options.sbnn.accept_approximate = false;
  const core::QueryEngine engine(system, d.world, options);

  Rng rng(29);
  int undercut = 0;
  int refills = 0;
  for (int i = 0; i < 200; ++i) {
    const geom::Point q = QueryPoint(d, &rng);
    const std::vector<spatial::PoiDistance> truth =
        spatial::BruteForceKnn(d.pois, q, 12);
    core::VerifiedRegion vr;
    vr.region = geom::Rect::CenteredSquare(q, 1e-3);
    for (const spatial::PoiDistance& n : truth) {
      const int64_t id =
          fresh_ids ? static_cast<int64_t>(d.pois.size()) + n.poi.id
                    : n.poi.id;
      vr.pois.push_back(Poi{id, {q.x + 0.1 * (n.poi.pos.x - q.x),
                                 q.y + 0.1 * (n.poi.pos.y - q.y)}});
    }
    const std::vector<core::PeerData> peers{core::PeerData{{vr}}};

    QueryRequest request;
    request.kind = QueryKind::kKnn;
    request.position = q;
    request.slot = rng.UniformInt(0, 1000);
    request.peers = peers;
    obs::TraceRecorder trace;
    trace.Reset(i, 0, "knn");
    request.trace = &trace;
    const QueryOutcome outcome = engine.Execute(request);
    const core::SbnnOutcome& o = *outcome.knn;
    EXPECT_TRUE(o.nnv.heap.UpperBound().has_value());
    if (o.nnv.heap.UpperBound().value_or(0.0) < truth.back().distance) {
      ++undercut;
    }
    refills += CountRefills(trace);
    EXPECT_TRUE(ExpectKnnMatchesOracle(system, request, outcome));
  }
  EXPECT_GT(undercut, 150);
  return refills;
}

TEST(CollectRefillTest, StaleCopiesUndercuttingTheBoundRefill) {
  // A stale copy of a real neighbour shares its id: the id-sorted merge
  // then orders the two copies by everything else it holds, so the engine
  // answers from the whole received set — and still matches the oracle.
  EXPECT_GT(RunUndercuttingPeerStream(/*fresh_ids=*/false), 0);
}

TEST(CollectRefillTest, FabricatedObjectsUndercuttingTheBoundCertify) {
  // Objects with ids of their own are part of the processed set, fill the
  // k slots within the (too small) radius and certify it: no refill, and
  // the answer is still exactly the whole-download one.
  EXPECT_EQ(RunUndercuttingPeerStream(/*fresh_ids=*/true), 0);
}

}  // namespace
}  // namespace lbsq
