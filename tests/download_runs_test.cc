#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "broadcast/bucket_runs.h"
#include "broadcast/client_protocol.h"
#include "broadcast/retrieve_oracle.h"
#include "broadcast/schedule.h"
#include "broadcast/system.h"
#include "common/observability.h"
#include "common/rng.h"
#include "core/query_engine.h"
#include "core/query_workspace.h"
#include "fault/fault_model.h"
#include "fault/peer_faults.h"
#include "geom/circle.h"
#include "hilbert/hilbert.h"
#include "spatial/generators.h"
#include "spatial/poi.h"
#include "spatial/rtree.h"

/// Downloads carried as bucket-id runs. A (1, m) download is a few
/// contiguous stretches of the data file, so retrieval, the §3.3.3 skip
/// filter and the processed set all work on runs. These tests hold each of
/// them to the bucket-by-bucket rule it replaced:
///  - `RetrieveBuckets` over runs against `RetrieveBucketsPerBucket`
///    (stats and trace spans) on random (1, m) schedules, start slots on
///    and around every segment and cycle boundary, and run sets that are
///    empty, one bucket, the whole cycle or random;
///  - the cover-derived processed set against every bucket holding a POI
///    in the reach, on both curves, with POIs on cell lines and world edges;
///  - SBNN and SBWQ answers, cacheables and `sbnn.collect_refills` against
///    a workspace that derives every processed set by scanning the whole
///    download, under honest, stale, truncated and flipped peers and a
///    lossy channel;
///  - the §3.3.3 skip count and kept download against a per-bucket scan.

namespace lbsq {
namespace {

using broadcast::AccessStats;
using broadcast::BroadcastSchedule;
using broadcast::BucketRun;
using broadcast::BucketRuns;
using broadcast::IndexReadMode;
using core::QueryKind;
using core::QueryOutcome;
using core::QueryRequest;
using spatial::Poi;

std::vector<int64_t> SortedUnique(std::vector<int64_t> ids) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

std::vector<int64_t> RandomIds(Rng* rng, int64_t universe, int count) {
  std::vector<int64_t> ids;
  for (int i = 0; i < count; ++i) {
    ids.push_back(static_cast<int64_t>(
        rng->NextBelow(static_cast<uint64_t>(universe))));
  }
  return ids;
}

// A random run set over [0, universe): `runs` stretches of random length.
BucketRuns RandomRuns(Rng* rng, int64_t universe, int runs) {
  std::vector<int64_t> ids;
  for (int r = 0; r < runs; ++r) {
    const int64_t lo = static_cast<int64_t>(
        rng->NextBelow(static_cast<uint64_t>(universe)));
    const int64_t len = 1 + static_cast<int64_t>(rng->NextBelow(8));
    for (int64_t id = lo; id < std::min(universe, lo + len); ++id) {
      ids.push_back(id);
    }
  }
  return BucketRuns::FromIds(ids);
}

// ---------------------------------------------------------------------------
// BucketRuns

TEST(BucketRunsTest, AppendMergesOverlappingAndAdjacentRuns) {
  BucketRuns set;
  set.Append(3, 5);
  set.Append(6, 6);  // adjoins
  set.Append(4, 9);  // overlaps
  set.Append(11, 12);
  set.Append(11);    // inside the last run
  ASSERT_EQ(set.runs().size(), 2u);
  EXPECT_EQ(set.runs()[0], (BucketRun{3, 9}));
  EXPECT_EQ(set.runs()[1], (BucketRun{11, 12}));
  EXPECT_EQ(set.count(), 9);
  EXPECT_EQ(set.front(), 3);
  EXPECT_EQ(set.back(), 12);
  EXPECT_EQ(set.ToIds(), (std::vector<int64_t>{3, 4, 5, 6, 7, 8, 9, 11, 12}));
}

TEST(BucketRunsDeathTest, AppendRejectsAStartBeforeTheLastRun) {
  BucketRuns set;
  set.Append(5, 7);
  EXPECT_DEATH(set.Append(4, 9), "");
  EXPECT_DEATH(set.Append(8, 6), "");
}

TEST(BucketRunsTest, FromIdsAndUnionMatchSetUnion) {
  Rng rng(3);
  for (int trial = 0; trial < 500; ++trial) {
    const int64_t universe = 1 + static_cast<int64_t>(rng.NextBelow(60));
    const std::vector<int64_t> a =
        RandomIds(&rng, universe, static_cast<int>(rng.NextBelow(30)));
    const std::vector<int64_t> b =
        RandomIds(&rng, universe, static_cast<int>(rng.NextBelow(30)));
    BucketRuns runs = BucketRuns::FromIds(a);
    EXPECT_EQ(runs.ToIds(), SortedUnique(a));
    EXPECT_EQ(runs.count(), static_cast<int64_t>(SortedUnique(a).size()));
    // Canonical: no two runs touch.
    for (size_t i = 1; i < runs.runs().size(); ++i) {
      EXPECT_GT(runs.runs()[i].lo, runs.runs()[i - 1].hi + 1);
    }
    runs.UnionWith(BucketRuns::FromIds(b));
    std::vector<int64_t> both = a;
    both.insert(both.end(), b.begin(), b.end());
    EXPECT_EQ(runs, BucketRuns::FromIds(both));
  }
}

TEST(BucketRunsTest, SearchesAndIntersectionMatchBruteForce) {
  Rng rng(5);
  for (int trial = 0; trial < 300; ++trial) {
    const int64_t universe = 1 + static_cast<int64_t>(rng.NextBelow(80));
    const BucketRuns a =
        RandomRuns(&rng, universe, static_cast<int>(rng.NextBelow(6)));
    const BucketRuns b =
        RandomRuns(&rng, universe, static_cast<int>(rng.NextBelow(6)));
    const std::vector<int64_t> ids = a.ToIds();
    const std::set<int64_t> in_a(ids.begin(), ids.end());
    for (int64_t x = -1; x <= universe + 1; ++x) {
      EXPECT_EQ(a.Contains(x), in_a.count(x) == 1) << x;
      int64_t want = -1;
      for (const int64_t id : ids) {
        if (id < x) want = id;
      }
      EXPECT_EQ(a.LastBefore(x), want) << x;
    }
    std::vector<int64_t> common;
    broadcast::ForEachCommonId(a, b,
                               [&](int64_t id) { common.push_back(id); });
    const std::vector<int64_t> b_ids = b.ToIds();
    std::vector<int64_t> want;
    std::set_intersection(ids.begin(), ids.end(), b_ids.begin(), b_ids.end(),
                          std::back_inserter(want));
    EXPECT_EQ(common, want);
  }
}

// ---------------------------------------------------------------------------
// Retrieval over runs vs the bucket-by-bucket oracle

TEST(FirstBucketAiringFromTest, MatchesTheInCycleSlotOrder) {
  Rng rng(7);
  for (int trial = 0; trial < 60; ++trial) {
    const int64_t num_data = 1 + static_cast<int64_t>(rng.NextBelow(40));
    const int64_t index = 1 + static_cast<int64_t>(rng.NextBelow(5));
    const int m = 1 + static_cast<int>(
                          rng.NextBelow(static_cast<uint64_t>(num_data)));
    const BroadcastSchedule s(num_data, index, m);
    for (int64_t t = 0; t < 2 * s.cycle_length(); ++t) {
      const int64_t offset = t % s.cycle_length();
      int64_t want = num_data;
      for (int64_t b = num_data - 1; b >= 0; --b) {
        if (s.NextBucketSlot(0, b) >= offset) want = b;
      }
      ASSERT_EQ(s.FirstBucketAiringFrom(t), want)
          << "data=" << num_data << " index=" << index << " m=" << m
          << " t=" << t;
    }
  }
}

// Slots on and around every index-segment, data-chunk and cycle boundary
// of the first two cycles, plus the slot just before the third.
std::vector<int64_t> BoundarySlots(const BroadcastSchedule& s) {
  std::vector<int64_t> slots;
  const int64_t end = 2 * s.cycle_length();
  for (int64_t t = 1; t <= end; ++t) {
    const bool cycle_edge = t % s.cycle_length() == 0;
    if (cycle_edge || s.SlotAt(t).kind != s.SlotAt(t - 1).kind) {
      for (int64_t d = -1; d <= 1; ++d) slots.push_back(t + d);
    }
  }
  slots.push_back(0);
  return SortedUnique(slots);
}

void ExpectSameRetrieval(const BroadcastSchedule& s, int64_t t,
                         const BucketRuns& runs, IndexReadMode mode) {
  obs::TraceRecorder got_trace;
  obs::TraceRecorder want_trace;
  got_trace.Reset(0, 0, "knn");
  want_trace.Reset(0, 0, "knn");
  const AccessStats got = broadcast::RetrieveBuckets(s, t, runs, mode,
                                                     &got_trace);
  const AccessStats want = broadcast::RetrieveBucketsPerBucket(
      s, t, runs.ToIds(), mode, &want_trace);
  EXPECT_EQ(got.access_latency, want.access_latency);
  EXPECT_EQ(got.tuning_time, want.tuning_time);
  EXPECT_EQ(got.buckets_read, want.buckets_read);
  EXPECT_EQ(got_trace.events(), want_trace.events());
}

TEST(RetrieveRunsDifferentialTest, MatchesPerBucketRetrieval) {
  Rng rng(11);
  int checked = 0;
  for (int trial = 0; trial < 40; ++trial) {
    // m spans 1..num_data: the extremes every few trials, else random.
    const int64_t num_data = 1 + static_cast<int64_t>(rng.NextBelow(120));
    const int64_t index = 1 + static_cast<int64_t>(rng.NextBelow(8));
    int m = 1 + static_cast<int>(
                    rng.NextBelow(static_cast<uint64_t>(num_data)));
    if (trial % 4 == 0) m = 1;
    if (trial % 4 == 1) m = static_cast<int>(num_data);
    const BroadcastSchedule s(num_data, index, m);
    SCOPED_TRACE(::testing::Message() << "data=" << num_data
                                      << " index=" << index << " m=" << m);

    std::vector<BucketRuns> sets;
    sets.emplace_back();  // empty
    BucketRuns one;
    one.Append(static_cast<int64_t>(
        rng.NextBelow(static_cast<uint64_t>(num_data))));
    sets.push_back(one);
    BucketRuns first;
    first.Append(0);
    sets.push_back(first);
    BucketRuns last;
    last.Append(num_data - 1);
    sets.push_back(last);
    BucketRuns whole;
    whole.Append(0, num_data - 1);
    sets.push_back(whole);
    for (int r = 0; r < 3; ++r) {
      sets.push_back(RandomRuns(&rng, num_data, 1 + r * 2));
    }
    const std::vector<IndexReadMode> modes = {
        IndexReadMode::FlatDirectory(), IndexReadMode::TreePaths(0),
        IndexReadMode::TreePaths(
            static_cast<int64_t>(rng.NextBelow(static_cast<uint64_t>(index))) +
            1)};

    std::vector<int64_t> starts = BoundarySlots(s);
    for (int i = 0; i < 16; ++i) {
      starts.push_back(static_cast<int64_t>(
          rng.NextBelow(static_cast<uint64_t>(5 * s.cycle_length()))));
    }
    for (const int64_t t : starts) {
      for (const BucketRuns& runs : sets) {
        ExpectSameRetrieval(s, t, runs,
                            modes[static_cast<size_t>(checked) % modes.size()]);
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 10000);
}

TEST(RetrieveRunsDifferentialTest, IdListAdapterCanonicalizesAnyOrder) {
  Rng rng(13);
  const BroadcastSchedule s(97, 4, 5);
  for (int i = 0; i < 300; ++i) {
    const std::vector<int64_t> ids =
        RandomIds(&rng, 97, static_cast<int>(rng.NextBelow(40)));
    const int64_t t = static_cast<int64_t>(rng.NextBelow(1000));
    const AccessStats got = broadcast::RetrieveBuckets(s, t, ids);
    const AccessStats want = broadcast::RetrieveBucketsPerBucket(s, t, ids);
    EXPECT_EQ(got.access_latency, want.access_latency);
    EXPECT_EQ(got.tuning_time, want.tuning_time);
    EXPECT_EQ(got.buckets_read, want.buckets_read);
  }
}

// ---------------------------------------------------------------------------
// Air-index lookups as runs

TEST(AirIndexRunsTest, SpanAndRangeLookupsMatchPerBucketScan) {
  Rng rng(17);
  const geom::Rect world{0.0, 0.0, 20.0, 20.0};
  broadcast::BroadcastParams params;
  params.hilbert_order = 6;
  params.bucket_capacity = 3;
  const broadcast::BroadcastSystem system(
      spatial::GenerateUniformPois(&rng, world, 900), world, params);
  const std::vector<hilbert::IndexRange>& ranges =
      system.index().bucket_ranges();
  const uint64_t cells = system.grid().num_cells();
  auto meeting = [&](uint64_t lo, uint64_t hi) {
    std::vector<int64_t> ids;
    for (size_t b = 0; b < ranges.size(); ++b) {
      if (ranges[b].lo <= hi && ranges[b].hi >= lo) {
        ids.push_back(static_cast<int64_t>(b));
      }
    }
    return ids;
  };
  BucketRuns runs;
  for (int i = 0; i < 400; ++i) {
    const uint64_t a = rng.NextBelow(cells);
    const uint64_t b = rng.NextBelow(cells);
    const uint64_t lo = std::min(a, b);
    const uint64_t hi = std::max(a, b);
    system.index().BucketsForSpan(lo, hi, &runs);
    EXPECT_LE(runs.runs().size(), 1u);
    EXPECT_EQ(runs.ToIds(), meeting(lo, hi));

    const geom::Point c{rng.Uniform(0.0, 20.0), rng.Uniform(0.0, 20.0)};
    const std::vector<hilbert::IndexRange> cover = system.grid().CoverRect(
        geom::Rect::CenteredSquare(c, rng.Uniform(0.1, 4.0)));
    system.index().BucketsForRanges(cover, &runs);
    std::vector<int64_t> want;
    for (const hilbert::IndexRange& r : cover) {
      const std::vector<int64_t> part = meeting(r.lo, r.hi);
      want.insert(want.end(), part.begin(), part.end());
    }
    EXPECT_EQ(runs.ToIds(), SortedUnique(want));
  }
}

// ---------------------------------------------------------------------------
// The cover-derived processed set

// POIs on cell lines (grid corners and edge midpoints, the world's own
// edges and corners included) plus uniform ones, on a 2^order grid.
std::vector<Poi> GridLinePois(const geom::Rect& world, int order, Rng* rng) {
  const int cells = 1 << order;
  const double side = world.width() / cells;
  std::vector<Poi> pois;
  int64_t id = 0;
  for (int i = 0; i < 700; ++i) {
    const double x = side * static_cast<double>(rng->NextBelow(cells + 1));
    const double y = side * static_cast<double>(rng->NextBelow(cells + 1));
    const double free_x = rng->Uniform(0.0, world.width());
    switch (i % 4) {
      case 0:
        pois.push_back(Poi{id++, {x, y}});
        break;
      case 1:
        pois.push_back(Poi{id++, {free_x, y}});
        break;
      case 2:
        pois.push_back(Poi{id++, {rng->NextBool(0.5) ? world.x1 : world.x2,
                                  free_x}});
        break;
      default:
        pois.push_back(Poi{id++, {free_x, rng->Uniform(0.0, world.height())}});
        break;
    }
  }
  return pois;
}

// A reach with edges on cell lines, on world edges, past the world, or
// free; sometimes degenerate (zero width or height).
geom::Rect RandomReach(const geom::Rect& world, int order, Rng* rng) {
  const int cells = 1 << order;
  const double side = world.width() / cells;
  auto coord = [&]() {
    switch (rng->NextBelow(4)) {
      case 0:
        return side * static_cast<double>(rng->NextBelow(cells + 1));
      case 1:
        return rng->NextBool(0.5) ? world.x1 : world.x2;
      case 2:
        return rng->Uniform(-2.0, world.x2 + 2.0);
      default:
        return rng->Uniform(0.0, world.x2);
    }
  };
  double x1 = coord(), x2 = coord(), y1 = coord(), y2 = coord();
  if (x1 > x2) std::swap(x1, x2);
  if (y1 > y2) std::swap(y1, y2);
  if (rng->NextBool(0.1)) x2 = x1;
  if (rng->NextBool(0.1)) y2 = y1;
  return geom::Rect{x1, y1, x2, y2};
}

TEST(ProcessedSetPropertyTest, CoverDerivedSetHoldsEveryBucketWithAPoiInReach) {
  const geom::Rect world{0.0, 0.0, 20.0, 20.0};
  for (const hilbert::CurveKind curve :
       {hilbert::CurveKind::kHilbert, hilbert::CurveKind::kMorton}) {
    for (const int order : {4, 6}) {
      SCOPED_TRACE(::testing::Message()
                   << "curve=" << static_cast<int>(curve)
                   << " order=" << order);
      Rng rng(19 + static_cast<uint64_t>(order));
      broadcast::BroadcastParams params;
      params.hilbert_order = order;
      params.curve = curve;
      params.bucket_capacity = 3;
      const broadcast::BroadcastSystem system(GridLinePois(world, order, &rng),
                                              world, params);
      const std::vector<broadcast::DataBucket>& buckets = system.buckets();
      const int64_t num_buckets = static_cast<int64_t>(buckets.size());
      core::QueryWorkspace ws;
      int64_t holding_total = 0;
      for (int i = 0; i < 600; ++i) {
        const geom::Rect rect = RandomReach(world, order, &rng);
        const geom::Rect reach = i % 2 == 0 ? rect : core::Padded(rect);
        BucketRuns download;
        if (i % 3 == 0) {
          download.Append(0, num_buckets - 1);
        } else {
          download = RandomRuns(&rng, num_buckets, 1 + i % 5);
        }
        const BucketRuns from_cover =
            ws.BucketsMeetingByCover(system, download, reach);
        const BucketRuns scanned =
            ws.BucketsMeetingByScan(system, download, reach);
        download.ForEachId([&](int64_t id) {
          const broadcast::DataBucket& b = buckets[static_cast<size_t>(id)];
          const bool holds = std::any_of(
              b.pois.begin(), b.pois.end(),
              [&](const Poi& p) { return reach.Contains(p.pos); });
          if (holds) {
            ++holding_total;
            EXPECT_TRUE(from_cover.Contains(id)) << "bucket " << id;
          }
          // Never more than the MBR scan keeps.
          if (from_cover.Contains(id)) {
            EXPECT_TRUE(scanned.Contains(id)) << "bucket " << id;
          }
        });
      }
      EXPECT_GT(holding_total, 1000);
    }
  }
}

// ---------------------------------------------------------------------------
// SBNN / SBWQ against the whole-download MBR scan

struct City {
  geom::Rect world{0.0, 0.0, 40.0, 40.0};
  std::vector<Poi> pois;
  spatial::RTree tree;
  double spread = 0.15;
};

// A clustered metro city: a kNN span crosses major curve boundaries, so
// downloads hold far more buckets than a search square meets.
const City& Metro() {
  static const City* city = [] {
    auto* c = new City;
    Rng rng(5);
    c->pois = spatial::GenerateMetroPois(&rng, c->world, 20'000,
                                         /*clustered_fraction=*/0.6,
                                         /*num_clusters=*/60,
                                         /*cluster_spread=*/0.5);
    c->tree = spatial::RTree::BulkLoadStr(c->pois);
    return c;
  }();
  return *city;
}

geom::Point QueryPoint(const City& c, Rng* rng) {
  const Poi& anchor = c.pois[rng->NextBelow(c.pois.size())];
  return geom::Point{
      std::clamp(anchor.pos.x + rng->Normal(0.0, c.spread), c.world.x1,
                 c.world.x2),
      std::clamp(anchor.pos.y + rng->Normal(0.0, c.spread), c.world.y1,
                 c.world.y2)};
}

std::vector<core::PeerData> PeersAround(const City& c, geom::Point q,
                                        Rng* rng) {
  std::vector<core::PeerData> peers(rng->NextBool(0.5) ? 1 : 2);
  for (core::PeerData& peer : peers) {
    core::VerifiedRegion vr;
    const geom::Point center{q.x + rng->Normal(0.0, 2.0 * c.spread),
                             q.y + rng->Normal(0.0, 2.0 * c.spread)};
    vr.region =
        geom::Rect::CenteredSquare(center, rng->Uniform(0.5, 6.0) * c.spread);
    vr.pois = c.tree.WindowQuery(vr.region);
    peer.regions.push_back(std::move(vr));
  }
  return peers;
}

// One peer reporting the 12 true nearest neighbours as stale copies at a
// tenth of their distance from q: an upper bound far below the true k-th
// distance, and id conflicts with the download — the refill branch.
std::vector<core::PeerData> UndercuttingPeer(const City& c, geom::Point q) {
  core::VerifiedRegion vr;
  vr.region = geom::Rect::CenteredSquare(q, 1e-3);
  for (const spatial::PoiDistance& n : spatial::BruteForceKnn(c.pois, q, 12)) {
    vr.pois.push_back(Poi{n.poi.id, {q.x + 0.1 * (n.poi.pos.x - q.x),
                                     q.y + 0.1 * (n.poi.pos.y - q.y)}});
  }
  return {core::PeerData{{vr}}};
}

int CountRefills(const obs::TraceRecorder& trace) {
  int n = 0;
  for (const obs::TraceEvent& e : trace.events()) {
    if (std::string(e.name) == "sbnn.collect_refills") ++n;
  }
  return n;
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
    ASSERT_EQ(a.knn->neighbors.size(), b.knn->neighbors.size());
    for (size_t i = 0; i < a.knn->neighbors.size(); ++i) {
      EXPECT_EQ(a.knn->neighbors[i].poi, b.knn->neighbors[i].poi);
      EXPECT_EQ(a.knn->neighbors[i].distance, b.knn->neighbors[i].distance);
    }
  } else {
    EXPECT_EQ(a.window->residual_windows, b.window->residual_windows);
    EXPECT_EQ(a.window->pois, b.window->pois);
  }
}

enum class Peers { kNone, kHonest, kCorrupted, kUndercutting };

TEST(ProcessedSetDifferentialTest, AnswersAndRefillsMatchTheScanRule) {
  const City& c = Metro();
  fault::PeerFaultConfig corrupt;
  corrupt.stale_prob = 0.4;
  corrupt.stale_drift = 2.0 * c.spread;
  corrupt.truncate_prob = 0.3;
  corrupt.flip_prob = 0.2;

  int broadcast_answers = 0;
  int long_downloads = 0;  // processed through the cover
  int refills = 0;
  for (const int capacity : {2, 8}) {
    for (const hilbert::CurveKind curve :
         {hilbert::CurveKind::kHilbert, hilbert::CurveKind::kMorton}) {
      broadcast::BroadcastParams params;
      params.hilbert_order = 9;
      params.curve = curve;
      params.bucket_capacity = capacity;
      const broadcast::BroadcastSystem system(c.pois, c.world, params);
      for (const bool lossy : {false, true}) {
        core::EngineOptions options;
        options.sbnn.accept_approximate = false;
        if (lossy) {
          options.fault.channel.model = fault::LossModel::kIid;
          options.fault.channel.loss_prob = 0.2;
          options.fault.channel.corruption_prob = 0.05;
          options.fault.policy.max_retries_per_bucket = 0;
          options.fault.seed = 9;
        }
        const core::QueryEngine engine(system, c.world, options);
        core::QueryWorkspace ws;
        core::QueryWorkspace scan_ws;
        scan_ws.scan_processed_sets = true;
        Rng rng(31 + static_cast<uint64_t>(lossy));
        for (const Peers mode : {Peers::kNone, Peers::kHonest,
                                 Peers::kCorrupted, Peers::kUndercutting}) {
          for (int i = 0; i < 40; ++i) {
            const geom::Point q = QueryPoint(c, &rng);
            std::vector<core::PeerData> peers;
            if (mode == Peers::kUndercutting) {
              peers = UndercuttingPeer(c, q);
            } else if (mode != Peers::kNone) {
              peers = PeersAround(c, q, &rng);
              if (mode == Peers::kCorrupted) {
                fault::CorruptPeerData(corrupt, &rng, &peers);
              }
            }
            QueryRequest request;
            request.slot = rng.UniformInt(0, 20'000);
            request.peers = peers;
            request.fault_stream = static_cast<uint64_t>(i);
            if (mode == Peers::kUndercutting || i % 3 != 0) {
              request.kind = QueryKind::kKnn;
              request.position = q;
              request.k = mode == Peers::kUndercutting
                              ? 12
                              : static_cast<int>(rng.UniformInt(1, 12));
            } else {
              request.kind = QueryKind::kWindow;
              request.window = geom::Rect::CenteredSquare(
                  q, rng.Uniform(0.05, 1.5));
            }
            SCOPED_TRACE(::testing::Message()
                         << "capacity=" << capacity
                         << " curve=" << static_cast<int>(curve)
                         << " lossy=" << lossy
                         << " peers=" << static_cast<int>(mode) << " i=" << i);
            obs::TraceRecorder trace;
            obs::TraceRecorder scan_trace;
            trace.Reset(i, 0, "q");
            scan_trace.Reset(i, 0, "q");
            QueryOutcome got;
            QueryOutcome want;
            request.trace = &trace;
            engine.Execute(request, ws, &got);
            request.trace = &scan_trace;
            engine.Execute(request, scan_ws, &want);
            ExpectSameOutcome(got, want);
            EXPECT_EQ(trace.events(), scan_trace.events());
            refills += CountRefills(trace);
            if (!got.ResolvedByPeers()) ++broadcast_answers;
            if (got.Common().buckets.count() >
                core::QueryWorkspace::kScanDownloadsUpTo) {
              ++long_downloads;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(broadcast_answers, 300);
  EXPECT_GT(long_downloads, 100);
  // The cold branches ran: stale copies undercutting the bound refill.
  EXPECT_GT(refills, 20);
}

// ---------------------------------------------------------------------------
// §3.3.3 skip filter against the per-bucket scan

TEST(SkipFilterDifferentialTest, SkipCountAndKeptBucketsMatchPerBucketScan) {
  const City& c = Metro();
  int64_t skipped_total = 0;
  int filtered = 0;
  int long_spans = 0;  // filtered through the cover
  for (const hilbert::CurveKind curve :
       {hilbert::CurveKind::kHilbert, hilbert::CurveKind::kMorton}) {
    // Two-POI buckets: many lie wholly inside a peer-verified circle.
    broadcast::BroadcastParams params;
    params.hilbert_order = 9;
    params.curve = curve;
    params.bucket_capacity = 2;
    const broadcast::BroadcastSystem system(c.pois, c.world, params);
    core::EngineOptions options;
    options.sbnn.accept_approximate = false;
    const core::QueryEngine engine(system, c.world, options);
    core::QueryWorkspace ws;
    Rng rng(41);
    for (int i = 0; i < 300; ++i) {
      const geom::Point q = QueryPoint(c, &rng);
      // One honest peer whose region holds q: the verified circle is wide,
      // and a large k keeps the heap from being fully verified.
      core::VerifiedRegion vr;
      vr.region = geom::Rect::CenteredSquare(
          geom::Point{q.x + rng.Normal(0.0, 0.2 * c.spread),
                      q.y + rng.Normal(0.0, 0.2 * c.spread)},
          rng.Uniform(1.0, 6.0) * c.spread);
      vr.pois = c.tree.WindowQuery(vr.region);
      const std::vector<core::PeerData> peers{core::PeerData{{vr}}};
      QueryRequest request;
      request.kind = QueryKind::kKnn;
      request.position = q;
      request.k = static_cast<int>(rng.UniformInt(1, 60));
      request.slot = rng.UniformInt(0, 20'000);
      request.peers = peers;
      QueryOutcome outcome;
      engine.Execute(request, ws, &outcome);
      const core::SbnnOutcome& o = *outcome.knn;
      const std::optional<double> lower = o.nnv.heap.LowerBound();
      if (o.resolved_by != core::ResolvedBy::kBroadcast ||
          !lower.has_value()) {
        continue;
      }
      SCOPED_TRACE(::testing::Message()
                   << "curve=" << static_cast<int>(curve) << " i=" << i);
      // The fault-free search square is the cacheable region; its span is
      // the download before the filter.
      const std::vector<hilbert::IndexRange> cover =
          system.grid().CoverRect(o.cacheable.region);
      ASSERT_FALSE(cover.empty());
      const std::vector<int64_t> span =
          system.index().BucketsForSpan(cover.front().lo, cover.back().hi);
      const geom::Circle known{q, *lower};
      std::vector<int64_t> kept;
      int64_t skipped = 0;
      for (const int64_t id : span) {
        if (known.ContainsRect(system.buckets()[static_cast<size_t>(id)].mbr)) {
          ++skipped;
        } else {
          kept.push_back(id);
        }
      }
      EXPECT_EQ(o.buckets_skipped, skipped);
      EXPECT_EQ(o.buckets.ToIds(), kept);
      skipped_total += skipped;
      ++filtered;
      if (static_cast<int64_t>(span.size()) >
          core::QueryWorkspace::kScanDownloadsUpTo) {
        ++long_spans;
      }
    }
  }
  EXPECT_GT(filtered, 100);
  EXPECT_GT(long_spans, 50);
  EXPECT_GT(skipped_total, 0);
}

}  // namespace
}  // namespace lbsq
