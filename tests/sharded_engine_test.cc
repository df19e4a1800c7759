#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "broadcast/system.h"
#include "common/rng.h"
#include "core/query_engine.h"
#include "core/query_workspace.h"
#include "core/sharded_query_engine.h"
#include "dynamic/sharded_world.h"
#include "dynamic/update_log.h"
#include "geom/rect.h"
#include "hilbert/partition.h"
#include "spatial/generators.h"
#include "storage/system_builder.h"

/// The sharding differential contract:
///  - 1 shard: `ShardedQueryEngine` is field-for-field identical to an
///    unsharded `QueryEngine` over the same POIs (byte identity — the
///    partitioner preserves input order, so even the schedule matches).
///  - N shards: the *answer plane* (neighbor ids + distances, window POI
///    sets) is bit-identical to the 1-shard answer at any shard count, over
///    randomized workloads with peers, seam-straddling windows, and query
///    points pinned to shard-boundary cell corners.
///  - Under churn, `dynamic::ShardedWorld` advances its global POI mirror
///    exactly like `ApplyUpdates` on a plain vector, answers every epoch
///    like a cold single-channel build of that epoch's POIs, rebuilds only
///    dirty shards (clean shards share their broadcast systems with the
///    previous epoch), and restamps every outcome with the global pinned
///    epoch.

namespace lbsq::core {
namespace {

const geom::Rect kWorld{0.0, 0.0, 20.0, 20.0};

broadcast::BroadcastParams TestParams() {
  broadcast::BroadcastParams params;
  params.hilbert_order = 6;
  params.bucket_capacity = 4;
  return params;
}

std::vector<spatial::Poi> TestPois(int n, uint64_t seed = 1) {
  Rng rng(seed);
  return spatial::GenerateUniformPois(&rng, kWorld, n);
}

// A peer holding the verified content of `region` — honest by construction.
PeerData PeerWithRegion(const std::vector<spatial::Poi>& pois,
                        const geom::Rect& region, uint64_t epoch = 0) {
  VerifiedRegion vr;
  vr.region = region;
  vr.epoch = epoch;
  for (const spatial::Poi& p : pois) {
    if (region.Contains(p.pos)) vr.pois.push_back(p);
  }
  return PeerData{{vr}};
}

// A request batch plus the peer storage backing its requests' spans.
struct RequestSet {
  std::vector<QueryRequest> requests;
  std::vector<std::vector<PeerData>> peer_storage;

  // Bind spans only after all storage is final (no more vector growth).
  void BindPeers() {
    for (size_t i = 0; i < requests.size(); ++i) {
      requests[i].peers = peer_storage[i];
    }
  }
};

// A randomized mixed workload over the sharded deployment: kNN and window
// queries, varying k, window sizes, slots, and peer knowledge.
RequestSet MakeRequests(const std::vector<spatial::Poi>& pois, int n,
                        uint64_t seed) {
  Rng rng(seed);
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
    r.slot = static_cast<int64_t>(rng.NextBelow(4096));
    if (rng.NextBool(0.6)) {
      set.peer_storage[static_cast<size_t>(i)].push_back(PeerWithRegion(
          pois, geom::Rect::CenteredSquare(q, rng.Uniform(0.5, 2.0))));
    }
    set.requests.push_back(std::move(r));
  }
  set.BindPeers();
  return set;
}

// Targeted seam workload for an N-shard deployment: for every internal
// shard boundary, a window straddling the seam cell's corner and a kNN
// query point pinned exactly to it (the degenerate on-the-boundary case).
RequestSet MakeSeamRequests(const ShardedQueryEngine& engine,
                            const std::vector<spatial::Poi>& pois,
                            uint64_t seed) {
  Rng rng(seed);
  RequestSet set;
  const hilbert::ShardMap& map = engine.map();
  for (int s = 1; s < map.num_shards(); ++s) {
    const uint64_t seam_cell = map.RangeOf(s).lo;
    const geom::Rect cell = engine.routing_grid().CellRect(seam_cell);
    const geom::Point corner{cell.x1, cell.y1};

    QueryRequest knn;
    knn.kind = QueryKind::kKnn;
    knn.position = corner;
    knn.k = 1 + static_cast<int>(rng.NextBelow(6));
    knn.slot = static_cast<int64_t>(rng.NextBelow(4096));
    set.requests.push_back(knn);
    set.peer_storage.emplace_back();

    QueryRequest window;
    window.kind = QueryKind::kWindow;
    window.window = geom::Rect::CenteredSquare(corner, rng.Uniform(0.8, 3.0));
    window.slot = static_cast<int64_t>(rng.NextBelow(4096));
    set.requests.push_back(window);
    set.peer_storage.emplace_back();
    set.peer_storage.back().push_back(PeerWithRegion(
        pois, geom::Rect::CenteredSquare(corner, rng.Uniform(0.5, 1.5))));
  }
  set.BindPeers();
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

// Full field-for-field equality — the 1-shard byte-identity bar.
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

// Answer-plane equality — the cross-shard-count invariance bar. Costs and
// cacheable shapes legitimately differ between deployments; the neighbors
// (ids and bit-exact distances) and the window POI sequences may not.
void ExpectAnswerEq(const QueryOutcome& a, const QueryOutcome& b) {
  ASSERT_EQ(a.kind, b.kind);
  if (a.kind == QueryKind::kKnn) {
    ASSERT_TRUE(a.knn.has_value());
    ASSERT_TRUE(b.knn.has_value());
    ASSERT_EQ(a.knn->neighbors.size(), b.knn->neighbors.size());
    for (size_t i = 0; i < a.knn->neighbors.size(); ++i) {
      EXPECT_EQ(a.knn->neighbors[i].poi, b.knn->neighbors[i].poi);
      EXPECT_EQ(a.knn->neighbors[i].distance, b.knn->neighbors[i].distance);
    }
  } else {
    ASSERT_TRUE(a.window.has_value());
    ASSERT_TRUE(b.window.has_value());
    EXPECT_EQ(a.window->pois, b.window->pois);
  }
}

TEST(ShardedEngineTest, OneShardByteIdenticalToUnsharded) {
  std::vector<spatial::Poi> pois = TestPois(600);
  const broadcast::BroadcastSystem system(pois, kWorld, TestParams());
  const QueryEngine unsharded(system, kWorld, EngineOptions{});
  const ShardedQueryEngine sharded(pois, kWorld, TestParams(),
                                   EngineOptions{}, 1);
  ASSERT_EQ(sharded.num_shards(), 1);
  EXPECT_EQ(sharded.total_pois(), pois.size());

  const RequestSet set = MakeRequests(pois, 80, /*seed=*/17);
  ShardedQueryWorkspace workspace;
  QueryOutcome outcome;
  for (size_t i = 0; i < set.requests.size(); ++i) {
    SCOPED_TRACE(i);
    sharded.Execute(set.requests[i], workspace, &outcome);
    ExpectOutcomeEq(unsharded.Execute(set.requests[i]), outcome);
    // The convenience form is the workspace form with throwaway scratch.
    ExpectOutcomeEq(sharded.Execute(set.requests[i]), outcome);
  }
}

TEST(ShardedEngineTest, AnswerPlaneInvariantAcrossShardCounts) {
  std::vector<spatial::Poi> pois = TestPois(800, /*seed=*/5);
  const ShardedQueryEngine oracle(pois, kWorld, TestParams(),
                                  EngineOptions{}, 1);
  ShardedQueryWorkspace oracle_ws;
  QueryOutcome expected;
  QueryOutcome actual;
  for (const int num_shards : {2, 3, 5, 8}) {
    SCOPED_TRACE(num_shards);
    const ShardedQueryEngine sharded(pois, kWorld, TestParams(),
                                     EngineOptions{}, num_shards);
    ASSERT_EQ(sharded.num_shards(), num_shards);
    EXPECT_EQ(sharded.total_pois(), pois.size());
    ShardedQueryWorkspace ws;

    const RequestSet set = MakeRequests(pois, 120, /*seed=*/1000 + num_shards);
    const RequestSet seams = MakeSeamRequests(sharded, pois, /*seed=*/42);
    for (const RequestSet* requests : {&set, &seams}) {
      for (size_t i = 0; i < requests->requests.size(); ++i) {
        SCOPED_TRACE(i);
        const QueryRequest& r = requests->requests[i];
        oracle.Execute(r, oracle_ws, &expected);
        sharded.Execute(r, ws, &actual);
        ExpectAnswerEq(expected, actual);
      }
    }
  }
}

TEST(ShardedEngineTest, SeamWindowsHaveNoDuplicatePois) {
  std::vector<spatial::Poi> pois = TestPois(800, /*seed=*/9);
  const ShardedQueryEngine sharded(pois, kWorld, TestParams(),
                                   EngineOptions{}, 8);
  ShardedQueryWorkspace ws;
  QueryOutcome outcome;
  const RequestSet seams = MakeSeamRequests(sharded, pois, /*seed=*/77);
  for (size_t i = 0; i < seams.requests.size(); ++i) {
    const QueryRequest& r = seams.requests[i];
    if (r.kind != QueryKind::kWindow) continue;
    SCOPED_TRACE(i);
    sharded.Execute(r, ws, &outcome);
    ASSERT_TRUE(outcome.window.has_value());
    std::vector<int64_t> ids;
    for (const spatial::Poi& p : outcome.window->pois) ids.push_back(p.id);
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end())
        << "duplicate POI across a shard seam";
  }
}

TEST(ShardedEngineTest, BatchMatchesSequentialExecute) {
  std::vector<spatial::Poi> pois = TestPois(500, /*seed=*/13);
  const ShardedQueryEngine sharded(pois, kWorld, TestParams(),
                                   EngineOptions{}, 5);
  const RequestSet set = MakeRequests(pois, 60, /*seed=*/23);

  ShardedQueryWorkspace sequential_ws;
  std::vector<QueryOutcome> sequential(set.requests.size());
  for (size_t i = 0; i < set.requests.size(); ++i) {
    sharded.Execute(set.requests[i], sequential_ws, &sequential[i]);
  }

  ShardedQueryWorkspace batch_ws;
  const std::span<const QueryOutcome> batch =
      sharded.ExecuteBatch(set.requests, batch_ws);
  ASSERT_EQ(batch.size(), set.requests.size());
  for (size_t i = 0; i < set.requests.size(); ++i) {
    SCOPED_TRACE(i);
    ExpectOutcomeEq(sequential[i], batch[i]);
  }
}

TEST(ShardedEngineTest, BatchValidationHoistedBeforeExecution) {
  std::vector<spatial::Poi> pois = TestPois(300, /*seed=*/3);
  const ShardedQueryEngine sharded(pois, kWorld, TestParams(),
                                   EngineOptions{}, 4);
  // A malformed request *mid-batch* (window request carrying a kNN k) must
  // fail batch validation before any request executes or any arena slot is
  // written — the whole batch is validated up front.
  std::vector<QueryRequest> requests(3);
  requests[0].kind = QueryKind::kKnn;
  requests[0].position = {10.0, 10.0};
  requests[0].k = 3;
  requests[1].kind = QueryKind::kWindow;
  requests[1].window = geom::Rect::CenteredSquare({5.0, 5.0}, 1.0);
  requests[1].k = 3;  // malformed: k belongs to kNN requests
  requests[2].kind = QueryKind::kKnn;
  requests[2].position = {3.0, 3.0};
  requests[2].k = 2;
  ShardedQueryWorkspace ws;
  EXPECT_DEATH(
      sharded.ExecuteBatch(std::span<const QueryRequest>(requests), ws),
      "k == 0");
}

// Rebuilds every shard's broadcast system with a hand-picked epoch stamp,
// keeping the POI split and the shard map — the static-engine model of a
// dynamic::ShardedWorld partial rebuild, where clean shards share
// prior-epoch systems and contributing shards carry divergent epochs.
ShardedQueryEngine WithShardEpochs(const ShardedQueryEngine& base,
                                   const std::vector<uint64_t>& epochs) {
  std::vector<std::shared_ptr<const broadcast::BroadcastSystem>> systems;
  for (int s = 0; s < base.num_shards(); ++s) {
    if (base.shard_system(s) == nullptr) {
      systems.push_back(nullptr);
      continue;
    }
    broadcast::BroadcastParams params = TestParams();
    params.epoch = epochs[static_cast<size_t>(s)];
    systems.push_back(std::make_shared<broadcast::BroadcastSystem>(
        base.shard_system(s)->pois(), kWorld, params));
  }
  return ShardedQueryEngine(kWorld, TestParams(), EngineOptions{}, base.map(),
                            std::move(systems));
}

TEST(ShardedEngineTest, MergedEpochStampIsMinOverContributingShards) {
  std::vector<spatial::Poi> pois = TestPois(300, /*seed=*/11);
  const ShardedQueryEngine base(pois, kWorld, TestParams(), EngineOptions{},
                                3);
  ASSERT_EQ(base.num_shards(), 3);
  for (int s = 0; s < 3; ++s) ASSERT_NE(base.shard_system(s), nullptr);
  // Shard s broadcasts epoch s: shard 0 is the oldest channel.
  const ShardedQueryEngine engine =
      WithShardEpochs(base, {0, 1, 2});

  // A kNN homed on the *newest* shard with k larger than any one shard's
  // POI count: the home answer cannot be complete, so every shard
  // contributes and the merged knowledge is only as fresh as the oldest
  // contributor. (The pre-fix code stamped the home epoch — here 2.)
  geom::Point home_pos;
  for (const spatial::Poi& p : pois) {
    if (engine.map().ShardOfIndex(engine.routing_grid().IndexOf(p.pos)) == 2) {
      home_pos = p.pos;
      break;
    }
  }
  QueryRequest knn;
  knn.kind = QueryKind::kKnn;
  knn.position = home_pos;
  knn.k = static_cast<int>(pois.size());  // forces every shard to contribute
  QueryOutcome outcome = engine.Execute(knn);
  ASSERT_EQ(outcome.knn->resolved_by, ResolvedBy::kBroadcast);
  EXPECT_EQ(outcome.Cacheable().epoch, 0u);

  // A window covering the whole world touches every shard — same rule.
  QueryRequest window;
  window.kind = QueryKind::kWindow;
  window.window = kWorld;
  outcome = engine.Execute(window);
  EXPECT_EQ(outcome.window->pois.size(), pois.size());
  EXPECT_EQ(outcome.Cacheable().epoch, 0u);

  // A query confined to one shard keeps that shard's own (newer) stamp:
  // min over contributing shards, not min over all shards. Inset the cell
  // rect so the closed-rect cover cannot brush adjacent cells.
  const geom::Rect cell = engine.routing_grid().CellRect(
      engine.routing_grid().IndexOf(home_pos));
  const double inset_x = cell.width() / 4.0;
  const double inset_y = cell.height() / 4.0;
  QueryRequest local;
  local.kind = QueryKind::kWindow;
  local.window = geom::Rect{cell.x1 + inset_x, cell.y1 + inset_y,
                            cell.x2 - inset_x, cell.y2 - inset_y};
  outcome = engine.Execute(local);
  EXPECT_EQ(outcome.Cacheable().epoch, 2u);
}

TEST(ShardedWorldTest, CleanHomeWithRebuiltContributorStampsMinEpoch) {
  std::vector<spatial::Poi> initial = TestPois(600, /*seed=*/21);
  dynamic::ShardedWorld world(initial, kWorld, TestParams(), EngineOptions{},
                              4);
  const auto base = world.Current();
  const auto shard_of = [&base](geom::Point p) {
    return base->engine->map().ShardOfIndex(
        base->engine->routing_grid().IndexOf(p));
  };

  // Dirty exactly one shard (move one of its POIs within its own cell).
  const int dirty = shard_of(initial[0].pos);
  const geom::Rect cell = base->engine->routing_grid().CellRect(
      base->engine->routing_grid().IndexOf(initial[0].pos));
  dynamic::PoiUpdate u;
  u.kind = dynamic::PoiUpdate::Kind::kMove;
  u.id = initial[0].id;
  u.pos = {(cell.x1 + cell.x2) / 2.0, (cell.y1 + cell.y2) / 2.0};
  ASSERT_EQ(world.Apply({u}), 1u);
  const auto next = world.Current();
  ASSERT_EQ(next->rebuilt_shards, std::vector<int>{dirty});

  // Home the query on a *clean* shard (epoch 0 system, shared with the base
  // epoch) and force the rebuilt shard (epoch 1) to contribute via a large
  // k. Engine-level execution — no world-level restamp — must report the
  // minimum epoch over the contributors, here the clean home's 0.
  geom::Point clean_pos;
  bool found = false;
  for (const spatial::Poi& p : next->pois) {
    if (shard_of(p.pos) != dirty) {
      clean_pos = p.pos;
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found);
  QueryRequest knn;
  knn.kind = QueryKind::kKnn;
  knn.position = clean_pos;
  knn.k = static_cast<int>(next->pois.size());
  QueryOutcome outcome = next->engine->Execute(knn);
  ASSERT_EQ(outcome.knn->resolved_by, ResolvedBy::kBroadcast);
  EXPECT_EQ(outcome.Cacheable().epoch, 0u);

  // Homed on the rebuilt shard with clean contributors — the pre-fix code
  // stamped the home's 1 here, claiming knowledge fresher than the clean
  // channels that supplied part of it.
  geom::Point dirty_pos;
  found = false;
  for (const spatial::Poi& p : next->pois) {
    if (shard_of(p.pos) == dirty) {
      dirty_pos = p.pos;
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found);
  knn.position = dirty_pos;
  outcome = next->engine->Execute(knn);
  ASSERT_EQ(outcome.knn->resolved_by, ResolvedBy::kBroadcast);
  EXPECT_EQ(outcome.Cacheable().epoch, 0u);
}

// Deterministic hand-rolled churn: inserts into a hot rect, moves and
// deletes of live POIs drawn from the evolving snapshot.
std::vector<dynamic::PoiUpdate> MakeBatch(
    const std::vector<spatial::Poi>& snapshot, Rng* rng,
    int64_t* next_insert_id) {
  std::vector<dynamic::PoiUpdate> updates;
  for (int i = 0; i < 4; ++i) {
    dynamic::PoiUpdate u;
    u.kind = dynamic::PoiUpdate::Kind::kInsert;
    u.id = (*next_insert_id)++;
    u.pos = {rng->Uniform(0.0, 20.0), rng->Uniform(0.0, 20.0)};
    updates.push_back(u);
  }
  for (int i = 0; i < 4 && !snapshot.empty(); ++i) {
    const spatial::Poi& victim =
        snapshot[static_cast<size_t>(rng->NextBelow(snapshot.size()))];
    dynamic::PoiUpdate u;
    u.id = victim.id;
    if (rng->NextBool(0.5)) {
      u.kind = dynamic::PoiUpdate::Kind::kMove;
      u.pos = {rng->Uniform(0.0, 20.0), rng->Uniform(0.0, 20.0)};
    } else {
      u.kind = dynamic::PoiUpdate::Kind::kDelete;
    }
    updates.push_back(u);
  }
  return updates;
}

TEST(ShardedWorldTest, MatchesColdBuildOfEachEpochUnderChurn) {
  std::vector<spatial::Poi> mirror = TestPois(400, /*seed=*/2);
  dynamic::ShardedWorld sharded(mirror, kWorld, TestParams(), EngineOptions{},
                                4);
  ASSERT_EQ(sharded.num_shards(), 4);

  Rng rng(31);
  int64_t next_insert_id = 400;
  int64_t applied = 0;
  ShardedQueryWorkspace ws;
  QueryOutcome outcome;
  for (uint64_t epoch = 1; epoch <= 6; ++epoch) {
    std::vector<dynamic::PoiUpdate> batch =
        MakeBatch(sharded.Current()->pois, &rng, &next_insert_id);
    EXPECT_EQ(sharded.Apply(batch), epoch);
    ASSERT_EQ(sharded.latest_epoch(), epoch);

    // The global mirror advances exactly like the plain merge: same
    // invalid-update filtering, same generation order.
    applied += dynamic::ApplyUpdates(&batch, &mirror);
    const auto pinned_sharded = sharded.Current();
    ASSERT_EQ(pinned_sharded->pois, mirror);
    EXPECT_EQ(sharded.updates_applied(), applied);

    // The reference: a cold single-channel build of the epoch's POIs.
    broadcast::BroadcastParams epoch_params = TestParams();
    epoch_params.epoch = epoch;
    const auto cold_system = storage::SystemBuilder(kWorld, epoch_params)
                                 .BuildSystemFromPois(pinned_sharded->pois);
    const QueryEngine cold(*cold_system, kWorld, EngineOptions{});

    // Answers on the sharded epoch match the cold build, and every outcome
    // is restamped with the global pinned epoch.
    const RequestSet set =
        MakeRequests(pinned_sharded->pois, 30, /*seed=*/500 + epoch);
    for (size_t i = 0; i < set.requests.size(); ++i) {
      SCOPED_TRACE(i);
      QueryRequest r = set.requests[i];
      r.peers = {};
      std::vector<PeerData> peers = set.peer_storage[i];
      for (PeerData& peer : peers) {
        for (VerifiedRegion& region : peer.regions) region.epoch = epoch;
      }
      const auto pinned = sharded.Execute(r, &peers, ws, &outcome);
      EXPECT_EQ(pinned->id, epoch);
      EXPECT_EQ(outcome.Cacheable().epoch, epoch);

      QueryRequest cold_request = r;
      cold_request.peers = peers;  // post-revalidation peer state
      ExpectAnswerEq(cold.Execute(cold_request), outcome);
    }
  }
}

TEST(ShardedWorldTest, RebuildsOnlyDirtyShards) {
  std::vector<spatial::Poi> initial = TestPois(600, /*seed=*/21);
  dynamic::ShardedWorld world(initial, kWorld, TestParams(),
                              EngineOptions{}, 8);
  ASSERT_EQ(world.num_shards(), 8);
  // Epoch 0 builds every non-empty shard but the incremental counter
  // starts at zero — it measures Apply-time work only.
  EXPECT_EQ(world.shards_rebuilt(), 0);

  const auto base = world.Current();
  const ShardedQueryEngine& engine = *base->engine;
  const auto shard_of = [&engine](geom::Point p) {
    return engine.map().ShardOfIndex(engine.routing_grid().IndexOf(p));
  };

  // A batch confined to one shard: move its POIs within their own cells.
  const int target = shard_of(initial[0].pos);
  std::vector<dynamic::PoiUpdate> updates;
  for (const spatial::Poi& p : base->pois) {
    if (shard_of(p.pos) != target) continue;
    const geom::Rect cell =
        engine.routing_grid().CellRect(engine.routing_grid().IndexOf(p.pos));
    dynamic::PoiUpdate u;
    u.kind = dynamic::PoiUpdate::Kind::kMove;
    u.id = p.id;
    u.pos = {(cell.x1 + cell.x2) / 2.0, (cell.y1 + cell.y2) / 2.0};
    updates.push_back(u);
    if (updates.size() == 8) break;
  }
  ASSERT_FALSE(updates.empty());

  EXPECT_EQ(world.Apply(updates), 1u);
  EXPECT_EQ(world.shards_rebuilt(), 1);
  const auto next = world.Current();
  EXPECT_EQ(next->rebuilt_shards, std::vector<int>{target});

  // Clean shards share their broadcast systems with the base epoch; the
  // dirty shard carries a fresh one stamped with the new epoch.
  for (int s = 0; s < world.num_shards(); ++s) {
    SCOPED_TRACE(s);
    if (s == target) {
      EXPECT_NE(next->engine->shard_system_ptr(s).get(),
                engine.shard_system_ptr(s).get());
      ASSERT_NE(next->engine->shard_system(s), nullptr);
      EXPECT_EQ(next->engine->shard_system(s)->epoch(), 1u);
    } else {
      EXPECT_EQ(next->engine->shard_system_ptr(s).get(),
                engine.shard_system_ptr(s).get());
    }
  }

  // A world-wide batch dirties many shards at once.
  Rng rng(51);
  int64_t next_insert_id = 10'000;
  world.Apply(MakeBatch(next->pois, &rng, &next_insert_id));
  EXPECT_GT(world.shards_rebuilt(), 1);
  EXPECT_LE(world.shards_rebuilt(), 1 + world.num_shards());
}

}  // namespace
}  // namespace lbsq::core
