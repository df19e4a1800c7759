#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "broadcast/system.h"
#include "common/rng.h"
#include "core/query_engine.h"
#include "core/sharded_query_engine.h"
#include "dynamic/sharded_world.h"
#include "dynamic/update_log.h"
#include "sim/config.h"
#include "sim/parallel_simulator.h"
#include "sim/simulator.h"
#include "sim/update_workload.h"
#include "spatial/generators.h"

/// The dynamic-world subsystem: UpdateLog semantics, ShardedWorld epoch
/// publication and pinning, snapshot consistency under concurrent churn
/// (the TSan target) at one and at four shards, and bitwise determinism of
/// the simulators with updates enabled — including the cache invariant
/// checked against every epoch's snapshot at any shard count.

namespace lbsq {
namespace {

using dynamic::PoiUpdate;
using dynamic::UpdateBatch;
using spatial::Poi;

std::vector<Poi> TestPois() {
  return {{0, {1.0, 1.0}}, {1, {2.0, 2.0}}, {2, {5.0, 5.0}},
          {3, {8.0, 8.0}}, {4, {9.0, 1.0}}};
}

// --- ApplyUpdates ----------------------------------------------------------

TEST(ApplyUpdatesTest, InsertDeleteMoveSemantics) {
  std::vector<Poi> pois = TestPois();
  std::vector<PoiUpdate> updates;
  updates.push_back({PoiUpdate::Kind::kDelete, 1, {}, {}});
  updates.push_back({PoiUpdate::Kind::kMove, 2, {6.0, 6.0}, {}});
  updates.push_back({PoiUpdate::Kind::kInsert, 10, {3.0, 3.0}, {}});
  EXPECT_EQ(dynamic::ApplyUpdates(&updates, &pois), 3);
  ASSERT_EQ(pois.size(), 5u);
  // Generation order preserved: delete compacts, move rewrites in place,
  // insert appends.
  EXPECT_EQ(pois[0].id, 0);
  EXPECT_EQ(pois[1].id, 2);
  EXPECT_EQ(pois[1].pos, (geom::Point{6.0, 6.0}));
  EXPECT_EQ(pois[4].id, 10);
  // The applied batch records the authoritative old position of the move.
  ASSERT_EQ(updates.size(), 3u);
  EXPECT_EQ(updates[1].old_pos, (geom::Point{5.0, 5.0}));
}

TEST(ApplyUpdatesTest, InvalidOpsAreSkippedAndRemovedFromTheBatch) {
  std::vector<Poi> pois = TestPois();
  std::vector<PoiUpdate> updates;
  updates.push_back({PoiUpdate::Kind::kDelete, 99, {}, {}});   // no such id
  updates.push_back({PoiUpdate::Kind::kInsert, 3, {4.0, 4.0}, {}});  // dup id
  updates.push_back({PoiUpdate::Kind::kMove, 98, {1.0, 1.0}, {}});   // no id
  updates.push_back({PoiUpdate::Kind::kDelete, 0, {}, {}});    // valid
  updates.push_back({PoiUpdate::Kind::kDelete, 0, {}, {}});    // dup delete
  EXPECT_EQ(dynamic::ApplyUpdates(&updates, &pois), 1);
  EXPECT_EQ(pois.size(), 4u);
  // The batch is compacted to exactly the applied ops, so the logged batch
  // is an exact record of what changed.
  ASSERT_EQ(updates.size(), 1u);
  EXPECT_EQ(updates[0].kind, PoiUpdate::Kind::kDelete);
  EXPECT_EQ(updates[0].id, 0);
  EXPECT_EQ(updates[0].old_pos, (geom::Point{1.0, 1.0}));
}

// --- UpdateLog dirtiness ---------------------------------------------------

TEST(UpdateLogTest, RegionDirtyBetweenSeesAllThreeKinds) {
  dynamic::UpdateLog log;
  UpdateBatch b1;
  b1.epoch = 1;
  b1.updates.push_back({PoiUpdate::Kind::kInsert, 10, {2.0, 2.0}, {}});
  log.Append(std::move(b1));
  UpdateBatch b2;
  b2.epoch = 2;
  b2.updates.push_back({PoiUpdate::Kind::kDelete, 3, {}, {8.0, 8.0}});
  b2.updates.push_back(
      {PoiUpdate::Kind::kMove, 4, {5.5, 5.5}, {9.0, 1.0}});
  log.Append(std::move(b2));
  EXPECT_EQ(log.latest_epoch(), 2u);

  // Insert position dirties (1..]; delete old_pos and both move endpoints
  // dirty (2..].
  EXPECT_TRUE(log.RegionDirtyBetween({1.5, 1.5, 2.5, 2.5}, 0, 1));
  EXPECT_FALSE(log.RegionDirtyBetween({1.5, 1.5, 2.5, 2.5}, 1, 2));
  EXPECT_TRUE(log.RegionDirtyBetween({7.5, 7.5, 8.5, 8.5}, 1, 2));
  EXPECT_TRUE(log.RegionDirtyBetween({5.0, 5.0, 6.0, 6.0}, 1, 2));  // move to
  EXPECT_TRUE(log.RegionDirtyBetween({8.5, 0.5, 9.5, 1.5}, 1, 2));  // move from
  EXPECT_FALSE(log.RegionDirtyBetween({0.0, 6.0, 1.0, 7.0}, 0, 2));
}

// --- ShardedWorld epochs --------------------------------------------------

TEST(ShardedWorldPublishTest, PublishesSequentialEpochsAndPinsSnapshots) {
  const geom::Rect world{0.0, 0.0, 10.0, 10.0};
  broadcast::BroadcastParams params;
  dynamic::ShardedWorld versions(TestPois(), world, params, {}, 1);
  EXPECT_EQ(versions.latest_epoch(), 0u);
  EXPECT_EQ(versions.Current()->engine->shard_system(0)->epoch(), 0u);

  const std::shared_ptr<const dynamic::ShardedEpoch> pinned =
      versions.Current();
  versions.Apply({{PoiUpdate::Kind::kDelete, 2, {}, {}}});
  EXPECT_EQ(versions.latest_epoch(), 1u);
  EXPECT_EQ(versions.updates_applied(), 1);
  EXPECT_EQ(versions.Current()->pois.size(), 4u);
  EXPECT_EQ(versions.Current()->engine->shard_system(0)->epoch(), 1u);
  // The pinned epoch-0 snapshot is untouched by the publication.
  EXPECT_EQ(pinned->id, 0u);
  EXPECT_EQ(pinned->pois.size(), 5u);
  EXPECT_EQ(pinned->pois[2].id, 2);
  EXPECT_EQ(pinned->engine->shard_system(0)->epoch(), 0u);
}

// History is the caller's: every pin it keeps stays a complete, queryable
// world however many epochs are published after it.
TEST(ShardedWorldPublishTest, RetainedPinsServeEveryEpoch) {
  const geom::Rect world{0.0, 0.0, 10.0, 10.0};
  broadcast::BroadcastParams params;
  dynamic::ShardedWorld versions(TestPois(), world, params, {}, 1);
  std::vector<std::shared_ptr<const dynamic::ShardedEpoch>> history{
      versions.Current()};
  versions.Apply({{PoiUpdate::Kind::kDelete, 0, {}, {}}});
  history.push_back(versions.Current());
  versions.Apply({{PoiUpdate::Kind::kInsert, 50, {4.0, 4.0}, {}}});
  history.push_back(versions.Current());
  ASSERT_EQ(versions.latest_epoch(), 2u);
  for (uint64_t e = 0; e < history.size(); ++e) {
    EXPECT_EQ(history[e]->id, e);
    EXPECT_EQ(history[e]->engine->total_pois(), history[e]->pois.size());
  }
  EXPECT_EQ(history[0]->pois.size(), 5u);
  EXPECT_EQ(history[1]->pois.size(), 4u);
  EXPECT_EQ(history[2]->pois.size(), 5u);
}

// --- Producer churn vs. concurrent query threads (the TSan target) ---------

// A producer thread continuously publishes epochs while query threads pin
// snapshots and execute against them. Every query must observe exactly the
// world of its pinned epoch: the answer it computes against the pinned
// engine equals the brute-force answer over the pinned POI vector. TSan
// (the dynamic-world CI job) proves the pin/publish handoff is race-free;
// the assertions prove it is also *correct* under the race.
class LiveChurnTest : public ::testing::TestWithParam<int> {};

TEST_P(LiveChurnTest, QueriesStaySnapshotConsistentUnderLiveChurn) {
  const geom::Rect world{0.0, 0.0, 10.0, 10.0};
  Rng rng(777);
  std::vector<Poi> initial = spatial::GenerateUniformPois(&rng, world, 80);
  broadcast::BroadcastParams params;
  params.bucket_capacity = 8;
  core::EngineOptions options;
  options.sbnn.accept_approximate = false;
  dynamic::ShardedWorld versions(initial, world, params, options, GetParam());
  ASSERT_EQ(versions.num_shards(), GetParam());

  std::atomic<bool> stop{false};

  // Producer: apply randomized batches back to back.
  std::thread producer([&] {
    Rng prng(778);
    int64_t next_id = 100000;
    for (int batch = 0; batch < 60; ++batch) {
      const std::shared_ptr<const dynamic::ShardedEpoch> snap =
          versions.Current();
      std::vector<PoiUpdate> updates;
      for (int op = 0; op < 4; ++op) {
        PoiUpdate u;
        const double kind = prng.NextDouble();
        if (kind < 0.3 && !snap->pois.empty()) {
          u.kind = PoiUpdate::Kind::kDelete;
          u.id = snap->pois[prng.NextBelow(snap->pois.size())].id;
        } else if (kind < 0.6 && !snap->pois.empty()) {
          u.kind = PoiUpdate::Kind::kMove;
          u.id = snap->pois[prng.NextBelow(snap->pois.size())].id;
          u.pos = {prng.Uniform(0.0, 10.0), prng.Uniform(0.0, 10.0)};
        } else {
          u.kind = PoiUpdate::Kind::kInsert;
          u.id = next_id++;
          u.pos = {prng.Uniform(0.0, 10.0), prng.Uniform(0.0, 10.0)};
        }
        updates.push_back(u);
      }
      versions.Apply(std::move(updates));
    }
    stop.store(true);
  });

  // Query threads: pin, execute, verify against the pinned snapshot.
  std::vector<std::thread> queriers;
  std::atomic<int64_t> queries_run{0};
  std::atomic<int64_t> failures{0};
  for (int t = 0; t < 4; ++t) {
    queriers.emplace_back([&, t] {
      Rng qrng(900 + static_cast<uint64_t>(t));
      core::ShardedQueryWorkspace workspace;
      core::QueryOutcome outcome;
      // At least one query per thread, even if the producer finishes first.
      do {
        core::QueryRequest request;
        if (qrng.NextBool(0.5)) {
          request.kind = core::QueryKind::kKnn;
          request.position = {qrng.Uniform(0.0, 10.0),
                              qrng.Uniform(0.0, 10.0)};
          request.k = static_cast<int>(qrng.UniformInt(1, 6));
        } else {
          request.kind = core::QueryKind::kWindow;
          const geom::Point a{qrng.Uniform(0.0, 7.0),
                              qrng.Uniform(0.0, 7.0)};
          request.window = {a.x, a.y, a.x + 2.0, a.y + 2.0};
        }
        const std::shared_ptr<const dynamic::ShardedEpoch> pinned =
            versions.Execute(request, /*peers=*/nullptr, workspace,
                             &outcome);
        if (outcome.Cacheable().epoch != pinned->id) failures.fetch_add(1);
        if (request.kind == core::QueryKind::kKnn) {
          const auto truth = spatial::BruteForceKnn(
              pinned->pois, request.position, request.k);
          if (outcome.knn->neighbors.size() != truth.size()) {
            failures.fetch_add(1);
          } else {
            for (size_t i = 0; i < truth.size(); ++i) {
              if (outcome.knn->neighbors[i].poi.id != truth[i].poi.id) {
                failures.fetch_add(1);
                break;
              }
            }
          }
        } else {
          if (outcome.window->pois !=
              spatial::BruteForceWindow(pinned->pois, request.window)) {
            failures.fetch_add(1);
          }
        }
        queries_run.fetch_add(1);
      } while (!stop.load());
    });
  }

  producer.join();
  for (std::thread& q : queriers) q.join();

  EXPECT_EQ(versions.latest_epoch(), 60u);
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(queries_run.load(), 0);
}

INSTANTIATE_TEST_SUITE_P(Shards, LiveChurnTest, ::testing::Values(1, 4));

// --- Simulator determinism with updates enabled ----------------------------

sim::SimConfig ChurnConfig(int threads) {
  sim::SimConfig config;
  config.world_side_mi = 1.5;
  config.warmup_min = 1.0;
  config.duration_min = 3.0;
  config.seed = 42;
  config.threads = threads;
  config.updates.interval_events = 10;
  config.updates.inserts_per_batch = 2;
  config.updates.deletes_per_batch = 1;
  config.updates.moves_per_batch = 2;
  return config;
}

TEST(DynamicWorldChurnTest, SequentialEngineDeterministicUnderChurn) {
  sim::Simulator a(ChurnConfig(1));
  sim::Simulator b(ChurnConfig(1));
  const sim::SimMetrics ma = a.Run();
  const sim::SimMetrics mb = b.Run();
  EXPECT_TRUE(ma == mb);
  EXPECT_GT(ma.updates_applied, 0);
  EXPECT_GT(ma.epochs_published, 0);
}

TEST(DynamicWorldChurnTest, ParallelEngineThreadCountInvariantUnderChurn) {
  sim::ParallelSimulator t1(ChurnConfig(1));
  sim::ParallelSimulator t4(ChurnConfig(4));
  const sim::SimMetrics m1 = t1.Run();
  const sim::SimMetrics m4 = t4.Run();
  EXPECT_TRUE(m1 == m4);
  EXPECT_GT(m1.updates_applied, 0);
  EXPECT_GT(m1.epochs_published, 0);
  EXPECT_GT(m1.regions_revalidated + m1.regions_stale_rejected, 0);
}

// With updates *disabled*, the dynamic-capable engines reproduce the
// static seed metrics exactly (the updates-off byte-identity contract at
// the metrics level; the CI job diffs the full tool output).
TEST(DynamicWorldChurnTest, UpdatesOffMatchesStaticMetrics) {
  sim::SimConfig off = ChurnConfig(1);
  off.updates = sim::UpdateWorkloadConfig{};
  off.events_per_epoch = 1;  // parallel == sequential exactly at epoch 1
  sim::Simulator seq(off);
  sim::ParallelSimulator par(off);
  const sim::SimMetrics ms = seq.Run();
  const sim::SimMetrics mp = par.Run();
  EXPECT_TRUE(ms == mp);
  EXPECT_EQ(ms.updates_applied, 0);
  EXPECT_EQ(ms.epochs_published, 0);
  EXPECT_EQ(ms.regions_revalidated, 0);
  EXPECT_EQ(ms.regions_stale_rejected, 0);
}

// The cache invariant holds against each entry's own epoch snapshot at any
// shard count, and checking it leaves the run's metrics untouched.
TEST(DynamicWorldChurnTest, CacheInvariantHoldsUnderShardedChurn) {
  sim::SimConfig config = ChurnConfig(1);
  config.shards = 4;
  sim::ParallelSimulator unchecked(config);
  const sim::SimMetrics expected = unchecked.Run();
  config.check_cache_invariant = true;
  config.check_answers = true;
  sim::ParallelSimulator t1(config);
  config.threads = 4;
  sim::ParallelSimulator t4(config);
  const sim::SimMetrics m1 = t1.Run();
  EXPECT_TRUE(m1 == expected);
  EXPECT_TRUE(t4.Run() == expected);
  EXPECT_GT(m1.epochs_published, 0);
  EXPECT_EQ(m1.answer_errors, 0);

  config.threads = 1;
  config.events_per_epoch = 1;
  sim::Simulator sequential(config);
  EXPECT_GT(sequential.Run().epochs_published, 0);
}

// --- Deterministic update workload -----------------------------------------

TEST(UpdateWorkloadTest, BatchesArePureFunctionsOfSeedAndIndex) {
  const geom::Rect world{0.0, 0.0, 10.0, 10.0};
  Rng rng(55);
  const std::vector<Poi> snapshot =
      spatial::GenerateUniformPois(&rng, world, 60);
  sim::UpdateWorkloadConfig config;
  config.interval_events = 5;
  const int64_t base = sim::FirstInsertId(snapshot);

  const auto a = sim::GenerateUpdateBatch(config, 7, 3, snapshot, world, base);
  const auto b = sim::GenerateUpdateBatch(config, 7, 3, snapshot, world, base);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].pos, b[i].pos);
  }
  // Different batch index, different draws; insert ids never collide
  // across batches.
  const auto c = sim::GenerateUpdateBatch(config, 7, 4, snapshot, world, base);
  for (const PoiUpdate& ua : a) {
    if (ua.kind != PoiUpdate::Kind::kInsert) continue;
    for (const PoiUpdate& uc : c) {
      if (uc.kind != PoiUpdate::Kind::kInsert) continue;
      EXPECT_NE(ua.id, uc.id);
    }
  }
  // A batch never deletes and moves the same POI.
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t j = i + 1; j < a.size(); ++j) {
      if (a[i].kind == PoiUpdate::Kind::kInsert ||
          a[j].kind == PoiUpdate::Kind::kInsert) {
        continue;
      }
      EXPECT_NE(a[i].id, a[j].id);
    }
  }
}

}  // namespace
}  // namespace lbsq
