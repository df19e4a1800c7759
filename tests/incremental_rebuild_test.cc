#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "broadcast/incremental.h"
#include "broadcast/system.h"
#include "common/rng.h"
#include "dynamic/sharded_world.h"
#include "dynamic/update_log.h"
#include "sim/config.h"
#include "sim/parallel_simulator.h"
#include "spatial/generators.h"
#include "spatial/poi.h"
#include "storage/buffer_pool.h"
#include "storage/storage_manager.h"
#include "storage/system_builder.h"

/// The diff-aware incremental epoch rebuild: PatchFrom must be
/// *bit-identical* to a cold full build at every epoch — same buckets, same
/// air-index entries, same schedule, same id-sorted CSR runs — across a
/// thousand randomized churn batches (uniform and skewed, with adversarial
/// per-id op chains), and the simulators' answer digests must not depend on
/// which publication path produced the epochs, at 1 and 8 threads.

namespace lbsq {
namespace {

using broadcast::BroadcastParams;
using broadcast::BroadcastSystem;
using dynamic::PoiUpdate;
using spatial::Poi;

constexpr geom::Rect kWorld{0.0, 0.0, 10.0, 10.0};

/// Full structural diff of two systems, double-for-double. EXPECT (not
/// ASSERT) so one divergent epoch reports every divergent facet at once;
/// the caller stops on the first failed epoch.
void ExpectIdenticalSystems(const BroadcastSystem& a,
                            const BroadcastSystem& b) {
  // POI database, in generation order.
  ASSERT_EQ(a.pois().size(), b.pois().size());
  for (size_t i = 0; i < a.pois().size(); ++i) {
    EXPECT_EQ(a.pois()[i], b.pois()[i]) << "poi " << i;
  }
  // The bucketized data file.
  ASSERT_EQ(a.buckets().size(), b.buckets().size());
  for (size_t k = 0; k < a.buckets().size(); ++k) {
    const broadcast::DataBucket& ba = a.buckets()[k];
    const broadcast::DataBucket& bb = b.buckets()[k];
    EXPECT_EQ(ba.id, bb.id);
    EXPECT_EQ(ba.epoch, bb.epoch);
    EXPECT_EQ(ba.hilbert_lo, bb.hilbert_lo) << "bucket " << k;
    EXPECT_EQ(ba.hilbert_hi, bb.hilbert_hi) << "bucket " << k;
    EXPECT_EQ(ba.mbr, bb.mbr) << "bucket " << k;
    ASSERT_EQ(ba.pois.size(), bb.pois.size()) << "bucket " << k;
    for (size_t i = 0; i < ba.pois.size(); ++i) {
      EXPECT_EQ(ba.pois[i], bb.pois[i]) << "bucket " << k << " poi " << i;
    }
  }
  // The air-index directory, entry for entry, including the SoA centers.
  ASSERT_EQ(a.index().entries().size(), b.index().entries().size());
  for (size_t i = 0; i < a.index().entries().size(); ++i) {
    EXPECT_EQ(a.index().entries()[i].hilbert, b.index().entries()[i].hilbert)
        << "entry " << i;
    EXPECT_EQ(a.index().entries()[i].bucket, b.index().entries()[i].bucket)
        << "entry " << i;
    EXPECT_EQ(a.index().center_xs()[i], b.index().center_xs()[i]);
    EXPECT_EQ(a.index().center_ys()[i], b.index().center_ys()[i]);
  }
  EXPECT_EQ(a.index().bucket_ranges(), b.index().bucket_ranges());
  EXPECT_EQ(a.index().half_cell_diagonal(), b.index().half_cell_diagonal());
  EXPECT_EQ(a.index().SizeInBuckets(), b.index().SizeInBuckets());
  // The (1, m) schedule.
  EXPECT_EQ(a.schedule().num_data_buckets(), b.schedule().num_data_buckets());
  EXPECT_EQ(a.schedule().index_buckets(), b.schedule().index_buckets());
  EXPECT_EQ(a.schedule().m(), b.schedule().m());
  EXPECT_EQ(a.schedule().cycle_length(), b.schedule().cycle_length());
  EXPECT_EQ(a.schedule().epoch(), b.schedule().epoch());
  EXPECT_EQ(a.epoch(), b.epoch());
  // The id-sorted CSR runs behind CollectPois, bucket by bucket.
  for (size_t k = 0; k < a.buckets().size(); ++k) {
    const std::vector<Poi> run_a =
        a.CollectPois({static_cast<int64_t>(k)});
    const std::vector<Poi> run_b =
        b.CollectPois({static_cast<int64_t>(k)});
    ASSERT_EQ(run_a.size(), run_b.size()) << "run " << k;
    for (size_t i = 0; i < run_a.size(); ++i) {
      EXPECT_EQ(run_a[i], run_b[i]) << "run " << k << " poi " << i;
    }
  }
  // Tree index, when configured: same serialized size and per-range read
  // cost derivation (it is re-bulk-loaded from identical entries).
  ASSERT_EQ(a.tree_index() != nullptr, b.tree_index() != nullptr);
  if (a.tree_index() != nullptr) {
    EXPECT_EQ(a.tree_index()->SizeInBuckets(),
              b.tree_index()->SizeInBuckets());
  }
}

geom::Point RandomPoint(Rng* rng, bool skewed) {
  if (!skewed) {
    return {rng->Uniform(kWorld.x1, kWorld.x2),
            rng->Uniform(kWorld.y1, kWorld.y2)};
  }
  // Skewed churn: everything lands in one hot corner cell cluster, so the
  // same few buckets are dirtied over and over while the rest stay clean.
  return {rng->Uniform(kWorld.x1, kWorld.x1 + 0.8),
          rng->Uniform(kWorld.y1, kWorld.y1 + 0.8)};
}

/// One randomized batch: inserts, deletes, moves, plus deliberately
/// adversarial per-id chains (delete+reinsert of the same id, double moves)
/// that only net-delta extraction handles correctly.
std::vector<PoiUpdate> RandomBatch(Rng* rng, const std::vector<Poi>& pois,
                                   int64_t* next_id, bool skewed) {
  std::vector<PoiUpdate> batch;
  const auto live_id = [&]() {
    return pois[static_cast<size_t>(rng->UniformInt(
                    0, static_cast<int64_t>(pois.size()) - 1))]
        .id;
  };
  const int inserts = static_cast<int>(rng->UniformInt(0, 3));
  const int deletes = pois.size() > 8 ? static_cast<int>(rng->UniformInt(0, 2))
                                      : 0;
  const int moves = static_cast<int>(rng->UniformInt(0, 3));
  for (int i = 0; i < inserts; ++i) {
    batch.push_back(
        {PoiUpdate::Kind::kInsert, (*next_id)++, RandomPoint(rng, skewed), {}});
  }
  for (int i = 0; i < deletes; ++i) {
    batch.push_back({PoiUpdate::Kind::kDelete, live_id(), {}, {}});
  }
  for (int i = 0; i < moves; ++i) {
    batch.push_back(
        {PoiUpdate::Kind::kMove, live_id(), RandomPoint(rng, skewed), {}});
  }
  if (rng->UniformInt(0, 4) == 0 && pois.size() > 8) {
    // Delete then re-insert the same id elsewhere, then move it again: three
    // ops, one id, netting to removal + addition at the final position.
    const int64_t id = live_id();
    batch.push_back({PoiUpdate::Kind::kDelete, id, {}, {}});
    batch.push_back(
        {PoiUpdate::Kind::kInsert, id, RandomPoint(rng, skewed), {}});
    batch.push_back(
        {PoiUpdate::Kind::kMove, id, RandomPoint(rng, skewed), {}});
  }
  return batch;
}

void RunChurnIdentity(bool skewed, BroadcastParams params, uint64_t seed,
                      int batches) {
  Rng rng(seed);
  std::vector<Poi> pois = spatial::GenerateUniformPois(&rng, kWorld, 150);
  int64_t next_id = 100000;
  params.epoch = 0;
  auto incremental =
      std::make_unique<BroadcastSystem>(pois, kWorld, params);

  int64_t patched_epochs = 0;
  for (int b = 1; b <= batches; ++b) {
    std::vector<PoiUpdate> batch = RandomBatch(&rng, pois, &next_id, skewed);
    dynamic::ApplyUpdates(&batch, &pois);
    const broadcast::SystemDelta delta = dynamic::DeltaFromBatch(batch);
    params.epoch = static_cast<uint64_t>(b);

    broadcast::PatchStats stats;
    std::unique_ptr<BroadcastSystem> patched = BroadcastSystem::PatchFrom(
        *incremental, pois, delta, params, &stats);
    // Reference: the cold full build of the same epoch.
    const BroadcastSystem full(pois, kWorld, params);
    if (patched != nullptr) {
      ++patched_epochs;
      EXPECT_EQ(stats.buckets_patched + stats.buckets_shared,
                static_cast<int64_t>(full.buckets().size()));
      incremental = std::move(patched);
    } else {
      // Structural decline (e.g. the world emptied): full-build and keep
      // chaining — the next patch works from this base.
      incremental = std::make_unique<BroadcastSystem>(pois, kWorld, params);
    }
    ExpectIdenticalSystems(*incremental, full);
    if (::testing::Test::HasFailure()) {
      FAIL() << "incremental != full at epoch " << b
             << (skewed ? " (skewed)" : " (uniform)");
    }
  }
  // The property is vacuous if patching never engaged.
  EXPECT_GT(patched_epochs, batches / 2);
}

// 1000 randomized batches: 4 param/skew scenarios x 250 chained epochs,
// every epoch diffed facet-by-facet against a cold build.
TEST(IncrementalRebuildProperty, UniformChurnFlatIndex) {
  RunChurnIdentity(/*skewed=*/false, BroadcastParams{}, /*seed=*/101, 250);
}

TEST(IncrementalRebuildProperty, SkewedChurnFlatIndex) {
  RunChurnIdentity(/*skewed=*/true, BroadcastParams{}, /*seed=*/202, 250);
}

TEST(IncrementalRebuildProperty, UniformChurnTreeIndexSmallBuckets) {
  BroadcastParams params;
  params.index_kind = broadcast::IndexKind::kTree;
  params.bucket_capacity = 4;
  RunChurnIdentity(/*skewed=*/false, params, /*seed=*/303, 250);
}

TEST(IncrementalRebuildProperty, SkewedChurnTreeIndexMorton) {
  BroadcastParams params;
  params.index_kind = broadcast::IndexKind::kTree;
  params.curve = hilbert::CurveKind::kMorton;
  RunChurnIdentity(/*skewed=*/true, params, /*seed=*/404, 250);
}

// Structural decliners: patching refuses rather than guessing.
TEST(IncrementalRebuildTest, DeclinesEmptyBaseAndParamsMismatch) {
  Rng rng(7);
  std::vector<Poi> pois = spatial::GenerateUniformPois(&rng, kWorld, 40);
  const BroadcastParams params;
  const BroadcastSystem base(pois, kWorld, params);
  broadcast::SystemDelta empty_delta;

  // Params disagreeing in anything but the epoch: declined.
  BroadcastParams other = params;
  other.bucket_capacity = params.bucket_capacity * 2;
  EXPECT_EQ(BroadcastSystem::PatchFrom(base, pois, empty_delta, other,
                                       nullptr),
            nullptr);

  // Empty base: declined (the placeholder bucket has no entries to merge).
  const BroadcastSystem empty_base({}, kWorld, params);
  EXPECT_EQ(BroadcastSystem::PatchFrom(empty_base, pois, empty_delta, params,
                                       nullptr),
            nullptr);

  // Same params modulo epoch: accepted, and a no-op delta shares every
  // bucket.
  BroadcastParams next = params;
  next.epoch = 1;
  broadcast::PatchStats stats;
  const auto patched =
      BroadcastSystem::PatchFrom(base, pois, empty_delta, next, &stats);
  ASSERT_NE(patched, nullptr);
  EXPECT_EQ(stats.buckets_patched, 0);
  EXPECT_EQ(stats.buckets_shared,
            static_cast<int64_t>(base.buckets().size()));
  EXPECT_EQ(patched->epoch(), 1u);
}

// The heuristic fallback: over-threshold churn full-builds and is counted,
// never silent.
TEST(IncrementalRebuildTest, ChurnThresholdFallbackIsCounted) {
  Rng rng(11);
  std::vector<Poi> pois = spatial::GenerateUniformPois(&rng, kWorld, 60);
  dynamic::ShardedWorld versions(pois, kWorld, BroadcastParams{},
                                 core::EngineOptions{}, /*num_shards=*/1);
  dynamic::RebuildPolicy policy;
  policy.full_rebuild_churn_fraction = 0.05;  // 60 POIs -> max 3 net ops
  versions.set_rebuild_policy(policy);

  // Two net ops: patched.
  versions.Apply({{PoiUpdate::Kind::kMove, pois[0].id, {5.5, 5.5}, {}},
                  {PoiUpdate::Kind::kDelete, pois[1].id, {}, {}}});
  dynamic::PublicationStats stats = versions.publication_stats();
  EXPECT_EQ(stats.epochs_patched, 1);
  EXPECT_EQ(stats.full_rebuild_fallbacks, 0);

  // Ten net ops on a 59-POI base: over the 5% threshold, counted fallback.
  std::vector<PoiUpdate> big;
  for (int i = 0; i < 10; ++i) {
    big.push_back({PoiUpdate::Kind::kInsert, 5000 + i,
                   geom::Point{0.5 + 0.1 * i, 0.5}, {}});
  }
  versions.Apply(std::move(big));
  stats = versions.publication_stats();
  EXPECT_EQ(stats.epochs_published, 2);
  EXPECT_EQ(stats.epochs_patched, 1);
  EXPECT_EQ(stats.full_rebuild_fallbacks, 1);

  // force_full publishes full but is not a fallback.
  policy.force_full = true;
  versions.set_rebuild_policy(policy);
  versions.Apply({{PoiUpdate::Kind::kMove, pois[2].id, {1.0, 9.0}, {}}});
  stats = versions.publication_stats();
  EXPECT_EQ(stats.epochs_published, 3);
  EXPECT_EQ(stats.epochs_patched, 1);
  EXPECT_EQ(stats.full_rebuild_fallbacks, 1);
}

// The sharded world patches per dirty shard and shares the rest; the
// patched deployment is identical to the full-rebuilt one.
TEST(IncrementalRebuildTest, ShardedPatchMatchesShardedFullRebuild) {
  Rng rng(23);
  const std::vector<Poi> initial =
      spatial::GenerateUniformPois(&rng, kWorld, 200);

  dynamic::ShardedWorld patched(initial, kWorld, BroadcastParams{},
                                core::EngineOptions{}, /*num_shards=*/4);
  dynamic::ShardedWorld full(initial, kWorld, BroadcastParams{},
                             core::EngineOptions{}, /*num_shards=*/4);
  dynamic::RebuildPolicy force;
  force.force_full = true;
  full.set_rebuild_policy(force);

  Rng churn(31);
  std::vector<Poi> mirror = initial;
  int64_t next_id = 100000;
  for (int b = 0; b < 40; ++b) {
    const std::vector<PoiUpdate> batch =
        RandomBatch(&churn, mirror, &next_id, b % 2 == 1);
    {
      std::vector<PoiUpdate> copy = batch;
      dynamic::ApplyUpdates(&copy, &mirror);
    }
    {
      std::vector<PoiUpdate> copy = batch;
      patched.Apply(std::move(copy));
    }
    {
      std::vector<PoiUpdate> copy = batch;
      full.Apply(std::move(copy));
    }
    const auto ep = patched.Current();
    const auto ef = full.Current();
    ASSERT_EQ(ep->id, ef->id);
    ASSERT_EQ(ep->rebuilt_shards, ef->rebuilt_shards);
    for (int s = 0; s < patched.num_shards(); ++s) {
      const BroadcastSystem* sp = ep->engine->shard_system(s);
      const BroadcastSystem* sf = ef->engine->shard_system(s);
      ASSERT_EQ(sp != nullptr, sf != nullptr) << "shard " << s;
      if (sp != nullptr) ExpectIdenticalSystems(*sp, *sf);
    }
    if (::testing::Test::HasFailure()) {
      FAIL() << "sharded incremental != full at epoch " << b + 1;
    }
  }
  const dynamic::PublicationStats stats = patched.publication_stats();
  EXPECT_GT(stats.epochs_patched, 0);
  EXPECT_GT(stats.buckets_shared, 0);
}

// The incremental path composes with OpenFromStore: a system reopened from
// a persisted page store is a valid patch base, and patching it produces
// exactly what patching the originally built system produces (both
// bit-identical to the cold build of the new epoch).
TEST(IncrementalRebuildTest, PatchComposesWithOpenFromStore) {
  Rng rng(47);
  std::vector<Poi> pois = spatial::GenerateUniformPois(&rng, kWorld, 120);
  const storage::SystemBuilder builder(kWorld, BroadcastParams{});
  const auto built_engine = builder.BuildFromPois(pois);

  storage::MemoryStorageManager store;
  storage::BufferPool pool(&store, /*capacity=*/16);
  ASSERT_TRUE(builder.WriteStore(*built_engine, &store));
  storage::OpenStatus status = storage::OpenStatus::kOk;
  const auto reopened = builder.OpenFromStore(store, &pool, &status);
  ASSERT_NE(reopened, nullptr) << storage::OpenStatusName(status);

  int64_t next_id = 100000;
  std::vector<PoiUpdate> batch =
      RandomBatch(&rng, pois, &next_id, /*skewed=*/false);
  dynamic::ApplyUpdates(&batch, &pois);
  const broadcast::SystemDelta delta = dynamic::DeltaFromBatch(batch);

  BroadcastParams next = builder.params();
  next.epoch = 1;
  broadcast::PatchStats from_built_stats;
  broadcast::PatchStats from_store_stats;
  const auto from_built = BroadcastSystem::PatchFrom(
      *built_engine->shard_system(0), pois, delta, next, &from_built_stats);
  const auto from_store = BroadcastSystem::PatchFrom(
      *reopened->shard_system(0), pois, delta, next, &from_store_stats);
  ASSERT_NE(from_built, nullptr);
  ASSERT_NE(from_store, nullptr);
  EXPECT_EQ(from_built_stats.buckets_shared, from_store_stats.buckets_shared);
  const BroadcastSystem cold(pois, kWorld, next);
  ExpectIdenticalSystems(*from_store, *from_built);
  ExpectIdenticalSystems(*from_store, cold);
}

// Answer digests are independent of the publication path and the thread
// count: {incremental, full} x {1 thread, 8 threads} all agree.
TEST(IncrementalRebuildTest, AnswerDigestsMatchAcrossPathAndThreads) {
  const auto config = [](int threads, bool force_full) {
    sim::SimConfig c;
    c.world_side_mi = 1.5;
    c.warmup_min = 1.0;
    c.duration_min = 3.0;
    c.seed = 42;
    c.threads = threads;
    c.updates.interval_events = 10;
    c.updates.force_full_rebuild = force_full;
    return c;
  };
  sim::ParallelSimulator inc1(config(1, false));
  sim::ParallelSimulator inc8(config(8, false));
  sim::ParallelSimulator full1(config(1, true));
  sim::ParallelSimulator full8(config(8, true));
  const sim::SimMetrics mi1 = inc1.Run();
  const sim::SimMetrics mi8 = inc8.Run();
  const sim::SimMetrics mf1 = full1.Run();
  const sim::SimMetrics mf8 = full8.Run();
  EXPECT_TRUE(mi1 == mi8);
  EXPECT_TRUE(mf1 == mf8);
  EXPECT_TRUE(mi1 == mf1);
  EXPECT_EQ(mi1.answer_digest, mf8.answer_digest);
  EXPECT_GT(mi1.epochs_published, 0);
  // The incremental run actually patched; the forced run never did.
  const dynamic::ShardedWorld& inc_versions = inc1.world().versions();
  const dynamic::ShardedWorld& full_versions = full1.world().versions();
  EXPECT_GT(inc_versions.publication_stats().epochs_patched, 0);
  EXPECT_EQ(full_versions.publication_stats().epochs_patched, 0);
  EXPECT_EQ(full_versions.publication_stats().full_rebuild_fallbacks, 0);
}

}  // namespace
}  // namespace lbsq
