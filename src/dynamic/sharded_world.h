#ifndef LBSQ_DYNAMIC_SHARDED_WORLD_H_
#define LBSQ_DYNAMIC_SHARDED_WORLD_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "broadcast/system.h"
#include "core/query_engine.h"
#include "core/sharded_query_engine.h"
#include "core/verified_region.h"
#include "dynamic/rebuild_policy.h"
#include "dynamic/update_log.h"
#include "geom/rect.h"
#include "spatial/poi.h"

/// \file
/// Epoch versioning of the broadcast world (MVCC-lite, in the spirit of
/// memtx snapshot reads): the POI database is mutable through
/// insert/delete/move batches, but every published *epoch* — the POI
/// snapshot plus the per-shard broadcast systems and the sharded query
/// engine built from them — is immutable forever. Queries pin the epoch
/// they start on via a shared_ptr and execute against a frozen, consistent
/// world no matter how many batches land meanwhile; an epoch's storage is
/// reclaimed when the last pin drops.
///
/// One global update stream advances one global epoch sequence (one
/// `ApplyUpdates` merge on one global POI mirror, so the epoch ids, the
/// applied-batch filtering, and the update log are identical at any shard
/// count), but each batch rebuilds only the shards it touches: an update
/// lands on the shard(s) owning its old and new positions, and every other
/// shard's broadcast system is shared, untouched, with the previous epoch.
/// A thousand-batch churn over a metro deployment rebuilds each small dirty
/// slice instead of re-bucketizing the whole world N times. At one shard
/// this is the paper's single channel: every batch republishes it.
///
/// The shard map is fixed at construction (from the initial occupancy):
/// repartitioning on churn would invalidate every channel at once and break
/// the clean-shard sharing that makes incremental publication cheap.
/// Occupancy drift under sustained one-sided churn is the operator's cue to
/// re-deploy, not the world's to rebalance silently.
///
/// Peer knowledge verified on one epoch and shared into a query pinned to
/// another is revalidated against the update log first: retagged when its
/// region is untouched by the separating batches, rejected as stale
/// otherwise.

namespace lbsq::dynamic {

/// Accounting of one revalidation pass.
struct RevalidationStats {
  /// Cross-epoch regions proven still complete and retagged to the pin.
  int64_t revalidated = 0;
  /// Cross-epoch regions dropped because an update touched them.
  int64_t rejected = 0;
};

/// Revalidates every shared region of `peer` against `pinned_epoch`: a
/// region tagged with a different epoch is kept (and retagged) only when no
/// update in the separating batch interval touched it — otherwise its
/// completeness guarantee (Lemma 3.1's precondition) may be broken and it
/// is removed. `dirty(rect, from_exclusive, to_inclusive)` must mirror
/// UpdateLog::RegionDirtyBetween semantics.
template <typename DirtyFn>
RevalidationStats RevalidatePeerDataWith(const DirtyFn& dirty,
                                         uint64_t pinned_epoch,
                                         core::PeerData* peer) {
  RevalidationStats stats;
  auto stale = [&](core::VerifiedRegion& vr) {
    if (vr.epoch == pinned_epoch) return false;
    const uint64_t lo = std::min(vr.epoch, pinned_epoch);
    const uint64_t hi = std::max(vr.epoch, pinned_epoch);
    if (dirty(vr.region, lo, hi)) {
      ++stats.rejected;
      return true;
    }
    vr.epoch = pinned_epoch;
    ++stats.revalidated;
    return false;
  };
  std::erase_if(peer->regions, stale);
  return stats;
}

/// Every-peer form. Peers left empty are kept (harmless; matches
/// GatherPeers' non-empty filter semantics downstream).
template <typename DirtyFn>
RevalidationStats RevalidatePeerDataWith(const DirtyFn& dirty,
                                         uint64_t pinned_epoch,
                                         std::vector<core::PeerData>* peers) {
  RevalidationStats stats;
  for (core::PeerData& peer : *peers) {
    const RevalidationStats one =
        RevalidatePeerDataWith(dirty, pinned_epoch, &peer);
    stats.revalidated += one.revalidated;
    stats.rejected += one.rejected;
  }
  return stats;
}

/// One immutable published version of the sharded world.
struct ShardedEpoch {
  uint64_t id = 0;
  /// Global POI mirror in generation order — the oracle snapshot this
  /// epoch's answers are exact against.
  std::vector<spatial::Poi> pois;
  /// The multi-shard engine. Shards the publishing batch left untouched
  /// share their BroadcastSystem with the previous epoch; dirty shards
  /// carry freshly built ones stamped with this epoch's id.
  std::unique_ptr<core::ShardedQueryEngine> engine;
  /// The shards rebuilt to publish this epoch (all non-empty shards for
  /// epoch 0; the batch's dirty set afterwards). Diagnostics and tests.
  std::vector<int> rebuilt_shards;
};

/// Accepts update batches and publishes sharded epochs. Thread-safe on the
/// reader side (`Current`, `RegionDirty`, `Execute` from any thread),
/// concurrently with a rebuild; producers must serialize their `Apply`
/// calls.
class ShardedWorld {
 public:
  /// Builds and publishes epoch 0: partitions `initial` by occupancy into
  /// `num_shards` Hilbert ranges and builds every shard channel (see the
  /// ShardedQueryEngine constructor). Every epoch's shard systems are
  /// byte-identical to cold builds of that epoch's POIs.
  ShardedWorld(std::vector<spatial::Poi> initial, const geom::Rect& world,
               const broadcast::BroadcastParams& params,
               const core::EngineOptions& options, int num_shards);

  ShardedWorld(const ShardedWorld&) = delete;
  ShardedWorld& operator=(const ShardedWorld&) = delete;

  /// Pins and returns the newest published epoch.
  std::shared_ptr<const ShardedEpoch> Current() const;

  /// Id of the newest published epoch.
  uint64_t latest_epoch() const;

  /// Applies one batch synchronously: merges it into the global mirror in
  /// one linear pass that preserves generation order, rebuilds the dirty
  /// shards only, publishes the next epoch, and logs the applied batch.
  /// Returns the new epoch id. Pinned readers never wait on the rebuild.
  uint64_t Apply(std::vector<PoiUpdate> updates);

  /// UpdateLog::RegionDirtyBetween over the global, shard-agnostic log.
  bool RegionDirty(const geom::Rect& rect, uint64_t from_exclusive,
                   uint64_t to_inclusive) const;

  /// RevalidatePeerDataWith over this world's log: edits `peers` in place
  /// so every surviving region is complete on `pinned_epoch`.
  RevalidationStats RevalidatePeers(uint64_t pinned_epoch,
                                    std::vector<core::PeerData>* peers) const;

  /// Updates applied across all published epochs (skipped-invalid excluded).
  int64_t updates_applied() const;

  /// Cumulative count of shard rebuilds across all Apply calls — the
  /// incremental-publication win is `epochs * num_shards` minus this.
  int64_t shards_rebuilt() const;

  /// Sets the publication policy (per-shard incremental patch vs. full
  /// rebuild). Set it before the first Apply; rebuilds read it without
  /// further synchronization.
  void set_rebuild_policy(const RebuildPolicy& policy) { policy_ = policy; }
  const RebuildPolicy& rebuild_policy() const { return policy_; }

  /// What the publication path did so far. `shards_rebuilt` here counts
  /// dirty-shard republications (patched or full); `full_rebuild_fallbacks`
  /// counts the ones that wanted to patch but full-built instead.
  PublicationStats publication_stats() const;

  int num_shards() const { return num_shards_; }
  const geom::Rect& world() const { return world_; }

  /// Pins the current epoch, revalidates `peers` against the global update
  /// log, and executes the request on the pinned epoch's sharded engine
  /// through `workspace` (pure scratch, so any epoch may use it).
  ///
  /// `peers` is the host's own mutable peer-knowledge snapshot — the one
  /// place execution edits: regions invalidated by the separating update
  /// batches are erased in place, and the query runs with the survivors as
  /// its peer span. May be null for a peerless query. `request.peers` must
  /// be empty; the span is bound here, after revalidation, so it can never
  /// dangle. No per-query heap allocation: the in-place erase only releases
  /// memory. A non-null `stats` accumulates the revalidation counts.
  ///
  /// The outcome's cacheable is stamped with the *global* pinned epoch, so
  /// cached knowledge revalidates against the shard-agnostic log no matter
  /// which shards produced it. Returns the pinned epoch — the world the
  /// outcome is consistent with; its `pois` are the oracle snapshot.
  std::shared_ptr<const ShardedEpoch> Execute(
      const core::QueryRequest& request, std::vector<core::PeerData>* peers,
      core::ShardedQueryWorkspace& workspace, core::QueryOutcome* outcome,
      RevalidationStats* stats = nullptr) const;

 private:
  /// The shard owning position `p` under the fixed map.
  int ShardOf(const core::ShardedQueryEngine& engine, geom::Point p) const;

  geom::Rect world_;
  broadcast::BroadcastParams params_;
  core::EngineOptions options_;
  int num_shards_ = 1;
  RebuildPolicy policy_;

  mutable std::mutex state_mutex_;
  std::shared_ptr<const ShardedEpoch> current_;
  UpdateLog log_;
  int64_t updates_applied_ = 0;
  int64_t shards_rebuilt_ = 0;
  PublicationStats stats_;

  // Serializes producers: readers never take it, so queries keep running
  // while a rebuild is in flight.
  std::mutex build_mutex_;
};

}  // namespace lbsq::dynamic

#endif  // LBSQ_DYNAMIC_SHARDED_WORLD_H_
