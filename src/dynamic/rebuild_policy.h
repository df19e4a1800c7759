#ifndef LBSQ_DYNAMIC_REBUILD_POLICY_H_
#define LBSQ_DYNAMIC_REBUILD_POLICY_H_

#include <cstdint>

#include "common/metrics_registry.h"

/// \file
/// Publication-path policy and counters of the dynamic world: whether an
/// epoch is published by patching the previous broadcast system in place
/// (the diff-aware incremental path) or by a cold full rebuild, and the
/// running tally of what actually happened — every fallback is counted,
/// never silent.

namespace lbsq::dynamic {

/// Chooses between the incremental patch and a full rebuild per epoch.
struct RebuildPolicy {
  /// Always full-rebuild (the pre-incremental behavior; also the reference
  /// side of the incremental-vs-full CI diff).
  bool force_full = false;
  /// Heuristic fallback: when the net delta touches more than this fraction
  /// of the base POI set, a full rebuild is cheaper than patching (most
  /// buckets would be dirty anyway) — fall back and count it.
  double full_rebuild_churn_fraction = 0.25;
};

/// What the publication path did, accumulated across epochs. Guarded by the
/// owning world's state mutex; snapshot via the owner's accessor.
struct PublicationStats {
  /// Epochs published (excluding the initial epoch 0).
  int64_t epochs_published = 0;
  /// Epochs published through the incremental patch path.
  int64_t epochs_patched = 0;
  /// Shard systems rebuilt or patched, one per dirty shard per epoch.
  int64_t shards_rebuilt = 0;
  /// Data buckets rebucketized by patches / copied verbatim from the base.
  int64_t buckets_patched = 0;
  int64_t buckets_shared = 0;
  /// Full rebuilds taken although incremental was requested: churn over
  /// threshold, or the patch declining structurally. force_full publications
  /// are not fallbacks and are not counted here.
  int64_t full_rebuild_fallbacks = 0;

  void MergeFrom(const PublicationStats& other) {
    epochs_published += other.epochs_published;
    epochs_patched += other.epochs_patched;
    shards_rebuilt += other.shards_rebuilt;
    buckets_patched += other.buckets_patched;
    buckets_shared += other.buckets_shared;
    full_rebuild_fallbacks += other.full_rebuild_fallbacks;
  }

  /// Publishes the tallies as `dynamic.*` counters. Callers gate this on
  /// updates being enabled so static-world runs export no dynamic metrics.
  void ExportTo(MetricsRegistry* registry) const {
    registry->IncrementCounter("dynamic.epochs_published", epochs_published);
    registry->IncrementCounter("dynamic.epochs_patched", epochs_patched);
    registry->IncrementCounter("dynamic.shards_rebuilt", shards_rebuilt);
    registry->IncrementCounter("dynamic.buckets_patched", buckets_patched);
    registry->IncrementCounter("dynamic.buckets_shared", buckets_shared);
    registry->IncrementCounter("dynamic.full_rebuild_fallbacks",
                               full_rebuild_fallbacks);
  }
};

}  // namespace lbsq::dynamic

#endif  // LBSQ_DYNAMIC_REBUILD_POLICY_H_
