#ifndef LBSQ_SIM_SIM_WORLD_H_
#define LBSQ_SIM_SIM_WORLD_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/peer_cache.h"
#include "dynamic/sharded_world.h"
#include "geom/rect.h"
#include "sim/config.h"
#include "sim/metrics.h"

/// \file
/// The simulated server side both simulation engines drive: the POI
/// database generated from the config's seed, published as
/// `dynamic::ShardedWorld` epochs over `config.shards` Hilbert-range
/// channels (one shard is the paper's single broadcast channel), the
/// deterministic update schedule that advances it, the cross-epoch peer
/// revalidation, and the cache-invariant oracle. The sequential and the
/// parallel engine differ only in how they schedule query events; the
/// world they query is this one class.

namespace lbsq::sim {

class SimWorld {
 public:
  /// Generates the config's POI set and publishes epoch 0 (validates
  /// `config` first).
  explicit SimWorld(const SimConfig& config);

  /// The simulated world rectangle.
  const geom::Rect& bounds() const { return bounds_; }
  /// The epoch store.
  const dynamic::ShardedWorld& versions() const { return versions_; }
  /// The pinned epoch every query event executes against: epoch 0 until an
  /// update batch fires, then the newest published one. Immutable between
  /// two MaybeApplyUpdates calls, so worker threads read it lock-free.
  const dynamic::ShardedEpoch& current() const { return *current_; }

  /// The longest broadcast cycle among the pinned epoch's channels (the
  /// merged latency is a max over queried channels, so latency histograms
  /// size their buckets by it).
  int64_t MaxCycleLength() const;

  /// Applies the deterministic update batch due before event `event_index`
  /// (a no-op unless updates are enabled and the index is a nonzero
  /// multiple of the configured interval) and re-pins the published epoch.
  /// Batch k produces epoch k from the epoch-(k-1) snapshot, purely from
  /// (config, seed, k) — never from engine, shard, or thread count.
  void MaybeApplyUpdates(size_t event_index, double event_time_min,
                         SimMetrics* metrics);

  /// Gathered peer regions may predate the pinned epoch: keeps only those
  /// whose completeness survives the separating update batches (retagged to
  /// the pin) and reports the counts. Thread-safe; a no-op returning zeros
  /// while updates are disabled.
  dynamic::RevalidationStats RevalidatePeers(
      std::vector<core::PeerData>* peers) const;

  /// Aborts unless every entry of `cache` is complete and exact w.r.t. the
  /// POI database of the epoch it was verified on (check_cache_invariant
  /// mode; completeness is an epoch-relative guarantee). Brute force over
  /// the epoch snapshot, so worker threads may call it concurrently.
  void CheckCacheInvariant(const core::PeerCache& cache) const;

 private:
  SimConfig config_;
  geom::Rect bounds_;
  dynamic::ShardedWorld versions_;
  std::shared_ptr<const dynamic::ShardedEpoch> current_;
  /// Every published epoch by id, kept only under check_cache_invariant
  /// (the oracle needs the snapshot each cache entry was verified on).
  std::vector<std::shared_ptr<const dynamic::ShardedEpoch>> history_;
  /// First id handed to inserted POIs (fixed at construction).
  int64_t base_insert_id_ = 0;
};

}  // namespace lbsq::sim

#endif  // LBSQ_SIM_SIM_WORLD_H_
