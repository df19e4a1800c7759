#ifndef LBSQ_CORE_SHARDED_QUERY_ENGINE_H_
#define LBSQ_CORE_SHARDED_QUERY_ENGINE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "broadcast/system.h"
#include "core/query_engine.h"
#include "core/query_workspace.h"
#include "geom/rect.h"
#include "hilbert/partition.h"
#include "spatial/poi.h"

/// \file
/// Metro-scale query execution over Hilbert-range shards. One broadcast
/// channel cannot carry a metropolitan POI database — the cycle grows with
/// the data and every query's access latency grows with it. Sharding cuts
/// the Hilbert curve into N contiguous ranges (`hilbert::ShardMap`) and
/// runs one complete, independent `broadcast::BroadcastSystem` per range:
/// N parallel channels, each with the short cycle of its own slice.
///
/// `ShardedQueryEngine` is the multi-shard counterpart of `QueryEngine`
/// and speaks the same `QueryRequest` / `QueryOutcome` vocabulary:
///
///  - kNN: the request runs in full (peers included) on the *home* shard —
///    the shard owning the query point's curve cell. A peer-resolved
///    outcome is final: the peer stage is a pure function of (q, k, peers,
///    global POI density), so it never depends on the shard count. On
///    broadcast fallback, the home answer's k-th distance bounds the
///    global k-th distance, and only shards whose POI bounding box lies
///    within that bound are queried (peerlessly); the partial answers
///    k-way merge by (distance, id) with the kernel tie rules.
///  - Window: the touched shards come from the window's Hilbert cover
///    through the ShardMap; each runs the request (peers included — the
///    MVR reduction applies per shard) and the partial POI sets union,
///    deduplicated by id at the shard seams.
///
/// Guarantees:
///  - 1 shard: pure delegation — byte-identical to an unsharded
///    `QueryEngine` over the same POIs (the partitioner preserves input
///    order, so even the broadcast schedule is identical).
///  - N shards: execution is deterministic, and the *answer plane*
///    (neighbor ids + distances, window POI sets) is bit-identical to the
///    1-shard answer for exact resolutions at any shard count.
///  - Zero heap allocations per query at steady state: all scratch lives
///    in the caller's `ShardedQueryWorkspace` (bench_shard_scale gates
///    this).
///
/// Merged-outcome conventions at N > 1 (documented deviations from the
/// single-channel outcome):
///  - `stats.access_latency` is the max over the queried shards (the
///    channels broadcast concurrently; the client tunes them in parallel),
///    `tuning_time` and `buckets_read` are sums (receiver-on time and
///    download volume are additive costs).
///  - `buckets` / `failed_buckets` are left empty — per-channel bucket ids
///    are meaningless without a channel id.
///  - The kNN `cacheable` is rebuilt as a pure function of the merged
///    answer (the axis-aligned square inscribed in the k-th neighbor's
///    disc), so cache evolution cannot observe the shard layout; with
///    fewer than k POIs in the whole world it stays empty.
///  - The cacheable's epoch stamp is the *minimum* epoch over the shards
///    that contributed to the answer: under `dynamic::ShardedWorld` partial
///    rebuilds, clean shards share prior-epoch systems, and knowledge
///    merged across divergent channels is only as fresh as the oldest one.
///  - `request.trace` is attached to the home (first) shard's execution
///    only; secondary partials run untraced.
///  - Fault injection is a single-channel concept: construction aborts
///    when `options.fault` is enabled with more than one shard.

namespace lbsq::core {

/// Per-thread scratch for ShardedQueryEngine: one QueryWorkspace per shard
/// plus the window-routing and merge buffers. All storage is grow-only.
class ShardedQueryWorkspace {
 public:
  ShardedQueryWorkspace() = default;
  ShardedQueryWorkspace(const ShardedQueryWorkspace&) = delete;
  ShardedQueryWorkspace& operator=(const ShardedQueryWorkspace&) = delete;
  ShardedQueryWorkspace(ShardedQueryWorkspace&&) = default;
  ShardedQueryWorkspace& operator=(ShardedQueryWorkspace&&) = default;

 private:
  friend class ShardedQueryEngine;

  /// The per-shard workspace, created on first use.
  QueryWorkspace& Shard(size_t shard);

  std::vector<std::unique_ptr<QueryWorkspace>> shards_;
  /// Window-routing scratch: the window's Hilbert cover and touched shards.
  std::vector<hilbert::IndexRange> cover_;
  std::vector<int> touched_;
  /// Partial outcome of each secondary shard (recycled between shards).
  /// One per query kind: the engine resets the *other* kind's outcome
  /// optional on every Execute, so a single shared partial would destroy
  /// and reallocate its buffers on every kNN/window flip in a mixed batch.
  QueryOutcome partial_knn_;
  QueryOutcome partial_window_;
  /// Merge buffers.
  std::vector<spatial::PoiDistance> merged_neighbors_;
  std::vector<spatial::Poi> merged_pois_;
  /// ExecuteBatch outcome storage (grow-only, like QueryWorkspace's arena).
  std::vector<QueryOutcome> arena_;
};

/// The multi-shard query engine: owns the shard map, the per-shard
/// broadcast systems, and the per-shard `QueryEngine`s. Immutable after
/// construction; `Execute` is safe to call concurrently, each thread with
/// its own `ShardedQueryWorkspace`.
class ShardedQueryEngine {
 public:
  /// Partitions `pois` into `num_shards` contiguous Hilbert ranges
  /// (occupancy-balanced; see hilbert::PartitionByOccupancy) and builds one
  /// broadcast system per non-empty shard, every one over the full `world`
  /// rect with the same `params` — so all shards linearize space with one
  /// curve and the 1-shard build is byte-identical to an unsharded system.
  /// The Lemma 3.2 density pinned into every shard engine is the *global*
  /// density (all POIs over the world) unless `options` overrides it.
  ShardedQueryEngine(std::vector<spatial::Poi> pois, const geom::Rect& world,
                     const broadcast::BroadcastParams& params,
                     const EngineOptions& options, int num_shards);

  /// Assembles an engine from prebuilt parts: a shard map and one broadcast
  /// system per shard (null = empty shard), each built over the full
  /// `world` with `params`'s curve order. This is the dynamic world's
  /// epoch-publication path — a new epoch shares the unchanged shards'
  /// systems with its predecessor and carries fresh ones only for the
  /// shards an update batch touched. Bounds, counts, and the pinned global
  /// density are derived from the systems' POI sets.
  ShardedQueryEngine(
      const geom::Rect& world, const broadcast::BroadcastParams& params,
      const EngineOptions& options, hilbert::ShardMap map,
      std::vector<std::shared_ptr<const broadcast::BroadcastSystem>> systems);

  /// Executes one query against the sharded deployment. Allocation-free at
  /// steady state; `*outcome` is reset and refilled in place.
  void Execute(const QueryRequest& request, ShardedQueryWorkspace& workspace,
               QueryOutcome* outcome) const;

  /// Convenience form with a throwaway workspace.
  QueryOutcome Execute(const QueryRequest& request) const;

  /// Executes `requests` in order; outcome i corresponds to request i and
  /// is bit-identical to `Execute(requests[i])`. The returned span points
  /// into the workspace's arena and stays valid until the next
  /// ExecuteBatch on the same workspace.
  std::span<const QueryOutcome> ExecuteBatch(
      std::span<const QueryRequest> requests,
      ShardedQueryWorkspace& workspace) const;

  int num_shards() const { return map_.num_shards(); }
  const hilbert::ShardMap& map() const { return map_; }
  const geom::Rect& world() const { return world_; }
  const EngineOptions& options() const { return shard_options_; }
  /// The routing grid (same curve order and linearization as the shards').
  const hilbert::HilbertGrid& routing_grid() const { return routing_grid_; }

  /// Shard `s`'s broadcast system / engine — null when the shard owns no
  /// POIs (legal for small workloads at large N).
  const broadcast::BroadcastSystem* shard_system(int s) const {
    return systems_[static_cast<size_t>(s)].get();
  }
  /// Owning handle to shard `s`'s system, for epoch publication (the next
  /// epoch shares the systems of shards its update batch left untouched).
  std::shared_ptr<const broadcast::BroadcastSystem> shard_system_ptr(
      int s) const {
    return systems_[static_cast<size_t>(s)];
  }
  const QueryEngine* shard_engine(int s) const {
    return engines_[static_cast<size_t>(s)].get();
  }
  /// Bounding box of shard `s`'s POIs (empty rect for an empty shard).
  const geom::Rect& shard_bounds(int s) const {
    return bounds_[static_cast<size_t>(s)];
  }
  /// Number of POIs shard `s` owns.
  size_t shard_poi_count(int s) const {
    return poi_counts_[static_cast<size_t>(s)];
  }
  /// Total POIs across all shards.
  size_t total_pois() const { return total_pois_; }

 private:
  /// Derives everything downstream of `systems_` + `map_`: bounds, counts,
  /// the pinned global density, the per-shard engines. Shared tail of both
  /// constructors.
  void Init();

  /// The home shard for a kNN at `q`: the owner of q's curve cell, or the
  /// first non-empty shard when that one owns no POIs.
  int HomeShard(geom::Point q) const;

  void ExecuteKnn(const QueryRequest& request,
                  ShardedQueryWorkspace& workspace,
                  QueryOutcome* outcome) const;
  void ExecuteWindow(const QueryRequest& request,
                     ShardedQueryWorkspace& workspace,
                     QueryOutcome* outcome) const;

  geom::Rect world_;
  hilbert::HilbertGrid routing_grid_;
  hilbert::ShardMap map_;
  EngineOptions shard_options_;
  size_t total_pois_ = 0;
  std::vector<std::shared_ptr<const broadcast::BroadcastSystem>> systems_;
  std::vector<std::unique_ptr<QueryEngine>> engines_;
  std::vector<geom::Rect> bounds_;
  std::vector<size_t> poi_counts_;
  int first_nonempty_ = -1;
};

}  // namespace lbsq::core

#endif  // LBSQ_CORE_SHARDED_QUERY_ENGINE_H_
