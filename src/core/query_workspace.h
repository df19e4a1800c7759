#ifndef LBSQ_CORE_QUERY_WORKSPACE_H_
#define LBSQ_CORE_QUERY_WORKSPACE_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "broadcast/system.h"
#include "core/query_engine.h"
#include "core/verified_region.h"
#include "geom/rect.h"
#include "geom/rect_region.h"
#include "hilbert/hilbert.h"
#include "kernels/poi_slab.h"
#include "spatial/poi.h"

/// \file
/// Per-thread scratch state for query execution. A `QueryWorkspace` owns
/// every transient buffer SBNN/SBWQ/NNV need (candidate pools, bucket id
/// sets, cover ranges, the merged-POI sort arena) plus a broadcast-cycle-
/// scoped memo of `HilbertGrid::CoverRect` covers and the `AirIndex` bucket
/// lookups derived from them, so steady-state execution through
/// `QueryEngine::Execute(request, workspace, outcome)` / `ExecuteBatch`
/// performs zero heap allocations and co-located queries within one cycle
/// share their index work (the BRkNN-style batching win: Manhattan-mobility
/// hosts clustered on the same street issue near-identical queries).
///
/// What a query downloads and what it processes are different sets. The
/// download set is the whole Hilbert span (or ranges) of the cover, which on
/// clustered data can be thousands of buckets for a search square that meets
/// a few dozen cells. Only the downloaded buckets whose MBR meets the query's
/// rectangle can contribute to the answer, so the engine collects just those
/// (`BucketsMeeting`), and the memo keeps just the neighbourhood of a key —
/// the span/range buckets whose MBR meets the key's two corner cells — not
/// the content of the whole span.
///
/// A workspace is NOT thread-safe: give each worker thread its own. Results
/// are bitwise identical to workspace-free execution — every memoized value
/// is a pure function of the immutable broadcast system, so reuse changes
/// cost, never content.

namespace lbsq::core {

/// Memo key for one `CoverRect` computation: the grid-cell coordinates of
/// the two corners of the world-clamped query rectangle (the cover is a
/// pure function of those two cells), with a separate slot for rectangles
/// that miss the world entirely.
struct CoverKey {
  uint32_t x1 = 0;
  uint32_t y1 = 0;
  uint32_t x2 = 0;
  uint32_t y2 = 0;
  bool outside_world = false;

  friend bool operator==(const CoverKey& a, const CoverKey& b) {
    return a.x1 == b.x1 && a.y1 == b.y1 && a.x2 == b.x2 && a.y2 == b.y2 &&
           a.outside_world == b.outside_world;
  }
};

struct CoverKeyHash {
  size_t operator()(const CoverKey& k) const {
    // splitmix64 finalizer over the packed cell coordinates.
    uint64_t h = (static_cast<uint64_t>(k.x1) << 48) ^
                 (static_cast<uint64_t>(k.y1) << 32) ^
                 (static_cast<uint64_t>(k.x2) << 16) ^
                 static_cast<uint64_t>(k.y2) ^
                 (k.outside_world ? 0x9e3779b97f4a7c15ULL : 0);
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 27;
    h *= 0x94d049bb133111ebULL;
    h ^= h >> 31;
    return static_cast<size_t>(h);
  }
};

/// Everything memoized for one cover key, filled lazily: the cover ranges
/// and the neighbourhood eagerly, the bucket lookups and the collected
/// bucket content on first use. All values are pure functions of the key
/// and the immutable broadcast system.
struct CoverEntry {
  std::vector<hilbert::IndexRange> ranges;
  /// The rectangle every query rectangle with this key lies in:
  /// CellRect(lo) ∪ CellRect(hi) of the key's corner cells, padded (see
  /// `Padded`), and unbounded on each side where a corner cell sits on the
  /// world border (points beyond the border clamp into border cells).
  geom::Rect neighbourhood;
  /// BucketsForSpan(ranges.front().lo, ranges.back().hi) (single-span
  /// retrieval, the SBNN fallback and the default SBWQ strategy).
  std::vector<int64_t> span_buckets;
  /// BucketsForRanges(ranges) (partitioned-ranges retrieval).
  std::vector<int64_t> range_buckets;
  /// The neighbourhood of the key, not the whole download:
  /// CollectPois over the span_buckets / range_buckets whose MBR meets
  /// `neighbourhood`. A superset of every downloaded POI a query with this
  /// key can use, and usually a small fraction of the span.
  std::vector<spatial::Poi> span_pois;
  std::vector<spatial::Poi> range_pois;
  /// SoA transposes of span_pois / range_pois, built alongside them: the
  /// SBWQ window filter streams the memoized bucket content through the
  /// SIMD window-mask kernel without a per-query transpose.
  kernels::PoiSlab span_slab;
  kernels::PoiSlab range_slab;
  /// IndexReadBuckets(ranges) under a hierarchical air index (-1 = not yet
  /// computed).
  int64_t tree_read_buckets = -1;
  bool have_span = false;
  bool have_ranges = false;
  bool have_span_pois = false;
  bool have_range_pois = false;
  /// True when span_pois is the content of every span bucket (none was
  /// outside the neighbourhood).
  bool span_pois_whole = false;
};

/// `rect` grown on every side by 1e-9 of its largest coordinate magnitude or
/// side: wide enough to absorb the rounding of corner and cell arithmetic,
/// so a point that lies in `rect` by exact arithmetic lies in the result.
geom::Rect Padded(const geom::Rect& rect);

/// Reusable scratch + memo for one execution thread (see file comment).
class QueryWorkspace {
 public:
  QueryWorkspace() = default;
  QueryWorkspace(const QueryWorkspace&) = delete;
  QueryWorkspace& operator=(const QueryWorkspace&) = delete;
  // Movable so owners (e.g. a simulator's per-worker state) can live in
  // containers; moving between Execute calls is safe, sharing is not.
  QueryWorkspace(QueryWorkspace&&) = default;
  QueryWorkspace& operator=(QueryWorkspace&&) = default;

  /// Binds the memo to (`system`, its world epoch, broadcast `cycle`): a
  /// change of any clears it (covers never go stale — each epoch's system is
  /// immutable — so the cycle scope only bounds memo memory to one cycle's
  /// query locality). The epoch guard makes the binding safe under the
  /// dynamic world: a new epoch's system allocated at a recycled address
  /// (the ABA hazard of the pointer tag) still invalidates the memo.
  /// Called by the engine at the top of every Execute.
  void Prepare(const broadcast::BroadcastSystem& system, int64_t cycle);

  /// The world epoch the memo is currently bound to.
  uint64_t pinned_epoch() const { return system_epoch_; }

  /// The memoized cover of `rect` (computed on first sight of its cell
  /// key). The returned reference stays valid until the next Prepare that
  /// clears the memo (node-based map: inserts never move entries).
  CoverEntry& Cover(const broadcast::BroadcastSystem& system,
                    const geom::Rect& rect);

  /// Memoized single-span bucket lookup for a non-empty cover.
  const std::vector<int64_t>& SpanBuckets(
      const broadcast::BroadcastSystem& system, CoverEntry* entry);

  /// Memoized partitioned-ranges bucket lookup for a non-empty cover.
  const std::vector<int64_t>& RangeBuckets(
      const broadcast::BroadcastSystem& system, CoverEntry* entry);

  /// Memoized neighbourhood content of the span / ranges lookup (see
  /// `CoverEntry::span_pois`; sorted by id and deduplicated, like
  /// `BroadcastSystem::CollectPois`). Clobbers `processed`.
  const std::vector<spatial::Poi>& SpanPois(
      const broadcast::BroadcastSystem& system, CoverEntry* entry);
  const std::vector<spatial::Poi>& RangePois(
      const broadcast::BroadcastSystem& system, CoverEntry* entry);

  /// The ids of `ids` whose bucket MBR meets `reach`, in order, written to
  /// `processed`: the part of a download the answer can touch.
  const std::vector<int64_t>& BucketsMeeting(
      const broadcast::BroadcastSystem& system,
      const std::vector<int64_t>& ids, const geom::Rect& reach);

  /// Memoized `IndexReadBuckets(ranges)` (hierarchical-index read cost).
  int64_t TreeReadBuckets(const broadcast::BroadcastSystem& system,
                          CoverEntry* entry);

  /// Distinct covers currently memoized (observability / tests).
  size_t memo_size() const { return memo_.size(); }
  /// The cycle the memo is scoped to.
  int64_t memo_cycle() const { return cycle_; }

  /// Outcome storage for ExecuteBatch: grows to the largest batch seen and
  /// never shrinks, so repeated batches reuse every inner buffer.
  std::vector<QueryOutcome>& outcome_arena() { return outcomes_; }

  // --- Scratch buffers (owned here so the per-query hot path never
  // allocates once capacities are warm; each use clears before filling).
  /// NNV candidate-merge pool.
  std::vector<spatial::Poi> nnv_pool;
  /// SBNN known-POI assembly arena (downloaded buckets + peer candidates).
  std::vector<spatial::Poi> known_pois;
  /// Bucket ids the fallback retrieval needs.
  std::vector<int64_t> needed;
  /// Buckets surviving the §3.3.3 lower-bound filter.
  std::vector<int64_t> kept;
  /// Buckets actually received on the faulty-channel path.
  std::vector<int64_t> retrieved;
  /// The received buckets a query (or a memo fill) processes: those whose
  /// MBR meets its rectangle (see BucketsMeeting).
  std::vector<int64_t> processed;
  /// Curve-interval lookups for multi-residual tree-index reads.
  std::vector<hilbert::IndexRange> lookups;
  /// Peer snapshot surviving the defensive screen.
  std::vector<PeerData> screened;
  /// Transient buffers for the MVR geometry kernels (merge, subtract,
  /// boundary distance).
  geom::RectRegionScratch region_scratch;
  /// Distance selection buffer for AirIndex::KthDistanceUpperBound.
  std::vector<double> index_distances;
  /// SoA slab + distance/index buffers for the SIMD hot-loop kernels
  /// (BruteForceKnn, NNV candidate distances, window selections).
  kernels::SlabScratch slab;
  /// Merge state for `BroadcastSystem::CollectPois` (cursor heap +
  /// canonicalized bucket list) — per-workspace like every other scratch so
  /// its capacity is visible to the alloc counter instead of hiding in TLS.
  broadcast::CollectScratch collect_scratch;

 private:
  std::unordered_map<CoverKey, CoverEntry, CoverKeyHash> memo_;
  const void* system_tag_ = nullptr;
  size_t system_pois_ = 0;
  uint64_t system_epoch_ = 0;
  int64_t cycle_ = -1;
  std::vector<QueryOutcome> outcomes_;
};

}  // namespace lbsq::core

#endif  // LBSQ_CORE_QUERY_WORKSPACE_H_
