#ifndef LBSQ_CORE_QUERY_WORKSPACE_H_
#define LBSQ_CORE_QUERY_WORKSPACE_H_

#include <cstddef>
#include <cstdint>
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
/// every transient buffer SBNN/SBWQ/NNV need (candidate pools, Hilbert
/// covers, bucket id sets, the merged-POI sort arena, the MVR geometry and
/// SIMD kernel buffers). Once capacities are warm, execution through
/// `QueryEngine::Execute(request, workspace, outcome)` / `ExecuteBatch`
/// performs zero heap allocations per query, on fresh traffic as on a
/// replay: every cover and bucket lookup is recomputed into these buffers.
/// Nothing is memoized across queries — served traffic repeats a cover 0.5%
/// of the time (EXPERIMENTS.md), and an output-sensitive cover is cheaper
/// than a memo probe that almost always misses.
///
/// What a query downloads and what it processes are different sets: the
/// download is the whole Hilbert span (or ranges) of the cover, but only
/// the downloaded buckets whose MBR meets the query's rectangle can
/// contribute to the answer, so each query collects just those
/// (`BucketsMeeting`, then `BroadcastSystem::CollectPois`). Both sets are
/// carried as bucket-id runs (`broadcast::BucketRuns`), so neither costs
/// work per downloaded bucket.
///
/// A workspace is NOT thread-safe: give each worker thread its own. It holds
/// no state tied to a broadcast system, so one workspace may serve any
/// engine and epoch in turn, and results are bitwise identical to
/// workspace-free execution.

namespace lbsq::core {

/// `rect` grown on every side by 1e-9 of its largest coordinate magnitude or
/// side: wide enough to absorb the rounding of corner and cell arithmetic,
/// so a point that lies in `rect` by exact arithmetic lies in the result.
geom::Rect Padded(const geom::Rect& rect);

/// Reusable scratch for one execution thread (see file comment).
class QueryWorkspace {
 public:
  QueryWorkspace() = default;
  QueryWorkspace(const QueryWorkspace&) = delete;
  QueryWorkspace& operator=(const QueryWorkspace&) = delete;
  // Movable so owners (e.g. a simulator's per-worker state) can live in
  // containers; moving between Execute calls is safe, sharing is not.
  QueryWorkspace(QueryWorkspace&&) = default;
  QueryWorkspace& operator=(QueryWorkspace&&) = default;

  /// Downloads of at most this many buckets are processed by
  /// BucketsMeetingByScan: one MBR test per bucket then costs less than
  /// looking up the cover of the reach.
  static constexpr int64_t kScanDownloadsUpTo = 256;

  /// The part of `download` an answer confined to `reach` can touch,
  /// written to `processed`: BucketsMeetingByScan up to kScanDownloadsUpTo
  /// buckets, BucketsMeetingByCover beyond. Either set holds every
  /// downloaded bucket with a POI inside `reach`, so both yield the same
  /// POIs inside it.
  const broadcast::BucketRuns& BucketsMeeting(
      const broadcast::BroadcastSystem& system,
      const broadcast::BucketRuns& download, const geom::Rect& reach);

  /// The buckets of `download` whose curve range meets the Hilbert cover of
  /// `reach` and whose MBR meets `reach`: O(cover ranges * log B +
  /// candidates), not O(download). Every bucket holding a POI inside
  /// `reach` is among them: the POI's cell lies in the cover (CellOf is
  /// monotone and clamps as the cover's corner cells do) and inside the
  /// bucket's curve range. The result can miss a bucket whose MBR meets
  /// `reach` while none of its POIs lies inside; BucketsMeetingByScan keeps
  /// those. Overwrites `cover` and `cover_buckets`.
  const broadcast::BucketRuns& BucketsMeetingByCover(
      const broadcast::BroadcastSystem& system,
      const broadcast::BucketRuns& download, const geom::Rect& reach);

  /// The buckets of `download` whose MBR meets `reach`, testing every one:
  /// O(download). The processed set's definition before it was derived
  /// from the cover; SBNN still decides its refill on it in the cold
  /// branches (see RunSbnn).
  const broadcast::BucketRuns& BucketsMeetingByScan(
      const broadcast::BroadcastSystem& system,
      const broadcast::BucketRuns& download, const geom::Rect& reach);

  /// Outcome storage for ExecuteBatch: grows to the largest batch seen and
  /// never shrinks, so repeated batches reuse every inner buffer.
  std::vector<QueryOutcome>& outcome_arena() { return outcomes_; }

  // --- Scratch buffers (owned here so the per-query hot path never
  // allocates once capacities are warm; each use clears before filling).
  /// NNV candidate-merge pool.
  std::vector<spatial::Poi> nnv_pool;
  /// SBNN known-POI assembly arena (downloaded buckets + peer candidates).
  std::vector<spatial::Poi> known_pois;
  /// The Hilbert cover of the rectangle being solved.
  std::vector<hilbert::IndexRange> cover;
  /// The air-index bucket lookup of one cover (SBWQ unions several).
  broadcast::BucketRuns cover_buckets;
  /// Buckets the fallback retrieval needs.
  broadcast::BucketRuns needed;
  /// `needed` expanded to ids for the faulty-channel path, which draws one
  /// reception per bucket.
  std::vector<int64_t> needed_ids;
  /// Buckets actually received on the faulty-channel path.
  broadcast::BucketRuns retrieved;
  /// The received buckets a query processes: those whose MBR meets its
  /// rectangle (see BucketsMeeting).
  broadcast::BucketRuns processed;
  /// When set, every processed set comes from BucketsMeetingByScan: the
  /// rule BucketsMeetingByCover replaced, kept as its differential oracle.
  /// Off outside tests.
  bool scan_processed_sets = false;
  /// The covers' curve ranges one SBWQ tree-index read looks up.
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
  /// Merge state for `BroadcastSystem::CollectPois` (the cursor heap) —
  /// per-workspace like every other scratch so
  /// its capacity is visible to the alloc counter instead of hiding in TLS.
  broadcast::CollectScratch collect_scratch;

 private:
  std::vector<QueryOutcome> outcomes_;
};

}  // namespace lbsq::core

#endif  // LBSQ_CORE_QUERY_WORKSPACE_H_
