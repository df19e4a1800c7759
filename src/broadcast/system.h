#ifndef LBSQ_BROADCAST_SYSTEM_H_
#define LBSQ_BROADCAST_SYSTEM_H_

#include <cstdint>
#include <vector>

#include <memory>

#include "broadcast/air_index.h"
#include "broadcast/bucket_runs.h"
#include "broadcast/incremental.h"
#include "broadcast/packet.h"
#include "broadcast/schedule.h"
#include "broadcast/tree_index.h"
#include "geom/rect.h"
#include "hilbert/hilbert.h"
#include "spatial/poi.h"

/// \file
/// The wireless information server: owns the POI database, the Hilbert
/// bucketization, the air index, and the (1, m) broadcast schedule. One
/// instance is shared by all mobile hosts in a simulation (it is the single
/// transmitter of the broadcast model).

namespace lbsq::broadcast {

/// How the air index is organized on the channel.
enum class IndexKind {
  /// A flat directory: clients read the whole index segment (simple, large
  /// tuning cost).
  kFlat,
  /// A level-order B+-tree: clients read only root-to-leaf paths, dozing
  /// between index buckets (the classic air-indexing design).
  kTree,
};

/// Tuning knobs for the broadcast organization.
struct BroadcastParams {
  /// POIs per data bucket.
  int bucket_capacity = 8;
  /// Directory entries per index bucket (an index entry is much smaller
  /// than a POI record, hence the larger fan-in).
  int index_entries_per_bucket = 64;
  /// Index replication factor of the (1, m) allocation.
  int m = 4;
  /// Curve order (2^order cells per axis).
  int hilbert_order = 7;
  /// Space-filling curve the data file is linearized with. Hilbert is the
  /// paper's choice; Morton is provided for the locality ablation.
  hilbert::CurveKind curve = hilbert::CurveKind::kHilbert;
  /// Air-index organization (see IndexKind).
  IndexKind index_kind = IndexKind::kFlat;
  /// World epoch this channel broadcasts (0 = the initial static world).
  /// Set by the dynamic-world versioner when it publishes a rebuilt cycle;
  /// stamped into every data bucket and onto the wire (v2 frames).
  uint64_t epoch = 0;
};

/// Reusable merge state for `BroadcastSystem::CollectPois`: the k-way-merge
/// cursor heap. Owned by the caller — per-thread scratch like every other
/// query buffer (`QueryWorkspace` holds one) — so the merge is
/// allocation-free once the scratch has grown to its steady-state size and
/// the capacity is visible to the alloc counter instead of hiding in
/// function-local TLS.
struct CollectScratch {
  struct Cursor {
    const spatial::Poi* cur = nullptr;
    const spatial::Poi* end = nullptr;
  };
  std::vector<Cursor> runs;
};

/// Immutable server state for one broadcast channel.
class BroadcastSystem {
 public:
  /// Builds the channel for `pois` over `world`.
  BroadcastSystem(std::vector<spatial::Poi> pois, const geom::Rect& world,
                  const BroadcastParams& params);

  /// Reassembles the channel from a previously built data file (e.g. decoded
  /// from a persisted store): `buckets` must be the exact bucketization the
  /// primary constructor would produce for `pois` (ids equal to positions,
  /// together partitioning the database). Skips the Hilbert sort and
  /// bucketization — the dominant cold-start cost — and rebuilds the
  /// deterministic derived state (air index, schedule, CSR runs).
  BroadcastSystem(std::vector<spatial::Poi> pois,
                  std::vector<DataBucket> buckets, const geom::Rect& world,
                  const BroadcastParams& params);

  BroadcastSystem(const BroadcastSystem&) = delete;
  BroadcastSystem& operator=(const BroadcastSystem&) = delete;

  /// Diff-aware epoch publication: builds the system for `pois` (the new
  /// generation-order snapshot) by patching `base` with the net `delta`
  /// instead of re-running the global Hilbert sort. Only buckets whose curve
  /// range the delta dirtied (or shifted, via the fixed-capacity chunking)
  /// are rebucketized; every clean bucket's payload, air-index entry run,
  /// cell-center row, and id-sorted CSR run is copied verbatim from the
  /// base. The result is **bit-identical** to
  /// `BroadcastSystem(pois, world, params)` — same buckets, same index
  /// entries, same schedule — which the incremental-rebuild property suite
  /// CI-diffs. Returns null when patching does not apply (empty base or new
  /// data set, or `params` disagreeing with the base's in anything but the
  /// epoch) — the caller falls back to a full build and counts it.
  /// Implemented in incremental.cc.
  static std::unique_ptr<BroadcastSystem> PatchFrom(
      const BroadcastSystem& base, std::vector<spatial::Poi> pois,
      const SystemDelta& delta, const BroadcastParams& params,
      PatchStats* stats);

  /// The full POI database (the ground truth oracles test against).
  const std::vector<spatial::Poi>& pois() const { return pois_; }
  /// The Hilbert grid the data is linearized on.
  const hilbert::HilbertGrid& grid() const { return grid_; }
  /// The bucketized data file, in broadcast order.
  const std::vector<DataBucket>& buckets() const { return buckets_; }
  /// The air-index directory.
  const AirIndex& index() const { return index_; }
  /// The (1, m) cycle layout.
  const BroadcastSchedule& schedule() const { return schedule_; }
  /// The parameters the channel was built with.
  const BroadcastParams& params() const { return params_; }
  /// The world epoch this channel broadcasts (see BroadcastParams::epoch).
  uint64_t epoch() const { return params_.epoch; }

  /// The hierarchical index (null under IndexKind::kFlat).
  const TreeAirIndex* tree_index() const { return tree_index_.get(); }

  /// Index buckets a client must read to resolve the given curve-interval
  /// lookups: the whole segment under the flat directory, the union of
  /// root-to-leaf paths under the tree.
  int64_t IndexReadBuckets(
      const std::vector<hilbert::IndexRange>& lookups) const;

  /// POIs contained in the given buckets (what a client that downloaded
  /// them holds), deduplicated by id. Ids in any order, duplicates allowed.
  std::vector<spatial::Poi> CollectPois(
      const std::vector<int64_t>& bucket_ids) const;

  /// Allocation-free variant over a run set: clears and fills `*out` (same
  /// content as the returning overload; capacity is reused) using
  /// `*scratch` for the merge state. Steady-state query execution passes
  /// its workspace's scratch.
  void CollectPois(const BucketRuns& buckets, CollectScratch* scratch,
                   std::vector<spatial::Poi>* out) const;

 private:
  /// Precomputed state of a patched epoch (filled by PatchFrom; defined in
  /// incremental.cc). The constructor below adopts it without recomputing.
  struct PatchedParts;
  /// Disambiguation tag: keeps the adopting constructor out of overload
  /// resolution for brace-initialized POI lists.
  struct PatchedTag {};

  /// Adopts patched parts verbatim (the PatchFrom tail): no bucketization,
  /// no index build, no per-bucket sort — just the epoch restamp and the
  /// cheap schedule arithmetic.
  BroadcastSystem(PatchedTag, PatchedParts parts, const geom::Rect& world,
                  const BroadcastParams& params);
  /// Index segment size under the configured organization.
  int64_t IndexSegmentBuckets() const;

  /// Shared constructor tail: stamps the epoch onto every bucket and builds
  /// the id-sorted CSR runs backing CollectPois.
  void FinishConstruction();

  BroadcastParams params_;
  std::vector<spatial::Poi> pois_;
  hilbert::HilbertGrid grid_;
  std::vector<DataBucket> buckets_;
  AirIndex index_;
  std::unique_ptr<TreeAirIndex> tree_index_;
  BroadcastSchedule schedule_;
  // Each bucket's POIs re-sorted by id, concatenated in bucket order (CSR:
  // bucket b's run is [sorted_start_[b], sorted_start_[b + 1])). Buckets
  // partition the database, so CollectPois is a k-way merge of these runs
  // instead of a sort per call.
  std::vector<spatial::Poi> sorted_pois_;
  std::vector<size_t> sorted_start_;
};

}  // namespace lbsq::broadcast

#endif  // LBSQ_BROADCAST_SYSTEM_H_
