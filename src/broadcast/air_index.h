#ifndef LBSQ_BROADCAST_AIR_INDEX_H_
#define LBSQ_BROADCAST_AIR_INDEX_H_

#include <cstdint>
#include <vector>

#include "broadcast/packet.h"
#include "geom/point.h"
#include "hilbert/hilbert.h"

/// \file
/// The air index: a flat directory, broadcast as part of every index
/// segment, mapping each object's Hilbert index to the data bucket that
/// carries it. A client that has read one index segment can compute the
/// arrival slot of any data bucket and an approximate position (the Hilbert
/// cell center) for every object.

namespace lbsq::broadcast {

/// Immutable air-index directory built from the bucketized data file.
class AirIndex {
 public:
  /// One directory entry per object.
  struct Entry {
    uint64_t hilbert = 0;
    int64_t bucket = 0;
  };

  /// Builds the directory for `buckets` on `grid`; the serialized index
  /// occupies ceil(entries / entries_per_bucket) index buckets.
  AirIndex(const std::vector<DataBucket>& buckets,
           const hilbert::HilbertGrid& grid, int entries_per_bucket);

  /// Reassembles the directory from precomputed parts — the incremental
  /// patch path, which copies every clean bucket's entry run and center row
  /// from the previous epoch's index. The parts must be exactly what the
  /// building constructor would produce for the same data file (the sorted-
  /// entries and sorted-ranges contracts are still checked).
  AirIndex(std::vector<Entry> entries,
           std::vector<hilbert::IndexRange> bucket_ranges,
           std::vector<double> center_xs, std::vector<double> center_ys,
           double half_cell_diagonal, const hilbert::HilbertGrid& grid,
           int entries_per_bucket);

  /// All entries, sorted by (hilbert, bucket).
  const std::vector<Entry>& entries() const { return entries_; }

  /// Per bucket: the covered curve range [hilbert_lo, hilbert_hi],
  /// ascending by bucket id (both ends non-decreasing).
  const std::vector<hilbert::IndexRange>& bucket_ranges() const {
    return bucket_ranges_;
  }

  /// The SoA cell-center columns, parallel to entries() (the incremental
  /// patch path copies clean rows from these; also handy for tests).
  const std::vector<double>& center_xs() const { return center_xs_; }
  const std::vector<double>& center_ys() const { return center_ys_; }
  /// Half a grid-cell diagonal (the KthDistanceUpperBound slack term).
  double half_cell_diagonal() const { return half_cell_diagonal_; }

  /// Size of the serialized index in buckets (>= 1).
  int64_t SizeInBuckets() const;

  /// Upper bound on the distance from `q` to its k-th nearest object,
  /// derived from the index alone: the k-th smallest cell-center distance
  /// plus half a cell diagonal. This is how the on-air kNN derives its
  /// search circle before any data bucket arrives. Returns +infinity when
  /// the index holds fewer than k entries.
  ///
  /// Cost: output-sensitive. The entries of one aligned curve block (a
  /// quadtree node of the grid) are one contiguous run of entries(), so the
  /// bound reads at most 3 x 3 such blocks around `q` — sized first from the
  /// uniform-density guess sqrt(k * area / N), doubled until they hold k
  /// entries, then once more from that k-th distance — with two binary
  /// searches per block and one distance pass over the entries read. That
  /// is O(log N) per doubling plus O(m) for the m entries in the blocks,
  /// instead of a pass over all N. The value is bit-identical to the
  /// k-th smallest of a full distance pass over every entry. `q` must be
  /// finite (LBSQ_CHECK), as QueryRequest::Validate requires.
  double KthDistanceUpperBound(geom::Point q, int k) const;

  /// KthDistanceUpperBound using `*scratch` for the distance selection
  /// buffer (cleared and refilled; capacity is reused across calls).
  double KthDistanceUpperBound(geom::Point q, int k,
                               std::vector<double>* scratch) const;

  /// Ids of the buckets whose Hilbert range intersects [lo, hi], ascending.
  /// Bucket ranges are non-decreasing in both ends (checked at
  /// construction), so the answer is one contiguous id run found by binary
  /// search: O(log B + answer) for B buckets.
  std::vector<int64_t> BucketsForSpan(uint64_t lo, uint64_t hi) const;

  /// Ids of the buckets whose Hilbert range intersects any of `ranges`
  /// (ranges with ascending starts, as produced by HilbertGrid::CoverRect;
  /// checked). Deduplicated, ascending. One BucketsForSpan run per range:
  /// O(ranges * log B + answer).
  std::vector<int64_t> BucketsForRanges(
      const std::vector<hilbert::IndexRange>& ranges) const;

 private:
  const hilbert::HilbertGrid* grid_;
  int entries_per_bucket_;
  std::vector<Entry> entries_;
  // Per bucket: [hilbert_lo, hilbert_hi], ascending by bucket id; both ends
  // are non-decreasing.
  std::vector<hilbert::IndexRange> bucket_ranges_;
  // Entry cell centers, transposed entry-for-entry into SoA columns at build
  // time so KthDistanceUpperBound runs distance-batch kernel passes over
  // entry runs instead of a Hilbert decode per entry per query.
  std::vector<double> center_xs_;
  std::vector<double> center_ys_;
  double half_cell_diagonal_ = 0.0;
};

}  // namespace lbsq::broadcast

#endif  // LBSQ_BROADCAST_AIR_INDEX_H_
