#include "broadcast/air_index.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "kernels/kernels.h"

namespace lbsq::broadcast {

namespace {

// A rectangle of aligned curve blocks. At level L of the curve's quadtree a
// block is 2^shift cells on a side (shift = order - L), and block (bx, by)
// holds exactly the cells of one aligned index range [b * 4^shift,
// (b + 1) * 4^shift) — for the Hilbert and the Morton curve alike — so its
// directory entries are one lower_bound pair on the sorted entries.
struct BlockSet {
  int shift = 0;
  // Inclusive block coordinates; empty when bx1 > bx2.
  uint32_t bx1 = 1;
  uint32_t by1 = 0;
  uint32_t bx2 = 0;
  uint32_t by2 = 0;

  friend bool operator==(const BlockSet&, const BlockSet&) = default;
};

// The blocks meeting the square of half-side `h` around `q`, at the finest
// level whose blocks are still at least 2h wide on the world's smaller side
// (so the square meets at most 3 x 3 of them).
BlockSet BlocksMeeting(const hilbert::HilbertGrid& grid, geom::Point q,
                       double h) {
  const geom::Rect& world = grid.world();
  double side = std::min(world.width(), world.height());
  int level = 0;
  while (level < grid.order() && side * 0.5 >= 2.0 * h) {
    side *= 0.5;
    ++level;
  }
  BlockSet set;
  set.shift = grid.order() - level;
  const geom::Rect square =
      geom::Rect::CenteredSquare(q, h).Intersection(world);
  if (square.empty()) return set;
  const hilbert::CellXY lo = grid.CellOf({square.x1, square.y1});
  const hilbert::CellXY hi = grid.CellOf({square.x2, square.y2});
  set.bx1 = lo.x >> set.shift;
  set.by1 = lo.y >> set.shift;
  set.bx2 = hi.x >> set.shift;
  set.by2 = hi.y >> set.shift;
  return set;
}

// Calls fn(begin, end) with the entry index run of every block in `set`.
template <typename Fn>
void ForEachRun(const hilbert::HilbertGrid& grid,
                const std::vector<AirIndex::Entry>& entries,
                const BlockSet& set, Fn&& fn) {
  const int bits = 2 * set.shift;
  const auto before = [](const AirIndex::Entry& e, uint64_t key) {
    return e.hilbert < key;
  };
  for (uint32_t by = set.by1; by <= set.by2; ++by) {
    for (uint32_t bx = set.bx1; bx <= set.bx2; ++bx) {
      const uint64_t first =
          grid.ToIndex({bx << set.shift, by << set.shift}) >> bits << bits;
      const auto begin =
          std::lower_bound(entries.begin(), entries.end(), first, before);
      const auto end = std::lower_bound(
          begin, entries.end(), first + (uint64_t{1} << bits), before);
      fn(static_cast<size_t>(begin - entries.begin()),
         static_cast<size_t>(end - entries.begin()));
    }
  }
}

size_t CountEntries(const hilbert::HilbertGrid& grid,
                    const std::vector<AirIndex::Entry>& entries,
                    const BlockSet& set) {
  size_t count = 0;
  ForEachRun(grid, entries, set,
             [&](size_t begin, size_t end) { count += end - begin; });
  return count;
}

// The (kth + 1)-th smallest center distance from `q` over the entries of
// `set`. Sub-run DistanceBatch calls produce the same per-element doubles as
// one pass over all entries (see kernels.h), so this is a k-th smallest of
// exactly the full scan's values, restricted to the blocks.
double GatherKth(const hilbert::HilbertGrid& grid, const AirIndex& index,
                 const BlockSet& set, geom::Point q, size_t kth,
                 std::vector<double>* scratch) {
  std::vector<double>& distances = *scratch;
  distances.clear();
  ForEachRun(grid, index.entries(), set, [&](size_t begin, size_t end) {
    const size_t filled = distances.size();
    distances.resize(filled + (end - begin));
    kernels::DistanceBatch(index.center_xs().data() + begin,
                           index.center_ys().data() + begin, end - begin, q.x,
                           q.y, distances.data() + filled);
  });
  std::nth_element(distances.begin(), distances.begin() + kth,
                   distances.end());
  return distances[kth];
}

// Adds the buckets meeting [lo, hi] to `*out`. Bucket ranges are
// non-decreasing in both lo and hi (one Hilbert-sorted run cut into
// buckets), so those buckets are one contiguous id run: the first with
// hi >= lo, through the last with lo <= hi. Two binary searches.
void AppendBucketsForSpan(const std::vector<hilbert::IndexRange>& ranges,
                          uint64_t lo, uint64_t hi, BucketRuns* out) {
  const auto first = std::partition_point(
      ranges.begin(), ranges.end(),
      [lo](const hilbert::IndexRange& r) { return r.hi < lo; });
  const auto end = std::partition_point(
      first, ranges.end(),
      [hi](const hilbert::IndexRange& r) { return r.lo <= hi; });
  if (first == end) return;
  out->Append(first - ranges.begin(), (end - ranges.begin()) - 1);
}

}  // namespace

AirIndex::AirIndex(const std::vector<DataBucket>& buckets,
                   const hilbert::HilbertGrid& grid, int entries_per_bucket)
    : grid_(&grid), entries_per_bucket_(entries_per_bucket) {
  LBSQ_CHECK(entries_per_bucket_ >= 1);
  for (const DataBucket& bucket : buckets) {
    bucket_ranges_.push_back(
        hilbert::IndexRange{bucket.hilbert_lo, bucket.hilbert_hi});
    for (const spatial::Poi& poi : bucket.pois) {
      entries_.push_back(Entry{grid.IndexOf(poi.pos), bucket.id});
    }
  }
  // Buckets are built in Hilbert order, so entries are already sorted; the
  // check documents (and enforces) the contract.
  for (size_t i = 1; i < entries_.size(); ++i) {
    LBSQ_CHECK(entries_[i - 1].hilbert <= entries_[i].hilbert);
  }
  for (size_t i = 1; i < bucket_ranges_.size(); ++i) {
    LBSQ_CHECK(bucket_ranges_[i - 1].lo <= bucket_ranges_[i].lo);
    LBSQ_CHECK(bucket_ranges_[i - 1].hi <= bucket_ranges_[i].hi);
  }
  center_xs_.reserve(entries_.size());
  center_ys_.reserve(entries_.size());
  for (const Entry& e : entries_) {
    const geom::Point center = grid.CellRect(e.hilbert).center();
    center_xs_.push_back(center.x);
    center_ys_.push_back(center.y);
  }
  if (!entries_.empty()) {
    const geom::Rect cell = grid.CellRect(entries_.front().hilbert);
    half_cell_diagonal_ = 0.5 * std::sqrt(cell.width() * cell.width() +
                                          cell.height() * cell.height());
  }
}

AirIndex::AirIndex(std::vector<Entry> entries,
                   std::vector<hilbert::IndexRange> bucket_ranges,
                   std::vector<double> center_xs,
                   std::vector<double> center_ys, double half_cell_diagonal,
                   const hilbert::HilbertGrid& grid, int entries_per_bucket)
    : grid_(&grid),
      entries_per_bucket_(entries_per_bucket),
      entries_(std::move(entries)),
      bucket_ranges_(std::move(bucket_ranges)),
      center_xs_(std::move(center_xs)),
      center_ys_(std::move(center_ys)),
      half_cell_diagonal_(half_cell_diagonal) {
  LBSQ_CHECK(entries_per_bucket_ >= 1);
  LBSQ_CHECK(center_xs_.size() == entries_.size());
  LBSQ_CHECK(center_ys_.size() == entries_.size());
  // Same ordering contracts as the building constructor: the patch path
  // must hand over a directory indistinguishable from a cold build.
  for (size_t i = 1; i < entries_.size(); ++i) {
    LBSQ_CHECK(entries_[i - 1].hilbert <= entries_[i].hilbert);
  }
  for (size_t i = 1; i < bucket_ranges_.size(); ++i) {
    LBSQ_CHECK(bucket_ranges_[i - 1].lo <= bucket_ranges_[i].lo);
    LBSQ_CHECK(bucket_ranges_[i - 1].hi <= bucket_ranges_[i].hi);
  }
}

int64_t AirIndex::SizeInBuckets() const {
  const int64_t n = static_cast<int64_t>(entries_.size());
  return std::max<int64_t>(1, (n + entries_per_bucket_ - 1) /
                                  entries_per_bucket_);
}

double AirIndex::KthDistanceUpperBound(geom::Point q, int k) const {
  std::vector<double> distances;
  return KthDistanceUpperBound(q, k, &distances);
}

double AirIndex::KthDistanceUpperBound(geom::Point q, int k,
                                       std::vector<double>* scratch) const {
  LBSQ_CHECK(k >= 1);
  // Same contract as QueryRequest::Validate; the block arithmetic below
  // needs a finite position.
  LBSQ_CHECK(std::isfinite(q.x) && std::isfinite(q.y));
  if (static_cast<int>(entries_.size()) < k) {
    return std::numeric_limits<double>::infinity();
  }
  const size_t kth = static_cast<size_t>(k - 1);
  // Phase 1: grow the square from the uniform-density guess until its blocks
  // hold k entries; their k-th distance d1 bounds the true k-th from above.
  // For a finite q the square covers the world (and so holds every entry)
  // within ~2,100 doublings, the span of the double exponent range.
  constexpr int kMaxDoublings = 2100;
  const geom::Rect& world = grid_->world();
  double h = std::sqrt(static_cast<double>(k) * world.area() /
                       static_cast<double>(entries_.size()));
  BlockSet blocks;
  int doublings = 0;
  while (true) {
    blocks = BlocksMeeting(*grid_, q, h);
    if (CountEntries(*grid_, entries_, blocks) >= static_cast<size_t>(k)) {
      break;
    }
    LBSQ_CHECK(++doublings <= kMaxDoublings);
    h *= 2.0;
  }
  const double d1 = GatherKth(*grid_, *this, blocks, q, kth, scratch);
  // Phase 2: every entry whose computed distance is <= d1 has its center
  // within d1 (1 + a few ulps) of q on each axis, so the blocks meeting the
  // padded square of half-side d1 hold all of them — and at least k entries
  // in total. Their k-th smallest distance is the full scan's, bit for bit.
  const double r =
      d1 + 1e-9 * (std::max(std::abs(q.x), std::abs(q.y)) + d1);
  const BlockSet exact = BlocksMeeting(*grid_, q, r);
  const double dk =
      exact == blocks ? d1 : GatherKth(*grid_, *this, exact, q, kth, scratch);
  return dk + half_cell_diagonal_;
}

std::vector<int64_t> AirIndex::BucketsForSpan(uint64_t lo, uint64_t hi) const {
  BucketRuns runs;
  BucketsForSpan(lo, hi, &runs);
  return runs.ToIds();
}

void AirIndex::BucketsForSpan(uint64_t lo, uint64_t hi,
                              BucketRuns* out) const {
  out->clear();
  AppendBucketsForSpan(bucket_ranges_, lo, hi, out);
}

std::vector<int64_t> AirIndex::BucketsForRanges(
    const std::vector<hilbert::IndexRange>& ranges) const {
  BucketRuns runs;
  BucketsForRanges(ranges, &runs);
  return runs.ToIds();
}

void AirIndex::BucketsForRanges(const std::vector<hilbert::IndexRange>& ranges,
                                BucketRuns* out) const {
  out->clear();
  for (size_t i = 0; i < ranges.size(); ++i) {
    // Ascending starts give each range's run a start no lower than the
    // previous run's, so the runs merge as they are appended.
    LBSQ_CHECK(i == 0 || ranges[i - 1].lo <= ranges[i].lo);
    AppendBucketsForSpan(bucket_ranges_, ranges[i].lo, ranges[i].hi, out);
  }
}

}  // namespace lbsq::broadcast
