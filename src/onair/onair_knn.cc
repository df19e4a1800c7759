#include "onair/onair_knn.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace lbsq::onair {

namespace {

// The bucket set `retrieval` downloads for a search circle whose MBR has
// curve cover `ranges`.
std::vector<int64_t> BucketsForCover(
    const broadcast::BroadcastSystem& system,
    const std::vector<hilbert::IndexRange>& ranges, KnnRetrieval retrieval) {
  if (ranges.empty()) return {};
  if (retrieval == KnnRetrieval::kSingleSpan) {
    // Basic algorithm: one contiguous span from the first to the last curve
    // position inside the range (the "a to b" segment of the paper's
    // Figure 4).
    return system.index().BucketsForSpan(ranges.front().lo, ranges.back().hi);
  }
  return system.index().BucketsForRanges(ranges);
}

}  // namespace

std::vector<int64_t> BucketsForCircle(
    const broadcast::BroadcastSystem& system, const geom::Circle& circle,
    KnnRetrieval retrieval) {
  return BucketsForCover(system, system.grid().CoverRect(circle.Mbr()),
                         retrieval);
}

OnAirKnnResult OnAirKnn(const broadcast::BroadcastSystem& system,
                        geom::Point q, int k, int64_t now) {
  LBSQ_CHECK(k >= 1);
  OnAirKnnResult result;

  // Pass 1 (index scan): search circle guaranteed to contain the top k.
  double radius = system.index().KthDistanceUpperBound(q, k);
  if (!std::isfinite(radius)) {
    // Fewer than k objects exist: the search range is the whole world.
    const geom::Rect& world = system.grid().world();
    radius = world.MaxDistance(q);
  }
  result.search_circle = geom::Circle{q, radius};

  // Pass 2 (data retrieval): download the span covering the circle's MBR.
  const std::vector<hilbert::IndexRange> ranges =
      system.grid().CoverRect(result.search_circle.Mbr());
  result.buckets = BucketsForCover(system, ranges, KnnRetrieval::kSingleSpan);
  broadcast::IndexReadMode index_mode = broadcast::IndexReadMode::FlatDirectory();
  if (system.tree_index() != nullptr) {
    index_mode =
        broadcast::IndexReadMode::TreePaths(system.IndexReadBuckets(ranges));
  }
  result.stats = broadcast::RetrieveBuckets(system.schedule(), now,
                                            result.buckets, index_mode);
  const std::vector<spatial::Poi> received = system.CollectPois(result.buckets);
  result.neighbors = spatial::BruteForceKnn(received, q, k);
  return result;
}

}  // namespace lbsq::onair
