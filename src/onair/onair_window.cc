#include "onair/onair_window.h"

#include <algorithm>

#include "kernels/kernels.h"
#include "kernels/poi_slab.h"

namespace lbsq::onair {

namespace {

// The bucket set `retrieval` downloads for a window with curve cover
// `ranges`.
std::vector<int64_t> BucketsForCover(
    const broadcast::BroadcastSystem& system,
    const std::vector<hilbert::IndexRange>& ranges,
    WindowRetrieval retrieval) {
  if (ranges.empty()) return {};
  if (retrieval == WindowRetrieval::kSingleSpan) {
    return system.index().BucketsForSpan(ranges.front().lo, ranges.back().hi);
  }
  return system.index().BucketsForRanges(ranges);
}

}  // namespace

std::vector<int64_t> BucketsForWindow(const broadcast::BroadcastSystem& system,
                                      const geom::Rect& window,
                                      WindowRetrieval retrieval) {
  return BucketsForCover(system, system.grid().CoverRect(window), retrieval);
}

OnAirWindowResult OnAirWindow(const broadcast::BroadcastSystem& system,
                              const geom::Rect& window, int64_t now,
                              WindowRetrieval retrieval) {
  OnAirWindowResult result;
  const std::vector<hilbert::IndexRange> ranges =
      system.grid().CoverRect(window);
  result.buckets = BucketsForCover(system, ranges, retrieval);
  broadcast::IndexReadMode index_mode = broadcast::IndexReadMode::FlatDirectory();
  if (system.tree_index() != nullptr) {
    index_mode =
        broadcast::IndexReadMode::TreePaths(system.IndexReadBuckets(ranges));
  }
  result.stats = broadcast::RetrieveBuckets(system.schedule(), now,
                                            result.buckets, index_mode);
  const std::vector<spatial::Poi> received = system.CollectPois(result.buckets);
  kernels::SlabScratch scratch;
  scratch.slab.Assign(received.data(), received.size());
  uint32_t* idx = scratch.IdxFor(received.size());
  const size_t m = kernels::SelectInWindow(
      scratch.slab.xs(), scratch.slab.ys(), received.size(), window.x1,
      window.y1, window.x2, window.y2, idx);
  result.pois.reserve(m);
  for (size_t j = 0; j < m; ++j) result.pois.push_back(received[idx[j]]);
  return result;
}

}  // namespace lbsq::onair
