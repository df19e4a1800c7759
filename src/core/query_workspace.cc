#include "core/query_workspace.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace lbsq::core {

geom::Rect Padded(const geom::Rect& rect) {
  const double scale =
      std::max({std::abs(rect.x1), std::abs(rect.y1), std::abs(rect.x2),
                std::abs(rect.y2), rect.width(), rect.height()});
  const double pad = 1e-9 * scale;
  return geom::Rect{rect.x1 - pad, rect.y1 - pad, rect.x2 + pad,
                    rect.y2 + pad};
}

const broadcast::BucketRuns& QueryWorkspace::BucketsMeeting(
    const broadcast::BroadcastSystem& system,
    const broadcast::BucketRuns& download, const geom::Rect& reach) {
  if (scan_processed_sets || download.count() <= kScanDownloadsUpTo) {
    return BucketsMeetingByScan(system, download, reach);
  }
  return BucketsMeetingByCover(system, download, reach);
}

const broadcast::BucketRuns& QueryWorkspace::BucketsMeetingByCover(
    const broadcast::BroadcastSystem& system,
    const broadcast::BucketRuns& download, const geom::Rect& reach) {
  const std::vector<broadcast::DataBucket>& buckets = system.buckets();
  system.grid().CoverRect(reach, &cover);
  system.index().BucketsForRanges(cover, &cover_buckets);
  processed.clear();
  broadcast::ForEachCommonId(download, cover_buckets, [&](int64_t id) {
    if (buckets[static_cast<size_t>(id)].mbr.Intersects(reach)) {
      processed.Append(id);
    }
  });
  return processed;
}

const broadcast::BucketRuns& QueryWorkspace::BucketsMeetingByScan(
    const broadcast::BroadcastSystem& system,
    const broadcast::BucketRuns& download, const geom::Rect& reach) {
  const std::vector<broadcast::DataBucket>& buckets = system.buckets();
  processed.clear();
  download.ForEachId([&](int64_t id) {
    if (buckets[static_cast<size_t>(id)].mbr.Intersects(reach)) {
      processed.Append(id);
    }
  });
  return processed;
}

}  // namespace lbsq::core
