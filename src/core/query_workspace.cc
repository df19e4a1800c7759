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

const std::vector<int64_t>& QueryWorkspace::BucketsMeeting(
    const broadcast::BroadcastSystem& system, const std::vector<int64_t>& ids,
    const geom::Rect& reach) {
  const std::vector<broadcast::DataBucket>& buckets = system.buckets();
  processed.clear();
  for (int64_t id : ids) {
    if (buckets[static_cast<size_t>(id)].mbr.Intersects(reach)) {
      processed.push_back(id);
    }
  }
  return processed;
}

}  // namespace lbsq::core
