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

void QueryWorkspace::Prepare(const broadcast::BroadcastSystem& system,
                             int64_t cycle) {
  const void* tag = &system;
  // The POI count and world epoch guard against a different system reusing
  // the same address after destruction (the epoch-publish path of the
  // dynamic world frees the old system and can allocate the new one at the
  // recycled address); workspaces are meant to be scoped to one
  // engine/thread, this catches accidental cross-system reuse too.
  if (tag != system_tag_ || system.pois().size() != system_pois_ ||
      system.epoch() != system_epoch_ || cycle != cycle_) {
    memo_.clear();
    system_tag_ = tag;
    system_pois_ = system.pois().size();
    system_epoch_ = system.epoch();
    cycle_ = cycle;
  }
}

CoverEntry& QueryWorkspace::Cover(const broadcast::BroadcastSystem& system,
                                  const geom::Rect& rect) {
  const hilbert::HilbertGrid& grid = system.grid();
  const geom::Rect clamped = rect.Intersection(grid.world());
  CoverKey key;
  if (clamped.empty()) {
    key.outside_world = true;
  } else {
    // CoverRect is a pure function of the two corner cells of the clamped
    // rectangle, so they are the whole memo key.
    const hilbert::CellXY lo = grid.CellOf({clamped.x1, clamped.y1});
    const hilbert::CellXY hi = grid.CellOf({clamped.x2, clamped.y2});
    key.x1 = lo.x;
    key.y1 = lo.y;
    key.x2 = hi.x;
    key.y2 = hi.y;
  }
  auto [it, inserted] = memo_.try_emplace(key);
  if (inserted) it->second.ranges = grid.CoverRect(rect);
  return it->second;
}

const std::vector<int64_t>& QueryWorkspace::SpanBuckets(
    const broadcast::BroadcastSystem& system, CoverEntry* entry) {
  LBSQ_CHECK(!entry->ranges.empty());
  if (!entry->have_span) {
    entry->span_buckets = system.index().BucketsForSpan(
        entry->ranges.front().lo, entry->ranges.back().hi);
    entry->have_span = true;
  }
  return entry->span_buckets;
}

const std::vector<int64_t>& QueryWorkspace::RangeBuckets(
    const broadcast::BroadcastSystem& system, CoverEntry* entry) {
  LBSQ_CHECK(!entry->ranges.empty());
  if (!entry->have_ranges) {
    entry->range_buckets = system.index().BucketsForRanges(entry->ranges);
    entry->have_ranges = true;
  }
  return entry->range_buckets;
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
