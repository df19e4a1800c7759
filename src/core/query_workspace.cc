#include "core/query_workspace.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace lbsq::core {

namespace {

// See CoverEntry::neighbourhood.
geom::Rect Neighbourhood(const hilbert::HilbertGrid& grid,
                         const CoverKey& key) {
  if (key.outside_world) return geom::Rect{};
  geom::Rect n = Padded(grid.CellRect(hilbert::CellXY{key.x1, key.y1})
                            .Union(grid.CellRect(
                                hilbert::CellXY{key.x2, key.y2})));
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const uint32_t last = grid.cells_per_axis() - 1;
  if (key.x1 == 0) n.x1 = -kInf;
  if (key.y1 == 0) n.y1 = -kInf;
  if (key.x2 == last) n.x2 = kInf;
  if (key.y2 == last) n.y2 = kInf;
  return n;
}

}  // namespace

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
  if (inserted) {
    it->second.ranges = grid.CoverRect(rect);
    it->second.neighbourhood = Neighbourhood(grid, key);
  }
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

const std::vector<spatial::Poi>& QueryWorkspace::SpanPois(
    const broadcast::BroadcastSystem& system, CoverEntry* entry) {
  if (!entry->have_span_pois) {
    const std::vector<int64_t>& span = SpanBuckets(system, entry);
    BucketsMeeting(system, span, entry->neighbourhood);
    entry->span_pois_whole = processed.size() == span.size();
    system.CollectPois(processed, &collect_scratch, &entry->span_pois);
    entry->span_slab.Assign(entry->span_pois.data(), entry->span_pois.size());
    entry->have_span_pois = true;
  }
  return entry->span_pois;
}

const std::vector<spatial::Poi>& QueryWorkspace::RangePois(
    const broadcast::BroadcastSystem& system, CoverEntry* entry) {
  if (!entry->have_range_pois) {
    system.CollectPois(BucketsMeeting(system, RangeBuckets(system, entry),
                                      entry->neighbourhood),
                       &collect_scratch, &entry->range_pois);
    entry->range_slab.Assign(entry->range_pois.data(),
                             entry->range_pois.size());
    entry->have_range_pois = true;
  }
  return entry->range_pois;
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

int64_t QueryWorkspace::TreeReadBuckets(
    const broadcast::BroadcastSystem& system, CoverEntry* entry) {
  if (entry->tree_read_buckets < 0) {
    entry->tree_read_buckets = system.IndexReadBuckets(entry->ranges);
  }
  return entry->tree_read_buckets;
}

}  // namespace lbsq::core
