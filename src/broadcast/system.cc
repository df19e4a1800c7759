#include "broadcast/system.h"

#include <algorithm>
#include <cstddef>

#include "common/check.h"

namespace lbsq::broadcast {

namespace {

// The (1, m) schedule requires m <= number of data buckets; clamp so tiny
// data sets still build.
int ClampM(int m, int64_t num_buckets) {
  return static_cast<int>(
      std::max<int64_t>(1, std::min<int64_t>(m, num_buckets)));
}

}  // namespace

BroadcastSystem::BroadcastSystem(std::vector<spatial::Poi> pois,
                                 const geom::Rect& world,
                                 const BroadcastParams& params)
    : params_(params),
      pois_(std::move(pois)),
      grid_(world, params.hilbert_order, params.curve),
      buckets_(BuildBuckets(pois_, grid_, params.bucket_capacity)),
      index_(buckets_, grid_, params.index_entries_per_bucket),
      tree_index_(params.index_kind == IndexKind::kTree
                      ? std::make_unique<TreeAirIndex>(
                            index_.entries(), params.index_entries_per_bucket)
                      : nullptr),
      schedule_(static_cast<int64_t>(buckets_.size()), IndexSegmentBuckets(),
                ClampM(params.m, static_cast<int64_t>(buckets_.size())),
                params.epoch) {
  FinishConstruction();
}

BroadcastSystem::BroadcastSystem(std::vector<spatial::Poi> pois,
                                 std::vector<DataBucket> buckets,
                                 const geom::Rect& world,
                                 const BroadcastParams& params)
    : params_(params),
      pois_(std::move(pois)),
      grid_(world, params.hilbert_order, params.curve),
      buckets_(std::move(buckets)),
      index_(buckets_, grid_, params.index_entries_per_bucket),
      tree_index_(params.index_kind == IndexKind::kTree
                      ? std::make_unique<TreeAirIndex>(
                            index_.entries(), params.index_entries_per_bucket)
                      : nullptr),
      schedule_(static_cast<int64_t>(buckets_.size()), IndexSegmentBuckets(),
                ClampM(params.m, static_cast<int64_t>(buckets_.size())),
                params.epoch) {
  // The prebuilt data file must be a valid bucketization: ids equal to
  // positions (the schedule and CollectPois address buckets by position) and
  // the buckets together partition exactly the POI database.
  size_t bucketized = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    LBSQ_CHECK_EQ(buckets_[i].id, static_cast<int64_t>(i));
    bucketized += buckets_[i].pois.size();
  }
  LBSQ_CHECK_EQ(bucketized, pois_.size());
  FinishConstruction();
}

void BroadcastSystem::FinishConstruction() {
  for (DataBucket& bucket : buckets_) bucket.epoch = params_.epoch;
  sorted_start_.reserve(buckets_.size() + 1);
  sorted_start_.push_back(0);
  sorted_pois_.reserve(pois_.size());
  for (const DataBucket& bucket : buckets_) {
    sorted_pois_.insert(sorted_pois_.end(), bucket.pois.begin(),
                        bucket.pois.end());
    std::sort(sorted_pois_.begin() +
                  static_cast<ptrdiff_t>(sorted_start_.back()),
              sorted_pois_.end(),
              [](const spatial::Poi& a, const spatial::Poi& b) {
                return a.id < b.id;
              });
    sorted_start_.push_back(sorted_pois_.size());
  }
}

int64_t BroadcastSystem::IndexSegmentBuckets() const {
  return tree_index_ ? tree_index_->SizeInBuckets() : index_.SizeInBuckets();
}

int64_t BroadcastSystem::IndexReadBuckets(
    const std::vector<hilbert::IndexRange>& lookups) const {
  if (!tree_index_) return IndexSegmentBuckets();
  return tree_index_->ReadCostForRanges(lookups);
}

std::vector<spatial::Poi> BroadcastSystem::CollectPois(
    const std::vector<int64_t>& bucket_ids) const {
  std::vector<spatial::Poi> out;
  CollectScratch scratch;
  CollectPois(BucketRuns::FromIds(bucket_ids), &scratch, &out);
  return out;
}

void BroadcastSystem::CollectPois(const BucketRuns& buckets,
                                  CollectScratch* scratch,
                                  std::vector<spatial::Poi>* out) const {
  out->clear();
  // Buckets partition the database and each bucket's run in sorted_pois_ is
  // id-sorted, so the id-sorted deduplicated output is a k-way merge of the
  // runs the bucket set names — no per-call sort. The merge state lives in
  // the caller's scratch, so the call is allocation-free once that scratch
  // has grown to its steady-state size.
  using Cursor = CollectScratch::Cursor;
  std::vector<Cursor>& runs = scratch->runs;
  if (!buckets.empty()) {
    LBSQ_CHECK(buckets.front() >= 0 &&
               buckets.back() < static_cast<int64_t>(buckets_.size()));
  }
  runs.clear();
  size_t total = 0;
  buckets.ForEachId([&](int64_t id) {
    const spatial::Poi* lo = sorted_pois_.data() + sorted_start_[id];
    const spatial::Poi* hi = sorted_pois_.data() + sorted_start_[id + 1];
    if (lo != hi) {
      runs.push_back(Cursor{lo, hi});
      total += static_cast<size_t>(hi - lo);
    }
  });
  out->reserve(total);
  if (runs.size() == 1) {
    out->assign(runs.front().cur, runs.front().end);
    return;
  }
  const auto later = [](const Cursor& a, const Cursor& b) {
    return a.cur->id > b.cur->id;
  };
  std::make_heap(runs.begin(), runs.end(), later);
  while (!runs.empty()) {
    std::pop_heap(runs.begin(), runs.end(), later);
    Cursor& c = runs.back();
    out->push_back(*c.cur++);
    if (c.cur == c.end) {
      runs.pop_back();
    } else {
      std::push_heap(runs.begin(), runs.end(), later);
    }
  }
}

}  // namespace lbsq::broadcast
