#include "broadcast/schedule.h"

#include "common/check.h"

namespace lbsq::broadcast {

BroadcastSchedule::BroadcastSchedule(int64_t num_data_buckets,
                                     int64_t index_buckets, int m,
                                     uint64_t epoch)
    : num_data_(num_data_buckets),
      index_len_(index_buckets),
      m_(m),
      epoch_(epoch) {
  LBSQ_CHECK(num_data_ >= 1);
  LBSQ_CHECK(index_len_ >= 1);
  LBSQ_CHECK(m_ >= 1);
  LBSQ_CHECK(static_cast<int64_t>(m_) <= num_data_);
  cycle_ = static_cast<int64_t>(m_) * index_len_ + num_data_;
}

int64_t BroadcastSchedule::ChunkBegin(int64_t j) const {
  return j * num_data_ / m_;
}

int64_t BroadcastSchedule::SegmentStart(int64_t j) const {
  return j * index_len_ + ChunkBegin(j);
}

int64_t BroadcastSchedule::SegmentAt(int64_t offset) const {
  // Largest j with SegmentStart(j) <= offset.
  int64_t lo = 0, hi = m_ - 1;
  while (lo < hi) {
    const int64_t mid = (lo + hi + 1) / 2;
    if (SegmentStart(mid) <= offset) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return lo;
}

BroadcastSchedule::Slot BroadcastSchedule::SlotAt(int64_t t) const {
  LBSQ_CHECK(t >= 0);
  const int64_t offset = t % cycle_;
  const int64_t j = SegmentAt(offset);
  const int64_t within = offset - SegmentStart(j);
  if (within < index_len_) {
    return Slot{Slot::Kind::kIndex, within};
  }
  return Slot{Slot::Kind::kData, ChunkBegin(j) + (within - index_len_)};
}

int64_t BroadcastSchedule::FirstBucketAiringFrom(int64_t t) const {
  LBSQ_CHECK(t >= 0);
  const int64_t offset = t % cycle_;
  const int64_t j = SegmentAt(offset);
  const int64_t within = offset - SegmentStart(j);
  // Inside index segment j the next data bucket on the air opens chunk j;
  // inside chunk j it is the bucket on the air.
  if (within < index_len_) return ChunkBegin(j);
  return ChunkBegin(j) + (within - index_len_);
}

int64_t BroadcastSchedule::NextIndexSegmentStart(int64_t t) const {
  LBSQ_CHECK(t >= 0);
  const int64_t cycle_base = t / cycle_ * cycle_;
  const int64_t offset = t - cycle_base;
  for (int64_t j = 0; j < m_; ++j) {
    if (SegmentStart(j) >= offset) return cycle_base + SegmentStart(j);
  }
  return cycle_base + cycle_;  // segment 0 of the next cycle
}

int64_t BroadcastSchedule::NextBucketSlot(int64_t t, int64_t bucket) const {
  LBSQ_CHECK(t >= 0);
  LBSQ_CHECK(bucket >= 0 && bucket < num_data_);
  // Chunk containing the bucket: largest j with ChunkBegin(j) <= bucket.
  int64_t lo = 0, hi = m_ - 1;
  while (lo < hi) {
    const int64_t mid = (lo + hi + 1) / 2;
    if (ChunkBegin(mid) <= bucket) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  const int64_t slot_in_cycle =
      SegmentStart(lo) + index_len_ + (bucket - ChunkBegin(lo));
  const int64_t cycle_base = t / cycle_ * cycle_;
  int64_t candidate = cycle_base + slot_in_cycle;
  if (candidate < t) candidate += cycle_;
  return candidate;
}

}  // namespace lbsq::broadcast
