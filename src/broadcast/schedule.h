#ifndef LBSQ_BROADCAST_SCHEDULE_H_
#define LBSQ_BROADCAST_SCHEDULE_H_

#include <cstdint>

/// \file
/// The (1, m) index allocation of Imielinski, Viswanathan & Badrinath: the
/// whole air index is broadcast m times per cycle, each copy preceding 1/m of
/// the data file. Time is measured in *slots*; one bucket (index or data)
/// occupies exactly one slot.

namespace lbsq::broadcast {

/// Deterministic, arithmetic model of the broadcast cycle layout. Slot `t`
/// (absolute, from simulation start) maps to either an index bucket or a
/// data bucket; the schedule repeats with period cycle_length().
class BroadcastSchedule {
 public:
  /// A cycle carrying `num_data_buckets` data buckets, an index of
  /// `index_buckets` buckets replicated `m` times. Requires all >= 1 and
  /// m <= num_data_buckets. `epoch` labels the world version the cycle
  /// carries (0 = the initial static world); it does not affect the layout.
  BroadcastSchedule(int64_t num_data_buckets, int64_t index_buckets, int m,
                    uint64_t epoch = 0);

  /// Number of data buckets per cycle.
  int64_t num_data_buckets() const { return num_data_; }
  /// World epoch the cycle carries (layout-neutral label).
  uint64_t epoch() const { return epoch_; }
  /// Size of one index segment in buckets.
  int64_t index_buckets() const { return index_len_; }
  /// Index replication factor.
  int m() const { return m_; }
  /// Total slots per broadcast cycle: m * index_buckets + num_data_buckets.
  int64_t cycle_length() const { return cycle_; }

  /// What is on the air during slot `t`.
  struct Slot {
    enum class Kind { kIndex, kData };
    Kind kind = Kind::kIndex;
    /// Offset within the index segment, or the data bucket id.
    int64_t value = 0;
  };
  Slot SlotAt(int64_t t) const;

  /// First slot >= t at which an index segment begins.
  int64_t NextIndexSegmentStart(int64_t t) const;

  /// First slot >= t during which data bucket `bucket` is on the air. The
  /// bucket has been fully received at the *end* of that slot, i.e., at time
  /// NextBucketSlot(t, bucket) + 1.
  int64_t NextBucketSlot(int64_t t, int64_t bucket) const;

  /// The smallest data bucket id whose in-cycle slot is at or after the
  /// in-cycle offset of slot `t`, or num_data_buckets() when none is. In-cycle
  /// slots rise with the bucket id, so from `t` on the buckets below this id
  /// next air in the following cycle and the others in the current one:
  /// NextBucketSlot(t, b) is increasing in b on each side of it.
  int64_t FirstBucketAiringFrom(int64_t t) const;

 private:
  /// The index segment whose stretch of the cycle (the segment and its data
  /// chunk) holds in-cycle offset `offset`.
  int64_t SegmentAt(int64_t offset) const;
  /// Slot offset (within a cycle) at which index segment `j` begins.
  int64_t SegmentStart(int64_t j) const;
  /// First data bucket of chunk `j` (chunks are as even as possible).
  int64_t ChunkBegin(int64_t j) const;

  int64_t num_data_;
  int64_t index_len_;
  int m_;
  int64_t cycle_;
  uint64_t epoch_;
};

}  // namespace lbsq::broadcast

#endif  // LBSQ_BROADCAST_SCHEDULE_H_
