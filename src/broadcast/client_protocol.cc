#include "broadcast/client_protocol.h"

#include "common/check.h"

namespace lbsq::broadcast {

AccessStats RetrieveBuckets(const BroadcastSchedule& schedule, int64_t t,
                            const BucketRuns& buckets,
                            IndexReadMode index_mode,
                            obs::TraceRecorder* trace) {
  LBSQ_CHECK(t >= 0);
  const int64_t index_read_buckets = index_mode.BucketsToRead(schedule);
  LBSQ_CHECK(index_read_buckets >= 0);
  LBSQ_CHECK(index_read_buckets <= schedule.index_buckets());
  AccessStats stats;

  // Step 1: initial probe. The client listens to the slot in progress; every
  // bucket carries a pointer to the next index segment.
  stats.tuning_time += 1;
  const int64_t after_probe = t + 1;
  if (trace != nullptr) trace->Span("bcast.probe", t, after_probe);

  // Step 2: index search. Read the needed part of the next index segment
  // (dozing between tree-path buckets when a hierarchical index is in use).
  const int64_t index_start = schedule.NextIndexSegmentStart(after_probe);
  const int64_t index_end = index_start + schedule.index_buckets();
  stats.tuning_time += index_read_buckets;
  if (trace != nullptr) trace->Span("bcast.index", index_start, index_end);

  // Step 3: data retrieval. The buckets airing before index_end's in-cycle
  // offset next air a cycle later, after every other one; the last of the
  // download to arrive is the largest of those, else the largest overall.
  int64_t completion = index_end;
  if (!buckets.empty()) {
    LBSQ_CHECK(buckets.front() >= 0);
    const int64_t wrapped =
        buckets.LastBefore(schedule.FirstBucketAiringFrom(index_end));
    completion = schedule.NextBucketSlot(
                     index_end, wrapped >= 0 ? wrapped : buckets.back()) +
                 1;
  }
  const int64_t count = buckets.count();
  stats.tuning_time += count;
  stats.buckets_read = count;
  stats.access_latency = completion - t;
  if (trace != nullptr) trace->Span("bcast.data", index_end, completion);
  return stats;
}

AccessStats RetrieveBuckets(const BroadcastSchedule& schedule, int64_t t,
                            const std::vector<int64_t>& buckets,
                            IndexReadMode index_mode,
                            obs::TraceRecorder* trace) {
  return RetrieveBuckets(schedule, t, BucketRuns::FromIds(buckets),
                         index_mode, trace);
}

}  // namespace lbsq::broadcast
