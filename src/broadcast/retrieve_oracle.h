#ifndef LBSQ_BROADCAST_RETRIEVE_ORACLE_H_
#define LBSQ_BROADCAST_RETRIEVE_ORACLE_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "broadcast/client_protocol.h"
#include "broadcast/schedule.h"
#include "common/check.h"
#include "common/observability.h"
#include "kernels/kernels.h"

/// \file
/// The bucket-by-bucket retrieval `RetrieveBuckets` replaced: canonicalize
/// the id list, then ask the schedule for every bucket's next slot and take
/// the latest. O(B log m) for B buckets. The library never calls it; it is
/// the differential oracle for the run-encoded retrieval (tests) and the
/// reference it is timed against (benchmarks).

namespace lbsq::broadcast {

/// Same contract and output (stats and trace spans) as RetrieveBuckets.
inline AccessStats RetrieveBucketsPerBucket(
    const BroadcastSchedule& schedule, int64_t t,
    const std::vector<int64_t>& buckets,
    IndexReadMode index_mode = IndexReadMode{},
    obs::TraceRecorder* trace = nullptr) {
  LBSQ_CHECK(t >= 0);
  const int64_t index_read_buckets = index_mode.BucketsToRead(schedule);
  LBSQ_CHECK(index_read_buckets >= 0);
  LBSQ_CHECK(index_read_buckets <= schedule.index_buckets());
  AccessStats stats;
  stats.tuning_time += 1;
  const int64_t after_probe = t + 1;
  if (trace != nullptr) trace->Span("bcast.probe", t, after_probe);
  const int64_t index_start = schedule.NextIndexSegmentStart(after_probe);
  const int64_t index_end = index_start + schedule.index_buckets();
  stats.tuning_time += index_read_buckets;
  if (trace != nullptr) trace->Span("bcast.index", index_start, index_end);
  // A canonical list (what the query engine passed) is walked in place.
  std::vector<int64_t> canonical;
  const std::vector<int64_t>* needed = &buckets;
  if (!kernels::IsSortedUniqueI64(buckets.data(), buckets.size())) {
    canonical = buckets;
    std::sort(canonical.begin(), canonical.end());
    canonical.erase(std::unique(canonical.begin(), canonical.end()),
                    canonical.end());
    needed = &canonical;
  }
  int64_t completion = index_end;
  for (const int64_t bucket : *needed) {
    completion =
        std::max(completion, schedule.NextBucketSlot(index_end, bucket) + 1);
  }
  stats.tuning_time += static_cast<int64_t>(needed->size());
  stats.buckets_read = static_cast<int64_t>(needed->size());
  stats.access_latency = completion - t;
  if (trace != nullptr) trace->Span("bcast.data", index_end, completion);
  return stats;
}

}  // namespace lbsq::broadcast

#endif  // LBSQ_BROADCAST_RETRIEVE_ORACLE_H_
