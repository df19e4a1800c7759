#include "fault/faulty_channel.h"

#include <algorithm>
#include <limits>

#include "common/check.h"

namespace lbsq::fault {

ChannelSession::ChannelSession(const ChannelFaultConfig& channel,
                               const FaultPolicy& policy, uint64_t stream_seed)
    : channel_(channel), policy_(policy), rng_(stream_seed), burst_(channel) {
  channel_.Validate();
  policy_.Validate();
}

int ChannelSession::SampleReception() {
  bool lost = false;
  switch (channel_.model) {
    case LossModel::kNone:
      break;
    case LossModel::kIid:
      lost = rng_.NextBool(channel_.loss_prob);
      break;
    case LossModel::kGilbertElliott:
      lost = burst_.NextLost(&rng_);
      break;
  }
  if (lost) return 1;
  if (channel_.corruption_prob > 0.0 && rng_.NextBool(channel_.corruption_prob)) {
    return 2;
  }
  return 0;
}

FaultyRetrievalResult ChannelSession::Retrieve(
    const broadcast::BroadcastSchedule& schedule, int64_t t,
    const std::vector<int64_t>& buckets, broadcast::IndexReadMode index_mode,
    obs::TraceRecorder* trace) {
  LBSQ_CHECK(t >= 0);
  const int64_t index_read = index_mode.BucketsToRead(schedule);
  LBSQ_CHECK(index_read >= 0);
  LBSQ_CHECK(index_read <= schedule.index_buckets());
  FaultyRetrievalResult result;

  std::vector<int64_t> needed = buckets;
  std::sort(needed.begin(), needed.end());
  needed.erase(std::unique(needed.begin(), needed.end()), needed.end());

  const int64_t deadline = policy_.deadline_slots > 0
                               ? t + policy_.deadline_slots
                               : std::numeric_limits<int64_t>::max();

  // Step 1: initial probe (1 slot). Assumed received: every bucket carries
  // the next-index pointer, so any single good slot suffices.
  result.stats.tuning_time += 1;
  if (trace != nullptr) trace->Span("bcast.probe", t, t + 1);

  // Step 2: index search. A segment read fails when any of its index_read
  // receptions is lost or corrupted; the client dozes to the next replica.
  int64_t cursor = t + 1;
  const int64_t first_index_start = schedule.NextIndexSegmentStart(cursor);
  bool index_ok = false;
  int index_attempts = 0;
  for (;;) {
    const int64_t index_start = schedule.NextIndexSegmentStart(cursor);
    const int64_t segment_end = index_start + schedule.index_buckets();
    if (segment_end > deadline) {
      result.deadline_hit = true;
      break;
    }
    cursor = segment_end;
    result.stats.tuning_time += index_read;
    bool ok = true;
    for (int64_t i = 0; i < index_read; ++i) {
      switch (SampleReception()) {
        case 1:
          ++result.losses;
          ok = false;
          break;
        case 2:
          ++result.corruptions;
          ok = false;
          break;
        default:
          break;
      }
    }
    if (ok) {
      index_ok = true;
      break;
    }
    ++index_attempts;
    if (index_attempts > policy_.max_retries_per_bucket) break;
  }
  const int64_t index_end = cursor;
  if (trace != nullptr) trace->Span("bcast.index", first_index_start, index_end);

  int64_t completion = index_end;
  if (!index_ok) {
    // Without the index the client cannot locate any bucket: the whole
    // retrieval fails and the query must degrade.
    result.failed = std::move(needed);
  } else {
    // Step 3: data retrieval, each bucket bounded by the retry budget and
    // all of them by the deadline. Failed attempts still advance the
    // completion horizon — the receiver was on and time passed.
    for (int64_t bucket : needed) {
      int64_t attempt_from = index_end;
      int attempts = 0;
      bool got = false;
      for (;;) {
        const int64_t slot = schedule.NextBucketSlot(attempt_from, bucket);
        if (slot + 1 > deadline) {
          result.deadline_hit = true;
          break;
        }
        result.stats.tuning_time += 1;
        completion = std::max(completion, slot + 1);
        const int reception = SampleReception();
        if (reception == 0) {
          got = true;
          break;
        }
        if (reception == 1) {
          ++result.losses;
        } else {
          ++result.corruptions;
        }
        ++attempts;
        if (attempts > policy_.max_retries_per_bucket) break;
        attempt_from = slot + 1;
      }
      if (got) {
        result.received.push_back(bucket);
      } else {
        result.failed.push_back(bucket);
      }
    }
  }

  result.stats.buckets_read = static_cast<int64_t>(result.received.size());
  result.stats.access_latency = completion - t;
  if (trace != nullptr) {
    trace->Span("bcast.data", index_end, completion);
    trace->Counter("fault.losses", static_cast<double>(result.losses));
    trace->Counter("fault.corruptions",
                   static_cast<double>(result.corruptions));
    trace->Counter("fault.failed_buckets",
                   static_cast<double>(result.failed.size()));
    trace->Counter("fault.deadline_hit", result.deadline_hit ? 1.0 : 0.0);
  }
  return result;
}

}  // namespace lbsq::fault
