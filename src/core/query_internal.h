#ifndef LBSQ_CORE_QUERY_INTERNAL_H_
#define LBSQ_CORE_QUERY_INTERNAL_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "broadcast/system.h"
#include "common/observability.h"
#include "core/query_result.h"
#include "core/query_workspace.h"
#include "core/sbnn.h"
#include "core/sbwq.h"
#include "core/verified_region.h"
#include "fault/faulty_channel.h"
#include "geom/point.h"
#include "geom/rect.h"

/// \file
/// Implementation seam between QueryEngine and the query algorithms. The
/// former public free functions RunSbnn / RunSbwq live here now, in the
/// `internal` namespace, workspace-threaded and writing into caller-owned
/// outcomes: every external consumer goes through `QueryEngine::Execute` /
/// `ExecuteBatch` instead. Not part of the library API — only the engine
/// (and its white-box tests) may include this header.

namespace lbsq::core::internal {

/// Algorithm 2 (SBNN). Resets `*outcome` for `options.k` and fills it;
/// scratch comes from `workspace`. Bit-identical to the pre-workspace free
/// function for any workspace state.
void RunSbnn(geom::Point q, const SbnnOptions& options,
             std::span<const PeerData> peers, double poi_density,
             const broadcast::BroadcastSystem& system, int64_t now,
             obs::TraceRecorder* trace, fault::ChannelSession* faults,
             QueryWorkspace& workspace, SbnnOutcome* outcome);

/// Algorithm 3 (SBWQ); same contract as RunSbnn above.
void RunSbwq(const geom::Rect& window, const SbwqOptions& options,
             std::span<const PeerData> peers,
             const broadcast::BroadcastSystem& system, int64_t now,
             obs::TraceRecorder* trace, fault::ChannelSession* faults,
             QueryWorkspace& workspace, SbwqOutcome* outcome);

/// The broadcast download both algorithms end with: records `ws.needed` as
/// the query's buckets and retrieves them at `now` under `index_mode` —
/// through `faults` when it enables the channel — filling `common`'s stats,
/// fault accounting, `degraded` and `failed_buckets`. Returns the buckets
/// actually received: `ws.needed` itself on a clean channel.
inline const broadcast::BucketRuns& RetrieveNeeded(
    const broadcast::BroadcastSystem& system, int64_t now,
    broadcast::IndexReadMode index_mode, obs::TraceRecorder* trace,
    fault::ChannelSession* faults, QueryWorkspace& ws,
    QueryResultCommon* common) {
  common->buckets = ws.needed;
  if (faults == nullptr || !faults->channel_enabled()) {
    common->stats = broadcast::RetrieveBuckets(system.schedule(), now,
                                               ws.needed, index_mode, trace);
    return ws.needed;
  }
  // The faulty channel draws one reception per bucket, so this is the one
  // path that walks the download bucket by bucket.
  ws.needed_ids.clear();
  ws.needed.AppendIds(&ws.needed_ids);
  fault::FaultyRetrievalResult r = faults->Retrieve(
      system.schedule(), now, ws.needed_ids, index_mode, trace);
  common->stats = r.stats;
  common->fault_losses = r.losses;
  common->fault_corruptions = r.corruptions;
  common->fault_deadline_hit = r.deadline_hit;
  if (!r.complete()) {
    common->degraded = true;
    common->failed_buckets = std::move(r.failed);
  }
  ws.retrieved.clear();
  for (const int64_t id : r.received) ws.retrieved.Append(id);
  return ws.retrieved;
}

}  // namespace lbsq::core::internal

#endif  // LBSQ_CORE_QUERY_INTERNAL_H_
