#ifndef LBSQ_CORE_QUERY_RESULT_H_
#define LBSQ_CORE_QUERY_RESULT_H_

#include <cstdint>
#include <vector>

#include "broadcast/bucket_runs.h"
#include "broadcast/client_protocol.h"
#include "core/verified_region.h"

/// \file
/// The result fields every query kind produces. SBNN and SBWQ outcomes used
/// to duplicate the tuning/latency slots, the degraded-retrieval bookkeeping,
/// and the cacheable region; `QueryResultCommon` hoists them into one base
/// both outcome structs extend, so callers (and `QueryOutcome::Common()`)
/// reach them without branching on the query kind.

namespace lbsq::core {

/// Fields shared by SbnnOutcome and SbwqOutcome.
struct QueryResultCommon {
  /// Broadcast cost (all zero for peer-resolved queries).
  broadcast::AccessStats stats;
  /// The buckets this query's channel was asked for on broadcast fallback
  /// (the download set; empty for peer-resolved queries). Single-channel
  /// only: a `ShardedQueryEngine` with more than one shard clears it on
  /// every broadcast answer, because bucket ids are per shard and the list
  /// could not say which channel they came from — there it stays empty
  /// while `stats.buckets_read` counts the buckets read over all queried
  /// shards.
  broadcast::BucketRuns buckets;
  /// The verified knowledge this query produced, ready for insertion into
  /// the querier's own cache (empty when the query yielded no complete
  /// coverage — in particular whenever it degraded).
  VerifiedRegion cacheable;
  /// True when a faulty channel prevented complete retrieval: the answer is
  /// best-effort (assembled from received buckets and peer data only) and
  /// `cacheable` is empty — a degraded query never claims verified
  /// knowledge it does not have.
  bool degraded = false;
  /// Buckets given up on (retry budget or deadline exhausted).
  std::vector<int64_t> failed_buckets;
  /// Channel accounting for this query (zero without fault injection).
  int64_t fault_losses = 0;
  int64_t fault_corruptions = 0;
  bool fault_deadline_hit = false;

  /// Clears every common field while keeping vector capacity — the batch
  /// execution path recycles outcome storage across queries.
  void ResetCommon() {
    stats = broadcast::AccessStats{};
    buckets.clear();
    cacheable.Clear();
    degraded = false;
    failed_buckets.clear();
    fault_losses = 0;
    fault_corruptions = 0;
    fault_deadline_hit = false;
  }
};

}  // namespace lbsq::core

#endif  // LBSQ_CORE_QUERY_RESULT_H_
