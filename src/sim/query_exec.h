#ifndef LBSQ_SIM_QUERY_EXEC_H_
#define LBSQ_SIM_QUERY_EXEC_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/metrics_registry.h"
#include "common/observability.h"
#include "core/query_engine.h"
#include "core/sharded_query_engine.h"
#include "dynamic/sharded_world.h"
#include "sim/config.h"
#include "sim/metrics.h"
#include "spatial/grid_index.h"

/// \file
/// Single-query execution and metric accounting shared by the sequential
/// and the parallel simulation engines. Each function is a pure computation
/// over immutable inputs (the query engine, a peer snapshot, positions),
/// so the parallel engine can call them from worker threads without locks;
/// the accumulate functions perform the metric updates in one fixed order,
/// so folding per-event results in event order yields bitwise-identical
/// `SimMetrics` — and byte-identical trace output — regardless of how
/// events were partitioned across threads.

namespace lbsq::sim {

/// The engine options a SimConfig prescribes (the one translation point
/// between simulation knobs and core query options).
core::EngineOptions EngineOptionsFromConfig(const SimConfig& config);

/// Result of one kNN query: the SBNN outcome, its oracle verdict, and the
/// pure on-air baseline cost (computed only for measured queries).
struct KnnQueryResult {
  core::SbnnOutcome outcome;
  /// Answer matches the brute-force oracle (distance-wise).
  bool exact = false;
  int64_t baseline_latency = 0;
  int64_t baseline_tuning = 0;
  /// Peer regions the defensive screen rejected (0 unless screening on).
  int64_t regions_rejected = 0;

  /// The placeholder outcome needs a valid heap capacity (>= 1); it is
  /// overwritten by ExecuteKnnQuery before anyone reads it.
  KnnQueryResult() : outcome(1) {}
};

/// Result of one window query (see KnnQueryResult).
struct WindowQueryResult {
  core::SbwqOutcome outcome;
  bool exact = false;
  int64_t baseline_latency = 0;
  int64_t baseline_tuning = 0;
  /// Peer regions the defensive screen rejected (0 unless screening on).
  int64_t regions_rejected = 0;
};

/// Runs SBNN for one query on the pinned `epoch`'s sharded engine, stamps
/// the outcome's cacheable with the epoch's global id (clean shards still
/// carry the stamp of their last rebuild; what this query verified is
/// consistent with the pinned epoch, which is what peer revalidation
/// consults), checks the answer against a brute-force oracle over the
/// epoch's POI snapshot (aborting via LBSQ_CHECK under
/// `config.check_answers` for exact-path answers; the check is waived while
/// fault injection is enabled, since degraded or peer-corrupted answers may
/// legitimately differ), and — when `measured` — prices the pure on-air
/// baseline. A non-null `trace` receives the query's span/counter events.
///
/// `query_id` is the global event index: it keys the per-query fault
/// streams (peer corruption and channel schedule), making fault outcomes
/// independent of thread count. Fault injection is a single-channel
/// concept (SimConfig::Validate rejects it at N > 1), so peer corruption
/// only ever applies at one shard.
///
/// The baseline at one shard is the on-air client of Zheng et al. on the
/// channel. At N > 1 it is the same deployment queried peerlessly — the
/// multi-channel on-air cost under the merged latency = max / tuning = sum
/// conventions.
///
/// Thread-safe: reads only immutable state plus the caller's own
/// `workspace` — pass one per worker thread to reuse query scratch across
/// events.
KnnQueryResult ExecuteKnnQuery(const SimConfig& config,
                               const dynamic::ShardedEpoch& epoch,
                               geom::Point pos, int k, int64_t slot,
                               std::vector<core::PeerData> peers, bool measured,
                               int64_t query_id, obs::TraceRecorder* trace,
                               core::ShardedQueryWorkspace& workspace);

/// Window-query counterpart of ExecuteKnnQuery.
WindowQueryResult ExecuteWindowQuery(const SimConfig& config,
                                     const dynamic::ShardedEpoch& epoch,
                                     const geom::Rect& window, int64_t slot,
                                     std::vector<core::PeerData> peers,
                                     bool measured, int64_t query_id,
                                     obs::TraceRecorder* trace,
                                     core::ShardedQueryWorkspace& workspace);

/// Records a measured kNN query into `metrics` (counters, resolved-by
/// breakdown, latency/tuning accumulators) in the canonical order. A
/// non-null `registry` additionally receives histogram observations
/// (`access_latency`, `tuning_time`, `access_latency_all`, `buckets_read`,
/// `buckets_skipped`, `baseline_latency`) and the resolved-by counters.
void AccumulateKnn(const KnnQueryResult& result, SimMetrics* metrics,
                   MetricsRegistry* registry = nullptr);

/// Records a measured window query into `metrics` (see AccumulateKnn; the
/// window-specific histogram is `residual_fraction`).
void AccumulateWindow(const WindowQueryResult& result, SimMetrics* metrics,
                      MetricsRegistry* registry = nullptr);

/// Breadth-first flood over the radio connectivity graph from `querier` up
/// to `hops` (1 = the paper's single-hop sharing), collecting the non-empty
/// shared data of every reached host via `share`. Returns the number of
/// reached hosts (including ones with nothing to share).
int GatherPeers(const spatial::GridIndex& peer_index,
                const std::vector<geom::Point>& positions, int64_t querier,
                double tx_range, int hops,
                const std::function<core::PeerData(int64_t)>& share,
                std::vector<core::PeerData>* out);

}  // namespace lbsq::sim

#endif  // LBSQ_SIM_QUERY_EXEC_H_
