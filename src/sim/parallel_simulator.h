#ifndef LBSQ_SIM_PARALLEL_SIMULATOR_H_
#define LBSQ_SIM_PARALLEL_SIMULATOR_H_

#include <memory>
#include <optional>
#include <vector>

#include "common/metrics_registry.h"
#include "common/observability.h"
#include "common/thread_pool.h"
#include "core/peer_cache.h"
#include "core/sharded_query_engine.h"
#include "sim/config.h"
#include "sim/metrics.h"
#include "sim/mobility.h"
#include "sim/query_exec.h"
#include "sim/sim_world.h"
#include "sim/trace.h"
#include "spatial/grid_index.h"

/// \file
/// The parallel multi-client simulation engine. The sequential Simulator
/// executes one query event at a time against the live caches of every
/// host; this engine processes events in *epochs* of
/// `SimConfig::events_per_epoch` consecutive events:
///
///  1. At the epoch barrier, every host's shareable cache content is
///     snapshotted. The snapshot — like the broadcast schedule and air
///     index — is immutable for the whole epoch, so workers read it
///     lock-free.
///  2. Events are sharded across workers by querying host
///     (`host % threads`); each worker executes its events in global event
///     order against the snapshot, writing only (a) the querying host's own
///     cache — which it exclusively owns — and (b) the event's private
///     result slot.
///  3. After the join barrier, per-event results are folded into the run's
///     `SimMetrics` in event order on one thread.
///
/// Determinism: every random draw comes from a counter-based stream keyed
/// by host or event (never from a shared generator), each host's cache
/// receives exactly the same inserts in the same order regardless of which
/// worker owns it, and the event-order fold performs the same floating-
/// point additions in the same sequence at any thread count. The same
/// config + seed therefore yields bitwise-identical metrics for threads =
/// 1, 2, 8, ... — and with `events_per_epoch = 1` the snapshot is always
/// fresh, reproducing the sequential engine's metrics exactly.

namespace lbsq::sim {

/// Thread-parallel simulation engine. Construct, Run() once, read metrics.
class ParallelSimulator {
 public:
  explicit ParallelSimulator(const SimConfig& config);
  ~ParallelSimulator();

  ParallelSimulator(const ParallelSimulator&) = delete;
  ParallelSimulator& operator=(const ParallelSimulator&) = delete;

  /// Attaches run-level observability (either may be null). Workers record
  /// each measured query's events into the event's private result slot; the
  /// epoch fold appends them to `trace_sink` — and feeds `registry` — in
  /// global event order, so the output bytes are independent of the thread
  /// count. Call before Run().
  void SetObserver(obs::TraceSink* trace_sink, MetricsRegistry* registry);

  /// Generates the workload for the configured seed and executes it with
  /// `config.threads` workers. Returns post-warm-up metrics.
  SimMetrics Run();

  /// Executes a recorded workload (same trace format as the sequential
  /// engine; traces are interchangeable between the two).
  SimMetrics Replay(const std::vector<QueryEvent>& events);

  /// Events recorded by the last Run() under record_trace.
  const std::vector<QueryEvent>& trace() const { return trace_; }

  /// The simulated server side: POI database, epochs, broadcast channels.
  const SimWorld& world() const { return world_; }
  /// Host caches (for inspection in tests).
  const std::vector<core::PeerCache>& caches() const { return caches_; }

 private:
  /// Everything a worker thread owns privately: its fleet replica, its
  /// position buffer, and its peer index. Nothing here is ever touched by
  /// another thread.
  struct Worker {
    std::unique_ptr<MobilityModel> mobility;
    std::vector<geom::Point> positions;
    spatial::GridIndex peer_index;
    /// Per-thread query scratch, reused by every event this worker
    /// executes.
    core::ShardedQueryWorkspace workspace;

    Worker(const MobilityModel& proto, const geom::Rect& world,
           double cell_size);
  };

  /// Per-event output, written into a private slot by the owning worker and
  /// folded into SimMetrics in event order after the epoch's join barrier.
  struct EventResult {
    bool measured = false;
    int peer_count = 0;
    /// Cross-epoch revalidation counts of this event's gathered peer data
    /// (zero unless updates are enabled); folded in event order.
    int64_t regions_revalidated = 0;
    int64_t regions_stale_rejected = 0;
    std::optional<KnnQueryResult> knn;
    std::optional<WindowQueryResult> window;
    /// Span/counter events of this query (only populated when a trace sink
    /// is attached and the event is measured); appended at the fold.
    obs::TraceRecorder trace;
    bool traced = false;
  };

  /// Executes one event on `worker` (runs on a worker thread). `query_id`
  /// is the event's global workload index (the trace key). Reads the epoch
  /// snapshot; writes only caches_[event.host] and the returned slot.
  EventResult ExecuteEvent(Worker* worker, const QueryEvent& event,
                           int64_t query_id);

  SimMetrics Execute(const std::vector<QueryEvent>& events);

  SimConfig config_;
  /// Update batches apply only between chunks — chunk boundaries are
  /// clamped to update boundaries — so the pinned epoch is immutable while
  /// workers run.
  SimWorld world_;
  std::unique_ptr<MobilityModel> mobility_proto_;
  std::vector<core::PeerCache> caches_;
  /// Shareable cache content of every host as of the last epoch barrier.
  std::vector<core::PeerData> snapshot_;
  std::vector<Worker> workers_;
  std::unique_ptr<ThreadPool> pool_;  // null when threads == 1
  std::vector<QueryEvent> trace_;
  double tx_range_mi_;
  obs::TraceSink* trace_sink_ = nullptr;
  MetricsRegistry* registry_ = nullptr;
};

}  // namespace lbsq::sim

#endif  // LBSQ_SIM_PARALLEL_SIMULATOR_H_
