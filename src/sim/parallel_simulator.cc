#include "sim/parallel_simulator.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "sim/workload.h"

namespace lbsq::sim {

ParallelSimulator::Worker::Worker(const MobilityModel& proto,
                                  const geom::Rect& world, double cell_size)
    : mobility(proto.Clone()),
      positions(static_cast<size_t>(proto.num_hosts())),
      peer_index(world, cell_size) {}

ParallelSimulator::ParallelSimulator(const SimConfig& config)
    : config_(config),
      world_(config),
      tx_range_mi_(config.params.tx_range_m * kMilesPerMeter) {
  mobility_proto_ = MakeMobilityModel(config, world_.bounds());
  const int64_t hosts = mobility_proto_->num_hosts();
  caches_.reserve(static_cast<size_t>(hosts));
  for (int64_t i = 0; i < hosts; ++i) {
    caches_.emplace_back(config.params.csize, config.max_regions_per_host,
                         config.cache_policy);
  }
  snapshot_.resize(static_cast<size_t>(hosts));

  const double cell =
      std::max(tx_range_mi_, config.world_side_mi / 256.0);
  workers_.reserve(static_cast<size_t>(config.threads));
  for (int w = 0; w < config.threads; ++w) {
    workers_.emplace_back(*mobility_proto_, world_.bounds(), cell);
  }
  if (config.threads > 1) {
    pool_ = std::make_unique<ThreadPool>(config.threads);
  }
}

ParallelSimulator::~ParallelSimulator() = default;

void ParallelSimulator::SetObserver(obs::TraceSink* trace_sink,
                                    MetricsRegistry* registry) {
  trace_sink_ = trace_sink;
  registry_ = registry;
}

ParallelSimulator::EventResult ParallelSimulator::ExecuteEvent(
    Worker* worker, const QueryEvent& event, int64_t query_id) {
  // Advance every host in the worker's private fleet replica and refresh
  // its peer index. Each worker visits its events in time order, so its
  // replica only ever moves forward.
  const int64_t hosts = worker->mobility->num_hosts();
  for (int64_t i = 0; i < hosts; ++i) {
    worker->positions[static_cast<size_t>(i)] =
        worker->mobility->Position(i, event.time_min);
  }
  worker->peer_index.ApplyMoves(worker->positions);

  const geom::Point pos = worker->positions[static_cast<size_t>(event.host)];
  std::vector<core::PeerData> peers;
  EventResult result;
  result.peer_count = GatherPeers(
      worker->peer_index, worker->positions, event.host, tx_range_mi_,
      config_.p2p_hops,
      [this](int64_t id) { return snapshot_[static_cast<size_t>(id)]; },
      &peers);
  // The pinned epoch is immutable while workers run, so this decision
  // depends only on the region's epoch tag and the update log — never the
  // thread count.
  const dynamic::RevalidationStats revalidation =
      world_.RevalidatePeers(&peers);
  result.regions_revalidated = revalidation.revalidated;
  result.regions_stale_rejected = revalidation.rejected;
  result.measured = event.time_min >= config_.warmup_min;

  // Record into the event's private slot; the fold serializes in event
  // order, so the trace bytes match the sequential engine's exactly.
  obs::TraceRecorder* trace = nullptr;
  if (result.measured && trace_sink_ != nullptr) {
    result.trace.Reset(query_id, event.host,
                       event.type == QueryType::kKnn ? "knn" : "window");
    result.traced = true;
    trace = &result.trace;
  }

  const int64_t slot = static_cast<int64_t>(
      event.time_min * config_.slots_per_second * 60.0);
  core::PeerCache& cache = caches_[static_cast<size_t>(event.host)];
  if (event.type == QueryType::kKnn) {
    KnnQueryResult knn =
        ExecuteKnnQuery(config_, world_.current(), pos, event.k, slot,
                        std::move(peers), result.measured, query_id, trace,
                        worker->workspace);
    cache.Insert(std::move(knn.outcome.cacheable), pos, pos,
                 worker->mobility->Heading(event.host));
    if (config_.check_cache_invariant) world_.CheckCacheInvariant(cache);
    result.knn = std::move(knn);
  } else {
    WindowQueryResult window =
        ExecuteWindowQuery(config_, world_.current(), event.window, slot,
                           std::move(peers), result.measured, query_id,
                           trace, worker->workspace);
    cache.Insert(std::move(window.outcome.cacheable), event.window.center(),
                 pos, worker->mobility->Heading(event.host));
    if (config_.check_cache_invariant) world_.CheckCacheInvariant(cache);
    result.window = std::move(window);
  }
  return result;
}

SimMetrics ParallelSimulator::Execute(const std::vector<QueryEvent>& events) {
  SimMetrics metrics;
  const int64_t hosts = mobility_proto_->num_hosts();
  const size_t epoch = static_cast<size_t>(config_.events_per_epoch);
  const int64_t workers = static_cast<int64_t>(workers_.size());
  std::vector<EventResult> results;

  for (size_t begin = 0; begin < events.size();) {
    size_t end = std::min(events.size(), begin + epoch);
    if (config_.updates.enabled()) {
      // Cut chunks at update boundaries — boundaries depend only on the
      // config, so chunking (and therefore every snapshot) is identical at
      // any thread count — and apply the batch due at this boundary.
      const size_t interval =
          static_cast<size_t>(config_.updates.interval_events);
      end = std::min(end, (begin / interval + 1) * interval);
      world_.MaybeApplyUpdates(begin, events[begin].time_min, &metrics);
    }

    // Epoch barrier: freeze every host's shareable data. Workers read the
    // snapshot lock-free for the rest of the epoch.
    for (int64_t h = 0; h < hosts; ++h) {
      snapshot_[static_cast<size_t>(h)] =
          caches_[static_cast<size_t>(h)].Share();
    }

    results.assign(end - begin, EventResult{});
    const auto run_worker = [&](int w) {
      Worker& worker = workers_[static_cast<size_t>(w)];
      for (size_t i = begin; i < end; ++i) {
        const QueryEvent& event = events[i];
        // Shard by querying host so each cache has exactly one writer, and
        // receives its inserts in event order no matter the thread count.
        if (event.host % workers != w) continue;
        results[i - begin] =
            ExecuteEvent(&worker, event, static_cast<int64_t>(i));
      }
    };
    if (pool_) {
      pool_->RunOnAll(run_worker);
    } else {
      run_worker(0);
    }

    // Fold per-event results in global event order on this thread. Every
    // accumulator — SimMetrics, the registry, and the trace sink — sees
    // the exact sequence the sequential engine would produce, so the
    // result is bitwise independent of the thread count.
    for (const EventResult& result : results) {
      if (!result.measured) continue;
      metrics.regions_revalidated += result.regions_revalidated;
      metrics.regions_stale_rejected += result.regions_stale_rejected;
      metrics.peers_per_query.Add(result.peer_count);
      if (registry_ != nullptr) {
        registry_->Observe("peers_per_query",
                           static_cast<double>(result.peer_count));
      }
      if (result.knn) AccumulateKnn(*result.knn, &metrics, registry_);
      if (result.window) AccumulateWindow(*result.window, &metrics, registry_);
      if (result.traced && trace_sink_ != nullptr) {
        trace_sink_->Append(result.trace);
      }
    }
    begin = end;
  }
  return metrics;
}

SimMetrics ParallelSimulator::Run() {
  trace_.clear();
  std::vector<QueryEvent> events = GenerateWorkload(config_, world_.bounds());
  SimMetrics metrics = Execute(events);
  if (config_.record_trace) trace_ = std::move(events);
  return metrics;
}

SimMetrics ParallelSimulator::Replay(const std::vector<QueryEvent>& events) {
  // Update batches are keyed by event index; replaying a dynamic run on an
  // already-advanced world cannot reproduce the recording.
  LBSQ_CHECK(world_.versions().latest_epoch() == 0);
  for (const QueryEvent& event : events) {
    LBSQ_CHECK(event.host >= 0 &&
               event.host < mobility_proto_->num_hosts());
  }
  return Execute(events);
}

}  // namespace lbsq::sim
