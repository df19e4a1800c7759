#include "sim/simulator.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "sim/query_exec.h"
#include "sim/workload.h"

namespace lbsq::sim {

Simulator::Simulator(const SimConfig& config)
    : config_(config),
      world_(config),
      peer_index_(world_.bounds(),
                  std::max(config.params.tx_range_m * kMilesPerMeter,
                           config.world_side_mi / 256.0)),
      tx_range_mi_(config.params.tx_range_m * kMilesPerMeter) {
  mobility_ = MakeMobilityModel(config, world_.bounds());
  const int64_t hosts = mobility_->num_hosts();
  caches_.reserve(static_cast<size_t>(hosts));
  for (int64_t i = 0; i < hosts; ++i) {
    caches_.emplace_back(config.params.csize, config.max_regions_per_host,
                         config.cache_policy);
  }
  positions_.resize(static_cast<size_t>(hosts));
}

void Simulator::SetObserver(obs::TraceSink* trace_sink,
                            MetricsRegistry* registry) {
  trace_sink_ = trace_sink;
  registry_ = registry;
}

void Simulator::ExecuteEvent(const QueryEvent& event, int64_t query_id,
                             SimMetrics* metrics) {
  const int64_t hosts = mobility_->num_hosts();
  // Advance every host and patch the peer index (a full Rebuild only on the
  // first event; afterwards most hosts stay in their grid cell between
  // events). O(hosts) per query event; positions between events are
  // irrelevant to the metrics.
  for (int64_t i = 0; i < hosts; ++i) {
    positions_[static_cast<size_t>(i)] = mobility_->Position(i, event.time_min);
  }
  peer_index_.ApplyMoves(positions_);

  const geom::Point pos = positions_[static_cast<size_t>(event.host)];
  std::vector<core::PeerData> peers;
  const int peer_count = GatherPeers(
      peer_index_, positions_, event.host, tx_range_mi_, config_.p2p_hops,
      [this](int64_t id) { return caches_[static_cast<size_t>(id)].Share(); },
      &peers);
  const dynamic::RevalidationStats revalidation =
      world_.RevalidatePeers(&peers);
  const bool measured = event.time_min >= config_.warmup_min;
  if (measured) {
    metrics->regions_revalidated += revalidation.revalidated;
    metrics->regions_stale_rejected += revalidation.rejected;
    metrics->peers_per_query.Add(peer_count);
    if (registry_ != nullptr) {
      registry_->Observe("peers_per_query", static_cast<double>(peer_count));
    }
  }

  // Record a trace only for measured queries that someone will read;
  // unmeasured (warm-up) queries never reach the sink, so recording them
  // would only cost time.
  obs::TraceRecorder* trace = nullptr;
  if (measured && trace_sink_ != nullptr) {
    recorder_.Reset(query_id, event.host, event.type == QueryType::kKnn
                                              ? "knn"
                                              : "window");
    trace = &recorder_;
  }

  const int64_t slot = static_cast<int64_t>(
      event.time_min * config_.slots_per_second * 60.0);
  core::PeerCache& cache = caches_[static_cast<size_t>(event.host)];
  if (event.type == QueryType::kKnn) {
    KnnQueryResult result =
        ExecuteKnnQuery(config_, world_.current(), pos, event.k, slot,
                        std::move(peers), measured, query_id, trace,
                        workspace_);
    cache.Insert(std::move(result.outcome.cacheable), pos, pos,
                 mobility_->Heading(event.host));
    if (config_.check_cache_invariant) world_.CheckCacheInvariant(cache);
    if (measured) AccumulateKnn(result, metrics, registry_);
  } else {
    WindowQueryResult result =
        ExecuteWindowQuery(config_, world_.current(), event.window, slot,
                           std::move(peers), measured, query_id, trace,
                           workspace_);
    cache.Insert(std::move(result.outcome.cacheable), event.window.center(),
                 pos, mobility_->Heading(event.host));
    if (config_.check_cache_invariant) world_.CheckCacheInvariant(cache);
    if (measured) AccumulateWindow(result, metrics, registry_);
  }
  if (trace != nullptr) trace_sink_->Append(*trace);
}

SimMetrics Simulator::Run() {
  trace_.clear();
  std::vector<QueryEvent> events = GenerateWorkload(config_, world_.bounds());
  SimMetrics metrics;
  for (size_t i = 0; i < events.size(); ++i) {
    world_.MaybeApplyUpdates(i, events[i].time_min, &metrics);
    ExecuteEvent(events[i], static_cast<int64_t>(i), &metrics);
  }
  if (config_.record_trace) trace_ = std::move(events);
  return metrics;
}

SimMetrics Simulator::Replay(const std::vector<QueryEvent>& events) {
  // Update batches are keyed by event index; replaying a dynamic run on an
  // already-advanced world cannot reproduce the recording.
  LBSQ_CHECK(world_.versions().latest_epoch() == 0);
  SimMetrics metrics;
  for (size_t i = 0; i < events.size(); ++i) {
    LBSQ_CHECK(events[i].host >= 0 && events[i].host < mobility_->num_hosts());
    world_.MaybeApplyUpdates(i, events[i].time_min, &metrics);
    ExecuteEvent(events[i], static_cast<int64_t>(i), &metrics);
  }
  return metrics;
}

}  // namespace lbsq::sim
