#include "sim/query_exec.h"

#include <bit>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "fault/peer_faults.h"
#include "onair/onair_knn.h"
#include "onair/onair_window.h"
#include "spatial/generators.h"

namespace lbsq::sim {

namespace {

// Applies the configured peer-data corruption on the querier's copy of the
// gathered peer data, drawing from the query's own fault stream.
void MaybeCorruptPeers(const fault::FaultConfig& fault, int64_t query_id,
                       std::vector<core::PeerData>* peers) {
  if (!fault.enabled() || !fault.peer.enabled()) return;
  Rng rng(fault::PeerStreamSeed(fault.seed, static_cast<uint64_t>(query_id)));
  fault::CorruptPeerData(fault.peer, &rng, peers);
}

// The kind-independent tail of the SimMetrics update (baselines, fault and
// screening bookkeeping), in the canonical order — called after the
// kind-specific accumulators so the overall update sequence is unchanged.
void AccumulateCommonMetrics(const core::QueryResultCommon& common,
                             int64_t baseline_latency, int64_t baseline_tuning,
                             int64_t regions_rejected, SimMetrics* metrics) {
  metrics->baseline_latency.Add(static_cast<double>(baseline_latency));
  metrics->baseline_tuning.Add(static_cast<double>(baseline_tuning));
  if (common.degraded) ++metrics->degraded_queries;
  metrics->fault_losses += common.fault_losses;
  metrics->fault_corruptions += common.fault_corruptions;
  if (common.fault_deadline_hit) ++metrics->fault_deadline_hits;
  metrics->regions_rejected += regions_rejected;
}

// Registry counterpart of AccumulateCommonMetrics. Fault counters only
// materialize on fault activity, so the registry's exported metrics stay
// identical when injection is disabled.
void AccumulateCommonRegistry(const core::QueryResultCommon& common,
                              int64_t baseline_latency,
                              int64_t regions_rejected,
                              MetricsRegistry* registry) {
  registry->Observe("baseline_latency",
                    static_cast<double>(baseline_latency));
  if (common.degraded) registry->IncrementCounter("degraded_queries");
  if (common.fault_losses > 0) {
    registry->IncrementCounter("fault_losses", common.fault_losses);
  }
  if (common.fault_corruptions > 0) {
    registry->IncrementCounter("fault_corruptions", common.fault_corruptions);
  }
  if (common.fault_deadline_hit) {
    registry->IncrementCounter("fault_deadline_hits");
  }
  if (regions_rejected > 0) {
    registry->IncrementCounter("regions_rejected", regions_rejected);
  }
}

// Runs `request` (peers bound by the caller) on the epoch's engine and
// stamps the outcome's cacheable with the pinned global epoch.
core::QueryOutcome ExecuteOnEpoch(const dynamic::ShardedEpoch& epoch,
                                  const core::QueryRequest& request,
                                  core::ShardedQueryWorkspace& workspace) {
  core::QueryOutcome executed;
  epoch.engine->Execute(request, workspace, &executed);
  executed.Cacheable().epoch = epoch.id;
  return executed;
}

// The baseline's peerless re-execution at N > 1 (see ExecuteKnnQuery).
core::QueryOutcome ExecutePeerless(const core::ShardedQueryEngine& engine,
                                   core::QueryRequest request,
                                   core::ShardedQueryWorkspace& workspace) {
  request.peers = {};
  request.trace = nullptr;
  core::QueryOutcome priced;
  engine.Execute(request, workspace, &priced);
  return priced;
}

}  // namespace

core::EngineOptions EngineOptionsFromConfig(const SimConfig& config) {
  core::EngineOptions options;
  options.sbnn.k = std::max(1, static_cast<int>(config.params.knn_k));
  options.sbnn.accept_approximate = config.accept_approximate;
  options.sbnn.min_correctness = config.min_correctness;
  options.sbnn.use_filtering = config.use_filtering;
  options.sbnn.tighten_with_index_bound = config.tighten_with_index_bound;
  options.sbnn.prefetch_radius_factor = config.prefetch_radius_factor;
  options.sbwq.retrieval = config.retrieval;
  options.sbwq.use_window_reduction = config.use_window_reduction;
  options.fault = config.fault;
  return options;
}

KnnQueryResult ExecuteKnnQuery(const SimConfig& config,
                               const dynamic::ShardedEpoch& epoch,
                               geom::Point pos, int k, int64_t slot,
                               std::vector<core::PeerData> peers, bool measured,
                               int64_t query_id, obs::TraceRecorder* trace,
                               core::ShardedQueryWorkspace& workspace) {
  const core::ShardedQueryEngine& engine = *epoch.engine;
  const int k_eff = k > 0 ? k : engine.options().sbnn.k;
  MaybeCorruptPeers(config.fault, query_id, &peers);

  core::QueryRequest request;
  request.kind = core::QueryKind::kKnn;
  request.position = pos;
  request.k = k_eff;
  request.slot = slot;
  // `peers` (taken by value) backs the request's span for the duration of
  // the Execute call.
  request.peers = peers;
  request.trace = trace;
  request.fault_stream = static_cast<uint64_t>(query_id);

  KnnQueryResult result;
  core::QueryOutcome executed = ExecuteOnEpoch(epoch, request, workspace);
  result.outcome = std::move(*executed.knn);
  result.regions_rejected = executed.regions_rejected;

  // Correctness accounting against the brute-force oracle (every query).
  std::vector<spatial::PoiDistance> truth;
  spatial::BruteForceKnn(epoch.pois, pos, k_eff, &truth);
  bool exact = truth.size() == result.outcome.neighbors.size();
  for (size_t i = 0; exact && i < truth.size(); ++i) {
    // Compare distances (ids can differ under exact ties).
    exact = std::abs(truth[i].distance -
                     result.outcome.neighbors[i].distance) < 1e-9;
  }
  result.exact = exact;
  if (result.outcome.resolved_by != core::ResolvedBy::kPeersApproximate &&
      config.check_answers && !config.fault.enabled()) {
    LBSQ_CHECK(exact);
  }

  if (measured) {
    // What the pure on-air baseline would have cost for this query.
    if (engine.num_shards() == 1) {
      const onair::OnAirKnnResult baseline =
          onair::OnAirKnn(*engine.shard_system(0), pos, k_eff, slot);
      result.baseline_latency = baseline.stats.access_latency;
      result.baseline_tuning = baseline.stats.tuning_time;
    } else {
      const core::QueryOutcome priced =
          ExecutePeerless(engine, request, workspace);
      result.baseline_latency = priced.knn->stats.access_latency;
      result.baseline_tuning = priced.knn->stats.tuning_time;
    }
  }
  return result;
}

WindowQueryResult ExecuteWindowQuery(const SimConfig& config,
                                     const dynamic::ShardedEpoch& epoch,
                                     const geom::Rect& window, int64_t slot,
                                     std::vector<core::PeerData> peers,
                                     bool measured, int64_t query_id,
                                     obs::TraceRecorder* trace,
                                     core::ShardedQueryWorkspace& workspace) {
  const core::ShardedQueryEngine& engine = *epoch.engine;
  MaybeCorruptPeers(config.fault, query_id, &peers);

  core::QueryRequest request;
  request.kind = core::QueryKind::kWindow;
  request.window = window;
  request.slot = slot;
  request.peers = peers;
  request.trace = trace;
  request.fault_stream = static_cast<uint64_t>(query_id);

  WindowQueryResult result;
  core::QueryOutcome executed = ExecuteOnEpoch(epoch, request, workspace);
  result.outcome = std::move(*executed.window);
  result.regions_rejected = executed.regions_rejected;

  // Correctness accounting against the brute-force oracle (every query).
  const std::vector<spatial::Poi> truth =
      spatial::BruteForceWindow(epoch.pois, window);
  result.exact = truth == result.outcome.pois;
  if (config.check_answers && !config.fault.enabled()) {
    LBSQ_CHECK(result.exact);
  }

  if (measured) {
    if (engine.num_shards() == 1) {
      const onair::OnAirWindowResult baseline = onair::OnAirWindow(
          *engine.shard_system(0), window, slot, config.retrieval);
      result.baseline_latency = baseline.stats.access_latency;
      result.baseline_tuning = baseline.stats.tuning_time;
    } else {
      const core::QueryOutcome priced =
          ExecutePeerless(engine, request, workspace);
      result.baseline_latency = priced.window->stats.access_latency;
      result.baseline_tuning = priced.window->stats.tuning_time;
    }
  }
  return result;
}

void AccumulateKnn(const KnnQueryResult& result, SimMetrics* metrics,
                   MetricsRegistry* registry) {
  const core::SbnnOutcome& outcome = result.outcome;
  ++metrics->queries;
  // Answer digest: ids + distance bit patterns in the canonical sorted
  // answer order, terminated by the answer size (so adjacent answers cannot
  // alias). Folded here — in event order — it witnesses shard-count
  // invariance of the answer plane.
  uint64_t digest = metrics->answer_digest;
  for (const spatial::PoiDistance& n : outcome.neighbors) {
    digest = DigestFold(digest, static_cast<uint64_t>(n.poi.id));
    digest = DigestFold(digest, std::bit_cast<uint64_t>(n.distance));
  }
  metrics->answer_digest =
      DigestFold(digest, static_cast<uint64_t>(outcome.neighbors.size()));
  metrics->verified_per_query.Add(outcome.nnv.heap.verified_count());
  if (outcome.resolved_by == core::ResolvedBy::kPeersApproximate) {
    if (result.exact) ++metrics->approx_exact;
  } else if (!result.exact && !outcome.degraded) {
    // Degraded queries are best-effort by contract; counting them as answer
    // errors would conflate channel failures with soundness bugs.
    ++metrics->answer_errors;
  }
  switch (outcome.resolved_by) {
    case core::ResolvedBy::kPeersVerified:
      ++metrics->solved_verified;
      break;
    case core::ResolvedBy::kPeersApproximate:
      ++metrics->solved_approximate;
      break;
    case core::ResolvedBy::kBroadcast:
      ++metrics->solved_broadcast;
      metrics->broadcast_latency.Add(
          static_cast<double>(outcome.stats.access_latency));
      metrics->broadcast_tuning.Add(
          static_cast<double>(outcome.stats.tuning_time));
      metrics->buckets_read.Add(
          static_cast<double>(outcome.stats.buckets_read));
      metrics->buckets_skipped.Add(
          static_cast<double>(outcome.buckets_skipped));
      break;
  }
  AccumulateCommonMetrics(outcome, result.baseline_latency,
                          result.baseline_tuning, result.regions_rejected,
                          metrics);

  if (registry != nullptr) {
    registry->IncrementCounter("queries");
    const bool broadcast =
        outcome.resolved_by == core::ResolvedBy::kBroadcast;
    registry->IncrementCounter(
        outcome.resolved_by == core::ResolvedBy::kPeersVerified
            ? "solved_verified"
            : outcome.resolved_by == core::ResolvedBy::kPeersApproximate
                  ? "solved_approximate"
                  : "solved_broadcast");
    if (broadcast) {
      registry->Observe("access_latency",
                        static_cast<double>(outcome.stats.access_latency));
      registry->Observe("tuning_time",
                        static_cast<double>(outcome.stats.tuning_time));
      registry->Observe("buckets_read",
                        static_cast<double>(outcome.stats.buckets_read));
      registry->Observe("buckets_skipped",
                        static_cast<double>(outcome.buckets_skipped));
    }
    // Peer hits count as zero-latency — the distribution behind the paper's
    // headline mean (MeanLatencyAllQueries).
    registry->Observe(
        "access_latency_all",
        broadcast ? static_cast<double>(outcome.stats.access_latency) : 0.0);
    AccumulateCommonRegistry(outcome, result.baseline_latency,
                             result.regions_rejected, registry);
  }
}

void AccumulateWindow(const WindowQueryResult& result, SimMetrics* metrics,
                      MetricsRegistry* registry) {
  const core::SbwqOutcome& outcome = result.outcome;
  ++metrics->queries;
  // See AccumulateKnn — window answers are id sets in canonical id order.
  uint64_t digest = metrics->answer_digest;
  for (const spatial::Poi& p : outcome.pois) {
    digest = DigestFold(digest, static_cast<uint64_t>(p.id));
  }
  metrics->answer_digest =
      DigestFold(digest, static_cast<uint64_t>(outcome.pois.size()));
  if (!result.exact && !outcome.degraded) ++metrics->answer_errors;
  metrics->residual_fraction.Add(outcome.residual_fraction);
  if (outcome.resolved_by_peers) {
    ++metrics->solved_verified;
  } else {
    ++metrics->solved_broadcast;
    metrics->broadcast_latency.Add(
        static_cast<double>(outcome.stats.access_latency));
    metrics->broadcast_tuning.Add(
        static_cast<double>(outcome.stats.tuning_time));
    metrics->buckets_read.Add(static_cast<double>(outcome.stats.buckets_read));
  }
  AccumulateCommonMetrics(outcome, result.baseline_latency,
                          result.baseline_tuning, result.regions_rejected,
                          metrics);

  if (registry != nullptr) {
    registry->IncrementCounter("queries");
    registry->IncrementCounter(outcome.resolved_by_peers ? "solved_verified"
                                                         : "solved_broadcast");
    registry->Observe("residual_fraction", outcome.residual_fraction);
    if (!outcome.resolved_by_peers) {
      registry->Observe("access_latency",
                        static_cast<double>(outcome.stats.access_latency));
      registry->Observe("tuning_time",
                        static_cast<double>(outcome.stats.tuning_time));
      registry->Observe("buckets_read",
                        static_cast<double>(outcome.stats.buckets_read));
    }
    registry->Observe(
        "access_latency_all",
        outcome.resolved_by_peers
            ? 0.0
            : static_cast<double>(outcome.stats.access_latency));
    AccumulateCommonRegistry(outcome, result.baseline_latency,
                             result.regions_rejected, registry);
  }
}

int GatherPeers(const spatial::GridIndex& peer_index,
                const std::vector<geom::Point>& positions, int64_t querier,
                double tx_range, int hops,
                const std::function<core::PeerData(int64_t)>& share,
                std::vector<core::PeerData>* out) {
  std::vector<bool> visited(positions.size(), false);
  visited[static_cast<size_t>(querier)] = true;
  std::vector<int64_t> frontier = {querier};
  std::vector<int64_t> reached;
  std::vector<int64_t> scratch;
  for (int hop = 0; hop < hops && !frontier.empty(); ++hop) {
    std::vector<int64_t> next;
    for (int64_t node : frontier) {
      scratch.clear();
      peer_index.QueryDisc(positions[static_cast<size_t>(node)], tx_range,
                           &scratch);
      for (int64_t id : scratch) {
        if (visited[static_cast<size_t>(id)]) continue;
        visited[static_cast<size_t>(id)] = true;
        next.push_back(id);
        reached.push_back(id);
      }
    }
    frontier.swap(next);
  }
  for (int64_t id : reached) {
    core::PeerData data = share(id);
    if (!data.empty()) out->push_back(std::move(data));
  }
  return static_cast<int>(reached.size());
}

}  // namespace lbsq::sim
