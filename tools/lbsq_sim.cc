// lbsq_sim — command-line driver for the end-to-end simulator.
//
// Runs one simulation with the paper's parameter sets and prints the
// resolved-by breakdown plus the latency/tuning accounting. Every knob of
// sim::SimConfig is reachable from the command line; defaults reproduce the
// Los Angeles City kNN setup at bench scale.
//
// Examples:
//   lbsq_sim                                      # LA City, kNN, defaults
//   lbsq_sim --params=riverside --tx=100          # sparse set, 100 m radios
//   lbsq_sim --query=window --paper-window-geometry
//   lbsq_sim --mobility=manhattan --hops=2 --seed=9
//   lbsq_sim --threads=8                          # parallel engine, 8 workers
//
// --threads selects the epoch-based parallel engine, which is bitwise
// deterministic across thread counts: --threads=8 prints exactly the
// numbers --threads=1 does, only faster.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/metrics_registry.h"
#include "common/observability.h"
#include "sim/config.h"
#include "sim/dataset.h"
#include "sim/parallel_simulator.h"
#include "sim/simulator.h"

namespace {

using namespace lbsq;

/// Distributions the simulation can record (--hist accepts any subset).
constexpr const char* kKnownHistograms[] = {
    "access_latency", "tuning_time",       "access_latency_all",
    "buckets_read",   "buckets_skipped",   "baseline_latency",
    "residual_fraction", "peers_per_query",
};

/// Splits a comma-separated --hist value into names, rejecting unknowns.
bool ParseHistogramList(const std::string& value,
                        std::vector<std::string>* names) {
  size_t begin = 0;
  while (begin <= value.size()) {
    size_t end = value.find(',', begin);
    if (end == std::string::npos) end = value.size();
    const std::string name = value.substr(begin, end - begin);
    if (!name.empty()) {
      bool known = false;
      for (const char* candidate : kKnownHistograms) {
        if (name == candidate) known = true;
      }
      if (!known) {
        std::fprintf(stderr, "unknown histogram '%s'; known names:",
                     name.c_str());
        for (const char* candidate : kKnownHistograms) {
          std::fprintf(stderr, " %s", candidate);
        }
        std::fprintf(stderr, "\n");
        return false;
      }
      names->push_back(name);
    }
    begin = end + 1;
  }
  return true;
}

/// Registers `name` with a bucket range sized from the broadcast cycle
/// (latency-like metrics live in [0, cycle]; fractions in [0, 1]).
void RegisterHistogram(MetricsRegistry* registry, const std::string& name,
                       int64_t cycle_length) {
  const double cycle = static_cast<double>(cycle_length);
  if (name == "residual_fraction") {
    registry->AddHistogram(name, 0.0, 1.0, 50);
  } else if (name == "peers_per_query") {
    registry->AddHistogram(name, 0.0, 256.0, 64);
  } else if (name == "access_latency" || name == "access_latency_all" ||
             name == "baseline_latency") {
    // Access latency can exceed one cycle (miss the index, wait for the
    // next); anything beyond two lands in the overflow bucket.
    registry->AddHistogram(name, 0.0, 2.0 * cycle, 64);
  } else {
    registry->AddHistogram(name, 0.0, cycle, 64);
  }
}

bool WriteTextFile(const std::string& path, const std::string& content) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) return false;
  const size_t written = std::fwrite(content.data(), 1, content.size(), file);
  const bool closed = std::fclose(file) == 0;
  return written == content.size() && closed;
}

void PrintUsage() {
  std::printf(
      "usage: lbsq_sim [options]\n"
      "dataset flags (shared with lbsq_server / lbsq_store_build):\n"
      "%s"
      "other options:\n"
      "  --query=knn|window               query type (knn)\n"
      "  --warmup=<min> --duration=<min>  run lengths (45 / 30)\n"
      "  --mobility=waypoint|manhattan    mobility model (waypoint)\n",
      sim::DatasetFlagsHelp());
  std::printf(
      "  --hops=<n>                       peer-discovery hops (1)\n"
      "  --policy=sound|collective        cache overflow policy (sound)\n"
      "  --paper-window-geometry          hold the paper's absolute window\n"
      "                                   geometry in scaled worlds\n"
      "  --no-approximate                 reject approximate kNN answers\n"
      "  --index=flat|tree                air-index organization (flat)\n"
      "  --check                          oracle-check every answer (slow)\n"
      "  --save-trace=<path>              record the workload to a file\n"
      "  --replay-trace=<path>            replay a recorded workload\n"
      "  --trace=<path>                   write per-query span/counter\n"
      "                                   events as JSONL (byte-identical\n"
      "                                   at every thread count)\n"
      "  --metrics=<path>                 write run metrics; .csv suffix\n"
      "                                   selects CSV, anything else JSON\n"
      "  --hist=<name,...>                distributions to record\n"
      "                                   (access_latency,tuning_time)\n"
      "  --threads=<n>                    worker threads; any n > 1 selects\n"
      "                                   the parallel engine, whose metrics\n"
      "                                   are bitwise identical at every n\n"
      "  --epoch=<events>                 events per parallel epoch (32);\n"
      "                                   1 = sequential-engine semantics\n"
      "fault injection (all off by default; off = byte-identical output):\n"
      "  --fault-loss=<p>                 iid reception loss probability\n"
      "  --fault-burst-loss=<p>           Gilbert-Elliott bad-state loss\n"
      "                                   probability (selects burst model)\n"
      "  --fault-burst-len=<slots>        mean burst length (10)\n"
      "  --fault-burst-frac=<f>           long-run fraction of slots spent\n"
      "                                   in the bad state (0.1)\n"
      "  --fault-corrupt=<p>              CRC-detected corruption probability\n"
      "  --fault-retries=<n>              per-bucket retry budget (32)\n"
      "  --fault-deadline=<slots>         per-query deadline (0 = unlimited)\n"
      "  --fault-peer-stale=<p>           stale shared-region probability\n"
      "  --fault-peer-truncate=<p>        truncated shared-region probability\n"
      "  --fault-peer-flip=<p>            coordinate-flip probability\n"
      "  --fault-screen                   cross-check and reject inconsistent\n"
      "                                   peer regions before each query\n"
      "  --fault-seed=<n>                 fault stream seed (1)\n"
      "\n"
      "dynamic world (off by default; off = byte-identical output):\n"
      "  --update-interval-events=<n>     apply a POI update batch every n\n"
      "                                   query events (0 = static world)\n"
      "  --update-inserts=<n>             POI inserts per batch (2)\n"
      "  --update-deletes=<n>             POI deletes per batch (1)\n"
      "  --update-moves=<n>               POI moves per batch (2)\n"
      "  --update-move-radius=<mi>        max per-axis move distance (0.25)\n"
      "  --update-full-rebuild            publish epochs via cold full\n"
      "                                   rebuilds instead of the diff-aware\n"
      "                                   incremental patch (reference side\n"
      "                                   of the incremental-vs-full diff)\n");
}

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0) return false;
  if (arg[len] == '\0') {
    *value = "";
    return true;
  }
  if (arg[len] == '=') {
    *value = arg + len + 1;
    return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  sim::DatasetSpec spec;
  sim::SimConfig config;
  config.warmup_min = 45.0;
  config.duration_min = 30.0;
  std::string save_trace_path;
  std::string replay_trace_path;
  std::string trace_path;
  std::string metrics_path;
  std::string hist_value = "access_latency,tuning_time";
  bool burst = false;
  double burst_len = 10.0;
  double burst_frac = 0.1;

  for (int i = 1; i < argc; ++i) {
    std::string value;
    const char* arg = argv[i];
    std::string spec_error;
    switch (sim::ParseDatasetFlag(arg, &spec, &spec_error)) {
      case sim::DatasetFlagResult::kParsed:
        continue;
      case sim::DatasetFlagResult::kError:
        std::fprintf(stderr, "%s\n", spec_error.c_str());
        return 2;
      case sim::DatasetFlagResult::kNotDatasetFlag:
        break;
    }
    if (ParseFlag(arg, "--query", &value)) {
      if (value == "knn") {
        config.query_type = sim::QueryType::kKnn;
      } else if (value == "window") {
        config.query_type = sim::QueryType::kWindow;
      } else {
        std::fprintf(stderr, "unknown query type '%s'\n", value.c_str());
        return 2;
      }
    } else if (ParseFlag(arg, "--warmup", &value)) {
      config.warmup_min = std::atof(value.c_str());
    } else if (ParseFlag(arg, "--duration", &value)) {
      config.duration_min = std::atof(value.c_str());
    } else if (ParseFlag(arg, "--mobility", &value)) {
      if (value == "waypoint") {
        config.mobility = sim::MobilityType::kRandomWaypoint;
      } else if (value == "manhattan") {
        config.mobility = sim::MobilityType::kManhattanGrid;
      } else {
        std::fprintf(stderr, "unknown mobility model '%s'\n", value.c_str());
        return 2;
      }
    } else if (ParseFlag(arg, "--hops", &value)) {
      config.p2p_hops = std::atoi(value.c_str());
    } else if (ParseFlag(arg, "--policy", &value)) {
      if (value == "sound") {
        config.cache_policy = core::CachePolicy::kSoundShrink;
      } else if (value == "collective") {
        config.cache_policy = core::CachePolicy::kCollectiveMbr;
      } else {
        std::fprintf(stderr, "unknown cache policy '%s'\n", value.c_str());
        return 2;
      }
    } else if (ParseFlag(arg, "--paper-window-geometry", &value)) {
      config.paper_window_geometry = true;
    } else if (ParseFlag(arg, "--no-approximate", &value)) {
      config.accept_approximate = false;
    } else if (ParseFlag(arg, "--check", &value)) {
      config.check_answers = true;
      config.check_cache_invariant = true;
    } else if (ParseFlag(arg, "--index", &value)) {
      if (value == "flat") {
        config.broadcast.index_kind = broadcast::IndexKind::kFlat;
      } else if (value == "tree") {
        config.broadcast.index_kind = broadcast::IndexKind::kTree;
      } else {
        std::fprintf(stderr, "unknown index kind '%s'\n", value.c_str());
        return 2;
      }
    } else if (ParseFlag(arg, "--save-trace", &value)) {
      save_trace_path = value;
      config.record_trace = true;
    } else if (ParseFlag(arg, "--replay-trace", &value)) {
      replay_trace_path = value;
    } else if (ParseFlag(arg, "--trace", &value)) {
      trace_path = value;
    } else if (ParseFlag(arg, "--metrics", &value)) {
      metrics_path = value;
    } else if (ParseFlag(arg, "--hist", &value)) {
      hist_value = value;
    } else if (ParseFlag(arg, "--threads", &value)) {
      config.threads = std::atoi(value.c_str());
      if (config.threads < 1) {
        std::fprintf(stderr, "--threads must be >= 1\n");
        return 2;
      }
    } else if (ParseFlag(arg, "--epoch", &value)) {
      config.events_per_epoch = std::atoi(value.c_str());
      if (config.events_per_epoch < 1) {
        std::fprintf(stderr, "--epoch must be >= 1\n");
        return 2;
      }
    } else if (ParseFlag(arg, "--fault-loss", &value)) {
      config.fault.channel.model = fault::LossModel::kIid;
      config.fault.channel.loss_prob = std::atof(value.c_str());
    } else if (ParseFlag(arg, "--fault-burst-loss", &value)) {
      burst = true;
      config.fault.channel.loss_bad = std::atof(value.c_str());
    } else if (ParseFlag(arg, "--fault-burst-len", &value)) {
      burst = true;
      burst_len = std::atof(value.c_str());
    } else if (ParseFlag(arg, "--fault-burst-frac", &value)) {
      burst = true;
      burst_frac = std::atof(value.c_str());
    } else if (ParseFlag(arg, "--fault-corrupt", &value)) {
      config.fault.channel.corruption_prob = std::atof(value.c_str());
    } else if (ParseFlag(arg, "--fault-retries", &value)) {
      config.fault.policy.max_retries_per_bucket = std::atoi(value.c_str());
    } else if (ParseFlag(arg, "--fault-deadline", &value)) {
      config.fault.policy.deadline_slots = std::atoll(value.c_str());
    } else if (ParseFlag(arg, "--fault-peer-stale", &value)) {
      config.fault.peer.stale_prob = std::atof(value.c_str());
    } else if (ParseFlag(arg, "--fault-peer-truncate", &value)) {
      config.fault.peer.truncate_prob = std::atof(value.c_str());
    } else if (ParseFlag(arg, "--fault-peer-flip", &value)) {
      config.fault.peer.flip_prob = std::atof(value.c_str());
    } else if (ParseFlag(arg, "--fault-screen", &value)) {
      config.fault.screen_peers = true;
    } else if (ParseFlag(arg, "--fault-seed", &value)) {
      config.fault.seed = static_cast<uint64_t>(std::atoll(value.c_str()));
    } else if (ParseFlag(arg, "--update-interval-events", &value)) {
      config.updates.interval_events = std::atoi(value.c_str());
    } else if (ParseFlag(arg, "--update-inserts", &value)) {
      config.updates.inserts_per_batch = std::atoi(value.c_str());
    } else if (ParseFlag(arg, "--update-deletes", &value)) {
      config.updates.deletes_per_batch = std::atoi(value.c_str());
    } else if (ParseFlag(arg, "--update-moves", &value)) {
      config.updates.moves_per_batch = std::atoi(value.c_str());
    } else if (ParseFlag(arg, "--update-move-radius", &value)) {
      config.updates.move_radius_mi = std::atof(value.c_str());
    } else if (ParseFlag(arg, "--update-full-rebuild", &value)) {
      config.updates.force_full_rebuild = true;
    } else if (std::strcmp(arg, "--help") == 0 ||
               std::strcmp(arg, "-h") == 0) {
      PrintUsage();
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", arg);
      PrintUsage();
      return 2;
    }
  }

  spec.ApplyTo(&config);

  if (burst) {
    if (burst_len < 1.0 || burst_frac <= 0.0 || burst_frac >= 1.0) {
      std::fprintf(stderr,
                   "--fault-burst-len must be >= 1 and --fault-burst-frac "
                   "in (0, 1)\n");
      return 2;
    }
    config.fault.channel.model = fault::LossModel::kGilbertElliott;
    config.fault.channel.p_bad_to_good = 1.0 / burst_len;
    config.fault.channel.p_good_to_bad =
        burst_frac / (1.0 - burst_frac) / burst_len;
  }
  if (spec.shards > 1 && config.fault.enabled()) {
    std::fprintf(stderr,
                 "fault injection models one channel: --fault-* flags "
                 "require --shards=1\n");
    return 2;
  }

  sim::ParallelSimulator simulator(config);

  std::printf("parameter set : %s\n", config.params.name.c_str());
  std::printf("query type    : %s\n",
              config.query_type == sim::QueryType::kKnn ? "kNN" : "window");
  std::printf("world         : %.1f x %.1f mi (%lld hosts, %lld POIs, "
              "%.1f queries/min)\n",
              config.world_side_mi, config.world_side_mi,
              static_cast<long long>(config.ScaledMhCount()),
              static_cast<long long>(config.ScaledPoiCount()),
              config.ScaledQueriesPerMin());
  std::printf("tx range      : %.0f m; CSize %d; k %.0f; window %.0f%%\n",
              config.params.tx_range_m, config.params.csize,
              config.params.knn_k, config.params.window_pct);
  if (config.fault.enabled()) {
    std::printf(
        "faults        : %s loss=%.1f%% corrupt=%.1f%%; retries=%d "
        "deadline=%lld\n"
        "                peer stale/truncate/flip=%.0f%%/%.0f%%/%.0f%% "
        "screen=%s fault-seed=%llu\n",
        config.fault.channel.model == fault::LossModel::kGilbertElliott
            ? "burst"
            : "iid",
        config.fault.channel.SteadyStateLossRate() * 100.0,
        config.fault.channel.corruption_prob * 100.0,
        config.fault.policy.max_retries_per_bucket,
        static_cast<long long>(config.fault.policy.deadline_slots),
        config.fault.peer.stale_prob * 100.0,
        config.fault.peer.truncate_prob * 100.0,
        config.fault.peer.flip_prob * 100.0,
        config.fault.screen_peers ? "on" : "off",
        static_cast<unsigned long long>(config.fault.seed));
  }
  if (config.updates.enabled()) {
    std::printf(
        "updates       : batch every %d events "
        "(%d inserts, %d deletes, %d moves; move radius %.2f mi)\n",
        config.updates.interval_events, config.updates.inserts_per_batch,
        config.updates.deletes_per_batch, config.updates.moves_per_batch,
        config.updates.move_radius_mi);
  }
  const dynamic::ShardedWorld& versions = simulator.world().versions();
  if (versions.num_shards() > 1) {
    std::printf("shards        : %d Hilbert-range broadcast channels "
                "(latency = max, tuning = sum over queried channels)\n",
                versions.num_shards());
  }
  std::printf("engine        : %d thread%s, %d events/epoch "
              "(metrics independent of thread count)\n\n",
              config.threads, config.threads == 1 ? "" : "s",
              config.events_per_epoch);

  std::vector<std::string> hist_names;
  if (!ParseHistogramList(hist_value, &hist_names)) return 2;

  obs::TraceSink trace_sink;
  MetricsRegistry registry;
  if (!metrics_path.empty()) {
    const int64_t cycle = simulator.world().MaxCycleLength();
    for (const std::string& name : hist_names) {
      RegisterHistogram(&registry, name, cycle);
    }
  }
  if (!trace_path.empty() || !metrics_path.empty()) {
    simulator.SetObserver(trace_path.empty() ? nullptr : &trace_sink,
                          metrics_path.empty() ? nullptr : &registry);
  }

  sim::SimMetrics m;
  const auto start = std::chrono::steady_clock::now();
  if (!replay_trace_path.empty()) {
    std::vector<sim::QueryEvent> events;
    if (!sim::LoadTrace(replay_trace_path, &events)) {
      std::fprintf(stderr, "failed to load trace '%s'\n",
                   replay_trace_path.c_str());
      return 1;
    }
    std::printf("replaying %zu recorded events\n\n", events.size());
    m = simulator.Replay(events);
  } else {
    m = simulator.Run();
    if (!save_trace_path.empty()) {
      if (!sim::SaveTrace(save_trace_path, simulator.trace())) {
        std::fprintf(stderr, "failed to save trace '%s'\n",
                     save_trace_path.c_str());
        return 1;
      }
      std::printf("recorded %zu events to %s\n", simulator.trace().size(),
                  save_trace_path.c_str());
    }
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  std::printf("wall time               : %.2f s (%.0f queries/s)\n", seconds,
              seconds > 0.0 ? static_cast<double>(m.queries) / seconds : 0.0);
  std::printf("measured queries        : %lld\n",
              static_cast<long long>(m.queries));
  std::printf("resolved by sharing     : %.1f%% verified, %.1f%% approximate\n",
              m.PctVerified(), m.PctApproximate());
  std::printf("resolved by broadcast   : %.1f%%\n", m.PctBroadcast());
  std::printf("answer errors           : %.2f%%\n", m.PctAnswerErrors());
  std::printf("peers per query         : %.1f (avg)\n",
              m.peers_per_query.mean());
  std::printf("broadcast latency       : %.1f slots (avg over channel "
              "queries)\n", m.broadcast_latency.mean());
  std::printf("latency, all queries    : %.1f slots (peer hits count as 0)\n",
              m.MeanLatencyAllQueries());
  std::printf("pure on-air baseline    : %.1f slots\n",
              m.baseline_latency.mean());
  std::printf("broadcast tuning        : %.1f slots (avg)\n",
              m.broadcast_tuning.mean());
  std::printf("answer digest           : %016llx\n",
              static_cast<unsigned long long>(m.answer_digest));
  if (config.query_type == sim::QueryType::kWindow) {
    std::printf("residual window fraction: %.1f%%\n",
                m.residual_fraction.mean() * 100.0);
  }
  if (config.fault.enabled()) {
    std::printf("degraded queries        : %lld (%.2f%% of measured)\n",
                static_cast<long long>(m.degraded_queries),
                m.queries > 0 ? 100.0 * static_cast<double>(m.degraded_queries) /
                                    static_cast<double>(m.queries)
                              : 0.0);
    std::printf("channel losses          : %lld receptions\n",
                static_cast<long long>(m.fault_losses));
    std::printf("corrupted receptions    : %lld (CRC rejects)\n",
                static_cast<long long>(m.fault_corruptions));
    std::printf("deadline hits           : %lld queries\n",
                static_cast<long long>(m.fault_deadline_hits));
    std::printf("peer regions rejected   : %lld\n",
                static_cast<long long>(m.regions_rejected));
  }
  if (config.updates.enabled()) {
    std::printf("updates applied         : %lld (%lld epochs)\n",
                static_cast<long long>(m.updates_applied),
                static_cast<long long>(m.epochs_published));
    std::printf("peer regions revalidated: %lld (%lld rejected stale)\n",
                static_cast<long long>(m.regions_revalidated),
                static_cast<long long>(m.regions_stale_rejected));
    const dynamic::PublicationStats pub = versions.publication_stats();
    std::printf("epoch publication       : %lld incremental, %lld full "
                "fallbacks, %lld shard rebuilds\n",
                static_cast<long long>(pub.epochs_patched),
                static_cast<long long>(pub.full_rebuild_fallbacks),
                static_cast<long long>(pub.shards_rebuilt));
    std::printf("buckets patched/shared  : %lld / %lld\n",
                static_cast<long long>(pub.buckets_patched),
                static_cast<long long>(pub.buckets_shared));
    if (!metrics_path.empty()) pub.ExportTo(&registry);
  }

  if (!trace_path.empty()) {
    if (!trace_sink.WriteFile(trace_path)) {
      std::fprintf(stderr, "failed to write trace '%s'\n", trace_path.c_str());
      return 1;
    }
    std::printf("query trace             : %lld events -> %s\n",
                static_cast<long long>(trace_sink.event_count()),
                trace_path.c_str());
  }
  if (!metrics_path.empty()) {
    const bool csv =
        metrics_path.size() >= 4 &&
        metrics_path.compare(metrics_path.size() - 4, 4, ".csv") == 0;
    if (!WriteTextFile(metrics_path,
                       csv ? registry.ExportCsv() : registry.ExportJson())) {
      std::fprintf(stderr, "failed to write metrics '%s'\n",
                   metrics_path.c_str());
      return 1;
    }
    std::printf("metrics (%s)           : %s\n", csv ? "csv " : "json",
                metrics_path.c_str());
    for (const std::string& name : registry.HistogramNames()) {
      const Histogram* h = registry.FindHistogram(name);
      std::printf("  %-22s: n=%lld p50=%.1f p95=%.1f p99=%.1f max=%.1f\n",
                  name.c_str(), static_cast<long long>(h->total()), h->P50(),
                  h->P95(), h->P99(),
                  h->total() > 0 ? h->sample_max() : 0.0);
    }
  }
  return 0;
}
