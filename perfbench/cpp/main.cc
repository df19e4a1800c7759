// perfbench — the traffic-driven benchmark of the lbsq system.
//
//   perfbench --workload <metro_engine|churn_city> --seed <n>
//             --seconds <s> --trace <0|1> [--work-dir <dir>]
//
// Each workload builds its world and its request stream from the seed,
// measures for about `seconds`, checks every answer against an oracle
// independent of the engine (outside the timed region), prints every
// metric by name with its unit, and ends with one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics read
// from the recorded spans (--trace 1). Any wrong answer makes the run
// incorrect and the exit code 1. perfbench/README.md explains why each
// workload exists and which layer metric should move which end-to-end one.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "churn_leg.h"
#include "dynamic/sharded_world.h"
#include "probes.h"
#include "spatial/rtree.h"
#include "storage/system_builder.h"
#include "streams.h"
#include "trace.h"
#include "wire_leg.h"

namespace perfbench {
namespace {

const std::vector<std::string> kEndToEnd = {
    "setup_s",      "latency_p50_us",       "latency_p99_us",
    "qps",          "access_latency_slots", "tuning_slots",
    "peak_rss_mib",
};

const std::vector<std::string> kPerLayer = {
    "server.overhead_p50_us",
    "server.overhead_p99_us",
    "server.retry_after_per_query",
    "server.bytes_per_query",
    "server.frames_per_query",
    "protocol.encode_ns",
    "protocol.decode_ns",
    "generator.lag_p99_us",
    "core.execute_knn_p50_us",
    "core.execute_knn_p99_us",
    "core.execute_window_p50_us",
    "core.execute_window_p99_us",
    "core.shards_touched_per_query",
    "core.peer_resolved_share",
    "core.memo_replay_speedup",
    "core.memo_first_pass_us",
    "core.memo_replay_pass_us",
    "hilbert.cover_p50_us",
    "hilbert.cover_p99_us",
    "hilbert.cover_cells_per_query",
    "hilbert.cover_ranges_per_query",
    "broadcast.collect_p50_us",
    "broadcast.collect_p99_us",
    "broadcast.buckets_read_per_query",
    "broadcast.build_s",
    "broadcast.buckets_patched_per_epoch",
    "broadcast.buckets_shared_per_epoch",
    "broadcast.full_rebuild_fallbacks",
    "dynamic.publish_p50_us",
    "dynamic.publish_p99_us",
    "dynamic.region_dirty_us",
    "dynamic.regions_rejected_per_query",
    "dynamic.epoch_lag",
    "storage.open_s",
    "storage.pool_hits",
    "storage.pool_misses",
    "storage.pool_evictions",
    "input.knn_share",
    "input.peer_share",
    "input.cover_repeat_share",
    "trace.overhead_share",
};

/// Buffer-pool pages of every store open (the serving default).
constexpr size_t kPoolPages = 1024;

/// The metro POI layout is one fixed city; --seed draws its request
/// stream. Where the 80 cluster centres fall against the Hilbert curve's
/// major boundaries decides how many kNN discs straddle them (and read a
/// span of thousands of buckets), which moves per-query cost by about 30%
/// from one layout to the next — a per-seed layout would measure that
/// lottery instead of the code.
constexpr uint64_t kMetroDataSeed = 1;

/// The churn world's set-up is timed in kSetupSamples samples of
/// kSetupBatch back-to-back constructions (a few milliseconds each); the
/// reported set-up time is the median sample's mean construction time.
constexpr int kSetupSamples = 15;
constexpr int kSetupBatch = 32;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_build/perfbench-run";
};

/// What a workload returns besides the metrics in the report.
struct Outcome {
  Tally tally;
  bool valid = true;
};

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

double Seconds(int64_t from_ns) {
  return static_cast<double>(NowNs() - from_ns) / 1e9;
}

Oracle BruteForceOracle(const std::vector<spatial::Poi>* pois) {
  return [pois](const core::QueryRequest& q) {
    if (q.kind == core::QueryKind::kKnn) {
      return KnnDigest(spatial::BruteForceKnn(*pois, q.position, q.k));
    }
    return WindowDigest(spatial::BruteForceWindow(*pois, q.window));
  };
}

Oracle RTreeOracle(const spatial::RTree* tree) {
  // RTree queries count node accesses in the tree itself, so concurrent
  // verification threads take turns.
  auto mu = std::make_shared<std::mutex>();
  return [tree, mu](const core::QueryRequest& q) {
    std::lock_guard<std::mutex> lock(*mu);
    if (q.kind == core::QueryKind::kKnn) {
      return KnnDigest(tree->KnnBestFirst(q.position, q.k));
    }
    return WindowDigest(tree->WindowQuery(q.window));
  };
}

double KnnShare(const std::vector<core::QueryRequest>& requests, size_t begin,
                size_t end) {
  size_t knn = 0;
  for (size_t i = begin; i < end; ++i) {
    knn += requests[i].kind == core::QueryKind::kKnn ? 1 : 0;
  }
  return static_cast<double>(knn) /
         static_cast<double>(std::max<size_t>(end - begin, 1));
}

/// A request prefix for the memo leg, all issued in one broadcast slot so
/// the replay pass finds the whole first pass memoized.
std::vector<core::QueryRequest> MemoPrefix(
    std::vector<core::QueryRequest> requests) {
  for (core::QueryRequest& r : requests) r.slot = requests.front().slot;
  return requests;
}

void ReportMemo(const MemoLeg& leg, Report* report) {
  report->Set("core.memo_first_pass_us", leg.first_pass_us, "us");
  report->Set("core.memo_replay_pass_us", leg.replay_pass_us, "us");
  report->Set("core.memo_replay_speedup",
              leg.first_pass_us / leg.replay_pass_us, "x");
  char line[128];
  std::snprintf(line, sizeof(line),
                "memo leg: %lld queries, first pass %.2f us/q, replay %.2f us/q",
                static_cast<long long>(leg.queries), leg.first_pass_us,
                leg.replay_pass_us);
  report->Note(line);
}

void ReportStore(const OpenedStore& opened, Report* report) {
  report->Set("storage.open_s", opened.open_s, "s");
  report->Set("storage.pool_hits", static_cast<double>(opened.pool_hits),
              "count");
  report->Set("storage.pool_misses", static_cast<double>(opened.pool_misses),
              "count");
  report->Set("storage.pool_evictions",
              static_cast<double>(opened.pool_evictions), "count");
}

/// The dynamic leg of a traced run on a workload without churn: a short
/// churn phase over a fresh ShardedWorld of the same data, so the dynamic
/// layer's numbers exist on every workload.
Tally RunDynamicLeg(const std::vector<spatial::Poi>& pois,
                    const geom::Rect& world,
                    const broadcast::BroadcastParams& params,
                    const core::EngineOptions& options, int shards,
                    const std::vector<core::QueryRequest>& stream,
                    size_t max_requests, uint64_t seed, Tracer* tracer,
                    Report* report) {
  core::EngineOptions exact = options;
  exact.sbnn.accept_approximate = false;
  dynamic::ShardedWorld sharded(pois, world, params, exact, shards);
  ChurnRunner runner(&sharded, pois, seed);
  ChurnPhaseConfig config;
  config.seconds = 1.0;
  config.max_requests = max_requests;
  size_t cursor = 0;
  const ChurnPhase phase = runner.Run(stream, &cursor, config, tracer);
  ReportChurnLayers(phase, sharded, *tracer, report);
  int64_t carried = 0;
  int64_t resolved = 0;
  for (const ChurnRecord& r : phase.records) {
    carried += r.carried_peers ? 1 : 0;
    resolved += r.carried_peers && r.resolved_by_peers ? 1 : 0;
  }
  report->Set("core.peer_resolved_share",
              static_cast<double>(resolved) /
                  static_cast<double>(std::max<int64_t>(carried, 1)),
              "share");
  return runner.Verify(stream, phase.records);
}

// ------------------------------------------------------------- metro_engine

struct MetroRecord {
  uint64_t index = 0;
  uint64_t digest = 0;
  double latency_us = 0.0;
  int64_t access_latency = 0;
  int64_t tuning_time = 0;
  int64_t buckets_read = 0;
};

/// Closed loop: `threads` threads, each with its own workspace, execute
/// stream requests [first, ...) — each exactly once — for `seconds`, and at
/// least until `min_index` is reached. When `rss_at_min_index` is given, it
/// receives the peak resident set once requests [first, min_index) are
/// done (read by the thread that fetches `min_index`).
std::vector<MetroRecord> MetroLoop(const core::ShardedQueryEngine& engine,
                                   const MetroWorld& metro,
                                   uint64_t stream_seed, uint64_t first,
                                   uint64_t min_index, double seconds,
                                   Tracer* tracer, ProbeCounts* probes,
                                   double* elapsed_s, uint64_t* end_index,
                                   double* rss_at_min_index = nullptr) {
  constexpr int kThreads = 2;
  std::atomic<uint64_t> next{first};
  const int64_t start = NowNs();
  const int64_t stop_at = start + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::vector<MetroRecord>> per_thread(kThreads);
  std::vector<ProbeCounts> counts(kThreads);
  std::vector<SpanBuffer*> buffers;
  for (int t = 0; t < kThreads; ++t) {
    buffers.push_back(tracer != nullptr ? tracer->NewBuffer() : nullptr);
  }
  auto worker = [&](int t) {
    SpanBuffer* spans = buffers[static_cast<size_t>(t)];
    LayerProbe probe(&engine);
    core::ShardedQueryWorkspace workspace;
    core::QueryOutcome outcome;
    std::vector<MetroRecord>& out = per_thread[static_cast<size_t>(t)];
    for (;;) {
      const uint64_t i = next.fetch_add(1);
      if (i == min_index && rss_at_min_index != nullptr) {
        *rss_at_min_index = PeakRssMib();
      }
      if (i >= min_index && NowNs() >= stop_at) break;
      const core::QueryRequest request = MetroRequest(metro, stream_seed, i);
      const int64_t t0 = NowNs();
      engine.Execute(request, workspace, &outcome);
      const int64_t t1 = NowNs();
      MetroRecord r;
      r.index = i;
      r.digest = OutcomeDigest(outcome);
      r.latency_us = static_cast<double>(t1 - t0) / 1e3;
      r.access_latency = outcome.Stats().access_latency;
      r.tuning_time = outcome.Stats().tuning_time;
      r.buckets_read = outcome.Stats().buckets_read;
      out.push_back(r);
      if (spans != nullptr) {
        const int64_t root = spans->Record(
            request.kind == core::QueryKind::kKnn ? "core.execute_knn"
                                                   : "core.execute_window",
            static_cast<int64_t>(i), -1, t0, t1);
        probe.Probe(request, static_cast<int64_t>(i), root, spans);
      }
    }
    counts[static_cast<size_t>(t)] = probe.counts();
  };
  std::vector<std::thread> threads;
  for (int t = 1; t < kThreads; ++t) threads.emplace_back(worker, t);
  worker(0);
  for (std::thread& t : threads) t.join();
  *elapsed_s = Seconds(start);
  // Indexes fetched but not executed when time ran out are skipped, never
  // reused: the next loop starts past every fetched index.
  *end_index = next.load();
  std::vector<MetroRecord> records;
  for (int t = 0; t < kThreads; ++t) {
    records.insert(records.end(), per_thread[static_cast<size_t>(t)].begin(),
                   per_thread[static_cast<size_t>(t)].end());
    if (probes != nullptr) probes->Merge(counts[static_cast<size_t>(t)]);
  }
  return records;
}

Tally VerifyMetro(const std::vector<MetroRecord>& records,
                  const MetroWorld& metro, uint64_t stream_seed,
                  const Oracle& oracle) {
  std::vector<Tally> tallies(static_cast<size_t>(VerifyThreads()));
  std::atomic<size_t> slot{0};
  ParallelFor(records.size(), VerifyThreads(), [&](size_t begin, size_t end) {
    Tally& tally = tallies[slot++];
    for (size_t j = begin; j < end; ++j) {
      ++tally.attempted;
      const core::QueryRequest request =
          MetroRequest(metro, stream_seed, records[j].index);
      if (oracle(request) != records[j].digest) {
        ++tally.failed;
        ++tally.wrong;
      }
    }
  });
  Tally total;
  for (const Tally& t : tallies) total.Merge(t);
  return total;
}

Outcome RunMetroEngine(const Args& args, Tracer* tracer, Report* report) {
  Outcome outcome;
  const MetroWorld metro = MakeMetroWorld(kMetroDataSeed);
  storage::SystemBuilder builder(metro.world, metro.params);
  builder.SetOptions(metro.options).SetShards(metro.shards);

  // The store is written before timing; set-up is the cold open through
  // the default buffer pool, repeated and reduced to its median.
  const std::string store_path = args.work_dir + "/metro_engine.store";
  {
    const int64_t start = NowNs();
    std::unique_ptr<core::ShardedQueryEngine> built =
        builder.BuildFromPois(metro.pois);
    const double build_s = Seconds(start);
    report->Note("metro build: " + std::to_string(build_s) + " s");
    if (args.trace) report->Set("broadcast.build_s", build_s, "s");
    if (!WriteStore(builder, *built, store_path)) {
      std::fprintf(stderr, "store write failed: %s\n", store_path.c_str());
      outcome.valid = false;
      return outcome;
    }
  }
  std::vector<double> opens;
  OpenedStore opened;
  for (int i = 0; i < 3; ++i) {
    opened = OpenStore(builder, store_path, kPoolPages);
    if (opened.engine == nullptr) {
      std::fprintf(stderr, "store open failed: %s\n", store_path.c_str());
      outcome.valid = false;
      return outcome;
    }
    opens.push_back(opened.open_s);
  }
  std::remove(store_path.c_str());
  const core::ShardedQueryEngine& engine = *opened.engine;

  // The first kFixed requests are always executed, so the slot metrics over
  // them repeat exactly for a seed; time decides how many more run.
  constexpr uint64_t kFixed = 3000;
  const uint64_t stream_seed = lbsq::DeriveStreamSeed(args.seed, 0x6d6574726f);
  std::vector<MetroRecord> records;
  double elapsed_s = 0.0;
  uint64_t end_index = 0;
  double untraced_qps = 0.0;
  if (!args.trace) {
    report->Set("setup_s", Median(opens), "s");
    double rss_mib = 0.0;
    records = MetroLoop(engine, metro, stream_seed, 0, kFixed, args.seconds,
                        nullptr, nullptr, &elapsed_s, &end_index, &rss_mib);
    std::vector<double> latency;
    double access = 0.0;
    double tuning = 0.0;
    for (const MetroRecord& r : records) {
      latency.push_back(r.latency_us);
      if (r.index < kFixed) {
        access += static_cast<double>(r.access_latency);
        tuning += static_cast<double>(r.tuning_time);
      }
    }
    SetTiming(report, "latency", "us", Summarize(&latency));
    report->Set("qps", static_cast<double>(records.size()) / elapsed_s, "1/s");
    report->Set("access_latency_slots", access / kFixed, "slots");
    report->Set("tuning_slots", tuning / kFixed, "slots");
    // Over the fixed prefix, so the figure does not grow with throughput:
    // the workspaces' cover memo keeps every request of the broadcast cycle.
    report->Set("peak_rss_mib", rss_mib, "MiB");
  } else {
    ReportStore(opened, report);
    // Untraced half, then traced half: the difference is the overhead.
    records = MetroLoop(engine, metro, stream_seed, 0, kFixed,
                        args.seconds / 2, nullptr, nullptr, &elapsed_s,
                        &end_index);
    untraced_qps = static_cast<double>(records.size()) / elapsed_s;
    ProbeCounts probes;
    std::vector<MetroRecord> traced = MetroLoop(
        engine, metro, stream_seed, end_index, 0, args.seconds / 2, tracer,
        &probes, &elapsed_s, &end_index);
    ReportLayers(*tracer, probes, report);
    std::vector<double> untraced_us;
    std::vector<double> traced_us;
    double buckets = 0.0;
    for (const MetroRecord& r : records) untraced_us.push_back(r.latency_us);
    for (const MetroRecord& r : traced) {
      traced_us.push_back(r.latency_us);
      buckets += static_cast<double>(r.buckets_read);
    }
    report->Set("trace.overhead_share",
                Summarize(&traced_us).p50 / Summarize(&untraced_us).p50 - 1.0,
                "share");
    report->Set("broadcast.buckets_read_per_query",
                buckets / static_cast<double>(std::max<size_t>(traced.size(), 1)),
                "count");
    // One seed, one answer: buckets over the fixed prefix repeat exactly.
    double fixed_buckets = 0.0;
    for (const MetroRecord& r : records) {
      if (r.index < kFixed) fixed_buckets += static_cast<double>(r.buckets_read);
    }
    char line[128];
    std::snprintf(line, sizeof(line),
                  "fixed-prefix buckets_read_per_query = %.6f (%llu requests)",
                  fixed_buckets / kFixed, static_cast<unsigned long long>(kFixed));
    report->Note(line);
    records.insert(records.end(), traced.begin(), traced.end());

    std::vector<core::QueryRequest> prefix;
    for (uint64_t i = 0; i < kFixed; ++i) {
      prefix.push_back(MetroRequest(metro, stream_seed, i));
    }
    report->Set("input.knn_share", KnnShare(prefix, 0, prefix.size()), "share");
    report->Set("input.peer_share", 0.0, "share");
    report->Set("input.cover_repeat_share", CoverRepeatShare(engine, prefix),
                "share");
  }

  const spatial::RTree tree = spatial::RTree::BulkLoadStr(metro.pois);
  const Oracle oracle = RTreeOracle(&tree);
  outcome.tally = VerifyMetro(records, metro, stream_seed, oracle);
  if (!args.trace) return outcome;

  // Legs on requests of their own streams (never one executed twice).
  auto side_stream = [&](uint64_t tag, size_t n) {
    const uint64_t seed = lbsq::DeriveStreamSeed(args.seed, tag);
    std::vector<core::QueryRequest> requests;
    for (uint64_t i = 0; i < n; ++i) {
      requests.push_back(MetroRequest(metro, seed, i));
    }
    return requests;
  };
  // Metro queries cost milliseconds: the memo prefix is short, and the
  // wire leg offers 40% of the closed loop's throughput for two seconds.
  ReportMemo(RunMemoLeg(engine, MemoPrefix(side_stream(0x6d656d6f, 300))),
             report);
  WireConfig wire;
  wire.rate = 0.4 * untraced_qps;
  wire.warmup = 20;
  wire.measured = static_cast<size_t>(std::max(2.0 * wire.rate, 200.0));
  wire.seed = args.seed;
  const WireResult wire_result =
      RunWireLeg(engine, side_stream(0x77697265, wire.requests()), oracle,
                 wire, tracer, report);
  if (!wire_result.ok) {
    std::fprintf(stderr, "wire leg failed: %s\n", wire_result.error.c_str());
    outcome.valid = false;
    return outcome;
  }
  outcome.tally.Merge(wire_result.tally);
  opened.engine.reset();
  outcome.tally.Merge(RunDynamicLeg(
      metro.pois, metro.world, metro.params, metro.options, metro.shards,
      side_stream(0x64796e, 2000), 600, args.seed, tracer, report));
  return outcome;
}

// --------------------------------------------------------------- churn_city

Outcome RunChurnCity(const Args& args, Tracer* tracer, Report* report) {
  Outcome outcome;
  const CityWorld city = MakeCityWorld(args.seed);
  std::vector<double> builds;
  std::vector<std::unique_ptr<dynamic::ShardedWorld>> batch(kSetupBatch);
  for (int i = 0; i < kSetupSamples; ++i) {
    // The previous sample's worlds are destroyed outside the timing.
    for (std::unique_ptr<dynamic::ShardedWorld>& w : batch) w.reset();
    const int64_t start = NowNs();
    for (std::unique_ptr<dynamic::ShardedWorld>& w : batch) {
      w = std::make_unique<dynamic::ShardedWorld>(
          city.pois, city.world, city.config.broadcast, city.options, 1);
    }
    builds.push_back(Seconds(start) / kSetupBatch);
  }
  const std::unique_ptr<dynamic::ShardedWorld> world = std::move(batch[0]);
  batch.clear();
  report->Set(args.trace ? "broadcast.build_s" : "setup_s", Median(builds),
              "s");

  // The traced run's legs take their own requests from the stream's tail.
  constexpr size_t kMemoRequests = 2000;
  WireConfig wire;
  wire.seed = args.seed;
  const size_t leg_requests = kMemoRequests + wire.requests();
  // Readers execute up to ~25k requests per second; the stream outlasts
  // them with margin (a drained stream ends the phase early).
  const std::vector<core::QueryRequest> stream = CityStream(
      city, static_cast<size_t>(40000.0 * std::max(args.seconds, 5.0)) +
                leg_requests);
  ChurnRunner runner(world.get(), city.pois, args.seed);
  ChurnPhaseConfig config;
  config.min_requests = 2000;
  size_t cursor = 0;
  auto run_phase = [&](Tracer* spans) {
    config.max_requests = stream.size() - leg_requests - cursor;
    return runner.Run(stream, &cursor, config, spans);
  };
  std::vector<ChurnRecord> all;
  if (!args.trace) {
    config.seconds = args.seconds;
    const ChurnPhase phase = run_phase(nullptr);
    std::vector<double> latency;
    double access = 0.0;
    double tuning = 0.0;
    for (const ChurnRecord& r : phase.records) {
      latency.push_back(r.latency_us);
      access += static_cast<double>(r.access_latency);
      tuning += static_cast<double>(r.tuning_time);
    }
    const Summary summary = Summarize(&latency);
    SetTiming(report, "latency", "us", summary);
    report->Set("qps", static_cast<double>(summary.n) / phase.elapsed_s,
                "1/s");
    const double n = static_cast<double>(std::max<int64_t>(summary.n, 1));
    report->Set("access_latency_slots", access / n, "slots");
    report->Set("tuning_slots", tuning / n, "slots");
    report->Set("peak_rss_mib", PeakRssMib(), "MiB");
    std::vector<double> publish = phase.publish_us;
    const Summary p = Summarize(&publish);
    char line[160];
    std::snprintf(line, sizeof(line),
                  "publish (ShardedWorld::Apply): p50 %.1f us, p%.2f %.1f us "
                  "over %lld batches",
                  p.p50, p.tail_pct, p.tail, static_cast<long long>(p.n));
    report->Note(line);
    all = phase.records;
  } else {
    config.seconds = args.seconds / 2;
    const ChurnPhase untraced = run_phase(nullptr);
    const ChurnPhase traced = run_phase(tracer);
    ReportChurnLayers(traced, *world, *tracer, report);
    ReportLayers(*tracer, traced.probes, report);
    std::vector<double> untraced_us;
    std::vector<double> traced_us;
    for (const ChurnRecord& r : untraced.records) {
      untraced_us.push_back(r.latency_us);
    }
    int64_t carried = 0;
    int64_t resolved = 0;
    double buckets = 0.0;
    for (const ChurnRecord& r : traced.records) {
      traced_us.push_back(r.latency_us);
      carried += r.carried_peers ? 1 : 0;
      resolved += r.carried_peers && r.resolved_by_peers ? 1 : 0;
      buckets += static_cast<double>(r.buckets_read);
    }
    const double reads =
        static_cast<double>(std::max<size_t>(traced.records.size(), 1));
    report->Set("trace.overhead_share",
                Summarize(&traced_us).p50 / Summarize(&untraced_us).p50 - 1.0,
                "share");
    report->Set("core.peer_resolved_share",
                static_cast<double>(resolved) /
                    static_cast<double>(std::max<int64_t>(carried, 1)),
                "share");
    report->Set("broadcast.buckets_read_per_query", buckets / reads, "count");
    report->Set("input.peer_share", static_cast<double>(carried) / reads,
                "share");
    report->Set("input.knn_share", KnnShare(stream, 0, cursor), "share");
    report->Set("input.cover_repeat_share",
                CoverRepeatShare(*world->Current()->engine,
                                 std::vector<core::QueryRequest>(
                                     stream.begin(), stream.begin() + cursor)),
                "share");
    all = untraced.records;
    all.insert(all.end(), traced.records.begin(), traced.records.end());
  }
  outcome.tally = runner.Verify(stream, all);
  if (!args.trace) return outcome;

  // Legs on the newest epoch's engine, with requests no phase executed.
  const std::shared_ptr<const dynamic::ShardedEpoch> epoch = world->Current();
  const auto tail = stream.end() - static_cast<ptrdiff_t>(leg_requests);
  ReportMemo(RunMemoLeg(*epoch->engine,
                        MemoPrefix(std::vector<core::QueryRequest>(
                            tail, tail + kMemoRequests))),
             report);
  const std::vector<core::QueryRequest> rest(tail + kMemoRequests,
                                             stream.end());
  const WireResult wire_result = RunWireLeg(
      *epoch->engine, rest, BruteForceOracle(&epoch->pois), wire, tracer,
      report);
  if (!wire_result.ok) {
    std::fprintf(stderr, "wire leg failed: %s\n", wire_result.error.c_str());
    outcome.valid = false;
    return outcome;
  }
  outcome.tally.Merge(wire_result.tally);
  storage::SystemBuilder builder(city.world, city.config.broadcast);
  builder.SetOptions(city.options);
  const std::string store_path = args.work_dir + "/churn_city.store";
  if (!WriteStore(builder, *epoch->engine, store_path)) {
    std::fprintf(stderr, "store write failed: %s\n", store_path.c_str());
    outcome.valid = false;
    return outcome;
  }
  ReportStore(OpenStore(builder, store_path, kPoolPages), report);
  std::remove(store_path.c_str());
  return outcome;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <metro_engine|churn_city> "
                 "--seed <n> --seconds <s> --trace <0|1> "
                 "[--work-dir <dir>]\n");
    return 2;
  }
  Tracer tracer;
  Report report;
  Tracer* spans = args.trace ? &tracer : nullptr;
  Outcome outcome;
  if (args.workload == "metro_engine") {
    outcome = RunMetroEngine(args, spans, &report);
  } else if (args.workload == "churn_city") {
    outcome = RunChurnCity(args, spans, &report);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  const Tally& tally = outcome.tally;
  report.Set("failed_share",
             static_cast<double>(tally.failed) /
                 static_cast<double>(std::max<int64_t>(tally.attempted, 1)),
             "share");
  char line[160];
  std::snprintf(line, sizeof(line),
                "%s seed %llu: %lld answers checked, %lld failed (%lld wrong)",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed),
                static_cast<long long>(tally.attempted),
                static_cast<long long>(tally.failed),
                static_cast<long long>(tally.wrong));
  report.Note(line);
  if (args.trace) {
    const std::string path =
        args.work_dir + "/trace-" + args.workload + ".tsv";
    if (tracer.Write(path)) {
      report.Note("spans: " + std::to_string(tracer.size()) + " written to " +
                  path);
    }
  }
  const bool correct = outcome.valid && tally.wrong == 0 && tally.attempted > 0;
  const bool complete = report.Print(args.trace ? kPerLayer : kEndToEnd,
                                     correct, tally.attempted, tally.failed);
  return correct && complete ? 0 : 1;
}
