// Shard-count sweep of the Hilbert-range sharded deployment.
//
// Builds one metro-style POI database (downtown clusters over a uniform
// background, GenerateMetroPois) and runs the same mixed kNN/window batch
// through core::ShardedQueryEngine at every shard count in the sweep.
// For each count it reports:
//
//   qps            : warm-workspace ExecuteBatch throughput (best of R).
//   latency slots  : mean broadcast access latency. Sharding's entire point
//                    — the channels broadcast concurrently, a query's
//                    latency is the max over the channels it tunes, and
//                    each channel's cycle covers only its slice.
//   tuning slots   : mean receiver-on time (summed over queried channels).
//   allocs/query   : steady-state heap allocations (must be 0).
//
// Correctness rides along: every sweep point's answer plane (neighbor ids +
// bit-exact distances, window POI sequences) is checked against the 1-shard
// reference before anything is timed.
//
// Latencies are measured in broadcast slots — deterministic, machine
// independent — so the checked-in baseline gates `latency_reduction`
// (1-shard latency over max-shard latency) tightly; throughput is reported
// but never gated (absolute qps is machine specific).
//
// Run:  ./build/bench/bench_shard_scale [--out=BENCH_shard.json]
//       ./build/bench/bench_shard_scale --baseline=BENCH_shard.json
// Env:  LBSQ_BENCH_FAST=1  - smaller database/batch for smoke testing.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "alloc_counter.h"
#include "common/rng.h"
#include "core/query_engine.h"
#include "core/sharded_query_engine.h"
#include "geom/rect.h"
#include "spatial/generators.h"

namespace lbsq::bench {
namespace {

constexpr double kWorldSide = 40.0;  // metro service area, 40 x 40 mi
constexpr int kKnnK = 5;
constexpr double kWindowPct = 0.05;  // window = 0.05% of the world
constexpr int kShardSweep[] = {1, 2, 4, 8, 16};

bool FastMode() {
  const char* fast = std::getenv("LBSQ_BENCH_FAST");
  return fast != nullptr && fast[0] == '1';
}

int64_t PoiCount() { return FastMode() ? 20'000 : 100'000; }
int QueryCount() { return FastMode() ? 500 : 2'000; }

// Peerless metro mix: positions uniform over the world so the sweep
// exercises every shard and plenty of seam-straddling windows.
std::vector<core::QueryRequest> MakeWorkload(int n, uint64_t seed) {
  Rng rng(seed);
  const double window_side = kWorldSide * std::sqrt(kWindowPct / 100.0);
  std::vector<core::QueryRequest> requests;
  requests.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const geom::Point q{rng.Uniform(0.0, kWorldSide),
                        rng.Uniform(0.0, kWorldSide)};
    core::QueryRequest r;
    if (rng.NextBool(0.7)) {
      r.kind = core::QueryKind::kKnn;
      r.position = q;
      r.k = kKnnK;
    } else {
      r.kind = core::QueryKind::kWindow;
      r.window = geom::Rect::CenteredSquare(q, window_side);
    }
    // Slots stay inside the first broadcast cycle of every channel in the
    // sweep (the shortest channel cycle is far above this range).
    r.slot = static_cast<int64_t>(rng.NextBelow(64));
    requests.push_back(r);
  }
  return requests;
}

// Answer-plane equality against the 1-shard reference (costs legitimately
// differ across shard counts; the answers may not).
bool AnswerEq(const core::QueryOutcome& a, const core::QueryOutcome& b) {
  if (a.kind != b.kind) return false;
  if (a.kind == core::QueryKind::kKnn) {
    if (!a.knn.has_value() || !b.knn.has_value()) return false;
    if (a.knn->neighbors.size() != b.knn->neighbors.size()) return false;
    for (size_t i = 0; i < a.knn->neighbors.size(); ++i) {
      if (!(a.knn->neighbors[i].poi == b.knn->neighbors[i].poi) ||
          a.knn->neighbors[i].distance != b.knn->neighbors[i].distance) {
        return false;
      }
    }
    return true;
  }
  if (!a.window.has_value() || !b.window.has_value()) return false;
  return a.window->pois == b.window->pois;
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct SweepRow {
  int shards = 0;
  double qps = 0.0;
  double avg_latency_slots = 0.0;
  double avg_tuning_slots = 0.0;
  double allocs_per_query = 0.0;
};

struct BenchResult {
  int64_t n_pois = 0;
  int n_queries = 0;
  std::vector<SweepRow> rows;
  double latency_reduction = 0.0;  // latency(1 shard) / latency(max shards)
};

BenchResult RunBench() {
  const geom::Rect world{0.0, 0.0, kWorldSide, kWorldSide};
  BenchResult result;
  result.n_pois = PoiCount();
  result.n_queries = QueryCount();

  Rng rng(7);
  const std::vector<spatial::Poi> pois = spatial::GenerateMetroPois(
      &rng, world, result.n_pois, /*clustered_fraction=*/0.6,
      /*num_clusters=*/48, /*cluster_spread=*/0.5);
  const std::vector<core::QueryRequest> requests =
      MakeWorkload(result.n_queries, /*seed=*/13);

  broadcast::BroadcastParams params;
  params.hilbert_order = 8;
  const core::EngineOptions options = [] {
    core::EngineOptions o;
    o.sbnn.k = kKnnK;
    return o;
  }();

  std::vector<core::QueryOutcome> reference;
  const int repetitions = FastMode() ? 3 : 5;
  for (const int num_shards : kShardSweep) {
    const core::ShardedQueryEngine engine(pois, world, params, options,
                                          num_shards);
    core::ShardedQueryWorkspace workspace;

    // Identity pass (also warms the workspace): every outcome must carry
    // the 1-shard answer plane.
    const std::span<const core::QueryOutcome> first =
        engine.ExecuteBatch(requests, workspace);
    if (num_shards == 1) {
      reference.assign(first.begin(), first.end());
    } else {
      for (size_t i = 0; i < requests.size(); ++i) {
        if (!AnswerEq(reference[i], first[i])) {
          std::fprintf(stderr,
                       "FATAL: outcome %zu at %d shards differs from the "
                       "1-shard answer\n",
                       i, num_shards);
          std::exit(1);
        }
      }
    }

    // Steady state: one more full batch must not touch the heap.
    const uint64_t allocs_before = AllocCount();
    engine.ExecuteBatch(requests, workspace);
    const uint64_t allocs_after = AllocCount();

    SweepRow row;
    row.shards = num_shards;
    row.allocs_per_query = static_cast<double>(allocs_after - allocs_before) /
                           static_cast<double>(requests.size());

#ifdef LBSQ_COUNT_ALLOCS
    // LBSQ_DBG=1: trap (backtrace to stderr) on any warm-batch allocation
    // instead of benchmarking — the fastest way to locate a regression.
    if (std::getenv("LBSQ_DBG") != nullptr && row.allocs_per_query != 0.0) {
      g_alloc_trap = true;
      engine.ExecuteBatch(std::span<const core::QueryRequest>(
                              requests.data(),
                              std::min<size_t>(requests.size(), 50)),
                          workspace);
      g_alloc_trap = false;
      std::exit(0);
    }
#endif

    double best = 1e300;
    for (int rep = 0; rep < repetitions; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      engine.ExecuteBatch(requests, workspace);
      const double s = SecondsSince(start);
      if (s < best) best = s;
    }
    row.qps = static_cast<double>(result.n_queries) / best;

    const std::span<const core::QueryOutcome> outcomes =
        engine.ExecuteBatch(requests, workspace);
    double latency_sum = 0.0;
    double tuning_sum = 0.0;
    for (const core::QueryOutcome& outcome : outcomes) {
      latency_sum += static_cast<double>(outcome.Stats().access_latency);
      tuning_sum += static_cast<double>(outcome.Stats().tuning_time);
    }
    row.avg_latency_slots = latency_sum / static_cast<double>(outcomes.size());
    row.avg_tuning_slots = tuning_sum / static_cast<double>(outcomes.size());
    result.rows.push_back(row);
  }

  const SweepRow& front = result.rows.front();
  const SweepRow& back = result.rows.back();
  result.latency_reduction =
      back.avg_latency_slots > 0.0
          ? front.avg_latency_slots / back.avg_latency_slots
          : 0.0;
  return result;
}

void WriteJson(const BenchResult& r, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "FATAL: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"bench_shard_scale\",\n"
               "  \"workload\": {\n"
               "    \"parameter_set\": \"metro (clustered + uniform)\",\n"
               "    \"poi_number\": %lld,\n"
               "    \"world_side_mi\": %.1f,\n"
               "    \"knn_k\": %d,\n"
               "    \"window_pct\": %.2f,\n"
               "    \"n_queries\": %d\n"
               "  },\n"
               "  \"latency_reduction\": %.4f,\n"
               "  \"alloc_counting\": %s",
               static_cast<long long>(r.n_pois), kWorldSide, kKnnK,
               kWindowPct, r.n_queries, r.latency_reduction,
               kAllocCountingEnabled ? "true" : "false");
  for (const SweepRow& row : r.rows) {
    std::fprintf(f,
                 ",\n"
                 "  \"shards_%d_qps\": %.1f,\n"
                 "  \"shards_%d_avg_latency_slots\": %.2f,\n"
                 "  \"shards_%d_avg_tuning_slots\": %.2f,\n"
                 "  \"shards_%d_allocs_per_query\": %.4f",
                 row.shards, row.qps, row.shards, row.avg_latency_slots,
                 row.shards, row.avg_tuning_slots, row.shards,
                 row.allocs_per_query);
  }
  std::fprintf(f, "\n}\n");
  std::fclose(f);
}

// Pulls `"key": <number>` out of a flat JSON file (our own output format).
bool ReadJsonNumber(const std::string& path, const std::string& key,
                    double* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::string text;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  const std::string needle = "\"" + key + "\":";
  const size_t pos = text.find(needle);
  if (pos == std::string::npos) return false;
  *out = std::strtod(text.c_str() + pos + needle.size(), nullptr);
  return true;
}

}  // namespace
}  // namespace lbsq::bench

int main(int argc, char** argv) {
  using namespace lbsq::bench;

  std::string out_path = "BENCH_shard.json";
  std::string baseline_path;
  double max_regression = 0.25;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg.rfind("--baseline=", 0) == 0) {
      baseline_path = arg.substr(11);
    } else if (arg.rfind("--max-regression=", 0) == 0) {
      max_regression = std::strtod(arg.c_str() + 17, nullptr);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--out=FILE] [--baseline=FILE] "
                   "[--max-regression=FRAC]\n",
                   argv[0]);
      return 2;
    }
  }

  const BenchResult r = RunBench();
  std::printf("Hilbert-range shard sweep, metro workload (%lld POIs, %d "
              "queries%s):\n",
              static_cast<long long>(r.n_pois), r.n_queries,
              FastMode() ? ", fast mode" : "");
  std::printf("  %7s %12s %16s %15s %13s\n", "shards", "qps",
              "latency (slots)", "tuning (slots)", "allocs/query");
  for (const SweepRow& row : r.rows) {
    std::printf("  %7d %12.1f %16.2f %15.2f %13.4f\n", row.shards, row.qps,
                row.avg_latency_slots, row.avg_tuning_slots,
                row.allocs_per_query);
  }
  std::printf("  latency reduction (1 shard / %d shards): %.2fx%s\n",
              r.rows.back().shards, r.latency_reduction,
              kAllocCountingEnabled ? "" : "  (alloc counting compiled out)");

  if (kAllocCountingEnabled) {
    for (const SweepRow& row : r.rows) {
      if (row.allocs_per_query != 0.0) {
        std::fprintf(stderr,
                     "FAIL: steady-state execution at %d shards allocated "
                     "(%.4f allocations/query, expected 0)\n",
                     row.shards, row.allocs_per_query);
        return 1;
      }
    }
  }

  if (!baseline_path.empty()) {
    double baseline_reduction = 0.0;
    if (!ReadJsonNumber(baseline_path, "latency_reduction",
                        &baseline_reduction) ||
        baseline_reduction <= 0.0) {
      std::fprintf(stderr,
                   "FAIL: no usable \"latency_reduction\" in baseline %s\n",
                   baseline_path.c_str());
      return 1;
    }
    const double floor = baseline_reduction * (1.0 - max_regression);
    std::printf("  baseline reduction: %.2fx (floor %.2fx at %.0f%% "
                "tolerance)\n",
                baseline_reduction, floor, max_regression * 100.0);
    if (r.latency_reduction < floor) {
      std::fprintf(stderr,
                   "FAIL: latency reduction %.2fx regressed more than "
                   "%.0f%% below baseline %.2fx\n",
                   r.latency_reduction, max_regression * 100.0,
                   baseline_reduction);
      return 1;
    }
    std::printf("  perf check        : OK\n");
    return 0;
  }

  WriteJson(r, out_path);
  std::printf("  wrote %s\n", out_path.c_str());
  return 0;
}
