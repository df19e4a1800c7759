// Throughput and allocation behavior of the batched query path.
//
// Runs the default Table 3 workload (Los Angeles City: 2750 POIs over a
// 20 x 20 mi world, k = 5, 3% windows) through the two QueryEngine
// execution modes:
//
//   per-query : the convenience `Execute(request)` — transient buffers.
//   batch     : `ExecuteBatch` through one warm `QueryWorkspace` — scratch
//               reuse plus the broadcast-cycle memo shared across queries.
//
// Verifies the two modes are field-for-field identical, measures best-of-R
// throughput for each, and (when built with LBSQ_COUNT_ALLOCS, the default
// outside sanitizer builds) asserts the batch path performs ZERO heap
// allocations per query once the workspace is warm.
//
// Writes the results to BENCH_core.json (see --out). With --baseline=<file>
// it instead compares the measured batch speedup against the checked-in
// baseline's and exits 1 when it regressed by more than --max-regression
// (default 0.25). The speedup ratio — not absolute qps — is compared, so
// the check is meaningful across machines of different speeds.
//
// With --via-store the engine under the bench is constructed through a
// WriteStore / OpenFromStore roundtrip over the in-memory page backend
// instead of directly from the POI list — the same baseline gate then also
// covers the storage path (state identity guarantees the workload and
// answers are unchanged; only construction differs).
//
// Run:  ./build/bench/bench_batch_throughput [--out=BENCH_core.json]
//       ./build/bench/bench_batch_throughput --baseline=BENCH_core.json
//       ./build/bench/bench_batch_throughput --via-store --baseline=...
// Env:  LBSQ_BENCH_FAST=1  - smaller batch for smoke testing.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#ifdef __linux__
#include <sched.h>
#endif

#include "alloc_counter.h"
#include "broadcast/system.h"
#include "common/rng.h"
#include "core/query_engine.h"
#include "core/query_workspace.h"
#include "geom/rect.h"
#include "kernels/dispatch.h"
#include "kernels/kernels.h"
#include "spatial/generators.h"
#include "storage/system_builder.h"

namespace lbsq::bench {
namespace {

constexpr double kWorldSide = 20.0;    // Table 3: 20 x 20 mi service area
constexpr int kPoiNumber = 2750;       // Table 3: Los Angeles City
constexpr int kKnnK = 5;               // Table 3: default k
constexpr double kWindowPct = 3.0;     // Table 3: window = 3% of the world

bool FastMode() {
  const char* fast = std::getenv("LBSQ_BENCH_FAST");
  return fast != nullptr && fast[0] == '1';
}

// Requests plus the storage their peer spans view. The spans are bound only
// after every backing vector is final (`peer_storage` is sized up front and
// never reallocates), and the struct keeps the storage alive for as long as
// the requests are in use.
struct Workload {
  std::vector<core::QueryRequest> requests;
  std::vector<std::vector<core::PeerData>> peer_storage;
};

// The Table 3 query mix with the spatial locality the memo exploits:
// clients cluster around hot spots (a few dozen per world), so co-located
// queries within a broadcast cycle repeat the same cover rectangles.
Workload MakeWorkload(
    const broadcast::BroadcastSystem& system, int n, uint64_t seed) {
  Rng rng(seed);
  const int64_t cycle = system.schedule().cycle_length();
  const double window_side =
      kWorldSide * std::sqrt(kWindowPct / 100.0);  // 3% of the world's area

  std::vector<geom::Point> hotspots;
  for (int c = 0; c < 24; ++c) {
    hotspots.push_back({rng.Uniform(2.0, kWorldSide - 2.0),
                        rng.Uniform(2.0, kWorldSide - 2.0)});
  }

  Workload workload;
  workload.requests.reserve(static_cast<size_t>(n));
  workload.peer_storage.resize(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const geom::Point& hub = hotspots[rng.NextBelow(hotspots.size())];
    const geom::Point q{hub.x + rng.Uniform(-1.0, 1.0),
                        hub.y + rng.Uniform(-1.0, 1.0)};
    core::QueryRequest r;
    if (rng.NextBool(0.7)) {
      r.kind = core::QueryKind::kKnn;
      r.position = q;
      r.k = kKnnK;
    } else {
      r.kind = core::QueryKind::kWindow;
      r.window = geom::Rect::CenteredSquare(q, window_side);
    }
    r.slot = static_cast<int64_t>(
        rng.NextBelow(static_cast<uint64_t>(cycle)));
    if (rng.NextBool(0.3)) {
      core::VerifiedRegion vr;
      vr.region = geom::Rect::CenteredSquare(q, rng.Uniform(0.8, 2.0));
      for (const spatial::Poi& p : system.pois()) {
        if (vr.region.Contains(p.pos)) vr.pois.push_back(p);
      }
      workload.peer_storage[static_cast<size_t>(i)].push_back(
          core::PeerData{{vr}});
    }
    r.fault_stream = static_cast<uint64_t>(i);
    workload.requests.push_back(std::move(r));
  }
  for (int i = 0; i < n; ++i) {
    workload.requests[static_cast<size_t>(i)].peers =
        workload.peer_storage[static_cast<size_t>(i)];
  }
  return workload;
}

bool CommonEq(const core::QueryResultCommon& a,
              const core::QueryResultCommon& b) {
  return a.stats.access_latency == b.stats.access_latency &&
         a.stats.tuning_time == b.stats.tuning_time &&
         a.stats.buckets_read == b.stats.buckets_read &&
         a.buckets == b.buckets && a.cacheable.region == b.cacheable.region &&
         a.cacheable.pois == b.cacheable.pois && a.degraded == b.degraded;
}

// Mode-identity check: the batch answer must be bit-identical to the
// per-query answer (the contract bench numbers are meaningless without).
bool OutcomeEq(const core::QueryOutcome& a, const core::QueryOutcome& b) {
  if (a.kind != b.kind) return false;
  if (a.kind == core::QueryKind::kKnn) {
    if (!a.knn.has_value() || !b.knn.has_value()) return false;
    const core::SbnnOutcome& x = *a.knn;
    const core::SbnnOutcome& y = *b.knn;
    if (!CommonEq(x, y) || x.resolved_by != y.resolved_by ||
        x.neighbors.size() != y.neighbors.size()) {
      return false;
    }
    for (size_t i = 0; i < x.neighbors.size(); ++i) {
      if (!(x.neighbors[i].poi == y.neighbors[i].poi) ||
          x.neighbors[i].distance != y.neighbors[i].distance) {
        return false;
      }
    }
    return true;
  }
  if (!a.window.has_value() || !b.window.has_value()) return false;
  const core::SbwqOutcome& x = *a.window;
  const core::SbwqOutcome& y = *b.window;
  return CommonEq(x, y) && x.resolved_by_peers == y.resolved_by_peers &&
         x.pois == y.pois;
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct KernelRow {
  const char* name;  // JSON key stem: kernel_<name>_{scalar_ns,active_ns,speedup}
  double scalar_ns_per_element = 0.0;
  double active_ns_per_element = 0.0;
  double speedup = 0.0;  // scalar_ns / active_ns — hardware-comparable ratio
};

struct BenchResult {
  int n_queries = 0;
  double per_query_qps = 0.0;
  double batch_qps = 0.0;
  double speedup = 0.0;
  double steady_state_allocs_per_query = 0.0;
  size_t memo_size = 0;
  std::vector<KernelRow> kernels;
};

// The kernel inputs and outputs at fixed, 64-byte-aligned offsets from one
// page-aligned base. Separate heap vectors land wherever the allocator puts
// them, and how their addresses alias modulo 4 KiB moved the scalar timings
// by up to 2x between builds of identical kernels.
struct alignas(4096) KernelSlab {
  alignas(64) double xs[kPoiNumber];
  alignas(64) double ys[kPoiNumber];
  alignas(64) double dist[kPoiNumber];
  alignas(64) int64_t ids[kPoiNumber];
  alignas(64) uint32_t idx[kPoiNumber];
};

// Pins the calling thread to each allowed CPU in turn (Linux only; a no-op
// elsewhere) and restores the original affinity when destroyed.
class CpuRotation {
 public:
  CpuRotation() {
#ifdef __linux__
    CPU_ZERO(&original_);
    if (sched_getaffinity(0, sizeof(original_), &original_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &original_)) cpus_.push_back(c);
    }
#endif
  }
  ~CpuRotation() {
#ifdef __linux__
    if (!cpus_.empty()) sched_setaffinity(0, sizeof(original_), &original_);
#endif
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void MoveTo(int round) {
#ifdef __linux__
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[static_cast<size_t>(round) % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
#else
    (void)round;
#endif
  }

 private:
#ifdef __linux__
  cpu_set_t original_;
#endif
  std::vector<int> cpus_;
};

// Kernel-level throughput at the scalar tier vs the active dispatch tier,
// on a slab the size of the Table 3 database. The scalar/active ratio is
// what the baseline gate compares: like the batch speedup, it is a ratio of
// two timings on the same machine, so it transfers across hardware.
//
// Every (kernel, tier) pair runs one short block per round, all pairs
// interleaved, and keeps its best block over many rounds: a slow stretch of
// a shared machine then hits scalar and active alike, and a pair's minimum
// only has to find one quiet round in the whole run. On Linux the rounds
// also rotate over the CPUs the process may use: on a shared VM a busy
// sibling hyperthread slows the SIMD tier about twice as much as the scalar
// one for as long as the process stays on that CPU, which no choice of
// blocks within one CPU can undo.
std::vector<KernelRow> RunKernelBench() {
  constexpr size_t kN = static_cast<size_t>(kPoiNumber);
  const int block_reps = FastMode() ? 25 : 50;
  const int rounds = FastMode() ? 20 : 200;
  Rng rng(23);
  const auto slab = std::make_unique<KernelSlab>();
  double* xs = slab->xs;
  double* ys = slab->ys;
  double* dist = slab->dist;
  int64_t* ids = slab->ids;
  uint32_t* idx = slab->idx;
  for (size_t i = 0; i < kN; ++i) {
    xs[i] = rng.Uniform(0.0, kWorldSide);
    ys[i] = rng.Uniform(0.0, kWorldSide);
    ids[i] = static_cast<int64_t>(i);
  }
  kernels::internal::DistanceBatchScalar(xs, ys, kN, kWorldSide / 2,
                                         kWorldSide / 2, dist);
  std::vector<int64_t> radius_out;
  radius_out.reserve(kN);

  using KernelFn = std::function<void(const kernels::KernelOps&)>;
  const std::pair<const char*, KernelFn> kernels_under_test[] = {
      {"distance_batch",
       [&](const kernels::KernelOps& ops) {
         ops.distance_batch(xs, ys, kN, kWorldSide / 2, kWorldSide / 2,
                            dist);
       }},
      {"radius_select",
       [&](const kernels::KernelOps& ops) {
         radius_out.clear();
         ops.append_ids_within_radius(xs, ys, ids, kN, kWorldSide / 2,
                                      kWorldSide / 2, 3.0 * 3.0,
                                      &radius_out);
       }},
      {"window_mask",
       [&](const kernels::KernelOps& ops) {
         ops.select_in_window(xs, ys, kN, 8.0, 8.0, 12.0, 12.0, idx);
       }},
      {"k_select",
       [&](const kernels::KernelOps& ops) {
         ops.k_smallest(dist, ids, kN, kKnnK, idx);
       }},
  };
  const kernels::KernelOps* tiers[2] = {
      &kernels::OpsForTier(kernels::SimdTier::kScalar), &kernels::Ops()};
  constexpr size_t kKernels = std::size(kernels_under_test);
  double best[kKernels][2];
  for (auto& b : best) b[0] = b[1] = 1e300;
  CpuRotation cpus;
  for (int round = 0; round < rounds; ++round) {
    cpus.MoveTo(round);
    for (size_t k = 0; k < kKernels; ++k) {
      for (int t = 0; t < 2; ++t) {
        const KernelFn& fn = kernels_under_test[k].second;
        const auto start = std::chrono::steady_clock::now();
        for (int i = 0; i < block_reps; ++i) fn(*tiers[t]);
        best[k][t] = std::min(best[k][t], SecondsSince(start));
      }
    }
  }

  const double ns_per = 1e9 / (static_cast<double>(kN) * block_reps);
  std::vector<KernelRow> rows;
  for (size_t k = 0; k < kKernels; ++k) {
    KernelRow r;
    r.name = kernels_under_test[k].first;
    r.scalar_ns_per_element = best[k][0] * ns_per;
    r.active_ns_per_element = best[k][1] * ns_per;
    r.speedup = r.scalar_ns_per_element / r.active_ns_per_element;
    rows.push_back(r);
  }
  return rows;
}

BenchResult RunBench(bool via_store) {
  const geom::Rect world{0.0, 0.0, kWorldSide, kWorldSide};
  Rng rng(7);
  const storage::SystemBuilder builder(world, broadcast::BroadcastParams{});
  std::unique_ptr<core::ShardedQueryEngine> sharded = builder.BuildFromPois(
      spatial::GenerateUniformPois(&rng, world, kPoiNumber));
  storage::MemoryStorageManager page_store;
  storage::BufferPool pool(&page_store, /*capacity=*/64);
  if (via_store) {
    // Persist into the in-memory page backend and reopen: the engine under
    // the bench then decoded every POI, bucket, and index entry from pages
    // through the buffer pool, so the baseline gate covers the store path.
    // State identity makes the workload and the answers unchanged.
    if (!builder.WriteStore(*sharded, &page_store)) {
      std::fprintf(stderr, "FATAL: WriteStore to the memory backend failed\n");
      std::exit(1);
    }
    storage::OpenStatus status = storage::OpenStatus::kOk;
    sharded = builder.OpenFromStore(page_store, &pool, &status);
    if (sharded == nullptr) {
      std::fprintf(stderr, "FATAL: OpenFromStore failed: %s\n",
                   storage::OpenStatusName(status));
      std::exit(1);
    }
  }
  const broadcast::BroadcastSystem& system = *sharded->shard_system(0);
  const core::QueryEngine& engine = *sharded->shard_engine(0);

  BenchResult result;
  result.n_queries = FastMode() ? 400 : 2000;
  const Workload workload = MakeWorkload(system, result.n_queries,
                                         /*seed=*/13);
  const std::vector<core::QueryRequest>& requests = workload.requests;

  // Identity first: every batch outcome must match its per-query twin.
  std::vector<core::QueryOutcome> reference;
  reference.reserve(requests.size());
  for (const core::QueryRequest& r : requests) {
    reference.push_back(engine.Execute(r));
  }
  core::QueryWorkspace workspace;
  {
    const std::span<const core::QueryOutcome> batch =
        engine.ExecuteBatch(requests, workspace);
    for (size_t i = 0; i < requests.size(); ++i) {
      if (!OutcomeEq(reference[i], batch[i])) {
        std::fprintf(stderr,
                     "FATAL: batch outcome %zu differs from per-query "
                     "Execute\n",
                     i);
        std::exit(1);
      }
    }
  }
  result.memo_size = workspace.memo_size();

  // Steady state: the workspace is warm after the identity pass; one more
  // full batch must not touch the heap at all.
  const uint64_t allocs_before = AllocCount();
  engine.ExecuteBatch(requests, workspace);
  const uint64_t allocs_after = AllocCount();
  result.steady_state_allocs_per_query =
      static_cast<double>(allocs_after - allocs_before) /
      static_cast<double>(requests.size());

#ifdef LBSQ_COUNT_ALLOCS
  // LBSQ_DBG=1: instead of benchmarking, print a backtrace (to stderr) for
  // every allocation a warm batch performs, then exit — the fastest way to
  // locate a zero-allocation regression. Symbolize with
  // `addr2line -e <binary> -f -C <offsets>`.
  if (std::getenv("LBSQ_DBG") != nullptr) {
    g_alloc_trap = true;
    engine.ExecuteBatch(std::span<const core::QueryRequest>(
                            requests.data(),
                            std::min<size_t>(requests.size(), 50)),
                        workspace);
    g_alloc_trap = false;
    std::exit(0);
  }
#endif

  // Throughput, best of R runs per mode (interleaved so thermal / frequency
  // drift hits both modes alike).
  const int repetitions = FastMode() ? 3 : 5;
  double best_per_query = 1e300;
  double best_batch = 1e300;
  for (int rep = 0; rep < repetitions; ++rep) {
    auto start = std::chrono::steady_clock::now();
    for (const core::QueryRequest& r : requests) {
      const core::QueryOutcome out = engine.Execute(r);
      (void)out;
    }
    const double per_query_s = SecondsSince(start);
    if (per_query_s < best_per_query) best_per_query = per_query_s;

    start = std::chrono::steady_clock::now();
    engine.ExecuteBatch(requests, workspace);
    const double batch_s = SecondsSince(start);
    if (batch_s < best_batch) best_batch = batch_s;
  }
  result.per_query_qps = static_cast<double>(result.n_queries) /
                         best_per_query;
  result.batch_qps = static_cast<double>(result.n_queries) / best_batch;
  result.speedup = result.batch_qps / result.per_query_qps;
  result.kernels = RunKernelBench();
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
               "  \"bench\": \"bench_batch_throughput\",\n"
               "  \"workload\": {\n"
               "    \"parameter_set\": \"Los Angeles City\",\n"
               "    \"poi_number\": %d,\n"
               "    \"world_side_mi\": %.1f,\n"
               "    \"knn_k\": %d,\n"
               "    \"window_pct\": %.1f,\n"
               "    \"n_queries\": %d\n"
               "  },\n"
               "  \"per_query_qps\": %.1f,\n"
               "  \"batch_qps\": %.1f,\n"
               "  \"speedup\": %.4f,\n"
               "  \"steady_state_allocs_per_query\": %.4f,\n"
               "  \"alloc_counting\": %s,\n"
               "  \"memo_size\": %zu,\n"
               "  \"simd_tier\": \"%s\",\n"
               "  \"simd_tier_id\": %d",
               kPoiNumber, kWorldSide, kKnnK, kWindowPct, r.n_queries,
               r.per_query_qps, r.batch_qps, r.speedup,
               r.steady_state_allocs_per_query,
               kAllocCountingEnabled ? "true" : "false", r.memo_size,
               kernels::TierName(kernels::ActiveTier()),
               static_cast<int>(kernels::ActiveTier()));
  for (const KernelRow& k : r.kernels) {
    std::fprintf(f,
                 ",\n"
                 "  \"kernel_%s_scalar_ns\": %.4f,\n"
                 "  \"kernel_%s_active_ns\": %.4f,\n"
                 "  \"kernel_%s_speedup\": %.4f",
                 k.name, k.scalar_ns_per_element, k.name,
                 k.active_ns_per_element, k.name, k.speedup);
  }
  std::fprintf(f, "\n}\n");
  std::fclose(f);
}

// Pulls `"key": <number>` out of a flat JSON file. Enough for our own
// output format; no external JSON dependency.
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

  std::string out_path = "BENCH_core.json";
  std::string baseline_path;
  double max_regression = 0.25;
  bool via_store = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg.rfind("--baseline=", 0) == 0) {
      baseline_path = arg.substr(11);
    } else if (arg.rfind("--max-regression=", 0) == 0) {
      max_regression = std::strtod(arg.c_str() + 17, nullptr);
    } else if (arg == "--via-store") {
      via_store = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--out=FILE] [--baseline=FILE] "
                   "[--max-regression=FRAC] [--via-store]\n",
                   argv[0]);
      return 2;
    }
  }

  const BenchResult r = RunBench(via_store);
  std::printf("batched query execution, Table 3 LA City workload "
              "(%d queries%s%s):\n",
              r.n_queries, FastMode() ? ", fast mode" : "",
              via_store ? ", engine opened from page store" : "");
  std::printf("  per-query Execute : %10.1f queries/s\n", r.per_query_qps);
  std::printf("  ExecuteBatch      : %10.1f queries/s\n", r.batch_qps);
  std::printf("  speedup           : %10.2fx\n", r.speedup);
  std::printf("  steady-state allocations/query: %.4f%s\n",
              r.steady_state_allocs_per_query,
              kAllocCountingEnabled ? "" : " (counting compiled out)");
  std::printf("  cycle memo entries: %zu\n", r.memo_size);
  std::printf("  SIMD dispatch tier: %s\n",
              lbsq::kernels::TierName(lbsq::kernels::ActiveTier()));
  for (const KernelRow& k : r.kernels) {
    std::printf("  kernel %-14s: %7.3f ns/elem scalar, %7.3f ns/elem %s "
                "(%.2fx)\n",
                k.name, k.scalar_ns_per_element, k.active_ns_per_element,
                lbsq::kernels::TierName(lbsq::kernels::ActiveTier()),
                k.speedup);
  }

  if (kAllocCountingEnabled && r.steady_state_allocs_per_query != 0.0) {
    std::fprintf(stderr,
                 "FAIL: steady-state batch execution allocated (%.4f "
                 "allocations/query, expected 0)\n",
                 r.steady_state_allocs_per_query);
    return 1;
  }

  if (!baseline_path.empty()) {
    double baseline_speedup = 0.0;
    if (!ReadJsonNumber(baseline_path, "speedup", &baseline_speedup) ||
        baseline_speedup <= 0.0) {
      std::fprintf(stderr, "FAIL: no usable \"speedup\" in baseline %s\n",
                   baseline_path.c_str());
      return 1;
    }
    const double floor = baseline_speedup * (1.0 - max_regression);
    std::printf("  baseline speedup  : %10.2fx (floor %.2fx at %.0f%% "
                "tolerance)\n",
                baseline_speedup, floor, max_regression * 100.0);
    if (r.speedup < floor) {
      std::fprintf(stderr,
                   "FAIL: batch speedup %.2fx regressed more than %.0f%% "
                   "below baseline %.2fx\n",
                   r.speedup, max_regression * 100.0, baseline_speedup);
      return 1;
    }
    // Kernel gates: scalar/active ratios, compared only when the baseline
    // ran at the same dispatch tier (on a lesser CPU the ratio is expected
    // to differ; absolute ns are machine-specific so they are never gated).
    double baseline_tier = -1.0;
    const bool same_tier =
        ReadJsonNumber(baseline_path, "simd_tier_id", &baseline_tier) &&
        static_cast<int>(baseline_tier) ==
            static_cast<int>(lbsq::kernels::ActiveTier());
    if (!same_tier) {
      std::printf("  kernel checks     : skipped (baseline tier differs "
                  "from active tier %s)\n",
                  lbsq::kernels::TierName(lbsq::kernels::ActiveTier()));
    } else {
      for (const KernelRow& k : r.kernels) {
        double base = 0.0;
        const std::string key = std::string("kernel_") + k.name + "_speedup";
        if (!ReadJsonNumber(baseline_path, key, &base) || base <= 0.0) {
          std::fprintf(stderr, "FAIL: no usable \"%s\" in baseline %s\n",
                       key.c_str(), baseline_path.c_str());
          return 1;
        }
        const double kernel_floor = base * (1.0 - max_regression);
        if (k.speedup < kernel_floor) {
          std::fprintf(stderr,
                       "FAIL: kernel %s speedup %.2fx regressed more than "
                       "%.0f%% below baseline %.2fx\n",
                       k.name, k.speedup, max_regression * 100.0, base);
          return 1;
        }
      }
      std::printf("  kernel checks     : OK (%zu kernels)\n",
                  r.kernels.size());
    }
    std::printf("  perf check        : OK\n");
    return 0;
  }

  WriteJson(r, out_path);
  std::printf("  wrote %s\n", out_path.c_str());
  return 0;
}
