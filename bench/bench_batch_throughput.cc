// Allocation behavior of the workspace query path, plus machine-independent
// timing ratios.
//
// Runs the default Table 3 workload (Los Angeles City: 2750 POIs over a
// 20 x 20 mi world, k = 5, 3% windows) through a warm `QueryWorkspace`, on
// two request streams, and asserts (when built with LBSQ_COUNT_ALLOCS, the
// default outside sanitizer builds) that each makes ZERO heap allocations
// per query once warm:
//
//   replay  the stream lbsq_load replays against lbsq_server: the
//           simulator's Poisson arrivals, kNN positions on the hosts'
//           random-waypoint trajectories, 3% windows, no peers. Each
//           request runs through `ShardedQueryEngine::Execute(request,
//           workspace, &outcome)` with one reused workspace and outcome,
//           the call lbsq_server's worker loop makes. The counted requests
//           are fresh: the workspace was warmed on an earlier, disjoint
//           part of the stream.
//   hotspot clients clustered around hot spots, 30% carrying a peer
//           region; one batch replayed through `ExecuteBatch`.
//
// Every workspace answer is checked field for field against the
// convenience `Execute(request)`.
//
// It also times ratios of two implementations on the same machine: the
// Hilbert cover by quadrant descent against the enumerate-and-sort cover
// it replaced (`cover_descent_vs_enumerate_speedup`, on the replay
// stream's own cover rectangles), retrieval over bucket-id runs against
// the bucket-by-bucket retrieval it replaced
// (`retrieve_runs_vs_per_bucket_speedup`, on the replay stream's own
// downloads) and each SIMD kernel's scalar tier against the active tier
// (`kernel_*_speedup`).
//
// Writes the results to BENCH_core.json (see --out). With --baseline=<file>
// it instead compares every measured ratio against the checked-in
// baseline's and exits 1 when one regressed by more than --max-regression
// (default 0.25). Absolute timings are never compared.
//
// With --via-store the engine under the bench is constructed through a
// WriteStore / OpenFromStore roundtrip over the in-memory page backend
// instead of directly from the POI list — the same gates then also cover
// the storage path (state identity guarantees the workload and answers are
// unchanged; only construction differs).
//
// Run:  ./build/bench/bench_batch_throughput [--out=BENCH_core.json]
//       ./build/bench/bench_batch_throughput --baseline=BENCH_core.json
//       ./build/bench/bench_batch_throughput --via-store --baseline=...
// Env:  LBSQ_BENCH_FAST=1  - fewer counted requests and timing rounds, for
//                            smoke testing.
//       LBSQ_DBG=1         - print a backtrace (to stderr) for every
//                            allocation a counted workspace call makes.

#include <algorithm>
#include <chrono>
#include <cmath>
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
#include "broadcast/client_protocol.h"
#include "broadcast/retrieve_oracle.h"
#include "broadcast/system.h"
#include "common/rng.h"
#include "core/query_engine.h"
#include "core/query_workspace.h"
#include "core/sharded_query_engine.h"
#include "geom/circle.h"
#include "geom/rect.h"
#include "hilbert/cover_oracle.h"
#include "hilbert/hilbert.h"
#include "kernels/dispatch.h"
#include "kernels/kernels.h"
#include "sim/config.h"
#include "sim/mobility.h"
#include "sim/workload.h"
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

// The Table 3 query mix, clients clustered around hot spots (a few dozen
// per world), every slot within one broadcast cycle.
Workload MakeHotspotWorkload(
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

// The first `n` requests of the stream lbsq_load sends for the Table 3 LA
// City configuration at full scale (server::ReplayWorkload builds its query
// calls the same way): Poisson arrivals, each host's kNN position on its
// random-waypoint trajectory at the event time, 30% windows of mean area
// 3%, slots from the event times. Peerless, like the wire protocol.
Workload MakeReplayWorkload(size_t n) {
  sim::SimConfig config;
  config.world_side_mi = kWorldSide;
  config.query_type = sim::QueryType::kMixed;
  config.warmup_min = 0.0;
  // LA City issues 6,220 queries per minute over the paper's area.
  config.duration_min =
      static_cast<double>(n) / config.params.query_per_min + 0.1;
  const geom::Rect world{0.0, 0.0, kWorldSide, kWorldSide};
  const std::vector<sim::QueryEvent> events =
      sim::GenerateWorkload(config, world);
  const std::unique_ptr<sim::MobilityModel> mobility =
      sim::MakeMobilityModel(config, world);
  Workload workload;
  workload.requests.reserve(n);
  for (size_t i = 0; i < n && i < events.size(); ++i) {
    const sim::QueryEvent& event = events[i];
    core::QueryRequest r;
    r.slot = static_cast<int64_t>(event.time_min * config.slots_per_second *
                                  60.0);
    if (event.type == sim::QueryType::kKnn) {
      r.kind = core::QueryKind::kKnn;
      r.position = mobility->Position(event.host, event.time_min);
      r.k = event.k;
    } else {
      r.kind = core::QueryKind::kWindow;
      r.window = event.window;
    }
    r.fault_stream = static_cast<uint64_t>(i);
    workload.requests.push_back(r);
  }
  if (workload.requests.size() != n) {
    std::fprintf(stderr, "FATAL: replay stream has %zu of %zu requests\n",
                 workload.requests.size(), n);
    std::exit(1);
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

// Mode-identity check: the workspace answer must be bit-identical to the
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

// The Hilbert cover by quadrant descent against the enumerate-and-sort
// reference, on the same rectangles: a ratio of two timings on one machine.
struct CoverRow {
  int rects = 0;
  double cells_per_rect = 0.0;
  double descent_ns = 0.0;    // per cover
  double enumerate_ns = 0.0;  // per cover
  double speedup = 0.0;       // enumerate_ns / descent_ns
};

// Retrieval over a download's bucket-id runs against the bucket-by-bucket
// reference, on the same downloads: a ratio of two timings on one machine.
struct RetrieveRow {
  int downloads = 0;
  double buckets_per_download = 0.0;
  double runs_per_download = 0.0;
  double runs_ns = 0.0;        // per retrieval
  double per_bucket_ns = 0.0;  // per retrieval
  double speedup = 0.0;        // per_bucket_ns / runs_ns
};

struct BenchResult {
  int warm_requests = 0;
  int counted_requests = 0;
  double replay_allocs_per_query = 0.0;
  double hotspot_allocs_per_query = 0.0;
  CoverRow cover;
  RetrieveRow retrieve;
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
// what the baseline gate compares: like the cover ratio, it is a ratio of
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

// The cover rectangles `requests` ask for: each window as it is, and for
// each (peerless) kNN the MBR of its index-bounded search circle, the
// rectangle RunSbnn covers. Interleaved best-of-rounds blocks, as for the
// kernels.
CoverRow RunCoverBench(const core::QueryEngine& engine,
                       const broadcast::BroadcastSystem& system,
                       std::span<const core::QueryRequest> requests) {
  const int rounds = FastMode() ? 10 : 60;
  const hilbert::HilbertGrid& grid = system.grid();
  const core::SbnnOptions& sbnn = engine.options().sbnn;
  std::vector<geom::Rect> rects;
  for (const core::QueryRequest& r : requests) {
    if (r.kind == core::QueryKind::kWindow) {
      rects.push_back(r.window);
      continue;
    }
    double radius = system.index().KthDistanceUpperBound(
        r.position, r.k > 0 ? r.k : sbnn.k);
    if (!std::isfinite(radius)) radius = grid.world().MaxDistance(r.position);
    rects.push_back(
        geom::Circle{r.position, radius * sbnn.prefetch_radius_factor}.Mbr());
  }
  const int n_rects = static_cast<int>(rects.size());
  std::vector<hilbert::IndexRange> ranges;
  std::vector<uint64_t> cells;
  CoverRow row;
  row.rects = n_rects;
  double total_cells = 0.0;
  for (const geom::Rect& r : rects) {
    grid.CoverRect(r, &ranges);
    for (const hilbert::IndexRange& range : ranges) {
      total_cells += static_cast<double>(range.hi - range.lo + 1);
    }
    std::vector<hilbert::IndexRange> reference;
    hilbert::CoverRectByEnumeration(grid, r, &cells, &reference);
    if (!(reference == ranges)) {
      std::fprintf(stderr, "FATAL: descent cover differs from enumeration\n");
      std::exit(1);
    }
  }
  row.cells_per_rect = total_cells / n_rects;
  double best[2] = {1e300, 1e300};
  uint64_t sink = 0;
  for (int round = 0; round < rounds; ++round) {
    auto start = std::chrono::steady_clock::now();
    for (const geom::Rect& r : rects) {
      grid.CoverRect(r, &ranges);
      sink += ranges.size();
    }
    best[0] = std::min(best[0], SecondsSince(start));
    start = std::chrono::steady_clock::now();
    for (const geom::Rect& r : rects) {
      hilbert::CoverRectByEnumeration(grid, r, &cells, &ranges);
      sink += ranges.size();
    }
    best[1] = std::min(best[1], SecondsSince(start));
  }
  if (sink == 0) std::exit(1);  // keeps the timed loops observable
  row.descent_ns = best[0] * 1e9 / n_rects;
  row.enumerate_ns = best[1] * 1e9 / n_rects;
  row.speedup = row.enumerate_ns / row.descent_ns;
  return row;
}

// The downloads `requests` make (each broadcast answer's bucket runs, at
// its own slot), retrieved over runs and bucket by bucket. Interleaved
// best-of-rounds blocks, as for the cover.
RetrieveRow RunRetrieveBench(const core::QueryEngine& engine,
                             const broadcast::BroadcastSystem& system,
                             std::span<const core::QueryRequest> requests) {
  const int rounds = FastMode() ? 10 : 60;
  const broadcast::BroadcastSchedule& schedule = system.schedule();
  struct Download {
    int64_t slot = 0;
    broadcast::BucketRuns runs;
    std::vector<int64_t> ids;
  };
  std::vector<Download> downloads;
  core::QueryWorkspace workspace;
  core::QueryOutcome outcome;
  double buckets = 0.0;
  double runs = 0.0;
  for (const core::QueryRequest& r : requests) {
    engine.Execute(r, workspace, &outcome);
    if (outcome.ResolvedByPeers()) continue;
    Download d;
    d.slot = r.slot;
    d.runs = outcome.Common().buckets;
    d.ids = d.runs.ToIds();
    const broadcast::AccessStats a =
        broadcast::RetrieveBuckets(schedule, d.slot, d.runs);
    const broadcast::AccessStats b =
        broadcast::RetrieveBucketsPerBucket(schedule, d.slot, d.ids);
    if (a.access_latency != b.access_latency ||
        a.tuning_time != b.tuning_time || a.buckets_read != b.buckets_read) {
      std::fprintf(stderr,
                   "FATAL: run retrieval differs from per-bucket retrieval\n");
      std::exit(1);
    }
    buckets += static_cast<double>(d.ids.size());
    runs += static_cast<double>(d.runs.runs().size());
    downloads.push_back(std::move(d));
  }
  RetrieveRow row;
  row.downloads = static_cast<int>(downloads.size());
  if (downloads.empty()) {
    std::fprintf(stderr, "FATAL: no broadcast downloads to time\n");
    std::exit(1);
  }
  row.buckets_per_download = buckets / row.downloads;
  row.runs_per_download = runs / row.downloads;
  double best[2] = {1e300, 1e300};
  int64_t sink = 0;
  for (int round = 0; round < rounds; ++round) {
    auto start = std::chrono::steady_clock::now();
    for (const Download& d : downloads) {
      sink += broadcast::RetrieveBuckets(schedule, d.slot, d.runs)
                  .access_latency;
    }
    best[0] = std::min(best[0], SecondsSince(start));
    start = std::chrono::steady_clock::now();
    for (const Download& d : downloads) {
      sink += broadcast::RetrieveBucketsPerBucket(schedule, d.slot, d.ids)
                  .access_latency;
    }
    best[1] = std::min(best[1], SecondsSince(start));
  }
  if (sink == 0) std::exit(1);  // keeps the timed loops observable
  row.runs_ns = best[0] * 1e9 / row.downloads;
  row.per_bucket_ns = best[1] * 1e9 / row.downloads;
  row.speedup = row.per_bucket_ns / row.runs_ns;
  return row;
}

// Runs `fn` and returns the heap allocations it made. With LBSQ_DBG set,
// each of them also prints a backtrace to stderr; symbolize it with
// `addr2line -e <binary> -f -C <offsets>`.
template <typename Fn>
uint64_t CountAllocs(Fn&& fn) {
#ifdef LBSQ_COUNT_ALLOCS
  static const bool trap = std::getenv("LBSQ_DBG") != nullptr;
  g_alloc_trap = trap;
#endif
  const uint64_t before = AllocCount();
  fn();
  const uint64_t allocs = AllocCount() - before;
#ifdef LBSQ_COUNT_ALLOCS
  g_alloc_trap = false;
#endif
  return allocs;
}

// Exits 1 unless the workspace answer equals the per-query `Execute` one.
void CheckIdentity(const core::QueryOutcome& reference,
                   const core::QueryOutcome& got, const char* stream,
                   size_t index) {
  if (!OutcomeEq(reference, got)) {
    std::fprintf(stderr,
                 "FATAL: %s request %zu: workspace outcome differs from "
                 "per-query Execute\n",
                 stream, index);
    std::exit(1);
  }
}

BenchResult RunBench(bool via_store) {
  // The kernel timings first, on a fresh heap: run after the query streams,
  // the active tier of window_mask measured ~30% slower on one 4-vCPU VM
  // while the scalar tier did not move.
  const std::vector<KernelRow> kernels = RunKernelBench();
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

  // The replay warm-up must bring every buffer to its high-water mark for
  // this traffic: a request larger than any before it (a Poisson k in the
  // tail, a maximal window over dense POIs) grows a buffer once, which is
  // capacity, not per-query work. After 16,000 warm-up requests the next
  // 2,000 still met 5 such growths; after 24,000 they met none. The
  // warm-up does not shrink in fast mode, which counts a prefix of the
  // same part.
  constexpr size_t kWarmRequests = 32000;
  const size_t counted = FastMode() ? 400 : 2000;
  BenchResult result;
  result.kernels = kernels;
  result.warm_requests = static_cast<int>(kWarmRequests);
  result.counted_requests = static_cast<int>(counted);

  // Replay: the call lbsq_server's worker loop makes, with one workspace
  // and one outcome reused across the whole stream.
  core::ShardedQueryWorkspace server_workspace;
  core::QueryOutcome outcome;
  const Workload replay = MakeReplayWorkload(kWarmRequests + counted);
  uint64_t replay_allocs = 0;
  for (size_t j = 0; j < replay.requests.size(); ++j) {
    const core::QueryRequest& r = replay.requests[j];
    auto execute = [&] { sharded->Execute(r, server_workspace, &outcome); };
    if (j < kWarmRequests) {
      execute();
    } else {
      replay_allocs += CountAllocs(execute);
    }
    CheckIdentity(engine.Execute(r), outcome, "replay", j);
  }
  result.replay_allocs_per_query =
      static_cast<double>(replay_allocs) / static_cast<double>(counted);

  // Hotspot: one batch, executed once to warm the outcome arena, then
  // counted on the second pass.
  core::QueryWorkspace workspace;
  const Workload hotspot =
      MakeHotspotWorkload(system, static_cast<int>(counted), /*seed=*/13);
  engine.ExecuteBatch(hotspot.requests, workspace);
  std::span<const core::QueryOutcome> batch;
  const uint64_t hotspot_allocs = CountAllocs(
      [&] { batch = engine.ExecuteBatch(hotspot.requests, workspace); });
  result.hotspot_allocs_per_query =
      static_cast<double>(hotspot_allocs) / static_cast<double>(counted);
  for (size_t j = 0; j < counted; ++j) {
    CheckIdentity(engine.Execute(hotspot.requests[j]), batch[j], "hotspot",
                  j);
  }

  constexpr size_t kCoverRequests = 512;
  const std::span<const core::QueryRequest> timed =
      std::span<const core::QueryRequest>(replay.requests)
          .first(kCoverRequests);
  result.cover = RunCoverBench(engine, system, timed);
  result.retrieve = RunRetrieveBench(engine, system, timed);
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
               "    \"replay_warm_requests\": %d,\n"
               "    \"counted_requests\": %d\n"
               "  },\n"
               "  \"replay_allocs_per_query\": %.4f,\n"
               "  \"hotspot_allocs_per_query\": %.4f,\n"
               "  \"alloc_counting\": %s,\n"
               "  \"cover_rects\": %d,\n"
               "  \"cover_cells_per_rect\": %.1f,\n"
               "  \"cover_descent_ns\": %.1f,\n"
               "  \"cover_enumerate_ns\": %.1f,\n"
               "  \"cover_descent_vs_enumerate_speedup\": %.4f,\n"
               "  \"retrieve_downloads\": %d,\n"
               "  \"retrieve_buckets_per_download\": %.1f,\n"
               "  \"retrieve_runs_per_download\": %.2f,\n"
               "  \"retrieve_runs_ns\": %.1f,\n"
               "  \"retrieve_per_bucket_ns\": %.1f,\n"
               "  \"retrieve_runs_vs_per_bucket_speedup\": %.4f,\n"
               "  \"simd_tier\": \"%s\",\n"
               "  \"simd_tier_id\": %d",
               kPoiNumber, kWorldSide, kKnnK, kWindowPct, r.warm_requests,
               r.counted_requests, r.replay_allocs_per_query,
               r.hotspot_allocs_per_query,
               kAllocCountingEnabled ? "true" : "false", r.cover.rects,
               r.cover.cells_per_rect, r.cover.descent_ns,
               r.cover.enumerate_ns, r.cover.speedup, r.retrieve.downloads,
               r.retrieve.buckets_per_download, r.retrieve.runs_per_download,
               r.retrieve.runs_ns, r.retrieve.per_bucket_ns,
               r.retrieve.speedup, kernels::TierName(kernels::ActiveTier()),
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
  std::printf("warm workspace execution, Table 3 LA City workload "
              "(%d requests counted per stream%s%s):\n",
              r.counted_requests, FastMode() ? ", fast mode" : "",
              via_store ? ", engine opened from page store" : "");
  const char* counting = kAllocCountingEnabled ? "" : " (counting compiled out)";
  std::printf("  replay stream allocations/query : %.4f%s (after %d warm-up "
              "requests)\n",
              r.replay_allocs_per_query, counting, r.warm_requests);
  std::printf("  hotspot batch allocations/query : %.4f%s\n",
              r.hotspot_allocs_per_query, counting);
  std::printf("  cover (%d rects, %.0f cells each): %7.1f ns descent, "
              "%7.1f ns enumerate (%.2fx)\n",
              r.cover.rects, r.cover.cells_per_rect, r.cover.descent_ns,
              r.cover.enumerate_ns, r.cover.speedup);
  std::printf("  retrieve (%d downloads, %.0f buckets in %.1f runs each): "
              "%7.1f ns runs, %7.1f ns per bucket (%.2fx)\n",
              r.retrieve.downloads, r.retrieve.buckets_per_download,
              r.retrieve.runs_per_download, r.retrieve.runs_ns,
              r.retrieve.per_bucket_ns, r.retrieve.speedup);
  std::printf("  SIMD dispatch tier: %s\n",
              lbsq::kernels::TierName(lbsq::kernels::ActiveTier()));
  for (const KernelRow& k : r.kernels) {
    std::printf("  kernel %-14s: %7.3f ns/elem scalar, %7.3f ns/elem %s "
                "(%.2fx)\n",
                k.name, k.scalar_ns_per_element, k.active_ns_per_element,
                lbsq::kernels::TierName(lbsq::kernels::ActiveTier()),
                k.speedup);
  }

  if (kAllocCountingEnabled && (r.replay_allocs_per_query != 0.0 ||
                                r.hotspot_allocs_per_query != 0.0)) {
    std::fprintf(stderr,
                 "FAIL: warm workspace execution allocated (replay %.4f, "
                 "hotspot %.4f allocations/query, expected 0)\n",
                 r.replay_allocs_per_query, r.hotspot_allocs_per_query);
    return 1;
  }

  if (!baseline_path.empty()) {
    // Cover and retrieval gates: descent/enumeration and runs/per-bucket
    // ratios, the same 25% rule as the kernel rows. Both sides of each run
    // on this machine, so the ratios transfer.
    const struct {
      const char* key;
      const char* label;
      double speedup;
    } ratios[] = {
        {"cover_descent_vs_enumerate_speedup", "cover descent",
         r.cover.speedup},
        {"retrieve_runs_vs_per_bucket_speedup", "run retrieval",
         r.retrieve.speedup},
    };
    for (const auto& ratio : ratios) {
      double base = 0.0;
      if (!ReadJsonNumber(baseline_path, ratio.key, &base) || base <= 0.0) {
        std::fprintf(stderr, "FAIL: no usable \"%s\" in baseline %s\n",
                     ratio.key, baseline_path.c_str());
        return 1;
      }
      const double floor = base * (1.0 - max_regression);
      std::printf("  baseline %-13s: %8.2fx (floor %.2fx at %.0f%% "
                  "tolerance)\n",
                  ratio.label, base, floor, max_regression * 100.0);
      if (ratio.speedup < floor) {
        std::fprintf(stderr,
                     "FAIL: %s speedup %.2fx regressed more than %.0f%% "
                     "below baseline %.2fx\n",
                     ratio.label, ratio.speedup, max_regression * 100.0, base);
        return 1;
      }
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
