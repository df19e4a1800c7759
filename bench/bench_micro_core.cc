// Micro-benchmarks (google-benchmark) for the hot algorithmic kernels, plus
// the design-choice ablations DESIGN.md calls out: best-first vs depth-first
// R-tree kNN, single-span vs partitioned Hilbert retrieval, and NNV cost as
// a function of the peer count.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "broadcast/system.h"
#include "broadcast/wire.h"
#include "common/rng.h"
#include "core/nnv.h"
#include "geom/rect_region.h"
#include "hilbert/hilbert.h"
#include "kernels/dispatch.h"
#include "kernels/kernels.h"
#include "onair/onair_window.h"
#include "spatial/generators.h"
#include "storage/system_builder.h"
#include "spatial/quadtree.h"
#include "spatial/rstar_tree.h"
#include "spatial/rtree.h"

namespace {

using namespace lbsq;

const geom::Rect kWorld{0.0, 0.0, 100.0, 100.0};

void BM_HilbertEncode(benchmark::State& state) {
  const int order = static_cast<int>(state.range(0));
  Rng rng(1);
  std::vector<hilbert::CellXY> cells;
  for (int i = 0; i < 1024; ++i) {
    cells.push_back({static_cast<uint32_t>(rng.NextBelow(1u << order)),
                     static_cast<uint32_t>(rng.NextBelow(1u << order))});
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hilbert::XyToIndex(order, cells[i]));
    i = (i + 1) & 1023;
  }
}
BENCHMARK(BM_HilbertEncode)->Arg(4)->Arg(8)->Arg(16);

void BM_HilbertCoverRect(benchmark::State& state) {
  hilbert::HilbertGrid grid(kWorld, static_cast<int>(state.range(0)));
  Rng rng(2);
  for (auto _ : state) {
    const geom::Point a{rng.Uniform(0.0, 90.0), rng.Uniform(0.0, 90.0)};
    const geom::Rect query{a.x, a.y, a.x + 10.0, a.y + 10.0};
    benchmark::DoNotOptimize(grid.CoverRect(query));
  }
}
BENCHMARK(BM_HilbertCoverRect)->Arg(4)->Arg(6)->Arg(8);

void BM_RTreeInsert(benchmark::State& state) {
  Rng rng(3);
  const auto pois = spatial::GenerateUniformPois(
      &rng, kWorld, state.range(0));
  for (auto _ : state) {
    spatial::RTree tree;
    tree.InsertAll(pois);
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RTreeInsert)->Arg(1000)->Arg(10000);

// Ablation: the two classic kNN strategies on the same tree.
void BM_RTreeKnnBestFirst(benchmark::State& state) {
  Rng rng(4);
  spatial::RTree tree;
  tree.InsertAll(spatial::GenerateUniformPois(&rng, kWorld, 20000));
  for (auto _ : state) {
    const geom::Point q{rng.Uniform(0.0, 100.0), rng.Uniform(0.0, 100.0)};
    benchmark::DoNotOptimize(
        tree.KnnBestFirst(q, static_cast<int>(state.range(0))));
  }
}
BENCHMARK(BM_RTreeKnnBestFirst)->Arg(1)->Arg(10)->Arg(100);

void BM_RTreeKnnDepthFirst(benchmark::State& state) {
  Rng rng(4);
  spatial::RTree tree;
  tree.InsertAll(spatial::GenerateUniformPois(&rng, kWorld, 20000));
  for (auto _ : state) {
    const geom::Point q{rng.Uniform(0.0, 100.0), rng.Uniform(0.0, 100.0)};
    benchmark::DoNotOptimize(
        tree.KnnDepthFirst(q, static_cast<int>(state.range(0))));
  }
}
BENCHMARK(BM_RTreeKnnDepthFirst)->Arg(1)->Arg(10)->Arg(100);

// Ablation: the same kNN on the three index structures.
void BM_RStarKnn(benchmark::State& state) {
  Rng rng(4);
  spatial::RStarTree tree;
  tree.InsertAll(spatial::GenerateUniformPois(&rng, kWorld, 20000));
  for (auto _ : state) {
    const geom::Point q{rng.Uniform(0.0, 100.0), rng.Uniform(0.0, 100.0)};
    benchmark::DoNotOptimize(tree.Knn(q, static_cast<int>(state.range(0))));
  }
}
BENCHMARK(BM_RStarKnn)->Arg(1)->Arg(10)->Arg(100);

void BM_QuadTreeKnn(benchmark::State& state) {
  Rng rng(4);
  spatial::QuadTree tree(kWorld, 8);
  tree.InsertAll(spatial::GenerateUniformPois(&rng, kWorld, 20000));
  for (auto _ : state) {
    const geom::Point q{rng.Uniform(0.0, 100.0), rng.Uniform(0.0, 100.0)};
    benchmark::DoNotOptimize(tree.Knn(q, static_cast<int>(state.range(0))));
  }
}
BENCHMARK(BM_QuadTreeKnn)->Arg(1)->Arg(10)->Arg(100);

void BM_WindowQueryByIndex(benchmark::State& state) {
  Rng rng(9);
  const auto pois = spatial::GenerateUniformPois(&rng, kWorld, 20000);
  spatial::RTree rtree;
  spatial::RStarTree rstar;
  spatial::QuadTree quad(kWorld, 8);
  rtree.InsertAll(pois);
  rstar.InsertAll(pois);
  quad.InsertAll(pois);
  const int which = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const geom::Point a{rng.Uniform(0.0, 90.0), rng.Uniform(0.0, 90.0)};
    const geom::Rect window{a.x, a.y, a.x + 10.0, a.y + 10.0};
    switch (which) {
      case 0:
        benchmark::DoNotOptimize(rtree.WindowQuery(window));
        break;
      case 1:
        benchmark::DoNotOptimize(rstar.WindowQuery(window));
        break;
      default:
        benchmark::DoNotOptimize(quad.WindowQuery(window));
        break;
    }
  }
  state.SetLabel(which == 0 ? "guttman" : which == 1 ? "rstar" : "quadtree");
}
BENCHMARK(BM_WindowQueryByIndex)->Arg(0)->Arg(1)->Arg(2);

// Wire-format throughput.
void BM_WireBucketRoundTrip(benchmark::State& state) {
  Rng rng(13);
  const geom::Rect world{0.0, 0.0, 16.0, 16.0};
  hilbert::HilbertGrid grid(world, 5);
  const auto pois = spatial::GenerateUniformPois(
      &rng, world, state.range(0));
  const auto buckets = broadcast::BuildBuckets(pois, grid,
                                               static_cast<int>(state.range(0)));
  const auto bytes = broadcast::EncodeBucket(buckets.front());
  for (auto _ : state) {
    broadcast::DataBucket decoded;
    benchmark::DoNotOptimize(
        broadcast::DecodeBucket(bytes.data(), bytes.size(), &decoded));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(bytes.size()));
}
BENCHMARK(BM_WireBucketRoundTrip)->Arg(8)->Arg(64)->Arg(512);

// The merged-verified-region construction that dominates NNV (the paper's
// O(n log n + i log n) MapOverlay step, here as exact rectangle algebra).
void BM_RegionMerge(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(5);
  std::vector<geom::Rect> rects;
  for (int i = 0; i < n; ++i) {
    const geom::Point c{rng.Uniform(40.0, 60.0), rng.Uniform(40.0, 60.0)};
    rects.push_back(geom::Rect::CenteredSquare(c, rng.Uniform(2.0, 6.0)));
  }
  for (auto _ : state) {
    geom::RectRegion region;
    for (const auto& r : rects) region.Add(r);
    benchmark::DoNotOptimize(region.BoundaryDistance({50.0, 50.0}));
  }
}
BENCHMARK(BM_RegionMerge)->Arg(4)->Arg(16)->Arg(64);

// Full NNV cost as a function of the number of responding peers.
void BM_NnvByPeerCount(benchmark::State& state) {
  const int peers = static_cast<int>(state.range(0));
  Rng rng(6);
  const auto server = spatial::GenerateUniformPois(&rng, kWorld, 2000);
  std::vector<core::PeerData> peer_data;
  for (int p = 0; p < peers; ++p) {
    core::VerifiedRegion vr;
    vr.region = geom::Rect::CenteredSquare(
        {rng.Uniform(45.0, 55.0), rng.Uniform(45.0, 55.0)},
        rng.Uniform(2.0, 5.0));
    for (const auto& poi : server) {
      if (vr.region.Contains(poi.pos)) vr.pois.push_back(poi);
    }
    peer_data.push_back(core::PeerData{{vr}});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::NearestNeighborVerify({50.0, 50.0}, 10, peer_data, 0.2));
  }
}
BENCHMARK(BM_NnvByPeerCount)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

// --- SIMD kernels, per dispatch tier (Arg 0 = scalar, 1 = sse2, 2 = avx2).
// Items processed = slab elements, so the report's items/s inverts to
// ns/element at each tier. Tiers the CPU lacks are skipped.

constexpr size_t kSlabN = 2750;  // Table 3 LA City database size

struct KernelFixture {
  std::vector<double> xs, ys, dist;
  std::vector<int64_t> ids;
  std::vector<uint32_t> idx;
  KernelFixture() {
    Rng rng(21);
    xs.reserve(kSlabN), ys.reserve(kSlabN), ids.reserve(kSlabN);
    for (size_t i = 0; i < kSlabN; ++i) {
      xs.push_back(rng.Uniform(0.0, 100.0));
      ys.push_back(rng.Uniform(0.0, 100.0));
      ids.push_back(static_cast<int64_t>(i));
    }
    dist.resize(kSlabN);
    idx.resize(kSlabN);
    kernels::internal::DistanceBatchScalar(xs.data(), ys.data(), kSlabN, 50.0,
                                           50.0, dist.data());
  }
};

bool SkipUnlessRunnable(benchmark::State& state, kernels::SimdTier tier) {
  if (kernels::TierIsRunnable(tier)) return false;
  state.SkipWithError("tier not runnable on this CPU");
  return true;
}

void BM_KernelDistanceBatch(benchmark::State& state) {
  const auto tier = static_cast<kernels::SimdTier>(state.range(0));
  if (SkipUnlessRunnable(state, tier)) return;
  const kernels::KernelOps& ops = kernels::OpsForTier(tier);
  KernelFixture fx;
  for (auto _ : state) {
    ops.distance_batch(fx.xs.data(), fx.ys.data(), kSlabN, 50.0, 50.0,
                       fx.dist.data());
    benchmark::DoNotOptimize(fx.dist.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kSlabN));
  state.SetLabel(kernels::TierName(tier));
}
BENCHMARK(BM_KernelDistanceBatch)->Arg(0)->Arg(1)->Arg(2);

void BM_KernelRadiusSelect(benchmark::State& state) {
  const auto tier = static_cast<kernels::SimdTier>(state.range(0));
  if (SkipUnlessRunnable(state, tier)) return;
  const kernels::KernelOps& ops = kernels::OpsForTier(tier);
  KernelFixture fx;
  std::vector<int64_t> out;
  for (auto _ : state) {
    out.clear();
    ops.append_ids_within_radius(fx.xs.data(), fx.ys.data(), fx.ids.data(),
                                 kSlabN, 50.0, 50.0, 15.0 * 15.0, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kSlabN));
  state.SetLabel(kernels::TierName(tier));
}
BENCHMARK(BM_KernelRadiusSelect)->Arg(0)->Arg(1)->Arg(2);

void BM_KernelWindowMask(benchmark::State& state) {
  const auto tier = static_cast<kernels::SimdTier>(state.range(0));
  if (SkipUnlessRunnable(state, tier)) return;
  const kernels::KernelOps& ops = kernels::OpsForTier(tier);
  KernelFixture fx;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ops.select_in_window(fx.xs.data(), fx.ys.data(), kSlabN, 40.0, 40.0,
                             60.0, 60.0, fx.idx.data()));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kSlabN));
  state.SetLabel(kernels::TierName(tier));
}
BENCHMARK(BM_KernelWindowMask)->Arg(0)->Arg(1)->Arg(2);

void BM_KernelKSelect(benchmark::State& state) {
  const auto tier = static_cast<kernels::SimdTier>(state.range(0));
  if (SkipUnlessRunnable(state, tier)) return;
  const kernels::KernelOps& ops = kernels::OpsForTier(tier);
  KernelFixture fx;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops.k_smallest(fx.dist.data(), fx.ids.data(),
                                            kSlabN, 5, fx.idx.data()));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kSlabN));
  state.SetLabel(kernels::TierName(tier));
}
BENCHMARK(BM_KernelKSelect)->Arg(0)->Arg(1)->Arg(2);

// --- Air-index reads. Query points and spans are drawn before the timed
// loop; each iteration answers one of them (cycling), so the reported time
// is per lookup.

struct AirIndexFixture {
  std::unique_ptr<broadcast::BroadcastSystem> system;
  std::vector<geom::Point> queries;

  // Arg 0: the Table 3 LA City database (2,750 uniform POIs, 100 x 100,
  // order 7). Arg 1: one metro shard (~125k POIs, 60% in 10 downtown
  // clusters, 14 x 14, order 9), queried near POIs as the metro workload is.
  explicit AirIndexFixture(int shape) {
    Rng rng(17);
    broadcast::BroadcastParams params;
    geom::Rect world = kWorld;
    std::vector<spatial::Poi> pois;
    if (shape == 0) {
      params.hilbert_order = 7;
      pois = spatial::GenerateUniformPois(&rng, world, 2750);
    } else {
      params.hilbert_order = 9;
      world = geom::Rect{0.0, 0.0, 14.0, 14.0};
      pois = spatial::GenerateMetroPois(&rng, world, 125'000, 0.6, 10, 0.5);
    }
    system = storage::SystemBuilder(world, params)
                 .BuildSystemFromPois(pois);
    for (int i = 0; i < 1024; ++i) {
      const geom::Point anchor = pois[rng.NextBelow(pois.size())].pos;
      queries.push_back({anchor.x + rng.Normal(0.0, 0.1),
                         anchor.y + rng.Normal(0.0, 0.1)});
    }
  }
};

void BM_KthDistanceUpperBound(benchmark::State& state) {
  const AirIndexFixture fx(static_cast<int>(state.range(0)));
  const broadcast::AirIndex& index = fx.system->index();
  std::vector<double> scratch;
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.KthDistanceUpperBound(
        fx.queries[i++ % fx.queries.size()], 5, &scratch));
  }
  state.SetLabel(std::to_string(index.entries().size()) + " entries");
}
BENCHMARK(BM_KthDistanceUpperBound)->Arg(0)->Arg(1);

// Span lookups 1/256 of the curve wide, as a kNN search square's single
// span is on the metro shard.
void BM_BucketsForSpan(benchmark::State& state) {
  const AirIndexFixture fx(static_cast<int>(state.range(0)));
  const broadcast::AirIndex& index = fx.system->index();
  const uint64_t cells = fx.system->grid().num_cells();
  Rng rng(5);
  std::vector<uint64_t> starts;
  for (int i = 0; i < 1024; ++i) starts.push_back(rng.NextBelow(cells));
  size_t i = 0;
  int64_t buckets = 0;
  for (auto _ : state) {
    const uint64_t lo = starts[i++ % starts.size()];
    const auto ids = index.BucketsForSpan(lo, lo + cells / 256);
    buckets += static_cast<int64_t>(ids.size());
    benchmark::DoNotOptimize(ids.data());
  }
  state.counters["buckets_per_lookup"] = benchmark::Counter(
      static_cast<double>(buckets), benchmark::Counter::kAvgIterations);
  state.SetLabel(std::to_string(index.bucket_ranges().size()) + " buckets");
}
BENCHMARK(BM_BucketsForSpan)->Arg(0)->Arg(1);

// Ablation: single-span vs partitioned window retrieval volumes.
void BM_WindowRetrieval(benchmark::State& state) {
  Rng rng(7);
  broadcast::BroadcastParams params;
  params.hilbert_order = 7;
  const auto server_ptr =
      storage::SystemBuilder(kWorld, params)
          .BuildSystemFromPois(spatial::GenerateUniformPois(&rng, kWorld, 5000));
  const broadcast::BroadcastSystem& server = *server_ptr;
  const auto retrieval = static_cast<onair::WindowRetrieval>(state.range(0));
  int64_t buckets = 0;
  int64_t queries = 0;
  for (auto _ : state) {
    const geom::Point a{rng.Uniform(0.0, 80.0), rng.Uniform(0.0, 80.0)};
    const geom::Rect window{a.x, a.y, a.x + 15.0, a.y + 15.0};
    const auto ids = onair::BucketsForWindow(server, window, retrieval);
    buckets += static_cast<int64_t>(ids.size());
    ++queries;
    benchmark::DoNotOptimize(ids);
  }
  state.counters["buckets_per_query"] =
      static_cast<double>(buckets) / static_cast<double>(queries);
}
BENCHMARK(BM_WindowRetrieval)
    ->Arg(static_cast<int>(onair::WindowRetrieval::kSingleSpan))
    ->Arg(static_cast<int>(onair::WindowRetrieval::kPartitionedRanges));

}  // namespace

BENCHMARK_MAIN();
