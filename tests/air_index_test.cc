#include "broadcast/air_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>

#include "broadcast/incremental.h"
#include "broadcast/system.h"
#include "common/rng.h"
#include "kernels/kernels.h"
#include "spatial/generators.h"
#include "spatial/poi.h"

namespace lbsq::broadcast {
namespace {

const geom::Rect kWorld{0.0, 0.0, 32.0, 32.0};

struct Fixture {
  hilbert::HilbertGrid grid{kWorld, 5};
  std::vector<spatial::Poi> pois;
  std::vector<DataBucket> buckets;

  explicit Fixture(int n, int capacity = 8, uint64_t seed = 1) {
    Rng rng(seed);
    pois = spatial::GenerateUniformPois(&rng, kWorld, n);
    buckets = BuildBuckets(pois, grid, capacity);
  }
};

TEST(AirIndexTest, OneEntryPerObject) {
  Fixture f(120);
  AirIndex index(f.buckets, f.grid, 16);
  EXPECT_EQ(index.entries().size(), 120u);
}

TEST(AirIndexTest, SizeInBuckets) {
  Fixture f(120);
  AirIndex index(f.buckets, f.grid, 16);
  EXPECT_EQ(index.SizeInBuckets(), 8);  // ceil(120 / 16)
  AirIndex big(f.buckets, f.grid, 1000);
  EXPECT_EQ(big.SizeInBuckets(), 1);
}

TEST(AirIndexTest, KthDistanceUpperBoundIsSound) {
  Fixture f(200);
  AirIndex index(f.buckets, f.grid, 16);
  Rng rng(9);
  for (int trial = 0; trial < 50; ++trial) {
    const geom::Point q{rng.Uniform(0.0, 32.0), rng.Uniform(0.0, 32.0)};
    for (int k : {1, 3, 10, 50}) {
      const double bound = index.KthDistanceUpperBound(q, k);
      const auto truth = spatial::BruteForceKnn(f.pois, q, k);
      EXPECT_GE(bound, truth.back().distance)
          << "k=" << k << " trial=" << trial;
    }
  }
}

TEST(AirIndexTest, KthDistanceUpperBoundIsTight) {
  // The bound overshoots by at most one cell diagonal.
  Fixture f(300);
  AirIndex index(f.buckets, f.grid, 16);
  const double diag = std::sqrt(2.0) * 32.0 / 32.0;  // cell size 1
  Rng rng(10);
  for (int trial = 0; trial < 20; ++trial) {
    const geom::Point q{rng.Uniform(0.0, 32.0), rng.Uniform(0.0, 32.0)};
    const double bound = index.KthDistanceUpperBound(q, 5);
    const auto truth = spatial::BruteForceKnn(f.pois, q, 5);
    EXPECT_LE(bound, truth.back().distance + 2.0 * diag);
  }
}

TEST(AirIndexTest, KthDistanceUpperBoundInsufficientData) {
  Fixture f(3);
  AirIndex index(f.buckets, f.grid, 16);
  EXPECT_TRUE(std::isinf(index.KthDistanceUpperBound({1.0, 1.0}, 5)));
  EXPECT_TRUE(std::isfinite(index.KthDistanceUpperBound({1.0, 1.0}, 3)));
}

TEST(AirIndexTest, BucketsForSpanFindsAllContainingPois) {
  Fixture f(250, 6);
  AirIndex index(f.buckets, f.grid, 16);
  Rng rng(11);
  for (int trial = 0; trial < 30; ++trial) {
    const uint64_t a = rng.NextBelow(f.grid.num_cells());
    const uint64_t b = rng.NextBelow(f.grid.num_cells());
    const uint64_t lo = std::min(a, b);
    const uint64_t hi = std::max(a, b);
    const auto got = index.BucketsForSpan(lo, hi);
    // Every POI whose Hilbert value is in the span must live in a returned
    // bucket.
    for (const DataBucket& bucket : f.buckets) {
      for (const spatial::Poi& p : bucket.pois) {
        const uint64_t h = f.grid.IndexOf(p.pos);
        if (h >= lo && h <= hi) {
          EXPECT_TRUE(std::binary_search(got.begin(), got.end(), bucket.id));
        }
      }
    }
    // And every returned bucket genuinely overlaps the span.
    for (int64_t id : got) {
      const DataBucket& bucket = f.buckets[static_cast<size_t>(id)];
      EXPECT_TRUE(bucket.hilbert_lo <= hi && bucket.hilbert_hi >= lo);
    }
  }
}

TEST(AirIndexTest, BucketsForRangesSubsetOfSpan) {
  Fixture f(250, 6);
  AirIndex index(f.buckets, f.grid, 16);
  const std::vector<hilbert::IndexRange> ranges = {
      {10, 20}, {100, 150}, {800, 810}};
  const auto by_ranges = index.BucketsForRanges(ranges);
  const auto by_span = index.BucketsForSpan(10, 810);
  for (int64_t id : by_ranges) {
    EXPECT_TRUE(std::binary_search(by_span.begin(), by_span.end(), id));
  }
  EXPECT_LE(by_ranges.size(), by_span.size());
}

TEST(AirIndexTest, BucketsForRangesNoDuplicates) {
  Fixture f(100, 4);
  AirIndex index(f.buckets, f.grid, 16);
  // Overlapping ranges must not duplicate buckets.
  const std::vector<hilbert::IndexRange> ranges = {{0, 500}, {200, 900}};
  const auto got = index.BucketsForRanges(ranges);
  for (size_t i = 1; i < got.size(); ++i) EXPECT_GT(got[i], got[i - 1]);
}

// --- Differential tests against full-scan / linear-scan references --------

// The k-th bound as one distance pass over every entry: the reference the
// block-gathering implementation must reproduce bit for bit.
double FullScanBound(const AirIndex& index, geom::Point q, int k) {
  const size_t n = index.entries().size();
  if (n < static_cast<size_t>(k)) {
    return std::numeric_limits<double>::infinity();
  }
  std::vector<double> distances(n);
  kernels::DistanceBatch(index.center_xs().data(), index.center_ys().data(),
                         n, q.x, q.y, distances.data());
  std::nth_element(distances.begin(), distances.begin() + (k - 1),
                   distances.end());
  return distances[static_cast<size_t>(k - 1)] + index.half_cell_diagonal();
}

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Query positions: uniform inside the world, outside it (up to a world side
// beyond each edge), exactly on cell lines, and on the world's corners.
std::vector<geom::Point> ProbePoints(const hilbert::HilbertGrid& grid,
                                     Rng* rng) {
  const geom::Rect& w = grid.world();
  const double cells = static_cast<double>(grid.cells_per_axis());
  std::vector<geom::Point> points = {
      {w.x1, w.y1}, {w.x2, w.y2}, {w.x1, w.y2}, w.center()};
  for (int i = 0; i < 8; ++i) {
    points.push_back(
        {rng->Uniform(w.x1, w.x2), rng->Uniform(w.y1, w.y2)});
    points.push_back({rng->Uniform(w.x1 - w.width(), w.x2 + w.width()),
                      rng->Uniform(w.y1 - w.height(), w.y2 + w.height())});
    const double cx = std::floor(rng->Uniform(0.0, cells + 1.0));
    const double cy = std::floor(rng->Uniform(0.0, cells + 1.0));
    points.push_back({w.x1 + cx * (w.width() / cells),
                      w.y1 + cy * (w.height() / cells)});
  }
  return points;
}

// Asserts the bound equals the full scan for every probe point and a spread
// of k from 1 to N, through both overloads (the scratch one reused).
void ExpectBoundMatchesFullScan(const AirIndex& index,
                                const hilbert::HilbertGrid& grid, Rng* rng,
                                const std::string& label) {
  const int n = static_cast<int>(index.entries().size());
  std::vector<int> ks = {1, 2, 3, 5, 8, n / 3, n / 2, n - 1, n, n + 1};
  ks.erase(std::remove_if(ks.begin(), ks.end(), [](int k) { return k < 1; }),
           ks.end());
  std::vector<double> scratch;
  int mismatches = 0;
  for (const geom::Point q : ProbePoints(grid, rng)) {
    for (const int k : ks) {
      const double want = FullScanBound(index, q, k);
      const double got = index.KthDistanceUpperBound(q, k, &scratch);
      if (!BitEqual(got, want) ||
          !BitEqual(index.KthDistanceUpperBound(q, k), want)) {
        if (++mismatches <= 3) {
          ADD_FAILURE() << label << " q=(" << q.x << ", " << q.y
                        << ") k=" << k << " got " << got << " want " << want;
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0) << label;
}

// The data shapes the bound's doubling and block gathering must survive.
std::vector<std::pair<std::string, std::vector<spatial::Poi>>> Datasets(
    const geom::Rect& w, Rng* rng) {
  std::vector<std::pair<std::string, std::vector<spatial::Poi>>> sets;
  sets.emplace_back("uniform", spatial::GenerateUniformPois(rng, w, 300));
  sets.emplace_back(
      "clustered",
      spatial::GenerateClusteredPois(
          rng, w, 4, 60.0, 0.02 * std::min(w.width(), w.height())));
  // Everything in one small corner, as in a shard of a skewed metro.
  sets.emplace_back(
      "corner", spatial::GenerateUniformPois(
                    rng,
                    geom::Rect{w.x1, w.y1, w.x1 + w.width() / 16.0,
                               w.y1 + w.height() / 16.0},
                    200));
  // Many POIs sharing one cell, plus a sparse background.
  std::vector<spatial::Poi> dup = spatial::GenerateUniformPois(rng, w, 20);
  const geom::Point spot{w.x1 + 0.7 * w.width(), w.y1 + 0.3 * w.height()};
  for (int i = 0; i < 150; ++i) {
    dup.push_back(spatial::Poi{static_cast<int64_t>(dup.size()), spot});
  }
  sets.emplace_back("duplicate_cell", std::move(dup));
  sets.emplace_back("tiny", spatial::GenerateUniformPois(rng, w, 3));
  return sets;
}

TEST(AirIndexDifferential, KthBoundEqualsFullScan) {
  const std::vector<std::pair<std::string, geom::Rect>> worlds = {
      {"square", kWorld},
      {"wide", geom::Rect{-5.0, 10.0, 95.0, 30.0}},
      {"tall", geom::Rect{0.0, 0.0, 3.0, 40.0}},
      {"offset", geom::Rect{1000.0, 2000.0, 1010.0, 2004.0}}};
  Rng rng(2024);
  for (const auto curve :
       {hilbert::CurveKind::kHilbert, hilbert::CurveKind::kMorton}) {
    for (const int order : {1, 2, 3, 5, 9, 12}) {
      for (const auto& [world_name, world] : worlds) {
        const hilbert::HilbertGrid grid(world, order, curve);
        for (const auto& [data_name, pois] : Datasets(world, &rng)) {
          const AirIndex index(BuildBuckets(pois, grid, 4), grid, 16);
          ExpectBoundMatchesFullScan(
              index, grid, &rng,
              std::string(curve == hilbert::CurveKind::kHilbert ? "hilbert"
                                                                : "morton") +
                  " order " + std::to_string(order) + " " + world_name + " " +
                  data_name);
        }
      }
    }
  }
}

TEST(AirIndexDifferential, KthBoundEqualsFullScanAfterPatch) {
  for (const auto curve :
       {hilbert::CurveKind::kHilbert, hilbert::CurveKind::kMorton}) {
    Rng rng(77);
    BroadcastParams params;
    params.bucket_capacity = 4;
    params.hilbert_order = 6;
    params.curve = curve;
    const std::vector<spatial::Poi> pois =
        spatial::GenerateUniformPois(&rng, kWorld, 300);
    const BroadcastSystem base(pois, kWorld, params);

    // Net delta: every POI in the [0, 4)^2 corner moves within it. The
    // corner is one aligned curve block, so buckets past it stay clean.
    SystemDelta delta;
    std::vector<spatial::Poi> next = pois;
    for (spatial::Poi& p : next) {
      if (p.pos.x >= 4.0 || p.pos.y >= 4.0) continue;
      delta.removals.push_back(PoiRemoval{p.pos, p.id});
      p.pos = {rng.Uniform(0.0, 4.0), rng.Uniform(0.0, 4.0)};
      delta.additions.push_back(p);
    }
    ASSERT_FALSE(delta.empty());
    params.epoch = 1;
    PatchStats stats;
    const std::unique_ptr<BroadcastSystem> patched =
        BroadcastSystem::PatchFrom(base, next, delta, params, &stats);
    ASSERT_NE(patched, nullptr);
    EXPECT_GT(stats.buckets_shared, 0);
    ExpectBoundMatchesFullScan(patched->index(), patched->grid(), &rng,
                               "patched");
  }
}

TEST(AirIndexDeathTest, KthBoundRejectsNonFinitePosition) {
  Fixture f(50);
  AirIndex index(f.buckets, f.grid, 16);
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const geom::Point q : {geom::Point{kNan, 1.0}, geom::Point{1.0, kInf},
                              geom::Point{-kInf, -kInf}}) {
    EXPECT_DEATH(index.KthDistanceUpperBound(q, 3), "LBSQ_CHECK");
  }
}

// Linear-scan oracle for both bucket lookups.
std::vector<int64_t> LinearBuckets(
    const AirIndex& index, const std::vector<hilbert::IndexRange>& ranges) {
  std::vector<int64_t> out;
  const auto& buckets = index.bucket_ranges();
  for (size_t b = 0; b < buckets.size(); ++b) {
    for (const hilbert::IndexRange& r : ranges) {
      if (buckets[b].lo <= r.hi && buckets[b].hi >= r.lo) {
        out.push_back(static_cast<int64_t>(b));
        break;
      }
    }
  }
  return out;
}

void ExpectLookupsMatchLinearScan(const AirIndex& index,
                                  const hilbert::HilbertGrid& grid, Rng* rng) {
  const uint64_t cells = grid.num_cells();
  std::vector<std::pair<uint64_t, uint64_t>> spans = {
      {0, 0}, {0, cells - 1}, {cells - 1, cells - 1}, {5, 3}};
  // Spans ending exactly on bucket endpoints.
  for (const hilbert::IndexRange& r : index.bucket_ranges()) {
    spans.emplace_back(r.lo, r.lo);
    spans.emplace_back(r.hi, r.hi);
    spans.emplace_back(r.lo, r.hi);
  }
  for (int i = 0; i < 60; ++i) {
    const uint64_t a = rng->NextBelow(cells);
    const uint64_t b = rng->NextBelow(cells);
    spans.emplace_back(std::min(a, b), std::max(a, b));
  }
  for (const auto& [lo, hi] : spans) {
    EXPECT_EQ(index.BucketsForSpan(lo, hi), LinearBuckets(index, {{lo, hi}}))
        << "span [" << lo << ", " << hi << "]";
  }
  // Cover ranges of random rectangles (sorted, disjoint), and sorted
  // overlapping ranges.
  const geom::Rect& w = grid.world();
  for (int i = 0; i < 40; ++i) {
    const geom::Point a{rng->Uniform(w.x1, w.x2), rng->Uniform(w.y1, w.y2)};
    const geom::Point b{rng->Uniform(w.x1, w.x2), rng->Uniform(w.y1, w.y2)};
    const std::vector<hilbert::IndexRange> ranges =
        grid.CoverRect(geom::Rect::FromCorners(a, b));
    EXPECT_EQ(index.BucketsForRanges(ranges), LinearBuckets(index, ranges));
  }
  const std::vector<hilbert::IndexRange> overlapping = {
      {0, cells / 2}, {cells / 4, cells - 1}, {cells / 3, cells / 3}};
  EXPECT_EQ(index.BucketsForRanges(overlapping),
            LinearBuckets(index, overlapping));
}

TEST(AirIndexDifferential, BucketLookupsEqualLinearScan) {
  Rng rng(31);
  const hilbert::HilbertGrid grid(kWorld, 5);
  for (const auto& [name, pois] : Datasets(kWorld, &rng)) {
    SCOPED_TRACE(name);
    for (const int capacity : {1, 4, 16}) {
      const AirIndex index(BuildBuckets(pois, grid, capacity), grid, 16);
      ExpectLookupsMatchLinearScan(index, grid, &rng);
    }
  }
  // The empty world's single placeholder bucket [0, 0].
  const AirIndex empty(BuildBuckets({}, grid, 4), grid, 16);
  ASSERT_EQ(empty.bucket_ranges().size(), 1u);
  EXPECT_EQ(empty.BucketsForSpan(0, 0), (std::vector<int64_t>{0}));
  ExpectLookupsMatchLinearScan(empty, grid, &rng);
}

TEST(AirIndexDifferential, ConstructorsRejectDecreasingBucketHi) {
  const hilbert::HilbertGrid grid(kWorld, 5);
  // lo is non-decreasing but hi steps back: not one cut sorted run.
  std::vector<DataBucket> buckets(2);
  buckets[0].id = 0;
  buckets[0].hilbert_lo = 0;
  buckets[0].hilbert_hi = 5;
  buckets[1].id = 1;
  buckets[1].hilbert_lo = 1;
  buckets[1].hilbert_hi = 3;
  EXPECT_DEATH(AirIndex(buckets, grid, 16), "LBSQ_CHECK");
  EXPECT_DEATH(AirIndex({}, {{0, 5}, {1, 3}}, {}, {}, 0.0, grid, 16),
               "LBSQ_CHECK");
}

}  // namespace
}  // namespace lbsq::broadcast
