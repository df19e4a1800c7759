#include "hilbert/hilbert.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <set>
#include <vector>

#include "common/rng.h"
#include "geom/rect.h"
#include "hilbert/cover_oracle.h"

namespace lbsq::hilbert {
namespace {

TEST(HilbertCurveTest, Order1Layout) {
  // The canonical order-1 curve visits (0,0), (0,1), (1,1), (1,0).
  EXPECT_EQ(XyToIndex(1, {0, 0}), 0u);
  EXPECT_EQ(XyToIndex(1, {0, 1}), 1u);
  EXPECT_EQ(XyToIndex(1, {1, 1}), 2u);
  EXPECT_EQ(XyToIndex(1, {1, 0}), 3u);
}

TEST(HilbertCurveTest, RoundTripSmallOrders) {
  // Exhaustive in both directions: index -> xy -> index over every index,
  // and xy -> index -> xy over every cell of the grid, for orders 1-6
  // (4..4096 cells). Together they prove the mapping is a bijection at
  // these orders, with no reliance on sampling.
  for (int order = 1; order <= 6; ++order) {
    const uint64_t cells = 1ull << (2 * order);
    for (uint64_t d = 0; d < cells; ++d) {
      const CellXY cell = IndexToXy(order, d);
      EXPECT_EQ(XyToIndex(order, cell), d) << "order " << order;
    }
    const uint32_t side = 1u << order;
    for (uint32_t x = 0; x < side; ++x) {
      for (uint32_t y = 0; y < side; ++y) {
        const CellXY cell{x, y};
        EXPECT_EQ(IndexToXy(order, XyToIndex(order, cell)), cell)
            << "order " << order << " cell (" << x << "," << y << ")";
      }
    }
  }
}

TEST(HilbertCurveTest, RoundTripLargeOrderSpotChecks) {
  Rng rng(3);
  const int order = 16;
  for (int i = 0; i < 10000; ++i) {
    const CellXY cell{static_cast<uint32_t>(rng.NextBelow(1u << order)),
                      static_cast<uint32_t>(rng.NextBelow(1u << order))};
    EXPECT_EQ(IndexToXy(order, XyToIndex(order, cell)), cell);
  }
}

TEST(HilbertCurveTest, IsBijectionOrder4) {
  std::set<uint64_t> seen;
  for (uint32_t x = 0; x < 16; ++x) {
    for (uint32_t y = 0; y < 16; ++y) {
      seen.insert(XyToIndex(4, {x, y}));
    }
  }
  EXPECT_EQ(seen.size(), 256u);
  EXPECT_EQ(*seen.rbegin(), 255u);
}

TEST(HilbertCurveTest, ConsecutiveIndexesAreGridNeighbors) {
  // The defining continuity property of the Hilbert curve.
  for (int order = 1; order <= 7; ++order) {
    const uint64_t cells = 1ull << (2 * order);
    CellXY prev = IndexToXy(order, 0);
    for (uint64_t d = 1; d < cells; ++d) {
      const CellXY cur = IndexToXy(order, d);
      const int dx = std::abs(static_cast<int>(cur.x) -
                              static_cast<int>(prev.x));
      const int dy = std::abs(static_cast<int>(cur.y) -
                              static_cast<int>(prev.y));
      EXPECT_EQ(dx + dy, 1) << "order " << order << " d " << d;
      prev = cur;
    }
  }
}

TEST(MortonCurveTest, KnownSmallLayout) {
  // Z-order: index = interleave(y, x) bitwise.
  EXPECT_EQ(MortonXyToIndex(2, {0, 0}), 0u);
  EXPECT_EQ(MortonXyToIndex(2, {1, 0}), 1u);
  EXPECT_EQ(MortonXyToIndex(2, {0, 1}), 2u);
  EXPECT_EQ(MortonXyToIndex(2, {1, 1}), 3u);
  EXPECT_EQ(MortonXyToIndex(2, {2, 0}), 4u);
  EXPECT_EQ(MortonXyToIndex(2, {3, 3}), 15u);
}

TEST(MortonCurveTest, RoundTrip) {
  // Exhaustive in both directions at orders 1-6 (see the Hilbert twin).
  for (int order = 1; order <= 6; ++order) {
    const uint64_t cells = 1ull << (2 * order);
    for (uint64_t d = 0; d < cells; ++d) {
      EXPECT_EQ(MortonXyToIndex(order, MortonIndexToXy(order, d)), d);
    }
    const uint32_t side = 1u << order;
    for (uint32_t x = 0; x < side; ++x) {
      for (uint32_t y = 0; y < side; ++y) {
        const CellXY cell{x, y};
        EXPECT_EQ(MortonIndexToXy(order, MortonXyToIndex(order, cell)), cell)
            << "order " << order << " cell (" << x << "," << y << ")";
      }
    }
  }
}

TEST(MortonCurveTest, RoundTripLargeOrder) {
  Rng rng(5);
  const int order = 16;
  for (int i = 0; i < 5000; ++i) {
    const CellXY cell{static_cast<uint32_t>(rng.NextBelow(1u << order)),
                      static_cast<uint32_t>(rng.NextBelow(1u << order))};
    EXPECT_EQ(MortonIndexToXy(order, MortonXyToIndex(order, cell)), cell);
  }
}

TEST(MortonGridTest, CoverRectExactness) {
  HilbertGrid grid(geom::Rect{0.0, 0.0, 16.0, 16.0}, 4, CurveKind::kMorton);
  Rng rng(19);
  for (int trial = 0; trial < 25; ++trial) {
    const geom::Point a{rng.Uniform(0.0, 15.0), rng.Uniform(0.0, 15.0)};
    const geom::Rect query{a.x, a.y, a.x + rng.Uniform(0.5, 6.0),
                           a.y + rng.Uniform(0.5, 6.0)};
    const auto ranges = grid.CoverRect(query);
    auto covered = [&ranges](uint64_t d) {
      for (const IndexRange& r : ranges) {
        if (d >= r.lo && d <= r.hi) return true;
      }
      return false;
    };
    for (uint64_t d = 0; d < grid.num_cells(); ++d) {
      EXPECT_EQ(covered(d), grid.CellRect(d).Intersects(query));
    }
  }
}

TEST(MortonGridTest, HilbertFragmentsLessThanMorton) {
  // The defining comparison: on average the Hilbert cover of a window
  // consists of fewer contiguous runs than the Morton cover.
  const geom::Rect world{0.0, 0.0, 32.0, 32.0};
  HilbertGrid hilbert(world, 5, CurveKind::kHilbert);
  HilbertGrid morton(world, 5, CurveKind::kMorton);
  Rng rng(23);
  int64_t hilbert_fragments = 0;
  int64_t morton_fragments = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const geom::Point a{rng.Uniform(0.0, 24.0), rng.Uniform(0.0, 24.0)};
    const geom::Rect query{a.x, a.y, a.x + rng.Uniform(2.0, 8.0),
                           a.y + rng.Uniform(2.0, 8.0)};
    hilbert_fragments += static_cast<int64_t>(hilbert.CoverRect(query).size());
    morton_fragments += static_cast<int64_t>(morton.CoverRect(query).size());
  }
  EXPECT_LT(hilbert_fragments, morton_fragments);
}

TEST(HilbertGridTest, CellOfCorners) {
  const geom::Rect world{0.0, 0.0, 8.0, 8.0};
  HilbertGrid grid(world, 3);  // 8x8 cells of size 1
  EXPECT_EQ(grid.CellOf({0.5, 0.5}), (CellXY{0, 0}));
  EXPECT_EQ(grid.CellOf({7.5, 7.5}), (CellXY{7, 7}));
  // The world's max corner clamps into the last cell.
  EXPECT_EQ(grid.CellOf({8.0, 8.0}), (CellXY{7, 7}));
  // Outside points clamp to the border.
  EXPECT_EQ(grid.CellOf({-3.0, 100.0}), (CellXY{0, 7}));
}

TEST(HilbertGridTest, CellRectRoundTrip) {
  const geom::Rect world{-4.0, 2.0, 12.0, 10.0};
  HilbertGrid grid(world, 4);
  for (uint64_t d = 0; d < grid.num_cells(); d += 7) {
    const geom::Rect cell = grid.CellRect(d);
    EXPECT_EQ(grid.IndexOf(cell.center()), d);
  }
}

TEST(HilbertGridTest, CoverRectWholeWorldIsOneRange) {
  HilbertGrid grid(geom::Rect{0.0, 0.0, 1.0, 1.0}, 4);
  const auto ranges = grid.CoverRect(geom::Rect{0.0, 0.0, 1.0, 1.0});
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0].lo, 0u);
  EXPECT_EQ(ranges[0].hi, grid.num_cells() - 1);
}

TEST(HilbertGridTest, CoverRectExactness) {
  // Every cell intersecting the query must be covered by some range, and
  // every range endpoint must correspond to an intersecting cell.
  HilbertGrid grid(geom::Rect{0.0, 0.0, 16.0, 16.0}, 4);
  Rng rng(17);
  for (int trial = 0; trial < 50; ++trial) {
    const geom::Point a{rng.Uniform(0.0, 15.0), rng.Uniform(0.0, 15.0)};
    const geom::Rect query{a.x, a.y, a.x + rng.Uniform(0.5, 6.0),
                           a.y + rng.Uniform(0.5, 6.0)};
    const auto ranges = grid.CoverRect(query);
    auto covered = [&ranges](uint64_t d) {
      for (const IndexRange& r : ranges) {
        if (d >= r.lo && d <= r.hi) return true;
      }
      return false;
    };
    for (uint64_t d = 0; d < grid.num_cells(); ++d) {
      const bool intersects = grid.CellRect(d).Intersects(query);
      EXPECT_EQ(covered(d), intersects) << "cell " << d;
    }
    // Ranges are sorted and non-adjacent (maximally merged).
    for (size_t i = 1; i < ranges.size(); ++i) {
      EXPECT_GT(ranges[i].lo, ranges[i - 1].hi + 1);
    }
  }
}

TEST(HilbertGridTest, CoverRectOutsideWorldIsEmpty) {
  HilbertGrid grid(geom::Rect{0.0, 0.0, 1.0, 1.0}, 3);
  EXPECT_TRUE(grid.CoverRect(geom::Rect{2.0, 2.0, 3.0, 3.0}).empty());
}

TEST(HilbertGridTest, ClusteringBeatsRowMajorOrder) {
  // The locality property the broadcast server relies on (Jagadish; Moon et
  // al.): the cells of a query window form fewer contiguous runs along the
  // Hilbert curve than along a row-major order, so fewer disjoint on-air
  // segments must be retrieved. For a w x h window row-major always needs
  // exactly h runs; Hilbert averages about perimeter/4.
  const int order = 5;
  const uint32_t n = 1u << order;
  auto clusters = [](std::vector<uint64_t> keys) {
    std::sort(keys.begin(), keys.end());
    int runs = keys.empty() ? 0 : 1;
    for (size_t i = 1; i < keys.size(); ++i) {
      if (keys[i] != keys[i - 1] + 1) ++runs;
    }
    return runs;
  };
  double hilbert_total = 0.0;
  double rowmajor_total = 0.0;
  int windows = 0;
  const uint32_t w = 2, h = 8;  // tall windows, the row-major worst case
  for (uint32_t x0 = 0; x0 + w <= n; x0 += 3) {
    for (uint32_t y0 = 0; y0 + h <= n; y0 += 3) {
      std::vector<uint64_t> hilbert_keys;
      std::vector<uint64_t> rowmajor_keys;
      for (uint32_t dx = 0; dx < w; ++dx) {
        for (uint32_t dy = 0; dy < h; ++dy) {
          hilbert_keys.push_back(XyToIndex(order, {x0 + dx, y0 + dy}));
          rowmajor_keys.push_back(static_cast<uint64_t>(x0 + dx) +
                                  static_cast<uint64_t>(y0 + dy) * n);
        }
      }
      hilbert_total += clusters(hilbert_keys);
      rowmajor_total += clusters(rowmajor_keys);
      ++windows;
    }
  }
  EXPECT_LT(hilbert_total / windows, rowmajor_total / windows);
}

// --- Quadrant-descent cover vs the enumerate-and-sort oracle. ---

std::vector<IndexRange> OracleCover(const HilbertGrid& grid,
                                    const geom::Rect& query) {
  std::vector<uint64_t> cells;
  std::vector<IndexRange> ranges;
  CoverRectByEnumeration(grid, query, &cells, &ranges);
  return ranges;
}

constexpr CurveKind kCurves[] = {CurveKind::kHilbert, CurveKind::kMorton};

TEST(CoverDescentTest, EveryCellBoxMatchesOracleThroughOrder5) {
  // Unit cells over [0, 2^order]^2: the query inset a quarter cell from the
  // cell box [x1, x2] x [y1, y2] has exactly that box as its corner cells.
  // Every box of every grid, both curves.
  std::vector<IndexRange> got;
  std::vector<uint64_t> unused;
  int64_t checked = 0;
  for (const CurveKind curve : kCurves) {
    for (int order = 1; order <= 5; ++order) {
      const uint32_t n = 1u << order;
      const HilbertGrid grid(geom::Rect{0.0, 0.0, double(n), double(n)}, order,
                             curve);
      for (uint32_t x1 = 0; x1 < n; ++x1) {
        for (uint32_t x2 = x1; x2 < n; ++x2) {
          for (uint32_t y1 = 0; y1 < n; ++y1) {
            for (uint32_t y2 = y1; y2 < n; ++y2) {
              const geom::Rect query{x1 + 0.25, y1 + 0.25, x2 + 0.75,
                                     y2 + 0.75};
              grid.CoverRect(query, &unused, &got);
              ASSERT_EQ(got, OracleCover(grid, query))
                  << "order " << order << " curve " << int(curve) << " box ["
                  << x1 << "," << x2 << "]x[" << y1 << "," << y2 << "]";
              ++checked;
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(checked, 2 * (9 + 100 + 1296 + 18496 + 278784));
}

TEST(CoverDescentTest, RandomDegenerateAndOutsideRectsMatchOracle) {
  Rng rng(41);
  const geom::Rect world{-3.0, 5.0, 13.0, 9.0};  // non-square, off-origin
  for (const CurveKind curve : kCurves) {
    for (int order = 1; order <= 8; ++order) {
      const HilbertGrid grid(world, order, curve);
      auto coord = [&](double lo, double hi) {
        // Reach well past the world on both sides.
        const double span = hi - lo;
        return rng.Uniform(lo - 0.5 * span, hi + 0.5 * span);
      };
      for (int trial = 0; trial < 1000; ++trial) {
        geom::Point a{coord(world.x1, world.x2), coord(world.y1, world.y2)};
        geom::Point b{coord(world.x1, world.x2), coord(world.y1, world.y2)};
        switch (trial % 4) {
          case 1:
            b = a;  // a point
            break;
          case 2:
            b.y = a.y;  // a horizontal line
            break;
          case 3:
            b.x = a.x;  // a vertical line
            break;
          default:
            break;
        }
        const geom::Rect query = geom::Rect::FromCorners(a, b);
        ASSERT_EQ(grid.CoverRect(query), OracleCover(grid, query))
            << "order " << order << " trial " << trial;
      }
      // Outside the world on every side, and the whole world and beyond.
      for (const geom::Rect& query :
           {geom::Rect{-9.0, 5.0, -3.5, 9.0}, geom::Rect{13.5, 5.0, 20.0, 9.0},
            geom::Rect{-3.0, 0.0, 13.0, 4.9}, geom::Rect{-3.0, 9.1, 13.0, 20.0},
            world, geom::Rect{-100.0, -100.0, 100.0, 100.0}}) {
        const std::vector<IndexRange> got = grid.CoverRect(query);
        ASSERT_EQ(got, OracleCover(grid, query)) << "order " << order;
        if (world.Intersects(query)) {
          ASSERT_EQ(got.size(), 1u);
          EXPECT_EQ(got[0], (IndexRange{0, grid.num_cells() - 1}));
        } else {
          EXPECT_TRUE(got.empty());
        }
      }
    }
  }
}

TEST(CoverDescentTest, WholeWorldAtOrder31IsOneRange) {
  // 2^62 cells: enumeration could never finish; the descent emits the root.
  for (const CurveKind curve : kCurves) {
    const HilbertGrid grid(geom::Rect{0.0, 0.0, 1.0, 1.0}, 31, curve);
    const std::vector<IndexRange> got =
        grid.CoverRect(geom::Rect{-1.0, -1.0, 2.0, 2.0});
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0], (IndexRange{0, (uint64_t{1} << 62) - 1}));
  }
}

TEST(CoverDescentTest, OneCellStripAtOrder20IsFastAndExact) {
  // A strip one cell thick across the whole world: 2^20 cells to enumerate,
  // O(order) quads per cell of perimeter for the descent.
  const int order = 20;
  const double n = double(1u << order);
  for (const CurveKind curve : kCurves) {
    const HilbertGrid grid(geom::Rect{0.0, 0.0, n, n}, order, curve);
    const geom::Rect strip{0.0, 777.25, n, 777.75};
    const auto start = std::chrono::steady_clock::now();
    const std::vector<IndexRange> got = grid.CoverRect(strip);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    // The output alone is ~2^19 ranges (tens of ms in an optimized build);
    // the bound leaves room for sanitizer builds. Enumeration would encode
    // and sort 2^20 cells.
    EXPECT_LT(ms, 2000.0);
    uint64_t cells = 0;
    for (size_t i = 0; i < got.size(); ++i) {
      cells += got[i].hi - got[i].lo + 1;
      if (i > 0) {
        EXPECT_GT(got[i].lo, got[i - 1].hi + 1);
      }
    }
    EXPECT_EQ(cells, uint64_t{1} << order);
    // Disjoint ranges holding 2^order cells, each in row 777: exactly the
    // strip.
    for (const IndexRange& r : got) {
      for (uint64_t d = r.lo; d <= r.hi; ++d) {
        ASSERT_EQ(grid.ToXy(d).y, 777u);
      }
    }
  }
}

}  // namespace
}  // namespace lbsq::hilbert
