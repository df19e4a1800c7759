#ifndef LBSQ_HILBERT_HILBERT_H_
#define LBSQ_HILBERT_HILBERT_H_

#include <cstdint>
#include <vector>

#include "geom/point.h"
#include "geom/rect.h"

/// \file
/// Hilbert space-filling curve. The broadcast server linearizes the POI set
/// in Hilbert order (Zheng et al.; Jagadish for the locality analysis), so
/// packets holding spatially close objects are close on the broadcast cycle.

namespace lbsq::hilbert {

/// Cell coordinates on the 2^order x 2^order Hilbert grid.
struct CellXY {
  uint32_t x = 0;
  uint32_t y = 0;

  friend bool operator==(CellXY a, CellXY b) { return a.x == b.x && a.y == b.y; }
};

/// Converts cell coordinates to the Hilbert index (distance along the curve)
/// for a curve of the given order. Requires x, y < 2^order and order <= 31.
uint64_t XyToIndex(int order, CellXY cell);

/// Converts a Hilbert index back to cell coordinates. Requires
/// index < 4^order.
CellXY IndexToXy(int order, uint64_t index);

/// Morton (Z-order) curve: bit interleaving. Provided as the classic
/// alternative linearization so the locality advantage of the Hilbert curve
/// (the reason Zheng et al. chose it for the air index) can be measured
/// rather than asserted. Same domain contracts as the Hilbert functions.
uint64_t MortonXyToIndex(int order, CellXY cell);
CellXY MortonIndexToXy(int order, uint64_t index);

/// Which space-filling curve a grid linearizes with.
enum class CurveKind {
  kHilbert,
  kMorton,
};

/// A half-open interval [lo, hi] of Hilbert indexes (inclusive bounds).
struct IndexRange {
  uint64_t lo = 0;
  uint64_t hi = 0;

  friend bool operator==(const IndexRange& a, const IndexRange& b) {
    return a.lo == b.lo && a.hi == b.hi;
  }
};

/// Maps a rectangular world domain onto the Hilbert grid and back. All
/// spatial-to-curve conversions in the broadcast stack go through this class.
class HilbertGrid {
 public:
  /// Curve of `order` over `world` (must be non-empty; order in [1, 31]).
  /// `curve` selects the linearization (Hilbert by default).
  HilbertGrid(const geom::Rect& world, int order,
              CurveKind curve = CurveKind::kHilbert);

  /// Curve order.
  int order() const { return order_; }
  /// The linearization in use.
  CurveKind curve() const { return curve_; }
  /// Cells per axis (2^order).
  uint32_t cells_per_axis() const { return cells_; }
  /// Total number of cells (4^order).
  uint64_t num_cells() const {
    return static_cast<uint64_t>(cells_) * cells_;
  }
  /// The world domain.
  const geom::Rect& world() const { return world_; }

  /// Cell containing `p` (points outside the world clamp to the border).
  CellXY CellOf(geom::Point p) const;

  /// Curve index of the cell containing `p`.
  uint64_t IndexOf(geom::Point p) const { return ToIndex(CellOf(p)); }

  /// Curve index of a cell / cell of a curve index under the configured
  /// linearization.
  uint64_t ToIndex(CellXY cell) const;
  CellXY ToXy(uint64_t index) const;

  /// World-space rectangle covered by the cell with the given index.
  geom::Rect CellRect(uint64_t index) const;

  /// World-space rectangle of cell (x, y).
  geom::Rect CellRect(CellXY cell) const;

  /// Minimal sorted list of Hilbert index ranges whose cells together cover
  /// every cell intersecting `query` (adjacent/overlapping ranges merged).
  /// This is the "search-space partition" retrieval set of the on-air window
  /// query; the single [min, max] span of the basic algorithm is the hull of
  /// the returned ranges.
  ///
  /// Cost: output-sensitive. The cover descends the curve's quadrant tree:
  /// a quad inside `query` emits its whole contiguous index run, a disjoint
  /// one is skipped, and only quads straddling the boundary recurse. That is
  /// O(perimeter * order) work in cells with O(order) stack, whatever the
  /// area — a whole-world cover is one range at any order. Both curves use
  /// the same descent.
  std::vector<IndexRange> CoverRect(const geom::Rect& query) const;

  /// Allocation-free variant: clears and fills `*out` (same content as the
  /// returning overload); `*out` keeps its capacity across calls.
  void CoverRect(const geom::Rect& query, std::vector<IndexRange>* out) const;

  /// As above. `scratch` is unused: the descent needs no per-cell buffer.
  /// Kept so callers written against the enumerating cover still compile.
  void CoverRect(const geom::Rect& query, std::vector<uint64_t>* scratch,
                 std::vector<IndexRange>* out) const;

 private:
  geom::Rect world_;
  int order_;
  CurveKind curve_;
  uint32_t cells_;
  double cell_w_;
  double cell_h_;
};

}  // namespace lbsq::hilbert

#endif  // LBSQ_HILBERT_HILBERT_H_
