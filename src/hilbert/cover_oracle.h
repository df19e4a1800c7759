#ifndef LBSQ_HILBERT_COVER_ORACLE_H_
#define LBSQ_HILBERT_COVER_ORACLE_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "hilbert/hilbert.h"

/// \file
/// The enumerate-and-sort cover `HilbertGrid::CoverRect` replaced: encode
/// every cell of the clamped query's cell box, sort, merge runs. O(area *
/// log area) time and O(area) scratch. The library never calls it; it is
/// the differential oracle for the quadrant descent (tests) and the
/// reference it is timed against (benchmarks).

namespace lbsq::hilbert {

/// Clears and fills `*out` with the cover of `query` on `grid` by cell
/// enumeration, using `*cells` as the sort buffer. Same contract and output
/// as HilbertGrid::CoverRect.
inline void CoverRectByEnumeration(const HilbertGrid& grid,
                                   const geom::Rect& query,
                                   std::vector<uint64_t>* cells,
                                   std::vector<IndexRange>* out) {
  out->clear();
  cells->clear();
  const geom::Rect q = query.Intersection(grid.world());
  if (q.empty()) return;
  const CellXY lo = grid.CellOf({q.x1, q.y1});
  const CellXY hi = grid.CellOf({q.x2, q.y2});
  cells->reserve(static_cast<size_t>(hi.x - lo.x + 1) * (hi.y - lo.y + 1));
  for (uint32_t y = lo.y; y <= hi.y; ++y) {
    for (uint32_t x = lo.x; x <= hi.x; ++x) {
      cells->push_back(grid.ToIndex(CellXY{x, y}));
    }
  }
  std::sort(cells->begin(), cells->end());
  for (const uint64_t idx : *cells) {
    if (!out->empty() && out->back().hi + 1 == idx) {
      out->back().hi = idx;
    } else {
      out->push_back(IndexRange{idx, idx});
    }
  }
}

}  // namespace lbsq::hilbert

#endif  // LBSQ_HILBERT_COVER_ORACLE_H_
