#include "hilbert/hilbert.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/check.h"

namespace lbsq::hilbert {

namespace {

// Rotates/flips a quadrant so the curve orientation is canonical.
void Rot(uint32_t n, uint32_t* x, uint32_t* y, uint32_t rx, uint32_t ry) {
  if (ry == 0) {
    if (rx == 1) {
      *x = n - 1 - *x;
      *y = n - 1 - *y;
    }
    std::swap(*x, *y);
  }
}

}  // namespace

uint64_t XyToIndex(int order, CellXY cell) {
  LBSQ_CHECK(order >= 1 && order <= 31);
  const uint32_t n = 1u << order;
  LBSQ_CHECK(cell.x < n && cell.y < n);
  uint32_t x = cell.x;
  uint32_t y = cell.y;
  uint64_t d = 0;
  for (uint32_t s = n / 2; s > 0; s /= 2) {
    const uint32_t rx = (x & s) > 0 ? 1 : 0;
    const uint32_t ry = (y & s) > 0 ? 1 : 0;
    d += static_cast<uint64_t>(s) * s * ((3 * rx) ^ ry);
    Rot(n, &x, &y, rx, ry);
  }
  return d;
}

CellXY IndexToXy(int order, uint64_t index) {
  LBSQ_CHECK(order >= 1 && order <= 31);
  const uint32_t n = 1u << order;
  LBSQ_CHECK(index < (static_cast<uint64_t>(n) * n));
  uint32_t x = 0;
  uint32_t y = 0;
  uint64_t t = index;
  for (uint32_t s = 1; s < n; s *= 2) {
    const uint32_t rx = static_cast<uint32_t>(1 & (t / 2));
    const uint32_t ry = static_cast<uint32_t>(1 & (t ^ rx));
    Rot(s, &x, &y, rx, ry);
    x += s * rx;
    y += s * ry;
    t /= 4;
  }
  return CellXY{x, y};
}

uint64_t MortonXyToIndex(int order, CellXY cell) {
  LBSQ_CHECK(order >= 1 && order <= 31);
  const uint32_t n = 1u << order;
  LBSQ_CHECK(cell.x < n && cell.y < n);
  uint64_t result = 0;
  for (int bit = 0; bit < order; ++bit) {
    result |= static_cast<uint64_t>((cell.x >> bit) & 1u) << (2 * bit);
    result |= static_cast<uint64_t>((cell.y >> bit) & 1u) << (2 * bit + 1);
  }
  return result;
}

CellXY MortonIndexToXy(int order, uint64_t index) {
  LBSQ_CHECK(order >= 1 && order <= 31);
  LBSQ_CHECK(index < (1ull << (2 * order)));
  CellXY cell;
  for (int bit = 0; bit < order; ++bit) {
    cell.x |= static_cast<uint32_t>((index >> (2 * bit)) & 1u) << bit;
    cell.y |= static_cast<uint32_t>((index >> (2 * bit + 1)) & 1u) << bit;
  }
  return cell;
}

HilbertGrid::HilbertGrid(const geom::Rect& world, int order, CurveKind curve)
    : world_(world), order_(order), curve_(curve), cells_(1u << order) {
  LBSQ_CHECK(!world.empty());
  LBSQ_CHECK(order >= 1 && order <= 31);
  cell_w_ = world.width() / static_cast<double>(cells_);
  cell_h_ = world.height() / static_cast<double>(cells_);
  LBSQ_CHECK(cell_w_ > 0.0 && cell_h_ > 0.0);
}

CellXY HilbertGrid::CellOf(geom::Point p) const {
  auto clamp_cell = [this](double v) {
    const int64_t c = static_cast<int64_t>(std::floor(v));
    return static_cast<uint32_t>(
        std::clamp<int64_t>(c, 0, static_cast<int64_t>(cells_) - 1));
  };
  return CellXY{clamp_cell((p.x - world_.x1) / cell_w_),
                clamp_cell((p.y - world_.y1) / cell_h_)};
}

uint64_t HilbertGrid::ToIndex(CellXY cell) const {
  return curve_ == CurveKind::kHilbert ? XyToIndex(order_, cell)
                                       : MortonXyToIndex(order_, cell);
}

CellXY HilbertGrid::ToXy(uint64_t index) const {
  return curve_ == CurveKind::kHilbert ? IndexToXy(order_, index)
                                       : MortonIndexToXy(order_, index);
}

geom::Rect HilbertGrid::CellRect(uint64_t index) const {
  return CellRect(ToXy(index));
}

geom::Rect HilbertGrid::CellRect(CellXY cell) const {
  const double x = world_.x1 + cell_w_ * static_cast<double>(cell.x);
  const double y = world_.y1 + cell_h_ * static_cast<double>(cell.y);
  return geom::Rect{x, y, x + cell_w_, y + cell_h_};
}

namespace {

// Appends [lo, hi] to `*out`, merging it into the last range when adjacent.
// Descent emits ranges in ascending curve order, so this yields the
// maximally merged sorted list directly.
inline void Emit(uint64_t lo, uint64_t hi, std::vector<IndexRange>* out) {
  if (!out->empty() && out->back().hi + 1 == lo) {
    out->back().hi = hi;
  } else {
    out->push_back(IndexRange{lo, hi});
  }
}

// Hilbert orientation of a quad: bit 0 = axes swapped, bit 1 = both axes
// reflected. These are the transforms `Rot` composes (reflect-then-swap for
// quadrant (1, 0), swap for (0, 0)); they commute and are involutions, so
// composing orientations is XOR. Child `d` of a quad in orientation `o`
// (the d-th quadrant along the curve) sits at actual quadrant
// kHilbertQuad[o][d] (bit 0 = x half, bit 1 = y half) and has orientation
// kHilbertNext[o][d].
constexpr uint8_t kHilbertQuad[4][4] = {
    {0, 2, 3, 1}, {0, 1, 3, 2}, {3, 1, 0, 2}, {3, 2, 0, 1}};
constexpr uint8_t kHilbertNext[4][4] = {
    {1, 0, 0, 3}, {0, 1, 1, 2}, {3, 2, 2, 1}, {2, 3, 3, 0}};

// The inclusive cell box a cover descends over.
struct CellBox {
  uint32_t x1, y1, x2, y2;
};

// Visits the children of the partly covered quad of side 2^level at cell
// (x, y), whose cells are the curve run starting at `base`, in curve order:
// a disjoint child is skipped, a contained one emits its whole run, a
// straddling one recurses. Only quads meeting the box's boundary recurse,
// so the work is O(perimeter * order) in cells, independent of area.
template <CurveKind kCurve>
void Descend(const CellBox& box, uint32_t x, uint32_t y, int level,
             uint64_t base, unsigned orient, std::vector<IndexRange>* out) {
  const int child = level - 1;
  const uint32_t half = 1u << child;
  const uint64_t quarter = uint64_t{1} << (2 * child);
  for (unsigned d = 0; d < 4; ++d) {
    const unsigned quad =
        kCurve == CurveKind::kHilbert ? kHilbertQuad[orient][d] : d;
    const uint32_t cx = x + ((quad & 1u) != 0 ? half : 0);
    const uint32_t cy = y + ((quad & 2u) != 0 ? half : 0);
    const uint32_t cx2 = cx + (half - 1);
    const uint32_t cy2 = cy + (half - 1);
    if (cx2 < box.x1 || cx > box.x2 || cy2 < box.y1 || cy > box.y2) continue;
    const uint64_t lo = base + d * quarter;
    if (cx >= box.x1 && cx2 <= box.x2 && cy >= box.y1 && cy2 <= box.y2) {
      Emit(lo, lo + (quarter - 1), out);
    } else {
      Descend<kCurve>(
          box, cx, cy, child, lo,
          kCurve == CurveKind::kHilbert ? kHilbertNext[orient][d] : 0, out);
    }
  }
}

// Cover of the non-empty cell box on a curve of `order`: walks straight down
// to the smallest quad holding the whole box (one quadrant per level, as
// XyToIndex does), then descends from there.
template <CurveKind kCurve>
void CoverBox(int order, const CellBox& box, std::vector<IndexRange>* out) {
  const uint32_t spread = (box.x1 ^ box.x2) | (box.y1 ^ box.y2);
  const int top = spread == 0 ? 0 : std::bit_width(spread);
  uint32_t x = 0;
  uint32_t y = 0;
  uint64_t base = 0;
  unsigned orient = 0;
  for (int level = order; level > top; --level) {
    const int child = level - 1;
    const unsigned quad =
        ((box.x1 >> child) & 1u) | (((box.y1 >> child) & 1u) << 1);
    unsigned d = 0;
    if constexpr (kCurve == CurveKind::kHilbert) {
      while (kHilbertQuad[orient][d] != quad) ++d;
    } else {
      d = quad;
    }
    x |= (quad & 1u) << child;
    y |= ((quad >> 1) & 1u) << child;
    base += d * (uint64_t{1} << (2 * child));
    if constexpr (kCurve == CurveKind::kHilbert) orient = kHilbertNext[orient][d];
  }
  const uint64_t cells = uint64_t{1} << (2 * top);
  if (top == 0 || (x == box.x1 && y == box.y1 &&
                   box.x2 - box.x1 == (1u << top) - 1 &&
                   box.y2 - box.y1 == (1u << top) - 1)) {
    Emit(base, base + (cells - 1), out);
    return;
  }
  Descend<kCurve>(box, x, y, top, base, orient, out);
}

}  // namespace

std::vector<IndexRange> HilbertGrid::CoverRect(const geom::Rect& query) const {
  std::vector<IndexRange> ranges;
  CoverRect(query, &ranges);
  return ranges;
}

void HilbertGrid::CoverRect(const geom::Rect& query,
                            std::vector<uint64_t>* /*scratch*/,
                            std::vector<IndexRange>* out) const {
  CoverRect(query, out);
}

void HilbertGrid::CoverRect(const geom::Rect& query,
                            std::vector<IndexRange>* out) const {
  LBSQ_CHECK(out != nullptr);
  out->clear();
  const geom::Rect q = query.Intersection(world_);
  if (q.empty()) return;
  const CellXY lo = CellOf({q.x1, q.y1});
  const CellXY hi = CellOf({q.x2, q.y2});
  const CellBox box{lo.x, lo.y, hi.x, hi.y};
  if (curve_ == CurveKind::kHilbert) {
    CoverBox<CurveKind::kHilbert>(order_, box, out);
  } else {
    CoverBox<CurveKind::kMorton>(order_, box, out);
  }
}

}  // namespace lbsq::hilbert
