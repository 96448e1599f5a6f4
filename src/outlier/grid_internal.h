// Shared internals of the two fixed-radius grid passes: the exact
// detector's cell list (cell_list.cc) and the approximate detector's
// candidate grid in the verify pass (kde_detector.cc).
//
// Both rest on one claim (DESIGN.md §16): over a bounding box binned with
// side radius * (1 + 2^-20), every pair the kd-tree's exact comparison can
// count (data::SquaredL2 <= r*r for L2, data::Distance <= r for L1 and
// Linf) lies in the same or adjacent cells on every axis. So the 3^d block
// around a point's cell holds all of its in-radius partners, and a point
// whose cell lies more than one cell outside the box on some axis has none
// inside the box.
//
// Why the side inflation makes that hold under COMPUTED comparisons: if the
// comparison can count a pair, its computed per-axis gap is at most
// radius * (1 + O(eps)). With the inflated side, the pair's scaled
// coordinates differ by less than 1 - 2^-21 before rounding, while the
// rounding error of floor((x - lo) * inv_side) is a few ulps of the scaled
// coordinate — at most ~2^-28 given the kMaxGridCells cap, which bounds
// every axis too — leaving the margin intact. floor(u_a) - floor(u_b) <= 1
// then follows from u_a - u_b < 1. Rounding is monotone, so the claim also
// covers a point outside the box: one in reach of a point inside it is
// within ~radius of the box, where the same error bound applies.
//
// The argument needs the radius's square to be a normal, finite double. A
// squared radius that underflows makes L2 count pairs whose squared gap
// underflows too, however many cells apart they are; one that overflows
// counts pairs at any distance. The same range keeps the side and its
// inverse normal and finite, and (x - lo) finite for every point in reach,
// under L1 and Linf too. GridServes() rejects the radii outside it, and
// zero; the callers count such inputs with a kd-tree instead.

#ifndef DBS_OUTLIER_GRID_INTERNAL_H_
#define DBS_OUTLIER_GRID_INTERNAL_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "data/bounds.h"

namespace dbs::outlier::internal {

constexpr double kSideInflate = 1.0 + 0x1p-20;

// Dimensions above this take the kd-tree: the 3^d block and the grid itself
// grow exponentially with d.
constexpr int kMaxGridDim = 6;

// Upper bound on allocated grid bins; boxes needing more (tiny radius,
// extreme aspect ratio, an infinite coordinate) take the kd-tree. It also
// backs the error budget above and keeps the flat index math far from
// int64 overflow.
constexpr int64_t kMaxGridCells = int64_t{1} << 21;

// True when a grid can serve `radius` in `dim` dimensions: a positive
// radius whose square is a normal, finite double, and at most kMaxGridDim
// axes. The box still has to fit kMaxGridCells.
inline bool GridServes(double radius, int dim) {
  const double squared = radius * radius;
  return radius > 0 && squared >= std::numeric_limits<double>::min() &&
         squared <= std::numeric_limits<double>::max() && dim <= kMaxGridDim;
}

struct GridGeometry {
  int dim = 0;
  int64_t total_cells = 0;
  std::vector<int64_t> cells;    // per-dimension cell counts
  std::vector<int64_t> strides;  // row-major strides over `cells`
  std::vector<double> lo;        // bounding-box lower corner
  double inv_side = 0.0;
};

// Bins `box` with side radius * kSideInflate: floor(extent / side) + 1
// cells per axis. Returns false when that needs more than kMaxGridCells
// bins (an infinite or NaN extent included).
inline bool MakeGridGeometry(const data::BoundingBox& box, double radius,
                             GridGeometry* geo) {
  const int dim = box.dim();
  geo->dim = dim;
  geo->inv_side = 1.0 / (radius * kSideInflate);
  geo->lo.assign(box.lo().begin(), box.lo().end());
  geo->cells.resize(static_cast<size_t>(dim));
  int64_t total = 1;
  for (int j = 0; j < dim; ++j) {
    // Compare before casting: extent / side can exceed what int64 holds.
    const double t = std::floor(box.extent(j) * geo->inv_side);
    if (!(t < static_cast<double>(kMaxGridCells))) return false;
    const int64_t cells_j = (t > 0.0 ? static_cast<int64_t>(t) : 0) + 1;
    if (total > kMaxGridCells / cells_j) return false;
    total *= cells_j;
    geo->cells[static_cast<size_t>(j)] = cells_j;
  }
  geo->total_cells = total;
  geo->strides.resize(static_cast<size_t>(dim));
  int64_t stride = 1;
  for (int j = dim - 1; j >= 0; --j) {
    geo->strides[static_cast<size_t>(j)] = stride;
    stride *= geo->cells[static_cast<size_t>(j)];
  }
  return true;
}

// The unclamped cell index of coordinate x along an axis, as a double:
// negative or past the last cell for points outside the box, NaN for NaN.
inline double ScaledFloor(double x, double lo, double inv_side) {
  return std::floor((x - lo) * inv_side);
}

// Maps a coordinate of a point the box covers to its cell index along one
// axis. The clamp is defensive: monotone rounding already keeps the value
// inside [0, cells_j - 1] for any point the bounding box covers.
inline int64_t CellCoord(double x, double lo, double inv_side,
                         int64_t cells_j) {
  const double u = ScaledFloor(x, lo, inv_side);
  if (!(u > 0.0)) return 0;
  const int64_t c = static_cast<int64_t>(u);
  return c < cells_j ? c : cells_j - 1;
}

// Flat cell id of a point the box covers.
inline int64_t FlatCell(const GridGeometry& geo, const double* x) {
  int64_t flat = 0;
  for (int j = 0; j < geo.dim; ++j) {
    const size_t a = static_cast<size_t>(j);
    flat += CellCoord(x[j], geo.lo[a], geo.inv_side, geo.cells[a]) *
            geo.strides[a];
  }
  return flat;
}

// Per-axis cell coordinates of flat cell `flat`.
inline void CellCoords(const GridGeometry& geo, int64_t flat,
                       int64_t* coord) {
  for (int j = 0; j < geo.dim; ++j) {
    coord[j] = flat / geo.strides[static_cast<size_t>(j)];
    flat %= geo.strides[static_cast<size_t>(j)];
  }
}

// Calls fn(first, last) once for each run of in-grid cells of the 3^d block
// around the cell at `coord` that are consecutive along the last axis —
// flat ids first..last, at most three cells — with the offsets on the
// other axes (-1..1 each) in lexicographic order, so the runs' cells taken
// in ascending order walk the block in lexicographic offset order. `coord`
// may lie one cell outside the grid on any axis; cells past the grid's
// edge are left out. `offset` holds dim working slots.
template <typename Fn>
void ForEachBlockRun(const GridGeometry& geo, const int64_t* coord,
                     int64_t* offset, Fn&& fn) {
  const int last = geo.dim - 1;
  const int64_t lo = std::max<int64_t>(coord[last] - 1, 0);
  const int64_t hi = std::min<int64_t>(
      coord[last] + 1, geo.cells[static_cast<size_t>(last)] - 1);
  if (lo > hi) return;
  int64_t base = lo;  // the last axis has stride 1
  for (int j = 0; j < last; ++j) {
    base += coord[j] * geo.strides[static_cast<size_t>(j)];
    offset[j] = -1;
  }
  for (;;) {
    bool valid = true;
    int64_t first = base;
    for (int j = 0; j < last; ++j) {
      const int64_t o = offset[j];
      const int64_t c = coord[j] + o;
      if (c < 0 || c >= geo.cells[static_cast<size_t>(j)]) {
        valid = false;
        break;
      }
      first += o * geo.strides[static_cast<size_t>(j)];
    }
    if (valid) fn(first, first + (hi - lo));
    int j = last - 1;
    while (j >= 0 && offset[j] == 1) {
      offset[j] = -1;
      --j;
    }
    if (j < 0) break;
    ++offset[j];
  }
}

}  // namespace dbs::outlier::internal

#endif  // DBS_OUTLIER_GRID_INTERNAL_H_
