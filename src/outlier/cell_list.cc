#include "outlier/cell_list.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "data/bounds.h"
#include "data/distance.h"
#include "data/kd_tree.h"
#include "parallel/batch_executor.h"

namespace dbs::outlier {
namespace {

// The grid must never split a within-radius pair across non-adjacent cells,
// or the 3^d neighborhood stops being a candidate superset and the report
// diverges from the oracle's. The bin side is therefore inflated a hair
// past the radius: with side = radius * (1 + 2^-20), a pair the kernel can
// count (computed per-axis gap <= radius * (1 + O(eps))) maps to scaled
// coordinates less than 1 - 2^-21 apart before rounding, while the rounding
// error of floor((x - lo) * inv_side) is bounded by a few ulps of the cell
// coordinate — at most ~2^-28 given the kMaxGridCells cap below, which
// bounds every axis too — leaving the margin intact. floor(u_a) -
// floor(u_b) <= 1 then follows from u_a - u_b < 1.
constexpr double kSideInflate = 1.0 + 0x1p-20;

// Dimensions above this take the kd-tree fallback: the 3^d neighborhood and
// the grid itself grow exponentially with d.
constexpr int kMaxGridDim = 6;

// Upper bound on allocated grid bins; boxes needing more (tiny radius or
// extreme aspect ratio) take the kd-tree fallback. It also backs the error
// budget above and keeps the flat index math far from int64 overflow.
constexpr int64_t kMaxGridCells = int64_t{1} << 21;

// Tile positions scanned between early-abort checks; also the vectorization
// width of the SoA kernel's per-axis inner loop.
constexpr int kBlock = 64;

// How a cell was classified by the whole-cell rules (per-cell stat slot;
// written by exactly one shard, summed sequentially afterwards).
enum class CellClass : unsigned char { kScanned = 0, kDense, kSparse };

struct Grid {
  int dim = 0;
  int64_t total_cells = 0;
  std::vector<int64_t> cells;    // per-dimension cell counts
  std::vector<int64_t> strides;  // row-major strides over `cells`
  std::vector<double> lo;        // bounding-box lower corner
  double inv_side = 0.0;
  // CSR layout: positions [start[c], start[c+1]) of `point_at_pos` hold the
  // (ascending) point indices resident in flat cell c.
  std::vector<int64_t> start;
  std::vector<int64_t> point_at_pos;
  // Axis-major SoA mirror of the points in position order: coordinate j of
  // the point at position pos lives at soa[j * n + pos], so each cell's
  // tile is contiguous per axis and the kernel's inner loop is unit-stride.
  std::vector<double> soa;
  std::vector<int64_t> occupied;  // flat ids of non-empty cells, ascending
};

// Maps a coordinate to its cell index along dimension j. The clamp is
// defensive: monotone rounding already keeps the value inside
// [0, cells_j - 1] for any point the bounding box covers.
int64_t CellCoord(double x, double lo, double inv_side, int64_t cells_j) {
  double u = std::floor((x - lo) * inv_side);
  if (!(u > 0.0)) return 0;
  int64_t c = static_cast<int64_t>(u);
  return c < cells_j ? c : cells_j - 1;
}

// Builds the grid, or returns false when the input needs more than
// kMaxGridCells bins (tiny radius or extreme aspect ratio) and the caller
// should take the kd-tree fallback instead.
bool BuildGrid(const data::PointSet& points, double radius, Grid* grid) {
  const int64_t n = points.size();
  const int dim = points.dim();
  data::BoundingBox box(dim);
  for (int64_t i = 0; i < n; ++i) box.Extend(points[i]);

  const double side = radius * kSideInflate;
  grid->dim = dim;
  grid->inv_side = 1.0 / side;
  grid->lo.assign(box.lo().begin(), box.lo().end());
  grid->cells.resize(static_cast<size_t>(dim));
  int64_t total = 1;
  for (int j = 0; j < dim; ++j) {
    // Compare before casting: extent / side can exceed what int64 holds.
    double t = std::floor(box.extent(j) * grid->inv_side);
    if (!(t < static_cast<double>(kMaxGridCells))) return false;
    int64_t cells_j = (t > 0.0 ? static_cast<int64_t>(t) : 0) + 1;
    if (total > kMaxGridCells / cells_j) return false;
    total *= cells_j;
    grid->cells[static_cast<size_t>(j)] = cells_j;
  }
  grid->total_cells = total;
  grid->strides.resize(static_cast<size_t>(dim));
  int64_t stride = 1;
  for (int j = dim - 1; j >= 0; --j) {
    grid->strides[static_cast<size_t>(j)] = stride;
    stride *= grid->cells[static_cast<size_t>(j)];
  }

  // Counting sort by flat cell id, stable in ascending point index so tile
  // scan order — and with it the prune statistics — is deterministic.
  std::vector<int64_t> cell_of(static_cast<size_t>(n));
  grid->start.assign(static_cast<size_t>(total) + 1, 0);
  for (int64_t i = 0; i < n; ++i) {
    const data::PointView p = points[i];
    int64_t flat = 0;
    for (int j = 0; j < dim; ++j) {
      flat += CellCoord(p[j], grid->lo[static_cast<size_t>(j)],
                        grid->inv_side, grid->cells[static_cast<size_t>(j)]) *
              grid->strides[static_cast<size_t>(j)];
    }
    cell_of[static_cast<size_t>(i)] = flat;
    ++grid->start[static_cast<size_t>(flat) + 1];
  }
  for (int64_t c = 0; c < total; ++c) {
    if (grid->start[static_cast<size_t>(c) + 1] > 0) {
      grid->occupied.push_back(c);
    }
    grid->start[static_cast<size_t>(c) + 1] +=
        grid->start[static_cast<size_t>(c)];
  }
  grid->point_at_pos.resize(static_cast<size_t>(n));
  grid->soa.resize(static_cast<size_t>(n) * static_cast<size_t>(dim));
  std::vector<int64_t> cursor(grid->start.begin(), grid->start.end() - 1);
  for (int64_t i = 0; i < n; ++i) {
    const int64_t pos = cursor[static_cast<size_t>(cell_of[static_cast<size_t>(i)])]++;
    grid->point_at_pos[static_cast<size_t>(pos)] = i;
    const data::PointView p = points[i];
    for (int j = 0; j < dim; ++j) {
      grid->soa[static_cast<size_t>(j) * static_cast<size_t>(n) +
                static_cast<size_t>(pos)] = p[j];
    }
  }
  return true;
}

// True when every pair inside the cell is within `radius` under the exact
// floating-point comparison the kernel (and the oracle) uses. The bound is
// the cell's REALIZED per-axis extents pushed through the same expression
// shapes as the distance code: computed |a_j - b_j| <= computed
// (max_j - min_j) by monotonicity of rounding, and the per-axis bounds
// combine through the identical ascending-axis accumulation, so
// computed distance(a, b) <= computed bound without any tolerance term.
bool CellDiameterWithinRadius(const double* ext, int dim, data::Metric metric,
                              double radius) {
  switch (metric) {
    case data::Metric::kL2: {
      double sum = 0.0;
      for (int j = 0; j < dim; ++j) sum += ext[j] * ext[j];
      return sum <= radius * radius;
    }
    case data::Metric::kL1: {
      double sum = 0.0;
      for (int j = 0; j < dim; ++j) sum += ext[j];
      return sum <= radius;
    }
    case data::Metric::kLinf: {
      double best = 0.0;
      for (int j = 0; j < dim; ++j) best = std::max(best, ext[j]);
      return best <= radius;
    }
  }
  return false;
}

// Counts tile positions within `radius` of `query`, adding the number of
// positions actually examined to *pairwise. Blockwise: the per-axis inner
// loops are branch-free and unit-stride over the SoA tile, with the early
// abort checked between blocks (`stop` = p + 2 counting the query itself;
// overshooting within a block only ever affects non-outliers, which the
// report omits). Each position's accumulation visits axes in ascending
// order with its own accumulator — floating-point identical to
// data::SquaredL2 / data::Distance on that pair.
int64_t ScanTile(const double* soa, int64_t n, int dim, int64_t tile_begin,
                 int64_t tile_end, const double* query, data::Metric metric,
                 double threshold, int64_t stop, int64_t count,
                 int64_t* pairwise) {
  double acc[kBlock];
  for (int64_t t0 = tile_begin; t0 < tile_end; t0 += kBlock) {
    const int blk = static_cast<int>(std::min<int64_t>(kBlock, tile_end - t0));
    switch (metric) {
      case data::Metric::kL2:
        for (int t = 0; t < blk; ++t) acc[t] = 0.0;
        for (int j = 0; j < dim; ++j) {
          const double qj = query[j];
          const double* col = soa + static_cast<size_t>(j) * static_cast<size_t>(n) +
                              static_cast<size_t>(t0);
          for (int t = 0; t < blk; ++t) {
            const double diff = qj - col[t];
            acc[t] += diff * diff;
          }
        }
        break;
      case data::Metric::kL1:
        for (int t = 0; t < blk; ++t) acc[t] = 0.0;
        for (int j = 0; j < dim; ++j) {
          const double qj = query[j];
          const double* col = soa + static_cast<size_t>(j) * static_cast<size_t>(n) +
                              static_cast<size_t>(t0);
          for (int t = 0; t < blk; ++t) acc[t] += std::abs(qj - col[t]);
        }
        break;
      case data::Metric::kLinf:
        for (int t = 0; t < blk; ++t) acc[t] = 0.0;
        for (int j = 0; j < dim; ++j) {
          const double qj = query[j];
          const double* col = soa + static_cast<size_t>(j) * static_cast<size_t>(n) +
                              static_cast<size_t>(t0);
          for (int t = 0; t < blk; ++t) {
            acc[t] = std::max(acc[t], std::abs(qj - col[t]));
          }
        }
        break;
    }
    int hits = 0;
    for (int t = 0; t < blk; ++t) hits += acc[t] <= threshold ? 1 : 0;
    count += hits;
    *pairwise += blk;
    if (count >= stop) return count;
  }
  return count;
}

// Grid counting pass: writes every point's neighbors-excluding-self into its
// slot of `neighbor_counts` — exact up to p, and some value above p once
// the early abort fires. Each point lives in exactly one cell, so the slots
// are disjoint and the per-cell pass shards freely.
[[nodiscard]] Status CountOnGrid(const data::PointSet& points,
                                 const DbOutlierParams& params, int64_t p,
                                 const Grid& grid,
                                 parallel::BatchExecutor* executor,
                                 CellListStats* stats_out,
                                 int64_t* neighbor_counts) {
  const int64_t n = points.size();
  const int dim = points.dim();
  const int64_t num_occupied = static_cast<int64_t>(grid.occupied.size());
  // Per-occupied-cell stat slots, likewise disjoint; summed sequentially
  // after the parallel pass so totals are worker-count invariant.
  std::vector<CellClass> cell_class(static_cast<size_t>(num_occupied),
                                    CellClass::kScanned);
  std::vector<int64_t> cell_pairwise(static_cast<size_t>(num_occupied), 0);

  const double threshold = params.metric == data::Metric::kL2
                               ? params.radius * params.radius
                               : params.radius;
  const int64_t stop = p + 2;  // p + 1 neighbors certain, counting self

  auto process_cells = [&](int64_t begin, int64_t end) {
    std::vector<int64_t> coord(static_cast<size_t>(dim));
    std::vector<int64_t> offset(static_cast<size_t>(dim));
    std::vector<double> ext(static_cast<size_t>(dim));
    // Neighbor tiles of the cell under scan, own cell first then offsets in
    // lexicographic order — a fixed order, so the abort point and the
    // pairwise counter do not depend on sharding.
    std::vector<int64_t> tiles;
    for (int64_t oc = begin; oc < end; ++oc) {
      const int64_t flat = grid.occupied[static_cast<size_t>(oc)];
      const int64_t tile_s = grid.start[static_cast<size_t>(flat)];
      const int64_t tile_e = grid.start[static_cast<size_t>(flat) + 1];
      const int64_t m = tile_e - tile_s;
      int64_t rem = flat;
      for (int j = 0; j < dim; ++j) {
        coord[static_cast<size_t>(j)] = rem / grid.strides[static_cast<size_t>(j)];
        rem %= grid.strides[static_cast<size_t>(j)];
      }

      // Dense rule: enough residents that each already has p + 1 same-cell
      // neighbors, provided the cell's realized diameter fits the radius.
      if (m >= p + 2) {
        for (int j = 0; j < dim; ++j) {
          const double* col = grid.soa.data() +
                              static_cast<size_t>(j) * static_cast<size_t>(n);
          double mn = col[tile_s];
          double mx = col[tile_s];
          for (int64_t t = tile_s + 1; t < tile_e; ++t) {
            mn = std::min(mn, col[t]);
            mx = std::max(mx, col[t]);
          }
          ext[static_cast<size_t>(j)] = mx - mn;
        }
        if (CellDiameterWithinRadius(ext.data(), dim, params.metric,
                                     params.radius)) {
          cell_class[static_cast<size_t>(oc)] = CellClass::kDense;
          for (int64_t t = tile_s; t < tile_e; ++t) {
            neighbor_counts[grid.point_at_pos[static_cast<size_t>(t)]] =
                p + 1;
          }
          continue;
        }
      }

      // Gather the (at most 3^d) neighbor tiles once per cell.
      tiles.clear();
      tiles.push_back(flat);
      int64_t neighborhood_total = m;
      for (int j = 0; j < dim; ++j) offset[static_cast<size_t>(j)] = -1;
      for (;;) {
        bool zero = true;
        bool valid = true;
        int64_t nflat = flat;
        for (int j = 0; j < dim; ++j) {
          const int64_t o = offset[static_cast<size_t>(j)];
          if (o != 0) zero = false;
          const int64_t c = coord[static_cast<size_t>(j)] + o;
          if (c < 0 || c >= grid.cells[static_cast<size_t>(j)]) {
            valid = false;
            break;
          }
          nflat += o * grid.strides[static_cast<size_t>(j)];
        }
        if (valid && !zero) {
          const int64_t cnt = grid.start[static_cast<size_t>(nflat) + 1] -
                              grid.start[static_cast<size_t>(nflat)];
          if (cnt > 0) {
            tiles.push_back(nflat);
            neighborhood_total += cnt;
          }
        }
        int j = dim - 1;
        while (j >= 0 && offset[static_cast<size_t>(j)] == 1) {
          offset[static_cast<size_t>(j)] = -1;
          --j;
        }
        if (j < 0) break;
        ++offset[static_cast<size_t>(j)];
      }

      // Sparse rule: too few points in the whole neighborhood for any
      // resident to clear p neighbors — all residents are outliers. Their
      // exact counts (the report carries them) still come from the kernel
      // below, where the abort can never fire.
      if (neighborhood_total - 1 <= p) {
        cell_class[static_cast<size_t>(oc)] = CellClass::kSparse;
      }

      int64_t* pairwise = &cell_pairwise[static_cast<size_t>(oc)];
      for (int64_t t = tile_s; t < tile_e; ++t) {
        const int64_t q = grid.point_at_pos[static_cast<size_t>(t)];
        const double* query = points[q].data();
        int64_t count = 0;
        for (const int64_t tf : tiles) {
          count = ScanTile(grid.soa.data(), n, dim,
                           grid.start[static_cast<size_t>(tf)],
                           grid.start[static_cast<size_t>(tf) + 1], query,
                           params.metric, threshold, stop, count, pairwise);
          if (count >= stop) break;
        }
        neighbor_counts[q] = count - 1;  // exclude self
      }
    }
  };

  if (executor != nullptr) {
    DBS_RETURN_IF_ERROR(executor->ParallelFor(num_occupied, process_cells));
  } else {
    process_cells(0, num_occupied);
  }

  if (stats_out != nullptr) {
    CellListStats& stats = *stats_out;
    stats.grid_cells = grid.total_cells;
    stats.occupied_cells = num_occupied;
    for (int64_t oc = 0; oc < num_occupied; ++oc) {
      if (cell_class[static_cast<size_t>(oc)] == CellClass::kDense) {
        ++stats.cells_dense_pruned;
      } else if (cell_class[static_cast<size_t>(oc)] == CellClass::kSparse) {
        ++stats.cells_sparse_pruned;
      }
      stats.pairwise_evaluated += cell_pairwise[static_cast<size_t>(oc)];
    }
  }

  return Status::Ok();
}

// Fallback counting pass for inputs the grid cannot serve: one kd-tree
// count per point, with the same early abort and the same disjoint slots.
[[nodiscard]] Status CountOnKdTree(const data::PointSet& points,
                                   const DbOutlierParams& params, int64_t p,
                                   parallel::BatchExecutor* executor,
                                   int64_t* neighbor_counts) {
  data::KdTree tree(&points);
  auto count_range = [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      // Count includes the point itself; abort once p+1 OTHER neighbors
      // are certain (i.e. p+2 counting self).
      const int64_t count = tree.CountWithinRadiusMetric(
          points[i], params.radius, params.metric, /*cap=*/p + 1);
      neighbor_counts[i] = count - 1;  // exclude self
    }
  };
  if (executor != nullptr) {
    return executor->ParallelFor(points.size(), count_range);
  }
  count_range(0, points.size());
  return Status::Ok();
}

}  // namespace

[[nodiscard]] Result<OutlierReport> DetectOutliersCellList(
    const data::PointSet& points, const DbOutlierParams& params) {
  return DetectOutliersCellList(points, params, CellListDetectorOptions{});
}

[[nodiscard]] Result<OutlierReport> DetectOutliersCellList(
    const data::PointSet& points, const DbOutlierParams& params,
    const CellListDetectorOptions& options) {
  if (points.empty()) {
    return Status::InvalidArgument("cannot detect outliers in an empty set");
  }
  DBS_RETURN_IF_ERROR(ValidateDbOutlierParams(params));
  if (options.stats != nullptr) *options.stats = CellListStats{};

  const int64_t n = points.size();
  const int64_t p = params.NeighborBound(n);
  // Neighbors-excluding-self per point, filled by whichever pass runs.
  std::vector<int64_t> neighbor_counts(static_cast<size_t>(n));

  // A zero radius means a zero bin side; above kMaxGridDim the 3^d
  // neighborhood stops paying for itself; BuildGrid rejects boxes needing
  // more than kMaxGridCells bins. All three take the kd-tree pass.
  Grid grid;
  if (params.radius > 0 && points.dim() <= kMaxGridDim &&
      BuildGrid(points, params.radius, &grid)) {
    DBS_RETURN_IF_ERROR(CountOnGrid(points, params, p, grid, options.executor,
                                    options.stats, neighbor_counts.data()));
  } else {
    if (options.stats != nullptr) options.stats->used_fallback = true;
    DBS_RETURN_IF_ERROR(CountOnKdTree(points, params, p, options.executor,
                                      neighbor_counts.data()));
  }

  OutlierReport report;
  report.passes = 1;
  for (int64_t i = 0; i < n; ++i) {
    const int64_t neighbors = neighbor_counts[static_cast<size_t>(i)];
    if (neighbors <= p) {
      report.outlier_indices.push_back(i);
      report.neighbor_counts.push_back(neighbors);
    }
  }
  report.candidates_checked = n;
  return report;
}

}  // namespace dbs::outlier
