#include "outlier/cell_list.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "data/bounds.h"
#include "data/distance.h"
#include "data/kd_tree.h"
#include "outlier/grid_internal.h"
#include "parallel/batch_executor.h"

namespace dbs::outlier {
namespace {

// Tile positions scanned between early-abort checks; also the vectorization
// width of the SoA kernel's per-axis inner loop.
constexpr int kBlock = 64;

// How a cell was classified by the whole-cell rules (per-cell stat slot;
// written by exactly one shard, summed sequentially afterwards).
enum class CellClass : unsigned char { kScanned = 0, kDense, kSparse };

struct Grid {
  internal::GridGeometry geo;
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

// Builds the grid over the points whose coordinates are all finite (the
// others are nobody's neighbor and stay out of every cell), or returns
// false when there are none, or when they need more than
// internal::kMaxGridCells bins (tiny radius or extreme aspect ratio), and
// the caller should take the kd-tree fallback instead.
bool BuildGrid(const data::PointSet& points, double radius, Grid* grid) {
  const int64_t n = points.size();
  const int dim = points.dim();
  data::BoundingBox box(dim);
  bool all_finite = true;
  for (int64_t i = 0; i < n; ++i) {
    if (data::AllFinite(points[i])) {
      box.Extend(points[i]);
    } else {
      all_finite = false;
    }
  }
  if (box.empty() || !internal::MakeGridGeometry(box, radius, &grid->geo)) {
    return false;
  }
  const int64_t total = grid->geo.total_cells;

  // Counting sort by flat cell id, stable in ascending point index so tile
  // scan order — and with it the prune statistics — is deterministic. A
  // point left out of the grid has cell -1.
  std::vector<int64_t> cell_of(static_cast<size_t>(n));
  grid->start.assign(static_cast<size_t>(total) + 1, 0);
  for (int64_t i = 0; i < n; ++i) {
    if (!all_finite && !data::AllFinite(points[i])) {
      cell_of[static_cast<size_t>(i)] = -1;
      continue;
    }
    const int64_t flat = internal::FlatCell(grid->geo, points[i].data());
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
    if (cell_of[static_cast<size_t>(i)] < 0) continue;
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
      for (int j = 0; j < dim; ++j) best = data::LinfMax(best, ext[j]);
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
            acc[t] = data::LinfMax(acc[t], std::abs(qj - col[t]));
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
      internal::CellCoords(grid.geo, flat, coord.data());

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
      internal::ForEachBlockRun(
          grid.geo, coord.data(), offset.data(),
          [&](int64_t first, int64_t last) {
            for (int64_t nflat = first; nflat <= last; ++nflat) {
              const int64_t cnt = grid.start[static_cast<size_t>(nflat) + 1] -
                                  grid.start[static_cast<size_t>(nflat)];
              if (nflat != flat && cnt > 0) {
                tiles.push_back(nflat);
                neighborhood_total += cnt;
              }
            }
          });

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
    stats.grid_cells = grid.geo.total_cells;
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
// As on the grid, points with a non-finite coordinate stay out of the tree
// and keep their 0 slot.
[[nodiscard]] Status CountOnKdTree(const data::PointSet& points,
                                   const DbOutlierParams& params, int64_t p,
                                   parallel::BatchExecutor* executor,
                                   int64_t* neighbor_counts) {
  std::vector<int64_t> finite;
  for (int64_t i = 0; i < points.size(); ++i) {
    if (data::AllFinite(points[i])) finite.push_back(i);
  }
  const data::KdTree tree(&points, finite);
  auto count_range = [&](int64_t begin, int64_t end) {
    for (int64_t k = begin; k < end; ++k) {
      const int64_t i = finite[static_cast<size_t>(k)];
      // Count includes the point itself; abort once p+1 OTHER neighbors
      // are certain (i.e. p+2 counting self).
      const int64_t count = tree.CountWithinRadius(
          points[i], params.radius, params.metric, /*cap=*/p + 1);
      neighbor_counts[i] = count - 1;  // exclude self
    }
  };
  const auto num_finite = static_cast<int64_t>(finite.size());
  if (executor != nullptr) {
    return executor->ParallelFor(num_finite, count_range);
  }
  count_range(0, num_finite);
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
  // Neighbors-excluding-self per point, filled by whichever pass runs. A
  // point with a non-finite coordinate has none and keeps its 0.
  std::vector<int64_t> neighbor_counts(static_cast<size_t>(n), 0);

  // Radii the grid argument does not cover (zero among them), dimensions
  // above kMaxGridDim and boxes needing more than kMaxGridCells bins take
  // the kd-tree pass (outlier/grid_internal.h).
  Grid grid;
  if (internal::GridServes(params.radius, points.dim()) &&
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
