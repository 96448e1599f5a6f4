// Exact DB(p,k)-outlier detection: the library's one exact detector, a
// cell list with whole-cell pruning.
//
// DB(p,k) detection is a fixed-radius COUNTING problem: for every point,
// how many others lie within distance D (the paper's k), with an early
// abort at p+1. A uniform grid with bin side ~= D serves that access
// pattern better than a kd-tree: a point's neighbors can only live in the
// 3^d cells around its own (any candidate farther away has a per-axis gap
// > D, which lower-bounds the L2, L1 and Linf distances alike), so the
// counting pass touches a handful of contiguous SoA tiles instead of
// descending a tree per query.
//
// Two whole-cell classification rules run before any pairwise work:
//
//  * DENSE: a cell whose realized point bounding box has metric diameter
//    <= D and which holds at least p+2 points marks every resident a
//    non-outlier — each one has >= p+1 same-cell neighbors — with zero
//    distance evaluations. (Checking the realized per-cell extents rather
//    than the static "side <= D/(2*sqrt(d))" containment condition lets
//    the rule fire for tightly packed cells in any metric and dimension.)
//  * SPARSE: a cell whose full 3^d-neighborhood holds <= p+1 points
//    (i.e. <= p neighbors once a resident excludes itself) marks every
//    resident an outlier before scanning; their exact neighbor counts —
//    the report requires them — are then gathered over that tiny
//    neighborhood, where the early abort can never trigger.
//
// Undecided cells run a branch-free SoA distance kernel over the <= 3^d
// neighbor tiles with the same early abort at p+1 the kd-tree uses.
// Counting is integer and every comparison uses the same floating-point
// expressions as data::SquaredL2 / data::Distance, so the report is
// byte-identical to the nested-loop oracle (outlier/nested_loop_reference.h)
// for all three metrics, and — because cells shard over the executor with
// disjoint per-point count slots and a sequential assembly sweep — at any
// worker count.
//
// Inputs the grid cannot serve — radius 0, dimension above 6, or a bounding
// box needing more than 2^21 bins — are counted with a kd-tree instead.
// Both paths fill the same per-point count array and share the report
// assembly, so the identical-report contract covers the fallback too.

#ifndef DBS_OUTLIER_CELL_LIST_H_
#define DBS_OUTLIER_CELL_LIST_H_

#include <cstdint>

#include "data/point_set.h"
#include "outlier/db_outlier.h"
#include "util/status.h"

namespace dbs::parallel {
class BatchExecutor;
}  // namespace dbs::parallel

namespace dbs::outlier {

// Prune accounting for one DetectOutliersCellList run. Deterministic for a
// fixed input at any worker count: every counter is a sum of per-cell
// integer contributions, and each cell's scan order is fixed (own tile
// first, then the neighbor offsets in lexicographic order).
struct CellListStats {
  // Bins allocated in the grid (product of per-dimension cell counts).
  int64_t grid_cells = 0;
  // Bins holding at least one point.
  int64_t occupied_cells = 0;
  // Cells classified wholesale: all residents non-outliers (dense rule) or
  // all residents outliers (sparse rule) before any per-point scanning.
  int64_t cells_dense_pruned = 0;
  int64_t cells_sparse_pruned = 0;
  // Point-pair distance evaluations performed by the SoA kernel.
  int64_t pairwise_evaluated = 0;
  // True when the kd-tree fallback ran instead of the grid (radius 0,
  // dimension above 6, or a grid of more than 2^21 bins). All other
  // counters are zero in that case.
  bool used_fallback = false;
};

struct CellListDetectorOptions {
  // Optional worker pool (not owned) for the counting pass: occupied cells
  // on the grid, points on the kd-tree fallback, sharded by contiguous
  // range. Every shard writes only its own points' count slots and its own
  // stat slots, and the report is assembled in one sequential
  // index-ascending sweep, so output is identical with 0, 1 or N workers.
  // kUnavailable under backpressure.
  parallel::BatchExecutor* executor = nullptr;
  // Optional prune accounting (not owned); filled when non-null.
  CellListStats* stats = nullptr;
};

// Exact detection; the same report as the nested-loop oracle for every
// metric, dimension and worker count. InvalidArgument for an empty point
// set or parameters ValidateDbOutlierParams rejects.
[[nodiscard]] Result<OutlierReport> DetectOutliersCellList(
    const data::PointSet& points, const DbOutlierParams& params);

[[nodiscard]] Result<OutlierReport> DetectOutliersCellList(
    const data::PointSet& points, const DbOutlierParams& params,
    const CellListDetectorOptions& options);

}  // namespace dbs::outlier

#endif  // DBS_OUTLIER_CELL_LIST_H_
