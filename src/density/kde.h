// Kernel density estimation (paper §2.1, following Gunopulos et al. [9]).
//
// The estimator is built in ONE pass over the data: that pass draws `m`
// kernel centers by reservoir sampling and accumulates per-dimension
// moments, from which Scott/Silverman bandwidths are derived. The density is
//
//   f(x) = (n/m) * sum_i prod_j (1/h_j) K((x_j - c_ij) / h_j)
//
// so that the integral of f over the whole space is ~n ("absolute" density,
// see DensityEstimator). The paper recommends m = 1000 kernels as a robust
// default (§4.4); Fig 7 sweeps this parameter.
//
// Because the Epanechnikov kernel has compact support, centers are bucketed
// into a uniform grid with cells the size of the support box; evaluating
// f(x) then touches only the 3^d cells around x instead of all m centers.
// The index is an internal acceleration only — results are identical with it
// on or off (bench/micro_kde ablates the speedup). Two structural choices
// make the hot path fast (DESIGN.md §9):
//
//   * The grid is a flat open-addressed table: bucket contents live
//     contiguously in one array, looked up by linear probing instead of
//     chasing unordered_map nodes, and the {-1,0,1}^d neighbor-offset
//     pattern is precomputed once at BuildIndex time instead of being
//     re-enumerated per evaluation.
//   * The batch path groups query points by grid cell in linear time (a
//     hash table of the batch's cells, then a counting scatter), takes
//     each cell group's neighborhood as one contiguous SoA tile (dim ×
//     tile arrays) and sums the group's rows against it through the
//     frozen kernel block (density/kernel_block.h): eight rows at a time
//     in vector lanes for the Epanechnikov kernel, one row at a time for
//     the others, in the widest ISA clone the host CPU supports — bitwise
//     identical to per-point Evaluate, per-point independent, and
//     therefore shardable across executor workers. The tile is one probe
//     of the neighbor-tile table BuildIndex fills, once, with the tile of
//     every cell a center's support reaches; a model whose table would
//     cost more than a fixed budget to build has none and gathers each
//     group's tile from its 3^d neighbor buckets instead.

#ifndef DBS_DENSITY_KDE_H_
#define DBS_DENSITY_KDE_H_

#include <cstdint>
#include <vector>

#include "data/bounds.h"
#include "data/dataset.h"
#include "data/point_set.h"
#include "density/bandwidth.h"
#include "density/density_estimator.h"
#include "density/kernel.h"
#include "density/kernel_block.h"
#include "util/shard.h"
#include "util/status.h"

namespace dbs::density {

struct PartialKde;  // density/kde_partial.h

struct KdeOptions {
  // Number of kernel centers (the paper's recommended default).
  int64_t num_kernels = 1000;
  KernelType kernel = KernelType::kEpanechnikov;
  BandwidthRule bandwidth_rule = BandwidthRule::kScott;
  // Used only with BandwidthRule::kFixed.
  double fixed_bandwidth = 0.0;
  // Multiplier applied to the rule-derived bandwidths. The normal-reference
  // rules assume a unimodal density and oversmooth clustered data; values
  // in [0.2, 0.5] sharpen the estimate when clusters are much smaller than
  // the data spread. 1.0 uses the rule as-is.
  double bandwidth_scale = 1.0;
  // Seed for the center-sampling reservoir.
  uint64_t seed = 1;
  // Build the compact-support grid index (identical results, faster eval).
  bool use_grid_index = true;
};

class Kde final : public DensityEstimator {
 public:
  // Builds the estimator in a single pass over `scan`.
  [[nodiscard]] static Result<Kde> Fit(data::DataScan& scan, const KdeOptions& options);

  // Convenience overload for in-memory data (still a single logical pass).
  [[nodiscard]] static Result<Kde> Fit(const data::PointSet& points,
                         const KdeOptions& options);

  // Sharded build (DESIGN.md §12): scans one shard's slice and emits a
  // mergeable partial state. `scan` must cover exactly the rows of
  // ShardRowRange(info.total_rows, info.num_shards, info.shard) — wrap the
  // full dataset in a data::RangeScan. Kernel centers are reservoir-sampled
  // at the shard's proportional quota with the shard-seeded RNG stream, so
  // FinalizeKde over all shards' partials reconstructs a model of the same
  // shape Fit builds — bitwise identical to Fit when info.num_shards == 1
  // (Fit itself is implemented as FitPartial + FinalizeKde).
  [[nodiscard]] static Result<PartialKde> FitPartial(data::DataScan& scan,
                                       const KdeOptions& options,
                                       const ShardInfo& info);

  int dim() const override { return centers_.dim(); }
  double Evaluate(data::PointView p) const override;
  int64_t total_mass() const override { return n_; }
  // Leave-one-out evaluation: skips kernel centers whose coordinates equal
  // `self` exactly (centers are verbatim copies of data points, so a data
  // point that became a center is recognized bitwise).
  double EvaluateExcluding(data::PointView x,
                           data::PointView self) const override;

  // The tuned batch path (see header comment) behind all three batch
  // entry points: bitwise identical to the per-point calls, kUnavailable
  // only under executor backpressure.
  [[nodiscard]] Status EvaluateExcludingSelvesBatch(const double* rows,
                                      const double* selves, int64_t count,
                                      double* out,
                                      parallel::BatchExecutor* executor =
                                          nullptr) const override;

  // The leave-one-out batch path with a density cap, which becomes a cap
  // on each row's kernel sum through norm_factor_ (LargestFactorAtMost):
  // a row whose sum is certain to end above it stops early, and its value
  // is then some density > cap. Rows at or below the cap get the bits of
  // EvaluateExcludingBatch.
  [[nodiscard]] Status EvaluateExcludingBatchCapped(
      const double* rows, int64_t count, double cap, double* out,
      parallel::BatchExecutor* executor = nullptr) const override;

  // Average of Evaluate(c)^a over the kernel centers. Since the centers are
  // a uniform sample of the data, n * MeanDensityPow(a) is an unbiased
  // estimate of the normalizer k_a = sum_x f(x)^a — the quantity the
  // one-pass sampler variant uses in place of an exact normalization pass.
  // Evaluation goes through the batch path; an optional executor shards it
  // (falling back to the sequential path under backpressure, so the result
  // is always the same and always produced).
  double MeanDensityPow(double a,
                        parallel::BatchExecutor* executor = nullptr) const;

  // Average density of the data's bounding box: total_mass / Volume. The
  // densities above/below this threshold are the regions the paper calls
  // denser/sparser than the data-space average.
  double AverageDensity() const override;

  int64_t num_kernels() const { return centers_.size(); }
  // Cells in the neighbor-tile table; 0 when the batch path gathers every
  // tile (no index, or a table over the build budget).
  int64_t neighbor_tile_cells() const {
    return static_cast<int64_t>(tile_keys_.size());
  }
  const data::PointSet& centers() const { return centers_; }
  const std::vector<double>& bandwidths() const { return bandwidths_; }
  const data::BoundingBox& bounds() const { return bounds_; }

  // Evaluates with the grid index disabled (for testing/ablation).
  double EvaluateBrute(data::PointView p) const;

  // Serialization support (see density/kde_io.h): a value-type snapshot of
  // the fitted model, sufficient to reconstruct it exactly.
  struct State {
    int64_t n = 0;
    KernelType kernel = KernelType::kEpanechnikov;
    data::PointSet centers;
    std::vector<double> bandwidths;
    data::BoundingBox bounds;
  };
  State ExportState() const;
  [[nodiscard]] static Result<Kde> FromState(State state, bool rebuild_index = true);

 private:
  struct TileScratch;

  Kde() = default;

  void BuildIndex();
  // Fills the neighbor-tile table (below) through GatherTile when its
  // build stays within a fixed probe budget; called by BuildIndex.
  void BuildTileTable();
  // Column-major copy of the centers for the batch paths (built always).
  void BuildSoA();
  // Grid cell of the point at `p` into cell[0..dim). False when a
  // coordinate's cell is NaN or outside (-2^63, 2^63), where the integer
  // cell and its neighbors cannot be represented; such a point takes the
  // brute-force sum, which is exact.
  bool CellOf(const double* p, int64_t* cell) const;
  // Flat-table lookup: [*begin, *end) into cell_centers_ when found.
  bool FindBucket(uint64_t key, int32_t* begin, int32_t* end) const;
  // Gathers the 3^d-neighborhood of `base_cell` into scratch (center
  // indices + SoA tile) in the canonical visit order; returns tile size.
  int64_t GatherTile(const int64_t* base_cell, TileScratch* scratch) const;
  // The table entry of `cell`, whose HashCell is `key`, or -1 when the
  // table holds no such cell.
  int64_t FindTile(uint64_t key, const int64_t* cell) const;
  // Ordered kernel-product sum of `p` against a SoA tile through the
  // chosen ISA clone; `exclude` is the coordinates of a center to skip
  // (nullptr = none), and `sum_cap` the kernel block's early-stop cap
  // (+inf = the full sum).
  double SumTile(const double* p, const double* soa, int64_t tile,
                 const double* exclude, double sum_cap) const;
  // Writes out[i] = norm_factor_ * (kernel sum of row i against one SoA
  // tile) for the `count` rows i = first + ids[k] (ids == nullptr: first +
  // k), each excluding its selves row when `selves` is given. Epanechnikov
  // models take the row-lane block eight rows at a time, the other kernels
  // the single-row block; both give the single-row bits.
  void SumRows(const double* rows, const double* selves, int64_t first,
               const int64_t* ids, int64_t count, const double* soa,
               int64_t tile, double sum_cap, TileScratch* scratch,
               double* out) const;
  // `selves` is a parallel row-major array of exclusion points (nullptr =
  // exclude nothing; pass `rows` itself for leave-one-out), indexed like
  // `rows` — point i excludes selves + i*dim.
  void BatchRangeIndexed(const double* rows, const double* selves,
                         int64_t begin, int64_t end, double sum_cap,
                         double* out) const;
  void BatchRangeBrute(const double* rows, const double* selves,
                       int64_t begin, int64_t end, double sum_cap,
                       double* out) const;
  // Both batch entry points: the range functions above, sharded over
  // `executor` when one is given.
  [[nodiscard]] Status BatchSharded(const double* rows, const double* selves,
                                    int64_t count, double sum_cap,
                                    double* out,
                                    parallel::BatchExecutor* executor) const;
  // Kernel sum at p via the grid index, skipping centers whose coordinates
  // equal `exclude` (pass a default PointView to skip nothing).
  double SumIndexed(data::PointView p, data::PointView exclude) const;
  double SumBrute(data::PointView p, data::PointView exclude) const;

  int64_t n_ = 0;
  KernelType kernel_ = KernelType::kEpanechnikov;
  data::PointSet centers_;
  std::vector<double> bandwidths_;      // per dimension
  std::vector<double> inv_bandwidths_;  // 1/h_j
  double norm_factor_ = 0.0;            // (n/m) * prod_j (1/h_j)
  data::BoundingBox bounds_;
  // The kernel block clones for this host's CPU, both forms picked once in
  // FromState (ActiveKernelTileClone); every clone returns the same bits.
  KernelTileFn sum_tile_ = nullptr;
  KernelRowLanesFn sum_rows_ = nullptr;

  // Grid index over centers. Cell extent along j = support_radius * h_j.
  // The index is a flat open-addressed table: a cell's centers occupy
  // [slot_begin_[s], slot_end_[s]) of cell_centers_, in center-index order
  // (the order the old per-bucket vectors had — the summation-order
  // contract the bitwise guarantees rest on).
  bool indexed_ = false;
  double support_radius_ = 1.0;
  std::vector<double> cell_extent_;
  uint64_t slot_mask_ = 0;
  std::vector<uint64_t> slot_keys_;
  std::vector<int32_t> slot_begin_;  // -1 marks an empty slot
  std::vector<int32_t> slot_end_;
  std::vector<int32_t> cell_centers_;
  // {-1,0,1}^d neighbor-offset pattern, row-major (3^d x d), precomputed at
  // BuildIndex time instead of re-enumerated per evaluation.
  int num_neighbor_cells_ = 0;
  std::vector<int64_t> neighbor_offsets_;
  // centers_ transposed: dim arrays of length m (centers_soa_[j*m + i] =
  // centers_[i][j]); the contiguous columns the batch inner loop streams.
  std::vector<double> centers_soa_;

  // Neighbor-tile table, read-only once FromState returns and never
  // serialized: entry e is the cell tile_cells_[e*dim, (e+1)*dim) of the
  // 3^d dilation of the center cells, its HashCell tile_keys_[e], and the
  // SoA tile GatherTile returns for it, dim arrays of length
  // tile_begin_[e+1] - tile_begin_[e] from tile_soa_ + dim*tile_begin_[e].
  // tile_slots_ is an open-addressed table of entry ids (-1 = empty slot),
  // probed by key and confirmed by an exact cell compare. Empty when the
  // build would exceed its budget (BuildTileTable).
  uint64_t tile_slot_mask_ = 0;
  std::vector<int32_t> tile_slots_;
  std::vector<uint64_t> tile_keys_;
  std::vector<int64_t> tile_cells_;
  std::vector<int64_t> tile_begin_;
  std::vector<double> tile_soa_;
};

}  // namespace dbs::density

#endif  // DBS_DENSITY_KDE_H_
