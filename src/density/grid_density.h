// Hashed-grid density estimator — the Palmer–Faloutsos substrate.
//
// Reimplementation of the density summary used by "Density Biased Sampling:
// An Improved Method for Data Mining and Clustering" (SIGMOD 2000), the
// paper's main prior-work comparator [22]. Space is cut into g^d equi-width
// cells; because g^d can vastly exceed memory, cells are HASHED into a
// fixed-size bucket table and DISTINCT CELLS THAT COLLIDE MERGE THEIR
// COUNTS. That collision-induced blurring is exactly the quality
// degradation the paper attributes to the approach (§1.1, §4.3), so the
// bucket budget is an explicit knob here (memory_budget_bytes).
//
// When all g^d cells fit the budget, cells are addressed directly instead
// (hashed() is false): no counts merge, and the summary is the exact
// equi-width histogram, the estimator §2.1 lists first.
//
// GridDensity is also a DensityEstimator: Evaluate(p) returns the merged
// count of p's bucket divided by the cell volume, so it can drive the
// generic BiasedSampler as an alternative to the KDE. The grid-specific
// sampler of [22] (per-cell exponent e) lives in core/grid_biased_sampler.

#ifndef DBS_DENSITY_GRID_DENSITY_H_
#define DBS_DENSITY_GRID_DENSITY_H_

#include <cstdint>
#include <vector>

#include "data/bounds.h"
#include "data/dataset.h"
#include "density/density_estimator.h"
#include "util/status.h"

namespace dbs::density {

struct GridDensityOptions {
  // Cells per dimension. g^d logical cells overall.
  int cells_per_dim = 64;
  // Hash-table budget; each bucket costs 8 bytes (a count). The SIGMOD'00
  // evaluation allowed 5 MB; the paper's comparison (§4.3) uses the same.
  int64_t memory_budget_bytes = 5 * 1024 * 1024;
  // Optional known domain. When empty, an extra pass computes the bounds.
  data::BoundingBox bounds;
};

class GridDensity final : public DensityEstimator {
 public:
  // Builds the summary in one pass (two if bounds must be discovered).
  [[nodiscard]] static Result<GridDensity> Fit(data::DataScan& scan,
                                 const GridDensityOptions& options);
  [[nodiscard]] static Result<GridDensity> Fit(const data::PointSet& points,
                                 const GridDensityOptions& options);

  int dim() const override { return dim_; }
  double Evaluate(data::PointView p) const override;
  int64_t total_mass() const override { return n_; }
  double AverageDensity() const override {
    double volume = bounds_.Volume();
    return volume > 0 ? static_cast<double>(n_) / volume
                      : static_cast<double>(n_);
  }
  // Subtracts the one count `self` contributed when it shares x's bucket.
  double EvaluateExcluding(data::PointView x,
                           data::PointView self) const override;

  // Cell-sorted batch path behind all three batch entry points: queries
  // are sorted by bucket id so each bucket group pays for its count lookup
  // and count/cell_volume_ division ONCE instead of per point (the idea
  // behind Kde's cell-grouped batches, kde.h, which group with a hash table
  // instead of a sort). Identical operands give identical doubles, so
  // results stay bitwise equal to the scalar calls; same
  // executor/backpressure contract as the base class.
  [[nodiscard]] Status EvaluateExcludingSelvesBatch(const double* rows,
                                      const double* selves, int64_t count,
                                      double* out,
                                      parallel::BatchExecutor* executor =
                                          nullptr) const override;

  // Merged count of the bucket that p's cell hashes to.
  int64_t CellCount(data::PointView p) const;

  // Bucket index of p's cell (stable for the lifetime of the summary). A
  // coordinate outside the bounds counts in the edge cell on its side, a
  // NaN one in cell 0.
  int64_t BucketOf(data::PointView p) const;

  // sum over buckets of count^e — the normalizer used by the [22]-style
  // sampler. Note this is a sum over BUCKETS: collisions fold distinct
  // cells together, which is faithful to the hash-based original.
  double SumCountPow(double e) const;

  int64_t num_buckets() const {
    return static_cast<int64_t>(bucket_counts_.size());
  }
  int64_t num_occupied_buckets() const;
  // True when the logical grid exceeded the memory budget and cells are
  // hashed (collisions possible); false means exact direct addressing.
  bool hashed() const { return hashed_; }
  double cell_volume() const { return cell_volume_; }
  const data::BoundingBox& bounds() const { return bounds_; }

 private:
  GridDensity() = default;

  // Bucket-sorted evaluation of one contiguous range; `selves` is a
  // parallel exclusion array indexed like `rows` (nullptr = none).
  void BatchRange(const double* rows, const double* selves, int64_t begin,
                  int64_t end, double* out) const;

  int dim_ = 0;
  int cells_per_dim_ = 0;
  bool hashed_ = false;
  int64_t n_ = 0;
  double cell_volume_ = 0.0;
  data::BoundingBox bounds_;
  std::vector<double> cell_width_;  // per dimension
  std::vector<int64_t> bucket_counts_;
};

}  // namespace dbs::density

#endif  // DBS_DENSITY_GRID_DENSITY_H_
