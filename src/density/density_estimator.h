// Abstract density-estimator interface.
//
// An estimator f approximates the data density in absolute terms: for a
// region R, the integral of f over R approximates the number of points in R
// (paper §2). Consequently the integral over the whole space is ~n, and the
// "average density" of a dataset scaled to [0,1]^d is ~n. Anything that
// satisfies this contract can drive the biased sampler — the paper stresses
// that its framework is independent of the estimation technique.

#ifndef DBS_DENSITY_DENSITY_ESTIMATOR_H_
#define DBS_DENSITY_DENSITY_ESTIMATOR_H_

#include <cstdint>

#include "data/point_set.h"
#include "parallel/batch_executor.h"
#include "util/status.h"

namespace dbs::density {

class DensityEstimator {
 public:
  virtual ~DensityEstimator() = default;

  virtual int dim() const = 0;

  // Estimated local density at p, in points per unit volume.
  virtual double Evaluate(data::PointView p) const = 0;

  // Batch evaluation over `count` row-major points (count * dim() doubles):
  // out[i] = Evaluate(row i), BITWISE — batching (and sharding across
  // `executor`'s workers, when one is supplied) is an execution detail, not
  // a semantic one, because every point is evaluated independently with the
  // same per-point arithmetic. With an executor the call can fail with
  // kUnavailable under queue backpressure, in which case `out` contents are
  // unspecified; without one it always succeeds. Must not be called from an
  // executor worker thread (ParallelFor blocks). Calls
  // EvaluateExcludingSelvesBatch with selves = nullptr.
  [[nodiscard]] virtual Status EvaluateBatch(const double* rows, int64_t count, double* out,
                               parallel::BatchExecutor* executor =
                                   nullptr) const;

  // Batch leave-one-out evaluation: out[i] = EvaluateExcluding(row i,
  // row i), i.e. each point excludes its own contribution — the form the
  // outlier scorer consumes. Same bitwise/backpressure contract as
  // EvaluateBatch. Calls EvaluateExcludingSelvesBatch with selves = rows.
  [[nodiscard]] virtual Status EvaluateExcludingBatch(const double* rows, int64_t count,
                                        double* out,
                                        parallel::BatchExecutor* executor =
                                            nullptr) const;

  // Batch leave-one-out evaluation against EXPLICIT exclusion points:
  // out[i] = EvaluateExcluding(row i of `rows`, row i of `selves`), where
  // `selves` is a second row-major array of `count` points. This is the form
  // the QMC ball integrator consumes: every probe row excludes the mass of
  // the ball CENTER it was expanded from, not the probe location itself.
  // `selves == nullptr` excludes nothing: out[i] = Evaluate(row i). Same
  // bitwise/backpressure contract as EvaluateBatch. This is the one batch
  // path a backend overrides to amortize per-point work (see Kde); the
  // default is the scalar loop.
  [[nodiscard]] virtual Status EvaluateExcludingSelvesBatch(const double* rows,
                                              const double* selves,
                                              int64_t count, double* out,
                                              parallel::BatchExecutor*
                                                  executor = nullptr) const;

  // EvaluateExcludingBatch for a caller that only asks whether each value
  // is <= cap, as the outlier scorer does: out[i] is EvaluateExcludingBatch's
  // value when that value is <= cap, and otherwise some value > cap. A
  // backend may stop a row's sum once it is certain to end above the cap
  // (Kde does: its kernel terms are non-negative, DESIGN.md §9); this
  // default ignores the cap and calls EvaluateExcludingBatch. Same
  // backpressure contract as EvaluateBatch. Callers that hand values on,
  // rather than compare them, use the uncapped entry points.
  [[nodiscard]] virtual Status EvaluateExcludingBatchCapped(
      const double* rows, int64_t count, double cap, double* out,
      parallel::BatchExecutor* executor = nullptr) const;

  // Number of data points the estimator was built over (the approximate
  // integral of Evaluate over the whole domain).
  virtual int64_t total_mass() const = 0;

  // Average density of the data domain: total_mass / Volume(bounding box).
  // Anchors relative thresholds (e.g. the biased sampler's density floor).
  // The default assumes a unit-volume domain.
  virtual double AverageDensity() const {
    return static_cast<double>(total_mass());
  }

  // Density at x EXCLUDING the contribution of a data point located at
  // `self`. Expected-neighbor-count consumers (the outlier detector) use
  // this so a point's own mass — e.g. when it was sampled as a kernel
  // center, where it carries n/m of the total — cannot mask it from being
  // scored as isolated. The default subtracts nothing.
  virtual double EvaluateExcluding(data::PointView x,
                                   data::PointView self) const {
    (void)self;
    return Evaluate(x);
  }
};

}  // namespace dbs::density

#endif  // DBS_DENSITY_DENSITY_ESTIMATOR_H_
