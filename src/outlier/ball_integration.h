// Integration of a density estimate over an L2 ball.
//
// The KDE outlier detector scores each point O by N'(O, k) = the integral
// of the density estimate over Ball(O, k) — the expected number of
// neighbors within distance k (paper §3.2). Two integration methods:
//
//  * kCenterValue: f(O) * Volume(Ball) — exact when the density is locally
//    flat at the scale of k; one estimator evaluation per point.
//  * kQuasiMonteCarlo: averages the estimator over a fixed Halton point set
//    mapped into the ball — unbiased for any density shape at the cost of
//    `num_samples` evaluations per point. The Halton set is deterministic,
//    so scores are reproducible.

#ifndef DBS_OUTLIER_BALL_INTEGRATION_H_
#define DBS_OUTLIER_BALL_INTEGRATION_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "data/distance.h"
#include "data/point_set.h"
#include "density/density_estimator.h"

namespace dbs::outlier {

enum class BallIntegration {
  kCenterValue = 0,
  kQuasiMonteCarlo,
};

class BallIntegrator {
 public:
  // `num_samples` applies to the quasi-Monte-Carlo method only. The metric
  // selects the ball shape (L2 ball, L1 cross-polytope, Linf cube); L1
  // quasi-Monte-Carlo supports dim <= 7 (it consumes 2d+1 Halton bases).
  BallIntegrator(BallIntegration method, int dim, int num_samples = 64,
                 data::Metric metric = data::Metric::kL2);

  // Integral of `estimator` over the L2 ball of `radius` centered at `p`.
  double Integrate(const density::DensityEstimator& estimator,
                   data::PointView p, double radius) const;

  // Same, but excludes the estimator mass contributed by a data point
  // located at `p` itself (leave-one-out; see DensityEstimator::
  // EvaluateExcluding). This is the score the outlier detector uses: the
  // expected number of OTHER points in the ball.
  double IntegrateExcludingSelf(const density::DensityEstimator& estimator,
                                data::PointView p, double radius) const;

  // Batch form of IntegrateExcludingSelf over `count` row-major points:
  // out[i] is bitwise equal to the per-point call when that score is
  // <= score_cap, and otherwise some value > score_cap — so a caller that
  // only compares scores with a threshold passes it here, and one that
  // hands scores on keeps the default +inf. The center-value method flows
  // through the estimator's batched leave-one-out evaluation (the
  // detector's hot path); it turns the score cap into a density cap
  // through the ball volume (LargestFactorAtMost), so a backend may stop a
  // row's sum early (DensityEstimator::EvaluateExcludingBatchCapped).
  // Quasi-Monte-Carlo ignores the cap and computes every score in full:
  // a score averages many probe densities, none of which decides the row
  // alone. It expands every point into its `num_samples` Halton probes and
  // pushes the whole probe tile — with the ball centers as the exclusion
  // rows — through the estimator's batched EvaluateExcludingSelvesBatch
  // (executor-sharded), then reduces each point's probes in the scalar
  // path's summation order. Fails only with kUnavailable under executor
  // backpressure.
  [[nodiscard]] Status IntegrateExcludingSelfBatch(
      const density::DensityEstimator& estimator, const double* rows,
      int64_t count, double radius, double* out,
      parallel::BatchExecutor* executor = nullptr,
      double score_cap = std::numeric_limits<double>::infinity()) const;

  BallIntegration method() const { return method_; }

 private:
  double Volume(double radius) const;

  BallIntegration method_;
  int dim_;
  data::Metric metric_;
  // Precomputed unit-ball offsets for QMC (num_samples x dim, row-major).
  std::vector<double> unit_offsets_;
};

}  // namespace dbs::outlier

#endif  // DBS_OUTLIER_BALL_INTEGRATION_H_
