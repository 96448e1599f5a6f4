#include "density/density_estimator.h"

namespace dbs::density {

Status DensityEstimator::EvaluateBatch(const double* rows, int64_t count,
                                       double* out,
                                       parallel::BatchExecutor* executor)
    const {
  return EvaluateExcludingSelvesBatch(rows, /*selves=*/nullptr, count, out,
                                      executor);
}

Status DensityEstimator::EvaluateExcludingBatch(
    const double* rows, int64_t count, double* out,
    parallel::BatchExecutor* executor) const {
  return EvaluateExcludingSelvesBatch(rows, /*selves=*/rows, count, out,
                                      executor);
}

Status DensityEstimator::EvaluateExcludingBatchCapped(
    const double* rows, int64_t count, double cap, double* out,
    parallel::BatchExecutor* executor) const {
  (void)cap;
  return EvaluateExcludingBatch(rows, count, out, executor);
}

Status DensityEstimator::EvaluateExcludingSelvesBatch(
    const double* rows, const double* selves, int64_t count, double* out,
    parallel::BatchExecutor* executor) const {
  if (count <= 0) return Status::Ok();
  const int d = dim();
  auto shard = [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      data::PointView p(rows + i * d, d);
      out[i] = selves == nullptr
                   ? Evaluate(p)
                   : EvaluateExcluding(p, data::PointView(selves + i * d, d));
    }
  };
  if (executor != nullptr) return executor->ParallelFor(count, shard);
  shard(0, count);
  return Status::Ok();
}

}  // namespace dbs::density
