#include "outlier/ball_integration.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/math.h"

namespace dbs::outlier {
namespace {

// Fills out[0..d) with the `index`-th point of a low-discrepancy sequence
// uniform over the L2 unit ball (rejection from the cube; deterministic).
bool TryL2Point(uint64_t index, int dim, double* out) {
  double norm2 = 0.0;
  for (int j = 0; j < dim; ++j) {
    out[j] = 2.0 * HaltonValue(index, SmallPrime(j % 16)) - 1.0;
    norm2 += out[j] * out[j];
  }
  return norm2 <= 1.0;
}

// Deterministic uniform point in the L1 unit ball via the exponential
// simplex map: t_i = g_i / (g_1 + ... + g_{d+1}) with g = -log(u) puts
// (t_1..t_d) uniform over the standard simplex; random signs extend it to
// the cross-polytope. Consumes 2d+1 Halton bases.
void L1Point(uint64_t index, int dim, double* out) {
  DBS_CHECK(dim <= 7);
  double g_sum = 0.0;
  double g[8];
  for (int j = 0; j < dim; ++j) {
    double u = HaltonValue(index, SmallPrime(j));
    g[j] = -std::log(u);
    g_sum += g[j];
  }
  g_sum += -std::log(HaltonValue(index, SmallPrime(dim)));
  for (int j = 0; j < dim; ++j) {
    double sign =
        HaltonValue(index, SmallPrime(dim + 1 + j)) < 0.5 ? -1.0 : 1.0;
    out[j] = sign * g[j] / g_sum;
  }
}

void LinfPoint(uint64_t index, int dim, double* out) {
  for (int j = 0; j < dim; ++j) {
    out[j] = 2.0 * HaltonValue(index, SmallPrime(j % 16)) - 1.0;
  }
}

}  // namespace

BallIntegrator::BallIntegrator(BallIntegration method, int dim,
                               int num_samples, data::Metric metric)
    : method_(method), dim_(dim), metric_(metric) {
  DBS_CHECK(dim > 0);
  if (method_ != BallIntegration::kQuasiMonteCarlo) return;
  DBS_CHECK(num_samples > 0);
  unit_offsets_.reserve(static_cast<size_t>(num_samples) * dim);
  uint64_t index = 0;
  int kept = 0;
  std::vector<double> candidate(dim);
  while (kept < num_samples) {
    bool accept = true;
    switch (metric_) {
      case data::Metric::kL2:
        accept = TryL2Point(index, dim_, candidate.data());
        break;
      case data::Metric::kL1:
        L1Point(index, dim_, candidate.data());
        break;
      case data::Metric::kLinf:
        LinfPoint(index, dim_, candidate.data());
        break;
    }
    ++index;
    if (!accept) {
      // Safety: in high dimensions the L2 ball occupies a vanishing
      // fraction of the cube; bail out to whatever was kept after a
      // generous budget.
      if (index > static_cast<uint64_t>(num_samples) * 10000ULL &&
          kept > 0) {
        break;
      }
      continue;
    }
    unit_offsets_.insert(unit_offsets_.end(), candidate.begin(),
                         candidate.end());
    ++kept;
  }
}

double BallIntegrator::Volume(double radius) const {
  switch (metric_) {
    case data::Metric::kL2:
      return BallVolume(dim_, radius);
    case data::Metric::kL1:
      return CrossPolytopeVolume(dim_, radius);
    case data::Metric::kLinf:
      return CubeVolume(dim_, radius);
  }
  return 0.0;
}

double BallIntegrator::Integrate(const density::DensityEstimator& estimator,
                                 data::PointView p, double radius) const {
  DBS_CHECK(p.dim() == dim_);
  DBS_CHECK(radius >= 0);
  double volume = Volume(radius);
  if (method_ == BallIntegration::kCenterValue) {
    return estimator.Evaluate(p) * volume;
  }
  const int64_t m = static_cast<int64_t>(unit_offsets_.size()) / dim_;
  DBS_CHECK(m > 0);
  double sum = 0.0;
  std::vector<double> probe(dim_);
  for (int64_t s = 0; s < m; ++s) {
    const double* off = unit_offsets_.data() + s * dim_;
    for (int j = 0; j < dim_; ++j) probe[j] = p[j] + radius * off[j];
    sum += estimator.Evaluate(data::PointView(probe.data(), dim_));
  }
  return sum / static_cast<double>(m) * volume;
}

double BallIntegrator::IntegrateExcludingSelf(
    const density::DensityEstimator& estimator, data::PointView p,
    double radius) const {
  DBS_CHECK(p.dim() == dim_);
  DBS_CHECK(radius >= 0);
  double volume = Volume(radius);
  if (method_ == BallIntegration::kCenterValue) {
    return estimator.EvaluateExcluding(p, p) * volume;
  }
  const int64_t m = static_cast<int64_t>(unit_offsets_.size()) / dim_;
  DBS_CHECK(m > 0);
  double sum = 0.0;
  std::vector<double> probe(dim_);
  for (int64_t s = 0; s < m; ++s) {
    const double* off = unit_offsets_.data() + s * dim_;
    for (int j = 0; j < dim_; ++j) probe[j] = p[j] + radius * off[j];
    sum += estimator.EvaluateExcluding(data::PointView(probe.data(), dim_),
                                       p);
  }
  return sum / static_cast<double>(m) * volume;
}

Status BallIntegrator::IntegrateExcludingSelfBatch(
    const density::DensityEstimator& estimator, const double* rows,
    int64_t count, double radius, double* out,
    parallel::BatchExecutor* executor, double score_cap) const {
  DBS_CHECK(radius >= 0);
  if (count <= 0) return Status::Ok();
  if (method_ == BallIntegration::kCenterValue) {
    // Same per-point arithmetic as the scalar call: f * volume. Rounded
    // multiplication by the volume is monotone, so f <= density_cap
    // exactly when f * volume <= score_cap.
    const double volume = Volume(radius);
    DBS_RETURN_IF_ERROR(estimator.EvaluateExcludingBatchCapped(
        rows, count, LargestFactorAtMost(volume, score_cap), out, executor));
    for (int64_t i = 0; i < count; ++i) out[i] *= volume;
    return Status::Ok();
  }
  // Quasi-Monte-Carlo: each point fans out into its m Halton probes — a
  // natural tile. Expanding the probes up front and evaluating them through
  // the estimator's batched leave-one-out-against-center path moves the
  // sharding (and any tuned backend batching, e.g. the Kde cell-sorted
  // gather) from per-point to per-probe granularity. Bitwise equality with
  // the scalar loop holds because the probe arithmetic
  // (p[j] + radius * off[j]) and the per-point reduction order (probe 0..m-1
  // into one accumulator, then / m * volume) are unchanged — only WHERE the
  // probe evaluations run moves.
  const int64_t m = static_cast<int64_t>(unit_offsets_.size()) / dim_;
  DBS_CHECK(m > 0);
  const double volume = Volume(radius);
  // Cap the expanded tile so the probe/exclusion buffers stay a bounded
  // scratch (~a few MB), not O(count * m).
  constexpr int64_t kMaxProbeRows = 32768;
  const int64_t points_per_tile = std::max<int64_t>(kMaxProbeRows / m, 1);
  std::vector<double> probes;
  std::vector<double> selves;
  std::vector<double> values;
  for (int64_t c0 = 0; c0 < count; c0 += points_per_tile) {
    const int64_t c1 = std::min(count, c0 + points_per_tile);
    const int64_t tile_points = c1 - c0;
    const int64_t tile_rows = tile_points * m;
    probes.resize(static_cast<size_t>(tile_rows) * dim_);
    selves.resize(static_cast<size_t>(tile_rows) * dim_);
    values.resize(static_cast<size_t>(tile_rows));
    for (int64_t i = 0; i < tile_points; ++i) {
      const double* p = rows + (c0 + i) * dim_;
      for (int64_t s = 0; s < m; ++s) {
        const double* off = unit_offsets_.data() + s * dim_;
        double* probe = probes.data() + (i * m + s) * dim_;
        double* self = selves.data() + (i * m + s) * dim_;
        for (int j = 0; j < dim_; ++j) {
          probe[j] = p[j] + radius * off[j];
          self[j] = p[j];
        }
      }
    }
    DBS_RETURN_IF_ERROR(estimator.EvaluateExcludingSelvesBatch(
        probes.data(), selves.data(), tile_rows, values.data(), executor));
    for (int64_t i = 0; i < tile_points; ++i) {
      double sum = 0.0;
      const double* v = values.data() + i * m;
      for (int64_t s = 0; s < m; ++s) sum += v[s];
      out[c0 + i] = sum / static_cast<double>(m) * volume;
    }
  }
  return Status::Ok();
}

}  // namespace dbs::outlier
