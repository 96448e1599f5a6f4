#include "synth/outlier_planting.h"

#include "data/distance.h"
#include "data/kd_tree.h"
#include "util/rng.h"

namespace dbs::synth {

[[nodiscard]] Result<std::vector<int64_t>> PlantOutliers(
    data::PointSet& points, const OutlierPlantingOptions& options) {
  if (points.empty()) {
    return Status::InvalidArgument("plant outliers into a non-empty set");
  }
  if (options.count <= 0) {
    return Status::InvalidArgument("count must be positive");
  }
  if (options.min_distance <= 0) {
    return Status::InvalidArgument("min_distance must be positive");
  }
  const int d = points.dim();
  std::vector<double> lo = options.domain_lo;
  std::vector<double> hi = options.domain_hi;
  if (lo.empty()) lo.assign(d, 0.0);
  if (hi.empty()) hi.assign(d, 1.0);
  if (static_cast<int>(lo.size()) != d || static_cast<int>(hi.size()) != d) {
    return Status::InvalidArgument("domain dimensionality mismatch");
  }

  // Tree over the existing points; planted points are checked against both
  // the tree and the previously planted ones (linear scan, count is small).
  data::KdTree tree(&points);
  Rng rng(options.seed);
  std::vector<int64_t> planted;
  data::PointSet planted_points(d);
  std::vector<double> buf(d);
  int attempts = 0;
  while (static_cast<int>(planted.size()) < options.count) {
    if (++attempts > options.max_attempts) {
      return Status::FailedPrecondition(
          "could not place outliers at the requested separation; enlarge "
          "the domain or lower min_distance");
    }
    for (int j = 0; j < d; ++j) buf[j] = rng.NextDouble(lo[j], hi[j]);
    data::PointView candidate(buf.data(), d);
    if (tree.CountWithinRadius(candidate, options.min_distance,
                               data::Metric::kL2, 0) > 0) {
      continue;
    }
    bool near_planted = false;
    for (int64_t i = 0; i < planted_points.size() && !near_planted; ++i) {
      near_planted = data::SquaredL2(candidate, planted_points[i]) <
                     options.min_distance * options.min_distance;
    }
    if (near_planted) continue;
    planted.push_back(points.size());
    points.Append(candidate);
    planted_points.Append(candidate);
  }
  return planted;
}

}  // namespace dbs::synth
