#include "cluster/hierarchical_internal.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "data/distance.h"

namespace dbs::cluster::internal {

[[nodiscard]] Status ValidateHierarchicalArgs(const data::PointSet& points,
                                const HierarchicalOptions& options) {
  if (options.num_clusters <= 0) {
    return Status::InvalidArgument("num_clusters must be positive");
  }
  if (options.num_representatives <= 0) {
    return Status::InvalidArgument("num_representatives must be positive");
  }
  if (options.shrink_factor < 0 || options.shrink_factor > 1) {
    return Status::InvalidArgument("shrink_factor must be in [0, 1]");
  }
  if (options.phase1_trigger_fraction < 0 ||
      options.phase1_trigger_fraction > 1) {
    return Status::InvalidArgument("phase1_trigger_fraction out of [0, 1]");
  }
  if (options.phase2_trigger_multiple < 1) {
    return Status::InvalidArgument("phase2_trigger_multiple must be >= 1");
  }
  if (options.phase1_max_size < 0 || options.phase2_max_size < 0) {
    return Status::InvalidArgument("elimination sizes cannot be negative");
  }
  if (points.size() == 0) {
    return Status::InvalidArgument("cannot cluster an empty point set");
  }
  // A NaN or infinite coordinate makes every distance to its point NaN or
  // infinite, so that point has no nearest cluster to merge with.
  for (double coord : points.flat()) {
    if (!std::isfinite(coord)) {
      return Status::InvalidArgument(
          "cannot cluster points with NaN or infinite coordinates");
    }
  }
  return Status::Ok();
}

data::PointSet SelectScattered(const data::PointSet& candidates,
                               const std::vector<double>& centroid, int c) {
  const int64_t n = candidates.size();
  const int dim = candidates.dim();
  if (n <= c) return candidates;

  data::PointView mean(centroid.data(), dim);
  std::vector<double> min_d2(n, std::numeric_limits<double>::infinity());
  std::vector<bool> taken(n, false);

  // Farthest from the centroid first.
  int64_t first = 0;
  double best = -1.0;
  for (int64_t i = 0; i < n; ++i) {
    double d2 = data::SquaredL2(candidates[i], mean);
    if (d2 > best) {
      best = d2;
      first = i;
    }
  }
  data::PointSet out(dim);
  out.Append(candidates[first]);
  taken[first] = true;
  for (int64_t i = 0; i < n; ++i) {
    min_d2[i] = data::SquaredL2(candidates[i], candidates[first]);
  }

  for (int k = 1; k < c; ++k) {
    int64_t pick = -1;
    double far = -1.0;
    for (int64_t i = 0; i < n; ++i) {
      if (taken[i]) continue;
      if (min_d2[i] > far) {
        far = min_d2[i];
        pick = i;
      }
    }
    if (pick < 0) break;
    taken[pick] = true;
    out.Append(candidates[pick]);
    for (int64_t i = 0; i < n; ++i) {
      if (!taken[i]) {
        min_d2[i] =
            std::min(min_d2[i], data::SquaredL2(candidates[i],
                                                candidates[pick]));
      }
    }
  }
  return out;
}

data::PointSet ShrinkToward(const data::PointSet& scattered,
                            const std::vector<double>& centroid,
                            double shrink) {
  data::PointSet out(scattered.dim());
  out.Reserve(scattered.size());
  std::vector<double> buf(scattered.dim());
  for (int64_t i = 0; i < scattered.size(); ++i) {
    data::PointView p = scattered[i];
    for (int j = 0; j < scattered.dim(); ++j) {
      buf[j] = p[j] + shrink * (centroid[j] - p[j]);
    }
    out.Append(buf);
  }
  return out;
}

}  // namespace dbs::cluster::internal
