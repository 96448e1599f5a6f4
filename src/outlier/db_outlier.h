// Distance-based outlier definitions (Knorr & Ng, VLDB 1998; paper §3.2).
//
// An object O in dataset D is a DB(p, k)-outlier if at most p objects of D
// lie within distance k of O. Note the paper's variable naming: k is the
// DISTANCE and p is the neighbor COUNT bound. p may alternatively be given
// as a fraction of |D|.

#ifndef DBS_OUTLIER_DB_OUTLIER_H_
#define DBS_OUTLIER_DB_OUTLIER_H_

#include <cmath>
#include <cstdint>
#include <vector>

#include "data/distance.h"
#include "util/status.h"

namespace dbs::outlier {

struct DbOutlierParams {
  // Neighborhood radius (the paper's k).
  double radius = 0.1;
  // Distance metric defining the neighborhood; §3.2 notes L1/Linf work
  // equally well.
  data::Metric metric = data::Metric::kL2;
  // Maximum number of neighbors an outlier may have, EXCLUDING the point
  // itself (the paper's p). Exactly one of max_neighbors / max_neighbor_
  // fraction applies: the fraction is used when >= 0.
  int64_t max_neighbors = 10;
  double max_neighbor_fraction = -1.0;

  // Resolves the neighbor bound against a dataset of size n.
  int64_t NeighborBound(int64_t n) const {
    if (max_neighbor_fraction >= 0) {
      return static_cast<int64_t>(max_neighbor_fraction *
                                  static_cast<double>(n));
    }
    return max_neighbors;
  }
};

// The one check every DB(p,k) entry point runs on its parameters: the exact
// detector and its oracle, the approximate detector's scoring stage, the
// estimate and the serve layer's outlier scoring. Each comparison is
// written so that NaN fails it: a radius must be finite and non-negative, a
// fraction at most 1 (any negative value means "unset"), and an unset
// fraction needs a non-negative count.
[[nodiscard]] inline Status ValidateDbOutlierParams(
    const DbOutlierParams& params) {
  if (!(params.radius >= 0 && std::isfinite(params.radius))) {
    return Status::InvalidArgument("radius must be finite and non-negative");
  }
  if (!(params.max_neighbor_fraction <= 1)) {
    return Status::InvalidArgument(
        "neighbor fraction cannot exceed 1 or be NaN");
  }
  if (params.max_neighbor_fraction < 0 && params.max_neighbors < 0) {
    return Status::InvalidArgument("neighbor bound cannot be negative");
  }
  return Status::Ok();
}

struct OutlierReport {
  // Indices of the detected outliers (into the scanned dataset order).
  std::vector<int64_t> outlier_indices;
  // Exact neighbor count per detected outlier (parallel array).
  std::vector<int64_t> neighbor_counts;
  // Number of candidate points the (approximate) detector verified; equals
  // outlier_indices.size() for exact detectors.
  int64_t candidates_checked = 0;
  // Dataset passes consumed, excluding any density-estimator fitting pass.
  int passes = 0;
};

}  // namespace dbs::outlier

#endif  // DBS_OUTLIER_DB_OUTLIER_H_
