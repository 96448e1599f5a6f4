// Frozen nested-loop DB(p,k) oracle (see nested_loop_reference.h). Do not
// "improve" this file: its value is that it stays exactly as slow and
// exactly as simple as the definition it checks.

#include "outlier/nested_loop_reference.h"

#include "data/distance.h"

namespace dbs::outlier {

[[nodiscard]] Result<OutlierReport> DetectOutliersNestedLoop(
    const data::PointSet& points, const DbOutlierParams& params) {
  if (points.empty()) {
    return Status::InvalidArgument("cannot detect outliers in an empty set");
  }
  DBS_RETURN_IF_ERROR(ValidateDbOutlierParams(params));
  const int64_t n = points.size();
  const int64_t p = params.NeighborBound(n);

  OutlierReport report;
  report.passes = 1;
  for (int64_t i = 0; i < n; ++i) {
    int64_t neighbors = 0;
    for (int64_t j = 0; j < n; ++j) {
      if (j == i) continue;
      if (data::Distance(points[i], points[j], params.metric) <=
          params.radius) {
        ++neighbors;
        if (neighbors > p) break;
      }
    }
    if (neighbors <= p) {
      report.outlier_indices.push_back(i);
      report.neighbor_counts.push_back(neighbors);
    }
  }
  report.candidates_checked = n;
  return report;
}

}  // namespace dbs::outlier
