// Frozen nested-loop DB(p,k) oracle: the classic O(n^2) scan with an early
// abort at p+1 neighbors — the cost the paper's detector avoids (§3.2).
//
// DetectOutliersCellList, the library's exact detector, is proven against
// it: the outlier tests and bench/outlier_detection require the two reports
// to agree field by field. It is defined in nested_loop_reference.cc, which
// only the dbs_outlier_reference target compiles (dbs_outlier does not), so
// a caller must link that target. Do not use outside verification.

#ifndef DBS_OUTLIER_NESTED_LOOP_REFERENCE_H_
#define DBS_OUTLIER_NESTED_LOOP_REFERENCE_H_

#include "data/point_set.h"
#include "outlier/db_outlier.h"
#include "util/status.h"

namespace dbs::outlier {

[[nodiscard]] Result<OutlierReport> DetectOutliersNestedLoop(
    const data::PointSet& points, const DbOutlierParams& params);

}  // namespace dbs::outlier

#endif  // DBS_OUTLIER_NESTED_LOOP_REFERENCE_H_
