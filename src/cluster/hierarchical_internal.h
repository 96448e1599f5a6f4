// Shared internals of the two agglomeration implementations.
//
// HierarchicalCluster (the accelerated core) and
// HierarchicalClusterReference (the frozen pre-acceleration oracle) promise
// bitwise-identical output, so everything that touches representative
// arithmetic lives here exactly once: option validation, the
// farthest-point scatter selection and the shrink step, and the
// reference's declaration. Not part of the public API.

#ifndef DBS_CLUSTER_HIERARCHICAL_INTERNAL_H_
#define DBS_CLUSTER_HIERARCHICAL_INTERNAL_H_

#include <vector>

#include "cluster/hierarchical.h"
#include "data/point_set.h"
#include "util/status.h"

namespace dbs::cluster::internal {

// Argument validation shared by both implementations: option ranges, a
// non-empty point set, and finite coordinates.
[[nodiscard]] Status ValidateHierarchicalArgs(const data::PointSet& points,
                                const HierarchicalOptions& options);

// Selects up to `c` well-scattered points from `candidates` via the
// farthest-point heuristic: start with the point farthest from the
// centroid, then repeatedly add the candidate maximizing the minimum
// distance to those already chosen.
data::PointSet SelectScattered(const data::PointSet& candidates,
                               const std::vector<double>& centroid, int c);

// Shrinks each scattered point `shrink` of the way toward the centroid.
data::PointSet ShrinkToward(const data::PointSet& scattered,
                            const std::vector<double>& centroid,
                            double shrink);

}  // namespace dbs::cluster::internal

namespace dbs::cluster {

// Frozen pre-acceleration implementation, kept as the equivalence oracle
// for tests/cluster_agglo_equivalence_test and bench/micro_cluster.
// Quadratic scans. Do not use outside verification. It is defined in
// hierarchical_reference.cc, which only the dbs_cluster_reference target
// compiles (dbs_cluster does not), so a caller must link that target.
[[nodiscard]] Result<ClusteringResult> HierarchicalClusterReference(
    const data::PointSet& points, const HierarchicalOptions& options);

}  // namespace dbs::cluster

#endif  // DBS_CLUSTER_HIERARCHICAL_INTERNAL_H_
