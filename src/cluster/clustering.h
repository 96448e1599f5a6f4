// Shared clustering result types.
//
// Every clusterer in this module reports its output as a ClusteringResult:
// per-cluster membership, centroid, and (for the hierarchical algorithm) the
// shrunk representative points that CURE-style evaluation matches against
// ground truth. BIRCH reports centers and radii through its own summary
// (see birch.h) because it never materializes memberships.

#ifndef DBS_CLUSTER_CLUSTERING_H_
#define DBS_CLUSTER_CLUSTERING_H_

#include <cstdint>
#include <vector>

#include "data/point_set.h"

namespace dbs::cluster {

struct Cluster {
  // Indices into the clustered point set.
  std::vector<int64_t> members;
  std::vector<double> centroid;
  // Representative points (possibly empty for algorithms without them).
  data::PointSet representatives;
  // Total weight of the members (== members.size() when unweighted).
  double weight = 0.0;
};

struct ClusteringResult {
  std::vector<Cluster> clusters;
  // Label per input point: index into `clusters`, or -1 if unassigned.
  std::vector<int32_t> labels;

  int num_clusters() const { return static_cast<int>(clusters.size()); }
};

}  // namespace dbs::cluster

#endif  // DBS_CLUSTER_CLUSTERING_H_
