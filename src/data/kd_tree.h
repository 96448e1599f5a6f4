// Static kd-tree over a PointSet.
//
// Supports nearest-neighbor (optionally group-filtered), radius search, and
// neighbor counting with early abort (the primitive the exact detector's
// fallback needs: stop as soon as more than `cap` neighbors are seen). The
// tree indexes point positions at build time; the underlying PointSet must
// stay alive and unmodified.
//
// Construction is the classic median split on the widest dimension, giving
// a balanced tree in O(n log n).

#ifndef DBS_DATA_KD_TREE_H_
#define DBS_DATA_KD_TREE_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "data/distance.h"
#include "data/point_set.h"

namespace dbs::data {

class KdTree {
 public:
  // Builds over all points of `points` (kept by pointer; must outlive tree).
  explicit KdTree(const PointSet* points);

  // Builds over a subset given by indices into `points`.
  KdTree(const PointSet* points, std::vector<int64_t> indices);

  int64_t size() const { return static_cast<int64_t>(items_.size()); }

  // Index (into the original PointSet) of the nearest neighbor of `query`.
  // If `exclude` >= 0, that point index is skipped (for self-queries).
  // Returns -1 on an empty tree.
  int64_t Nearest(PointView query, int64_t exclude = -1) const;

  // All point indices within `metric` distance `radius` of `query`
  // (inclusive). For any of L2/L1/Linf the per-axis splitting-plane
  // distance lower-bounds the metric distance, so the same tree prunes
  // correctly; only the leaf-level distance changes. L2 compares squared
  // distances against radius * radius.
  std::vector<int64_t> WithinRadius(PointView query, double radius,
                                    Metric metric) const;

  // Counts the points WithinRadius would return, stopping early once the
  // count exceeds `cap` (returns cap+1 in that case). cap < 0 means count
  // everything.
  int64_t CountWithinRadius(PointView query, double radius, Metric metric,
                            int64_t cap = -1) const;

  // Result of a group-filtered nearest query: the winning point, the group
  // it belongs to and the squared L2 distance. index < 0 when no point
  // passed the filter.
  struct GroupNearest {
    int64_t index = -1;
    int32_t group = -1;
    double d2 = std::numeric_limits<double>::infinity();
  };

  // Nearest point among those whose group (`group_of[point_index]`) is
  // active (`group_active[group] != 0`) and differs from `exclude_group`.
  // Distance ties resolve toward the SMALLEST group id — the agglomerative
  // clusterer's "lowest cluster index wins" contract — so the far-subtree
  // prune uses `<=` rather than `<` (an equal-distance point in the far
  // half may carry a smaller group id). `group_of` must have one entry per
  // point of the indexed PointSet; `group_active` one entry per group id.
  GroupNearest NearestExcludingGroup(
      PointView query, const std::vector<int32_t>& group_of,
      int32_t exclude_group, const std::vector<uint8_t>& group_active) const;

 private:
  struct Node {
    int32_t left = -1;
    int32_t right = -1;
    int32_t begin = 0;   // leaf: range into items_
    int32_t end = 0;
    int16_t axis = -1;   // -1 for leaf
    double split = 0.0;
  };

  static constexpr int kLeafSize = 16;

  int32_t Build(int32_t begin, int32_t end);

  void NearestImpl(int32_t node, PointView query, int64_t exclude,
                   double& best_d2, int64_t& best_idx) const;

  void NearestGroupImpl(int32_t node, PointView query,
                        const std::vector<int32_t>& group_of,
                        int32_t exclude_group,
                        const std::vector<uint8_t>& group_active,
                        GroupNearest& best) const;

  // L2 compares squared distances against r2 = radius * radius, the
  // comparison the outlier passes' candidate grid and cell-list kernel
  // mirror; the other metrics compare Distance against the radius.
  void RadiusImpl(int32_t node, PointView query, double r2,
                  std::vector<int64_t>* out, int64_t* count,
                  int64_t cap) const;

  void RadiusMetricImpl(int32_t node, PointView query, double radius,
                        Metric metric, std::vector<int64_t>* out,
                        int64_t* count, int64_t cap) const;

  const PointSet* points_;
  std::vector<int64_t> items_;  // permutation of point indices
  std::vector<Node> nodes_;
  int32_t root_ = -1;
};

}  // namespace dbs::data

#endif  // DBS_DATA_KD_TREE_H_
