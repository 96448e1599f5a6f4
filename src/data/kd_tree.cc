#include "data/kd_tree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "data/distance.h"

namespace dbs::data {

KdTree::KdTree(const PointSet* points) : points_(points) {
  DBS_CHECK(points != nullptr);
  items_.resize(static_cast<size_t>(points->size()));
  std::iota(items_.begin(), items_.end(), int64_t{0});
  if (!items_.empty()) {
    nodes_.reserve(2 * items_.size() / kLeafSize + 2);
    root_ = Build(0, static_cast<int32_t>(items_.size()));
  }
}

KdTree::KdTree(const PointSet* points, std::vector<int64_t> indices)
    : points_(points), items_(std::move(indices)) {
  DBS_CHECK(points != nullptr);
  for (int64_t idx : items_) {
    DBS_CHECK(idx >= 0 && idx < points->size());
  }
  if (!items_.empty()) {
    nodes_.reserve(2 * items_.size() / kLeafSize + 2);
    root_ = Build(0, static_cast<int32_t>(items_.size()));
  }
}

int32_t KdTree::Build(int32_t begin, int32_t end) {
  Node node;
  if (end - begin <= kLeafSize) {
    node.begin = begin;
    node.end = end;
    nodes_.push_back(node);
    return static_cast<int32_t>(nodes_.size() - 1);
  }
  // Split on the widest dimension at the median.
  int d = points_->dim();
  int best_axis = 0;
  double best_extent = -1.0;
  for (int j = 0; j < d; ++j) {
    double lo = std::numeric_limits<double>::infinity();
    double hi = -lo;
    for (int32_t i = begin; i < end; ++i) {
      double v = (*points_)[items_[i]][j];
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    if (hi - lo > best_extent) {
      best_extent = hi - lo;
      best_axis = j;
    }
  }
  int32_t mid = begin + (end - begin) / 2;
  std::nth_element(items_.begin() + begin, items_.begin() + mid,
                   items_.begin() + end, [&](int64_t a, int64_t b) {
                     return (*points_)[a][best_axis] < (*points_)[b][best_axis];
                   });
  node.axis = static_cast<int16_t>(best_axis);
  node.split = (*points_)[items_[mid]][best_axis];
  int32_t self = static_cast<int32_t>(nodes_.size());
  nodes_.push_back(node);
  int32_t left = Build(begin, mid);
  int32_t right = Build(mid, end);
  nodes_[self].left = left;
  nodes_[self].right = right;
  return self;
}

int64_t KdTree::Nearest(PointView query, int64_t exclude) const {
  if (items_.empty()) return -1;
  double best_d2 = std::numeric_limits<double>::infinity();
  int64_t best_idx = -1;
  NearestImpl(root_, query, exclude, best_d2, best_idx);
  return best_idx;
}

void KdTree::NearestImpl(int32_t node_id, PointView query, int64_t exclude,
                         double& best_d2, int64_t& best_idx) const {
  const Node& node = nodes_[node_id];
  if (node.axis < 0) {
    for (int32_t i = node.begin; i < node.end; ++i) {
      int64_t idx = items_[i];
      if (idx == exclude) continue;
      double d2 = SquaredL2(query, (*points_)[idx]);
      if (d2 < best_d2) {
        best_d2 = d2;
        best_idx = idx;
      }
    }
    return;
  }
  double diff = query[node.axis] - node.split;
  int32_t near = diff < 0 ? node.left : node.right;
  int32_t far = diff < 0 ? node.right : node.left;
  NearestImpl(near, query, exclude, best_d2, best_idx);
  if (diff * diff < best_d2) {
    NearestImpl(far, query, exclude, best_d2, best_idx);
  }
}

KdTree::GroupNearest KdTree::NearestExcludingGroup(
    PointView query, const std::vector<int32_t>& group_of,
    int32_t exclude_group, const std::vector<uint8_t>& group_active) const {
  GroupNearest best;
  if (items_.empty()) return best;
  DBS_DCHECK(static_cast<int64_t>(group_of.size()) == points_->size());
  NearestGroupImpl(root_, query, group_of, exclude_group, group_active,
                   best);
  return best;
}

void KdTree::NearestGroupImpl(int32_t node_id, PointView query,
                              const std::vector<int32_t>& group_of,
                              int32_t exclude_group,
                              const std::vector<uint8_t>& group_active,
                              GroupNearest& best) const {
  const Node& node = nodes_[node_id];
  if (node.axis < 0) {
    for (int32_t i = node.begin; i < node.end; ++i) {
      int64_t idx = items_[i];
      int32_t group = group_of[static_cast<size_t>(idx)];
      if (group == exclude_group ||
          group_active[static_cast<size_t>(group)] == 0) {
        continue;
      }
      double d2 = SquaredL2(query, (*points_)[idx]);
      if (d2 < best.d2 || (d2 == best.d2 && group < best.group)) {
        best.d2 = d2;
        best.group = group;
        best.index = idx;
      }
    }
    return;
  }
  double diff = query[node.axis] - node.split;
  int32_t near = diff < 0 ? node.left : node.right;
  int32_t far = diff < 0 ? node.right : node.left;
  NearestGroupImpl(near, query, group_of, exclude_group, group_active, best);
  // `<=`, not `<`: an equal-distance point beyond the splitting plane can
  // still win the tie on a smaller group id.
  if (diff * diff <= best.d2) {
    NearestGroupImpl(far, query, group_of, exclude_group, group_active,
                     best);
  }
}

std::vector<int64_t> KdTree::WithinRadius(PointView query, double radius,
                                          Metric metric) const {
  std::vector<int64_t> out;
  if (items_.empty() || radius < 0) return out;
  int64_t count = 0;
  if (metric == Metric::kL2) {
    RadiusImpl(root_, query, radius * radius, &out, &count, -1);
  } else {
    RadiusMetricImpl(root_, query, radius, metric, &out, &count, -1);
  }
  return out;
}

int64_t KdTree::CountWithinRadius(PointView query, double radius,
                                  Metric metric, int64_t cap) const {
  if (items_.empty() || radius < 0) return 0;
  int64_t count = 0;
  if (metric == Metric::kL2) {
    RadiusImpl(root_, query, radius * radius, nullptr, &count, cap);
  } else {
    RadiusMetricImpl(root_, query, radius, metric, nullptr, &count, cap);
  }
  return count;
}

void KdTree::RadiusMetricImpl(int32_t node_id, PointView query,
                              double radius, Metric metric,
                              std::vector<int64_t>* out, int64_t* count,
                              int64_t cap) const {
  if (cap >= 0 && *count > cap) return;
  const Node& node = nodes_[node_id];
  if (node.axis < 0) {
    for (int32_t i = node.begin; i < node.end; ++i) {
      int64_t idx = items_[i];
      if (Distance(query, (*points_)[idx], metric) <= radius) {
        ++*count;
        if (out != nullptr) out->push_back(idx);
        if (cap >= 0 && *count > cap) return;
      }
    }
    return;
  }
  double diff = query[node.axis] - node.split;
  int32_t near = diff < 0 ? node.left : node.right;
  int32_t far = diff < 0 ? node.right : node.left;
  RadiusMetricImpl(near, query, radius, metric, out, count, cap);
  // The single-axis offset lower-bounds L2, L1 and Linf distances alike.
  if (std::abs(diff) <= radius) {
    RadiusMetricImpl(far, query, radius, metric, out, count, cap);
  }
}

void KdTree::RadiusImpl(int32_t node_id, PointView query, double r2,
                        std::vector<int64_t>* out, int64_t* count,
                        int64_t cap) const {
  if (cap >= 0 && *count > cap) return;
  const Node& node = nodes_[node_id];
  if (node.axis < 0) {
    for (int32_t i = node.begin; i < node.end; ++i) {
      int64_t idx = items_[i];
      if (SquaredL2(query, (*points_)[idx]) <= r2) {
        ++*count;
        if (out != nullptr) out->push_back(idx);
        if (cap >= 0 && *count > cap) return;
      }
    }
    return;
  }
  double diff = query[node.axis] - node.split;
  int32_t near = diff < 0 ? node.left : node.right;
  int32_t far = diff < 0 ? node.right : node.left;
  RadiusImpl(near, query, r2, out, count, cap);
  if (diff * diff <= r2) {
    RadiusImpl(far, query, r2, out, count, cap);
  }
}

}  // namespace dbs::data
