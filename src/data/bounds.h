// Axis-aligned bounding boxes.
//
// The paper assumes the data domain is the unit cube (§2.2, "otherwise we
// can scale the attributes"). Nothing here rescales the data: estimators
// keep its own coordinates and divide by the box's Volume() where the
// paper's formulas assume a unit-volume domain (see
// DensityEstimator::AverageDensity).

#ifndef DBS_DATA_BOUNDS_H_
#define DBS_DATA_BOUNDS_H_

#include <vector>

#include "data/point_set.h"

namespace dbs::data {

// Axis-aligned box [lo_j, hi_j] per dimension.
class BoundingBox {
 public:
  BoundingBox() = default;
  explicit BoundingBox(int dim);
  BoundingBox(std::vector<double> lo, std::vector<double> hi);

  int dim() const { return static_cast<int>(lo_.size()); }
  bool empty() const { return count_ == 0; }

  // Expands the box to cover p.
  void Extend(PointView p);

  // Expands the box to cover another box.
  void Extend(const BoundingBox& other);

  // True if p lies inside the closed box.
  bool Contains(PointView p) const;

  // True if p lies inside the box shrunk by `margin` on every side — the
  // "interior" test used by the cluster-found evaluation metric.
  bool ContainsInterior(PointView p, double margin) const;

  double lo(int j) const { return lo_[j]; }
  double hi(int j) const { return hi_[j]; }
  double extent(int j) const { return hi_[j] - lo_[j]; }

  // Product of extents; 0 for an empty box.
  double Volume() const;

  const std::vector<double>& lo() const { return lo_; }
  const std::vector<double>& hi() const { return hi_; }

 private:
  std::vector<double> lo_;
  std::vector<double> hi_;
  int64_t count_ = 0;
};

}  // namespace dbs::data

#endif  // DBS_DATA_BOUNDS_H_
