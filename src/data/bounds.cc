#include "data/bounds.h"

#include <algorithm>
#include <limits>

#include "util/check.h"

namespace dbs::data {

BoundingBox::BoundingBox(int dim)
    : lo_(dim, std::numeric_limits<double>::infinity()),
      hi_(dim, -std::numeric_limits<double>::infinity()) {
  DBS_CHECK(dim > 0);
}

BoundingBox::BoundingBox(std::vector<double> lo, std::vector<double> hi)
    : lo_(std::move(lo)), hi_(std::move(hi)), count_(1) {
  DBS_CHECK(lo_.size() == hi_.size());
  for (size_t j = 0; j < lo_.size(); ++j) DBS_CHECK(lo_[j] <= hi_[j]);
}

void BoundingBox::Extend(PointView p) {
  if (lo_.empty()) {
    lo_.assign(p.begin(), p.end());
    hi_.assign(p.begin(), p.end());
    count_ = 1;
    return;
  }
  DBS_CHECK(p.dim() == dim());
  for (int j = 0; j < dim(); ++j) {
    lo_[j] = std::min(lo_[j], p[j]);
    hi_[j] = std::max(hi_[j], p[j]);
  }
  ++count_;
}

void BoundingBox::Extend(const BoundingBox& other) {
  if (other.empty()) return;
  if (empty() && lo_.empty()) {
    *this = other;
    return;
  }
  DBS_CHECK(other.dim() == dim());
  for (int j = 0; j < dim(); ++j) {
    lo_[j] = std::min(lo_[j], other.lo_[j]);
    hi_[j] = std::max(hi_[j], other.hi_[j]);
  }
  count_ += other.count_;
}

bool BoundingBox::Contains(PointView p) const {
  DBS_CHECK(p.dim() == dim());
  for (int j = 0; j < dim(); ++j) {
    if (p[j] < lo_[j] || p[j] > hi_[j]) return false;
  }
  return true;
}

bool BoundingBox::ContainsInterior(PointView p, double margin) const {
  DBS_CHECK(p.dim() == dim());
  for (int j = 0; j < dim(); ++j) {
    double m = margin * extent(j);
    if (p[j] < lo_[j] + m || p[j] > hi_[j] - m) return false;
  }
  return true;
}

double BoundingBox::Volume() const {
  if (empty()) return 0.0;
  double v = 1.0;
  for (int j = 0; j < dim(); ++j) v *= extent(j);
  return v;
}

}  // namespace dbs::data
