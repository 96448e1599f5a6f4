// Distance metrics over PointViews.
//
// The paper states results for Euclidean distance but notes that other
// metrics (L1, Linf) work equally well; detectors and clusterers take a
// Metric enum so all three are exercised by the test suite.

#ifndef DBS_DATA_DISTANCE_H_
#define DBS_DATA_DISTANCE_H_

#include <cmath>

#include "data/point_set.h"
#include "util/check.h"

namespace dbs::data {

enum class Metric {
  kL2 = 0,
  kL1,
  kLinf,
};

inline double SquaredL2(PointView a, PointView b) {
  DBS_DCHECK(a.dim() == b.dim());
  double sum = 0.0;
  for (int j = 0; j < a.dim(); ++j) {
    double diff = a[j] - b[j];
    sum += diff * diff;
  }
  return sum;
}

// True when every coordinate of p is finite. A point with a NaN or
// infinite coordinate is within no finite radius of any point, itself
// included, under every metric below: each of its distances is NaN or
// +inf. The DB(p,k) detectors keep such points out of their indexes and
// report them with 0 neighbors, as the definition gives.
inline bool AllFinite(PointView p) {
  for (double v : p) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

// One step of the Linf maximum: the larger of `best` and `gap`, where a
// NaN on either side wins and stays, as a NaN term does in the L2 and L1
// sums. std::max would drop a NaN gap, which would put a point with a NaN
// coordinate within any radius of every point. Every Linf maximum in the
// library goes through this, so they all agree on NaN.
inline double LinfMax(double best, double gap) {
  return gap > best || std::isnan(gap) ? gap : best;
}

inline double Distance(PointView a, PointView b, Metric metric = Metric::kL2) {
  DBS_DCHECK(a.dim() == b.dim());
  switch (metric) {
    case Metric::kL2:
      return std::sqrt(SquaredL2(a, b));
    case Metric::kL1: {
      double sum = 0.0;
      for (int j = 0; j < a.dim(); ++j) sum += std::abs(a[j] - b[j]);
      return sum;
    }
    case Metric::kLinf: {
      double best = 0.0;
      for (int j = 0; j < a.dim(); ++j)
        best = LinfMax(best, std::abs(a[j] - b[j]));
      return best;
    }
  }
  return 0.0;
}

}  // namespace dbs::data

#endif  // DBS_DATA_DISTANCE_H_
