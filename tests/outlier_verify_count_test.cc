// Count-level oracle for the approximate detector's verify pass.
//
// Reports carry only the outliers' neighbor counts, so a wrong count on a
// candidate that is not an outlier would go unseen by the report-level
// tests. These tests check EVERY slot of CountCandidateNeighborsPartial's
// counts — per shard, and summed after MergeNeighborCounts — against a
// brute-force count that uses the kd-tree's own comparisons
// (data::SquaredL2 <= r*r for L2, data::Distance <= r for L1 and Linf), for
// every metric, on the candidate grid and on each kd-tree fallback.

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/bounds.h"
#include "data/dataset.h"
#include "data/distance.h"
#include "data/point_set.h"
#include "data/range_scan.h"
#include "outlier/grid_internal.h"
#include "outlier/kde_detector.h"
#include "util/rng.h"
#include "util/shard.h"

namespace dbs::outlier {
namespace {

using data::Metric;
using data::PointSet;

constexpr Metric kMetrics[] = {Metric::kL2, Metric::kL1, Metric::kLinf};
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

bool HasNan(data::PointView x) {
  return std::any_of(x.begin(), x.end(),
                     [](double v) { return std::isnan(v); });
}

// Rows [begin, end) of `rows` within `radius` of each candidate, under the
// comparisons KdTree::WithinRadius makes. A row with a NaN coordinate
// is nobody's neighbour, as in the verify pass: without the skip, Linf's
// std::max would drop the NaN axis (NanAndInfiniteRowsCountNothing shows
// the skip changes nothing under L2 and L1).
std::vector<int64_t> BruteCounts(const PointSet& rows, int64_t begin,
                                 int64_t end, const PointSet& candidates,
                                 double radius, Metric metric,
                                 bool skip_nan_rows = true) {
  std::vector<int64_t> counts(static_cast<size_t>(candidates.size()), 0);
  for (int64_t c = 0; c < candidates.size(); ++c) {
    for (int64_t r = begin; r < end; ++r) {
      if (skip_nan_rows && HasNan(rows[r])) continue;
      const bool hit =
          metric == Metric::kL2
              ? data::SquaredL2(rows[r], candidates[c]) <= radius * radius
              : data::Distance(rows[r], candidates[c], metric) <= radius;
      if (hit) ++counts[static_cast<size_t>(c)];
    }
  }
  return counts;
}

// Whether the verify pass takes the candidate grid for this input.
bool GridServesCandidates(const PointSet& candidates, double radius) {
  if (!internal::GridServes(radius, candidates.dim())) return false;
  data::BoundingBox box(candidates.dim());
  for (int64_t c = 0; c < candidates.size(); ++c) box.Extend(candidates[c]);
  internal::GridGeometry geo;
  return internal::MakeGridGeometry(box, radius, &geo);
}

// Runs the verify pass over `rows` at 1, 2, 3 and 7 shards for every
// metric, checking each shard's counts and the merged sums slot by slot.
void ExpectBruteForceCounts(const PointSet& rows, const PointSet& candidates,
                            double radius) {
  OutlierCandidates cands;
  cands.points = candidates;
  for (int64_t c = 0; c < candidates.size(); ++c) cands.rows.push_back(c);
  const int64_t total = rows.size();
  // Small batches, so shard ranges clip batches and rows span many.
  data::InMemoryScan base(&rows, /*batch_rows=*/37);
  for (Metric metric : kMetrics) {
    SCOPED_TRACE("metric " + std::to_string(static_cast<int>(metric)));
    DbOutlierParams params;
    params.radius = radius;
    params.metric = metric;
    const std::vector<int64_t> want =
        BruteCounts(rows, 0, total, candidates, radius, metric);
    for (int64_t shards : {1, 2, 3, 7}) {
      SCOPED_TRACE("shards " + std::to_string(shards));
      PartialNeighborCounts merged;
      // Highest shard first, so the merge also has to restore shard order.
      for (int64_t s = shards - 1; s >= 0; --s) {
        const RowRange range = ShardRowRange(total, shards, s);
        data::RangeScan scan(&base, range.begin, range.end);
        ShardInfo info;
        info.shard = s;
        info.num_shards = shards;
        info.total_rows = total;
        auto part = CountCandidateNeighborsPartial(scan, cands, params, info);
        ASSERT_TRUE(part.ok()) << part.status().ToString();
        ASSERT_EQ(part->parts.size(), 1u);
        EXPECT_EQ(part->parts[0].counts,
                  BruteCounts(rows, range.begin, range.end, candidates,
                              radius, metric))
            << "shard " << s;
        auto next = MergeNeighborCounts(std::move(merged), std::move(*part));
        ASSERT_TRUE(next.ok()) << next.status().ToString();
        merged = std::move(*next);
      }
      ASSERT_EQ(static_cast<int64_t>(merged.parts.size()), shards);
      std::vector<int64_t> sum(static_cast<size_t>(candidates.size()), 0);
      for (size_t i = 0; i < merged.parts.size(); ++i) {
        EXPECT_EQ(merged.parts[i].shard, static_cast<int64_t>(i));
        for (size_t c = 0; c < sum.size(); ++c) {
          sum[c] += merged.parts[i].counts[c];
        }
      }
      EXPECT_EQ(sum, want);
    }
  }
}

// A tight cloud (large counts) over a uniform background in [0, 1]^dim.
PointSet CloudAndBackground(int dim, int64_t cloud, int64_t background,
                            uint64_t seed) {
  dbs::Rng rng(seed);
  PointSet ps(dim);
  std::vector<double> x(static_cast<size_t>(dim));
  for (int64_t i = 0; i < cloud + background; ++i) {
    const double lo = i < cloud ? 0.45 : 0.0;
    const double hi = i < cloud ? 0.55 : 1.0;
    for (double& v : x) v = rng.NextDouble(lo, hi);
    ps.Append(x);
  }
  return ps;
}

// Every `stride`-th row, plus `extra` uniform points that are not rows.
PointSet SomeRowsAndOthers(const PointSet& rows, int64_t stride, int extra,
                           uint64_t seed) {
  dbs::Rng rng(seed);
  PointSet ps(rows.dim());
  for (int64_t r = 0; r < rows.size(); r += stride) ps.Append(rows[r]);
  std::vector<double> x(static_cast<size_t>(rows.dim()));
  for (int i = 0; i < extra; ++i) {
    for (double& v : x) v = rng.NextDouble();
    ps.Append(x);
  }
  return ps;
}

TEST(VerifyCountTest, GridDimensionsOneToSix) {
  const struct {
    int dim;
    double radius;
  } cases[] = {{1, 0.01}, {2, 0.05}, {3, 0.1}, {6, 0.3}};
  for (const auto& c : cases) {
    SCOPED_TRACE("dim " + std::to_string(c.dim));
    const PointSet rows = CloudAndBackground(c.dim, 150, 350, 11 + c.dim);
    const PointSet candidates = SomeRowsAndOthers(rows, 5, 20, 29 + c.dim);
    ASSERT_TRUE(GridServesCandidates(candidates, c.radius));
    ExpectBruteForceCounts(rows, candidates, c.radius);
  }
}

TEST(VerifyCountTest, DimensionSevenTakesKdTree) {
  const PointSet rows = CloudAndBackground(7, 150, 350, 17);
  const PointSet candidates = SomeRowsAndOthers(rows, 5, 20, 37);
  ASSERT_FALSE(GridServesCandidates(candidates, 0.4));
  ExpectBruteForceCounts(rows, candidates, 0.4);
}

TEST(VerifyCountTest, RadiusZeroTakesKdTree) {
  // A coarse lattice with repeats, so exact coincidences are counted.
  PointSet rows(2);
  for (int i = 0; i < 300; ++i) {
    rows.Append(std::vector<double>{0.25 * (i % 5), 0.25 * (i % 7)});
  }
  const PointSet candidates = SomeRowsAndOthers(rows, 9, 5, 41);
  ASSERT_FALSE(GridServesCandidates(candidates, 0.0));
  ExpectBruteForceCounts(rows, candidates, 0.0);
}

TEST(VerifyCountTest, BoxOverCellCapTakesKdTree) {
  // Radius 0.004 over the unit cube needs ~251^3 ~ 15.8M cells, over the
  // 2^21 cap; the corners pin the box.
  PointSet rows = CloudAndBackground(3, 150, 350, 43);
  rows.Append(std::vector<double>{0.0, 0.0, 0.0});
  rows.Append(std::vector<double>{1.0, 1.0, 1.0});
  PointSet candidates = SomeRowsAndOthers(rows, 4, 10, 47);
  candidates.Append(std::vector<double>{0.0, 0.0, 0.0});
  candidates.Append(std::vector<double>{1.0, 1.0, 1.0});
  ASSERT_FALSE(GridServesCandidates(candidates, 0.004));
  ExpectBruteForceCounts(rows, candidates, 0.004);
}

TEST(VerifyCountTest, InfiniteCandidateTakesKdTree) {
  // The NaN rows line up with the infinite candidates on their finite axis:
  // Linf's std::max would count them, and the kd-tree loop must skip them
  // as the grid does.
  PointSet rows = CloudAndBackground(2, 100, 200, 53);
  rows.Append(std::vector<double>{kInf, 0.5});
  rows.Append(std::vector<double>{0.5, -kInf});
  rows.Append(std::vector<double>{kNaN, 0.5});
  rows.Append(std::vector<double>{0.5, kNaN});
  PointSet candidates = SomeRowsAndOthers(rows, 6, 10, 59);
  candidates.Append(std::vector<double>{kInf, 0.5});
  candidates.Append(std::vector<double>{0.5, -kInf});
  ASSERT_FALSE(GridServesCandidates(candidates, 0.05));
  ExpectBruteForceCounts(rows, candidates, 0.05);
}

TEST(VerifyCountTest, RowsOneCellOutsideAndFarOutsideTheBox) {
  // Candidates fill [0, 1]^dim, corners included. Rows sit outward of each
  // corner, along each axis and along the diagonal, at multiples t of the
  // radius: along an axis, t <= 1 lands in the ring of cells just outside
  // the box and reaches the corner candidate, and t >= 1.5 lands past the
  // ring. Two rows sit 1e300 out.
  const double radius = 0.1;
  for (int dim : {2, 3}) {
    SCOPED_TRACE("dim " + std::to_string(dim));
    PointSet candidates = CloudAndBackground(dim, 20, 60, 61 + dim);
    const std::vector<double> zero(static_cast<size_t>(dim), 0.0);
    const std::vector<double> one(static_cast<size_t>(dim), 1.0);
    candidates.Append(zero);
    candidates.Append(one);
    PointSet rows = CloudAndBackground(dim, 20, 60, 67 + dim);
    for (double t : {0.25, 0.5, 0.99, 1.0, 1.01, 1.5, 2.5, 10.0, 1e6}) {
      for (const std::vector<double>* corner : {&zero, &one}) {
        const double outward = (*corner)[0] == 0.0 ? -1.0 : 1.0;
        for (int j = 0; j < dim; ++j) {
          std::vector<double> x = *corner;
          x[static_cast<size_t>(j)] += outward * t * radius;
          rows.Append(x);
        }
        std::vector<double> diagonal = *corner;
        for (double& v : diagonal) v += outward * t * radius / dim;
        rows.Append(diagonal);
      }
    }
    for (double far : {-1e300, 1e300}) {
      std::vector<double> x(static_cast<size_t>(dim), 0.5);
      x[0] = far;
      rows.Append(x);
    }
    ASSERT_TRUE(GridServesCandidates(candidates, radius));
    ExpectBruteForceCounts(rows, candidates, radius);
  }
}

TEST(VerifyCountTest, RowsExactlyOnCellBoundaries) {
  // Candidates on a power-of-two lattice with spacing equal to the radius,
  // so lattice neighbours sit at exactly the radius. Rows sit on every
  // cell boundary of the candidate grid and one ulp to either side of it,
  // on each axis.
  const double radius = 0.125;
  PointSet candidates(2);
  for (int i = 0; i <= 8; ++i) {
    for (int j = 0; j <= 8; j += 2) {
      candidates.Append(std::vector<double>{radius * i, radius * j});
    }
  }
  ASSERT_TRUE(GridServesCandidates(candidates, radius));
  data::BoundingBox box(2);
  for (int64_t c = 0; c < candidates.size(); ++c) box.Extend(candidates[c]);
  internal::GridGeometry geo;
  ASSERT_TRUE(internal::MakeGridGeometry(box, radius, &geo));
  const double side = radius * internal::kSideInflate;
  PointSet rows = candidates;
  for (int64_t k = -2; k <= geo.cells[0] + 1; ++k) {
    const double edge = box.lo(0) + static_cast<double>(k) * side;
    for (double x : {std::nextafter(edge, -kInf), edge,
                     std::nextafter(edge, kInf)}) {
      for (double other : {0.0, 0.25, 0.3125, 1.0}) {
        rows.Append(std::vector<double>{x, other});
        rows.Append(std::vector<double>{other, x});
      }
    }
  }
  ExpectBruteForceCounts(rows, candidates, radius);
}

TEST(VerifyCountTest, DuplicateRowsAndDuplicateCandidates) {
  const PointSet base = CloudAndBackground(3, 60, 60, 71);
  PointSet rows(3);
  for (int copy = 0; copy < 3; ++copy) rows.AppendAll(base);
  PointSet candidates(3);
  for (int64_t r = 0; r < base.size(); r += 7) {
    for (int copy = 0; copy < 4; ++copy) candidates.Append(base[r]);
  }
  ASSERT_TRUE(GridServesCandidates(candidates, 0.08));
  ExpectBruteForceCounts(rows, candidates, 0.08);
}

TEST(VerifyCountTest, NanAndInfiniteRowsCountNothing) {
  const PointSet finite = CloudAndBackground(2, 100, 150, 73);
  const PointSet candidates = SomeRowsAndOthers(finite, 5, 10, 79);
  PointSet rows = finite;
  for (double bad : {kNaN, kInf, -kInf}) {
    for (double other : {0.5, kNaN, kInf, -kInf}) {
      rows.Append(std::vector<double>{bad, other});
      rows.Append(std::vector<double>{other, bad});
    }
  }
  ASSERT_TRUE(GridServesCandidates(candidates, 0.05));
  for (Metric metric : kMetrics) {
    SCOPED_TRACE("metric " + std::to_string(static_cast<int>(metric)));
    const std::vector<int64_t> want =
        BruteCounts(finite, 0, finite.size(), candidates, 0.05, metric);
    EXPECT_EQ(BruteCounts(rows, 0, rows.size(), candidates, 0.05, metric),
              want);
    if (metric != Metric::kLinf) {
      EXPECT_EQ(BruteCounts(rows, 0, rows.size(), candidates, 0.05, metric,
                            /*skip_nan_rows=*/false),
                want);
    }
  }
  ExpectBruteForceCounts(rows, candidates, 0.05);
}

}  // namespace
}  // namespace dbs::outlier
