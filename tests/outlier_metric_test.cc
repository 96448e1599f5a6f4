// Tests for distance-metric-general outlier detection (L1 / Linf), the
// §3.2 remark that non-Euclidean metrics "can be used equally well".

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "data/kd_tree.h"
#include "data/point_set.h"
#include "density/kde.h"
#include "outlier/ball_integration.h"
#include "outlier/cell_list.h"
#include "outlier/kde_detector.h"
#include "outlier/nested_loop_reference.h"
#include "util/math.h"
#include "util/rng.h"

namespace dbs::outlier {
namespace {

using data::Metric;
using data::PointSet;
using data::PointView;

PointSet RandomPoints(int64_t n, int dim, uint64_t seed) {
  Rng rng(seed);
  PointSet ps(dim);
  std::vector<double> buf(dim);
  for (int64_t i = 0; i < n; ++i) {
    for (int j = 0; j < dim; ++j) buf[j] = rng.NextDouble();
    ps.Append(buf);
  }
  return ps;
}

TEST(KdTreeMetricTest, MatchesBruteForceForAllMetrics) {
  PointSet ps = RandomPoints(800, 3, 3);
  data::KdTree tree(&ps);
  Rng rng(5);
  for (Metric metric : {Metric::kL2, Metric::kL1, Metric::kLinf}) {
    for (int q = 0; q < 20; ++q) {
      double query[3] = {rng.NextDouble(), rng.NextDouble(),
                         rng.NextDouble()};
      PointView p(query, 3);
      for (double radius : {0.05, 0.2}) {
        std::vector<int64_t> got =
            tree.WithinRadiusMetric(p, radius, metric);
        std::sort(got.begin(), got.end());
        std::vector<int64_t> want;
        for (int64_t i = 0; i < ps.size(); ++i) {
          if (data::Distance(p, ps[i], metric) <= radius) {
            want.push_back(i);
          }
        }
        EXPECT_EQ(got, want) << "metric=" << static_cast<int>(metric)
                             << " r=" << radius;
        EXPECT_EQ(tree.CountWithinRadiusMetric(p, radius, metric),
                  static_cast<int64_t>(want.size()));
      }
    }
  }
}

TEST(KdTreeMetricTest, CapAbortsEarly) {
  PointSet ps = RandomPoints(2000, 2, 7);
  data::KdTree tree(&ps);
  double q[2] = {0.5, 0.5};
  PointView p(q, 2);
  int64_t full = tree.CountWithinRadiusMetric(p, 0.3, Metric::kL1);
  ASSERT_GT(full, 20);
  EXPECT_EQ(tree.CountWithinRadiusMetric(p, 0.3, Metric::kL1, 10), 11);
}

TEST(ExactDetectorMetricTest, MetricChangesTheNeighborhood) {
  // Points on the axes at distance 0.09: inside an L1 ball of radius 0.1,
  // inside the L2 ball too, and inside the Linf cube. A diagonal point at
  // (0.07, 0.07): L1 distance 0.14 (outside), L2 ~0.099 (inside),
  // Linf 0.07 (inside). So the center's neighbor count depends on metric.
  PointSet ps(2, {0.0,  0.0,    // center
                  0.09, 0.0,    // axis neighbor
                  0.07, 0.07,   // diagonal point
                  5.0,  5.0});  // far away
  DbOutlierParams params;
  params.radius = 0.1;
  params.max_neighbors = 1;

  params.metric = Metric::kL1;
  auto l1 = DetectOutliersCellList(ps, params);
  ASSERT_TRUE(l1.ok());
  // L1 neighborhoods of radius 0.1: center <-> axis at 0.09 (neighbors),
  // axis <-> diagonal at |0.09-0.07|+0.07 = 0.09 (neighbors), but center
  // <-> diagonal at 0.14 (not). So the axis point has 2 neighbors (> p=1,
  // not an outlier) while center and diagonal have 1 each.
  EXPECT_EQ(l1->outlier_indices, (std::vector<int64_t>{0, 2, 3}));

  params.metric = Metric::kL2;
  auto l2 = DetectOutliersCellList(ps, params);
  ASSERT_TRUE(l2.ok());
  // Under L2 the center sees BOTH near points (2 > 1): not an outlier.
  std::set<int64_t> l2_set(l2->outlier_indices.begin(),
                           l2->outlier_indices.end());
  EXPECT_FALSE(l2_set.count(0));

  params.metric = Metric::kLinf;
  auto linf = DetectOutliersCellList(ps, params);
  ASSERT_TRUE(linf.ok());
  std::set<int64_t> linf_set(linf->outlier_indices.begin(),
                             linf->outlier_indices.end());
  EXPECT_FALSE(linf_set.count(0));
}

TEST(ExactDetectorMetricTest, KdTreeMatchesNestedLoopAllMetrics) {
  // 2-D runs on the grid, 7-D on the kd-tree fallback.
  struct Case {
    int dim;
    double radius;
  };
  for (const Case& c : {Case{2, 0.03}, Case{7, 0.6}}) {
    PointSet ps = RandomPoints(500, c.dim, 11);
    for (Metric metric : {Metric::kL1, Metric::kLinf}) {
      SCOPED_TRACE(testing::Message() << "dim=" << c.dim << " metric="
                                      << static_cast<int>(metric));
      DbOutlierParams params;
      params.radius = c.radius;
      params.max_neighbors = 2;
      params.metric = metric;
      CellListStats stats;
      CellListDetectorOptions options;
      options.stats = &stats;
      auto a = DetectOutliersCellList(ps, params, options);
      auto b = DetectOutliersNestedLoop(ps, params);
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      EXPECT_EQ(a->outlier_indices, b->outlier_indices);
      EXPECT_EQ(a->neighbor_counts, b->neighbor_counts);
      EXPECT_EQ(stats.used_fallback, c.dim == 7);
    }
  }
}

TEST(BallVolumeMetricTest, KnownVolumes) {
  // L1 ball (cross-polytope): 2D diamond of "radius" r has area 2 r^2.
  EXPECT_NEAR(CrossPolytopeVolume(2, 1.0), 2.0, 1e-12);
  EXPECT_NEAR(CrossPolytopeVolume(3, 1.0), 8.0 / 6.0, 1e-12);
  // Relative ordering for a fixed radius: cube > L2 ball > cross-polytope.
  for (int d = 2; d <= 5; ++d) {
    EXPECT_GT(CubeVolume(d, 1.0), BallVolume(d, 1.0));
    EXPECT_GT(BallVolume(d, 1.0), CrossPolytopeVolume(d, 1.0));
  }
}

TEST(BallIntegratorMetricTest, QmcEstimatesUniformMassInEachBallShape) {
  // Uniform data: the integral over a ball of any shape ~ n * volume.
  PointSet ps = RandomPoints(30000, 2, 13);
  density::KdeOptions opts;
  opts.num_kernels = 400;
  auto kde = density::Kde::Fit(ps, opts);
  ASSERT_TRUE(kde.ok());
  double q[2] = {0.5, 0.5};
  PointView p(q, 2);
  const double r = 0.1;
  struct Case {
    Metric metric;
    double volume;
  };
  for (const Case& c : {Case{Metric::kL2, M_PI * r * r},
                        Case{Metric::kL1, 2 * r * r},
                        Case{Metric::kLinf, 4 * r * r}}) {
    BallIntegrator qmc(BallIntegration::kQuasiMonteCarlo, 2, 256, c.metric);
    double integral = qmc.Integrate(*kde, p, r);
    double truth = 30000.0 * c.volume;
    EXPECT_NEAR(integral, truth, 0.25 * truth)
        << "metric=" << static_cast<int>(c.metric);
  }
}

TEST(KdeDetectorMetricTest, FindsPlantedOutliersUnderL1AndLinf) {
  Rng rng(17);
  PointSet ps(2);
  for (int i = 0; i < 6000; ++i) {
    ps.Append(std::vector<double>{rng.NextDouble(0.4, 0.6),
                                  rng.NextDouble(0.4, 0.6)});
  }
  std::vector<int64_t> planted;
  for (int i = 0; i < 6; ++i) {
    double angle = 2.0 * M_PI * i / 6;
    planted.push_back(ps.size());
    ps.Append(std::vector<double>{0.5 + 2.0 * std::cos(angle),
                                  0.5 + 2.0 * std::sin(angle)});
  }
  density::KdeOptions kde_opts;
  kde_opts.num_kernels = 300;
  kde_opts.bandwidth_scale = 0.3;
  auto kde = density::Kde::Fit(ps, kde_opts);
  ASSERT_TRUE(kde.ok());

  for (Metric metric : {Metric::kL1, Metric::kLinf}) {
    DbOutlierParams params;
    params.radius = 0.08;
    params.max_neighbors = 4;
    params.metric = metric;
    KdeDetectorOptions options;
    options.candidate_slack = 5.0;
    auto approx = DetectOutliersApproximate(ps, *kde, params, options);
    auto exact = DetectOutliersCellList(ps, params);
    ASSERT_TRUE(approx.ok());
    ASSERT_TRUE(exact.ok());
    EXPECT_EQ(approx->outlier_indices, exact->outlier_indices)
        << "metric=" << static_cast<int>(metric);
    std::set<int64_t> found(approx->outlier_indices.begin(),
                            approx->outlier_indices.end());
    for (int64_t idx : planted) EXPECT_TRUE(found.count(idx));
  }
}

}  // namespace
}  // namespace dbs::outlier
