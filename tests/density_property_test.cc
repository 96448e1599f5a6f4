// Property sweeps for the KDE across kernel types, bandwidth rules, and
// dimensionalities, plus the leave-one-out evaluation contract shared by
// both estimator backends, the KDE and the grid.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "data/point_set.h"
#include "density/grid_density.h"
#include "density/kde.h"
#include "util/rng.h"
#include "util/stats.h"

namespace dbs::density {
namespace {

using data::PointSet;
using data::PointView;

PointSet UniformCube(int64_t n, int dim, uint64_t seed) {
  Rng rng(seed);
  PointSet ps(dim);
  std::vector<double> buf(dim);
  for (int64_t i = 0; i < n; ++i) {
    for (int j = 0; j < dim; ++j) buf[j] = rng.NextDouble();
    ps.Append(buf);
  }
  return ps;
}

class KdeSweepTest
    : public ::testing::TestWithParam<
          std::tuple<KernelType, BandwidthRule, int>> {};

TEST_P(KdeSweepTest, DensityIsNonNegativeEverywhere) {
  auto [kernel, rule, dim] = GetParam();
  PointSet ps = UniformCube(3000, dim, 7);
  KdeOptions opts;
  opts.kernel = kernel;
  opts.bandwidth_rule = rule;
  opts.num_kernels = 200;
  auto kde = Kde::Fit(ps, opts);
  ASSERT_TRUE(kde.ok());
  Rng rng(11);
  std::vector<double> q(dim);
  for (int i = 0; i < 200; ++i) {
    for (int j = 0; j < dim; ++j) q[j] = rng.NextDouble(-0.5, 1.5);
    EXPECT_GE(kde->Evaluate(PointView(q.data(), dim)), 0.0);
  }
}

TEST_P(KdeSweepTest, InteriorDensityApproximatesN) {
  auto [kernel, rule, dim] = GetParam();
  const int64_t n = 20000;
  PointSet ps = UniformCube(n, dim, 13);
  KdeOptions opts;
  opts.kernel = kernel;
  opts.bandwidth_rule = rule;
  opts.num_kernels = 500;
  auto kde = Kde::Fit(ps, opts);
  ASSERT_TRUE(kde.ok());
  // Mean density over interior probes ~ n (the uniform cube's density).
  Rng rng(17);
  std::vector<double> q(dim);
  double sum = 0;
  const int probes = 500;
  for (int i = 0; i < probes; ++i) {
    for (int j = 0; j < dim; ++j) q[j] = rng.NextDouble(0.3, 0.7);
    sum += kde->Evaluate(PointView(q.data(), dim));
  }
  EXPECT_NEAR(sum / probes, static_cast<double>(n), 0.25 * n);
}

TEST_P(KdeSweepTest, IndexMatchesBrute) {
  auto [kernel, rule, dim] = GetParam();
  PointSet ps = UniformCube(2000, dim, 19);
  KdeOptions opts;
  opts.kernel = kernel;
  opts.bandwidth_rule = rule;
  opts.num_kernels = 150;
  auto kde = Kde::Fit(ps, opts);
  ASSERT_TRUE(kde.ok());
  Rng rng(23);
  std::vector<double> q(dim);
  for (int i = 0; i < 100; ++i) {
    for (int j = 0; j < dim; ++j) q[j] = rng.NextDouble();
    PointView p(q.data(), dim);
    double a = kde->Evaluate(p);
    double b = kde->EvaluateBrute(p);
    EXPECT_NEAR(a, b, 1e-9 * std::max(1.0, std::abs(b)));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KdeSweepTest,
    ::testing::Combine(
        ::testing::Values(KernelType::kEpanechnikov, KernelType::kQuartic,
                          KernelType::kTriangular, KernelType::kUniform,
                          KernelType::kGaussian),
        ::testing::Values(BandwidthRule::kScott, BandwidthRule::kSilverman),
        ::testing::Values(1, 2, 4)),
    [](const auto& param_info) {
      std::string name = KernelTypeName(std::get<0>(param_info.param));
      name += std::get<1>(param_info.param) == BandwidthRule::kScott
                  ? "_scott_"
                  : "_silverman_";
      name += std::to_string(std::get<2>(param_info.param)) + "d";
      return name;
    });

TEST(LeaveOneOutTest, KdeExcludesCoincidentCenterOnly) {
  // Build a KDE where every point is a center; evaluating at a data point
  // with itself excluded must drop exactly that center's contribution.
  PointSet ps(1, {0.0, 0.5, 1.0, 0.5001});
  KdeOptions opts;
  opts.num_kernels = 10;  // all 4 points become centers
  opts.bandwidth_rule = BandwidthRule::kFixed;
  opts.fixed_bandwidth = 0.05;
  auto kde = Kde::Fit(ps, opts);
  ASSERT_TRUE(kde.ok());
  double at_half = kde->Evaluate(ps[1]);
  double excl = kde->EvaluateExcluding(ps[1], ps[1]);
  // The self-kernel peak: (n/m) * K(0)/h = 1 * 0.75/0.05 = 15.
  EXPECT_NEAR(at_half - excl, 15.0, 1e-9);
  // Excluding a far-away point changes nothing.
  EXPECT_DOUBLE_EQ(kde->EvaluateExcluding(ps[1], ps[0]), at_half);
  // The near-duplicate at 0.5001 still contributes to both.
  EXPECT_GT(excl, 0.0);
}

TEST(LeaveOneOutTest, DefaultEstimatorInterfaceIsANoop) {
  // A backend without an override must return Evaluate unchanged.
  class Flat final : public DensityEstimator {
   public:
    int dim() const override { return 1; }
    double Evaluate(data::PointView) const override { return 42.0; }
    int64_t total_mass() const override { return 1; }
  };
  Flat flat;
  PointSet ps(1, {0.3});
  EXPECT_EQ(flat.EvaluateExcluding(ps[0], ps[0]), 42.0);
}

TEST(LeaveOneOutTest, HistogramDropsOneCount) {
  // The exact histogram: a grid addressed directly, one count per cell.
  PointSet ps(1, {0.15, 0.16, 0.85});
  GridDensityOptions opts;
  opts.cells_per_dim = 10;
  opts.bounds = data::BoundingBox({0.0}, {1.0});
  auto hd = GridDensity::Fit(ps, opts);
  ASSERT_TRUE(hd.ok());
  ASSERT_FALSE(hd->hashed());
  // Cell of 0.15 holds two points; excluding self leaves one.
  EXPECT_DOUBLE_EQ(hd->Evaluate(ps[0]), 20.0);
  EXPECT_DOUBLE_EQ(hd->EvaluateExcluding(ps[0], ps[0]), 10.0);
  // Excluding a point from another cell changes nothing.
  EXPECT_DOUBLE_EQ(hd->EvaluateExcluding(ps[0], ps[2]), 20.0);
  // Cell with one point drops to zero.
  EXPECT_DOUBLE_EQ(hd->EvaluateExcluding(ps[2], ps[2]), 0.0);
}

TEST(LeaveOneOutTest, GridDropsOneCount) {
  PointSet ps = UniformCube(2000, 2, 29);
  GridDensityOptions opts;
  opts.cells_per_dim = 16;
  auto gd = GridDensity::Fit(ps, opts);
  ASSERT_TRUE(gd.ok());
  for (int64_t i = 0; i < 50; ++i) {
    double with = gd->Evaluate(ps[i]);
    double without = gd->EvaluateExcluding(ps[i], ps[i]);
    EXPECT_NEAR(with - without, 1.0 / gd->cell_volume(), 1e-9);
  }
}

TEST(KdeSeedSweepTest, CenterSamplingIsUnbiasedAcrossSeeds) {
  // Mean density at a fixed interior probe, averaged over center-sampling
  // seeds, converges to the true density of uniform data (~n).
  const int64_t n = 20000;
  PointSet ps = UniformCube(n, 2, 31);
  double q[2] = {0.5, 0.5};
  OnlineMoments means;
  for (uint64_t seed = 0; seed < 12; ++seed) {
    KdeOptions opts;
    opts.num_kernels = 150;
    opts.seed = seed;
    auto kde = Kde::Fit(ps, opts);
    ASSERT_TRUE(kde.ok());
    means.Add(kde->Evaluate(PointView(q, 2)));
  }
  EXPECT_NEAR(means.mean(), static_cast<double>(n), 0.1 * n);
}

}  // namespace
}  // namespace dbs::density
