#include "density/kde.h"

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "data/point_set.h"
#include "parallel/batch_executor.h"
#include "util/rng.h"

namespace dbs::density {
namespace {

using data::PointSet;
using data::PointView;

// Uniform points in [0,1]^dim.
PointSet UniformCube(int64_t n, int dim, uint64_t seed) {
  dbs::Rng rng(seed);
  PointSet ps(dim);
  ps.Reserve(n);
  std::vector<double> buf(dim);
  for (int64_t i = 0; i < n; ++i) {
    for (int j = 0; j < dim; ++j) buf[j] = rng.NextDouble();
    ps.Append(buf);
  }
  return ps;
}

// Two Gaussian blobs: dense at (0.25, ...), sparse at (0.75, ...).
PointSet TwoBlobs(int64_t n_dense, int64_t n_sparse, int dim, uint64_t seed) {
  dbs::Rng rng(seed);
  PointSet ps(dim);
  std::vector<double> buf(dim);
  for (int64_t i = 0; i < n_dense; ++i) {
    for (int j = 0; j < dim; ++j) buf[j] = rng.NextGaussian(0.25, 0.02);
    ps.Append(buf);
  }
  for (int64_t i = 0; i < n_sparse; ++i) {
    for (int j = 0; j < dim; ++j) buf[j] = rng.NextGaussian(0.75, 0.05);
    ps.Append(buf);
  }
  return ps;
}

TEST(KdeTest, RejectsEmptyDataset) {
  PointSet ps(2);
  auto result = Kde::Fit(ps, KdeOptions{});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), dbs::StatusCode::kInvalidArgument);
}

TEST(KdeTest, RejectsBadOptions) {
  PointSet ps = UniformCube(100, 2, 1);
  KdeOptions opts;
  opts.num_kernels = 0;
  EXPECT_FALSE(Kde::Fit(ps, opts).ok());

  KdeOptions fixed;
  fixed.bandwidth_rule = BandwidthRule::kFixed;
  fixed.fixed_bandwidth = 0.0;
  EXPECT_FALSE(Kde::Fit(ps, fixed).ok());
}

TEST(KdeTest, UsesAtMostNumKernelsCenters) {
  PointSet ps = UniformCube(5000, 2, 2);
  KdeOptions opts;
  opts.num_kernels = 100;
  auto kde = Kde::Fit(ps, opts);
  ASSERT_TRUE(kde.ok());
  EXPECT_EQ(kde->num_kernels(), 100);
  EXPECT_EQ(kde->total_mass(), 5000);
}

TEST(KdeTest, SmallDatasetUsesAllPointsAsCenters) {
  PointSet ps = UniformCube(50, 2, 3);
  KdeOptions opts;
  opts.num_kernels = 1000;
  auto kde = Kde::Fit(ps, opts);
  ASSERT_TRUE(kde.ok());
  EXPECT_EQ(kde->num_kernels(), 50);
}

TEST(KdeTest, IntegralApproximatesN) {
  // For uniform data on [0,1]^2 the density should be ~n everywhere away
  // from the boundary; Monte-Carlo integrate over the middle of the cube.
  const int64_t n = 20000;
  PointSet ps = UniformCube(n, 2, 4);
  KdeOptions opts;
  opts.num_kernels = 500;
  auto kde = Kde::Fit(ps, opts);
  ASSERT_TRUE(kde.ok());

  dbs::Rng rng(99);
  double sum = 0.0;
  const int probes = 2000;
  for (int i = 0; i < probes; ++i) {
    double q[2] = {rng.NextDouble(0.2, 0.8), rng.NextDouble(0.2, 0.8)};
    sum += kde->Evaluate(PointView(q, 2));
  }
  double mean_density = sum / probes;
  EXPECT_NEAR(mean_density, static_cast<double>(n), 0.15 * n);
}

TEST(KdeTest, DenseRegionScoresHigherThanSparse) {
  PointSet ps = TwoBlobs(9000, 1000, 2, 5);
  KdeOptions opts;
  auto kde = Kde::Fit(ps, opts);
  ASSERT_TRUE(kde.ok());
  double dense_center[2] = {0.25, 0.25};
  double sparse_center[2] = {0.75, 0.75};
  double empty[2] = {0.25, 0.75};
  double f_dense = kde->Evaluate(PointView(dense_center, 2));
  double f_sparse = kde->Evaluate(PointView(sparse_center, 2));
  double f_empty = kde->Evaluate(PointView(empty, 2));
  EXPECT_GT(f_dense, 5 * f_sparse);
  EXPECT_GT(f_sparse, f_empty);
}

TEST(KdeTest, GridIndexMatchesBruteForceExactly) {
  for (int dim : {1, 2, 3, 5}) {
    PointSet ps = TwoBlobs(2000, 500, dim, 10 + dim);
    KdeOptions opts;
    opts.num_kernels = 300;
    auto kde = Kde::Fit(ps, opts);
    ASSERT_TRUE(kde.ok());
    dbs::Rng rng(1234);
    std::vector<double> q(dim);
    for (int i = 0; i < 300; ++i) {
      for (int j = 0; j < dim; ++j) q[j] = rng.NextDouble(-0.2, 1.2);
      PointView p(q.data(), dim);
      // Identical set of contributing kernels; only summation order may
      // differ, so agreement must hold to floating-point roundoff.
      double a = kde->Evaluate(p);
      double b = kde->EvaluateBrute(p);
      EXPECT_NEAR(a, b, 1e-9 * std::max(1.0, std::abs(b))) << "dim=" << dim;
    }
  }
}

TEST(KdeTest, GridIndexMatchesBruteForGaussianKernel) {
  PointSet ps = TwoBlobs(1500, 500, 2, 21);
  KdeOptions opts;
  opts.kernel = KernelType::kGaussian;
  opts.num_kernels = 200;
  auto kde = Kde::Fit(ps, opts);
  ASSERT_TRUE(kde.ok());
  dbs::Rng rng(77);
  for (int i = 0; i < 200; ++i) {
    double q[2] = {rng.NextDouble(), rng.NextDouble()};
    PointView p(q, 2);
    double a = kde->Evaluate(p);
    double b = kde->EvaluateBrute(p);
    EXPECT_NEAR(a, b, 1e-9 * std::max(1.0, std::abs(b)));
  }
}

TEST(KdeTest, DeterministicForSeed) {
  PointSet ps = UniformCube(3000, 3, 6);
  KdeOptions opts;
  opts.seed = 42;
  opts.num_kernels = 100;
  auto a = Kde::Fit(ps, opts);
  auto b = Kde::Fit(ps, opts);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  double q[3] = {0.4, 0.5, 0.6};
  EXPECT_DOUBLE_EQ(a->Evaluate(PointView(q, 3)),
                   b->Evaluate(PointView(q, 3)));

  KdeOptions other = opts;
  other.seed = 43;
  auto c = Kde::Fit(ps, other);
  ASSERT_TRUE(c.ok());
  // Different centers: almost surely a different value.
  EXPECT_NE(a->Evaluate(PointView(q, 3)), c->Evaluate(PointView(q, 3)));
}

TEST(KdeTest, ZeroFarFromAllData) {
  PointSet ps = UniformCube(1000, 2, 7);
  auto kde = Kde::Fit(ps, KdeOptions{});
  ASSERT_TRUE(kde.ok());
  double far[2] = {50.0, 50.0};
  EXPECT_EQ(kde->Evaluate(PointView(far, 2)), 0.0);
}

TEST(KdeTest, MoreKernelsImproveAccuracy) {
  // Error of the density estimate at the center of a uniform cube should
  // shrink (weakly) as kernels increase; check the coarse trend the paper's
  // Fig 7 reports.
  const int64_t n = 30000;
  PointSet ps = UniformCube(n, 2, 8);
  double err_small;
  double err_large;
  {
    KdeOptions opts;
    opts.num_kernels = 20;
    auto kde = Kde::Fit(ps, opts);
    ASSERT_TRUE(kde.ok());
    double q[2] = {0.5, 0.5};
    err_small = std::abs(kde->Evaluate(PointView(q, 2)) - n);
  }
  {
    KdeOptions opts;
    opts.num_kernels = 1000;
    auto kde = Kde::Fit(ps, opts);
    ASSERT_TRUE(kde.ok());
    double q[2] = {0.5, 0.5};
    err_large = std::abs(kde->Evaluate(PointView(q, 2)) - n);
  }
  EXPECT_LT(err_large, err_small + 0.05 * n);
}

TEST(KdeTest, MeanDensityPowIsConsistent) {
  PointSet ps = TwoBlobs(5000, 1000, 2, 9);
  KdeOptions opts;
  opts.num_kernels = 400;
  auto kde = Kde::Fit(ps, opts);
  ASSERT_TRUE(kde.ok());
  // a=0: mean of f^0 over centers with positive density is 1.
  EXPECT_NEAR(kde->MeanDensityPow(0.0), 1.0, 1e-9);
  // a=1 mean should be positive and bounded by the max density.
  double m1 = kde->MeanDensityPow(1.0);
  EXPECT_GT(m1, 0.0);
  // Jensen: E[f]^2 <= E[f^2].
  EXPECT_LE(m1 * m1, kde->MeanDensityPow(2.0) * (1 + 1e-9));
}

TEST(KdeTest, AverageDensityMatchesUniformData) {
  const int64_t n = 10000;
  PointSet ps = UniformCube(n, 2, 11);
  auto kde = Kde::Fit(ps, KdeOptions{});
  ASSERT_TRUE(kde.ok());
  // Bounding box of uniform data is ~[0,1]^2, so average density ~ n.
  EXPECT_NEAR(kde->AverageDensity(), static_cast<double>(n), 0.05 * n);
}

TEST(KdeTest, BandwidthsReflectAnisotropy) {
  // Data stretched 10x along dim 1 gets ~10x the bandwidth there.
  dbs::Rng rng(12);
  PointSet ps(2);
  for (int i = 0; i < 5000; ++i) {
    ps.Append(std::vector<double>{rng.NextGaussian(0, 1),
                                  rng.NextGaussian(0, 10)});
  }
  auto kde = Kde::Fit(ps, KdeOptions{});
  ASSERT_TRUE(kde.ok());
  EXPECT_NEAR(kde->bandwidths()[1] / kde->bandwidths()[0], 10.0, 1.0);
}

TEST(KdeTest, FitRejectsNonFiniteCoordinates) {
  // A NaN or infinite coordinate makes its axis's moments non-finite; the
  // fit must say so instead of deriving a NaN bandwidth.
  for (double bad : {std::nan(""), std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    PointSet ps = UniformCube(500, 2, 21);
    ps.Append(std::vector<double>{bad, 0.3});
    auto kde = Kde::Fit(ps, KdeOptions{});
    ASSERT_FALSE(kde.ok()) << bad;
    EXPECT_EQ(kde.status().code(), StatusCode::kInvalidArgument) << bad;
    KdeOptions fixed;
    fixed.bandwidth_rule = BandwidthRule::kFixed;
    fixed.fixed_bandwidth = 0.1;
    EXPECT_EQ(Kde::Fit(ps, fixed).status().code(),
              StatusCode::kInvalidArgument)
        << bad;
  }
}

TEST(KdeTest, FromStateRejectsNonFiniteCenters) {
  auto kde = Kde::Fit(UniformCube(200, 2, 22), KdeOptions{});
  ASSERT_TRUE(kde.ok());
  for (double bad : {std::nan(""), std::numeric_limits<double>::infinity()}) {
    Kde::State state = kde->ExportState();
    state.centers.MutableRow(3)[1] = bad;
    auto loaded = Kde::FromState(std::move(state));
    ASSERT_FALSE(loaded.ok()) << bad;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

// Rows whose grid cell cannot be represented as an integer (NaN, infinite,
// or beyond 2^63 cells) take the exact brute-force sum on every path. With
// the Epanechnikov kernel no center is in reach of them, so each density
// is exactly 0; the rows around them keep their bits. UBSan checks that
// no path casts such a cell.
TEST(KdeTest, RowsWithUnrepresentableCellsEvaluateExactly) {
  auto kde = Kde::Fit(UniformCube(2000, 2, 23), KdeOptions{});
  ASSERT_TRUE(kde.ok());
  const double inf = std::numeric_limits<double>::infinity();
  PointSet rows(2, {0.5,  0.5, std::nan(""), 0.5, 0.25, 0.75, 1e300, 0.5,
                    -inf, 0.2, 0.5,          -1e19, 0.4, 0.6});
  const int64_t n = rows.size();
  std::vector<double> batch(static_cast<size_t>(n));
  std::vector<double> loo(static_cast<size_t>(n));
  std::vector<double> capped(static_cast<size_t>(n));
  parallel::BatchExecutorOptions pool_options;
  pool_options.num_workers = 2;
  parallel::BatchExecutor pool(pool_options);
  parallel::BatchExecutor* const executors[] = {nullptr, &pool};
  for (parallel::BatchExecutor* executor : executors) {
    ASSERT_TRUE(
        kde->EvaluateBatch(rows.flat().data(), n, batch.data(), executor)
            .ok());
    ASSERT_TRUE(kde->EvaluateExcludingBatch(rows.flat().data(), n,
                                            loo.data(), executor)
                    .ok());
    ASSERT_TRUE(kde->EvaluateExcludingBatchCapped(rows.flat().data(), n, 1.0,
                                                  capped.data(), executor)
                    .ok());
    for (int64_t i = 0; i < n; ++i) {
      const PointView p = rows[i];
      const bool representable =
          std::isfinite(p[0]) && std::abs(p[0]) < 1e10 &&
          std::isfinite(p[1]) && std::abs(p[1]) < 1e10;
      const double scalar = kde->Evaluate(p);
      const double scalar_loo = kde->EvaluateExcluding(p, p);
      if (!representable) {
        EXPECT_EQ(scalar, 0.0) << i;
        EXPECT_EQ(scalar_loo, 0.0) << i;
        EXPECT_EQ(scalar, kde->EvaluateBrute(p)) << i;
      }
      EXPECT_EQ(batch[static_cast<size_t>(i)], scalar) << i;
      EXPECT_EQ(loo[static_cast<size_t>(i)], scalar_loo) << i;
      if (scalar_loo <= 1.0) {
        EXPECT_EQ(capped[static_cast<size_t>(i)], scalar_loo) << i;
      } else {
        EXPECT_GT(capped[static_cast<size_t>(i)], 1.0) << i;
      }
    }
  }
  pool.Shutdown();
}

// A model whose center cells cannot be represented is not indexed: every
// evaluation takes the brute-force sum, and the batch paths agree with it.
TEST(KdeTest, ModelWithUnrepresentableCenterCellsEvaluatesBruteForce) {
  Kde::State state;
  state.n = 3;
  state.kernel = KernelType::kEpanechnikov;
  state.centers = PointSet(2, {0.0, 0.0, 0.05, 0.0, 1e300, 0.0});
  state.bandwidths = {0.1, 0.1};
  state.bounds = data::BoundingBox({0.0, 0.0}, {1e300, 0.0});
  auto kde = Kde::FromState(std::move(state));
  ASSERT_TRUE(kde.ok());
  PointSet rows(2, {0.0, 0.0, 0.03, 0.01, 1e300, 0.0, 0.5, 0.5});
  std::vector<double> batch(static_cast<size_t>(rows.size()));
  ASSERT_TRUE(
      kde->EvaluateBatch(rows.flat().data(), rows.size(), batch.data()).ok());
  for (int64_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(kde->Evaluate(rows[i]), kde->EvaluateBrute(rows[i])) << i;
    EXPECT_EQ(batch[static_cast<size_t>(i)], kde->EvaluateBrute(rows[i]))
        << i;
  }
  EXPECT_GT(kde->Evaluate(rows[0]), 0.0);
  EXPECT_GT(kde->Evaluate(rows[2]), 0.0);
}

TEST(KdeTest, WorksOnFileScan) {
  PointSet ps = UniformCube(2000, 2, 13);
  data::InMemoryScan scan(&ps, 100);
  KdeOptions opts;
  opts.num_kernels = 50;
  auto kde = Kde::Fit(scan, opts);
  ASSERT_TRUE(kde.ok());
  // KDE construction is exactly one pass.
  EXPECT_EQ(scan.passes(), 1);
}

}  // namespace
}  // namespace dbs::density
