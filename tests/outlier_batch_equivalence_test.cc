// Equivalence harness for BallIntegrator::IntegrateExcludingSelfBatch: the
// batched form (center-value through the estimator's leave-one-out batch,
// quasi-Monte-Carlo through the probe-tile expansion) must be BITWISE
// identical to the per-point IntegrateExcludingSelf across every estimator
// backend {Kde, GridDensity hashed and direct}, dims {1, 2, 5}, worker
// counts {0, 1, 4}, and qmc_samples {1, 64}. A frozen pre-batching golden
// vector pins the arithmetic itself, so a regression that moves the scalar
// and batch paths TOGETHER is still caught.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "data/bounds.h"
#include "data/distance.h"
#include "data/point_set.h"
#include "density/grid_density.h"
#include "density/kde.h"
#include "outlier/ball_integration.h"
#include "parallel/batch_executor.h"
#include "synth/generator.h"
#include "util/check.h"

namespace dbs::outlier {
namespace {

data::PointSet MakeData(int dim, int64_t points, uint64_t seed) {
  synth::ClusteredDatasetOptions opts;
  opts.dim = dim;
  opts.num_clusters = 4;
  opts.num_cluster_points = points;  // total across clusters, before noise
  opts.noise_multiplier = 0.2;
  opts.shuffle = true;
  opts.seed = seed;
  auto ds = synth::MakeClusteredDataset(opts);
  DBS_CHECK(ds.ok());
  return std::move(ds)->points;
}

void ExpectBitwiseEqual(const std::vector<double>& got,
                        const std::vector<double>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::memcmp(&got[i], &want[i], sizeof(double)), 0)
        << "index " << i << ": batch " << got[i] << " vs scalar " << want[i];
  }
}

// Scores every point of `points` (self-exclusion against itself — the
// outlier detector's shape) scalar vs batched under 0/1/4 workers.
void CheckIntegrator(const density::DensityEstimator& estimator,
                     const data::PointSet& points, BallIntegration method,
                     int qmc_samples, double radius) {
  SCOPED_TRACE(::testing::Message()
               << "method=" << static_cast<int>(method)
               << " qmc_samples=" << qmc_samples << " dim=" << points.dim());
  BallIntegrator integrator(method, points.dim(), qmc_samples);
  const int64_t n = points.size();
  const double* rows = points.flat().data();

  std::vector<double> scalar(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    scalar[static_cast<size_t>(i)] =
        integrator.IntegrateExcludingSelf(estimator, points[i], radius);
  }

  std::vector<double> batch(static_cast<size_t>(n));
  ASSERT_TRUE(integrator
                  .IntegrateExcludingSelfBatch(estimator, rows, n, radius,
                                               batch.data(), nullptr)
                  .ok());
  ExpectBitwiseEqual(batch, scalar);

  for (int workers : {1, 4}) {
    SCOPED_TRACE(::testing::Message() << "workers=" << workers);
    parallel::BatchExecutorOptions pool;
    pool.num_workers = workers;
    parallel::BatchExecutor executor(pool);
    std::vector<double> sharded(static_cast<size_t>(n));
    ASSERT_TRUE(integrator
                    .IntegrateExcludingSelfBatch(estimator, rows, n, radius,
                                                 sharded.data(), &executor)
                    .ok());
    ExpectBitwiseEqual(sharded, scalar);
    executor.Shutdown();
  }
}

class OutlierBatchTest : public ::testing::TestWithParam<int> {};

TEST_P(OutlierBatchTest, KdeQmcMatchesScalarBitwise) {
  const int dim = GetParam();
  data::PointSet data = MakeData(dim, 600, 41);
  density::KdeOptions opts;
  opts.num_kernels = 200;
  opts.seed = 7;
  auto kde = density::Kde::Fit(data, opts);
  ASSERT_TRUE(kde.ok());
  data::PointSet scored = data.Gather([&] {
    std::vector<int64_t> idx;
    for (int64_t i = 0; i < 150; ++i) idx.push_back(i * 4);
    return idx;
  }());
  for (int qmc : {1, 64}) {
    CheckIntegrator(*kde, scored, BallIntegration::kQuasiMonteCarlo, qmc,
                    0.1);
  }
  CheckIntegrator(*kde, scored, BallIntegration::kCenterValue, 1, 0.1);
}

TEST_P(OutlierBatchTest, GridDensityQmcMatchesScalarBitwise) {
  const int dim = GetParam();
  data::PointSet data = MakeData(dim, 600, 42);
  density::GridDensityOptions opts;
  opts.cells_per_dim = 16;
  auto grid = density::GridDensity::Fit(data, opts);
  ASSERT_TRUE(grid.ok());
  data::PointSet scored = data.Gather([&] {
    std::vector<int64_t> idx;
    for (int64_t i = 0; i < 150; ++i) idx.push_back(i * 4);
    return idx;
  }());
  for (int qmc : {1, 64}) {
    CheckIntegrator(*grid, scored, BallIntegration::kQuasiMonteCarlo, qmc,
                    0.1);
  }
  CheckIntegrator(*grid, scored, BallIntegration::kCenterValue, 1, 0.1);

  // The exact histogram: 8^d cells fit the default budget up to d = 5, so
  // every cell is addressed directly.
  density::GridDensityOptions hist_opts;
  hist_opts.cells_per_dim = 8;
  auto hist = density::GridDensity::Fit(data, hist_opts);
  ASSERT_TRUE(hist.ok());
  ASSERT_FALSE(hist->hashed());
  for (int qmc : {1, 64}) {
    CheckIntegrator(*hist, scored, BallIntegration::kQuasiMonteCarlo, qmc,
                    0.1);
  }
  CheckIntegrator(*hist, scored, BallIntegration::kCenterValue, 1, 0.1);
}

// The center-value batch under a score cap: a row whose full score is at
// or below the cap keeps the per-point call's bits, and any other row
// scores above the cap. Caps sit on rows' exact scores and one ulp to
// either side of them, so both conversions (score to density cap through
// the ball volume, density to kernel-sum cap through Kde's norm factor)
// are tested where an off-by-one-ulp cap would show.
TEST_P(OutlierBatchTest, KdeCenterValueUnderScoreCap) {
  const int dim = GetParam();
  data::PointSet data = MakeData(dim, 1500, 43);
  density::KdeOptions opts;
  opts.num_kernels = 300;
  opts.seed = 9;
  auto kde = density::Kde::Fit(data, opts);
  ASSERT_TRUE(kde.ok());
  const double radius = 0.1;
  BallIntegrator integrator(BallIntegration::kCenterValue, dim);
  const int64_t n = data.size();
  const double* rows = data.flat().data();
  std::vector<double> scalar(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    scalar[static_cast<size_t>(i)] =
        integrator.IntegrateExcludingSelf(*kde, data[i], radius);
  }
  std::vector<double> sorted = scalar;
  std::sort(sorted.begin(), sorted.end());
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> caps = {0.0, inf};
  for (size_t q : {sorted.size() / 10, sorted.size() / 2}) {
    caps.push_back(std::nextafter(sorted[q], -inf));
    caps.push_back(sorted[q]);
    caps.push_back(std::nextafter(sorted[q], inf));
  }
  parallel::BatchExecutorOptions pool_options;
  pool_options.num_workers = 4;
  parallel::BatchExecutor pool(pool_options);
  int64_t stopped = 0;
  parallel::BatchExecutor* const executors[] = {&pool, nullptr};
  for (parallel::BatchExecutor* executor : executors) {
    for (double cap : caps) {
      SCOPED_TRACE(::testing::Message() << "cap " << cap << " executor "
                                        << (executor != nullptr));
      std::vector<double> got(static_cast<size_t>(n));
      ASSERT_TRUE(integrator
                      .IntegrateExcludingSelfBatch(*kde, rows, n, radius,
                                                   got.data(), executor, cap)
                      .ok());
      for (size_t i = 0; i < got.size(); ++i) {
        if (scalar[i] <= cap) {
          ASSERT_EQ(std::memcmp(&got[i], &scalar[i], sizeof(double)), 0)
              << "row " << i << ": " << got[i] << " vs " << scalar[i];
        } else {
          ASSERT_GT(got[i], cap) << "row " << i;
          if (got[i] != scalar[i]) ++stopped;
        }
      }
    }
  }
  pool.Shutdown();
  // Some rows really stopped early, or the caps tested nothing.
  EXPECT_GT(stopped, 0);
}

INSTANTIATE_TEST_SUITE_P(Dims, OutlierBatchTest, ::testing::Values(1, 2, 5));

// ---------------------------------------------------------------------------
// Frozen golden vector, captured from the PRE-BATCHING scalar integrator.
//
// Everything here is exact binary fractions and pure-IEEE arithmetic: the
// KDE is handcrafted (no libm-dependent fitting), the metric is Linf with
// radius 0.5 so the ball volume is pow(1.0, d) == 1.0 exactly, and the
// Halton probe offsets are plain divisions/multiplications. The resulting
// scores are therefore platform-stable bit patterns, and both the scalar
// AND batch paths must keep reproducing them — a refactor that drifts both
// paths in lockstep cannot slip past this test.

density::Kde GoldenKde() {
  density::Kde::State state;
  state.n = 8;
  state.kernel = density::KernelType::kEpanechnikov;
  state.centers = data::PointSet(2);
  const double c[8][2] = {{0.25, 0.25},   {0.75, 0.25},  {0.25, 0.75},
                          {0.75, 0.75},   {0.5, 0.5},    {0.125, 0.625},
                          {0.625, 0.125}, {0.875, 0.5}};
  for (const auto& row : c) state.centers.Append(data::PointView(row, 2));
  state.bandwidths = {0.5, 0.25};
  state.bounds = data::BoundingBox(2);
  for (int64_t i = 0; i < state.centers.size(); ++i) {
    state.bounds.Extend(state.centers[i]);
  }
  auto kde = density::Kde::FromState(std::move(state));
  DBS_CHECK(kde.ok());
  return std::move(kde).value();
}

data::PointSet GoldenQueries() {
  data::PointSet queries(2);
  const double q[10][2] = {{0.25, 0.25},   {0.75, 0.25},    {0.25, 0.75},
                           {0.75, 0.75},   {0.5, 0.5},      {0.125, 0.625},
                           {0.625, 0.125}, {0.875, 0.5},    {0.3125, 0.40625},
                           {0.9375, 0.84375}};
  for (const auto& row : q) queries.Append(data::PointView(row, 2));
  return queries;
}

uint64_t Bits(double x) {
  uint64_t u = 0;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

TEST(OutlierBatchGoldenTest, QmcScoresMatchFrozenPreBatchingBits) {
  const uint64_t kGoldenBits[10] = {
      0x400846b8e38e38e2ULL, 0x4014e7b1c71c71c6ULL, 0x400e3871c71c71c9ULL,
      0x401006c71c71c71cULL, 0x4019a9aaaaaaaaacULL, 0x400d0071c71c71c8ULL,
      0x400c9a8e38e38e38ULL, 0x40137271c71c71c7ULL, 0x401908cb1c71c71cULL,
      0x40090849c71c71c7ULL};
  density::Kde kde = GoldenKde();
  data::PointSet queries = GoldenQueries();
  BallIntegrator integrator(BallIntegration::kQuasiMonteCarlo, 2,
                            /*num_samples=*/8, data::Metric::kLinf);
  const double radius = 0.5;

  for (int64_t i = 0; i < queries.size(); ++i) {
    const double s =
        integrator.IntegrateExcludingSelf(kde, queries[i], radius);
    EXPECT_EQ(Bits(s), kGoldenBits[i]) << "scalar score " << i << " = " << s;
  }

  std::vector<double> batch(static_cast<size_t>(queries.size()));
  ASSERT_TRUE(integrator
                  .IntegrateExcludingSelfBatch(kde, queries.flat().data(),
                                               queries.size(), radius,
                                               batch.data(), nullptr)
                  .ok());
  for (int64_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(Bits(batch[static_cast<size_t>(i)]), kGoldenBits[i])
        << "batch score " << i << " = " << batch[static_cast<size_t>(i)];
  }

  for (int workers : {1, 4}) {
    parallel::BatchExecutorOptions pool;
    pool.num_workers = workers;
    parallel::BatchExecutor executor(pool);
    std::vector<double> sharded(static_cast<size_t>(queries.size()));
    ASSERT_TRUE(integrator
                    .IntegrateExcludingSelfBatch(kde, queries.flat().data(),
                                                 queries.size(), radius,
                                                 sharded.data(), &executor)
                    .ok());
    executor.Shutdown();
    for (int64_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(Bits(sharded[static_cast<size_t>(i)]), kGoldenBits[i])
          << "workers=" << workers << " score " << i;
    }
  }
}

}  // namespace
}  // namespace dbs::outlier
