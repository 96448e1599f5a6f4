#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "data/point_set.h"
#include "density/kde.h"
#include "outlier/ball_integration.h"
#include "outlier/cell_list.h"
#include "outlier/kde_detector.h"
#include "outlier/nested_loop_reference.h"
#include "parallel/batch_executor.h"
#include "util/math.h"
#include "util/rng.h"

namespace dbs::outlier {
namespace {

using data::PointSet;
using data::PointView;

// A dense cloud in [0.4, 0.6]^dim plus isolated planted outliers far away.
struct PlantedWorkload {
  PointSet points{2};
  std::vector<int64_t> outlier_indices;  // planted positions
};

PlantedWorkload MakePlanted(int64_t n_cloud, int n_outliers, uint64_t seed,
                            int dim = 2) {
  dbs::Rng rng(seed);
  PlantedWorkload w;
  w.points = PointSet(dim);
  std::vector<double> x(static_cast<size_t>(dim));
  for (int64_t i = 0; i < n_cloud; ++i) {
    for (double& v : x) v = rng.NextDouble(0.4, 0.6);
    w.points.Append(x);
  }
  // Outliers on a far ring in the first two axes: pairwise distant and far
  // from the cloud.
  for (int i = 0; i < n_outliers; ++i) {
    double angle = 2.0 * M_PI * i / n_outliers;
    w.outlier_indices.push_back(w.points.size());
    std::fill(x.begin(), x.end(), 0.5);
    x[0] = 0.5 + 2.0 * std::cos(angle);
    x[1] = 0.5 + 2.0 * std::sin(angle);
    w.points.Append(x);
  }
  return w;
}

density::Kde FitKde(const PointSet& ps) {
  density::KdeOptions opts;
  opts.num_kernels = 400;
  auto kde = density::Kde::Fit(ps, opts);
  DBS_CHECK(kde.ok());
  return std::move(kde).value();
}

TEST(ExactDetectorTest, RejectsBadParams) {
  PointSet ps(2, {0.0, 0.0});
  DbOutlierParams bad;
  bad.radius = -1;
  EXPECT_FALSE(DetectOutliersCellList(ps, bad).ok());
  DbOutlierParams frac;
  frac.max_neighbor_fraction = 1.5;
  EXPECT_FALSE(DetectOutliersCellList(ps, frac).ok());
  EXPECT_FALSE(DetectOutliersCellList(PointSet(2), DbOutlierParams{}).ok());
}

TEST(ExactDetectorTest, DefinitionOnTinyExample) {
  // 1-D points: cluster {0, 0.1, 0.2}, singleton at 10.
  PointSet ps(1, {0.0, 0.1, 0.2, 10.0});
  DbOutlierParams params;
  params.radius = 0.15;
  params.max_neighbors = 0;  // no neighbors allowed
  auto report = DetectOutliersCellList(ps, params);
  ASSERT_TRUE(report.ok());
  // 0 has neighbor 0.1; 0.1 has two; 0.2 has one; 10 has none.
  EXPECT_EQ(report->outlier_indices, (std::vector<int64_t>{3}));
  EXPECT_EQ(report->neighbor_counts, (std::vector<int64_t>{0}));

  params.max_neighbors = 1;
  report = DetectOutliersCellList(ps, params);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->outlier_indices, (std::vector<int64_t>{0, 2, 3}));
}

TEST(ExactDetectorTest, KdTreeMatchesNestedLoop) {
  // 3-D runs on the grid, 7-D on the kd-tree fallback; both must match the
  // oracle.
  for (int dim : {3, 7}) {
    dbs::Rng rng(1);
    PointSet ps(dim);
    std::vector<double> x(static_cast<size_t>(dim));
    for (int i = 0; i < 600; ++i) {
      for (double& v : x) v = rng.NextDouble();
      ps.Append(x);
    }
    // Radii scale with dim so the 7-D runs see neighbors too.
    const double scale = dim == 3 ? 1.0 : 3.0;
    for (double radius : {0.05, 0.15, 0.3}) {
      for (int64_t p : {0, 3, 10}) {
        DbOutlierParams params;
        params.radius = radius * scale;
        params.max_neighbors = p;
        CellListStats stats;
        CellListDetectorOptions options;
        options.stats = &stats;
        auto a = DetectOutliersCellList(ps, params, options);
        auto b = DetectOutliersNestedLoop(ps, params);
        ASSERT_TRUE(a.ok());
        ASSERT_TRUE(b.ok());
        EXPECT_EQ(a->outlier_indices, b->outlier_indices)
            << "dim=" << dim << " radius=" << params.radius << " p=" << p;
        EXPECT_EQ(a->neighbor_counts, b->neighbor_counts);
        EXPECT_EQ(stats.used_fallback, dim == 7);
      }
    }
  }
}

TEST(ExactDetectorTest, FractionalNeighborBound) {
  PointSet ps(1, {0.0, 0.01, 0.02, 0.03, 5.0});
  DbOutlierParams params;
  params.radius = 0.1;
  params.max_neighbor_fraction = 0.2;  // 20% of 5 points = 1 neighbor
  EXPECT_EQ(params.NeighborBound(5), 1);
  auto report = DetectOutliersCellList(ps, params);
  ASSERT_TRUE(report.ok());
  // Cluster points have 3 neighbors each (> 1); 5.0 has none.
  EXPECT_EQ(report->outlier_indices, (std::vector<int64_t>{4}));
}

TEST(ExactDetectorTest, FindsPlantedOutliers) {
  PlantedWorkload w = MakePlanted(5000, 8, 2);
  DbOutlierParams params;
  params.radius = 0.1;
  params.max_neighbors = 5;
  auto report = DetectOutliersCellList(w.points, params);
  ASSERT_TRUE(report.ok());
  std::set<int64_t> found(report->outlier_indices.begin(),
                          report->outlier_indices.end());
  for (int64_t idx : w.outlier_indices) {
    EXPECT_TRUE(found.count(idx)) << "missed planted outlier " << idx;
  }
  // The dense cloud (5000 points in a 0.2 square) contributes none.
  EXPECT_EQ(report->outlier_indices.size(), w.outlier_indices.size());
}

TEST(ExactDetectorTest, ShardedCountingMatchesSequentialExactly) {
  // 7-D takes the kd-tree fallback, whose counting pass shards per point.
  PlantedWorkload w = MakePlanted(3000, 6, 11, /*dim=*/7);
  DbOutlierParams params;
  params.radius = 0.08;
  params.max_neighbors = 5;
  CellListStats stats;
  CellListDetectorOptions sequential_options;
  sequential_options.stats = &stats;
  auto sequential = DetectOutliersCellList(w.points, params,
                                           sequential_options);
  ASSERT_TRUE(sequential.ok());
  ASSERT_TRUE(stats.used_fallback);
  // Some cloud points are outliers and some are not, so the abort and the
  // report both matter.
  EXPECT_GT(sequential->outlier_indices.size(), w.outlier_indices.size());
  EXPECT_LT(sequential->outlier_indices.size(), 3000u);
  auto oracle = DetectOutliersNestedLoop(w.points, params);
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(sequential->outlier_indices, oracle->outlier_indices);
  EXPECT_EQ(sequential->neighbor_counts, oracle->neighbor_counts);
  // 0 workers (no executor) already covered by `sequential`; 1 and 4
  // workers must produce the identical report.
  for (int workers : {1, 4}) {
    SCOPED_TRACE(workers);
    parallel::BatchExecutorOptions pool;
    pool.num_workers = workers;
    pool.min_shard = 64;  // force real sharding at this size
    parallel::BatchExecutor executor(pool);
    CellListDetectorOptions options;
    options.executor = &executor;
    auto sharded = DetectOutliersCellList(w.points, params, options);
    ASSERT_TRUE(sharded.ok());
    EXPECT_EQ(sharded->outlier_indices, sequential->outlier_indices);
    EXPECT_EQ(sharded->neighbor_counts, sequential->neighbor_counts);
    EXPECT_EQ(sharded->candidates_checked, sequential->candidates_checked);
    EXPECT_EQ(sharded->passes, sequential->passes);
  }
}

TEST(ExactDetectorTest, ShardedCountingPropagatesBackpressure) {
  PlantedWorkload w = MakePlanted(2000, 2, 13, /*dim=*/7);
  DbOutlierParams params;
  params.radius = 0.08;
  params.max_neighbors = 5;
  parallel::BatchExecutorOptions pool;
  pool.num_workers = 1;
  pool.min_shard = 1;
  parallel::BatchExecutor executor(pool);
  executor.Shutdown();  // every submit now fails
  CellListStats stats;
  CellListDetectorOptions options;
  options.executor = &executor;
  options.stats = &stats;
  auto report = DetectOutliersCellList(w.points, params, options);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(stats.used_fallback);
}

TEST(BallIntegratorTest, CenterValueUsesBallVolume) {
  PlantedWorkload w = MakePlanted(3000, 0, 3);
  density::Kde kde = FitKde(w.points);
  BallIntegrator integrator(BallIntegration::kCenterValue, 2);
  double q[2] = {0.5, 0.5};
  PointView p(q, 2);
  double expected = kde.Evaluate(p) * dbs::BallVolume(2, 0.05);
  EXPECT_DOUBLE_EQ(integrator.Integrate(kde, p, 0.05), expected);
}

TEST(BallIntegratorTest, QmcAgreesWithCenterValueOnFlatDensity) {
  // Uniform density: both methods estimate the same integral.
  dbs::Rng rng(4);
  PointSet ps(2);
  for (int i = 0; i < 20000; ++i) {
    ps.Append(std::vector<double>{rng.NextDouble(), rng.NextDouble()});
  }
  density::Kde kde = FitKde(ps);
  BallIntegrator center(BallIntegration::kCenterValue, 2);
  BallIntegrator qmc(BallIntegration::kQuasiMonteCarlo, 2, 128);
  double q[2] = {0.5, 0.5};
  PointView p(q, 2);
  double a = center.Integrate(kde, p, 0.1);
  double b = qmc.Integrate(kde, p, 0.1);
  EXPECT_NEAR(a / b, 1.0, 0.1);
  // And both approximate the true expected count: n * pi r^2.
  double truth = 20000 * M_PI * 0.01;
  EXPECT_NEAR(b, truth, 0.25 * truth);
}

TEST(BallIntegratorTest, QmcSeesGradientTheCenterValueMisses) {
  // Density step: points only on the left half. For a ball centered on the
  // edge, center-value over/under-shoots while QMC averages the halves.
  dbs::Rng rng(5);
  PointSet ps(2);
  for (int i = 0; i < 20000; ++i) {
    ps.Append(std::vector<double>{rng.NextDouble(0.0, 0.5),
                                  rng.NextDouble()});
  }
  density::Kde kde = FitKde(ps);
  BallIntegrator qmc(BallIntegration::kQuasiMonteCarlo, 2, 256);
  // Ball far inside the occupied half: full density.
  double inside[2] = {0.25, 0.5};
  double deep = qmc.Integrate(kde, PointView(inside, 2), 0.05);
  // Ball centered outside, overlapping the boundary only partially.
  double edge[2] = {0.55, 0.5};
  double part = qmc.Integrate(kde, PointView(edge, 2), 0.05);
  EXPECT_LT(part, deep * 0.7);
}

TEST(KdeDetectorTest, RejectsBadOptions) {
  PlantedWorkload w = MakePlanted(500, 2, 6);
  density::Kde kde = FitKde(w.points);
  DbOutlierParams params;
  KdeDetectorOptions bad;
  bad.candidate_slack = 0.0;
  EXPECT_FALSE(
      DetectOutliersApproximate(w.points, kde, params, bad).ok());
  KdeDetectorOptions bad_qmc;
  bad_qmc.qmc_samples = 0;
  EXPECT_FALSE(
      DetectOutliersApproximate(w.points, kde, params, bad_qmc).ok());
  KdeDetectorOptions nan_slack;
  nan_slack.candidate_slack = std::nan("");
  EXPECT_FALSE(
      DetectOutliersApproximate(w.points, kde, params, nan_slack).ok());
}

TEST(KdeDetectorTest, RejectsNonFiniteRadius) {
  PlantedWorkload w = MakePlanted(500, 2, 6);
  density::Kde kde = FitKde(w.points);
  // 1e155 is finite, but its square overflows to +inf.
  for (double radius :
       {std::nan(""), std::numeric_limits<double>::infinity(), 1e155}) {
    SCOPED_TRACE(radius);
    DbOutlierParams params;
    params.radius = radius;
    auto report =
        DetectOutliersApproximate(w.points, kde, params, KdeDetectorOptions{});
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.status().code(), dbs::StatusCode::kInvalidArgument);
  }
}

TEST(KdeDetectorTest, FindsAllPlantedOutliersInTwoPasses) {
  PlantedWorkload w = MakePlanted(8000, 10, 7);
  density::Kde kde = FitKde(w.points);
  DbOutlierParams params;
  params.radius = 0.1;
  params.max_neighbors = 5;
  KdeDetectorOptions options;

  data::InMemoryScan scan(&w.points);
  auto report = DetectOutliersApproximate(scan, kde, params, options);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->passes, 2);
  EXPECT_EQ(scan.passes(), 2);

  std::set<int64_t> found(report->outlier_indices.begin(),
                          report->outlier_indices.end());
  for (int64_t idx : w.outlier_indices) {
    EXPECT_TRUE(found.count(idx)) << "missed planted outlier " << idx;
  }
}

TEST(KdeDetectorTest, MatchesExactDetectorOnPlantedData) {
  PlantedWorkload w = MakePlanted(6000, 12, 8);
  density::Kde kde = FitKde(w.points);
  DbOutlierParams params;
  params.radius = 0.08;
  params.max_neighbors = 3;
  KdeDetectorOptions options;
  options.candidate_slack = 3.0;

  auto exact = DetectOutliersCellList(w.points, params);
  auto approx = DetectOutliersApproximate(w.points, kde, params, options);
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE(approx.ok());
  // Verification makes every reported outlier a true outlier (perfect
  // precision); candidate pruning may only lose recall — and with generous
  // slack on this workload it loses none.
  EXPECT_EQ(approx->outlier_indices, exact->outlier_indices);
  EXPECT_EQ(approx->neighbor_counts, exact->neighbor_counts);
}

TEST(KdeDetectorTest, ReportedNeighborCountsAreExact) {
  PlantedWorkload w = MakePlanted(4000, 5, 9);
  density::Kde kde = FitKde(w.points);
  DbOutlierParams params;
  params.radius = 3.0;  // outliers see a few fellow ring points
  params.max_neighbors = 4;
  KdeDetectorOptions options;
  options.candidate_slack = 5.0;
  auto approx = DetectOutliersApproximate(w.points, kde, params, options);
  auto exact = DetectOutliersCellList(w.points, params);
  ASSERT_TRUE(approx.ok());
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(approx->neighbor_counts, exact->neighbor_counts);
}

TEST(KdeDetectorTest, CandidatePruningBoundsVerificationWork) {
  PlantedWorkload w = MakePlanted(10000, 10, 10);
  density::Kde kde = FitKde(w.points);
  DbOutlierParams params;
  params.radius = 0.1;
  params.max_neighbors = 5;
  KdeDetectorOptions options;
  auto report = DetectOutliersApproximate(w.points, kde, params, options);
  ASSERT_TRUE(report.ok());
  // Candidates are a tiny fraction of the dataset: that is the speedup.
  EXPECT_LT(report->candidates_checked, w.points.size() / 10);
  EXPECT_GE(report->candidates_checked,
            static_cast<int64_t>(report->outlier_indices.size()));
}

TEST(KdeDetectorTest, MaxCandidatesGuard) {
  PlantedWorkload w = MakePlanted(2000, 5, 11);
  density::Kde kde = FitKde(w.points);
  DbOutlierParams params;
  params.radius = 0.001;  // everything looks like an outlier
  params.max_neighbors = 0;
  KdeDetectorOptions options;
  options.max_candidates = 100;
  auto report = DetectOutliersApproximate(w.points, kde, params, options);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), dbs::StatusCode::kFailedPrecondition);
}

TEST(KdeDetectorTest, QmcIntegrationAlsoWorks) {
  PlantedWorkload w = MakePlanted(5000, 6, 12);
  density::Kde kde = FitKde(w.points);
  DbOutlierParams params;
  params.radius = 0.1;
  params.max_neighbors = 5;
  KdeDetectorOptions options;
  options.integration = BallIntegration::kQuasiMonteCarlo;
  options.qmc_samples = 32;
  auto report = DetectOutliersApproximate(w.points, kde, params, options);
  ASSERT_TRUE(report.ok());
  std::set<int64_t> found(report->outlier_indices.begin(),
                          report->outlier_indices.end());
  for (int64_t idx : w.outlier_indices) {
    EXPECT_TRUE(found.count(idx));
  }
}

TEST(EstimateOutlierCountTest, TracksTrueCount) {
  PlantedWorkload w = MakePlanted(8000, 15, 13);
  density::Kde kde = FitKde(w.points);
  DbOutlierParams params;
  params.radius = 0.1;
  params.max_neighbors = 5;
  auto estimate =
      EstimateOutlierCount(w.points, kde, params, KdeDetectorOptions{});
  ASSERT_TRUE(estimate.ok());
  // One pass, no verification: the estimate lands near the planted count.
  EXPECT_GE(*estimate, 15);
  EXPECT_LE(*estimate, 15 + 40);
}

TEST(EstimateOutlierCountTest, RejectsNanRadius) {
  PlantedWorkload w = MakePlanted(500, 2, 14);
  density::Kde kde = FitKde(w.points);
  // 1e155 is finite, but its square overflows to +inf.
  for (double radius : {std::nan(""), 1e155}) {
    SCOPED_TRACE(radius);
    DbOutlierParams params;
    params.radius = radius;
    auto estimate =
        EstimateOutlierCount(w.points, kde, params, KdeDetectorOptions{});
    ASSERT_FALSE(estimate.ok());
    EXPECT_EQ(estimate.status().code(), dbs::StatusCode::kInvalidArgument);
  }
}

TEST(EstimateOutlierCountTest, GrowsAsRadiusShrinks) {
  PlantedWorkload w = MakePlanted(5000, 5, 14);
  density::Kde kde = FitKde(w.points);
  KdeDetectorOptions options;
  DbOutlierParams tight;
  tight.radius = 0.01;
  tight.max_neighbors = 3;
  DbOutlierParams loose;
  loose.radius = 0.3;
  loose.max_neighbors = 3;
  auto many = EstimateOutlierCount(w.points, kde, tight, options);
  auto few = EstimateOutlierCount(w.points, kde, loose, options);
  ASSERT_TRUE(many.ok());
  ASSERT_TRUE(few.ok());
  EXPECT_GE(*many, *few);
}

// ---------------------------------------------------------------------------
// A point with a non-finite coordinate is nobody's neighbor, in every
// DB(p,k) path. Three points well within radius 0.1 of each other, a row
// of NaNs and two isolated points: with p = 1 the three have two neighbors
// each, and the other three rows are outliers with 0 neighbors each — the
// NaN row's every distance is NaN, under Linf too. Padding the rows with
// zero axes to 7-D moves every grid pass onto its kd-tree fallback.

constexpr data::Metric kAllMetrics[] = {data::Metric::kL2, data::Metric::kL1,
                                        data::Metric::kLinf};

PointSet NanRowCase(int dim, double x3, double y3) {
  const double rows[6][2] = {{0.001, 0.001}, {0.002, 0.001}, {0.001, 0.002},
                             {x3, y3},       {0.5, 0.5},     {0.9, 0.9}};
  PointSet ps(dim);
  std::vector<double> x(static_cast<size_t>(dim), 0.0);
  for (const auto& row : rows) {
    x[0] = row[0];
    x[1] = row[1];
    ps.Append(x);
  }
  return ps;
}

DbOutlierParams NanRowParams(data::Metric metric) {
  DbOutlierParams params;
  params.radius = 0.1;
  params.max_neighbors = 1;
  params.metric = metric;
  return params;
}

TEST(NonFiniteRowTest, ExactDetectorMatchesOracleOnGridAndKdTree) {
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  // The row of NaNs the definition asks about, plus a NaN on one axis and
  // infinite coordinates, whose distances are NaN or +inf just the same.
  const double odd_rows[][2] = {{nan, nan}, {nan, 0.001}, {inf, 0.001},
                                {-inf, inf}};
  for (int dim : {2, 7}) {
    for (const auto& odd : odd_rows) {
      const PointSet ps = NanRowCase(dim, odd[0], odd[1]);
      for (data::Metric metric : kAllMetrics) {
        SCOPED_TRACE(::testing::Message()
                     << "dim " << dim << ", row 3 {" << odd[0] << ", "
                     << odd[1] << "}, metric " << static_cast<int>(metric));
        const DbOutlierParams params = NanRowParams(metric);
        CellListStats stats;
        CellListDetectorOptions options;
        options.stats = &stats;
        auto cell = DetectOutliersCellList(ps, params, options);
        auto oracle = DetectOutliersNestedLoop(ps, params);
        ASSERT_TRUE(cell.ok());
        ASSERT_TRUE(oracle.ok());
        EXPECT_EQ(oracle->outlier_indices, (std::vector<int64_t>{3, 4, 5}));
        EXPECT_EQ(oracle->neighbor_counts, (std::vector<int64_t>{0, 0, 0}));
        EXPECT_EQ(cell->outlier_indices, oracle->outlier_indices);
        EXPECT_EQ(cell->neighbor_counts, oracle->neighbor_counts);
        EXPECT_EQ(cell->candidates_checked, oracle->candidates_checked);
        EXPECT_EQ(stats.used_fallback, dim > 6);
      }
    }
  }
}

// Rows [begin, end) of shard `shard` of `num_shards` over `ps`.
PointSet ShardSlice(const PointSet& ps, int64_t num_shards, int64_t shard) {
  const RowRange range = ShardRowRange(ps.size(), num_shards, shard);
  std::vector<int64_t> idx;
  for (int64_t i = range.begin; i < range.end; ++i) idx.push_back(i);
  return ps.Gather(idx);
}

ShardInfo ShardOf(const PointSet& ps, int64_t num_shards, int64_t shard) {
  ShardInfo info;
  info.shard = shard;
  info.num_shards = num_shards;
  info.total_rows = ps.size();
  return info;
}

// The scoring round of the partial pipeline over `num_shards` slices.
[[nodiscard]] Result<OutlierCandidates> ShardedCandidates(
    const PointSet& ps, const density::DensityEstimator& estimator,
    const DbOutlierParams& params, const KdeDetectorOptions& options,
    int64_t num_shards) {
  PartialOutlierCandidates all;
  for (int64_t shard = 0; shard < num_shards; ++shard) {
    const PointSet slice = ShardSlice(ps, num_shards, shard);
    data::InMemoryScan scan(&slice);
    DBS_ASSIGN_OR_RETURN(
        PartialOutlierCandidates part,
        ScoreOutlierCandidatesPartial(scan, estimator, params, options,
                                      ShardOf(ps, num_shards, shard)));
    DBS_ASSIGN_OR_RETURN(all, MergeOutlierCandidates(std::move(all),
                                                     std::move(part),
                                                     options.max_candidates));
  }
  return FinalizeOutlierCandidates(std::move(all));
}

// Both rounds of the partial pipeline over `num_shards` slices.
[[nodiscard]] Result<OutlierReport> ShardedReport(
    const PointSet& ps, const density::DensityEstimator& estimator,
    const DbOutlierParams& params, const KdeDetectorOptions& options,
    int64_t num_shards) {
  DBS_ASSIGN_OR_RETURN(
      OutlierCandidates candidates,
      ShardedCandidates(ps, estimator, params, options, num_shards));
  PartialNeighborCounts counts;
  for (int64_t shard = 0; shard < num_shards; ++shard) {
    const PointSet slice = ShardSlice(ps, num_shards, shard);
    data::InMemoryScan scan(&slice);
    DBS_ASSIGN_OR_RETURN(
        PartialNeighborCounts part,
        CountCandidateNeighborsPartial(scan, candidates, params,
                                       ShardOf(ps, num_shards, shard)));
    DBS_ASSIGN_OR_RETURN(counts,
                         MergeNeighborCounts(std::move(counts),
                                             std::move(part)));
  }
  return FinalizeOutlierReport(candidates, counts, params);
}

TEST(NonFiniteRowTest, ApproximateReportMatchesOracle) {
  // The model is fitted on the finite rows (a fit rejects non-finite
  // data); the slack makes every row a candidate, so the report is the
  // verify pass's counts: on the candidate grid in 2-D, on the kd-tree in
  // 7-D, on one shard and on three.
  for (int dim : {2, 7}) {
    const PointSet ps = NanRowCase(dim, std::nan(""), 0.3);
    density::KdeOptions kde_options;
    kde_options.num_kernels = 5;
    auto kde = density::Kde::Fit(ps.Gather({0, 1, 2, 4, 5}), kde_options);
    ASSERT_TRUE(kde.ok());
    for (data::Metric metric : kAllMetrics) {
      SCOPED_TRACE(::testing::Message() << "dim " << dim << ", metric "
                                        << static_cast<int>(metric));
      const DbOutlierParams params = NanRowParams(metric);
      KdeDetectorOptions options;
      options.candidate_slack = 1e300;
      auto oracle = DetectOutliersNestedLoop(ps, params);
      ASSERT_TRUE(oracle.ok());
      auto approx = DetectOutliersApproximate(ps, *kde, params, options);
      auto sharded = ShardedReport(ps, *kde, params, options, 3);
      for (const Result<OutlierReport>* report : {&approx, &sharded}) {
        ASSERT_TRUE(report->ok());
        EXPECT_EQ((*report)->candidates_checked, ps.size());
        EXPECT_EQ((*report)->outlier_indices, oracle->outlier_indices);
        EXPECT_EQ((*report)->neighbor_counts, oracle->neighbor_counts);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The capped score pass. The detector and the estimate pass their
// thresholds down as score caps, and Kde stops a row's kernel sum once the
// row is certain to score above its cap. That may not move one decision:
// every candidate set, report and estimate must equal the one computed from
// full sums. FullSums hides Kde's capped entry point, so the detector gets
// the base class's default, which computes every value in full.

class FullSums final : public density::DensityEstimator {
 public:
  explicit FullSums(const density::DensityEstimator* base) : base_(base) {}
  int dim() const override { return base_->dim(); }
  double Evaluate(PointView p) const override { return base_->Evaluate(p); }
  double EvaluateExcluding(PointView x, PointView self) const override {
    return base_->EvaluateExcluding(x, self);
  }
  int64_t total_mass() const override { return base_->total_mass(); }
  double AverageDensity() const override { return base_->AverageDensity(); }
  [[nodiscard]] Status EvaluateExcludingSelvesBatch(
      const double* rows, const double* selves, int64_t count, double* out,
      parallel::BatchExecutor* executor) const override {
    return base_->EvaluateExcludingSelvesBatch(rows, selves, count, out,
                                               executor);
  }

 private:
  const density::DensityEstimator* base_;
};

void ExpectSameReport(const OutlierReport& got, const OutlierReport& want) {
  EXPECT_EQ(got.outlier_indices, want.outlier_indices);
  EXPECT_EQ(got.neighbor_counts, want.neighbor_counts);
  EXPECT_EQ(got.candidates_checked, want.candidates_checked);
  EXPECT_EQ(got.passes, want.passes);
}

void ExpectSameCandidates(const OutlierCandidates& got,
                          const OutlierCandidates& want) {
  EXPECT_EQ(got.rows, want.rows);
  EXPECT_EQ(got.points.flat(), want.points.flat());
}

// A dense cloud in [0.4, 0.6]^dim and a sparse background in [-1, 2]^dim,
// whose rows score on both sides of the candidate threshold.
PointSet CloudAndBackground(int dim, uint64_t seed) {
  dbs::Rng rng(seed);
  PointSet ps(dim);
  std::vector<double> x(static_cast<size_t>(dim));
  for (int64_t i = 0; i < 3000; ++i) {
    const bool background = i % 10 == 0;
    for (double& v : x) {
      v = background ? rng.NextDouble(-1.0, 2.0) : rng.NextDouble(0.4, 0.6);
    }
    ps.Append(x);
  }
  return ps;
}

TEST(CappedScorePassTest, DecisionsEqualFullSums) {
  for (int dim : {1, 2, 5}) {
    const PointSet points = CloudAndBackground(dim, 91 + dim);
    density::Kde kde = FitKde(points);
    const FullSums full(&kde);
    DbOutlierParams params;
    // Wide enough in 5-D that the cloud's rows clear the threshold.
    params.radius = dim < 5 ? 0.1 : 0.5;
    params.max_neighbors = 5;
    for (int workers : {0, 1, 4}) {
      SCOPED_TRACE(::testing::Message()
                   << "dim " << dim << ", workers " << workers);
      std::unique_ptr<parallel::BatchExecutor> pool;
      if (workers > 0) {
        parallel::BatchExecutorOptions pool_options;
        pool_options.num_workers = workers;
        pool = std::make_unique<parallel::BatchExecutor>(pool_options);
      }
      KdeDetectorOptions options;
      options.executor = pool.get();
      auto capped = DetectOutliersApproximate(points, kde, params, options);
      auto uncapped =
          DetectOutliersApproximate(points, full, params, options);
      ASSERT_TRUE(capped.ok());
      ASSERT_TRUE(uncapped.ok());
      ExpectSameReport(*capped, *uncapped);
      // Candidates, but far fewer than rows: both sides of the cap occur.
      EXPECT_GT(capped->candidates_checked, 0);
      EXPECT_LT(capped->candidates_checked, points.size() / 2);

      auto estimate = EstimateOutlierCount(points, kde, params, options);
      auto full_estimate =
          EstimateOutlierCount(points, full, params, options);
      ASSERT_TRUE(estimate.ok());
      ASSERT_TRUE(full_estimate.ok());
      EXPECT_EQ(*estimate, *full_estimate);
      if (pool != nullptr) pool->Shutdown();
    }
    for (int64_t shards : {1, 3}) {
      SCOPED_TRACE(::testing::Message()
                   << "dim " << dim << ", shards " << shards);
      const KdeDetectorOptions options;
      auto capped = ShardedCandidates(points, kde, params, options, shards);
      auto uncapped =
          ShardedCandidates(points, full, params, options, shards);
      ASSERT_TRUE(capped.ok());
      ASSERT_TRUE(uncapped.ok());
      ExpectSameCandidates(*capped, *uncapped);
    }
  }
}

TEST(CappedScorePassTest, RowScoringExactlyTheThresholdStaysACandidate) {
  // With p = 0 the threshold is candidate_slack itself, so setting the
  // slack to a row's exact score puts the row exactly on the boundary: the
  // score caps convert to a kernel-sum cap that its full sum does not
  // exceed, so the row keeps its exact score and stays a candidate.
  PlantedWorkload w = MakePlanted(2000, 8, 97, 2);
  density::Kde kde = FitKde(w.points);
  const FullSums full(&kde);
  DbOutlierParams params;
  params.radius = 0.05;
  params.max_neighbors = 0;
  const BallIntegrator integrator(BallIntegration::kCenterValue, 2);
  int checked = 0;
  for (int64_t row = 0; row < w.points.size(); row += 97) {
    const double score =
        integrator.IntegrateExcludingSelf(kde, w.points[row], params.radius);
    if (!(score > 0)) continue;
    SCOPED_TRACE(::testing::Message() << "row " << row << ", score "
                                      << score);
    KdeDetectorOptions options;
    options.candidate_slack = score;
    auto capped = ShardedCandidates(w.points, kde, params, options, 1);
    auto uncapped = ShardedCandidates(w.points, full, params, options, 1);
    ASSERT_TRUE(capped.ok());
    ASSERT_TRUE(uncapped.ok());
    EXPECT_TRUE(std::binary_search(capped->rows.begin(), capped->rows.end(),
                                   row));
    ExpectSameCandidates(*capped, *uncapped);
    ++checked;
  }
  EXPECT_GT(checked, 10);
}

}  // namespace
}  // namespace dbs::outlier
