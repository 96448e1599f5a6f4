// Equivalence and degenerate-input coverage for DetectOutliersCellList.
//
// The detector's contract is byte-identity with the nested-loop oracle for
// every metric, dimension and worker count — including inputs decided
// wholesale by the dense/sparse cell rules and inputs that take the
// kd-tree fallback. Tests compare full reports, never just outlier sets.

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "data/point_set.h"
#include "outlier/cell_list.h"
#include "outlier/nested_loop_reference.h"
#include "parallel/batch_executor.h"
#include "util/rng.h"

namespace dbs::outlier {
namespace {

using data::Metric;
using data::PointSet;

constexpr Metric kMetrics[] = {Metric::kL2, Metric::kL1, Metric::kLinf};

// A tight cloud (exercises the dense rule), a uniform background and a few
// isolated far points (exercise the sparse rule), in any dimension.
PointSet MixedWorkload(int dim, int64_t n_cloud, int64_t n_background,
                       int n_far, uint64_t seed) {
  dbs::Rng rng(seed);
  PointSet ps(dim);
  std::vector<double> x(static_cast<size_t>(dim));
  for (int64_t i = 0; i < n_cloud; ++i) {
    for (int j = 0; j < dim; ++j) x[static_cast<size_t>(j)] = rng.NextDouble(0.45, 0.55);
    ps.Append(x);
  }
  for (int64_t i = 0; i < n_background; ++i) {
    for (int j = 0; j < dim; ++j) x[static_cast<size_t>(j)] = rng.NextDouble(0.0, 1.0);
    ps.Append(x);
  }
  for (int i = 0; i < n_far; ++i) {
    for (int j = 0; j < dim; ++j) x[static_cast<size_t>(j)] = 0.5;
    // Spread the far points along alternating axes so they are isolated
    // from the unit cube and from each other, while keeping the bounding
    // box small enough that even the 5-D grid stays under the cell cap.
    x[static_cast<size_t>(i % dim)] = (i % 2 == 0 ? 2.2 : -1.4) + 0.05 * i;
    ps.Append(x);
  }
  return ps;
}

void ExpectSameReport(const OutlierReport& got, const OutlierReport& want) {
  EXPECT_EQ(got.outlier_indices, want.outlier_indices);
  EXPECT_EQ(got.neighbor_counts, want.neighbor_counts);
  EXPECT_EQ(got.candidates_checked, want.candidates_checked);
  EXPECT_EQ(got.passes, want.passes);
}

TEST(CellListTest, EquivalenceMatrixAcrossMetricsDimsAndWorkers) {
  for (int dim : {1, 2, 3, 5}) {
    PointSet ps = MixedWorkload(dim, 400, 300, 6, 17u + static_cast<uint64_t>(dim));
    for (Metric metric : kMetrics) {
      DbOutlierParams params;
      params.radius = 0.15;
      params.max_neighbors = 5;
      params.metric = metric;
      auto oracle = DetectOutliersNestedLoop(ps, params);
      ASSERT_TRUE(oracle.ok());
      for (int workers : {0, 1, 4}) {
        SCOPED_TRACE(testing::Message() << "dim=" << dim << " metric="
                                        << static_cast<int>(metric)
                                        << " workers=" << workers);
        CellListDetectorOptions options;
        CellListStats stats;
        options.stats = &stats;
        parallel::BatchExecutorOptions pool_opts;
        pool_opts.num_workers = workers;
        pool_opts.min_shard = 8;  // force real sharding over occupied cells
        parallel::BatchExecutor pool(pool_opts);
        if (workers > 0) options.executor = &pool;
        auto cell = DetectOutliersCellList(ps, params, options);
        ASSERT_TRUE(cell.ok());
        ExpectSameReport(*cell, *oracle);
        EXPECT_FALSE(stats.used_fallback);
        EXPECT_GT(stats.occupied_cells, 0);
      }
    }
  }
}

TEST(CellListTest, PruneStatsAreWorkerCountInvariant) {
  PointSet ps = MixedWorkload(2, 3000, 500, 8, 23);
  DbOutlierParams params;
  params.radius = 0.1;
  params.max_neighbors = 5;
  CellListStats sequential;
  CellListDetectorOptions options;
  options.stats = &sequential;
  ASSERT_TRUE(DetectOutliersCellList(ps, params, options).ok());
  // The tight cloud packs whole cells past p+2 and the far points sit in
  // near-empty neighborhoods, so both rules fire on this workload.
  EXPECT_GT(sequential.cells_dense_pruned, 0);
  EXPECT_GT(sequential.cells_sparse_pruned, 0);
  EXPECT_GT(sequential.pairwise_evaluated, 0);
  for (int workers : {1, 4}) {
    SCOPED_TRACE(workers);
    parallel::BatchExecutorOptions pool_opts;
    pool_opts.num_workers = workers;
    pool_opts.min_shard = 8;
    parallel::BatchExecutor pool(pool_opts);
    CellListStats stats;
    CellListDetectorOptions sharded;
    sharded.executor = &pool;
    sharded.stats = &stats;
    ASSERT_TRUE(DetectOutliersCellList(ps, params, sharded).ok());
    EXPECT_EQ(stats.grid_cells, sequential.grid_cells);
    EXPECT_EQ(stats.occupied_cells, sequential.occupied_cells);
    EXPECT_EQ(stats.cells_dense_pruned, sequential.cells_dense_pruned);
    EXPECT_EQ(stats.cells_sparse_pruned, sequential.cells_sparse_pruned);
    EXPECT_EQ(stats.pairwise_evaluated, sequential.pairwise_evaluated);
  }
}

TEST(CellListTest, BoundaryDistancesOnPowerOfTwoLattice) {
  // Lattice spacing equal to the radius, both powers of two: axis-neighbor
  // distances are EXACTLY the radius in floating point under all three
  // metrics, so any divergence in comparison expressions between the
  // detectors would flip these boundary pairs.
  PointSet ps(2);
  for (int a = 0; a < 12; ++a) {
    for (int b = 0; b < 12; ++b) {
      ps.Append(std::vector<double>{a * 0.125, b * 0.125});
    }
  }
  for (Metric metric : kMetrics) {
    SCOPED_TRACE(static_cast<int>(metric));
    DbOutlierParams params;
    params.radius = 0.125;
    params.max_neighbors = 3;  // interior points have 4 axis neighbors (L2)
    params.metric = metric;
    auto oracle = DetectOutliersNestedLoop(ps, params);
    auto cell = DetectOutliersCellList(ps, params);
    ASSERT_TRUE(oracle.ok());
    ASSERT_TRUE(cell.ok());
    ExpectSameReport(*cell, *oracle);
  }
}

TEST(CellListTest, RadiusZeroTakesKdTreeFallback) {
  PointSet ps(2, {0.0, 0.0, 0.0, 0.0, 1.0, 1.0});
  DbOutlierParams params;
  params.radius = 0.0;
  params.max_neighbors = 0;
  CellListStats stats;
  CellListDetectorOptions options;
  options.stats = &stats;
  auto cell = DetectOutliersCellList(ps, params, options);
  auto oracle = DetectOutliersNestedLoop(ps, params);
  ASSERT_TRUE(cell.ok());
  ASSERT_TRUE(oracle.ok());
  ExpectSameReport(*cell, *oracle);
  EXPECT_TRUE(stats.used_fallback);
  // The two coincident points neighbor each other at distance 0.
  EXPECT_EQ(cell->outlier_indices, (std::vector<int64_t>{2}));
}

TEST(CellListTest, UnderflowingSquaredRadiusTakesKdTreeFallback) {
  // Radius 1e-200 squares to 0, so under L2 every pair whose squared gap
  // underflows too counts as a neighbor pair — the oracle's
  // sqrt(SquaredL2) <= radius agrees. Such a pair can be many cells apart:
  // 0 and 1e-195 are ~10^5 bins apart here, under the 2^21 cap, so a grid
  // would never compare them.
  PointSet ps(1, {0.0, 1e-195, 1.0e-196, 4e-196});
  for (Metric metric : kMetrics) {
    SCOPED_TRACE(static_cast<int>(metric));
    DbOutlierParams params;
    params.radius = 1e-200;
    params.max_neighbors = 1;
    params.metric = metric;
    CellListStats stats;
    CellListDetectorOptions options;
    options.stats = &stats;
    auto cell = DetectOutliersCellList(ps, params, options);
    auto oracle = DetectOutliersNestedLoop(ps, params);
    ASSERT_TRUE(cell.ok());
    ASSERT_TRUE(oracle.ok());
    ExpectSameReport(*cell, *oracle);
    EXPECT_TRUE(stats.used_fallback);
  }
}

TEST(CellListTest, AllIdenticalPointsDensePruneWholesale) {
  PointSet ps(3);
  for (int i = 0; i < 50; ++i) {
    ps.Append(std::vector<double>{0.3, 0.3, 0.3});
  }
  for (Metric metric : kMetrics) {
    SCOPED_TRACE(static_cast<int>(metric));
    DbOutlierParams params;
    params.radius = 0.05;
    params.max_neighbors = 5;
    params.metric = metric;
    CellListStats stats;
    CellListDetectorOptions options;
    options.stats = &stats;
    auto cell = DetectOutliersCellList(ps, params, options);
    auto oracle = DetectOutliersNestedLoop(ps, params);
    ASSERT_TRUE(cell.ok());
    ASSERT_TRUE(oracle.ok());
    ExpectSameReport(*cell, *oracle);
    EXPECT_TRUE(cell->outlier_indices.empty());
    // One occupied zero-extent cell with 50 >= p+2 residents: the dense
    // rule decides everything without a single distance evaluation.
    EXPECT_EQ(stats.occupied_cells, 1);
    EXPECT_EQ(stats.cells_dense_pruned, 1);
    EXPECT_EQ(stats.pairwise_evaluated, 0);
  }
}

TEST(CellListTest, AllIdenticalPointsSparseRuleStillReportsExactCounts) {
  PointSet ps(2);
  for (int i = 0; i < 50; ++i) {
    ps.Append(std::vector<double>{0.3, 0.3});
  }
  DbOutlierParams params;
  params.radius = 0.05;
  params.max_neighbors = 60;  // everyone is an outlier (49 <= 60 neighbors)
  CellListStats stats;
  CellListDetectorOptions options;
  options.stats = &stats;
  auto cell = DetectOutliersCellList(ps, params, options);
  auto oracle = DetectOutliersNestedLoop(ps, params);
  ASSERT_TRUE(cell.ok());
  ASSERT_TRUE(oracle.ok());
  ExpectSameReport(*cell, *oracle);
  ASSERT_EQ(cell->outlier_indices.size(), 50u);
  for (int64_t count : cell->neighbor_counts) EXPECT_EQ(count, 49);
  EXPECT_EQ(stats.cells_sparse_pruned, 1);
  EXPECT_EQ(stats.cells_dense_pruned, 0);
}

TEST(CellListTest, SinglePoint) {
  PointSet ps(2, {0.7, -0.2});
  DbOutlierParams params;
  params.radius = 1.0;
  params.max_neighbors = 0;
  auto cell = DetectOutliersCellList(ps, params);
  auto oracle = DetectOutliersNestedLoop(ps, params);
  ASSERT_TRUE(cell.ok());
  ASSERT_TRUE(oracle.ok());
  ExpectSameReport(*cell, *oracle);
  EXPECT_EQ(cell->outlier_indices, (std::vector<int64_t>{0}));
  EXPECT_EQ(cell->neighbor_counts, (std::vector<int64_t>{0}));
}

TEST(CellListTest, ExtremeAspectRatioBox) {
  // 2000:1 aspect ratio: many cells along x, one along y. The grid stays
  // small enough to build, and the report still matches the oracle's.
  dbs::Rng rng(31);
  PointSet ps(2);
  for (int i = 0; i < 800; ++i) {
    ps.Append(std::vector<double>{rng.NextDouble(0.0, 1000.0),
                                  rng.NextDouble(0.0, 0.5)});
  }
  DbOutlierParams params;
  params.radius = 2.0;
  params.max_neighbors = 3;
  CellListStats stats;
  CellListDetectorOptions options;
  options.stats = &stats;
  auto cell = DetectOutliersCellList(ps, params, options);
  auto oracle = DetectOutliersNestedLoop(ps, params);
  ASSERT_TRUE(cell.ok());
  ASSERT_TRUE(oracle.ok());
  ExpectSameReport(*cell, *oracle);
  EXPECT_FALSE(stats.used_fallback);
  EXPECT_GT(stats.grid_cells, 400);
}

TEST(CellListTest, RadiusLargerThanBoundingBoxDensePrunes) {
  dbs::Rng rng(37);
  PointSet ps(2);
  for (int i = 0; i < 30; ++i) {
    ps.Append(std::vector<double>{rng.NextDouble(0.0, 0.1),
                                  rng.NextDouble(0.0, 0.1)});
  }
  for (Metric metric : kMetrics) {
    SCOPED_TRACE(static_cast<int>(metric));
    DbOutlierParams params;
    params.radius = 10.0;  // the whole dataset fits in one bin
    params.max_neighbors = 5;
    params.metric = metric;
    CellListStats stats;
    CellListDetectorOptions options;
    options.stats = &stats;
    auto cell = DetectOutliersCellList(ps, params, options);
    auto oracle = DetectOutliersNestedLoop(ps, params);
    ASSERT_TRUE(cell.ok());
    ASSERT_TRUE(oracle.ok());
    ExpectSameReport(*cell, *oracle);
    EXPECT_TRUE(cell->outlier_indices.empty());
    EXPECT_EQ(stats.grid_cells, 1);
    EXPECT_EQ(stats.cells_dense_pruned, 1);
    EXPECT_EQ(stats.pairwise_evaluated, 0);
  }
}

TEST(CellListTest, HighDimensionTakesKdTreeFallback) {
  dbs::Rng rng(41);
  PointSet ps(7);  // one axis above the grid's dimension cap of 6
  for (int i = 0; i < 300; ++i) {
    std::vector<double> x(7);
    for (auto& v : x) v = rng.NextDouble();
    ps.Append(x);
  }
  for (Metric metric : kMetrics) {
    SCOPED_TRACE(static_cast<int>(metric));
    DbOutlierParams params;
    params.radius = 0.5;
    params.max_neighbors = 5;
    params.metric = metric;
    CellListStats stats;
    CellListDetectorOptions options;
    options.stats = &stats;
    auto cell = DetectOutliersCellList(ps, params, options);
    auto oracle = DetectOutliersNestedLoop(ps, params);
    ASSERT_TRUE(cell.ok());
    ASSERT_TRUE(oracle.ok());
    ExpectSameReport(*cell, *oracle);
    EXPECT_TRUE(stats.used_fallback);
    EXPECT_EQ(stats.grid_cells, 0);
  }
}

TEST(CellListTest, GridCellCapTakesKdTreeFallback) {
  // Tight clumps of 1-4 points spread over the unit cube (two corners pin
  // the bounding box), so points have 0-3 neighbors. Radius 0.01 needs
  // ~101^3 ~ 1.03M bins, under the 2^21 cap; radius 0.005 needs ~201^3 ~
  // 8.1M, over it.
  dbs::Rng rng(47);
  PointSet ps(3);
  for (int c = 0; c < 150; ++c) {
    const double x = rng.NextDouble();
    const double y = rng.NextDouble();
    const double z = rng.NextDouble();
    for (int k = 0; k <= c % 4; ++k) {
      ps.Append(std::vector<double>{x + rng.NextDouble(-0.002, 0.002),
                                    y + rng.NextDouble(-0.002, 0.002),
                                    z + rng.NextDouble(-0.002, 0.002)});
    }
  }
  ps.Append(std::vector<double>{0.0, 0.0, 0.0});
  ps.Append(std::vector<double>{1.0, 1.0, 1.0});
  for (double radius : {0.01, 0.005}) {
    SCOPED_TRACE(radius);
    DbOutlierParams params;
    params.radius = radius;
    params.max_neighbors = 1;
    CellListStats stats;
    CellListDetectorOptions options;
    options.stats = &stats;
    auto cell = DetectOutliersCellList(ps, params, options);
    auto oracle = DetectOutliersNestedLoop(ps, params);
    ASSERT_TRUE(cell.ok());
    ASSERT_TRUE(oracle.ok());
    ExpectSameReport(*cell, *oracle);
    EXPECT_EQ(stats.used_fallback, radius < 0.01);
  }
}

TEST(CellListTest, RejectsBadArgsWithSameMessagesAsKdTree) {
  // Validation runs before the grid-or-fallback choice, so a bad input is
  // rejected with the same message whichever path it would take — and with
  // the oracle's message.
  PointSet ps(2, {0.0, 0.0});
  PointSet ps7(7, {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0});
  DbOutlierParams bad_radius;
  bad_radius.radius = -1;
  auto cell = DetectOutliersCellList(ps, bad_radius);
  auto kd = DetectOutliersCellList(ps7, bad_radius);
  auto oracle = DetectOutliersNestedLoop(ps, bad_radius);
  ASSERT_FALSE(cell.ok());
  ASSERT_FALSE(kd.ok());
  ASSERT_FALSE(oracle.ok());
  EXPECT_EQ(cell.status().ToString(), kd.status().ToString());
  EXPECT_EQ(cell.status().ToString(), oracle.status().ToString());

  DbOutlierParams bad_fraction;
  bad_fraction.max_neighbor_fraction = 1.5;
  EXPECT_FALSE(DetectOutliersCellList(ps, bad_fraction).ok());
  EXPECT_FALSE(DetectOutliersCellList(PointSet(2), DbOutlierParams{}).ok());
}

TEST(CellListTest, RejectsNonFiniteParams) {
  PointSet ps = MixedWorkload(2, 100, 100, 0, 59);
  // 1e155 is finite, but its square overflows to +inf.
  for (double radius : {std::nan(""), std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity(), 1e155}) {
    SCOPED_TRACE(radius);
    DbOutlierParams params;
    params.radius = radius;
    auto cell = DetectOutliersCellList(ps, params);
    ASSERT_FALSE(cell.ok());
    EXPECT_EQ(cell.status().code(), StatusCode::kInvalidArgument);
  }
  // A NaN fraction is not "unset" (negative): it is rejected too.
  DbOutlierParams nan_fraction;
  nan_fraction.max_neighbor_fraction = std::nan("");
  auto cell = DetectOutliersCellList(ps, nan_fraction);
  ASSERT_FALSE(cell.ok());
  EXPECT_EQ(cell.status().code(), StatusCode::kInvalidArgument);
}

TEST(CellListTest, ShardedCountingPropagatesBackpressure) {
  PointSet ps = MixedWorkload(2, 2000, 200, 4, 53);
  DbOutlierParams params;
  params.radius = 0.1;
  params.max_neighbors = 5;
  parallel::BatchExecutorOptions pool_opts;
  pool_opts.num_workers = 1;
  pool_opts.min_shard = 1;
  parallel::BatchExecutor pool(pool_opts);
  pool.Shutdown();  // every submit now fails
  CellListDetectorOptions options;
  options.executor = &pool;
  auto report = DetectOutliersCellList(ps, params, options);
  EXPECT_FALSE(report.ok());
}

TEST(CellListTest, FractionalNeighborBound) {
  PointSet ps(1, {0.0, 0.01, 0.02, 0.03, 5.0});
  DbOutlierParams params;
  params.radius = 0.1;
  params.max_neighbor_fraction = 0.2;  // 20% of 5 points = 1 neighbor
  auto cell = DetectOutliersCellList(ps, params);
  auto oracle = DetectOutliersNestedLoop(ps, params);
  ASSERT_TRUE(cell.ok());
  ASSERT_TRUE(oracle.ok());
  ExpectSameReport(*cell, *oracle);
  EXPECT_EQ(cell->outlier_indices, (std::vector<int64_t>{4}));
}

}  // namespace
}  // namespace dbs::outlier
