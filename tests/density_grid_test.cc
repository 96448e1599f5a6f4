#include "density/grid_density.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace dbs::density {
namespace {

using data::PointSet;
using data::PointView;

PointSet UniformCube(int64_t n, int dim, uint64_t seed) {
  dbs::Rng rng(seed);
  PointSet ps(dim);
  std::vector<double> buf(dim);
  for (int64_t i = 0; i < n; ++i) {
    for (int j = 0; j < dim; ++j) buf[j] = rng.NextDouble();
    ps.Append(buf);
  }
  return ps;
}

// Linear id of p's cell in a `cells`^d equi-width grid over `bounds`,
// binned independently of GridDensity: floor((x - lo) / width), clamped
// onto the grid.
int64_t TestCellId(PointView p, const data::BoundingBox& bounds, int cells) {
  int64_t id = 0;
  for (int j = 0; j < p.dim(); ++j) {
    const double width = bounds.extent(j) / cells;
    const int64_t c = static_cast<int64_t>(
        std::floor((p[j] - bounds.lo(j)) / width));
    id = id * cells + std::clamp<int64_t>(c, 0, cells - 1);
  }
  return id;
}

// The exact histogram of `ps`: one count per cell, indexed by TestCellId.
std::vector<int64_t> TestCellCounts(const PointSet& ps,
                                    const data::BoundingBox& bounds,
                                    int cells) {
  int64_t total = 1;
  for (int j = 0; j < ps.dim(); ++j) total *= cells;
  std::vector<int64_t> counts(static_cast<size_t>(total), 0);
  for (int64_t i = 0; i < ps.size(); ++i) {
    ++counts[static_cast<size_t>(TestCellId(ps[i], bounds, cells))];
  }
  return counts;
}

TEST(GridDensityTest, RejectsBadOptions) {
  PointSet ps = UniformCube(100, 2, 1);
  GridDensityOptions bad;
  bad.cells_per_dim = 0;
  EXPECT_FALSE(GridDensity::Fit(ps, bad).ok());
  GridDensityOptions tiny;
  tiny.memory_budget_bytes = 8;
  EXPECT_FALSE(GridDensity::Fit(ps, tiny).ok());
}

TEST(GridDensityTest, RejectsEmptyDataset) {
  PointSet ps(2);
  EXPECT_FALSE(GridDensity::Fit(ps, GridDensityOptions{}).ok());
}

TEST(GridDensityTest, CountsSumToN) {
  PointSet ps = UniformCube(5000, 2, 2);
  auto gd = GridDensity::Fit(ps, GridDensityOptions{});
  ASSERT_TRUE(gd.ok());
  EXPECT_EQ(gd->total_mass(), 5000);
  // Each point's cell must count at least that point.
  for (int64_t i = 0; i < 100; ++i) {
    EXPECT_GE(gd->CellCount(ps[i]), 1);
  }
}

TEST(GridDensityTest, DenseRegionScoresHigher) {
  dbs::Rng rng(3);
  PointSet ps(2);
  // 9000 points in a tight blob, 1000 spread out.
  for (int i = 0; i < 9000; ++i) {
    ps.Append(std::vector<double>{rng.NextGaussian(0.25, 0.02),
                                  rng.NextGaussian(0.25, 0.02)});
  }
  for (int i = 0; i < 1000; ++i) {
    ps.Append(std::vector<double>{rng.NextDouble(), rng.NextDouble()});
  }
  auto gd = GridDensity::Fit(ps, GridDensityOptions{});
  ASSERT_TRUE(gd.ok());
  double dense[2] = {0.25, 0.25};
  double sparse[2] = {0.8, 0.8};
  EXPECT_GT(gd->Evaluate(PointView(dense, 2)),
            10 * gd->Evaluate(PointView(sparse, 2)));
}

TEST(GridDensityTest, MatchesExactHistogramWhenBudgetIsAmple) {
  // When the logical grid fits the memory budget, cells are addressed
  // directly (no hashing) and counts match the exact histogram everywhere.
  PointSet ps = UniformCube(20000, 2, 4);
  data::BoundingBox bounds({0.0, 0.0}, {1.0, 1.0});

  GridDensityOptions gopts;
  gopts.cells_per_dim = 16;
  gopts.bounds = bounds;
  gopts.memory_budget_bytes = 1 << 20;  // 131072 buckets for 256 cells
  auto gd = GridDensity::Fit(ps, gopts);
  ASSERT_TRUE(gd.ok());
  const std::vector<int64_t> exact = TestCellCounts(ps, bounds, 16);

  EXPECT_FALSE(gd->hashed());
  EXPECT_EQ(gd->num_buckets(), 256);
  dbs::Rng rng(5);
  const int probes = 500;
  for (int i = 0; i < probes; ++i) {
    double q[2] = {rng.NextDouble(), rng.NextDouble()};
    PointView p(q, 2);
    EXPECT_EQ(gd->CellCount(p),
              exact[static_cast<size_t>(TestCellId(p, bounds, 16))]);
  }
}

TEST(GridDensityTest, DirectCountsBeyondSixteenDims) {
  // 2^17 cells fit the default budget, so a 17-D grid is addressed
  // directly; its counts are the exact per-cell counts.
  const int dim = 17;
  PointSet ps = UniformCube(3000, dim, 12);
  data::BoundingBox bounds(std::vector<double>(dim, 0.0),
                           std::vector<double>(dim, 1.0));
  GridDensityOptions opts;
  opts.cells_per_dim = 2;
  opts.bounds = bounds;
  auto gd = GridDensity::Fit(ps, opts);
  ASSERT_TRUE(gd.ok());
  ASSERT_FALSE(gd->hashed());
  EXPECT_EQ(gd->num_buckets(), int64_t{1} << dim);
  EXPECT_EQ(gd->total_mass(), 3000);
  const std::vector<int64_t> exact = TestCellCounts(ps, bounds, 2);
  EXPECT_EQ(gd->num_occupied_buckets(),
            std::count_if(exact.begin(), exact.end(),
                          [](int64_t c) { return c > 0; }));
  PointSet probes = UniformCube(500, dim, 13);
  for (const PointSet* set : {&ps, &probes}) {
    for (int64_t i = 0; i < set->size(); ++i) {
      EXPECT_EQ(gd->CellCount((*set)[i]),
                exact[static_cast<size_t>(TestCellId((*set)[i], bounds, 2))])
          << "row " << i;
    }
  }
}

TEST(GridDensityTest, TightBudgetMergesCells) {
  // 64x64 = 4096 logical cells but only 128 buckets: collisions must fold
  // distinct cells together, inflating counts. This is the degradation the
  // paper attributes to the hash-based approach.
  PointSet ps = UniformCube(50000, 2, 6);
  GridDensityOptions opts;
  opts.cells_per_dim = 64;
  opts.memory_budget_bytes = 128 * 8;
  auto gd = GridDensity::Fit(ps, opts);
  ASSERT_TRUE(gd.ok());
  EXPECT_EQ(gd->num_buckets(), 128);
  // Uniform data, ~12 points per logical cell, ~32 cells per bucket:
  // bucket counts must be far above any single-cell count.
  double mean_count = 0;
  for (int64_t i = 0; i < 200; ++i) {
    mean_count += static_cast<double>(gd->CellCount(ps[i]));
  }
  mean_count /= 200;
  EXPECT_GT(mean_count, 100.0);
}

TEST(GridDensityTest, BucketCapIsRespected) {
  PointSet ps = UniformCube(1000, 3, 7);
  GridDensityOptions opts;
  opts.cells_per_dim = 100;  // 1e6 logical cells
  opts.memory_budget_bytes = 1000 * 8;
  auto gd = GridDensity::Fit(ps, opts);
  ASSERT_TRUE(gd.ok());
  EXPECT_EQ(gd->num_buckets(), 1000);
  EXPECT_LE(gd->num_occupied_buckets(), 1000);
}

TEST(GridDensityTest, SumCountPowIdentities) {
  PointSet ps = UniformCube(3000, 2, 8);
  auto gd = GridDensity::Fit(ps, GridDensityOptions{});
  ASSERT_TRUE(gd.ok());
  // e=1: sum of counts = n.
  EXPECT_NEAR(gd->SumCountPow(1.0), 3000.0, 1e-9);
  // e=0: number of occupied buckets.
  EXPECT_NEAR(gd->SumCountPow(0.0),
              static_cast<double>(gd->num_occupied_buckets()), 1e-9);
}

TEST(GridDensityTest, ProvidedBoundsSkipDiscoveryPass) {
  PointSet ps = UniformCube(500, 2, 9);
  data::InMemoryScan scan(&ps);
  GridDensityOptions opts;
  opts.bounds = data::BoundingBox({0.0, 0.0}, {1.0, 1.0});
  auto gd = GridDensity::Fit(scan, opts);
  ASSERT_TRUE(gd.ok());
  EXPECT_EQ(scan.passes(), 1);

  data::InMemoryScan scan2(&ps);
  GridDensityOptions no_bounds;
  auto gd2 = GridDensity::Fit(scan2, no_bounds);
  ASSERT_TRUE(gd2.ok());
  EXPECT_EQ(scan2.passes(), 2);
}

// The exact histogram is a GridDensity whose cells all fit its budget:
// cells are then addressed directly (hashed() is false), one count each.

TEST(ExactHistogramTest, ExactCounts) {
  // Values chosen away from bin boundaries (0.6/0.1 is not exactly 6 in
  // binary floating point, so boundary values would bin unpredictably).
  PointSet ps(1, {0.15, 0.25, 0.63, 0.61, 0.62, 0.99});
  GridDensityOptions opts;
  opts.cells_per_dim = 10;
  opts.bounds = data::BoundingBox({0.0}, {1.0});
  auto hd = GridDensity::Fit(ps, opts);
  ASSERT_TRUE(hd.ok());
  ASSERT_FALSE(hd->hashed());
  double q1 = 0.15;
  double q6 = 0.65;
  double q9 = 0.95;
  double q3 = 0.35;
  EXPECT_EQ(hd->CellCount(PointView(&q1, 1)), 1);
  EXPECT_EQ(hd->CellCount(PointView(&q6, 1)), 3);
  EXPECT_EQ(hd->CellCount(PointView(&q9, 1)), 1);
  EXPECT_EQ(hd->CellCount(PointView(&q3, 1)), 0);
  // Density = count / cell width.
  EXPECT_DOUBLE_EQ(hd->Evaluate(PointView(&q6, 1)), 30.0);
}

TEST(ExactHistogramTest, IntegralIsN) {
  PointSet ps = UniformCube(4000, 2, 11);
  GridDensityOptions opts;
  opts.cells_per_dim = 8;
  opts.bounds = data::BoundingBox({0.0, 0.0}, {1.0, 1.0});
  auto hd = GridDensity::Fit(ps, opts);
  ASSERT_TRUE(hd.ok());
  ASSERT_FALSE(hd->hashed());
  // Sum over a regular probe of cell centers: count/vol * vol per cell = n.
  double integral = 0.0;
  for (int a = 0; a < 8; ++a) {
    for (int b = 0; b < 8; ++b) {
      double q[2] = {(a + 0.5) / 8.0, (b + 0.5) / 8.0};
      integral += hd->Evaluate(PointView(q, 2)) * hd->cell_volume();
    }
  }
  EXPECT_NEAR(integral, 4000.0, 1e-6);
}

TEST(ExactHistogramTest, OutOfDomainPointsClampToEdgeCells) {
  PointSet ps(1, {0.5});
  GridDensityOptions opts;
  opts.cells_per_dim = 4;
  opts.bounds = data::BoundingBox({0.0}, {1.0});
  auto hd = GridDensity::Fit(ps, opts);
  ASSERT_TRUE(hd.ok());
  ASSERT_FALSE(hd->hashed());
  double below = -5.0;
  double above = 5.0;
  // Clamped lookups do not crash and return edge-cell counts.
  EXPECT_EQ(hd->CellCount(PointView(&below, 1)), 0);
  EXPECT_EQ(hd->CellCount(PointView(&above, 1)), 0);
}

TEST(ExactHistogramTest, NonFiniteAndHugeCoordinatesLandInDefinedCells) {
  // The clamp runs before the cast to an integer cell, so values past
  // int64's range reach the edge cell on their side, and NaN cell 0.
  PointSet ps(2, {0.1, 0.1, 0.9, 0.9, 0.9, 0.1});
  GridDensityOptions opts;
  opts.cells_per_dim = 4;
  opts.bounds = data::BoundingBox({0.0, 0.0}, {1.0, 1.0});
  auto hd = GridDensity::Fit(ps, opts);
  ASSERT_TRUE(hd.ok());
  ASSERT_FALSE(hd->hashed());
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::nan("");
  const double cases[][2][2] = {
      // {probe, a point in the cell it must land in}
      {{1e300, 0.1}, {0.9, 0.1}},  {{inf, 0.1}, {0.9, 0.1}},
      {{-1e300, 0.9}, {0.1, 0.9}}, {{-inf, 0.9}, {0.1, 0.9}},
      {{nan, 0.1}, {0.1, 0.1}},    {{0.9, nan}, {0.9, 0.1}},
  };
  for (const auto& c : cases) {
    const PointView probe(c[0], 2);
    const PointView same_cell(c[1], 2);
    EXPECT_EQ(hd->BucketOf(probe), hd->BucketOf(same_cell))
        << c[0][0] << ", " << c[0][1];
    EXPECT_EQ(hd->Evaluate(probe), hd->Evaluate(same_cell));
  }
}

}  // namespace
}  // namespace dbs::density
