// Contract tests for the batched density paths: EvaluateBatch /
// EvaluateExcludingBatch must be BITWISE identical to the per-point calls —
// batching, cell-sorted SoA tiles, and executor sharding are execution
// details, never semantic ones. Checked across both estimator backends
// (the KDE with its grid index on and off, the grid hashed and directly
// addressed), 0/1/4 workers, and against a frozen reference that forces
// every evaluation through the pre-batching scalar virtuals.

#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "data/bounds.h"
#include "data/point_set.h"
#include "density/grid_density.h"
#include "density/kde.h"
#include "parallel/batch_executor.h"
#include "synth/generator.h"
#include "util/check.h"
#include "util/rng.h"

namespace dbs::density {
namespace {

// Forwards the scalar virtuals to a wrapped estimator but inherits the
// DEFAULT batch implementations — i.e. exactly the per-point execution
// every consumer used before the batch paths existed. Comparing a tuned
// override against this wrapper pins the bitwise contract to the
// pre-batching behavior, not to whatever both paths happen to share.
class ScalarPathOnly final : public DensityEstimator {
 public:
  explicit ScalarPathOnly(const DensityEstimator* inner) : inner_(inner) {}
  int dim() const override { return inner_->dim(); }
  double Evaluate(data::PointView p) const override {
    return inner_->Evaluate(p);
  }
  double EvaluateExcluding(data::PointView x,
                           data::PointView self) const override {
    return inner_->EvaluateExcluding(x, self);
  }
  int64_t total_mass() const override { return inner_->total_mass(); }
  double AverageDensity() const override { return inner_->AverageDensity(); }

 private:
  const DensityEstimator* inner_;
};

data::PointSet MakeData(int dim, int64_t points, uint64_t seed) {
  synth::ClusteredDatasetOptions opts;
  opts.dim = dim;
  opts.num_clusters = 5;
  opts.num_cluster_points = points / 5;
  opts.noise_multiplier = 0.15;
  opts.shuffle = true;
  opts.seed = seed;
  auto ds = synth::MakeClusteredDataset(opts);
  DBS_CHECK(ds.ok());
  return std::move(ds)->points;
}

// Queries that exercise every branch: data points themselves (exact
// center/cell hits, the exclusion case), jittered near-misses, and points
// far outside the data bounds (empty neighborhoods).
data::PointSet MakeQueries(const data::PointSet& data, int64_t count) {
  data::PointSet queries(data.dim());
  Rng rng(93);
  for (int64_t i = 0; i < count; ++i) {
    std::vector<double> q(static_cast<size_t>(data.dim()));
    data::PointView base = data[i % data.size()];
    switch (i % 4) {
      case 0:  // verbatim data point
        for (int j = 0; j < data.dim(); ++j) q[j] = base[j];
        break;
      case 1:  // near-miss jitter
        for (int j = 0; j < data.dim(); ++j) {
          q[j] = base[j] + 0.01 * (rng.NextDouble() - 0.5);
        }
        break;
      case 2:  // anywhere in the unit box
        for (int j = 0; j < data.dim(); ++j) q[j] = rng.NextDouble();
        break;
      default:  // far outside the data bounds
        for (int j = 0; j < data.dim(); ++j) q[j] = 10.0 + rng.NextDouble();
        break;
    }
    queries.Append(data::PointView(q.data(), data.dim()));
  }
  return queries;
}

void ExpectBitwiseEqual(const std::vector<double>& got,
                        const std::vector<double>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::memcmp(&got[i], &want[i], sizeof(double)), 0)
        << "index " << i << ": batch " << got[i] << " vs scalar " << want[i];
  }
}

// Runs the full bitwise contract for one estimator: batch-vs-scalar, the
// excluding variants (self and explicit selves), the pre-batching frozen
// reference, and 1/4-worker executor sharding.
void CheckEstimator(const DensityEstimator& estimator,
                    const data::PointSet& queries) {
  const int64_t n = queries.size();
  const double* rows = queries.flat().data();

  // Explicit exclusion rows for the selves variant: each query excludes a
  // DIFFERENT point (the next query) — the shape the QMC ball integrator
  // uses, where probes exclude the ball center they fanned out from.
  data::PointSet selves(queries.dim());
  for (int64_t i = 0; i < n; ++i) selves.Append(queries[(i + 1) % n]);
  const double* selves_rows = selves.flat().data();

  std::vector<double> scalar(static_cast<size_t>(n));
  std::vector<double> scalar_excl(static_cast<size_t>(n));
  std::vector<double> scalar_selves(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    scalar[i] = estimator.Evaluate(queries[i]);
    scalar_excl[i] = estimator.EvaluateExcluding(queries[i], queries[i]);
    scalar_selves[i] = estimator.EvaluateExcluding(queries[i], selves[i]);
  }

  std::vector<double> batch(static_cast<size_t>(n));
  ASSERT_TRUE(estimator.EvaluateBatch(rows, n, batch.data()).ok());
  ExpectBitwiseEqual(batch, scalar);

  std::vector<double> batch_excl(static_cast<size_t>(n));
  ASSERT_TRUE(
      estimator.EvaluateExcludingBatch(rows, n, batch_excl.data()).ok());
  ExpectBitwiseEqual(batch_excl, scalar_excl);

  std::vector<double> batch_selves(static_cast<size_t>(n));
  ASSERT_TRUE(estimator
                  .EvaluateExcludingSelvesBatch(rows, selves_rows, n,
                                                batch_selves.data())
                  .ok());
  ExpectBitwiseEqual(batch_selves, scalar_selves);

  // The frozen reference: the default batch implementation over the scalar
  // virtuals is the pre-batching execution.
  ScalarPathOnly frozen(&estimator);
  std::vector<double> reference(static_cast<size_t>(n));
  ASSERT_TRUE(frozen.EvaluateBatch(rows, n, reference.data()).ok());
  ExpectBitwiseEqual(batch, reference);
  std::vector<double> reference_selves(static_cast<size_t>(n));
  ASSERT_TRUE(frozen
                  .EvaluateExcludingSelvesBatch(rows, selves_rows, n,
                                                reference_selves.data())
                  .ok());
  ExpectBitwiseEqual(batch_selves, reference_selves);

  for (int workers : {1, 4}) {
    parallel::BatchExecutorOptions pool;
    pool.num_workers = workers;
    parallel::BatchExecutor executor(pool);
    std::vector<double> sharded(static_cast<size_t>(n));
    ASSERT_TRUE(
        estimator.EvaluateBatch(rows, n, sharded.data(), &executor).ok());
    ExpectBitwiseEqual(sharded, scalar);
    std::vector<double> sharded_excl(static_cast<size_t>(n));
    ASSERT_TRUE(estimator
                    .EvaluateExcludingBatch(rows, n, sharded_excl.data(),
                                            &executor)
                    .ok());
    ExpectBitwiseEqual(sharded_excl, scalar_excl);
    std::vector<double> sharded_selves(static_cast<size_t>(n));
    ASSERT_TRUE(estimator
                    .EvaluateExcludingSelvesBatch(rows, selves_rows, n,
                                                  sharded_selves.data(),
                                                  &executor)
                    .ok());
    ExpectBitwiseEqual(sharded_selves, scalar_selves);
    executor.Shutdown();
  }
}

class DensityBatchTest : public ::testing::TestWithParam<int> {};

TEST_P(DensityBatchTest, KdeIndexedMatchesScalarBitwise) {
  const int dim = GetParam();
  data::PointSet data = MakeData(dim, 4000, 11);
  data::PointSet queries = MakeQueries(data, 3000);
  KdeOptions opts;
  opts.num_kernels = 300;
  opts.seed = 3;
  opts.use_grid_index = true;
  auto kde = Kde::Fit(data, opts);
  ASSERT_TRUE(kde.ok());
  CheckEstimator(*kde, queries);
}

TEST_P(DensityBatchTest, KdeBruteMatchesScalarBitwise) {
  const int dim = GetParam();
  data::PointSet data = MakeData(dim, 4000, 12);
  data::PointSet queries = MakeQueries(data, 2000);
  KdeOptions opts;
  opts.num_kernels = 300;
  opts.seed = 3;
  opts.use_grid_index = false;
  auto kde = Kde::Fit(data, opts);
  ASSERT_TRUE(kde.ok());
  CheckEstimator(*kde, queries);
}

TEST_P(DensityBatchTest, GridDensityMatchesScalarBitwise) {
  const int dim = GetParam();
  data::PointSet data = MakeData(dim, 4000, 13);
  data::PointSet queries = MakeQueries(data, 2000);
  GridDensityOptions opts;
  opts.cells_per_dim = 32;
  auto grid = GridDensity::Fit(data, opts);
  ASSERT_TRUE(grid.ok());
  CheckEstimator(*grid, queries);

  // The exact histogram: a budget of 2^20 buckets holds all 16^d cells up
  // to d = 5, so every cell is addressed directly.
  GridDensityOptions hist_opts;
  hist_opts.cells_per_dim = 16;
  hist_opts.memory_budget_bytes = int64_t{8} << 20;
  auto hist = GridDensity::Fit(data, hist_opts);
  ASSERT_TRUE(hist.ok());
  ASSERT_FALSE(hist->hashed());
  CheckEstimator(*hist, queries);
}

INSTANTIATE_TEST_SUITE_P(Dims, DensityBatchTest, ::testing::Values(2, 3, 5));

TEST(DensityBatchEdgeTest, EmptyBatchSucceeds) {
  data::PointSet data = MakeData(2, 1000, 15);
  KdeOptions opts;
  opts.num_kernels = 100;
  auto kde = Kde::Fit(data, opts);
  ASSERT_TRUE(kde.ok());
  double unused = 0.0;
  EXPECT_TRUE(kde->EvaluateBatch(data.flat().data(), 0, &unused).ok());
  EXPECT_TRUE(
      kde->EvaluateExcludingBatch(data.flat().data(), 0, &unused).ok());
}

// Kde::BatchRangeIndexed groups a batch's rows by grid cell through an
// open-addressed table. With one row per cell the table holds as many
// cells as rows, the most its 2n or more slots ever hold, so lookups run
// into other cells' slots and must tell the cells apart.
TEST(DensityBatchEdgeTest, EveryRowInItsOwnCellMatchesScalar) {
  for (int dim : {2, 3}) {
    data::PointSet data = MakeData(dim, 4000, 18);
    // Epanechnikov support is 1, so a cell is one bandwidth wide; a query
    // at each cell center of a lattice over [0, 1]^dim is its cell's only
    // row.
    const int64_t per_dim = dim == 2 ? 50 : 10;
    const double extent = 1.0 / static_cast<double>(per_dim);
    KdeOptions opts;
    opts.num_kernels = 400;
    opts.seed = 5;
    opts.bandwidth_rule = BandwidthRule::kFixed;
    opts.fixed_bandwidth = extent;
    auto kde = Kde::Fit(data, opts);
    ASSERT_TRUE(kde.ok());
    int64_t cells = 1;
    for (int j = 0; j < dim; ++j) cells *= per_dim;
    data::PointSet queries(dim);
    std::vector<double> q(static_cast<size_t>(dim));
    for (int64_t c = 0; c < cells; ++c) {
      int64_t rest = c;
      for (int j = 0; j < dim; ++j) {
        q[j] = (static_cast<double>(rest % per_dim) + 0.5) * extent;
        rest /= per_dim;
      }
      queries.Append(data::PointView(q.data(), dim));
    }
    ASSERT_GE(queries.size(), 1000);
    CheckEstimator(*kde, queries);
  }
}

// The other extreme: thousands of rows in a handful of cells, each cell a
// large group, on 0, 1 and 4 workers (CheckEstimator). The rows are kernel
// centers and tiny perturbations of them, so leave-one-out drops terms.
TEST(DensityBatchEdgeTest, ManyRowsInFewCellsMatchScalar) {
  data::PointSet data = MakeData(2, 4000, 19);
  KdeOptions opts;
  opts.num_kernels = 300;
  opts.seed = 6;
  auto kde = Kde::Fit(data, opts);
  ASSERT_TRUE(kde.ok());
  data::PointSet queries(2);
  Rng rng(41);
  for (int64_t i = 0; i < 3000; ++i) {
    data::PointView anchor = kde->centers()[(i % 3) * 97];
    double q[2] = {anchor[0], anchor[1]};
    if (i >= 3) {
      q[0] += 1e-6 * (rng.NextDouble() - 0.5);
      q[1] += 1e-6 * (rng.NextDouble() - 0.5);
    }
    queries.Append(data::PointView(q, 2));
  }
  CheckEstimator(*kde, queries);
}

// Kde sums an Epanechnikov cell group eight rows at a time in row lanes
// (density/kernel_block.h), the last vector padded with the group's last
// row. Cells holding 7, 8, 9, 16 and 17 rows give a partial vector alone,
// one full vector, a full one and a one-row tail, two full ones, and two
// full ones and a tail. Each cell's rows are a kernel center and points
// between it and its cell's middle, interleaved across cells, and the
// center comes last, so leave-one-out drops terms in the padding row. The
// brute model sums the same rows as one range.
TEST(DensityBatchEdgeTest, CellsHoldingPartialAndFullLaneVectorsMatchScalar) {
  const int sizes[] = {7, 8, 9, 16, 17};
  constexpr int kCells = 5;
  for (int dim : {2, 3}) {
    SCOPED_TRACE(dim);
    data::PointSet data = MakeData(dim, 4000, 22);
    // With the fixed bandwidth h, a grid cell is h wide on every axis.
    const double h = 0.05;
    KdeOptions opts;
    opts.num_kernels = 300;
    opts.seed = 9;
    opts.bandwidth_rule = BandwidthRule::kFixed;
    opts.fixed_bandwidth = h;
    auto kde = Kde::Fit(data, opts);
    ASSERT_TRUE(kde.ok());
    auto cell_of = [&](const double* q) {
      std::vector<double> cell(static_cast<size_t>(dim));
      for (int j = 0; j < dim; ++j) cell[j] = std::floor(q[j] / h);
      return cell;
    };
    // Kernel centers in distinct cells.
    std::vector<int64_t> picked;
    std::vector<std::vector<double>> picked_cells;
    for (int64_t i = 0; i < kde->num_kernels() && picked.size() < kCells;
         ++i) {
      const std::vector<double> cell = cell_of(kde->centers()[i].data());
      bool seen = false;
      for (const auto& other : picked_cells) seen = seen || other == cell;
      if (seen) continue;
      picked.push_back(i);
      picked_cells.push_back(cell);
    }
    ASSERT_EQ(picked.size(), static_cast<size_t>(kCells));
    // Row r of cell g: the center moved r/64 of the way to its cell's
    // middle, which stays in the cell; the center itself is the last row.
    std::vector<std::vector<std::vector<double>>> groups(kCells);
    for (int g = 0; g < kCells; ++g) {
      const double* center = kde->centers()[picked[g]].data();
      for (int r = 1; r <= sizes[g]; ++r) {
        std::vector<double> q(center, center + dim);
        if (r < sizes[g]) {
          for (int j = 0; j < dim; ++j) {
            const double middle = (picked_cells[g][j] + 0.5) * h;
            q[j] += (middle - q[j]) * r / 64.0;
          }
        }
        ASSERT_EQ(cell_of(q.data()), picked_cells[g]);
        groups[g].push_back(q);
      }
    }
    data::PointSet queries(dim);
    for (int r = 0; r < 17; ++r) {
      for (int g = 0; g < kCells; ++g) {
        if (r < sizes[g]) queries.Append(groups[g][r]);
      }
    }
    ASSERT_EQ(queries.size(), 7 + 8 + 9 + 16 + 17);
    CheckEstimator(*kde, queries);

    KdeOptions brute_opts = opts;
    brute_opts.use_grid_index = false;
    auto brute = Kde::Fit(data, brute_opts);
    ASSERT_TRUE(brute.ok());
    CheckEstimator(*brute, queries);
  }
}

// A cell id is folded axis by axis, so the grid serves any dimensionality:
// at 17-D the default 64 cells per axis hash into the default budget.
TEST(DensityBatchEdgeTest, HashedGridBeyondSixteenDimsMatchesScalar) {
  data::PointSet data = MakeData(17, 2000, 20);
  data::PointSet queries = MakeQueries(data, 1000);
  auto grid = GridDensity::Fit(data, GridDensityOptions{});
  ASSERT_TRUE(grid.ok());
  ASSERT_TRUE(grid->hashed());
  CheckEstimator(*grid, queries);
}

TEST(DensityBatchEdgeTest, RoundTrippedKdeKeepsTheContract) {
  // FromState rebuilds the index and SoA layout from a serialized snapshot;
  // the batch contract must survive the round trip.
  data::PointSet data = MakeData(3, 3000, 16);
  data::PointSet queries = MakeQueries(data, 1500);
  KdeOptions opts;
  opts.num_kernels = 250;
  opts.seed = 8;
  auto kde = Kde::Fit(data, opts);
  ASSERT_TRUE(kde.ok());
  auto restored = Kde::FromState(kde->ExportState());
  ASSERT_TRUE(restored.ok());

  const int64_t n = queries.size();
  std::vector<double> original(static_cast<size_t>(n));
  std::vector<double> roundtrip(static_cast<size_t>(n));
  ASSERT_TRUE(
      kde->EvaluateBatch(queries.flat().data(), n, original.data()).ok());
  ASSERT_TRUE(restored
                  ->EvaluateBatch(queries.flat().data(), n, roundtrip.data())
                  .ok());
  ExpectBitwiseEqual(roundtrip, original);
  CheckEstimator(*restored, queries);
}

// The grid's bucket-sorted batch on the awkward inputs: queries far
// outside the fitted bounds (both paths clamp to edge cells) and cells that
// never saw a point (zero mass). Data is confined to [0, 0.25]^2 while the
// grids are fitted over explicit [0, 1]^2 bounds, so most cells are empty.
TEST(GridHistogramEdgeTest, OutOfBoundsAndZeroMassCellsMatchScalar) {
  data::BoundingBox bounds({0.0, 0.0}, {1.0, 1.0});
  data::PointSet data(2);
  Rng rng(55);
  for (int i = 0; i < 2000; ++i) {
    data.Append(std::vector<double>{0.25 * rng.NextDouble(),
                                    0.25 * rng.NextDouble()});
  }
  data::PointSet queries(2);
  // Out-of-bounds on every side, zero-mass interior cells, occupied cells.
  const double fixed[][2] = {{-3.0, 0.5}, {0.5, -3.0},  {7.0, 7.0},
                             {-1.0, 2.0}, {0.9, 0.9},   {0.6, 0.6},
                             {0.1, 0.1},  {0.2, 0.05},  {1.0, 1.0},
                             {0.0, 0.0},  {-0.0, -0.0}, {0.25, 0.25}};
  for (const auto& q : fixed) queries.Append(data::PointView(q, 2));
  for (int i = 0; i < 500; ++i) {
    queries.Append(std::vector<double>{3.0 * rng.NextDouble() - 1.0,
                                       3.0 * rng.NextDouble() - 1.0});
  }

  GridDensityOptions gopts;
  gopts.cells_per_dim = 8;
  gopts.bounds = bounds;
  auto grid = GridDensity::Fit(data, gopts);
  ASSERT_TRUE(grid.ok());
  ASSERT_FALSE(grid->hashed());
  CheckEstimator(*grid, queries);

  // Same grid squeezed into a tiny bucket budget: cells hash and collide —
  // the contract must hold for merged buckets too.
  GridDensityOptions hashed_opts = gopts;
  hashed_opts.memory_budget_bytes = 64;
  auto hashed = GridDensity::Fit(data, hashed_opts);
  ASSERT_TRUE(hashed.ok());
  ASSERT_TRUE(hashed->hashed());
  CheckEstimator(*hashed, queries);

  // Semantic spot checks on the exact (directly addressed) grid: a
  // zero-mass cell evaluates to exactly +0.0, and out-of-bounds queries
  // clamp onto edge cells — the top-right corner cell is empty while the
  // bottom-left one holds data.
  const double empty_cell[2] = {0.9, 0.9};
  const double far_out[2] = {7.0, 7.0};
  const double far_neg[2] = {-3.0, -3.0};
  const double occupied[2] = {0.1, 0.1};
  EXPECT_EQ(grid->Evaluate(data::PointView(empty_cell, 2)), 0.0);
  EXPECT_EQ(grid->Evaluate(data::PointView(far_out, 2)), 0.0);
  EXPECT_EQ(grid->Evaluate(data::PointView(far_neg, 2)),
            grid->Evaluate(data::PointView(occupied, 2)));
  EXPECT_GT(grid->Evaluate(data::PointView(occupied, 2)), 0.0);
}

TEST(DensityBatchEdgeTest, MeanDensityPowMatchesAcrossExecutors) {
  data::PointSet data = MakeData(2, 5000, 17);
  KdeOptions opts;
  opts.num_kernels = 400;
  opts.seed = 21;
  auto kde = Kde::Fit(data, opts);
  ASSERT_TRUE(kde.ok());
  for (double a : {1.0, 0.5, -0.5}) {
    const double sequential = kde->MeanDensityPow(a);
    parallel::BatchExecutorOptions pool;
    pool.num_workers = 4;
    parallel::BatchExecutor executor(pool);
    const double sharded = kde->MeanDensityPow(a, &executor);
    executor.Shutdown();
    EXPECT_EQ(std::memcmp(&sequential, &sharded, sizeof(double)), 0)
        << "a=" << a << ": " << sequential << " vs " << sharded;
  }
}

}  // namespace
}  // namespace dbs::density
