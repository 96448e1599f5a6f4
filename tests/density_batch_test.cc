// Contract tests for the batched density paths: EvaluateBatch /
// EvaluateExcludingBatch must be BITWISE identical to the per-point calls —
// batching, cell-sorted SoA tiles, and executor sharding are execution
// details, never semantic ones. Checked across both estimator backends
// (the KDE with its grid index on and off, the grid hashed and directly
// addressed), 0/1/4 workers, and against a frozen reference that forces
// every evaluation through the pre-batching scalar virtuals.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/bounds.h"
#include "data/point_set.h"
#include "density/grid_density.h"
#include "density/kde.h"
#include "density/kde_io.h"
#include "parallel/batch_executor.h"
#include "synth/generator.h"
#include "test_temp.h"
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
  // m * 9^d <= 2^20 builds the neighbor-tile table: dims 2 and 3 take
  // their tiles from it, dim 5 gathers them.
  EXPECT_EQ(kde->neighbor_tile_cells() > 0, dim <= 3);
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
  EXPECT_EQ(kde->neighbor_tile_cells(), 0);
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

// ---------------------------------------------------------------------------
// The neighbor-tile table (kde.cc). When m * 9^d <= 2^20, BuildIndex fills
// the tile GatherTile returns for every cell of the 3^d dilation of the
// center cells, and the batch path takes a cell group's tile in one probe;
// a cell outside the table has the empty tile. Above the budget every tile
// is gathered. Either way every output keeps the scalar path's bits.

// Checks EvaluateExcludingBatchCapped at `cap` against each row's scalar
// leave-one-out value: the same `<= cap` decision, and the scalar bits at
// or below the cap.
void ExpectCappedMatchesScalar(const Kde& kde, const data::PointSet& rows,
                               const std::vector<double>& scalar_loo,
                               double cap,
                               parallel::BatchExecutor* executor) {
  const int64_t n = rows.size();
  std::vector<double> capped(static_cast<size_t>(n));
  ASSERT_TRUE(kde.EvaluateExcludingBatchCapped(rows.flat().data(), n, cap,
                                               capped.data(), executor)
                  .ok());
  for (int64_t i = 0; i < n; ++i) {
    if (scalar_loo[i] <= cap) {
      ASSERT_EQ(std::memcmp(&capped[i], &scalar_loo[i], sizeof(double)), 0)
          << "row " << i << " cap " << cap << ": batch " << capped[i]
          << " vs scalar " << scalar_loo[i];
    } else {
      ASSERT_GT(capped[i], cap) << "row " << i << " scalar " << scalar_loo[i];
    }
  }
}

// Caps 0 and +inf, the median, largest and smallest positive leave-one-out
// values (so some rows sit exactly at the cap), on 0 and 2 workers; then
// each of the first rows alone, capped at its own exact value.
void CheckCaps(const Kde& kde, const data::PointSet& rows) {
  const int64_t n = rows.size();
  std::vector<double> scalar_loo(static_cast<size_t>(n));
  std::vector<double> positive;
  for (int64_t i = 0; i < n; ++i) {
    scalar_loo[i] = kde.EvaluateExcluding(rows[i], rows[i]);
    if (scalar_loo[i] > 0) positive.push_back(scalar_loo[i]);
  }
  ASSERT_FALSE(positive.empty());
  std::sort(positive.begin(), positive.end());
  const double caps[] = {0.0, std::numeric_limits<double>::infinity(),
                         positive[positive.size() / 2], positive.back(),
                         positive.front()};
  parallel::BatchExecutorOptions pool_options;
  pool_options.num_workers = 2;
  parallel::BatchExecutor pool(pool_options);
  parallel::BatchExecutor* const executors[] = {nullptr, &pool};
  for (parallel::BatchExecutor* executor : executors) {
    for (double cap : caps) {
      ExpectCappedMatchesScalar(kde, rows, scalar_loo, cap, executor);
    }
  }
  pool.Shutdown();
  for (int64_t i = 0; i < std::min<int64_t>(n, 64); ++i) {
    double capped = 0.0;
    ASSERT_TRUE(kde.EvaluateExcludingBatchCapped(rows[i].data(), 1,
                                                 scalar_loo[i], &capped)
                    .ok());
    ASSERT_EQ(std::memcmp(&capped, &scalar_loo[i], sizeof(double)), 0)
        << "row " << i;
  }
}

// 2-D and 3-D at m = 1000 take their tiles from the table, 4-D and 5-D
// gather them; both sides keep the full contract, capped sums included.
TEST(NeighborTileTableTest, ModelsOnEachSideOfTheBudgetMatchScalar) {
  for (int dim : {2, 3, 4, 5}) {
    SCOPED_TRACE(dim);
    data::PointSet data = MakeData(dim, 10000, 31);
    data::PointSet queries = MakeQueries(data, 2000);
    KdeOptions opts;
    opts.num_kernels = 1000;
    opts.seed = 12;
    auto kde = Kde::Fit(data, opts);
    ASSERT_TRUE(kde.ok());
    ASSERT_EQ(kde->num_kernels(), 1000);
    EXPECT_EQ(kde->neighbor_tile_cells() > 0, dim <= 3);
    CheckEstimator(*kde, queries);
    CheckCaps(*kde, queries);
  }
}

// A hand-built model on 0.1-wide cells (fixed bandwidth 0.1, Epanechnikov
// support 1): random centers in [0.3, 0.6]^dim plus one just inside each
// corner of that box. Rows sit at four points of every cell of [0, 1)^dim
// (just inside the low corner, on the low boundary, the middle and just
// inside the high corner), so they cover center cells, the dilation's
// outer ring, ring cells that touch a center cell only at a corner, and
// cells outside the dilation, whose tile is empty. Rows with a NaN or
// +-1e308 coordinate have no representable cell and take the brute sum.
TEST(NeighborTileTableTest, RowsAtTheEdgesOfTheDilationMatchScalar) {
  const double h = 0.1;
  for (int dim : {2, 3}) {
    SCOPED_TRACE(dim);
    Kde::State state;
    state.n = 5000;
    state.kernel = KernelType::kEpanechnikov;
    state.centers = data::PointSet(dim);
    Rng rng(60 + dim);
    std::vector<double> c(static_cast<size_t>(dim));
    for (int i = 0; i < 200; ++i) {
      for (int j = 0; j < dim; ++j) c[j] = 0.3 + 0.3 * rng.NextDouble();
      state.centers.Append(c);
    }
    for (int corner = 0; corner < (1 << dim); ++corner) {
      for (int j = 0; j < dim; ++j) c[j] = (corner >> j) & 1 ? 0.596 : 0.304;
      state.centers.Append(c);
    }
    state.bandwidths.assign(static_cast<size_t>(dim), h);
    state.bounds = data::BoundingBox(std::vector<double>(dim, 0.3),
                                     std::vector<double>(dim, 0.6));
    auto kde = Kde::FromState(std::move(state));
    ASSERT_TRUE(kde.ok());

    // The center cells and their dilation, each cell computed as the model
    // computes it (cell extent = support 1 x h).
    auto cell_of = [&](const double* p) {
      std::vector<int64_t> cell(static_cast<size_t>(dim));
      for (int j = 0; j < dim; ++j) {
        cell[j] = static_cast<int64_t>(std::floor(p[j] / h));
      }
      return cell;
    };
    std::set<std::vector<int64_t>> center_cells;
    for (int64_t i = 0; i < kde->num_kernels(); ++i) {
      center_cells.insert(cell_of(kde->centers()[i].data()));
    }
    int block = 1;
    for (int j = 0; j < dim; ++j) block *= 3;
    std::set<std::vector<int64_t>> dilation;
    for (const std::vector<int64_t>& cell : center_cells) {
      for (int o = 0; o < block; ++o) {
        std::vector<int64_t> near = cell;
        for (int j = 0, rest = o; j < dim; ++j, rest /= 3) {
          near[j] += rest % 3 - 1;
        }
        dilation.insert(near);
      }
    }
    EXPECT_EQ(kde->neighbor_tile_cells(),
              static_cast<int64_t>(dilation.size()));

    data::PointSet rows(dim);
    int64_t cells = 1;
    for (int j = 0; j < dim; ++j) cells *= 10;
    const double at[] = {0.02, 0.0, 0.5, 0.98};  // fractions of a cell
    std::vector<double> q(static_cast<size_t>(dim));
    for (int64_t cell = 0; cell < cells; ++cell) {
      for (double frac : at) {
        int64_t rest = cell;
        for (int j = 0; j < dim; ++j, rest /= 10) {
          q[j] = (static_cast<double>(rest % 10) + frac) * h;
        }
        rows.Append(q);
      }
    }
    const double nan = std::nan("");
    for (double bad : {nan, 1e308, -1e308}) {
      for (int j = 0; j < dim; ++j) {
        std::fill(q.begin(), q.end(), 0.45);
        q[j] = bad;
        rows.Append(q);
      }
    }

    // The rows reach every kind of cell.
    int64_t ring_corner_only_nonzero = 0;
    int64_t outside = 0;
    for (int64_t i = 0; i < rows.size(); ++i) {
      bool representable = true;
      for (int j = 0; j < dim; ++j) {
        representable = representable && std::abs(rows[i][j]) < 1e300;
      }
      if (!representable) continue;
      const std::vector<int64_t> cell = cell_of(rows[i].data());
      if (dilation.count(cell) == 0) {
        ++outside;
        continue;
      }
      if (center_cells.count(cell) != 0) continue;
      bool corner_only = true;
      for (const std::vector<int64_t>& center : center_cells) {
        bool near = true;
        bool shares_axis = false;
        for (int j = 0; j < dim; ++j) {
          near = near && std::abs(center[j] - cell[j]) <= 1;
          shares_axis = shares_axis || center[j] == cell[j];
        }
        if (near && shares_axis) corner_only = false;
      }
      if (corner_only && kde->Evaluate(rows[i]) > 0) {
        ++ring_corner_only_nonzero;
      }
    }
    EXPECT_GT(ring_corner_only_nonzero, 0);
    EXPECT_GT(outside, 0);

    CheckEstimator(*kde, rows);
    CheckCaps(*kde, rows);
  }
}

// A row outside the dilation has the empty tile even where rounding puts a
// center two cells away on the closed edge of its support. The uniform
// kernel's support includes |u| = 1; with h = 0.5, a center at -1e-300
// (cell -1) and a row at 0.5 (cell 1), 0.5 - (-1e-300) rounds to 0.5 and
// u = 1. The scalar path visits only the row's 3^d block, which holds no
// center, so the batch path must give the row +0.0, not the tile of a cell
// next to it that holds the center.
TEST(NeighborTileTableTest, RowOutsideTheDilationTakesTheEmptyTile) {
  Kde::State state;
  state.n = 2;
  state.kernel = KernelType::kUniform;
  state.centers = data::PointSet(2, {-1e-300, 0.25, 3.0, 3.0});
  state.bandwidths = {0.5, 0.5};
  state.bounds = data::BoundingBox({-1e-300, 0.25}, {3.0, 3.0});
  auto kde = Kde::FromState(std::move(state));
  ASSERT_TRUE(kde.ok());
  ASSERT_GT(kde->neighbor_tile_cells(), 0);
  ASSERT_GT(KernelValue(KernelType::kUniform, (0.5 - -1e-300) * (1.0 / 0.5)),
            0.0);
  data::PointSet rows(2, {0.5, 0.25, 0.5, 0.3, 0.75, 0.25, -0.25, 0.25,
                          0.0, 0.25, 2.9, 3.1});
  for (int64_t i = 0; i < 2; ++i) EXPECT_EQ(kde->Evaluate(rows[i]), 0.0);
  CheckEstimator(*kde, rows);
  CheckCaps(*kde, rows);
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

// The table is built with the index and never serialized: a copied, moved,
// round-tripped or reloaded model evaluates to the same bits, and a model
// saved with a table writes the bytes of one built without any index.
TEST(NeighborTileTableTest, CopiedMovedAndReloadedModelsKeepTheirBits) {
  data::PointSet data = MakeData(3, 10000, 33);
  data::PointSet queries = MakeQueries(data, 2000);
  KdeOptions opts;
  opts.num_kernels = 1000;
  opts.seed = 14;
  auto fitted = Kde::Fit(data, opts);
  ASSERT_TRUE(fitted.ok());
  const Kde& kde = *fitted;
  ASSERT_GT(kde.neighbor_tile_cells(), 0);
  const int64_t n = queries.size();
  auto evaluate = [&](const Kde& model) {
    std::vector<double> out(static_cast<size_t>(2 * n));
    EXPECT_TRUE(model.EvaluateBatch(queries.flat().data(), n, out.data()).ok());
    EXPECT_TRUE(model
                    .EvaluateExcludingBatch(queries.flat().data(), n,
                                            out.data() + n)
                    .ok());
    return out;
  };
  const std::vector<double> want = evaluate(kde);

  Kde copy = kde;
  Kde source = kde;
  Kde moved = std::move(source);
  auto restored = Kde::FromState(kde.ExportState());
  ASSERT_TRUE(restored.ok());
  const std::string path = test::TempPath("tile_table.dbsk");
  ASSERT_TRUE(SaveKde(kde, path).ok());
  auto loaded = LoadKde(path);
  ASSERT_TRUE(loaded.ok());
  const Kde* const models[] = {&copy, &moved, &*restored, &*loaded};
  for (const Kde* model : models) {
    EXPECT_EQ(model->neighbor_tile_cells(), kde.neighbor_tile_cells());
    ExpectBitwiseEqual(evaluate(*model), want);
  }

  auto unindexed = Kde::FromState(kde.ExportState(), /*rebuild_index=*/false);
  ASSERT_TRUE(unindexed.ok());
  EXPECT_EQ(unindexed->neighbor_tile_cells(), 0);
  const std::string bare = test::TempPath("no_index.dbsk");
  const std::string again = test::TempPath("reloaded.dbsk");
  ASSERT_TRUE(SaveKde(*unindexed, bare).ok());
  ASSERT_TRUE(SaveKde(*loaded, again).ok());
  const std::string bytes = ReadBytes(path);
  ASSERT_FALSE(bytes.empty());
  EXPECT_EQ(ReadBytes(bare), bytes);
  EXPECT_EQ(ReadBytes(again), bytes);
}

}  // namespace
}  // namespace dbs::density
