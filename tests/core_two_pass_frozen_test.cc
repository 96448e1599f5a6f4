// Frozen two-pass reference: pins the bytes of BiasedSampler::Run and
// ShardCoordinator::SampleTwoPass against the paper's Figure-1 algorithm
// written out per point, and pins which rows the sampling pass evaluates.
//
// The reference below is the sampler as it was before the sampling pass
// learned to skip rows: a per-shard sequential sum of max(f, floor)^a,
// the shard sums added in ascending shard order, then one NextBernoulli
// draw per row from each shard's ShardSeed stream with p clamped at 1.
// Every production path — in-memory or file scans at any batch size,
// sharded or not, with or without workers — must reproduce it bit for
// bit: points, inclusion probabilities, densities, normalizer and
// clamped_count. The FNV-1a goldens pin three of the configurations across
// versions, so the reference itself cannot drift either.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/biased_sampler.h"
#include "data/dataset.h"
#include "data/dataset_io.h"
#include "density/kde.h"
#include "parallel/batch_executor.h"
#include "shard/coordinator.h"
#include "synth/generator.h"
#include "test_temp.h"
#include "util/math.h"
#include "util/rng.h"
#include "util/shard.h"

namespace dbs::core {
namespace {

using data::PointSet;

// The frozen two-pass algorithm, one Evaluate call per row and one draw
// decision per row.
BiasedSample FrozenTwoPass(const PointSet& points,
                           const density::DensityEstimator& estimator,
                           const BiasedSamplerOptions& options,
                           int64_t num_shards) {
  const int64_t n = points.size();
  const double floor =
      options.density_floor_fraction * estimator.AverageDensity();
  auto floored_pow = [&](double f) {
    return SafePow(std::max(f, floor), options.a);
  };

  double k_a = 0.0;
  for (int64_t s = 0; s < num_shards; ++s) {
    const RowRange range = ShardRowRange(n, num_shards, s);
    double shard_sum = 0.0;
    for (int64_t i = range.begin; i < range.end; ++i) {
      shard_sum += floored_pow(estimator.Evaluate(points[i]));
    }
    k_a += shard_sum;
  }

  BiasedSample sample;
  sample.points = PointSet(points.dim());
  sample.normalizer = k_a;
  sample.dataset_size = n;
  const double b = static_cast<double>(options.target_size);
  for (int64_t s = 0; s < num_shards; ++s) {
    const RowRange range = ShardRowRange(n, num_shards, s);
    Rng rng(ShardSeed(options.seed, s));
    for (int64_t i = range.begin; i < range.end; ++i) {
      const double f = estimator.Evaluate(points[i]);
      double p = b / k_a * floored_pow(f);
      if (p >= 1.0) {
        p = 1.0;
        ++sample.clamped_count;
      }
      if (rng.NextBernoulli(p)) {
        sample.points.Append(points[i]);
        sample.inclusion_probs.push_back(p);
        sample.densities.push_back(f);
      }
    }
  }
  return sample;
}

bool SameDoubles(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

uint64_t Bits(double x) {
  uint64_t u = 0;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

uint64_t Fnv1a(const std::vector<double>& values) {
  uint64_t h = 1469598103934665603ULL;
  const auto* bytes = reinterpret_cast<const unsigned char*>(values.data());
  for (size_t i = 0; i < values.size() * sizeof(double); ++i) {
    h ^= bytes[i];
    h *= 1099511628211ULL;
  }
  return h;
}

void ExpectSameSample(const BiasedSample& got, const BiasedSample& want,
                      const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(got.size(), want.size());
  EXPECT_TRUE(SameDoubles(got.points.flat(), want.points.flat()));
  EXPECT_TRUE(SameDoubles(got.inclusion_probs, want.inclusion_probs));
  EXPECT_TRUE(SameDoubles(got.densities, want.densities));
  EXPECT_EQ(Bits(got.normalizer), Bits(want.normalizer));
  EXPECT_EQ(got.dataset_size, want.dataset_size);
  EXPECT_EQ(got.clamped_count, want.clamped_count);
}

// Clustered 2-D data under heavy uniform noise, with a sharp KDE: many noise
// rows fall outside every kernel's support, so their density is exactly 0.
struct Fixture {
  PointSet points{2};
  std::unique_ptr<density::Kde> kde;
};

Fixture MakeFixture(int64_t cluster_points) {
  synth::ClusteredDatasetOptions data_opts;
  data_opts.num_clusters = 6;
  data_opts.num_cluster_points = cluster_points;
  data_opts.noise_multiplier = 0.5;
  data_opts.shuffle = true;
  data_opts.seed = 41;
  auto ds = synth::MakeClusteredDataset(data_opts);
  DBS_CHECK(ds.ok());
  Fixture fixture;
  fixture.points = std::move(ds->points);
  density::KdeOptions kde_opts;
  kde_opts.num_kernels = 200;
  kde_opts.bandwidth_scale = 0.3;
  kde_opts.seed = 43;
  auto kde = density::Kde::Fit(fixture.points, kde_opts);
  DBS_CHECK(kde.ok());
  fixture.kde = std::make_unique<density::Kde>(std::move(kde).value());
  return fixture;
}

int64_t ZeroDensityRows(const Fixture& fixture) {
  int64_t zeros = 0;
  for (int64_t i = 0; i < fixture.points.size(); ++i) {
    if (fixture.kde->Evaluate(fixture.points[i]) == 0.0) ++zeros;
  }
  return zeros;
}

// The dense-blob workload of BiasedSamplerTest.ClampingIsReported: 200
// points, 500 kernels, b = 500, so most rows clamp at p = 1.
Fixture MakeClampingFixture() {
  Rng rng(13);
  Fixture fixture;
  for (int64_t i = 0; i < 200; ++i) {
    fixture.points.Append(std::vector<double>{rng.NextGaussian(0.2, 0.015),
                                              rng.NextGaussian(0.2, 0.015)});
  }
  density::KdeOptions kde_opts;
  kde_opts.num_kernels = 500;
  kde_opts.seed = 1;
  auto kde = density::Kde::Fit(fixture.points, kde_opts);
  DBS_CHECK(kde.ok());
  fixture.kde = std::make_unique<density::Kde>(std::move(kde).value());
  return fixture;
}

BiasedSamplerOptions ClampingOptions() {
  BiasedSamplerOptions opts;
  opts.a = 1.0;
  opts.target_size = 500;
  return opts;
}

shard::ShardCoordinator MakeCoordinator(const PointSet* points,
                                        int64_t shards,
                                        parallel::BatchExecutor* executor) {
  shard::ShardCoordinatorOptions opts;
  opts.shards = shards;
  opts.executor = executor;
  return shard::ShardCoordinator(
      [points]() -> Result<std::unique_ptr<data::DataScan>> {
        return std::unique_ptr<data::DataScan>(
            std::make_unique<data::InMemoryScan>(points));
      },
      opts);
}

// (a, density_floor_fraction, expected sample size as a fraction of n).
// A target of 0.01·n stays below p = 1 wherever the floor bounds f';
// 1.0·n clamps.
using FrozenCase = std::tuple<double, double, double>;

class TwoPassFrozenTest : public ::testing::TestWithParam<FrozenCase> {};

TEST_P(TwoPassFrozenTest, EveryPathMatchesTheFrozenReference) {
  const auto [a, floor_fraction, target_fraction] = GetParam();
  Fixture fixture = MakeFixture(4000);
  const PointSet& points = fixture.points;
  const int64_t n = points.size();
  if (floor_fraction == 0.0) {
    // The floor-0 cases exist to cover rows whose f' is exactly 0.
    ASSERT_GT(ZeroDensityRows(fixture), 0);
  }
  BiasedSamplerOptions opts;
  opts.a = a;
  opts.density_floor_fraction = floor_fraction;
  opts.target_size =
      static_cast<int64_t>(target_fraction * static_cast<double>(n));
  opts.seed = 59;
  const BiasedSample reference = FrozenTwoPass(points, *fixture.kde, opts, 1);
  if (target_fraction >= 1.0) {
    EXPECT_GT(reference.clamped_count, 0);
  }

  const BiasedSampler sampler(opts);
  auto in_memory = sampler.Run(points, *fixture.kde);
  ASSERT_TRUE(in_memory.ok()) << in_memory.status().ToString();
  ExpectSameSample(*in_memory, reference, "Run over InMemoryScan");

  const std::string path = test::TempPath("frozen_two_pass.dbsf");
  ASSERT_TRUE(data::WriteDatasetFile(path, points).ok());
  for (int64_t batch_rows : {1LL, 333LL, 8192LL}) {
    auto scan = data::FileScan::Open(path, batch_rows);
    ASSERT_TRUE(scan.ok());
    auto from_file = sampler.Run(**scan, *fixture.kde);
    ASSERT_TRUE(from_file.ok()) << from_file.status().ToString();
    ExpectSameSample(*from_file, reference,
                     "Run over FileScan batch_rows=" +
                         std::to_string(batch_rows));
  }

  parallel::BatchExecutorOptions pool;
  pool.num_workers = 4;
  parallel::BatchExecutor executor(pool);
  BiasedSamplerOptions pooled = opts;
  pooled.executor = &executor;
  auto with_workers = BiasedSampler(pooled).Run(points, *fixture.kde);
  ASSERT_TRUE(with_workers.ok()) << with_workers.status().ToString();
  ExpectSameSample(*with_workers, reference, "Run with 4 workers");

  for (int64_t shards : {1LL, 3LL}) {
    const BiasedSample sharded_reference =
        shards == 1 ? reference
                    : FrozenTwoPass(points, *fixture.kde, opts, shards);
    for (parallel::BatchExecutor* workers :
         {static_cast<parallel::BatchExecutor*>(nullptr), &executor}) {
      auto sharded = MakeCoordinator(&points, shards, workers)
                         .SampleTwoPass(*fixture.kde, opts);
      ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
      ExpectSameSample(*sharded, sharded_reference,
                       "SampleTwoPass shards=" + std::to_string(shards) +
                           (workers != nullptr ? " workers=4" : " workers=0"));
    }
  }
  executor.Shutdown();
}

std::string FrozenCaseName(const ::testing::TestParamInfo<FrozenCase>& param) {
  const auto [a, floor_fraction, target_fraction] = param.param;
  // Appended piece by piece: gcc 12 at -O3 reports a false -Wrestrict
  // inside libstdc++ for `"a" + std::to_string(...)`.
  std::string name = "a";
  name += std::to_string(static_cast<int>(a * 100));
  name += floor_fraction == 0.0 ? "_floor0" : "_floor";
  name += target_fraction >= 1.0 ? "_clamp" : "_b1pct";
  std::replace(name.begin(), name.end(), '-', 'm');
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    ExponentsFloorsTargets, TwoPassFrozenTest,
    ::testing::Combine(::testing::Values(1.0, 0.5, 0.0, -0.25, -1.0),
                       ::testing::Values(1e-3, 0.0),
                       ::testing::Values(0.01, 1.0)),
    FrozenCaseName);

TEST(TwoPassClampingTest, MatchesTheFrozenReference) {
  Fixture fixture = MakeClampingFixture();
  const BiasedSample reference =
      FrozenTwoPass(fixture.points, *fixture.kde, ClampingOptions(), 1);
  EXPECT_GT(reference.clamped_count, 0);
  auto sample = BiasedSampler(ClampingOptions()).Run(fixture.points,
                                                     *fixture.kde);
  ASSERT_TRUE(sample.ok()) << sample.status().ToString();
  ExpectSameSample(*sample, reference, "ClampingIsReported configuration");
  for (int64_t shards : {1LL, 3LL}) {
    auto sharded = MakeCoordinator(&fixture.points, shards, nullptr)
                       .SampleTwoPass(*fixture.kde, ClampingOptions());
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
    ExpectSameSample(
        *sharded,
        FrozenTwoPass(fixture.points, *fixture.kde, ClampingOptions(), shards),
        "SampleTwoPass shards=" + std::to_string(shards));
  }
}

// ---------------------------------------------------------------------------
// Goldens: printed by the sampler before the sampling pass skipped rows.

struct Golden {
  int64_t size;
  int64_t clamped;
  uint64_t normalizer_bits;
  uint64_t points_hash;
  uint64_t probs_hash;
  uint64_t densities_hash;
};

void ExpectMatchesGolden(const BiasedSample& sample, const Golden& golden) {
  EXPECT_EQ(sample.size(), golden.size);
  EXPECT_EQ(sample.clamped_count, golden.clamped);
  EXPECT_EQ(Bits(sample.normalizer), golden.normalizer_bits);
  EXPECT_EQ(Fnv1a(sample.points.flat()), golden.points_hash);
  EXPECT_EQ(Fnv1a(sample.inclusion_probs), golden.probs_hash);
  EXPECT_EQ(Fnv1a(sample.densities), golden.densities_hash);
}

TEST(TwoPassGoldenTest, DenseExponentWithFloor) {
  Fixture fixture = MakeFixture(4000);
  BiasedSamplerOptions opts;
  opts.a = 1.0;
  opts.target_size = 60;
  opts.seed = 61;
  auto sample = BiasedSampler(opts).Run(fixture.points, *fixture.kde);
  ASSERT_TRUE(sample.ok());
  ExpectMatchesGolden(*sample, {50, 0, 0x4198d4ccea670c6aULL,
                                0x38bd3da01623351aULL, 0x6a58ec3059c8cdf5ULL,
                                0xbe453507a6f043e9ULL});
}

TEST(TwoPassGoldenTest, SparseExponentWithZeroDensityRows) {
  Fixture fixture = MakeFixture(4000);
  BiasedSamplerOptions opts;
  opts.a = -0.25;
  opts.density_floor_fraction = 0.0;
  opts.target_size = 60;
  opts.seed = 67;
  auto sample = BiasedSampler(opts).Run(fixture.points, *fixture.kde);
  ASSERT_TRUE(sample.ok());
  ExpectMatchesGolden(*sample, {66, 0, 0x408253afbb6c6d3eULL,
                                0x23e29c96407f59abULL, 0x27889862dba7b405ULL,
                                0xa31b50571e5a8ffdULL});
}

TEST(TwoPassGoldenTest, ClampingConfiguration) {
  Fixture fixture = MakeClampingFixture();
  auto sample =
      BiasedSampler(ClampingOptions()).Run(fixture.points, *fixture.kde);
  ASSERT_TRUE(sample.ok());
  ExpectMatchesGolden(*sample, {189, 169, 0x416e633b7c731e4fULL,
                                0x8e7ec6e25323bfb6ULL, 0xdcee62889017811fULL,
                                0xf312b4275f2c9239ULL});
}

// ---------------------------------------------------------------------------
// Which rows the sampling pass evaluates. When the normalizer pass's
// extremes bound every p strictly inside (0, 1), the pass draws first and
// evaluates only rows whose draw can still accept; otherwise it evaluates
// every row again.

// Counts the rows handed to EvaluateBatch and forwards them to the wrapped
// estimator's own batch path.
class CountingEstimator final : public density::DensityEstimator {
 public:
  explicit CountingEstimator(const density::DensityEstimator* inner)
      : inner_(inner) {}
  int dim() const override { return inner_->dim(); }
  double Evaluate(data::PointView p) const override {
    return inner_->Evaluate(p);
  }
  [[nodiscard]] Status EvaluateBatch(
      const double* rows, int64_t count, double* out,
      parallel::BatchExecutor* executor = nullptr) const override {
    rows_evaluated_ += count;
    return inner_->EvaluateBatch(rows, count, out, executor);
  }
  int64_t total_mass() const override { return inner_->total_mass(); }
  double AverageDensity() const override { return inner_->AverageDensity(); }

  int64_t rows_evaluated() const { return rows_evaluated_.load(); }

 private:
  const density::DensityEstimator* inner_;
  mutable std::atomic<int64_t> rows_evaluated_{0};
};

TEST(TwoPassEvaluatedRowsTest, SmallTargetSkipsMostOfTheSamplingPass) {
  synth::ClusteredDatasetOptions data_opts;
  data_opts.num_clusters = 10;
  data_opts.num_cluster_points = 20000;
  data_opts.noise_multiplier = 0.1;
  data_opts.seed = 71;
  auto ds = synth::MakeClusteredDataset(data_opts);
  ASSERT_TRUE(ds.ok());
  const PointSet& points = ds->points;
  const int64_t n = points.size();
  ASSERT_GE(n, 20000);
  density::KdeOptions kde_opts;
  kde_opts.num_kernels = 500;
  kde_opts.seed = 73;
  auto kde = density::Kde::Fit(points, kde_opts);
  ASSERT_TRUE(kde.ok());
  BiasedSamplerOptions opts;
  opts.a = 1.0;
  opts.target_size = n / 100;
  opts.seed = 79;
  // The bound: pass 1 evaluates n rows, pass 2 fewer than n / 4.
  const int64_t bound = n + n / 4;

  CountingEstimator direct(&*kde);
  auto sample = BiasedSampler(opts).Run(points, direct);
  ASSERT_TRUE(sample.ok()) << sample.status().ToString();
  EXPECT_EQ(sample->clamped_count, 0);
  EXPECT_LT(direct.rows_evaluated(), bound);
  ExpectSameSample(*sample, FrozenTwoPass(points, *kde, opts, 1), "Run");

  CountingEstimator sharded(&*kde);
  auto sharded_sample =
      MakeCoordinator(&points, 3, nullptr).SampleTwoPass(sharded, opts);
  ASSERT_TRUE(sharded_sample.ok()) << sharded_sample.status().ToString();
  EXPECT_LT(sharded.rows_evaluated(), bound);
  ExpectSameSample(*sharded_sample, FrozenTwoPass(points, *kde, opts, 3),
                   "SampleTwoPass shards=3");
}

TEST(TwoPassEvaluatedRowsTest, ClampingTargetEvaluatesEveryRowTwice) {
  Fixture fixture = MakeClampingFixture();
  CountingEstimator counting(fixture.kde.get());
  auto sample = BiasedSampler(ClampingOptions()).Run(fixture.points, counting);
  ASSERT_TRUE(sample.ok()) << sample.status().ToString();
  EXPECT_GT(sample->clamped_count, 0);
  EXPECT_EQ(counting.rows_evaluated(), 2 * fixture.points.size());
}

TEST(TwoPassEvaluatedRowsTest, ZeroDensityRowsEvaluateEveryRowTwice) {
  Fixture fixture = MakeFixture(4000);
  ASSERT_GT(ZeroDensityRows(fixture), 0);
  BiasedSamplerOptions opts;
  opts.a = 1.0;
  opts.density_floor_fraction = 0.0;
  opts.target_size = 60;
  CountingEstimator counting(fixture.kde.get());
  auto sample = BiasedSampler(opts).Run(fixture.points, counting);
  ASSERT_TRUE(sample.ok()) << sample.status().ToString();
  EXPECT_EQ(sample->clamped_count, 0);
  EXPECT_EQ(counting.rows_evaluated(), 2 * fixture.points.size());
}

}  // namespace
}  // namespace dbs::core
