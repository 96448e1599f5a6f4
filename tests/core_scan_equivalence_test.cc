// Contract tests: every sampler must produce IDENTICAL output whether the
// dataset is scanned from memory or streamed from a .dbsf file — the
// out-of-core path is the same algorithm, not an approximation of it.
// The same contract covers HOW densities are computed: batched (optionally
// sharded across a worker pool) evaluation must leave the sample
// byte-identical to the pre-batching per-point pipeline.

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "core/biased_sampler.h"
#include "core/streaming_sampler.h"
#include "data/dataset_io.h"
#include "density/kde.h"
#include "parallel/batch_executor.h"
#include "sampling/uniform_sampler.h"
#include "synth/generator.h"
#include "test_temp.h"

namespace dbs::core {
namespace {

synth::ClusteredDataset MakeData(uint64_t seed) {
  synth::ClusteredDatasetOptions opts;
  opts.num_clusters = 6;
  opts.num_cluster_points = 15000;
  opts.noise_multiplier = 0.2;
  opts.shuffle = true;
  opts.seed = seed;
  auto ds = synth::MakeClusteredDataset(opts);
  DBS_CHECK(ds.ok());
  return std::move(ds).value();
}

std::string StageFile(const data::PointSet& points, const char* name) {
  std::string path = test::TempPath(name);
  DBS_CHECK(data::WriteDatasetFile(path, points).ok());
  return path;
}

void ExpectIdentical(const BiasedSample& a, const BiasedSample& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.inclusion_probs, b.inclusion_probs);
  EXPECT_EQ(a.densities, b.densities);
  EXPECT_EQ(a.points.flat(), b.points.flat());
  EXPECT_DOUBLE_EQ(a.normalizer, b.normalizer);
  EXPECT_EQ(a.clamped_count, b.clamped_count);
}

// Forwards the scalar virtuals to a wrapped estimator but inherits the
// DEFAULT batch implementations — the per-point execution the sampler used
// before density evaluation was batched. Samples drawn through this wrapper
// ARE the pre-batching output.
class ScalarPathOnly final : public density::DensityEstimator {
 public:
  explicit ScalarPathOnly(const density::DensityEstimator* inner)
      : inner_(inner) {}
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
  const density::DensityEstimator* inner_;
};

TEST(ScanEquivalenceTest, KdeFitMatchesAcrossScanKinds) {
  synth::ClusteredDataset ds = MakeData(1);
  std::string path = StageFile(ds.points, "kde_eq.dbsf");
  density::KdeOptions opts;
  opts.num_kernels = 200;
  opts.seed = 5;
  auto mem = density::Kde::Fit(ds.points, opts);
  ASSERT_TRUE(mem.ok());
  auto file_scan = data::FileScan::Open(path, /*batch_rows=*/777);
  ASSERT_TRUE(file_scan.ok());
  auto file = density::Kde::Fit(**file_scan, opts);
  ASSERT_TRUE(file.ok());
  EXPECT_EQ(mem->bandwidths(), file->bandwidths());
  EXPECT_EQ(mem->centers().flat(), file->centers().flat());
  std::remove(path.c_str());
}

TEST(ScanEquivalenceTest, TwoPassSamplerMatchesAcrossScanKinds) {
  synth::ClusteredDataset ds = MakeData(2);
  std::string path = StageFile(ds.points, "twopass_eq.dbsf");
  density::KdeOptions kde_opts;
  kde_opts.num_kernels = 200;
  auto kde = density::Kde::Fit(ds.points, kde_opts);
  ASSERT_TRUE(kde.ok());
  BiasedSamplerOptions opts;
  opts.a = 1.0;
  opts.target_size = 500;
  opts.seed = 7;
  BiasedSampler sampler(opts);
  auto mem = sampler.Run(ds.points, *kde);
  ASSERT_TRUE(mem.ok());
  auto file_scan = data::FileScan::Open(path, /*batch_rows=*/333);
  ASSERT_TRUE(file_scan.ok());
  auto file = sampler.Run(**file_scan, *kde);
  ASSERT_TRUE(file.ok());
  ExpectIdentical(*mem, *file);
  std::remove(path.c_str());
}

TEST(ScanEquivalenceTest, StreamingSamplerMatchesAcrossScanKinds) {
  synth::ClusteredDataset ds = MakeData(3);
  std::string path = StageFile(ds.points, "stream_eq.dbsf");
  StreamingSamplerOptions opts;
  opts.a = 1.0;
  opts.target_size = 400;
  opts.num_kernels = 200;
  opts.seed = 9;
  auto mem = StreamingBiasedSample(ds.points, opts);
  ASSERT_TRUE(mem.ok());
  auto file_scan = data::FileScan::Open(path, /*batch_rows=*/1000);
  ASSERT_TRUE(file_scan.ok());
  auto file = StreamingBiasedSample(**file_scan, opts);
  ASSERT_TRUE(file.ok());
  ExpectIdentical(*mem, *file);
  std::remove(path.c_str());
}

TEST(ScanEquivalenceTest, UniformSamplerMatchesAcrossScanKinds) {
  synth::ClusteredDataset ds = MakeData(4);
  std::string path = StageFile(ds.points, "uniform_eq.dbsf");
  sampling::BernoulliSampleOptions opts;
  opts.target_size = 600;
  opts.seed = 11;
  auto mem = sampling::BernoulliSample(ds.points, opts);
  ASSERT_TRUE(mem.ok());
  auto file_scan = data::FileScan::Open(path, /*batch_rows=*/123);
  ASSERT_TRUE(file_scan.ok());
  auto file = sampling::BernoulliSample(**file_scan, opts);
  ASSERT_TRUE(file.ok());
  ASSERT_EQ(mem->size(), file->size());
  EXPECT_EQ(mem->flat(), file->flat());
  std::remove(path.c_str());
}

TEST(ScanEquivalenceTest, TwoPassSamplerMatchesPreBatchingPipeline) {
  // Byte-identical samples whether densities come from the KDE's tuned
  // batch path, the frozen pre-batching per-point path, or a batch path
  // sharded across a worker pool — for a fixed seed they are all the same
  // sample.
  synth::ClusteredDataset ds = MakeData(6);
  density::KdeOptions kde_opts;
  kde_opts.num_kernels = 200;
  auto kde = density::Kde::Fit(ds.points, kde_opts);
  ASSERT_TRUE(kde.ok());
  ScalarPathOnly frozen(&*kde);
  BiasedSamplerOptions opts;
  opts.a = 0.5;
  opts.target_size = 500;
  opts.seed = 17;
  auto batched = BiasedSampler(opts).Run(ds.points, *kde);
  ASSERT_TRUE(batched.ok());
  auto reference = BiasedSampler(opts).Run(ds.points, frozen);
  ASSERT_TRUE(reference.ok());
  ExpectIdentical(*reference, *batched);

  parallel::BatchExecutorOptions pool;
  pool.num_workers = 4;
  parallel::BatchExecutor executor(pool);
  opts.executor = &executor;
  auto sharded = BiasedSampler(opts).Run(ds.points, *kde);
  ASSERT_TRUE(sharded.ok());
  ExpectIdentical(*reference, *sharded);
  executor.Shutdown();
}

TEST(ScanEquivalenceTest, OnePassSamplerMatchesAcrossExecutors) {
  synth::ClusteredDataset ds = MakeData(7);
  density::KdeOptions kde_opts;
  kde_opts.num_kernels = 200;
  auto kde = density::Kde::Fit(ds.points, kde_opts);
  ASSERT_TRUE(kde.ok());
  BiasedSamplerOptions opts;
  opts.a = 1.0;
  opts.target_size = 400;
  opts.seed = 19;
  auto sequential = BiasedSampler(opts).RunOnePass(ds.points, *kde);
  ASSERT_TRUE(sequential.ok());

  parallel::BatchExecutorOptions pool;
  pool.num_workers = 4;
  parallel::BatchExecutor executor(pool);
  opts.executor = &executor;
  auto sharded = BiasedSampler(opts).RunOnePass(ds.points, *kde);
  ASSERT_TRUE(sharded.ok());
  ExpectIdentical(*sequential, *sharded);
  executor.Shutdown();
}

TEST(ScanEquivalenceTest, BatchSizeNeverChangesResults) {
  // The same file scanned with different batch sizes gives bit-identical
  // samples (batching is an I/O detail, not a semantic one).
  synth::ClusteredDataset ds = MakeData(5);
  std::string path = StageFile(ds.points, "batch_eq.dbsf");
  density::KdeOptions kde_opts;
  kde_opts.num_kernels = 150;
  auto kde = density::Kde::Fit(ds.points, kde_opts);
  ASSERT_TRUE(kde.ok());
  BiasedSamplerOptions opts;
  opts.a = -0.25;
  opts.target_size = 300;
  opts.seed = 13;
  BiasedSampler sampler(opts);
  Result<BiasedSample> reference = Status::Internal("unset");
  for (int64_t batch_rows : {1LL, 64LL, 4096LL, 100000LL}) {
    auto scan = data::FileScan::Open(path, batch_rows);
    ASSERT_TRUE(scan.ok());
    auto sample = sampler.Run(**scan, *kde);
    ASSERT_TRUE(sample.ok());
    if (!reference.ok()) {
      reference = std::move(sample);
    } else {
      ExpectIdentical(*reference, *sample);
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dbs::core
