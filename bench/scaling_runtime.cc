// §4.3 "Running time experiments" — the sampler scales linearly in both
// the dataset size and the number of kernels.
//
// Paper result to reproduce (shape): KDE construction and the two sampling
// passes grow linearly with n at fixed kernels, and linearly with the
// kernel count at fixed n. Also contrasts the exact two-pass sampler with
// the one-pass integrated variant (which trades the normalization pass for
// an estimated normalizer), and reports by exponent and sample size how
// many rows the two-pass sampler's sampling pass evaluates: only those
// whose draw can still accept, when the normalizer pass's bounds allow it.

#include <cstdio>
#include <string>

#include "core/biased_sampler.h"
#include "density/kde.h"
#include "eval/experiment.h"
#include "eval/report.h"
#include "synth/generator.h"
#include "util/check.h"

namespace {

dbs::synth::ClusteredDataset MakeData(int64_t points) {
  dbs::synth::ClusteredDatasetOptions opts;
  opts.num_clusters = 10;
  opts.num_cluster_points = points;
  opts.noise_multiplier = 0.1;
  opts.seed = 23;
  auto ds = dbs::synth::MakeClusteredDataset(opts);
  DBS_CHECK(ds.ok());
  return std::move(ds).value();
}

struct PipelineTimes {
  double fit_seconds;
  double two_pass_seconds;
  double one_pass_seconds;
};

// Forwards to a wrapped estimator and counts the rows its batch path
// evaluates.
class CountingEstimator final : public dbs::density::DensityEstimator {
 public:
  explicit CountingEstimator(const dbs::density::DensityEstimator* inner)
      : inner_(inner) {}
  int dim() const override { return inner_->dim(); }
  double Evaluate(dbs::data::PointView p) const override {
    return inner_->Evaluate(p);
  }
  [[nodiscard]] dbs::Status EvaluateBatch(
      const double* rows, int64_t count, double* out,
      dbs::parallel::BatchExecutor* executor = nullptr) const override {
    rows_ += count;
    return inner_->EvaluateBatch(rows, count, out, executor);
  }
  int64_t total_mass() const override { return inner_->total_mass(); }
  double AverageDensity() const override { return inner_->AverageDensity(); }
  int64_t rows() const { return rows_; }

 private:
  const dbs::density::DensityEstimator* inner_;
  mutable int64_t rows_ = 0;
};

PipelineTimes TimePipeline(const dbs::data::PointSet& points,
                           int64_t kernels) {
  PipelineTimes times{};
  dbs::eval::Timer timer;
  dbs::density::KdeOptions kde_opts;
  kde_opts.num_kernels = kernels;
  kde_opts.bandwidth_scale = 0.3;
  auto kde = dbs::density::Kde::Fit(points, kde_opts);
  DBS_CHECK(kde.ok());
  times.fit_seconds = timer.ElapsedSeconds();

  dbs::core::BiasedSamplerOptions sampler_opts;
  sampler_opts.a = 1.0;
  sampler_opts.target_size = 1000;
  dbs::core::BiasedSampler sampler(sampler_opts);

  timer.Reset();
  auto two_pass = sampler.Run(points, *kde);
  DBS_CHECK(two_pass.ok());
  times.two_pass_seconds = timer.ElapsedSeconds();

  timer.Reset();
  auto one_pass = sampler.RunOnePass(points, *kde);
  DBS_CHECK(one_pass.ok());
  times.one_pass_seconds = timer.ElapsedSeconds();
  return times;
}

}  // namespace

int main() {
  std::printf("Scaling of the density estimator and sampling passes "
              "(paper section 4.3)\n");

  dbs::eval::Table by_n({"points", "fit KDE (s)", "2-pass sample (s)",
                         "1-pass sample (s)"});
  for (int64_t points : {100000LL, 200000LL, 400000LL, 800000LL}) {
    auto ds = MakeData(points);
    PipelineTimes t = TimePipeline(ds.points, 1000);
    by_n.AddRow({dbs::eval::Table::Int(points),
                 dbs::eval::Table::Num(t.fit_seconds, 3),
                 dbs::eval::Table::Num(t.two_pass_seconds, 3),
                 dbs::eval::Table::Num(t.one_pass_seconds, 3)});
  }
  by_n.Print("runtime vs dataset size (1000 kernels) — expect linear");

  auto ds = MakeData(200000);
  dbs::eval::Table by_kernels({"kernels", "fit KDE (s)",
                               "2-pass sample (s)", "1-pass sample (s)"});
  for (int64_t kernels : {250LL, 500LL, 1000LL, 2000LL, 4000LL}) {
    PipelineTimes t = TimePipeline(ds.points, kernels);
    by_kernels.AddRow({dbs::eval::Table::Int(kernels),
                       dbs::eval::Table::Num(t.fit_seconds, 3),
                       dbs::eval::Table::Num(t.two_pass_seconds, 3),
                       dbs::eval::Table::Num(t.one_pass_seconds, 3)});
  }
  by_kernels.Print("runtime vs kernel count (200k points) — expect ~linear "
                   "(grid index damps the growth)");

  // Pass 1 evaluates every row; the sampling pass evaluates every row again
  // unless the normalizer pass bounds every probability inside (0, 1).
  dbs::density::KdeOptions kde_opts;
  kde_opts.num_kernels = 1000;
  kde_opts.bandwidth_scale = 0.3;
  auto kde = dbs::density::Kde::Fit(ds.points, kde_opts);
  DBS_CHECK(kde.ok());
  const int64_t n = ds.points.size();
  dbs::eval::Table evaluated({"a", "b", "b/n", "sampling-pass rows",
                              "share of n", "clamped"});
  for (double a : {1.0, 0.5, 0.0, -0.5, -1.0}) {
    for (int64_t b : {200LL, 2000LL, 20000LL}) {
      dbs::core::BiasedSamplerOptions opts;
      opts.a = a;
      opts.target_size = b;
      CountingEstimator counting(&*kde);
      auto sample = dbs::core::BiasedSampler(opts).Run(ds.points, counting);
      DBS_CHECK(sample.ok());
      const int64_t pass_rows = counting.rows() - n;
      evaluated.AddRow(
          {dbs::eval::Table::Num(a, 2), dbs::eval::Table::Int(b),
           dbs::eval::Table::Num(static_cast<double>(b) /
                                     static_cast<double>(n), 4),
           dbs::eval::Table::Int(pass_rows),
           dbs::eval::Table::Num(static_cast<double>(pass_rows) /
                                     static_cast<double>(n), 4),
           dbs::eval::Table::Int(sample->clamped_count)});
    }
  }
  evaluated.Print("rows the two-pass sampling pass evaluates (" +
                  std::to_string(n) + " points, 1000 kernels)");
  return 0;
}
