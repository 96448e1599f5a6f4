#include "core/biased_sampler.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "util/math.h"
#include "util/rng.h"

namespace dbs::core {

BiasedSampler::BiasedSampler(const BiasedSamplerOptions& options)
    : options_(options) {}

double BiasedSampler::FlooredDensityPow(double f, double floor) const {
  return SafePow(std::max(f, floor), options_.a);
}

double BiasedSampler::UnclampedProbability(double fa, double k_a) const {
  return static_cast<double>(options_.target_size) / k_a * fa;
}

double BiasedSampler::InclusionProbability(double density,
                                           double normalizer) const {
  if (normalizer <= 0) return 0.0;
  return std::min(1.0, UnclampedProbability(SafePow(density, options_.a),
                                            normalizer));
}

Result<BiasedSample> BiasedSampler::Run(
    data::DataScan& scan, const density::DensityEstimator& estimator) const {
  // The two-pass algorithm is the single-shard instance of the partial
  // pipeline (DESIGN.md §12): pass 1 is NormalizerPartial over the whole
  // range, pass 2 SampleWithNormalizer — so the sharded path at shards=1 is
  // this function, bitwise.
  ShardInfo info;
  info.total_rows = scan.size();
  DBS_ASSIGN_OR_RETURN(PartialNormalizer partial,
                       NormalizerPartial(scan, estimator, info));
  DBS_ASSIGN_OR_RETURN(Normalizer normalizer, FinalizeNormalizer(partial));
  if (normalizer.k_a <= 0) {
    return Status::Internal("normalizer k_a is not positive");
  }
  return SampleWithNormalizer(scan, estimator, normalizer);
}

Result<PartialNormalizer> BiasedSampler::NormalizerPartial(
    data::DataScan& scan, const density::DensityEstimator& estimator,
    const ShardInfo& info) const {
  if (options_.target_size <= 0) {
    return Status::InvalidArgument("target_size must be positive");
  }
  if (scan.dim() != estimator.dim()) {
    return Status::InvalidArgument(
        "estimator dimensionality does not match the scan");
  }
  if (info.total_rows == 0) {
    return Status::InvalidArgument("cannot sample an empty dataset");
  }
  DBS_RETURN_IF_ERROR(ValidateShardInfo(info));
  if (scan.size() !=
      ShardRowRange(info.total_rows, info.num_shards, info.shard).size()) {
    return Status::InvalidArgument(
        "scan does not cover the shard's row range");
  }

  // Shard slice of pass 1: k_a contribution = sum of f'(x) over the shard's
  // rows, plus their extremes. Densities are computed batch-at-a-time
  // (sharded when an executor is configured); the accumulation stays one
  // sequential sweep in scan order, so each part is bitwise independent of
  // the worker count.
  NormalizerShardPart part;
  part.shard = info.shard;
  part.num_shards = info.num_shards;
  part.total_rows = info.total_rows;
  const double floor =
      options_.density_floor_fraction * estimator.AverageDensity();
  std::vector<double> densities;
  scan.Reset();
  data::ScanBatch batch;
  while (scan.NextBatch(&batch)) {
    densities.resize(static_cast<size_t>(batch.count));
    DBS_RETURN_IF_ERROR(estimator.EvaluateBatch(
        batch.rows, batch.count, densities.data(), options_.executor));
    for (int64_t i = 0; i < batch.count; ++i) {
      const double fa =
          FlooredDensityPow(densities[static_cast<size_t>(i)], floor);
      part.k_a += fa;
      part.min_fa = std::min(part.min_fa, fa);
      part.max_fa = std::max(part.max_fa, fa);
    }
    part.rows += batch.count;
  }

  PartialNormalizer partial;
  partial.parts.push_back(part);
  return partial;
}

Result<Normalizer> BiasedSampler::FinalizeNormalizer(
    const PartialNormalizer& partial) const {
  if (partial.parts.empty()) {
    return Status::InvalidArgument("partial normalizer state has no shards");
  }
  if (static_cast<int64_t>(partial.parts.size()) !=
      partial.parts.front().num_shards) {
    return Status::InvalidArgument(
        "partial normalizer state is incomplete: not every shard is present");
  }
  Normalizer normalizer;
  normalizer.min_fa = std::numeric_limits<double>::infinity();
  normalizer.max_fa = -std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < partial.parts.size(); ++i) {
    const NormalizerShardPart& part = partial.parts[i];
    if (part.shard != static_cast<int64_t>(i)) {
      return Status::InvalidArgument(
          "partial normalizer state is incomplete: not every shard is "
          "present");
    }
    normalizer.k_a += part.k_a;
    normalizer.min_fa = std::min(normalizer.min_fa, part.min_fa);
    normalizer.max_fa = std::max(normalizer.max_fa, part.max_fa);
  }
  return normalizer;
}

[[nodiscard]] Result<PartialNormalizer> MergePartialNormalizers(PartialNormalizer a,
                                                  PartialNormalizer b) {
  DBS_RETURN_IF_ERROR(MergeShardParts(&a.parts, std::move(b.parts)));
  return a;
}

[[nodiscard]] Result<PartialSample> MergePartialSamples(PartialSample a, PartialSample b) {
  if (!a.parts.empty() && !b.parts.empty() &&
      a.parts.front().points.dim() != b.parts.front().points.dim()) {
    return Status::InvalidArgument(
        "cannot merge partial samples of different dimensionality");
  }
  DBS_RETURN_IF_ERROR(MergeShardParts(&a.parts, std::move(b.parts)));
  return a;
}

Result<BiasedSample> BiasedSampler::Run(
    const data::PointSet& points,
    const density::DensityEstimator& estimator) const {
  data::InMemoryScan scan(&points);
  return Run(scan, estimator);
}

Result<BiasedSample> BiasedSampler::RunOnePass(data::DataScan& scan,
                                               const density::Kde& kde) const {
  if (options_.target_size <= 0) {
    return Status::InvalidArgument("target_size must be positive");
  }
  if (scan.dim() != kde.dim()) {
    return Status::InvalidArgument(
        "estimator dimensionality does not match the scan");
  }
  const int64_t n = scan.size();
  if (n == 0) {
    return Status::InvalidArgument("cannot sample an empty dataset");
  }
  // Kernel centers are a uniform sample of the data, so the sample mean of
  // f^a over them estimates E_D[f^a] and k_a ~= n * E_D[f^a]. No dataset
  // pass is spent on normalization.
  Normalizer normalizer;
  normalizer.k_a = static_cast<double>(n) *
                   kde.MeanDensityPow(options_.a, options_.executor);
  if (normalizer.k_a <= 0) {
    return Status::Internal("estimated normalizer k_a is not positive");
  }
  return SampleWithNormalizer(scan, kde, normalizer);
}

Result<BiasedSample> BiasedSampler::RunOnePass(const data::PointSet& points,
                                               const density::Kde& kde) const {
  data::InMemoryScan scan(&points);
  return RunOnePass(scan, kde);
}

Result<BiasedSample> BiasedSampler::SampleWithNormalizer(
    data::DataScan& scan, const density::DensityEstimator& estimator,
    const Normalizer& normalizer) const {
  ShardInfo info;
  info.total_rows = scan.size();
  DBS_ASSIGN_OR_RETURN(PartialSample partial,
                       SamplePartial(scan, estimator, normalizer, info));
  return FinalizeSample(std::move(partial), normalizer.k_a);
}

Result<PartialSample> BiasedSampler::SamplePartial(
    data::DataScan& scan, const density::DensityEstimator& estimator,
    const Normalizer& normalizer, const ShardInfo& info) const {
  if (scan.dim() != estimator.dim()) {
    return Status::InvalidArgument(
        "estimator dimensionality does not match the scan");
  }
  DBS_RETURN_IF_ERROR(ValidateShardInfo(info));
  const RowRange range =
      ShardRowRange(info.total_rows, info.num_shards, info.shard);
  if (scan.size() != range.size()) {
    return Status::InvalidArgument(
        "scan does not cover the shard's row range");
  }
  const int dim = scan.dim();
  const double k_a = normalizer.k_a;
  const double floor =
      options_.density_floor_fraction * estimator.AverageDensity();

  SampleShardPart part;
  part.shard = info.shard;
  part.num_shards = info.num_shards;
  part.total_rows = info.total_rows;
  part.points = data::PointSet(dim);
  // Reserve the shard's expected share of the sample (plus slack).
  const int64_t expected =
      info.total_rows > 0
          ? options_.target_size * range.size() / info.total_rows
          : options_.target_size;
  part.points.Reserve(expected + expected / 4 + 16);
  auto accept = [&part](data::PointView x, double p, double f) {
    part.points.Append(x);
    part.inclusion_probs.push_back(p);
    part.densities.push_back(f);
  };

  // The certificate. Every row's f' lies in [min_fa, max_fa], and p rounds
  // monotonically in f', so every row's p lies in [p_lo, p_hi]. When
  // 0 < p_lo and p_hi < 1, no row clamps and NextBernoulli draws exactly
  // once per row, in row order — so the pass may draw first: a row whose
  // draw u >= p_hi rejects whatever its density, and only the others are
  // evaluated. The comparisons fail on NaN, so a NaN or infinite k_a takes
  // the full loop.
  const double p_lo = UnclampedProbability(normalizer.min_fa, k_a);
  const double p_hi = UnclampedProbability(normalizer.max_fa, k_a);
  const bool certified = p_lo > 0.0 && p_hi < 1.0;

  // Either way the draw stream never depends on how the densities were
  // computed (batched, sharded over workers, or for a gathered subset), so
  // the sample is bitwise reproducible across worker counts. Each shard
  // draws from its own ShardSeed stream (shard 0 = the legacy stream).
  Rng rng(ShardSeed(options_.seed, info.shard));
  std::vector<double> densities;
  // Certified pass only: the current batch's rows with u < p_hi.
  std::vector<double> gathered_rows;
  std::vector<double> gathered_draws;
  std::vector<int64_t> gathered_index;
  scan.Reset();
  data::ScanBatch batch;
  while (scan.NextBatch(&batch)) {
    if (certified) {
      gathered_rows.clear();
      gathered_draws.clear();
      gathered_index.clear();
      for (int64_t i = 0; i < batch.count; ++i) {
        const double u = rng.NextDouble();
        if (u >= p_hi) continue;
        const data::PointView x = batch.point(i, dim);
        gathered_rows.insert(gathered_rows.end(), x.begin(), x.end());
        gathered_draws.push_back(u);
        gathered_index.push_back(i);
      }
      densities.resize(gathered_index.size());
      DBS_RETURN_IF_ERROR(estimator.EvaluateBatch(
          gathered_rows.data(), static_cast<int64_t>(gathered_index.size()),
          densities.data(), options_.executor));
      for (size_t j = 0; j < gathered_index.size(); ++j) {
        const double f = densities[j];
        const double p = UnclampedProbability(FlooredDensityPow(f, floor), k_a);
        if (!(p >= p_lo && p <= p_hi)) {
          return Status::Internal(
              "sampling pass density outside the normalizer pass's range: "
              "the estimator broke EvaluateBatch's per-row contract");
        }
        if (gathered_draws[j] < p) {
          accept(batch.point(gathered_index[j], dim), p, f);
        }
      }
    } else {
      densities.resize(static_cast<size_t>(batch.count));
      DBS_RETURN_IF_ERROR(estimator.EvaluateBatch(
          batch.rows, batch.count, densities.data(), options_.executor));
      for (int64_t i = 0; i < batch.count; ++i) {
        const double f = densities[static_cast<size_t>(i)];
        double p = UnclampedProbability(FlooredDensityPow(f, floor), k_a);
        if (p >= 1.0) {
          p = 1.0;
          ++part.clamped_count;
        }
        if (rng.NextBernoulli(p)) accept(batch.point(i, dim), p, f);
      }
    }
    part.rows += batch.count;
  }

  PartialSample partial;
  partial.parts.push_back(std::move(part));
  return partial;
}

Result<BiasedSample> BiasedSampler::FinalizeSample(PartialSample partial,
                                                   double normalizer) const {
  if (partial.parts.empty()) {
    return Status::InvalidArgument("partial sample state has no shards");
  }
  if (static_cast<int64_t>(partial.parts.size()) !=
      partial.parts.front().num_shards) {
    return Status::InvalidArgument(
        "partial sample state is incomplete: not every shard is present");
  }
  BiasedSample sample;
  sample.normalizer = normalizer;
  sample.dataset_size = partial.parts.front().total_rows;
  // Ascending shard order — per-shard accept lists concatenate in row order.
  sample.points = std::move(partial.parts.front().points);
  sample.inclusion_probs = std::move(partial.parts.front().inclusion_probs);
  sample.densities = std::move(partial.parts.front().densities);
  sample.clamped_count = partial.parts.front().clamped_count;
  if (partial.parts.front().shard != 0) {
    return Status::InvalidArgument(
        "partial sample state is incomplete: not every shard is present");
  }
  for (size_t i = 1; i < partial.parts.size(); ++i) {
    SampleShardPart& part = partial.parts[i];
    if (part.shard != static_cast<int64_t>(i)) {
      return Status::InvalidArgument(
          "partial sample state is incomplete: not every shard is present");
    }
    sample.points.AppendAll(part.points);
    sample.inclusion_probs.insert(sample.inclusion_probs.end(),
                                  part.inclusion_probs.begin(),
                                  part.inclusion_probs.end());
    sample.densities.insert(sample.densities.end(), part.densities.begin(),
                            part.densities.end());
    sample.clamped_count += part.clamped_count;
  }
  return sample;
}

}  // namespace dbs::core
