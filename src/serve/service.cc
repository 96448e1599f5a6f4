#include "serve/service.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "core/biased_sampler.h"
#include "data/dataset_io.h"
#include "data/range_scan.h"
#include "outlier/ball_integration.h"
#include "outlier/db_outlier.h"
#include "util/shard.h"
#include "util/stats.h"

namespace dbs::serve {
namespace {

using Clock = std::chrono::steady_clock;

double ElapsedUs(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

[[nodiscard]] Status ValidatePoints(const data::PointSet& points, int model_dim,
                      const std::string& model) {
  if (points.dim() != model_dim) {
    return Status::InvalidArgument(
        "request dimensionality does not match model '" + model + "'");
  }
  return Status::Ok();
}

}  // namespace

ModelService::ModelService(ModelRegistry* registry,
                           parallel::BatchExecutor* executor)
    : registry_(registry), executor_(executor) {
  DBS_CHECK(registry_ != nullptr);
  DBS_CHECK(executor_ != nullptr);
}

Status ModelService::Register(const RegisterRequest& request) {
  Clock::time_point start = Clock::now();
  Status status = registry_->LoadKdeFile(request.name, request.path);
  Record(RequestType::kRegister, status.ok(), 0, ElapsedUs(start));
  return status;
}

Status ModelService::Evict(const EvictRequest& request) {
  Clock::time_point start = Clock::now();
  Status status = registry_->Evict(request.name);
  Record(RequestType::kEvict, status.ok(), 0, ElapsedUs(start));
  return status;
}

Result<DensityBatchResponse> ModelService::Density(
    const DensityBatchRequest& request) {
  Clock::time_point start = Clock::now();
  const int64_t total = request.points.size();
  auto fail = [&](Status status) -> Result<DensityBatchResponse> {
    Record(RequestType::kDensityBatch, false, total, ElapsedUs(start));
    return status;
  };

  auto model = registry_->Get(request.model);
  if (!model.ok()) return fail(model.status());
  if (total == 0) {
    Record(RequestType::kDensityBatch, true, 0, ElapsedUs(start));
    return DensityBatchResponse{};
  }
  Status valid = ValidatePoints(request.points, (*model)->dim(),
                                request.model);
  if (!valid.ok()) return fail(valid);

  DensityBatchResponse response;
  response.densities.resize(static_cast<size_t>(total));
  const density::DensityEstimator& estimator = **model;
  // The estimator's batch path shards across the executor itself (and the
  // KDE override amortizes neighbor gathering per grid cell); results are
  // bitwise identical to per-point Evaluate.
  Status run = estimator.EvaluateBatch(request.points.flat().data(), total,
                                       response.densities.data(), executor_);
  if (!run.ok()) return fail(run);
  Record(RequestType::kDensityBatch, true, total, ElapsedUs(start));
  return response;
}

Result<SampleResponse> ModelService::Sample(const SampleRequest& request) {
  Clock::time_point start = Clock::now();
  const int64_t total = request.points.size();
  auto fail = [&](Status status) -> Result<SampleResponse> {
    Record(RequestType::kSample, false, total, ElapsedUs(start));
    return status;
  };

  auto model = registry_->Get(request.model);
  if (!model.ok()) return fail(model.status());
  Status valid =
      ValidatePoints(request.points, (*model)->dim(), request.model);
  if (!valid.ok()) return fail(valid);
  if (request.target_size <= 0) {
    return fail(Status::InvalidArgument("target_size must be positive"));
  }

  core::BiasedSamplerOptions options;
  options.a = request.a;
  options.target_size = request.target_size;
  options.density_floor_fraction = request.density_floor_fraction;
  options.seed = request.seed;

  // The sampling pass consumes a sequential RNG stream, so it cannot be
  // sharded; it runs as one admission-controlled task. ParallelFor with a
  // single index is exactly that.
  Result<core::BiasedSample> sample =
      Status::Internal("sampling task did not run");
  const density::DensityEstimator& estimator = **model;
  Status run = executor_->ParallelFor(1, [&](int64_t, int64_t) {
    sample = core::BiasedSampler(options).Run(request.points, estimator);
  });
  if (!run.ok()) return fail(run);
  if (!sample.ok()) return fail(sample.status());

  SampleResponse response;
  response.points = std::move(sample->points);
  response.inclusion_probs = std::move(sample->inclusion_probs);
  response.densities = std::move(sample->densities);
  response.normalizer = sample->normalizer;
  response.clamped_count = sample->clamped_count;
  Record(RequestType::kSample, true, total, ElapsedUs(start));
  return response;
}

Result<OutlierScoreBatchResponse> ModelService::OutlierScores(
    const OutlierScoreBatchRequest& request) {
  Clock::time_point start = Clock::now();
  const int64_t total = request.points.size();
  auto fail = [&](Status status) -> Result<OutlierScoreBatchResponse> {
    Record(RequestType::kOutlierScoreBatch, false, total, ElapsedUs(start));
    return status;
  };

  auto model = registry_->Get(request.model);
  if (!model.ok()) return fail(model.status());
  if (total == 0) {
    Record(RequestType::kOutlierScoreBatch, true, 0, ElapsedUs(start));
    return OutlierScoreBatchResponse{};
  }
  Status valid =
      ValidatePoints(request.points, (*model)->dim(), request.model);
  if (!valid.ok()) return fail(valid);
  outlier::DbOutlierParams params;
  params.radius = request.radius;
  params.max_neighbors = request.max_neighbors;
  valid = outlier::ValidateDbOutlierParams(params);
  if (!valid.ok()) return fail(valid);
  if (request.qmc_samples <= 0) {
    return fail(Status::InvalidArgument("qmc_samples must be positive"));
  }

  const outlier::BallIntegrator integrator(
      request.integration, request.points.dim(), request.qmc_samples,
      request.metric);
  // The un-slacked candidate bound (see outlier::EstimateOutlierCount).
  const double threshold = static_cast<double>(request.max_neighbors + 1);

  OutlierScoreBatchResponse response;
  response.expected_neighbors.resize(static_cast<size_t>(total));
  response.likely_outlier.resize(static_cast<size_t>(total));
  const density::DensityEstimator& estimator = **model;
  double* scores = response.expected_neighbors.data();
  uint8_t* flags = response.likely_outlier.data();
  // Batched leave-one-out scoring, sharded by the integrator across the
  // executor; bitwise identical to the per-point calls. Covers BOTH
  // integration methods: center-value through the estimator's batched
  // leave-one-out path, quasi-Monte-Carlo through the probe-tile expansion
  // (each point fans out into its qmc_samples probes and the whole tile is
  // evaluated batched — see BallIntegrator::IntegrateExcludingSelfBatch).
  // The scores go back to the client, so they are computed in full: no
  // score cap.
  Status run = integrator.IntegrateExcludingSelfBatch(
      estimator, request.points.flat().data(), total, request.radius, scores,
      executor_);
  if (!run.ok()) return fail(run);
  for (int64_t i = 0; i < total; ++i) {
    flags[i] = scores[i] <= threshold ? 1 : 0;
  }
  Record(RequestType::kOutlierScoreBatch, true, total, ElapsedUs(start));
  return response;
}

Result<density::PartialKde> ModelService::PartialFit(
    const PartialFitRequest& request) {
  Clock::time_point start = Clock::now();
  int64_t rows = 0;
  auto fail = [&](Status status) -> Result<density::PartialKde> {
    Record(RequestType::kPartialFit, false, rows, ElapsedUs(start));
    return status;
  };

  ShardInfo info;
  info.shard = request.shard;
  info.num_shards = request.num_shards;
  Status valid = ValidateShardInfo(info);
  if (!valid.ok()) return fail(valid);

  density::KdeOptions options;
  options.num_kernels = request.num_kernels;
  options.kernel = request.kernel;
  options.bandwidth_rule = request.bandwidth_rule;
  options.fixed_bandwidth = request.fixed_bandwidth;
  options.bandwidth_scale = request.bandwidth_scale;
  options.seed = request.seed;

  auto scan = data::FileScan::Open(request.path, 8192,
                                   /*double_buffered=*/true);
  if (!scan.ok()) return fail(scan.status());
  info.total_rows = (*scan)->size();
  const RowRange range =
      ShardRowRange(info.total_rows, info.num_shards, info.shard);
  rows = range.size();

  // Like Sample: the reservoir pass is one sequential RNG sweep, submitted
  // as a single admission-controlled task.
  Result<density::PartialKde> partial =
      Status::Internal("partial-fit task did not run");
  Status run = executor_->ParallelFor(1, [&](int64_t, int64_t) {
    data::RangeScan slice(scan->get(), range.begin, range.end);
    partial = density::Kde::FitPartial(slice, options, info);
  });
  if (!run.ok()) return fail(run);
  if (!partial.ok()) return fail(partial.status());
  Record(RequestType::kPartialFit, true, rows, ElapsedUs(start));
  return partial;
}

StatsResponse ModelService::Stats() const {
  StatsResponse response;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    for (const auto& [type, stats] : stats_) {
      RequestStats row;
      row.type = type;
      row.count = stats.count;
      row.errors = stats.errors;
      row.points = stats.points;
      row.latency_sum_us = stats.latency_sum_us;
      row.latency_min_us = stats.latency_min_us;
      row.latency_max_us = stats.latency_max_us;
      if (!stats.recent.empty()) {
        row.latency_p50_us = Percentile(stats.recent, 0.5);
        row.latency_p99_us = Percentile(stats.recent, 0.99);
      }
      response.per_type.push_back(row);
    }
  }
  for (const ModelEntry& entry : registry_->List()) {
    response.models.push_back(entry.name);
  }
  return response;
}

void ModelService::Record(RequestType type, bool ok, int64_t num_points,
                          double latency_us) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  TypeStats& stats = stats_[type];
  if (stats.count == 0) {
    stats.latency_min_us = latency_us;
    stats.latency_max_us = latency_us;
  } else {
    stats.latency_min_us = std::min(stats.latency_min_us, latency_us);
    stats.latency_max_us = std::max(stats.latency_max_us, latency_us);
  }
  ++stats.count;
  if (!ok) ++stats.errors;
  stats.points += static_cast<uint64_t>(std::max<int64_t>(num_points, 0));
  stats.latency_sum_us += latency_us;
  if (static_cast<int>(stats.recent.size()) < kLatencyWindow) {
    stats.recent.push_back(latency_us);
  } else {
    stats.recent[static_cast<size_t>(stats.next_slot)] = latency_us;
    stats.next_slot = (stats.next_slot + 1) % kLatencyWindow;
  }
}

}  // namespace dbs::serve
