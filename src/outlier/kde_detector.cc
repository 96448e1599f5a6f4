#include "outlier/kde_detector.h"

#include <utility>
#include <vector>

#include "data/kd_tree.h"

namespace dbs::outlier {
namespace {

// The scoring pass's checks, shared by the estimate and the sharded
// scoring stage (through which DetectOutliersApproximate validates once).
// `total_rows` is the dataset size the neighbor bound resolves against.
[[nodiscard]] Status ValidateScoringArgs(
    int64_t total_rows, const data::DataScan& scan,
    const density::DensityEstimator& estimator, const DbOutlierParams& params,
    const KdeDetectorOptions& options) {
  if (total_rows == 0) {
    return Status::InvalidArgument("cannot detect outliers in an empty set");
  }
  if (scan.dim() != estimator.dim()) {
    return Status::InvalidArgument(
        "estimator dimensionality does not match the scan");
  }
  DBS_RETURN_IF_ERROR(ValidateDbOutlierParams(params));
  if (!(options.candidate_slack > 0)) {
    return Status::InvalidArgument("candidate_slack must be positive");
  }
  if (options.qmc_samples <= 0) {
    return Status::InvalidArgument("qmc_samples must be positive");
  }
  if (options.max_candidates <= 0) {
    return Status::InvalidArgument("max_candidates must be positive");
  }
  return Status::Ok();
}

}  // namespace

[[nodiscard]] Result<OutlierReport> DetectOutliersApproximate(
    data::DataScan& scan, const density::DensityEstimator& estimator,
    const DbOutlierParams& params, const KdeDetectorOptions& options) {
  // Detection is the single-shard instance of the partial pipeline
  // (DESIGN.md §12): the scoring and counting loops below moved verbatim
  // into the partial functions, so the sharded detector at any shard count
  // and this entry point produce identical reports. The scoring stage
  // validates the arguments.
  ShardInfo info;
  info.total_rows = scan.size();
  DBS_ASSIGN_OR_RETURN(
      PartialOutlierCandidates cand_partial,
      ScoreOutlierCandidatesPartial(scan, estimator, params, options, info));
  DBS_ASSIGN_OR_RETURN(OutlierCandidates candidates,
                       FinalizeOutlierCandidates(std::move(cand_partial)));
  if (candidates.points.empty()) {
    OutlierReport report;
    report.candidates_checked = 0;
    report.passes = 1;
    return report;
  }
  DBS_ASSIGN_OR_RETURN(
      PartialNeighborCounts counts,
      CountCandidateNeighborsPartial(scan, candidates, params, info));
  return FinalizeOutlierReport(candidates, counts, params);
}

[[nodiscard]] Result<PartialOutlierCandidates> ScoreOutlierCandidatesPartial(
    data::DataScan& scan, const density::DensityEstimator& estimator,
    const DbOutlierParams& params, const KdeDetectorOptions& options,
    const ShardInfo& info) {
  DBS_RETURN_IF_ERROR(
      ValidateScoringArgs(info.total_rows, scan, estimator, params, options));
  DBS_RETURN_IF_ERROR(ValidateShardInfo(info));
  const RowRange range =
      ShardRowRange(info.total_rows, info.num_shards, info.shard);
  if (scan.size() != range.size()) {
    return Status::InvalidArgument(
        "scan does not cover the shard's row range");
  }

  const int dim = scan.dim();
  const int64_t p = params.NeighborBound(info.total_rows);
  const double threshold =
      options.candidate_slack * static_cast<double>(p + 1);
  const BallIntegrator integrator(options.integration, dim,
                                  options.qmc_samples, params.metric);

  // Shard slice of the scoring pass: score every row; keep the likely
  // outliers under GLOBAL row indices. Scores for each scan batch are
  // computed through the batched (optionally multicore) integrator; the
  // threshold sweep stays sequential in scan order so the candidate list is
  // identical however the scores were computed.
  CandidateShardPart part;
  part.shard = info.shard;
  part.num_shards = info.num_shards;
  part.total_rows = info.total_rows;
  part.candidates = data::PointSet(dim);
  std::vector<double> scores;
  scan.Reset();
  data::ScanBatch batch;
  int64_t row = range.begin;
  while (scan.NextBatch(&batch)) {
    scores.resize(static_cast<size_t>(batch.count));
    DBS_RETURN_IF_ERROR(integrator.IntegrateExcludingSelfBatch(
        estimator, batch.rows, batch.count, params.radius, scores.data(),
        options.executor));
    for (int64_t i = 0; i < batch.count; ++i, ++row) {
      data::PointView x = batch.point(i, dim);
      double expected = scores[static_cast<size_t>(i)];
      if (expected <= threshold) {
        if (static_cast<int64_t>(part.candidate_rows.size()) >=
            options.max_candidates) {
          return Status::FailedPrecondition(
              "candidate set exceeded max_candidates; lower the slack or "
              "raise p/k");
        }
        part.candidates.Append(x);
        part.candidate_rows.push_back(row);
      }
    }
    part.rows += batch.count;
  }

  PartialOutlierCandidates partial;
  partial.parts.push_back(std::move(part));
  return partial;
}

[[nodiscard]] Result<PartialOutlierCandidates> MergeOutlierCandidates(
    PartialOutlierCandidates a, PartialOutlierCandidates b,
    int64_t max_candidates) {
  if (!a.parts.empty() && !b.parts.empty() &&
      a.parts.front().candidates.dim() != b.parts.front().candidates.dim()) {
    return Status::InvalidArgument(
        "cannot merge candidate states of different dimensionality");
  }
  DBS_RETURN_IF_ERROR(MergeShardParts(&a.parts, std::move(b.parts)));
  int64_t total = 0;
  for (const CandidateShardPart& part : a.parts) {
    total += static_cast<int64_t>(part.candidate_rows.size());
  }
  if (total > max_candidates) {
    return Status::FailedPrecondition(
        "candidate set exceeded max_candidates; lower the slack or "
        "raise p/k");
  }
  return a;
}

[[nodiscard]] Result<OutlierCandidates> FinalizeOutlierCandidates(
    PartialOutlierCandidates partial) {
  if (partial.parts.empty()) {
    return Status::InvalidArgument("partial candidate state has no shards");
  }
  if (static_cast<int64_t>(partial.parts.size()) !=
      partial.parts.front().num_shards) {
    return Status::InvalidArgument(
        "partial candidate state is incomplete: not every shard is present");
  }
  OutlierCandidates out;
  out.points = std::move(partial.parts.front().candidates);
  out.rows = std::move(partial.parts.front().candidate_rows);
  for (size_t i = 0; i < partial.parts.size(); ++i) {
    if (partial.parts[i].shard != static_cast<int64_t>(i)) {
      return Status::InvalidArgument(
          "partial candidate state is incomplete: not every shard is "
          "present");
    }
    if (i == 0) continue;
    CandidateShardPart& part = partial.parts[i];
    out.points.AppendAll(part.candidates);
    out.rows.insert(out.rows.end(), part.candidate_rows.begin(),
                    part.candidate_rows.end());
  }
  return out;
}

[[nodiscard]] Result<PartialNeighborCounts> CountCandidateNeighborsPartial(
    data::DataScan& scan, const OutlierCandidates& candidates,
    const DbOutlierParams& params, const ShardInfo& info) {
  if (candidates.points.empty()) {
    return Status::InvalidArgument("candidate set is empty");
  }
  if (scan.dim() != candidates.points.dim()) {
    return Status::InvalidArgument(
        "candidate dimensionality does not match the scan");
  }
  DBS_RETURN_IF_ERROR(ValidateShardInfo(info));
  if (scan.size() !=
      ShardRowRange(info.total_rows, info.num_shards, info.shard).size()) {
    return Status::InvalidArgument(
        "scan does not cover the shard's row range");
  }
  const int dim = scan.dim();

  // Shard slice of the verification pass: a kd-tree over the (small)
  // candidate set turns it into "for each of the shard's rows, bump every
  // candidate within radius". Tallies are integers, so summing shard parts
  // reproduces the sequential counts exactly.
  NeighborCountShardPart part;
  part.shard = info.shard;
  part.num_shards = info.num_shards;
  part.total_rows = info.total_rows;
  part.counts.assign(static_cast<size_t>(candidates.points.size()), 0);
  data::KdTree tree(&candidates.points);
  scan.Reset();
  data::ScanBatch batch;
  while (scan.NextBatch(&batch)) {
    for (int64_t i = 0; i < batch.count; ++i) {
      data::PointView x = batch.point(i, dim);
      for (int64_t c :
           tree.WithinRadiusMetric(x, params.radius, params.metric)) {
        ++part.counts[static_cast<size_t>(c)];
      }
    }
  }

  PartialNeighborCounts partial;
  partial.parts.push_back(std::move(part));
  return partial;
}

[[nodiscard]] Result<PartialNeighborCounts> MergeNeighborCounts(PartialNeighborCounts a,
                                                  PartialNeighborCounts b) {
  if (!a.parts.empty() && !b.parts.empty() &&
      a.parts.front().counts.size() != b.parts.front().counts.size()) {
    return Status::InvalidArgument(
        "cannot merge neighbor counts over different candidate sets");
  }
  DBS_RETURN_IF_ERROR(MergeShardParts(&a.parts, std::move(b.parts)));
  return a;
}

[[nodiscard]] Result<OutlierReport> FinalizeOutlierReport(
    const OutlierCandidates& candidates, const PartialNeighborCounts& counts,
    const DbOutlierParams& params) {
  if (counts.parts.empty()) {
    return Status::InvalidArgument("partial count state has no shards");
  }
  if (static_cast<int64_t>(counts.parts.size()) !=
      counts.parts.front().num_shards) {
    return Status::InvalidArgument(
        "partial count state is incomplete: not every shard is present");
  }
  const size_t num_candidates =
      static_cast<size_t>(candidates.points.size());
  std::vector<int64_t> total(num_candidates, 0);
  for (size_t i = 0; i < counts.parts.size(); ++i) {
    const NeighborCountShardPart& part = counts.parts[i];
    if (part.shard != static_cast<int64_t>(i)) {
      return Status::InvalidArgument(
          "partial count state is incomplete: not every shard is present");
    }
    if (part.counts.size() != num_candidates) {
      return Status::InvalidArgument(
          "neighbor counts do not match the candidate set");
    }
    for (size_t c = 0; c < num_candidates; ++c) total[c] += part.counts[c];
  }

  const int64_t p =
      params.NeighborBound(counts.parts.front().total_rows);
  OutlierReport report;
  report.candidates_checked = candidates.points.size();
  // Each candidate counted itself once (it appears in the scan).
  for (size_t c = 0; c < num_candidates; ++c) {
    int64_t neighbors = total[c] - 1;
    if (neighbors <= p) {
      report.outlier_indices.push_back(candidates.rows[c]);
      report.neighbor_counts.push_back(neighbors);
    }
  }
  report.passes = 2;
  return report;
}

[[nodiscard]] Result<OutlierReport> DetectOutliersApproximate(
    const data::PointSet& points, const density::DensityEstimator& estimator,
    const DbOutlierParams& params, const KdeDetectorOptions& options) {
  data::InMemoryScan scan(&points);
  return DetectOutliersApproximate(scan, estimator, params, options);
}

[[nodiscard]] Result<int64_t> EstimateOutlierCount(
    data::DataScan& scan, const density::DensityEstimator& estimator,
    const DbOutlierParams& params, const KdeDetectorOptions& options) {
  DBS_RETURN_IF_ERROR(
      ValidateScoringArgs(scan.size(), scan, estimator, params, options));
  const int dim = scan.dim();
  const int64_t p = params.NeighborBound(scan.size());
  const BallIntegrator integrator(options.integration, dim,
                                  options.qmc_samples, params.metric);
  const double threshold = static_cast<double>(p + 1);
  int64_t count = 0;
  std::vector<double> scores;
  scan.Reset();
  data::ScanBatch batch;
  while (scan.NextBatch(&batch)) {
    scores.resize(static_cast<size_t>(batch.count));
    DBS_RETURN_IF_ERROR(integrator.IntegrateExcludingSelfBatch(
        estimator, batch.rows, batch.count, params.radius, scores.data(),
        options.executor));
    for (int64_t i = 0; i < batch.count; ++i) {
      if (scores[static_cast<size_t>(i)] <= threshold) ++count;
    }
  }
  return count;
}

[[nodiscard]] Result<int64_t> EstimateOutlierCount(
    const data::PointSet& points, const density::DensityEstimator& estimator,
    const DbOutlierParams& params, const KdeDetectorOptions& options) {
  data::InMemoryScan scan(&points);
  return EstimateOutlierCount(scan, estimator, params, options);
}

}  // namespace dbs::outlier
