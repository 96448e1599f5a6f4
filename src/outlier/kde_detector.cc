#include "outlier/kde_detector.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "data/bounds.h"
#include "data/distance.h"
#include "data/kd_tree.h"
#include "outlier/grid_internal.h"

namespace dbs::outlier {
namespace {

// The verify pass's grid over the candidate set (DESIGN.md §16): the
// candidates of flat cell f are order[start[f] .. start[f + 1]), and
// in_reach[f] is 1 when any candidate lies in f's 3^d block. Offsets and
// ids are 32-bit; BuildCandidateGrid refuses larger candidate sets.
struct CandidateGrid {
  internal::GridGeometry geo;
  std::vector<uint32_t> start;
  std::vector<int32_t> order;
  std::vector<uint8_t> in_reach;
};

// Builds the grid over the candidates whose coordinates are all finite
// (the others are nobody's neighbor, data::AllFinite), or returns false
// when it cannot serve them (radius, dimension, box size, candidate count,
// or no finite candidate) and the kd-tree loop counts instead.
bool BuildCandidateGrid(const data::PointSet& candidates, double radius,
                        CandidateGrid* grid) {
  const int64_t n = candidates.size();
  const int dim = candidates.dim();
  if (n > std::numeric_limits<int32_t>::max() ||
      !internal::GridServes(radius, dim)) {
    return false;
  }
  std::vector<uint8_t> finite(static_cast<size_t>(n));
  data::BoundingBox box(dim);
  for (int64_t c = 0; c < n; ++c) {
    finite[static_cast<size_t>(c)] = data::AllFinite(candidates[c]) ? 1 : 0;
    if (finite[static_cast<size_t>(c)] != 0) box.Extend(candidates[c]);
  }
  if (box.empty() || !internal::MakeGridGeometry(box, radius, &grid->geo)) {
    return false;
  }
  const size_t total = static_cast<size_t>(grid->geo.total_cells);

  // Counting sort by flat cell: count into start[f], prefix-sum to each
  // cell's end, then scatter backwards so start[f] ends at the cell's
  // beginning.
  std::vector<uint32_t> cell_of(static_cast<size_t>(n));
  grid->start.assign(total + 1, 0);
  for (int64_t c = 0; c < n; ++c) {
    if (finite[static_cast<size_t>(c)] == 0) continue;
    const auto flat = static_cast<uint32_t>(
        internal::FlatCell(grid->geo, candidates[c].data()));
    cell_of[static_cast<size_t>(c)] = flat;
    ++grid->start[flat];
  }
  for (size_t f = 1; f <= total; ++f) grid->start[f] += grid->start[f - 1];
  grid->order.resize(grid->start[total]);
  for (int64_t c = n - 1; c >= 0; --c) {
    if (finite[static_cast<size_t>(c)] == 0) continue;
    grid->order[--grid->start[cell_of[static_cast<size_t>(c)]]] =
        static_cast<int32_t>(c);
  }

  grid->in_reach.assign(total, 0);
  std::vector<int64_t> coord(static_cast<size_t>(dim));
  std::vector<int64_t> offset(static_cast<size_t>(dim));
  for (size_t f = 0; f < total; ++f) {
    if (grid->start[f] == grid->start[f + 1]) continue;
    internal::CellCoords(grid->geo, static_cast<int64_t>(f), coord.data());
    internal::ForEachBlockRun(
        grid->geo, coord.data(), offset.data(),
        [&](int64_t first, int64_t last) {
          std::fill(grid->in_reach.begin() + first,
                    grid->in_reach.begin() + last + 1, uint8_t{1});
        });
  }
  return true;
}

// Bumps counts[c] once for every row of `scan` within params.radius of
// candidate c, comparing only against the candidates of the row's 3^d
// block. The comparisons are KdTree::WithinRadius's, so the counts
// are the kd-tree loop's.
void CountOnCandidateGrid(data::DataScan& scan,
                          const data::PointSet& candidates,
                          const CandidateGrid& grid,
                          const DbOutlierParams& params, int64_t* counts) {
  const int dim = candidates.dim();
  const internal::GridGeometry& geo = grid.geo;
  const double r2 = params.radius * params.radius;
  std::vector<int64_t> coord(static_cast<size_t>(dim));
  std::vector<int64_t> offset(static_cast<size_t>(dim));
  scan.Reset();
  data::ScanBatch batch;
  while (scan.NextBatch(&batch)) {
    for (int64_t i = 0; i < batch.count; ++i) {
      const data::PointView x = batch.point(i, dim);
      // The row's cell, unclamped. A row more than one cell outside the
      // box on some axis has no candidate in reach, and a row with a NaN
      // or infinite coordinate counts nothing (see CountOnKdTree). A row
      // in the ring just outside the box has no in_reach byte and always
      // probes.
      bool in_box = true;
      bool out_of_reach = false;
      int64_t flat = 0;
      for (int j = 0; j < dim; ++j) {
        const size_t a = static_cast<size_t>(j);
        const double u = internal::ScaledFloor(x[j], geo.lo[a], geo.inv_side);
        const auto cells_j = static_cast<double>(geo.cells[a]);
        if (!(u >= -1.0 && u <= cells_j)) {
          out_of_reach = true;
          break;
        }
        coord[a] = static_cast<int64_t>(u);
        if (u < 0.0 || u == cells_j) in_box = false;
        flat += coord[a] * geo.strides[a];
      }
      if (out_of_reach ||
          (in_box && grid.in_reach[static_cast<size_t>(flat)] == 0)) {
        continue;
      }
      // The candidates of a run of cells are contiguous in `order`.
      internal::ForEachBlockRun(
          geo, coord.data(), offset.data(), [&](int64_t first, int64_t last) {
            const uint32_t end = grid.start[static_cast<size_t>(last) + 1];
            for (uint32_t pos = grid.start[static_cast<size_t>(first)];
                 pos < end; ++pos) {
              const int32_t c = grid.order[pos];
              const bool hit =
                  params.metric == data::Metric::kL2
                      ? data::SquaredL2(x, candidates[c]) <= r2
                      : data::Distance(x, candidates[c], params.metric) <=
                            params.radius;
              if (hit) ++counts[c];
            }
          });
    }
  }
}

// The verify loop for inputs the grid cannot serve: one kd-tree radius
// query per row. As on the grid, a row or candidate with a non-finite
// coordinate is nobody's neighbor (data::AllFinite): such rows are
// skipped, and such candidates stay out of the tree, whose median splits
// could not order a NaN.
void CountOnKdTree(data::DataScan& scan, const data::PointSet& candidates,
                   const DbOutlierParams& params, int64_t* counts) {
  const int dim = candidates.dim();
  std::vector<int64_t> finite;
  for (int64_t c = 0; c < candidates.size(); ++c) {
    if (data::AllFinite(candidates[c])) finite.push_back(c);
  }
  const data::KdTree tree(&candidates, std::move(finite));
  scan.Reset();
  data::ScanBatch batch;
  while (scan.NextBatch(&batch)) {
    for (int64_t i = 0; i < batch.count; ++i) {
      data::PointView x = batch.point(i, dim);
      if (!data::AllFinite(x)) continue;
      for (int64_t c : tree.WithinRadius(x, params.radius, params.metric)) {
        ++counts[c];
      }
    }
  }
}

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
    // Only `expected <= threshold` reads a score, so the threshold caps
    // each row's sum (BallIntegrator::IntegrateExcludingSelfBatch).
    DBS_RETURN_IF_ERROR(integrator.IntegrateExcludingSelfBatch(
        estimator, batch.rows, batch.count, params.radius, scores.data(),
        options.executor, threshold));
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

  // Shard slice of the verification pass: for each of the shard's rows,
  // bump every candidate within radius — on a grid over the (small)
  // candidate set when it can serve them, else through a kd-tree. Tallies
  // are integers, so summing shard parts reproduces the sequential counts
  // exactly.
  NeighborCountShardPart part;
  part.shard = info.shard;
  part.num_shards = info.num_shards;
  part.total_rows = info.total_rows;
  part.counts.assign(static_cast<size_t>(candidates.points.size()), 0);
  CandidateGrid grid;
  if (BuildCandidateGrid(candidates.points, params.radius, &grid)) {
    CountOnCandidateGrid(scan, candidates.points, grid, params,
                         part.counts.data());
  } else {
    CountOnKdTree(scan, candidates.points, params, part.counts.data());
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
  // Each candidate counted itself once (it appears in the scan), except one
  // with a non-finite coordinate, which counted nothing: it has 0
  // neighbors, as in the exact detectors.
  for (size_t c = 0; c < num_candidates; ++c) {
    const bool counted_self =
        data::AllFinite(candidates.points[static_cast<int64_t>(c)]);
    const int64_t neighbors = total[c] - (counted_self ? 1 : 0);
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
        options.executor, threshold));
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
