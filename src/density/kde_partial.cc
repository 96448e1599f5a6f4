#include "density/kde_partial.h"

#include <cmath>
#include <utility>

#include "data/dataset.h"
#include "density/bandwidth.h"
#include "util/rng.h"

namespace dbs::density {
namespace {

[[nodiscard]] Status ValidateFitOptions(const KdeOptions& options, int dim) {
  if (options.num_kernels <= 0) {
    return Status::InvalidArgument("num_kernels must be positive");
  }
  if (options.bandwidth_rule == BandwidthRule::kFixed &&
      options.fixed_bandwidth <= 0) {
    return Status::InvalidArgument(
        "fixed bandwidth rule requires fixed_bandwidth > 0");
  }
  if (options.bandwidth_scale <= 0) {
    return Status::InvalidArgument("bandwidth_scale must be positive");
  }
  if (dim <= 0) {
    return Status::InvalidArgument("scan must have positive dimensionality");
  }
  return Status::Ok();
}

}  // namespace

Result<PartialKde> Kde::FitPartial(data::DataScan& scan,
                                   const KdeOptions& options,
                                   const ShardInfo& info) {
  const int dim = scan.dim();
  DBS_RETURN_IF_ERROR(ValidateFitOptions(options, dim));
  DBS_RETURN_IF_ERROR(ValidateShardInfo(info));
  const RowRange range =
      ShardRowRange(info.total_rows, info.num_shards, info.shard);
  if (scan.size() != range.size()) {
    return Status::InvalidArgument(
        "scan does not cover the shard's row range");
  }
  const int64_t m_target = ShardKernelAllocation(
      info.total_rows, info.num_shards,
      options.num_kernels)[static_cast<size_t>(info.shard)];

  KdeShardPart part;
  part.shard = info.shard;
  part.num_shards = info.num_shards;
  part.total_rows = info.total_rows;
  part.centers = data::PointSet(dim);
  part.moments.resize(static_cast<size_t>(dim));
  part.bounds = data::BoundingBox(dim);

  // Single pass over the shard's slice: reservoir-sample the shard's center
  // quota (Vitter's Algorithm R), accumulate moments and bounds — the exact
  // loop Kde::Fit always ran, consuming the shard-seeded RNG stream.
  Rng rng(ShardSeed(options.seed, info.shard));
  scan.Reset();
  data::ScanBatch batch;
  int64_t seen = 0;
  while (scan.NextBatch(&batch)) {
    for (int64_t i = 0; i < batch.count; ++i) {
      data::PointView p = batch.point(i, dim);
      part.bounds.Extend(p);
      for (int j = 0; j < dim; ++j) {
        part.moments[static_cast<size_t>(j)].Add(p[j]);
      }
      if (seen < m_target) {
        part.centers.Append(p);
      } else {
        int64_t slot = static_cast<int64_t>(
            rng.NextBounded(static_cast<uint64_t>(seen + 1)));
        if (slot < m_target) {
          data::PointView src = p;
          double* dst = part.centers.MutableRow(slot);
          for (int j = 0; j < dim; ++j) dst[j] = src[j];
        }
      }
      ++seen;
    }
  }
  part.rows = seen;

  PartialKde partial;
  partial.parts.push_back(std::move(part));
  return partial;
}

[[nodiscard]] Result<PartialKde> MergePartialKde(PartialKde a, PartialKde b) {
  if (!a.parts.empty() && !b.parts.empty() &&
      a.parts.front().centers.dim() != b.parts.front().centers.dim()) {
    return Status::InvalidArgument(
        "cannot merge partial KDE states of different dimensionality");
  }
  DBS_RETURN_IF_ERROR(MergeShardParts(&a.parts, std::move(b.parts)));
  return a;
}

[[nodiscard]] Result<Kde> FinalizeKde(PartialKde partial, const KdeOptions& options) {
  if (partial.parts.empty()) {
    return Status::InvalidArgument("partial KDE state has no shards");
  }
  const int dim = partial.dim();
  DBS_RETURN_IF_ERROR(ValidateFitOptions(options, dim));
  const int64_t num_shards = partial.parts.front().num_shards;
  if (static_cast<int64_t>(partial.parts.size()) != num_shards) {
    return Status::InvalidArgument(
        "partial KDE state is incomplete: not every shard is present");
  }
  for (size_t i = 0; i < partial.parts.size(); ++i) {
    const KdeShardPart& part = partial.parts[i];
    if (part.shard != static_cast<int64_t>(i)) {
      return Status::InvalidArgument(
          "partial KDE state is incomplete: not every shard is present");
    }
    if (part.centers.dim() != dim ||
        static_cast<int>(part.moments.size()) != dim) {
      return Status::InvalidArgument(
          "partial KDE shard has inconsistent dimensionality");
    }
  }

  // The one reduction point: ascending shard order, exactly once. Centers
  // concatenate (each shard's reservoir is already a uniform sample of its
  // slice at the proportional rate), moments merge with Chan's update, and
  // the bandwidth tail repeats Kde::Fit's arithmetic verbatim.
  int64_t n = 0;
  data::PointSet centers = std::move(partial.parts.front().centers);
  std::vector<OnlineMoments> moments =
      std::move(partial.parts.front().moments);
  data::BoundingBox bounds = std::move(partial.parts.front().bounds);
  n = partial.parts.front().rows;
  for (size_t i = 1; i < partial.parts.size(); ++i) {
    KdeShardPart& part = partial.parts[i];
    n += part.rows;
    centers.AppendAll(part.centers);
    for (int j = 0; j < dim; ++j) {
      moments[static_cast<size_t>(j)].Merge(
          part.moments[static_cast<size_t>(j)]);
    }
    bounds.Extend(part.bounds);
  }
  if (n == 0) {
    return Status::InvalidArgument("cannot fit a KDE on an empty dataset");
  }

  // A NaN or infinite coordinate anywhere in the data makes its axis's
  // moments non-finite; no bandwidth can be derived from them.
  std::vector<double> sigma(static_cast<size_t>(dim));
  for (int j = 0; j < dim; ++j) {
    const OnlineMoments& axis = moments[static_cast<size_t>(j)];
    sigma[static_cast<size_t>(j)] = axis.sample_stddev();
    if (!std::isfinite(axis.mean()) ||
        !std::isfinite(sigma[static_cast<size_t>(j)])) {
      return Status::InvalidArgument(
          "cannot fit a KDE: the data has a NaN or infinite coordinate, or "
          "a spread that overflows");
    }
  }
  Kde::State state;
  state.n = n;
  state.kernel = options.kernel;
  state.bandwidths =
      ComputeBandwidths(options.bandwidth_rule, options.kernel, sigma,
                        centers.size(), options.fixed_bandwidth);
  for (double& h : state.bandwidths) h *= options.bandwidth_scale;
  state.centers = std::move(centers);
  state.bounds = std::move(bounds);
  return Kde::FromState(std::move(state), options.use_grid_index);
}

}  // namespace dbs::density
