#include "shard/coordinator.h"

#include <condition_variable>
#include <mutex>
#include <utility>
#include <vector>

#include "data/range_scan.h"

namespace dbs::shard {
namespace {

// Pairwise tree reduction. Correctness does not depend on the pairing: the
// merge is a sorted disjoint union of per-shard summaries (util/shard.h),
// so any reduction shape yields the same state. The tree shape only bounds
// the reduction depth at log2(shards) for the multi-process collector.
template <typename Partial, typename MergeFn>
[[nodiscard]] Result<Partial> TreeReduce(std::vector<Partial> parts, const MergeFn& merge) {
  while (parts.size() > 1) {
    std::vector<Partial> next;
    next.reserve((parts.size() + 1) / 2);
    for (size_t i = 0; i + 1 < parts.size(); i += 2) {
      DBS_ASSIGN_OR_RETURN(
          Partial merged,
          merge(std::move(parts[i]), std::move(parts[i + 1])));
      next.push_back(std::move(merged));
    }
    if (parts.size() % 2 == 1) next.push_back(std::move(parts.back()));
    parts = std::move(next);
  }
  return std::move(parts.front());
}

}  // namespace

ShardCoordinator::ShardCoordinator(ScanFactory factory,
                                   const ShardCoordinatorOptions& options)
    : factory_(std::move(factory)), options_(options) {}

Result<int64_t> ShardCoordinator::ResolveShards(int64_t* total_rows) const {
  DBS_ASSIGN_OR_RETURN(std::unique_ptr<data::DataScan> scan, factory_());
  *total_rows = scan->size();
  int64_t shards = options_.shards < 1 ? 1 : options_.shards;
  if (*total_rows > 0 && shards > *total_rows) shards = *total_rows;
  return shards;
}

template <typename Partial>
Result<std::vector<Partial>> ShardCoordinator::RunShards(
    int64_t num_shards, int64_t total_rows,
    const ShardFn<Partial>& fn) const {
  std::vector<Partial> parts(static_cast<size_t>(num_shards));
  std::vector<Status> statuses(static_cast<size_t>(num_shards),
                               Status::Ok());
  auto run_one = [&](int64_t s) {
    auto scan_or = factory_();
    if (!scan_or.ok()) {
      statuses[static_cast<size_t>(s)] = scan_or.status();
      return;
    }
    std::unique_ptr<data::DataScan> scan = std::move(*scan_or);
    if (scan->size() != total_rows) {
      statuses[static_cast<size_t>(s)] = Status::InvalidArgument(
          "dataset size changed between sharded passes");
      return;
    }
    const RowRange range = ShardRowRange(total_rows, num_shards, s);
    data::RangeScan slice(scan.get(), range.begin, range.end);
    ShardInfo info;
    info.shard = s;
    info.num_shards = num_shards;
    info.total_rows = total_rows;
    auto part_or = fn(slice, info);
    if (!part_or.ok()) {
      statuses[static_cast<size_t>(s)] = part_or.status();
      return;
    }
    parts[static_cast<size_t>(s)] = std::move(*part_or);
  };

  bool ran_parallel = false;
  if (options_.executor != nullptr && num_shards > 1) {
    // Fan the shard tasks out as one all-or-nothing admission with our own
    // completion latch. ParallelFor is not used here: its min_shard floor
    // would collapse a small shard count into one task.
    std::mutex mu;
    std::condition_variable done;
    int64_t remaining = num_shards;
    std::vector<std::function<void()>> tasks;
    tasks.reserve(static_cast<size_t>(num_shards));
    for (int64_t s = 0; s < num_shards; ++s) {
      tasks.push_back([&, s] {
        run_one(s);
        // Notify while holding the lock: once remaining reaches zero the
        // waiter may return and destroy `done`, so no task may touch it
        // after unlocking.
        std::lock_guard<std::mutex> lock(mu);
        if (--remaining == 0) done.notify_one();
      });
    }
    if (options_.executor->TrySubmitAll(std::move(tasks)).ok()) {
      std::unique_lock<std::mutex> lock(mu);
      done.wait(lock, [&] { return remaining == 0; });
      ran_parallel = true;
    }
    // Backpressure (or shutdown): fall through to the sequential fan-out —
    // identical bytes, no failure surfaced to the caller.
  }
  if (!ran_parallel) {
    for (int64_t s = 0; s < num_shards; ++s) run_one(s);
  }

  for (const Status& status : statuses) {
    if (!status.ok()) return status;
  }
  return parts;
}

Result<density::Kde> ShardCoordinator::BuildKde(
    const density::KdeOptions& options) const {
  int64_t total_rows = 0;
  DBS_ASSIGN_OR_RETURN(int64_t num_shards, ResolveShards(&total_rows));
  ShardFn<density::PartialKde> fit =
      [&options](data::DataScan& scan, const ShardInfo& info) {
        return density::Kde::FitPartial(scan, options, info);
      };
  DBS_ASSIGN_OR_RETURN(
      std::vector<density::PartialKde> parts,
      RunShards<density::PartialKde>(num_shards, total_rows, fit));
  DBS_ASSIGN_OR_RETURN(
      density::PartialKde merged,
      TreeReduce(std::move(parts),
                 [](density::PartialKde x, density::PartialKde y) {
                   return density::MergePartialKde(std::move(x),
                                                   std::move(y));
                 }));
  return density::FinalizeKde(std::move(merged), options);
}

Result<core::BiasedSample> ShardCoordinator::SampleTwoPass(
    const density::DensityEstimator& estimator,
    const core::BiasedSamplerOptions& options) const {
  int64_t total_rows = 0;
  DBS_ASSIGN_OR_RETURN(int64_t num_shards, ResolveShards(&total_rows));
  core::BiasedSamplerOptions shard_options = options;
  shard_options.executor = nullptr;  // per-shard work runs sequentially
  const core::BiasedSampler sampler(shard_options);

  // Round 1: exact normalizer.
  ShardFn<core::PartialNormalizer> normalize =
      [&](data::DataScan& scan, const ShardInfo& info) {
        return sampler.NormalizerPartial(scan, estimator, info);
      };
  DBS_ASSIGN_OR_RETURN(std::vector<core::PartialNormalizer> norm_parts,
                       RunShards<core::PartialNormalizer>(
                           num_shards, total_rows, normalize));
  DBS_ASSIGN_OR_RETURN(
      core::PartialNormalizer norm_merged,
      TreeReduce(std::move(norm_parts),
                 [](core::PartialNormalizer x, core::PartialNormalizer y) {
                   return core::MergePartialNormalizers(std::move(x),
                                                        std::move(y));
                 }));
  DBS_ASSIGN_OR_RETURN(double k_a,
                       sampler.FinalizeNormalizer(norm_merged));
  if (k_a <= 0) {
    return Status::Internal("normalizer k_a is not positive");
  }

  // Round 2: Bernoulli sampling against the global normalizer.
  ShardFn<core::PartialSample> draw =
      [&](data::DataScan& scan, const ShardInfo& info) {
        return sampler.SamplePartial(scan, estimator, k_a, info);
      };
  DBS_ASSIGN_OR_RETURN(
      std::vector<core::PartialSample> sample_parts,
      RunShards<core::PartialSample>(num_shards, total_rows, draw));
  DBS_ASSIGN_OR_RETURN(
      core::PartialSample sample_merged,
      TreeReduce(std::move(sample_parts),
                 [](core::PartialSample x, core::PartialSample y) {
                   return core::MergePartialSamples(std::move(x),
                                                    std::move(y));
                 }));
  return sampler.FinalizeSample(std::move(sample_merged), k_a);
}

Result<core::BiasedSample> ShardCoordinator::SampleOnePass(
    const density::Kde& kde,
    const core::BiasedSamplerOptions& options) const {
  if (options.target_size <= 0) {
    return Status::InvalidArgument("target_size must be positive");
  }
  int64_t total_rows = 0;
  DBS_ASSIGN_OR_RETURN(int64_t num_shards, ResolveShards(&total_rows));
  if (total_rows == 0) {
    return Status::InvalidArgument("cannot sample an empty dataset");
  }
  core::BiasedSamplerOptions shard_options = options;
  shard_options.executor = nullptr;
  const core::BiasedSampler sampler(shard_options);

  // k_a ~= n * E[f^a] from the kernel centers (no dataset pass). Evaluated
  // on the calling thread, where the coordinator's executor is safe to use;
  // MeanDensityPow is bitwise identical with or without one.
  const double k_a = static_cast<double>(total_rows) *
                     kde.MeanDensityPow(options.a, options_.executor);
  if (k_a <= 0) {
    return Status::Internal("estimated normalizer k_a is not positive");
  }

  ShardFn<core::PartialSample> draw =
      [&](data::DataScan& scan, const ShardInfo& info) {
        return sampler.SamplePartial(scan, kde, k_a, info);
      };
  DBS_ASSIGN_OR_RETURN(
      std::vector<core::PartialSample> sample_parts,
      RunShards<core::PartialSample>(num_shards, total_rows, draw));
  DBS_ASSIGN_OR_RETURN(
      core::PartialSample sample_merged,
      TreeReduce(std::move(sample_parts),
                 [](core::PartialSample x, core::PartialSample y) {
                   return core::MergePartialSamples(std::move(x),
                                                    std::move(y));
                 }));
  return sampler.FinalizeSample(std::move(sample_merged), k_a);
}

Result<outlier::OutlierReport> ShardCoordinator::DetectOutliers(
    const density::DensityEstimator& estimator,
    const outlier::DbOutlierParams& params,
    const outlier::KdeDetectorOptions& options) const {
  int64_t total_rows = 0;
  DBS_ASSIGN_OR_RETURN(int64_t num_shards, ResolveShards(&total_rows));
  outlier::KdeDetectorOptions shard_options = options;
  shard_options.executor = nullptr;

  // Round 1: score rows, keep likely outliers under global row indices.
  ShardFn<outlier::PartialOutlierCandidates> score =
      [&](data::DataScan& scan, const ShardInfo& info) {
        return outlier::ScoreOutlierCandidatesPartial(
            scan, estimator, params, shard_options, info);
      };
  DBS_ASSIGN_OR_RETURN(
      std::vector<outlier::PartialOutlierCandidates> cand_parts,
      RunShards<outlier::PartialOutlierCandidates>(num_shards, total_rows,
                                                   score));
  DBS_ASSIGN_OR_RETURN(
      outlier::PartialOutlierCandidates cand_merged,
      TreeReduce(std::move(cand_parts),
                 [&options](outlier::PartialOutlierCandidates x,
                            outlier::PartialOutlierCandidates y) {
                   return outlier::MergeOutlierCandidates(
                       std::move(x), std::move(y), options.max_candidates);
                 }));
  DBS_ASSIGN_OR_RETURN(
      outlier::OutlierCandidates candidates,
      outlier::FinalizeOutlierCandidates(std::move(cand_merged)));
  if (candidates.points.empty()) {
    outlier::OutlierReport report;
    report.candidates_checked = 0;
    report.passes = 1;
    return report;
  }

  // Round 2: exact neighbor tallies of the merged candidate set.
  ShardFn<outlier::PartialNeighborCounts> count =
      [&](data::DataScan& scan, const ShardInfo& info) {
        return outlier::CountCandidateNeighborsPartial(scan, candidates,
                                                       params, info);
      };
  DBS_ASSIGN_OR_RETURN(
      std::vector<outlier::PartialNeighborCounts> count_parts,
      RunShards<outlier::PartialNeighborCounts>(num_shards, total_rows,
                                                count));
  DBS_ASSIGN_OR_RETURN(
      outlier::PartialNeighborCounts count_merged,
      TreeReduce(std::move(count_parts),
                 [](outlier::PartialNeighborCounts x,
                    outlier::PartialNeighborCounts y) {
                   return outlier::MergeNeighborCounts(std::move(x),
                                                       std::move(y));
                 }));
  return outlier::FinalizeOutlierReport(candidates, count_merged, params);
}

}  // namespace dbs::shard
