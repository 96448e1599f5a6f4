#include "synth/generator.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "util/rng.h"

namespace dbs::synth {
namespace {

// True when boxes [a_lo, a_hi] and [b_lo, b_hi], each inflated by gap/2 on
// every side, overlap in every dimension (i.e. the originals are closer
// than `gap` apart).
bool BoxesOverlap(const std::vector<double>& a_lo,
                  const std::vector<double>& a_hi,
                  const std::vector<double>& b_lo,
                  const std::vector<double>& b_hi, double gap) {
  for (size_t j = 0; j < a_lo.size(); ++j) {
    if (a_hi[j] + gap < b_lo[j] || b_hi[j] + gap < a_lo[j]) return false;
  }
  return true;
}

}  // namespace

std::vector<int64_t> ClusterPointCounts(int num_clusters, int64_t total,
                                        double size_ratio) {
  DBS_CHECK(num_clusters > 0);
  DBS_CHECK(total >= num_clusters);
  DBS_CHECK(size_ratio >= 1.0);
  // Geometric progression from 1 down to 1/size_ratio, normalized to total.
  std::vector<double> raw(num_clusters);
  double sum = 0.0;
  for (int c = 0; c < num_clusters; ++c) {
    double t = num_clusters > 1
                   ? static_cast<double>(c) / (num_clusters - 1)
                   : 0.0;
    raw[c] = std::pow(size_ratio, -t);
    sum += raw[c];
  }
  std::vector<int64_t> counts(num_clusters);
  int64_t assigned = 0;
  for (int c = 0; c < num_clusters; ++c) {
    counts[c] = std::max<int64_t>(
        1, static_cast<int64_t>(raw[c] / sum * static_cast<double>(total)));
    assigned += counts[c];
  }
  // Distribute the rounding remainder onto the largest cluster.
  counts[0] += total - assigned;
  DBS_CHECK(counts[0] >= 1);
  return counts;
}

[[nodiscard]] Result<ClusteredDataset> MakeClusteredDataset(
    const ClusteredDatasetOptions& options) {
  if (options.dim <= 0) {
    return Status::InvalidArgument("dim must be positive");
  }
  if (options.num_clusters <= 0) {
    return Status::InvalidArgument("num_clusters must be positive");
  }
  if (options.num_cluster_points < options.num_clusters) {
    return Status::InvalidArgument("need at least one point per cluster");
  }
  if (options.size_ratio < 1.0) {
    return Status::InvalidArgument("size_ratio must be >= 1");
  }
  if (options.min_extent <= 0 || options.max_extent > 1 ||
      options.min_extent > options.max_extent) {
    return Status::InvalidArgument("invalid extent range");
  }
  if (options.noise_multiplier < 0) {
    return Status::InvalidArgument("noise_multiplier cannot be negative");
  }
  if (options.min_separation < 0) {
    return Status::InvalidArgument("min_separation cannot be negative");
  }

  Rng rng(options.seed);
  const int d = options.dim;

  // Place non-overlapping boxes by rejection, shrinking the extents each
  // time placement stalls. Once the extents sit at their floors, the boxes
  // already placed can leave no gap a new one fits (random placement jams
  // a line easily), so after a fixed number of stalled rounds there the
  // generator gives up instead of retrying forever.
  constexpr int kMaxRoundsAtFloor = 1000;
  std::vector<std::vector<double>> los;
  std::vector<std::vector<double>> his;
  double max_extent = options.max_extent;
  double min_extent = options.min_extent;
  int stalls = 0;
  int rounds_at_floor = 0;
  while (static_cast<int>(los.size()) < options.num_clusters) {
    std::vector<double> lo(d);
    std::vector<double> hi(d);
    for (int j = 0; j < d; ++j) {
      double extent = rng.NextDouble(min_extent, max_extent);
      double start = rng.NextDouble(0.0, 1.0 - extent);
      lo[j] = start;
      hi[j] = start + extent;
    }
    bool overlaps = false;
    for (size_t c = 0; c < los.size() && !overlaps; ++c) {
      overlaps = BoxesOverlap(lo, hi, los[c], his[c],
                              options.min_separation);
    }
    if (overlaps) {
      if (++stalls > 200) {
        // Too crowded at this size; shrink and retry.
        const double shrunk_max = std::max(min_extent, max_extent * 0.8);
        const double shrunk_min = std::max(0.005, min_extent * 0.8);
        if (shrunk_max == max_extent && shrunk_min == min_extent &&
            ++rounds_at_floor > kMaxRoundsAtFloor) {
          return Status::InvalidArgument(
              "cannot place " + std::to_string(options.num_clusters) +
              " separated clusters in " + std::to_string(d) +
              "-D: placed " + std::to_string(los.size()) +
              " before the space jammed; use fewer clusters or a smaller "
              "min_separation");
        }
        max_extent = shrunk_max;
        min_extent = shrunk_min;
        stalls = 0;
      }
      continue;
    }
    stalls = 0;
    los.push_back(std::move(lo));
    his.push_back(std::move(hi));
  }

  ClusteredDataset out;
  out.points = data::PointSet(d);
  std::vector<int64_t> counts = ClusterPointCounts(
      options.num_clusters, options.num_cluster_points, options.size_ratio);
  int64_t noise_count = static_cast<int64_t>(
      options.noise_multiplier *
      static_cast<double>(options.num_cluster_points));
  out.points.Reserve(options.num_cluster_points + noise_count);

  std::vector<double> buf(d);
  for (int c = 0; c < options.num_clusters; ++c) {
    out.truth.regions.push_back(Region::Box(los[c], his[c]));
    for (int64_t i = 0; i < counts[c]; ++i) {
      for (int j = 0; j < d; ++j) {
        buf[j] = rng.NextDouble(los[c][j], his[c][j]);
      }
      out.points.Append(buf);
      out.truth.labels.push_back(c);
    }
  }
  for (int64_t i = 0; i < noise_count; ++i) {
    for (int j = 0; j < d; ++j) buf[j] = rng.NextDouble();
    out.points.Append(buf);
    out.truth.labels.push_back(-1);
  }
  if (options.shuffle) {
    std::vector<int64_t> order(static_cast<size_t>(out.points.size()));
    for (int64_t i = 0; i < out.points.size(); ++i) order[i] = i;
    rng.Shuffle(order);
    out.points = out.points.Gather(order);
    std::vector<int32_t> labels(order.size());
    for (size_t i = 0; i < order.size(); ++i) {
      labels[i] = out.truth.labels[static_cast<size_t>(order[i])];
    }
    out.truth.labels = std::move(labels);
  }
  return out;
}

}  // namespace dbs::synth
