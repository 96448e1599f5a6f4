// Synthetic clustered datasets (paper §4.1).
//
// Clusters are hyper-rectangles with uniformly distributed interiors; the
// generator controls their count, size variation (number of points) and
// density variation, then adds `noise_multiplier * |clusters|` uniform
// noise points over the whole domain — the paper's "fn = l noise" knob,
// swept from 5% to 80% in Figs 4-6. The generated GroundTruth feeds the
// eval::FoundClusters metric.

#ifndef DBS_SYNTH_GENERATOR_H_
#define DBS_SYNTH_GENERATOR_H_

#include <cstdint>
#include <vector>

#include "data/point_set.h"
#include "synth/cluster_spec.h"
#include "util/status.h"

namespace dbs::synth {

struct ClusteredDatasetOptions {
  int dim = 2;
  int num_clusters = 10;
  // Points across all clusters (before noise).
  int64_t num_cluster_points = 100000;
  // Largest-to-smallest cluster point-count ratio. 1 = equal sizes; the
  // paper's variable-density experiments use 10.
  double size_ratio = 1.0;
  // Per-dimension cluster extent range, as a fraction of the unit domain.
  double min_extent = 0.08;
  double max_extent = 0.25;
  // Minimum gap kept between any two cluster boxes on every dimension they
  // would otherwise touch on, so distinct clusters stay separable.
  double min_separation = 0.05;
  // Noise points = noise_multiplier * num_cluster_points, uniform over the
  // domain (the paper's fn).
  double noise_multiplier = 0.0;
  // Emit points in random order instead of cluster-by-cluster (labels are
  // permuted consistently). Streaming consumers need this; batch consumers
  // are order-insensitive.
  bool shuffle = false;
  uint64_t seed = 1;
};

struct ClusteredDataset {
  data::PointSet points;
  GroundTruth truth;
};

// Generates non-overlapping hyper-rectangle clusters plus uniform noise in
// [0,1]^dim. Points are emitted cluster by cluster, noise last; labels in
// `truth` follow the same order. Cluster boxes are placed at random, kept
// min_separation apart, and shrink when placement stalls; InvalidArgument
// when the boxes placed so far leave no room for the rest even at the
// smallest extent (e.g. 10 clusters in 1-D at the default separation).
[[nodiscard]] Result<ClusteredDataset> MakeClusteredDataset(
    const ClusteredDatasetOptions& options);

// Point counts per cluster implied by the options: geometric interpolation
// between the largest and smallest so densities vary smoothly (exposed for
// tests and benches).
std::vector<int64_t> ClusterPointCounts(int num_clusters, int64_t total,
                                        double size_ratio);

}  // namespace dbs::synth

#endif  // DBS_SYNTH_GENERATOR_H_
