// The workloads' synthetic data, after the paper's §4.1 generator: 10
// hyper-rectangle clusters with uniform interiors plus 10% uniform noise in
// [0,1]^dim.
//
// The box layout is fixed: boxes sit in distinct cells of a grid, with
// extents and offsets drawn once from a constant layout seed, so they never
// touch. Only the points come from the run's seed. Every seed therefore
// asks the pipelines for the same kind and amount of work, and run-to-run
// differences measure the code rather than the geometry a seed happened to
// draw.

#include <algorithm>
#include <numeric>
#include <vector>

#include "bench.h"
#include "synth/generator.h"
#include "util/rng.h"

namespace perfbench {
namespace {

constexpr int kClusters = 10;
constexpr uint64_t kLayoutSeed = 1;
constexpr double kMinExtent = 0.08;
constexpr double kMaxExtent = 0.25;
// Gap kept between a box and the walls of its grid cell.
constexpr double kMargin = 0.025;

}  // namespace

Synthetic MakeSynthetic(int dim, int64_t cluster_points, uint64_t seed,
                        bool shuffle) {
  // Smallest grid, grown one dimension at a time, with a cell per cluster.
  std::vector<int64_t> cells(static_cast<size_t>(dim), 1);
  int64_t num_cells = 1;
  for (size_t j = 0; num_cells < kClusters; j = (j + 1) % cells.size()) {
    num_cells = num_cells / cells[j] * (cells[j] + 1);
    ++cells[j];
  }
  dbs::Rng layout(kLayoutSeed);
  std::vector<int64_t> slots(static_cast<size_t>(num_cells));
  std::iota(slots.begin(), slots.end(), 0);
  layout.Shuffle(slots);

  Synthetic out;
  std::vector<std::vector<double>> los;
  std::vector<std::vector<double>> his;
  for (int c = 0; c < kClusters; ++c) {
    int64_t slot = slots[static_cast<size_t>(c)];
    std::vector<double> lo(static_cast<size_t>(dim));
    std::vector<double> hi(static_cast<size_t>(dim));
    for (size_t j = 0; j < lo.size(); ++j) {
      const int64_t index = slot % cells[j];
      slot /= cells[j];
      const double width = 1.0 / static_cast<double>(cells[j]);
      const double room = width - 2 * kMargin;
      const double extent =
          layout.NextDouble(kMinExtent, std::min(kMaxExtent, room));
      lo[j] = static_cast<double>(index) * width + kMargin +
              layout.NextDouble() * (room - extent);
      hi[j] = lo[j] + extent;
    }
    out.regions.push_back(dbs::synth::Region::Box(lo, hi));
    los.push_back(std::move(lo));
    his.push_back(std::move(hi));
  }

  dbs::Rng rng(seed);
  const std::vector<int64_t> counts =
      dbs::synth::ClusterPointCounts(kClusters, cluster_points, 1.0);
  const int64_t noise = cluster_points / 10;
  out.points = dbs::data::PointSet(dim);
  out.points.Reserve(cluster_points + noise);
  std::vector<double> row(static_cast<size_t>(dim));
  for (int c = 0; c < kClusters; ++c) {
    for (int64_t i = 0; i < counts[static_cast<size_t>(c)]; ++i) {
      for (size_t j = 0; j < row.size(); ++j) {
        row[j] = rng.NextDouble(los[static_cast<size_t>(c)][j],
                                his[static_cast<size_t>(c)][j]);
      }
      out.points.Append(row);
    }
  }
  for (int64_t i = 0; i < noise; ++i) {
    for (double& x : row) x = rng.NextDouble();
    out.points.Append(row);
  }
  if (shuffle) {
    std::vector<int64_t> order(static_cast<size_t>(out.points.size()));
    std::iota(order.begin(), order.end(), 0);
    rng.Shuffle(order);
    out.points = out.points.Gather(order);
  }
  return out;
}

}  // namespace perfbench
