// Scenario: fraud-style outlier hunting with parameter exploration.
//
// DB(p, k)-outlier detection needs a radius k and a neighbor bound p, and
// picking them blind is guesswork. The paper's estimator makes exploration
// cheap: ONE pass scores every point's expected neighbor count, so the
// analyst can table the estimated outlier count across a (p, k) grid, pick
// a setting, and only then pay for the verified detection (two passes).
//
// Build & run:  ./build/examples/outlier_hunt

#include <cstdio>

#include "density/kde.h"
#include "eval/report.h"
#include "outlier/cell_list.h"
#include "outlier/kde_detector.h"
#include "synth/generator.h"
#include "synth/outlier_planting.h"

int main() {
  // Transactions cluster around a handful of behavioral profiles; a few
  // records sit far from everything.
  dbs::synth::ClusteredDatasetOptions data_opts;
  data_opts.num_clusters = 6;
  data_opts.num_cluster_points = 60000;
  data_opts.noise_multiplier = 0.0;
  data_opts.seed = 5;
  auto dataset = dbs::synth::MakeClusteredDataset(data_opts);
  if (!dataset.ok()) return 1;

  dbs::synth::OutlierPlantingOptions plant_opts;
  plant_opts.count = 25;
  plant_opts.min_distance = 0.12;
  plant_opts.domain_lo = {-0.5, -0.5};
  plant_opts.domain_hi = {1.5, 1.5};
  plant_opts.seed = 9;
  auto planted = dbs::synth::PlantOutliers(dataset->points, plant_opts);
  if (!planted.ok()) {
    std::fprintf(stderr, "planting: %s\n",
                 planted.status().ToString().c_str());
    return 1;
  }
  std::printf("dataset: %lld points with %zu planted outliers\n",
              static_cast<long long>(dataset->points.size()),
              planted->size());

  // Estimator pass (shared by everything below). Outlier scoring integrates
  // the density over balls of radius ~0.05, so the kernel bandwidth must
  // resolve that scale: sharpen the normal-reference rule, which would
  // otherwise smear cluster mass well past the cluster edges and make
  // nearby isolated points look populated.
  dbs::density::KdeOptions kde_opts;
  kde_opts.num_kernels = 1000;
  kde_opts.bandwidth_scale = 0.25;
  auto kde = dbs::density::Kde::Fit(dataset->points, kde_opts);
  if (!kde.ok()) return 1;

  // Exploration: estimated outlier count across a (p, k) grid — one pass
  // per cell, no verification.
  dbs::eval::Table grid({"radius k", "p=0", "p=5", "p=20"});
  for (double radius : {0.02, 0.05, 0.1}) {
    std::vector<std::string> row{dbs::eval::Table::Num(radius, 2)};
    for (int64_t p : {0LL, 5LL, 20LL}) {
      dbs::outlier::DbOutlierParams params;
      params.radius = radius;
      params.max_neighbors = p;
      auto estimate = dbs::outlier::EstimateOutlierCount(
          dataset->points, *kde, params, dbs::outlier::KdeDetectorOptions{});
      row.push_back(estimate.ok() ? dbs::eval::Table::Int(*estimate) : "err");
    }
    grid.AddRow(row);
  }
  grid.Print("estimated DB(p,k)-outlier counts (one pass per cell)");

  // Detection at the chosen setting, verified.
  dbs::outlier::DbOutlierParams params;
  params.radius = 0.05;
  params.max_neighbors = 5;
  // A generous candidate slack keeps points that sit just outside a dense
  // cluster (where the smoothed density overstates their true neighbor
  // count) in the candidate set; verification stays cheap regardless.
  dbs::outlier::KdeDetectorOptions detector_opts;
  detector_opts.candidate_slack = 5.0;
  dbs::data::InMemoryScan scan(&dataset->points);
  auto report =
      dbs::outlier::DetectOutliersApproximate(scan, *kde, params,
                                              detector_opts);
  if (!report.ok()) {
    std::fprintf(stderr, "detector: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }

  // Compare against ground truth and the exact detector.
  auto exact = dbs::outlier::DetectOutliersCellList(dataset->points, params);
  if (!exact.ok()) return 1;
  int64_t planted_found = 0;
  for (int64_t idx : report->outlier_indices) {
    for (int64_t want : *planted) {
      if (idx == want) {
        ++planted_found;
        break;
      }
    }
  }
  std::printf(
      "\nverified detection at k=%.2f, p=%lld:\n"
      "  outliers reported:     %zu (exact detector agrees on %zu)\n"
      "  planted recovered:     %lld / %zu\n"
      "  candidates verified:   %lld of %lld points\n"
      "  dataset passes:        %d (+1 for the estimator)\n",
      params.radius, static_cast<long long>(params.max_neighbors),
      report->outlier_indices.size(), exact->outlier_indices.size(),
      static_cast<long long>(planted_found), planted->size(),
      static_cast<long long>(report->candidates_checked),
      static_cast<long long>(dataset->points.size()), report->passes);
  return 0;
}
