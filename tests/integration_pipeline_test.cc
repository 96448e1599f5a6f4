// End-to-end integration tests: small-scale versions of the paper's
// experiments, exercising the full module stack (synth -> density -> core
// -> cluster/outlier -> eval) the way the bench harness does, but sized to
// run in milliseconds so regressions in any cross-module contract surface
// in the unit suite.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "cluster/birch.h"
#include "cluster/dbscan.h"
#include "cluster/hierarchical.h"
#include "cluster/kmeans.h"
#include "core/biased_sampler.h"
#include "core/grid_biased_sampler.h"
#include "core/tuning.h"
#include "data/dataset_io.h"
#include "density/grid_density.h"
#include "density/kde.h"
#include "eval/cluster_match.h"
#include "outlier/cell_list.h"
#include "outlier/kde_detector.h"
#include "sampling/uniform_sampler.h"
#include "synth/cure_dataset.h"
#include "synth/generator.h"
#include "synth/geo.h"
#include "synth/outlier_planting.h"
#include "test_temp.h"
#include "util/rng.h"

namespace dbs {
namespace {

synth::ClusteredDataset MakeNoisy(double noise, double size_ratio,
                                  uint64_t seed, int dim = 2) {
  synth::ClusteredDatasetOptions opts;
  opts.dim = dim;
  opts.num_clusters = 5;
  opts.num_cluster_points = 20000;
  opts.size_ratio = size_ratio;
  opts.noise_multiplier = noise;
  opts.seed = seed;
  auto ds = synth::MakeClusteredDataset(opts);
  DBS_CHECK(ds.ok());
  return std::move(ds).value();
}

int BiasedPipelineFound(const synth::ClusteredDataset& ds, double a,
                        int64_t sample_size, double bandwidth_scale,
                        uint64_t seed) {
  density::KdeOptions kde_opts;
  kde_opts.num_kernels = 400;
  kde_opts.bandwidth_scale = bandwidth_scale;
  kde_opts.seed = seed;
  auto kde = density::Kde::Fit(ds.points, kde_opts);
  DBS_CHECK(kde.ok());
  core::BiasedSamplerOptions sampler_opts;
  sampler_opts.a = a;
  sampler_opts.target_size = sample_size;
  sampler_opts.seed = seed + 1;
  auto sample = core::BiasedSampler(sampler_opts).Run(ds.points, *kde);
  DBS_CHECK(sample.ok());
  cluster::HierarchicalOptions cluster_opts;
  cluster_opts.num_clusters = ds.truth.num_true_clusters();
  auto clustering = cluster::HierarchicalCluster(sample->points,
                                                 cluster_opts);
  DBS_CHECK(clustering.ok());
  return eval::MatchClusters(*clustering, ds.truth).num_found();
}

TEST(IntegrationTest, NoisePipelineBiasedBeatsUniform) {
  // Miniature Fig 4: at 60% noise and a 2.5% sample, a=1 biased sampling
  // keeps the clusters; uniform sampling loses most of them.
  synth::ClusteredDataset ds = MakeNoisy(0.6, 1.0, 11);
  int64_t sample_size = ds.points.size() / 40;

  int biased = BiasedPipelineFound(ds, 1.0, sample_size, 0.3, 21);
  EXPECT_GE(biased, 4);

  sampling::BernoulliSampleOptions uni_opts;
  uni_opts.target_size = sample_size;
  uni_opts.seed = 22;
  auto uniform = sampling::BernoulliSample(ds.points, uni_opts);
  ASSERT_TRUE(uniform.ok());
  cluster::HierarchicalOptions cluster_opts;
  cluster_opts.num_clusters = 5;
  auto clustering = cluster::HierarchicalCluster(*uniform, cluster_opts);
  ASSERT_TRUE(clustering.ok());
  int uniform_found =
      eval::MatchClusters(*clustering, ds.truth).num_found();
  EXPECT_GT(biased, uniform_found);
}

TEST(IntegrationTest, VariableDensityPipelineNegativeExponent) {
  // Miniature Fig 5: 10x density spread, small sample, a=-0.5 with the
  // smooth bandwidth regime recovers the clusters.
  synth::ClusteredDataset ds = MakeNoisy(0.1, 10.0, 13);
  int found = BiasedPipelineFound(ds, -0.5, 400, 1.0, 23);
  EXPECT_GE(found, 4);
}

TEST(IntegrationTest, CureDataset1Pipeline) {
  synth::CureDatasetOptions opts;
  opts.num_points = 30000;
  // The bench uses the hard default gaps to place the uniform/biased
  // crossover; the miniature integration check relaxes them so it stays
  // robust at 30% of the bench's scale.
  opts.ellipse_gap = 0.08;
  opts.circle_gap = 0.08;
  opts.seed = 3;
  auto ds = synth::MakeCureDataset1(opts);
  ASSERT_TRUE(ds.ok());
  int found = BiasedPipelineFound(*ds, 0.5, 800, 0.3, 25);
  EXPECT_EQ(found, 5);
}

TEST(IntegrationTest, GeoPipelineFindsMetros) {
  synth::GeoDatasetOptions opts;
  opts.num_points = 40000;
  opts.seed = 5;
  auto ds = synth::MakeNorthEastLike(opts);
  ASSERT_TRUE(ds.ok());
  density::KdeOptions kde_opts;
  kde_opts.num_kernels = 500;
  kde_opts.bandwidth_scale = 0.3;
  auto kde = density::Kde::Fit(ds->points, kde_opts);
  ASSERT_TRUE(kde.ok());
  core::BiasedSamplerOptions sampler_opts;
  sampler_opts.a = 1.0;
  sampler_opts.target_size = 500;
  auto sample = core::BiasedSampler(sampler_opts).Run(ds->points, *kde);
  ASSERT_TRUE(sample.ok());
  cluster::HierarchicalOptions cluster_opts;
  cluster_opts.num_clusters = 5;
  auto clustering = cluster::HierarchicalCluster(sample->points,
                                                 cluster_opts);
  ASSERT_TRUE(clustering.ok());
  EXPECT_EQ(eval::MatchClusters(*clustering, ds->truth).num_found(), 3);
}

TEST(IntegrationTest, BirchOnFullDataMatchesBudget) {
  synth::ClusteredDataset ds = MakeNoisy(0.1, 1.0, 17);
  cluster::BirchOptions opts;
  opts.num_clusters = 5;
  opts.tree.memory_budget_bytes = 16 * 1024;
  auto result = cluster::RunBirch(ds.points, opts);
  ASSERT_TRUE(result.ok());
  int found = eval::MatchBirchClusters(*result, ds.truth).num_found();
  EXPECT_GE(found, 3);
}

TEST(IntegrationTest, OutlierPipelineEndToEnd) {
  synth::ClusteredDataset ds = MakeNoisy(0.0, 1.0, 19);
  synth::OutlierPlantingOptions plant;
  plant.count = 8;
  plant.min_distance = 0.15;
  plant.domain_lo = {-0.5, -0.5};
  plant.domain_hi = {1.5, 1.5};
  plant.seed = 7;
  auto planted = synth::PlantOutliers(ds.points, plant);
  ASSERT_TRUE(planted.ok());

  density::KdeOptions kde_opts;
  kde_opts.num_kernels = 400;
  kde_opts.bandwidth_scale = 0.25;
  auto kde = density::Kde::Fit(ds.points, kde_opts);
  ASSERT_TRUE(kde.ok());

  outlier::DbOutlierParams params;
  params.radius = 0.05;
  params.max_neighbors = 3;
  outlier::KdeDetectorOptions detector_opts;
  detector_opts.candidate_slack = 5.0;

  data::InMemoryScan scan(&ds.points);
  auto approx = outlier::DetectOutliersApproximate(scan, *kde, params,
                                                   detector_opts);
  ASSERT_TRUE(approx.ok());
  auto exact = outlier::DetectOutliersCellList(ds.points, params);
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(approx->outlier_indices, exact->outlier_indices);
  EXPECT_LE(scan.passes(), 2);
  std::set<int64_t> found(approx->outlier_indices.begin(),
                          approx->outlier_indices.end());
  for (int64_t idx : *planted) EXPECT_TRUE(found.count(idx));
}

TEST(IntegrationTest, OutOfCorePipelineViaDatasetFile) {
  // The same biased-sampling pipeline, but streaming from disk: fit on a
  // FileScan, normalize and sample on the same FileScan, never holding the
  // dataset in memory. Exactly 3 passes total (fit + normalize + sample).
  synth::ClusteredDataset ds = MakeNoisy(0.2, 1.0, 23);
  std::string path = test::TempPath("pipeline.dbsf");
  ASSERT_TRUE(data::WriteDatasetFile(path, ds.points).ok());

  auto scan_result = data::FileScan::Open(path, 1000);
  ASSERT_TRUE(scan_result.ok());
  data::FileScan& scan = **scan_result;

  density::KdeOptions kde_opts;
  kde_opts.num_kernels = 300;
  kde_opts.bandwidth_scale = 0.3;
  auto kde = density::Kde::Fit(scan, kde_opts);
  ASSERT_TRUE(kde.ok());
  EXPECT_EQ(scan.passes(), 1);

  core::BiasedSamplerOptions sampler_opts;
  sampler_opts.a = 1.0;
  sampler_opts.target_size = 600;
  auto sample = core::BiasedSampler(sampler_opts).Run(scan, *kde);
  ASSERT_TRUE(sample.ok());
  EXPECT_EQ(scan.passes(), 3);
  EXPECT_NEAR(static_cast<double>(sample->size()), 600.0, 120.0);

  cluster::HierarchicalOptions cluster_opts;
  cluster_opts.num_clusters = 5;
  auto clustering = cluster::HierarchicalCluster(sample->points,
                                                 cluster_opts);
  ASSERT_TRUE(clustering.ok());
  EXPECT_GE(eval::MatchClusters(*clustering, ds.truth).num_found(), 4);
  std::remove(path.c_str());
}

TEST(IntegrationTest, GridSamplerPipeline) {
  // The [22]-style comparator end to end. Run WITHOUT noise: in low
  // dimensions a fine grid gives singleton noise cells an n_c^(e-1) = 1
  // boost that dwarfs every cluster cell, so noisy 2-D data drowns the
  // sample in noise — exactly the weakness the paper reports for the
  // grid-based method ("works well in lower dimensions and no noise").
  synth::ClusteredDataset ds = MakeNoisy(0.0, 10.0, 29);
  density::GridDensityOptions grid_opts;
  grid_opts.cells_per_dim = 48;
  auto grid = density::GridDensity::Fit(ds.points, grid_opts);
  ASSERT_TRUE(grid.ok());
  core::GridBiasedSamplerOptions sampler_opts;
  sampler_opts.e = -0.5;
  sampler_opts.target_size = 600;
  auto sample = core::GridBiasedSampler(sampler_opts).Run(ds.points, *grid);
  ASSERT_TRUE(sample.ok());
  cluster::HierarchicalOptions cluster_opts;
  cluster_opts.num_clusters = 5;
  auto clustering = cluster::HierarchicalCluster(sample->points,
                                                 cluster_opts);
  ASSERT_TRUE(clustering.ok());
  EXPECT_GE(eval::MatchClusters(*clustering, ds.truth).num_found(), 4);
}

TEST(IntegrationTest, DbscanOnBiasedSampleUnderNoise) {
  // a = 1 suppresses noise in the sample, so DBSCAN's absolute density
  // threshold separates the clusters cleanly even though the RAW data has
  // 60% noise. The epsilon is set from the sample geometry: ~2.5x the
  // expected in-cluster sample spacing.
  synth::ClusteredDatasetOptions data_opts;
  data_opts.num_clusters = 5;
  data_opts.num_cluster_points = 20000;
  // Similar extents keep the a=1 sample from concentrating in one
  // (denser) box, which would starve the others below DBSCAN's density
  // threshold.
  data_opts.min_extent = 0.10;
  data_opts.max_extent = 0.16;
  data_opts.noise_multiplier = 0.6;
  data_opts.seed = 43;
  auto ds_result = synth::MakeClusteredDataset(data_opts);
  ASSERT_TRUE(ds_result.ok());
  synth::ClusteredDataset& ds = *ds_result;
  density::KdeOptions kde_opts;
  kde_opts.num_kernels = 400;
  kde_opts.bandwidth_scale = 0.3;
  auto kde = density::Kde::Fit(ds.points, kde_opts);
  ASSERT_TRUE(kde.ok());
  core::BiasedSamplerOptions sampler_opts;
  sampler_opts.a = 1.0;
  sampler_opts.target_size = 1000;
  auto sample = core::BiasedSampler(sampler_opts).Run(ds.points, *kde);
  ASSERT_TRUE(sample.ok());

  cluster::DbscanOptions dbscan_opts;
  dbscan_opts.epsilon = 0.035;
  dbscan_opts.min_points = 4;
  auto clustering = cluster::DbscanCluster(sample->points, dbscan_opts);
  ASSERT_TRUE(clustering.ok());
  EXPECT_GE(eval::MatchClusters(*clustering, ds.truth).num_found(), 4);
}

TEST(IntegrationTest, WeightedKMeansOnBiasedSampleIsUnbiased) {
  // §3.1: weighting sample points by inverse inclusion probability makes
  // k-means on the sample estimate the full-data centroids. One elongated
  // density gradient cluster: an UNWEIGHTED biased sample (a=1) drags the
  // 1-means center toward the dense end; weights correct it.
  Rng rng(31);
  data::PointSet points(1);
  // Density rises linearly across [0, 1]: P(x) ~ x.
  for (int i = 0; i < 40000; ++i) {
    double x = std::sqrt(rng.NextDouble());
    points.Append(&x);
  }
  double true_mean = 0;
  for (int64_t i = 0; i < points.size(); ++i) true_mean += points[i][0];
  true_mean /= static_cast<double>(points.size());

  density::KdeOptions kde_opts;
  kde_opts.num_kernels = 400;
  auto kde = density::Kde::Fit(points, kde_opts);
  ASSERT_TRUE(kde.ok());
  core::BiasedSamplerOptions sampler_opts;
  sampler_opts.a = 1.0;
  sampler_opts.target_size = 4000;
  auto sample = core::BiasedSampler(sampler_opts).Run(points, *kde);
  ASSERT_TRUE(sample.ok());

  cluster::KMeansOptions km;
  km.num_clusters = 1;
  auto unweighted = cluster::KMeansCluster(sample->points, {}, km);
  auto weighted =
      cluster::KMeansCluster(sample->points, sample->Weights(), km);
  ASSERT_TRUE(unweighted.ok());
  ASSERT_TRUE(weighted.ok());
  double unweighted_err =
      std::abs(unweighted->clustering.clusters[0].centroid[0] - true_mean);
  double weighted_err =
      std::abs(weighted->clustering.clusters[0].centroid[0] - true_mean);
  // The biased sample noticeably shifts the unweighted mean; the weighted
  // mean lands close to the truth.
  EXPECT_GT(unweighted_err, 2 * weighted_err);
  EXPECT_LT(weighted_err, 0.02);
}

TEST(IntegrationTest, OnePassPipelineMatchesTwoPassQuality) {
  synth::ClusteredDataset ds = MakeNoisy(0.3, 1.0, 37);
  density::KdeOptions kde_opts;
  kde_opts.num_kernels = 400;
  kde_opts.bandwidth_scale = 0.3;
  auto kde = density::Kde::Fit(ds.points, kde_opts);
  ASSERT_TRUE(kde.ok());
  core::BiasedSamplerOptions sampler_opts;
  sampler_opts.a = 1.0;
  sampler_opts.target_size = 600;
  core::BiasedSampler sampler(sampler_opts);
  auto one_pass = sampler.RunOnePass(ds.points, *kde);
  ASSERT_TRUE(one_pass.ok());
  cluster::HierarchicalOptions cluster_opts;
  cluster_opts.num_clusters = 5;
  auto clustering = cluster::HierarchicalCluster(one_pass->points,
                                                 cluster_opts);
  ASSERT_TRUE(clustering.ok());
  EXPECT_GE(eval::MatchClusters(*clustering, ds.truth).num_found(), 4);
}

TEST(IntegrationTest, TuningPresetsDriveTheRightPipelines) {
  // The practitioner-guide presets produce working configurations.
  synth::ClusteredDataset noisy = MakeNoisy(0.5, 1.0, 41);
  auto opts = core::RecommendedOptions(
      core::SamplingGoal::kDenseClustersUnderNoise, noisy.points.size(), 1);
  EXPECT_EQ(opts.a, 1.0);
  density::KdeOptions kde_opts;
  kde_opts.num_kernels = core::RecommendedNumKernels();
  kde_opts.bandwidth_scale = 0.3;
  auto kde = density::Kde::Fit(noisy.points, kde_opts);
  ASSERT_TRUE(kde.ok());
  auto sample = core::BiasedSampler(opts).Run(noisy.points, *kde);
  ASSERT_TRUE(sample.ok());
  cluster::HierarchicalOptions cluster_opts;
  cluster_opts.num_clusters = 5;
  auto clustering = cluster::HierarchicalCluster(sample->points,
                                                 cluster_opts);
  ASSERT_TRUE(clustering.ok());
  EXPECT_GE(eval::MatchClusters(*clustering, noisy.truth).num_found(), 4);
}

}  // namespace
}  // namespace dbs
