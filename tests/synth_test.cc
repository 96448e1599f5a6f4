#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "data/distance.h"
#include "synth/cluster_spec.h"
#include "synth/cure_dataset.h"
#include "synth/generator.h"
#include "synth/geo.h"
#include "synth/outlier_planting.h"
#include "util/rng.h"

namespace dbs::synth {
namespace {

using data::PointSet;
using data::PointView;

TEST(RegionTest, BoxContainment) {
  Region box = Region::Box({0.0, 0.0}, {1.0, 2.0});
  PointSet ps(2, {0.5, 1.0, 0.05, 1.0, 1.2, 1.0});
  EXPECT_TRUE(box.ContainsInterior(ps[0]));
  EXPECT_TRUE(box.ContainsInterior(ps[1]));
  EXPECT_FALSE(box.ContainsInterior(ps[2]));
  // 10% margin excludes points within 0.1 of the x faces.
  EXPECT_TRUE(box.ContainsInterior(ps[0], 0.1));
  EXPECT_FALSE(box.ContainsInterior(ps[1], 0.1));
  EXPECT_DOUBLE_EQ(box.Volume(), 2.0);
  EXPECT_EQ(box.Center(), (std::vector<double>{0.5, 1.0}));
}

TEST(RegionTest, BallContainment) {
  Region ball = Region::Ball({0.5, 0.5}, 0.2);
  PointSet ps(2, {0.5, 0.5, 0.65, 0.5, 0.71, 0.5});
  EXPECT_TRUE(ball.ContainsInterior(ps[0]));
  EXPECT_TRUE(ball.ContainsInterior(ps[1]));
  EXPECT_FALSE(ball.ContainsInterior(ps[2]));
  // Margin shrinks the radius: 0.15 from center fails at 30% margin.
  EXPECT_FALSE(ball.ContainsInterior(ps[1], 0.3));
  EXPECT_NEAR(ball.Volume(), M_PI * 0.04, 1e-12);
}

TEST(RegionTest, EllipsoidContainment) {
  Region e = Region::Ellipsoid({0.5, 0.5}, {0.2, 0.05});
  PointSet ps(2, {0.65, 0.5, 0.5, 0.54, 0.65, 0.54});
  EXPECT_TRUE(e.ContainsInterior(ps[0]));
  EXPECT_TRUE(e.ContainsInterior(ps[1]));
  EXPECT_FALSE(e.ContainsInterior(ps[2]));
  EXPECT_NEAR(e.Volume(), M_PI * 0.2 * 0.05, 1e-12);
}

TEST(ClusterPointCountsTest, EqualSizes) {
  auto counts = ClusterPointCounts(4, 1000, 1.0);
  ASSERT_EQ(counts.size(), 4u);
  int64_t total = 0;
  for (int64_t c : counts) total += c;
  EXPECT_EQ(total, 1000);
  for (int64_t c : counts) {
    EXPECT_NEAR(static_cast<double>(c), 250.0, 1.0);
  }
}

TEST(ClusterPointCountsTest, SizeRatioIsRespected) {
  auto counts = ClusterPointCounts(10, 100000, 10.0);
  int64_t total = 0;
  for (int64_t c : counts) total += c;
  EXPECT_EQ(total, 100000);
  // Largest / smallest ~ 10.
  EXPECT_NEAR(static_cast<double>(counts.front()) /
                  static_cast<double>(counts.back()),
              10.0, 1.5);
  EXPECT_TRUE(std::is_sorted(counts.rbegin(), counts.rend()));
}

TEST(GeneratorTest, RejectsBadOptions) {
  ClusteredDatasetOptions bad;
  bad.num_clusters = 0;
  EXPECT_FALSE(MakeClusteredDataset(bad).ok());
  ClusteredDatasetOptions bad_extent;
  bad_extent.min_extent = 0.5;
  bad_extent.max_extent = 0.1;
  EXPECT_FALSE(MakeClusteredDataset(bad_extent).ok());
  ClusteredDatasetOptions bad_noise;
  bad_noise.noise_multiplier = -1;
  EXPECT_FALSE(MakeClusteredDataset(bad_noise).ok());
}

TEST(GeneratorTest, PointsMatchLabelsAndRegions) {
  ClusteredDatasetOptions opts;
  opts.num_clusters = 8;
  opts.num_cluster_points = 20000;
  opts.noise_multiplier = 0.3;
  opts.seed = 3;
  auto ds = MakeClusteredDataset(opts);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->truth.regions.size(), 8u);
  EXPECT_EQ(ds->points.size(), 20000 + 6000);
  ASSERT_EQ(ds->truth.labels.size(), static_cast<size_t>(ds->points.size()));
  EXPECT_EQ(ds->truth.num_noise(), 6000);
  // Every labeled point lies inside its region.
  for (int64_t i = 0; i < ds->points.size(); ++i) {
    int32_t label = ds->truth.labels[i];
    if (label < 0) continue;
    EXPECT_TRUE(ds->truth.regions[label].ContainsInterior(ds->points[i]))
        << "point " << i;
  }
}

TEST(GeneratorTest, ClustersDoNotOverlap) {
  ClusteredDatasetOptions opts;
  opts.num_clusters = 10;
  opts.num_cluster_points = 1000;
  opts.seed = 4;
  auto ds = MakeClusteredDataset(opts);
  ASSERT_TRUE(ds.ok());
  // No region center lies inside another region.
  for (size_t a = 0; a < ds->truth.regions.size(); ++a) {
    std::vector<double> center = ds->truth.regions[a].Center();
    PointView c(center.data(), 2);
    for (size_t b = 0; b < ds->truth.regions.size(); ++b) {
      if (a == b) continue;
      EXPECT_FALSE(ds->truth.regions[b].ContainsInterior(c));
    }
  }
}

TEST(GeneratorTest, DeterministicPerSeed) {
  ClusteredDatasetOptions opts;
  opts.num_cluster_points = 5000;
  opts.seed = 5;
  auto a = MakeClusteredDataset(opts);
  auto b = MakeClusteredDataset(opts);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->points.size(), b->points.size());
  for (int64_t i = 0; i < a->points.size(); ++i) {
    EXPECT_EQ(a->points[i][0], b->points[i][0]);
  }
}

TEST(GeneratorTest, HighDimensionalGeneration) {
  ClusteredDatasetOptions opts;
  opts.dim = 5;
  opts.num_clusters = 10;
  opts.num_cluster_points = 5000;
  opts.seed = 6;
  auto ds = MakeClusteredDataset(opts);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->points.dim(), 5);
  EXPECT_EQ(ds->truth.regions.size(), 10u);
}

// Ten clusters kept 0.05 apart jam a line: random placement leaves gaps
// too narrow for the rest even at the smallest extent. Generation must
// end with InvalidArgument rather than retry forever; five clusters fit.
TEST(GeneratorTest, JammedOneDimensionalPlacementFails) {
  ClusteredDatasetOptions opts;
  opts.dim = 1;
  opts.num_cluster_points = 30000;
  opts.noise_multiplier = 0.1;
  for (uint64_t seed : {1, 2}) {
    opts.seed = seed;
    auto ds = MakeClusteredDataset(opts);
    ASSERT_FALSE(ds.ok()) << seed;
    EXPECT_EQ(ds.status().code(), StatusCode::kInvalidArgument) << seed;
  }
  opts.num_clusters = 5;
  opts.seed = 1;
  auto five = MakeClusteredDataset(opts);
  ASSERT_TRUE(five.ok());
  EXPECT_EQ(five->truth.regions.size(), 5u);
}

TEST(CureDatasetTest, FiveClustersWithBigDominating) {
  CureDatasetOptions opts;
  opts.num_points = 50000;
  auto ds = MakeCureDataset1(opts);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->truth.regions.size(), 5u);
  // Count per label; the big circle (label 0) holds about half the data.
  std::vector<int64_t> counts(5, 0);
  for (int32_t l : ds->truth.labels) {
    ASSERT_GE(l, 0);
    ++counts[l];
  }
  EXPECT_GT(counts[0], 2 * counts[1]);
  EXPECT_GT(counts[1], counts[3]);
  // Every point lies inside its labeled region.
  for (int64_t i = 0; i < ds->points.size(); ++i) {
    EXPECT_TRUE(ds->truth.regions[ds->truth.labels[i]].ContainsInterior(
        ds->points[i]));
  }
}

TEST(CureDatasetTest, NoiseOption) {
  CureDatasetOptions opts;
  opts.num_points = 10000;
  opts.noise_multiplier = 0.5;
  auto ds = MakeCureDataset1(opts);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->truth.num_noise(), 5000);
}

TEST(GeoTest, NorthEastHasThreeDenseMetros) {
  GeoDatasetOptions opts;
  opts.num_points = 40000;
  auto ds = MakeNorthEastLike(opts);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->truth.regions.size(), 3u);
  EXPECT_EQ(ds->points.size(), 40000);  // shares sum to 1.0 of n
  // Metro points form a large minority; plenty of noise.
  int64_t noise = ds->truth.num_noise();
  EXPECT_GT(noise, ds->points.size() / 3);
  EXPECT_LT(noise, ds->points.size() * 2 / 3);
  // Metro regions are dense: each holds >= 10% of the points within ~3% of
  // the domain area.
  for (size_t r = 0; r < 3; ++r) {
    int64_t inside = 0;
    for (int64_t i = 0; i < ds->points.size(); ++i) {
      if (ds->truth.regions[r].ContainsInterior(ds->points[i])) ++inside;
    }
    EXPECT_GT(inside, ds->points.size() / 10) << "metro " << r;
  }
}

TEST(GeoTest, CaliforniaDefaultsToPaperSize) {
  GeoDatasetOptions opts;  // default 130000 -> substituted to 62553
  auto ds = MakeCaliforniaLike(opts);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->truth.regions.size(), 2u);
  EXPECT_GT(ds->points.size(), 60000);
  EXPECT_LE(ds->points.size(), 62553);
}

TEST(PlantOutliersTest, PlantedPointsAreIsolated) {
  dbs::Rng rng(7);
  PointSet ps(2);
  for (int i = 0; i < 5000; ++i) {
    ps.Append(std::vector<double>{rng.NextDouble(0.3, 0.7),
                                  rng.NextDouble(0.3, 0.7)});
  }
  OutlierPlantingOptions opts;
  opts.count = 12;
  opts.min_distance = 0.05;
  opts.domain_lo = {-1.0, -1.0};
  opts.domain_hi = {2.0, 2.0};
  auto planted = PlantOutliers(ps, opts);
  ASSERT_TRUE(planted.ok());
  ASSERT_EQ(planted->size(), 12u);
  EXPECT_EQ(ps.size(), 5012);
  // Verify isolation by brute force.
  for (int64_t idx : *planted) {
    for (int64_t j = 0; j < ps.size(); ++j) {
      if (j == idx) continue;
      EXPECT_GE(data::Distance(ps[idx], ps[j]), opts.min_distance * 0.999);
    }
  }
}

TEST(PlantOutliersTest, FailsWhenDomainTooTight) {
  PointSet ps(2);
  dbs::Rng rng(8);
  for (int i = 0; i < 2000; ++i) {
    ps.Append(std::vector<double>{rng.NextDouble(), rng.NextDouble()});
  }
  OutlierPlantingOptions opts;
  opts.count = 5;
  opts.min_distance = 0.5;  // impossible inside [0,1]^2 packed with points
  opts.max_attempts = 2000;
  auto planted = PlantOutliers(ps, opts);
  EXPECT_FALSE(planted.ok());
  EXPECT_EQ(planted.status().code(), dbs::StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace dbs::synth
