#include "core/biased_sampler.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "data/point_set.h"
#include "density/grid_density.h"
#include "density/kde.h"
#include "util/rng.h"
#include "util/stats.h"

namespace dbs::core {
namespace {

using data::PointSet;
using data::PointView;

// A dense blob (0.2, 0.2), a sparse blob (0.8, 0.8), uniform noise.
struct Workload {
  PointSet points{2};
  int64_t n_dense = 0;
  int64_t n_sparse = 0;
  int64_t n_noise = 0;
};

Workload MakeWorkload(int64_t n_dense, int64_t n_sparse, int64_t n_noise,
                      uint64_t seed) {
  dbs::Rng rng(seed);
  Workload w;
  w.n_dense = n_dense;
  w.n_sparse = n_sparse;
  w.n_noise = n_noise;
  for (int64_t i = 0; i < n_dense; ++i) {
    w.points.Append(std::vector<double>{rng.NextGaussian(0.2, 0.015),
                                        rng.NextGaussian(0.2, 0.015)});
  }
  for (int64_t i = 0; i < n_sparse; ++i) {
    w.points.Append(std::vector<double>{rng.NextGaussian(0.8, 0.05),
                                        rng.NextGaussian(0.8, 0.05)});
  }
  for (int64_t i = 0; i < n_noise; ++i) {
    w.points.Append(std::vector<double>{rng.NextDouble(), rng.NextDouble()});
  }
  return w;
}

bool InBlob(PointView p, double cx, double r) {
  double dx = p[0] - cx;
  double dy = p[1] - cx;
  return dx * dx + dy * dy < r * r;
}

density::Kde FitKde(const PointSet& ps, uint64_t seed = 1) {
  density::KdeOptions opts;
  opts.num_kernels = 500;
  opts.seed = seed;
  auto kde = density::Kde::Fit(ps, opts);
  DBS_CHECK(kde.ok());
  return std::move(kde).value();
}

TEST(BiasedSamplerTest, RejectsBadArguments) {
  Workload w = MakeWorkload(1000, 0, 0, 1);
  density::Kde kde = FitKde(w.points);

  BiasedSamplerOptions bad;
  bad.target_size = 0;
  EXPECT_FALSE(BiasedSampler(bad).Run(w.points, kde).ok());

  PointSet empty(2);
  BiasedSamplerOptions opts;
  EXPECT_FALSE(BiasedSampler(opts).Run(empty, kde).ok());

  PointSet wrong_dim(3, {0.0, 0.0, 0.0});
  EXPECT_FALSE(BiasedSampler(opts).Run(wrong_dim, kde).ok());
}

// Property 2: expected sample size is b — sweep a over the regimes.
class SampleSizeTest : public ::testing::TestWithParam<double> {};

TEST_P(SampleSizeTest, ExpectedSizeIsTarget) {
  double a = GetParam();
  Workload w = MakeWorkload(6000, 2000, 2000, 2);
  density::Kde kde = FitKde(w.points);
  dbs::OnlineMoments sizes;
  for (uint64_t seed = 0; seed < 8; ++seed) {
    BiasedSamplerOptions opts;
    opts.a = a;
    opts.target_size = 800;
    opts.seed = seed;
    auto s = BiasedSampler(opts).Run(w.points, kde);
    ASSERT_TRUE(s.ok());
    sizes.Add(static_cast<double>(s->size()));
  }
  // Bernoulli noise: sd <= sqrt(b); allow clamping slack for extreme a.
  EXPECT_NEAR(sizes.mean(), 800.0, 80.0) << "a=" << a;
}

INSTANTIATE_TEST_SUITE_P(Exponents, SampleSizeTest,
                         ::testing::Values(-1.0, -0.5, -0.25, 0.0, 0.5, 1.0));

TEST(BiasedSamplerTest, ZeroExponentMatchesUniformProbabilities) {
  Workload w = MakeWorkload(3000, 1000, 1000, 3);
  density::Kde kde = FitKde(w.points);
  BiasedSamplerOptions opts;
  opts.a = 0.0;
  opts.target_size = 500;
  auto s = BiasedSampler(opts).Run(w.points, kde);
  ASSERT_TRUE(s.ok());
  // With a = 0, k_0 = n and every inclusion probability is b/n.
  double expected = 500.0 / 5000.0;
  EXPECT_NEAR(s->normalizer, 5000.0, 1e-6);
  for (double p : s->inclusion_probs) {
    EXPECT_NEAR(p, expected, 1e-12);
  }
}

TEST(BiasedSamplerTest, PositiveExponentOversamplesDenseRegions) {
  // 8000 points in one tight cluster vs 2000 uniform noise: with a = 1 the
  // cluster must claim well beyond its 80% share of the sample.
  Workload w = MakeWorkload(8000, 0, 2000, 4);
  density::Kde kde = FitKde(w.points);
  BiasedSamplerOptions opts;
  opts.a = 1.0;
  opts.target_size = 1000;
  auto s = BiasedSampler(opts).Run(w.points, kde);
  ASSERT_TRUE(s.ok());
  int64_t dense = 0;
  for (int64_t i = 0; i < s->size(); ++i) {
    if (InBlob(s->points[i], 0.2, 0.1)) ++dense;
  }
  double dense_frac =
      static_cast<double>(dense) / static_cast<double>(s->size());
  EXPECT_GT(dense_frac, 0.93);
}

TEST(BiasedSamplerTest, BandwidthScaleResolvesEqualMassBlobs) {
  // Equal-mass blobs of very different spreads defeat the raw Scott rule
  // (the kernel support exceeds both blobs, so their peaks look alike); a
  // sharpened bandwidth recovers the density contrast that a = 1 needs.
  Workload w = MakeWorkload(5000, 5000, 0, 14);
  density::KdeOptions kopts;
  kopts.num_kernels = 500;
  kopts.bandwidth_scale = 0.2;
  auto kde = density::Kde::Fit(w.points, kopts);
  ASSERT_TRUE(kde.ok());
  BiasedSamplerOptions opts;
  opts.a = 1.0;
  opts.target_size = 1000;
  auto s = BiasedSampler(opts).Run(w.points, *kde);
  ASSERT_TRUE(s.ok());
  int64_t dense = 0;
  int64_t sparse = 0;
  for (int64_t i = 0; i < s->size(); ++i) {
    if (InBlob(s->points[i], 0.2, 0.1)) ++dense;
    if (InBlob(s->points[i], 0.8, 0.2)) ++sparse;
  }
  EXPECT_GT(dense, 2 * sparse);
}

TEST(BiasedSamplerTest, NegativeExponentOversamplesSparseRegions) {
  Workload w = MakeWorkload(9000, 1000, 0, 5);
  density::Kde kde = FitKde(w.points);
  BiasedSamplerOptions opts;
  opts.a = -0.5;
  opts.target_size = 1000;
  auto s = BiasedSampler(opts).Run(w.points, kde);
  ASSERT_TRUE(s.ok());
  int64_t sparse = 0;
  for (int64_t i = 0; i < s->size(); ++i) {
    if (InBlob(s->points[i], 0.8, 0.2)) ++sparse;
  }
  // The sparse blob is 10% of the data; a = -0.5 must boost it well above
  // its uniform share of the sample.
  double sparse_frac = static_cast<double>(sparse) /
                       static_cast<double>(s->size());
  EXPECT_GT(sparse_frac, 0.2);
}

TEST(BiasedSamplerTest, Lemma1RelativeDensitiesPreservedForAGreaterMinusOne) {
  // Region A (dense blob) has higher density than region B (sparse blob).
  // For a > -1 the sampled counts must preserve that ordering w.h.p.
  Workload w = MakeWorkload(8000, 2000, 0, 6);
  density::Kde kde = FitKde(w.points);
  for (double a : {-0.5, -0.25, 0.5, 1.0}) {
    BiasedSamplerOptions opts;
    opts.a = a;
    opts.target_size = 1500;
    opts.seed = 11;
    auto s = BiasedSampler(opts).Run(w.points, kde);
    ASSERT_TRUE(s.ok());
    int64_t in_a = 0;
    int64_t in_b = 0;
    for (int64_t i = 0; i < s->size(); ++i) {
      if (InBlob(s->points[i], 0.2, 0.06)) ++in_a;
      if (InBlob(s->points[i], 0.8, 0.06)) ++in_b;
    }
    // Same-size regions: the denser one keeps more sampled points.
    EXPECT_GT(in_a, in_b) << "a=" << a;
  }
}

TEST(BiasedSamplerTest, FlattenExponentEqualizesRegionMass) {
  // a = -1: same expected number of sample points in any two regions of the
  // same volume (case 4 in §2.2).
  Workload w = MakeWorkload(9000, 1000, 0, 7);
  density::Kde kde = FitKde(w.points);
  BiasedSamplerOptions opts;
  opts.a = -1.0;
  opts.target_size = 1000;
  opts.seed = 3;
  auto s = BiasedSampler(opts).Run(w.points, kde);
  ASSERT_TRUE(s.ok());
  int64_t in_a = 0;
  int64_t in_b = 0;
  for (int64_t i = 0; i < s->size(); ++i) {
    if (InBlob(s->points[i], 0.2, 0.06)) ++in_a;
    if (InBlob(s->points[i], 0.8, 0.06)) ++in_b;
  }
  // 9x density imbalance in the data; flattened counts agree within noise.
  double ratio = static_cast<double>(in_a + 1) / static_cast<double>(in_b + 1);
  EXPECT_GT(ratio, 0.4);
  EXPECT_LT(ratio, 2.5);
}

TEST(BiasedSamplerTest, WeightsEstimateDatasetSize) {
  Workload w = MakeWorkload(4000, 3000, 3000, 8);
  density::Kde kde = FitKde(w.points);
  for (double a : {-0.5, 0.0, 1.0}) {
    dbs::OnlineMoments est;
    for (uint64_t seed = 0; seed < 6; ++seed) {
      BiasedSamplerOptions opts;
      opts.a = a;
      opts.target_size = 1000;
      opts.seed = seed;
      auto s = BiasedSampler(opts).Run(w.points, kde);
      ASSERT_TRUE(s.ok());
      est.Add(s->EstimatedDatasetSize());
    }
    // Horvitz–Thompson unbiasedness: mean estimate ~ n = 10000.
    EXPECT_NEAR(est.mean(), 10000.0, 1000.0) << "a=" << a;
  }
}

TEST(BiasedSamplerTest, OnePassApproximatesTwoPass) {
  Workload w = MakeWorkload(6000, 2000, 2000, 9);
  density::Kde kde = FitKde(w.points);
  BiasedSamplerOptions opts;
  opts.a = 1.0;
  opts.target_size = 1000;
  BiasedSampler sampler(opts);
  auto two_pass = sampler.Run(w.points, kde);
  auto one_pass = sampler.RunOnePass(w.points, kde);
  ASSERT_TRUE(two_pass.ok());
  ASSERT_TRUE(one_pass.ok());
  // Normalizers agree within sampling error of the kernel-center estimate.
  EXPECT_NEAR(one_pass->normalizer / two_pass->normalizer, 1.0, 0.25);
  // And the one-pass sample size is still in the right ballpark.
  EXPECT_NEAR(static_cast<double>(one_pass->size()), 1000.0, 250.0);
}

TEST(BiasedSamplerTest, PassCountsMatchTheContract) {
  Workload w = MakeWorkload(3000, 1000, 0, 10);
  density::Kde kde = FitKde(w.points);

  data::InMemoryScan scan(&w.points);
  BiasedSamplerOptions opts;
  opts.target_size = 300;
  auto s = BiasedSampler(opts).Run(scan, kde);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(scan.passes(), 2);  // normalize + sample

  data::InMemoryScan scan2(&w.points);
  auto s2 = BiasedSampler(opts).RunOnePass(scan2, kde);
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(scan2.passes(), 1);  // sample only
}

TEST(BiasedSamplerTest, WorksWithHistogramEstimator) {
  // The framework is estimator-agnostic (§2.1); swap in the histogram: a
  // grid whose cells all fit its budget is addressed directly, so its
  // counts are the exact per-cell counts.
  Workload w = MakeWorkload(5000, 5000, 0, 11);
  density::GridDensityOptions gopts;
  gopts.cells_per_dim = 24;
  auto hd = density::GridDensity::Fit(w.points, gopts);
  ASSERT_TRUE(hd.ok());
  ASSERT_FALSE(hd->hashed());
  BiasedSamplerOptions opts;
  opts.a = 1.0;
  opts.target_size = 800;
  auto s = BiasedSampler(opts).Run(w.points, *hd);
  ASSERT_TRUE(s.ok());
  int64_t dense = 0;
  int64_t sparse = 0;
  for (int64_t i = 0; i < s->size(); ++i) {
    if (InBlob(s->points[i], 0.2, 0.1)) ++dense;
    if (InBlob(s->points[i], 0.8, 0.2)) ++sparse;
  }
  EXPECT_GT(dense, 2 * sparse);
}

TEST(BiasedSamplerTest, DeterministicPerSeed) {
  Workload w = MakeWorkload(2000, 1000, 1000, 12);
  density::Kde kde = FitKde(w.points);
  BiasedSamplerOptions opts;
  opts.a = 0.5;
  opts.target_size = 400;
  opts.seed = 77;
  auto a = BiasedSampler(opts).Run(w.points, kde);
  auto b = BiasedSampler(opts).Run(w.points, kde);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->size(), b->size());
  for (int64_t i = 0; i < a->size(); ++i) {
    EXPECT_EQ(a->points[i][0], b->points[i][0]);
  }
}

TEST(BiasedSamplerTest, ClampingIsReported) {
  // Tiny dataset + huge target forces probabilities to clamp at 1.
  Workload w = MakeWorkload(200, 0, 0, 13);
  density::Kde kde = FitKde(w.points);
  BiasedSamplerOptions opts;
  opts.a = 1.0;
  opts.target_size = 500;
  auto s = BiasedSampler(opts).Run(w.points, kde);
  ASSERT_TRUE(s.ok());
  EXPECT_GT(s->clamped_count, 0);
  EXPECT_LE(s->size(), 200);
}

TEST(BiasedSamplerTest, InclusionProbabilityHelper) {
  BiasedSamplerOptions opts;
  opts.a = 1.0;
  opts.target_size = 100;
  BiasedSampler sampler(opts);
  EXPECT_DOUBLE_EQ(sampler.InclusionProbability(2.0, 1000.0), 0.2);
  EXPECT_DOUBLE_EQ(sampler.InclusionProbability(50.0, 1000.0), 1.0);
  EXPECT_EQ(sampler.InclusionProbability(1.0, 0.0), 0.0);
}

}  // namespace
}  // namespace dbs::core
