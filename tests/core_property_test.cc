// Property-style sweeps for the biased sampler: the paper's Property 1
// (inclusion probability is a function of local density only) and Property
// 2 (expected sample size b) must hold for EVERY combination of exponent
// and density-estimator backend, and the Horvitz-Thompson weighting must
// stay unbiased throughout.

#include <cmath>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/biased_sampler.h"
#include "data/point_set.h"
#include "density/grid_density.h"
#include "density/kde.h"
#include "util/rng.h"
#include "util/stats.h"

namespace dbs::core {
namespace {

using data::PointSet;

enum class Backend { kKde, kGrid };

const char* BackendName(Backend b) {
  switch (b) {
    case Backend::kKde:
      return "kde";
    case Backend::kGrid:
      return "grid";
  }
  return "?";
}

PointSet MixedDensityData(uint64_t seed) {
  Rng rng(seed);
  PointSet ps(2);
  // Three density tiers plus background.
  for (int i = 0; i < 6000; ++i) {
    ps.Append(std::vector<double>{rng.NextDouble(0.05, 0.25),
                                  rng.NextDouble(0.05, 0.25)});
  }
  for (int i = 0; i < 3000; ++i) {
    ps.Append(std::vector<double>{rng.NextDouble(0.6, 0.9),
                                  rng.NextDouble(0.6, 0.9)});
  }
  for (int i = 0; i < 1000; ++i) {
    ps.Append(std::vector<double>{rng.NextDouble(), rng.NextDouble()});
  }
  return ps;
}

std::unique_ptr<density::DensityEstimator> FitBackend(Backend backend,
                                                      const PointSet& ps) {
  switch (backend) {
    case Backend::kKde: {
      density::KdeOptions opts;
      opts.num_kernels = 400;
      auto kde = density::Kde::Fit(ps, opts);
      DBS_CHECK(kde.ok());
      return std::make_unique<density::Kde>(std::move(kde).value());
    }
    case Backend::kGrid: {
      // 24^2 cells fit the default budget, so the grid is addressed
      // directly: the exact histogram, no hash collisions.
      density::GridDensityOptions opts;
      opts.cells_per_dim = 24;
      auto gd = density::GridDensity::Fit(ps, opts);
      DBS_CHECK(gd.ok());
      DBS_CHECK(!gd->hashed());
      return std::make_unique<density::GridDensity>(std::move(gd).value());
    }
  }
  return nullptr;
}

class SamplerPropertyTest
    : public ::testing::TestWithParam<std::tuple<double, Backend>> {};

TEST_P(SamplerPropertyTest, ExpectedSizeMatchesTarget) {
  auto [a, backend] = GetParam();
  PointSet ps = MixedDensityData(77);
  auto estimator = FitBackend(backend, ps);
  OnlineMoments sizes;
  for (uint64_t seed = 0; seed < 6; ++seed) {
    BiasedSamplerOptions opts;
    opts.a = a;
    opts.target_size = 600;
    opts.seed = seed;
    auto sample = BiasedSampler(opts).Run(ps, *estimator);
    ASSERT_TRUE(sample.ok());
    sizes.Add(static_cast<double>(sample->size()));
  }
  EXPECT_NEAR(sizes.mean(), 600.0, 75.0)
      << "a=" << std::get<0>(GetParam()) << " backend="
      << BackendName(backend);
}

TEST_P(SamplerPropertyTest, HorvitzThompsonUnbiased) {
  auto [a, backend] = GetParam();
  PointSet ps = MixedDensityData(79);
  auto estimator = FitBackend(backend, ps);
  OnlineMoments estimates;
  for (uint64_t seed = 0; seed < 6; ++seed) {
    BiasedSamplerOptions opts;
    opts.a = a;
    opts.target_size = 800;
    opts.seed = seed;
    auto sample = BiasedSampler(opts).Run(ps, *estimator);
    ASSERT_TRUE(sample.ok());
    estimates.Add(sample->EstimatedDatasetSize());
  }
  EXPECT_NEAR(estimates.mean(), 10000.0, 1500.0)
      << "backend=" << BackendName(backend);
}

TEST_P(SamplerPropertyTest, InclusionProbabilityDependsOnDensityOnly) {
  // Property 1: two points with (numerically) equal density estimates must
  // get identical inclusion probabilities.
  auto [a, backend] = GetParam();
  PointSet ps = MixedDensityData(81);
  auto estimator = FitBackend(backend, ps);
  BiasedSamplerOptions opts;
  opts.a = a;
  opts.target_size = 500;
  BiasedSampler sampler(opts);
  // Evaluate the helper directly across a density grid.
  for (double f : {10.0, 100.0, 1000.0, 10000.0}) {
    double p1 = sampler.InclusionProbability(f, 1e6);
    double p2 = sampler.InclusionProbability(f, 1e6);
    EXPECT_EQ(p1, p2);
  }
  // And monotonicity in density follows the sign of a.
  double lo = sampler.InclusionProbability(100.0, 1e6);
  double hi = sampler.InclusionProbability(10000.0, 1e6);
  if (a > 0) {
    EXPECT_LT(lo, hi);
  } else if (a < 0) {
    EXPECT_GT(lo, hi);
  } else {
    EXPECT_EQ(lo, hi);
  }
}

TEST_P(SamplerPropertyTest, DeterministicPerSeed) {
  auto [a, backend] = GetParam();
  PointSet ps = MixedDensityData(83);
  auto estimator = FitBackend(backend, ps);
  BiasedSamplerOptions opts;
  opts.a = a;
  opts.target_size = 300;
  opts.seed = 99;
  auto s1 = BiasedSampler(opts).Run(ps, *estimator);
  auto s2 = BiasedSampler(opts).Run(ps, *estimator);
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  ASSERT_EQ(s1->size(), s2->size());
  EXPECT_EQ(s1->inclusion_probs, s2->inclusion_probs);
}

INSTANTIATE_TEST_SUITE_P(
    ExponentsAndBackends, SamplerPropertyTest,
    ::testing::Combine(::testing::Values(-1.0, -0.5, -0.25, 0.0, 0.5, 1.0),
                       ::testing::Values(Backend::kKde, Backend::kGrid)),
    [](const auto& param_info) {
      double a = std::get<0>(param_info.param);
      std::string name = a < 0 ? "neg" : (a == 0 ? "zero" : "pos");
      name += std::to_string(static_cast<int>(std::abs(a) * 100));
      name += "_";
      name += BackendName(std::get<1>(param_info.param));
      return name;
    });

TEST(SamplerRegionMassTest, RelativeDensitiesPreservedForAGreaterMinusOne) {
  // Lemma 1 across backends: for a > -1, if region A is denser than region
  // B in the data, A remains denser IN THE SAMPLE (denser per unit volume
  // — counts may still favor the bigger region).
  PointSet ps = MixedDensityData(85);
  const double dense_area = 0.2 * 0.2;   // [0.05,0.25]^2
  const double sparse_area = 0.3 * 0.3;  // [0.6,0.9]^2
  for (Backend backend : {Backend::kKde, Backend::kGrid}) {
    auto estimator = FitBackend(backend, ps);
    for (double a : {-0.5, 0.5}) {
      int64_t dense = 0;
      int64_t sparse = 0;
      for (uint64_t seed = 0; seed < 4; ++seed) {
        BiasedSamplerOptions opts;
        opts.a = a;
        opts.target_size = 800;
        opts.seed = seed;
        auto sample = BiasedSampler(opts).Run(ps, *estimator);
        ASSERT_TRUE(sample.ok());
        for (int64_t i = 0; i < sample->size(); ++i) {
          data::PointView p = sample->points[i];
          if (p[0] >= 0.05 && p[0] <= 0.25 && p[1] >= 0.05 && p[1] <= 0.25) {
            ++dense;
          }
          if (p[0] >= 0.6 && p[0] <= 0.9 && p[1] >= 0.6 && p[1] <= 0.9) {
            ++sparse;
          }
        }
      }
      // Data densities: 6000/0.04 = 150k vs 3000/0.09 = 33k.
      double dense_density = static_cast<double>(dense) / dense_area;
      double sparse_density = static_cast<double>(sparse) / sparse_area;
      EXPECT_GT(dense_density, sparse_density)
          << "a=" << a << " backend=" << BackendName(backend);
    }
  }
}

}  // namespace
}  // namespace dbs::core
