#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "data/point_set.h"
#include "sampling/uniform_sampler.h"
#include "util/stats.h"

namespace dbs::sampling {
namespace {

using data::PointSet;

PointSet Sequential1d(int64_t n) {
  PointSet ps(1);
  for (int64_t i = 0; i < n; ++i) {
    double v = static_cast<double>(i);
    ps.Append(&v);
  }
  return ps;
}

TEST(BernoulliSampleTest, RejectsBadTarget) {
  PointSet ps = Sequential1d(10);
  BernoulliSampleOptions opts;
  opts.target_size = 0;
  EXPECT_FALSE(BernoulliSample(ps, opts).ok());
}

TEST(BernoulliSampleTest, EmptyDatasetGivesEmptySample) {
  PointSet ps(2);
  BernoulliSampleOptions opts;
  auto s = BernoulliSample(ps, opts);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->size(), 0);
}

TEST(BernoulliSampleTest, ExpectedSizeIsTarget) {
  PointSet ps = Sequential1d(100000);
  OnlineMoments sizes;
  for (uint64_t seed = 0; seed < 20; ++seed) {
    BernoulliSampleOptions opts;
    opts.target_size = 2000;
    opts.seed = seed;
    auto s = BernoulliSample(ps, opts);
    ASSERT_TRUE(s.ok());
    sizes.Add(static_cast<double>(s->size()));
  }
  // Std of one draw ~ sqrt(2000*0.98) ~ 44; mean of 20 draws within 3 sigma.
  EXPECT_NEAR(sizes.mean(), 2000.0, 3 * 44.0 / std::sqrt(20.0) * 2);
}

TEST(BernoulliSampleTest, TargetAboveNKeepsEverything) {
  PointSet ps = Sequential1d(100);
  BernoulliSampleOptions opts;
  opts.target_size = 1000;
  auto s = BernoulliSample(ps, opts);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->size(), 100);
}

TEST(BernoulliSampleTest, SampleIsUniformOverHalves) {
  // Count how often points from the first vs second half land in samples.
  PointSet ps = Sequential1d(10000);
  int64_t first_half = 0;
  int64_t total = 0;
  for (uint64_t seed = 0; seed < 10; ++seed) {
    BernoulliSampleOptions opts;
    opts.target_size = 1000;
    opts.seed = seed;
    auto s = BernoulliSample(ps, opts);
    ASSERT_TRUE(s.ok());
    for (int64_t i = 0; i < s->size(); ++i) {
      if ((*s)[i][0] < 5000) ++first_half;
      ++total;
    }
  }
  double frac = static_cast<double>(first_half) / static_cast<double>(total);
  EXPECT_NEAR(frac, 0.5, 0.02);
}

TEST(BernoulliSampleTest, DeterministicPerSeed) {
  PointSet ps = Sequential1d(5000);
  BernoulliSampleOptions opts;
  opts.target_size = 500;
  opts.seed = 7;
  auto a = BernoulliSample(ps, opts);
  auto b = BernoulliSample(ps, opts);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->size(), b->size());
  for (int64_t i = 0; i < a->size(); ++i) {
    EXPECT_EQ((*a)[i][0], (*b)[i][0]);
  }
}

}  // namespace
}  // namespace dbs::sampling
