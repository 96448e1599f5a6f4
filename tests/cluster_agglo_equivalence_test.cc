// Bitwise equivalence of the accelerated agglomeration core against the
// frozen reference implementation (DESIGN.md §11).
//
// The frozen goldens in cluster_hierarchical_test.cc pin eight specific
// hashes forever; this suite sweeps a randomized grid of sizes, dims and
// elimination settings and requires the two implementations to agree on
// every byte that HierarchicalCluster publishes: labels, member order,
// centroid bits, and representative bits.
// Comparison is on the raw double bit patterns, so even a signed-zero or
// last-ulp divergence fails.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <ostream>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/hierarchical.h"
#include "cluster/hierarchical_internal.h"
#include "data/point_set.h"
#include "util/rng.h"

namespace dbs::cluster {
namespace {

using data::PointSet;

// `k` Gaussian blobs in d dimensions plus a sprinkle of uniform noise
// (noise exercises the elimination phases and chain merges).
PointSet Blobs(int dim, int k, int64_t per_blob, int64_t noise,
               double sigma, uint64_t seed) {
  dbs::Rng rng(seed);
  PointSet ps(dim);
  std::vector<double> p(static_cast<size_t>(dim));
  for (int b = 0; b < k; ++b) {
    std::vector<double> center(static_cast<size_t>(dim));
    for (int j = 0; j < dim; ++j) center[j] = rng.NextDouble(0.1, 0.9);
    for (int64_t i = 0; i < per_blob; ++i) {
      for (int j = 0; j < dim; ++j) {
        p[static_cast<size_t>(j)] =
            rng.NextGaussian(center[static_cast<size_t>(j)], sigma);
      }
      ps.Append(p);
    }
  }
  for (int64_t i = 0; i < noise; ++i) {
    for (int j = 0; j < dim; ++j) {
      p[static_cast<size_t>(j)] = rng.NextDouble();
    }
    ps.Append(p);
  }
  return ps;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// Full bitwise comparison of two clustering results.
void ExpectBitwiseEqual(const ClusteringResult& got,
                        const ClusteringResult& want) {
  ASSERT_EQ(got.labels, want.labels);
  ASSERT_EQ(got.clusters.size(), want.clusters.size());
  for (size_t c = 0; c < want.clusters.size(); ++c) {
    SCOPED_TRACE(c);
    const Cluster& g = got.clusters[c];
    const Cluster& w = want.clusters[c];
    EXPECT_EQ(g.members, w.members);
    EXPECT_TRUE(SameBits(g.centroid, w.centroid));
    ASSERT_EQ(g.representatives.size(), w.representatives.size());
    ASSERT_EQ(g.representatives.dim(), w.representatives.dim());
    EXPECT_TRUE(SameBits(g.representatives.flat(), w.representatives.flat()));
  }
}

struct Case {
  int64_t n_per_blob;
  int64_t noise;
  int dim;
  int k_blobs;
  int num_clusters;
  bool eliminate;
};

// Prints a case by its fields. gtest_discover_tests names each ctest after
// the printed parameter; without this, gtest prints the struct's raw bytes,
// padding included, and the names can change between builds.
void PrintTo(const Case& c, std::ostream* os) {
  *os << "n" << c.n_per_blob << "_noise" << c.noise << "_dim" << c.dim
      << "_blobs" << c.k_blobs << "_k" << c.num_clusters
      << (c.eliminate ? "_elim" : "_keep");
}

class AggloEquivalenceTest : public ::testing::TestWithParam<Case> {};

TEST_P(AggloEquivalenceTest, MatchesFrozenReferenceBitwise) {
  const Case& c = GetParam();
  PointSet ps = Blobs(c.dim, c.k_blobs, c.n_per_blob, c.noise,
                      /*sigma=*/0.03,
                      /*seed=*/0x5eedULL + static_cast<uint64_t>(
                          c.dim * 1000 + c.n_per_blob + c.noise));
  HierarchicalOptions opts;
  opts.num_clusters = c.num_clusters;
  opts.eliminate_outliers = c.eliminate;

  auto ref = HierarchicalClusterReference(ps, opts);
  ASSERT_TRUE(ref.ok()) << ref.status().message();

  auto fast = HierarchicalCluster(ps, opts);
  ASSERT_TRUE(fast.ok()) << fast.status().message();
  ExpectBitwiseEqual(*fast, *ref);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, AggloEquivalenceTest,
    ::testing::Values(Case{12, 4, 1, 3, 3, false},
                      Case{12, 4, 1, 3, 3, true},
                      Case{25, 10, 2, 4, 4, false},
                      Case{25, 10, 2, 4, 4, true},
                      Case{40, 15, 3, 5, 5, true},
                      Case{30, 12, 5, 4, 4, false},
                      Case{30, 12, 5, 4, 4, true},
                      Case{80, 20, 2, 6, 6, true}));

// Sizes where the per-merge bookkeeping is exercised at scale: the rep
// snapshot's dirty cap, max(8, live/32), reaches ~60, it rebuilds dozens
// of times, and ~30% noise makes both elimination phases remove hundreds
// of clusters whose referrers all need repair.
INSTANTIATE_TEST_SUITE_P(
    Large, AggloEquivalenceTest,
    ::testing::Values(Case{230, 600, 2, 6, 6, false},
                      Case{230, 600, 2, 6, 6, true},
                      Case{280, 600, 3, 5, 5, false},
                      Case{280, 600, 3, 5, 5, true}));

// Duplicate points force distance ties everywhere; the tie-breaking rule
// (lowest cluster index wins) must agree between the implementations.
TEST(AggloEquivalenceTest, ExactDuplicatesTieBreakIdentically) {
  PointSet ps(2);
  for (int r = 0; r < 5; ++r) {
    for (int c = 0; c < 5; ++c) {
      std::vector<double> p{0.1 * c, 0.1 * r};
      ps.Append(p);
      ps.Append(p);  // exact duplicate
    }
  }
  for (bool eliminate : {false, true}) {
    SCOPED_TRACE(eliminate);
    HierarchicalOptions opts;
    opts.num_clusters = 5;
    opts.eliminate_outliers = eliminate;
    auto ref = HierarchicalClusterReference(ps, opts);
    ASSERT_TRUE(ref.ok());
    auto fast = HierarchicalCluster(ps, opts);
    ASSERT_TRUE(fast.ok());
    ExpectBitwiseEqual(*fast, *ref);
  }
}

// The same tie storm at scale: a 32x32 lattice with every site doubled,
// so each merge's referrer repairs, push-updates and u's own nearest all
// meet exact ties across many snapshot rebuilds.
TEST(AggloEquivalenceTest, DuplicateLatticeAtScaleTieBreaksIdentically) {
  PointSet ps(2);
  for (int r = 0; r < 32; ++r) {
    for (int c = 0; c < 32; ++c) {
      std::vector<double> p{0.03 * c, 0.03 * r};
      ps.Append(p);
      ps.Append(p);
    }
  }
  for (bool eliminate : {false, true}) {
    SCOPED_TRACE(eliminate);
    HierarchicalOptions opts;
    opts.num_clusters = 5;
    opts.eliminate_outliers = eliminate;
    auto ref = HierarchicalClusterReference(ps, opts);
    ASSERT_TRUE(ref.ok());
    auto fast = HierarchicalCluster(ps, opts);
    ASSERT_TRUE(fast.ok());
    ExpectBitwiseEqual(*fast, *ref);
  }
}

// A NaN or infinite coordinate leaves its point without a nearest cluster;
// both implementations must say so with InvalidArgument instead of
// aborting in the merge loop.
TEST(AggloEquivalenceTest, NonFiniteCoordinatesAreInvalidArgumentInBoth) {
  HierarchicalOptions opts;
  opts.num_clusters = 1;
  opts.eliminate_outliers = false;
  for (double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    SCOPED_TRACE(bad);
    PointSet ps = Blobs(2, 1, 0, 200, 0.0, 7);
    ps.Append(std::vector<double>{bad, 0.5});
    auto ref = HierarchicalClusterReference(ps, opts);
    ASSERT_FALSE(ref.ok());
    EXPECT_EQ(ref.status().code(), StatusCode::kInvalidArgument);
    auto fast = HierarchicalCluster(ps, opts);
    ASSERT_FALSE(fast.ok());
    EXPECT_EQ(fast.status().code(), StatusCode::kInvalidArgument);
  }
}

// n <= num_clusters short-circuits before any merge; both paths must agree
// on the trivial result too.
TEST(AggloEquivalenceTest, FewerPointsThanClustersBitwise) {
  PointSet ps = Blobs(2, 1, 5, 0, 0.05, 99);
  HierarchicalOptions opts;
  opts.num_clusters = 8;
  auto ref = HierarchicalClusterReference(ps, opts);
  auto fast = HierarchicalCluster(ps, opts);
  ASSERT_TRUE(ref.ok());
  ASSERT_TRUE(fast.ok());
  ExpectBitwiseEqual(*fast, *ref);
}

}  // namespace
}  // namespace dbs::cluster
