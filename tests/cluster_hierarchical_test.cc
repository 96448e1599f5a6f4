#include "cluster/hierarchical.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/hierarchical_internal.h"
#include "data/distance.h"
#include "data/point_set.h"
#include "util/rng.h"

namespace dbs::cluster {
namespace {

using data::PointSet;
using data::PointView;

// Options with CURE's outlier elimination off: these tests exercise the
// pure agglomeration on noise-free data, where every point must end up in
// a cluster. Elimination behavior has its own tests below.
HierarchicalOptions NoElimination() {
  HierarchicalOptions opts;
  opts.eliminate_outliers = false;
  return opts;
}

// `k` Gaussian blobs on a circle of radius 0.4 around (0.5, 0.5).
PointSet BlobsOnCircle(int k, int64_t per_blob, double sigma, uint64_t seed) {
  dbs::Rng rng(seed);
  PointSet ps(2);
  for (int c = 0; c < k; ++c) {
    double angle = 2.0 * M_PI * c / k;
    double cx = 0.5 + 0.4 * std::cos(angle);
    double cy = 0.5 + 0.4 * std::sin(angle);
    for (int64_t i = 0; i < per_blob; ++i) {
      ps.Append(std::vector<double>{rng.NextGaussian(cx, sigma),
                                    rng.NextGaussian(cy, sigma)});
    }
  }
  return ps;
}

TEST(HierarchicalTest, RejectsBadOptions) {
  PointSet ps(2, {0.0, 0.0, 1.0, 1.0});
  HierarchicalOptions bad;
  bad.num_clusters = 0;
  EXPECT_FALSE(HierarchicalCluster(ps, bad).ok());
  HierarchicalOptions bad_reps;
  bad_reps.num_representatives = 0;
  EXPECT_FALSE(HierarchicalCluster(ps, bad_reps).ok());
  HierarchicalOptions bad_shrink;
  bad_shrink.shrink_factor = 1.5;
  EXPECT_FALSE(HierarchicalCluster(ps, bad_shrink).ok());
  PointSet empty(2);
  EXPECT_FALSE(HierarchicalCluster(empty, HierarchicalOptions{}).ok());
}

TEST(HierarchicalTest, FewerPointsThanClusters) {
  PointSet ps(2, {0.0, 0.0, 1.0, 1.0, 2.0, 2.0});
  HierarchicalOptions opts = NoElimination();
  opts.num_clusters = 10;
  auto result = HierarchicalCluster(ps, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_clusters(), 3);
}

TEST(HierarchicalTest, RecoversWellSeparatedBlobs) {
  for (int k : {2, 3, 5, 8}) {
    PointSet ps = BlobsOnCircle(k, 100, 0.015, 100 + k);
    HierarchicalOptions opts = NoElimination();
    opts.num_clusters = k;
    auto result = HierarchicalCluster(ps, opts);
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result->num_clusters(), k);
    // Every cluster must contain exactly the 100 points of one blob.
    std::multiset<size_t> sizes;
    for (const Cluster& c : result->clusters) sizes.insert(c.members.size());
    for (size_t s : sizes) EXPECT_EQ(s, 100u) << "k=" << k;
    // Points of the same blob share a label.
    for (int c = 0; c < k; ++c) {
      int32_t label = result->labels[c * 100];
      for (int64_t i = 0; i < 100; ++i) {
        EXPECT_EQ(result->labels[c * 100 + i], label);
      }
    }
  }
}

TEST(HierarchicalTest, LabelsAreConsistentWithMembers) {
  PointSet ps = BlobsOnCircle(4, 60, 0.02, 7);
  HierarchicalOptions opts = NoElimination();
  opts.num_clusters = 4;
  auto result = HierarchicalCluster(ps, opts);
  ASSERT_TRUE(result.ok());
  int64_t total = 0;
  for (size_t c = 0; c < result->clusters.size(); ++c) {
    for (int64_t m : result->clusters[c].members) {
      EXPECT_EQ(result->labels[m], static_cast<int32_t>(c));
      ++total;
    }
  }
  EXPECT_EQ(total, ps.size());
}

TEST(HierarchicalTest, RepresentativeCountIsCapped) {
  PointSet ps = BlobsOnCircle(3, 200, 0.02, 8);
  HierarchicalOptions opts = NoElimination();
  opts.num_clusters = 3;
  opts.num_representatives = 10;
  auto result = HierarchicalCluster(ps, opts);
  ASSERT_TRUE(result.ok());
  for (const Cluster& c : result->clusters) {
    EXPECT_LE(c.representatives.size(), 10);
    EXPECT_GE(c.representatives.size(), 1);
  }
}

TEST(HierarchicalTest, RepresentativesLieNearTheirCluster) {
  PointSet ps = BlobsOnCircle(3, 150, 0.02, 9);
  HierarchicalOptions opts = NoElimination();
  opts.num_clusters = 3;
  auto result = HierarchicalCluster(ps, opts);
  ASSERT_TRUE(result.ok());
  for (const Cluster& c : result->clusters) {
    PointView centroid(c.centroid.data(), 2);
    for (int64_t r = 0; r < c.representatives.size(); ++r) {
      // Blob sigma is 0.02; shrunk representatives stay within a few sigma.
      EXPECT_LT(data::Distance(c.representatives[r], centroid), 0.15);
    }
  }
}

TEST(HierarchicalTest, ShrinkFactorOneCollapsesRepsToCentroid) {
  PointSet ps = BlobsOnCircle(2, 80, 0.02, 10);
  HierarchicalOptions opts = NoElimination();
  opts.num_clusters = 2;
  opts.shrink_factor = 1.0;
  auto result = HierarchicalCluster(ps, opts);
  ASSERT_TRUE(result.ok());
  for (const Cluster& c : result->clusters) {
    PointView centroid(c.centroid.data(), 2);
    for (int64_t r = 0; r < c.representatives.size(); ++r) {
      EXPECT_NEAR(data::Distance(c.representatives[r], centroid), 0.0, 1e-9);
    }
  }
}

TEST(HierarchicalTest, ZeroShrinkKeepsScatteredPointsInData) {
  PointSet ps = BlobsOnCircle(2, 80, 0.02, 11);
  HierarchicalOptions opts = NoElimination();
  opts.num_clusters = 2;
  opts.shrink_factor = 0.0;
  auto result = HierarchicalCluster(ps, opts);
  ASSERT_TRUE(result.ok());
  // With no shrinking, every representative is an actual data point.
  for (const Cluster& c : result->clusters) {
    for (int64_t r = 0; r < c.representatives.size(); ++r) {
      bool found = false;
      for (int64_t i = 0; i < ps.size() && !found; ++i) {
        if (data::SquaredL2(c.representatives[r], ps[i]) == 0.0) found = true;
      }
      EXPECT_TRUE(found);
    }
  }
}

TEST(HierarchicalTest, DiscoversNonSphericalClusters) {
  // Two parallel elongated strips: K-means would cut them crosswise, the
  // representative-based hierarchical algorithm must keep each strip whole.
  dbs::Rng rng(12);
  PointSet ps(2);
  for (int i = 0; i < 300; ++i) {
    ps.Append(std::vector<double>{rng.NextDouble(0.0, 1.0),
                                  rng.NextGaussian(0.2, 0.01)});
  }
  for (int i = 0; i < 300; ++i) {
    ps.Append(std::vector<double>{rng.NextDouble(0.0, 1.0),
                                  rng.NextGaussian(0.8, 0.01)});
  }
  HierarchicalOptions opts = NoElimination();
  opts.num_clusters = 2;
  auto result = HierarchicalCluster(ps, opts);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->num_clusters(), 2);
  EXPECT_EQ(result->clusters[0].members.size(), 300u);
  EXPECT_EQ(result->clusters[1].members.size(), 300u);
  // Strips separated by label.
  int32_t first = result->labels[0];
  for (int i = 0; i < 300; ++i) EXPECT_EQ(result->labels[i], first);
  for (int i = 300; i < 600; ++i) EXPECT_NE(result->labels[i], first);
}

TEST(HierarchicalTest, SinglePoint) {
  PointSet ps(2, {0.5, 0.5});
  HierarchicalOptions opts = NoElimination();
  opts.num_clusters = 1;
  auto result = HierarchicalCluster(ps, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_clusters(), 1);
  EXPECT_EQ(result->clusters[0].members.size(), 1u);
}

TEST(HierarchicalTest, DuplicatePoints) {
  PointSet ps(2);
  for (int i = 0; i < 20; ++i) ps.Append(std::vector<double>{0.1, 0.1});
  for (int i = 0; i < 20; ++i) ps.Append(std::vector<double>{0.9, 0.9});
  HierarchicalOptions opts = NoElimination();
  opts.num_clusters = 2;
  auto result = HierarchicalCluster(ps, opts);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->num_clusters(), 2);
  EXPECT_EQ(result->clusters[0].members.size(), 20u);
  EXPECT_EQ(result->clusters[1].members.size(), 20u);
}

// 200 uniform points plus one with a non-finite coordinate: that point has
// no nearest cluster, so the merge loop cannot run down to one cluster.
PointSet UniformPlusOne(double bad) {
  dbs::Rng rng(77);
  PointSet ps(2);
  for (int i = 0; i < 200; ++i) {
    ps.Append(std::vector<double>{rng.NextDouble(), rng.NextDouble()});
  }
  ps.Append(std::vector<double>{0.5, bad});
  return ps;
}

TEST(HierarchicalTest, NonFiniteCoordinatesAreInvalidArgument) {
  HierarchicalOptions opts = NoElimination();
  opts.num_clusters = 1;
  for (double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    SCOPED_TRACE(bad);
    PointSet ps = UniformPlusOne(bad);
    auto result = HierarchicalCluster(ps, opts);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    // HierarchicalClusterReference runs this same check first (its own
    // test, which links the reference, is in
    // cluster_agglo_equivalence_test).
    EXPECT_EQ(internal::ValidateHierarchicalArgs(ps, opts).code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(HierarchicalTest, DeterministicOutput) {
  PointSet ps = BlobsOnCircle(4, 50, 0.03, 13);
  HierarchicalOptions opts = NoElimination();
  opts.num_clusters = 4;
  auto a = HierarchicalCluster(ps, opts);
  auto b = HierarchicalCluster(ps, opts);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->labels, b->labels);
}

TEST(HierarchicalEliminationTest, NoisePointsGetDropped) {
  // Three tight blobs plus scattered noise; with elimination on, the noise
  // is labeled -1 and the blobs come out clean.
  dbs::Rng rng(20);
  PointSet ps = BlobsOnCircle(3, 150, 0.015, 21);
  const int64_t blob_points = ps.size();
  for (int i = 0; i < 60; ++i) {
    ps.Append(std::vector<double>{rng.NextDouble(), rng.NextDouble()});
  }
  HierarchicalOptions opts;  // elimination on by default
  opts.num_clusters = 3;
  auto result = HierarchicalCluster(ps, opts);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->num_clusters(), 3);
  // Blob points keep their labels; a healthy share of noise is dropped.
  int64_t unlabeled_noise = 0;
  for (int64_t i = blob_points; i < ps.size(); ++i) {
    if (result->labels[i] < 0) ++unlabeled_noise;
  }
  EXPECT_GT(unlabeled_noise, 30);
  // Each blob survives as one cluster; the early (1/3) trigger sheds blob-
  // fringe singletons, so sizes land below 150 but stay substantial.
  for (const Cluster& c : result->clusters) {
    EXPECT_GE(c.members.size(), 100u);
    EXPECT_LE(c.members.size(), 175u);
  }
}

TEST(HierarchicalEliminationTest, NoiseChainingIsPrevented) {
  // Two blobs connected by a sparse bridge of noise points. Without
  // elimination, min-distance merging chains them through the bridge;
  // with elimination the blobs stay separate.
  dbs::Rng rng(22);
  PointSet ps(2);
  for (int i = 0; i < 200; ++i) {
    ps.Append(std::vector<double>{rng.NextGaussian(0.15, 0.02),
                                  rng.NextGaussian(0.5, 0.02)});
  }
  for (int i = 0; i < 200; ++i) {
    ps.Append(std::vector<double>{rng.NextGaussian(0.85, 0.02),
                                  rng.NextGaussian(0.5, 0.02)});
  }
  for (int i = 0; i < 12; ++i) {  // the bridge
    ps.Append(std::vector<double>{0.25 + 0.05 * i,
                                  rng.NextGaussian(0.5, 0.005)});
  }
  HierarchicalOptions opts;
  opts.num_clusters = 2;
  auto result = HierarchicalCluster(ps, opts);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->num_clusters(), 2);
  // Blobs end up in different clusters, and each keeps the bulk of its
  // points (fringe singletons may be eliminated along with the bridge).
  EXPECT_NE(result->labels[0], result->labels[200]);
  for (const Cluster& c : result->clusters) {
    EXPECT_GE(c.members.size(), 120u);
  }
}

TEST(HierarchicalEliminationTest, CleanDataKeepsClusterStructure) {
  // With no noise, the early trigger sheds some blob-fringe singletons but
  // every blob still comes out as one cluster holding most of its points.
  PointSet ps = BlobsOnCircle(4, 80, 0.015, 23);
  HierarchicalOptions with;
  with.num_clusters = 4;
  auto a = HierarchicalCluster(ps, with);
  ASSERT_TRUE(a.ok());
  ASSERT_EQ(a->num_clusters(), 4);
  int64_t dropped = 0;
  for (int32_t label : a->labels) {
    if (label < 0) ++dropped;
  }
  EXPECT_LE(dropped, ps.size() / 3);
  for (const Cluster& c : a->clusters) {
    EXPECT_GE(c.members.size(), 50u);
    // Kept points of one blob share one label.
  }
  for (int blob = 0; blob < 4; ++blob) {
    int32_t label = -1;
    for (int i = 0; i < 80; ++i) {
      int32_t l = a->labels[blob * 80 + i];
      if (l < 0) continue;
      if (label < 0) label = l;
      EXPECT_EQ(l, label);
    }
  }
}

TEST(HierarchicalEliminationTest, CapTruncationDropsSmallestClusterFirst) {
  // Three widely separated tight groups of sizes 3, 1 and 2, laid out so
  // the size-3 group owns the LOWEST node index. Phase 2 fires when the
  // three groups are fully merged (live == 3); all of them qualify as
  // victims (size <= phase2_max_size) but the live > target cap allows
  // exactly one kill. Victims die smallest-first, so the singleton is the
  // one eliminated — not the size-3 group that index order would pick.
  PointSet ps(2, {
                     // group A (size 3) around (0.1, 0.1): indices 0-2
                     0.10, 0.10, 0.11, 0.10, 0.10, 0.11,
                     // group B (size 1) at (0.9, 0.1): index 3
                     0.90, 0.10,
                     // group C (size 2) around (0.5, 0.9): indices 4-5
                     0.50, 0.90, 0.51, 0.90,
                 });
  HierarchicalOptions opts;
  opts.num_clusters = 2;
  opts.eliminate_outliers = true;
  opts.phase1_trigger_fraction = 0.0;  // phase 1 never fires
  opts.phase1_max_size = 0;
  opts.phase2_trigger_multiple = 1.5;  // fires at live <= 3
  opts.phase2_max_size = 5;            // every group qualifies
  auto result = HierarchicalCluster(ps, opts);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->num_clusters(), 2);
  // The singleton (index 3) is eliminated; both real groups survive whole.
  EXPECT_EQ(result->labels[3], -1);
  EXPECT_EQ(result->labels[0], result->labels[1]);
  EXPECT_EQ(result->labels[1], result->labels[2]);
  EXPECT_EQ(result->labels[4], result->labels[5]);
  EXPECT_NE(result->labels[0], result->labels[4]);
  std::multiset<size_t> sizes;
  for (const Cluster& c : result->clusters) sizes.insert(c.members.size());
  EXPECT_EQ(sizes, (std::multiset<size_t>{2, 3}));
}

// --- Frozen-golden equivalence suite ---------------------------------------
//
// These cases pin the FULL agglomeration output — labels, member order,
// centroid bytes and representative bytes — as one FNV-1a hash per case,
// captured from the pre-refactor implementation. Any change to the merge
// sequence, tie-breaking (lowest index wins), elimination order or the
// representative arithmetic flips the hash. The accelerated agglomeration
// core must keep every one of these bitwise intact; they are the contract
// bench/micro_cluster re-checks at larger sizes.

uint64_t Fnv1a(const void* data, size_t len, uint64_t h) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

// Hashes labels, then per cluster (in label order): member count, members,
// centroid bytes, representative bytes.
uint64_t HashClustering(const ClusteringResult& result) {
  uint64_t h = 1469598103934665603ull;
  h = Fnv1a(result.labels.data(),
            result.labels.size() * sizeof(int32_t), h);
  for (const Cluster& c : result.clusters) {
    int64_t count = static_cast<int64_t>(c.members.size());
    h = Fnv1a(&count, sizeof(count), h);
    h = Fnv1a(c.members.data(), c.members.size() * sizeof(int64_t), h);
    h = Fnv1a(c.centroid.data(), c.centroid.size() * sizeof(double), h);
    h = Fnv1a(c.representatives.flat().data(),
              c.representatives.flat().size() * sizeof(double), h);
  }
  return h;
}

// `k` Gaussian blobs in d dimensions plus uniform noise (noise exercises
// the elimination phases in the `elim` variants).
PointSet GoldenBlobs(int dim, int k, int64_t per_blob, int64_t noise,
                     double sigma, uint64_t seed) {
  dbs::Rng rng(seed);
  PointSet ps(dim);
  std::vector<double> p(static_cast<size_t>(dim));
  for (int c = 0; c < k; ++c) {
    std::vector<double> center(static_cast<size_t>(dim));
    for (int j = 0; j < dim; ++j) center[j] = rng.NextDouble(0.1, 0.9);
    for (int64_t i = 0; i < per_blob; ++i) {
      for (int j = 0; j < dim; ++j) {
        p[j] = rng.NextGaussian(center[j], sigma);
      }
      ps.Append(p);
    }
  }
  for (int64_t i = 0; i < noise; ++i) {
    for (int j = 0; j < dim; ++j) p[j] = rng.NextDouble();
    ps.Append(p);
  }
  return ps;
}

// Exact-duplicate points on an integer lattice: inter-point distances
// collide constantly, so every tie-breaking rule in the merge loop and in
// the nearest-cluster bookkeeping is load-bearing here.
PointSet GoldenTies() {
  PointSet ps(2);
  for (int rep = 0; rep < 2; ++rep) {
    for (int y = 0; y < 6; ++y) {
      for (int x = 0; x < 6; ++x) {
        ps.Append(std::vector<double>{static_cast<double>(x) * 0.1,
                                      static_cast<double>(y) * 0.1});
      }
    }
  }
  return ps;
}

struct GoldenCase {
  const char* name;
  int dim;
  bool eliminate;
  bool ties;
  uint64_t want;
};

TEST(HierarchicalGoldenTest, FrozenAgglomerationHashes) {
  const GoldenCase kCases[] = {
      {"dim1_plain", 1, false, false, 14054575646642538525ull},
      {"dim1_elim", 1, true, false, 14838618909650839011ull},
      {"dim2_plain", 2, false, false, 17238667635333364281ull},
      {"dim2_elim", 2, true, false, 13222001480870681610ull},
      {"dim5_plain", 5, false, false, 1486783096846529445ull},
      {"dim5_elim", 5, true, false, 3489065195720459547ull},
      {"ties_plain", 2, false, true, 8427816399235224162ull},
      {"ties_elim", 2, true, true, 12718755901037939380ull},
  };
  for (const GoldenCase& c : kCases) {
    PointSet ps = c.ties ? GoldenTies()
                         : GoldenBlobs(c.dim, 4, 60, 24, 0.02,
                                       1000 + static_cast<uint64_t>(c.dim));
    HierarchicalOptions opts;
    opts.num_clusters = 4;
    opts.eliminate_outliers = c.eliminate;
    auto result = HierarchicalCluster(ps, opts);
    ASSERT_TRUE(result.ok()) << c.name;
    EXPECT_EQ(HashClustering(*result), c.want) << c.name;
  }
}

TEST(HierarchicalTest, NearestClusterByCentroidHelper) {
  PointSet ps = BlobsOnCircle(3, 50, 0.02, 14);
  HierarchicalOptions opts = NoElimination();
  opts.num_clusters = 3;
  auto result = HierarchicalCluster(ps, opts);
  ASSERT_TRUE(result.ok());
  // Each point's nearest centroid matches its label for tight blobs.
  int agree = 0;
  for (int64_t i = 0; i < ps.size(); ++i) {
    if (NearestClusterByCentroid(*result, ps[i]) == result->labels[i]) {
      ++agree;
    }
  }
  EXPECT_GT(agree, ps.size() * 95 / 100);
}

}  // namespace
}  // namespace dbs::cluster
