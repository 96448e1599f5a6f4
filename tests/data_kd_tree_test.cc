#include "data/kd_tree.h"

#include <algorithm>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "data/distance.h"
#include "data/point_set.h"
#include "util/rng.h"

namespace dbs::data {
namespace {

PointSet MakeRandomPoints(int64_t n, int dim, uint64_t seed) {
  dbs::Rng rng(seed);
  PointSet ps(dim);
  ps.Reserve(n);
  std::vector<double> buf(dim);
  for (int64_t i = 0; i < n; ++i) {
    for (int j = 0; j < dim; ++j) buf[j] = rng.NextDouble();
    ps.Append(buf);
  }
  return ps;
}

int64_t BruteNearest(const PointSet& ps, PointView q, int64_t exclude) {
  double best = std::numeric_limits<double>::infinity();
  int64_t best_idx = -1;
  for (int64_t i = 0; i < ps.size(); ++i) {
    if (i == exclude) continue;
    double d2 = SquaredL2(q, ps[i]);
    if (d2 < best) {
      best = d2;
      best_idx = i;
    }
  }
  return best_idx;
}

std::vector<int64_t> BruteWithinRadius(const PointSet& ps, PointView q,
                                       double r) {
  std::vector<int64_t> out;
  for (int64_t i = 0; i < ps.size(); ++i) {
    if (SquaredL2(q, ps[i]) <= r * r) out.push_back(i);
  }
  return out;
}

TEST(KdTreeTest, EmptyTree) {
  PointSet ps(2);
  KdTree tree(&ps);
  EXPECT_EQ(tree.size(), 0);
  PointSet q(2, {0.0, 0.0});
  EXPECT_EQ(tree.Nearest(q[0]), -1);
  EXPECT_TRUE(tree.WithinRadius(q[0], 1.0, Metric::kL2).empty());
  EXPECT_EQ(tree.CountWithinRadius(q[0], 1.0, Metric::kL2), 0);
}

TEST(KdTreeTest, SinglePoint) {
  PointSet ps(2, {0.5, 0.5});
  KdTree tree(&ps);
  PointSet q(2, {0.0, 0.0});
  EXPECT_EQ(tree.Nearest(q[0]), 0);
  EXPECT_EQ(tree.Nearest(ps[0], /*exclude=*/0), -1);
}

class KdTreeRandomTest : public ::testing::TestWithParam<std::tuple<int, int>> {
};

TEST_P(KdTreeRandomTest, NearestMatchesBruteForce) {
  auto [n, dim] = GetParam();
  PointSet ps = MakeRandomPoints(n, dim, 100 + n + dim);
  KdTree tree(&ps);
  PointSet queries = MakeRandomPoints(50, dim, 999 + dim);
  for (int64_t qi = 0; qi < queries.size(); ++qi) {
    int64_t got = tree.Nearest(queries[qi]);
    int64_t want = BruteNearest(ps, queries[qi], -1);
    // Ties are possible in principle; compare distances, not indices.
    EXPECT_DOUBLE_EQ(SquaredL2(queries[qi], ps[got]),
                     SquaredL2(queries[qi], ps[want]));
  }
}

TEST_P(KdTreeRandomTest, RadiusSearchMatchesBruteForce) {
  auto [n, dim] = GetParam();
  PointSet ps = MakeRandomPoints(n, dim, 300 + n + dim);
  KdTree tree(&ps);
  PointSet queries = MakeRandomPoints(20, dim, 777 + dim);
  for (int64_t qi = 0; qi < queries.size(); ++qi) {
    for (double r : {0.05, 0.2, 0.5}) {
      std::vector<int64_t> got =
          tree.WithinRadius(queries[qi], r, Metric::kL2);
      std::vector<int64_t> want = BruteWithinRadius(ps, queries[qi], r);
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, want) << "r=" << r;
      EXPECT_EQ(tree.CountWithinRadius(queries[qi], r, Metric::kL2),
                static_cast<int64_t>(want.size()));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, KdTreeRandomTest,
                         ::testing::Values(std::make_tuple(1, 2),
                                           std::make_tuple(15, 2),
                                           std::make_tuple(16, 2),
                                           std::make_tuple(17, 3),
                                           std::make_tuple(200, 2),
                                           std::make_tuple(500, 3),
                                           std::make_tuple(500, 5),
                                           std::make_tuple(1000, 4)));

TEST(KdTreeTest, CountWithinRadiusEarlyAbort) {
  PointSet ps = MakeRandomPoints(1000, 2, 42);
  KdTree tree(&ps);
  PointSet q(2, {0.5, 0.5});
  int64_t full = tree.CountWithinRadius(q[0], 0.4, Metric::kL2);
  ASSERT_GT(full, 10);
  // With cap=5 the count stops at 6 (cap+1).
  EXPECT_EQ(tree.CountWithinRadius(q[0], 0.4, Metric::kL2, /*cap=*/5), 6);
  // A cap above the true count returns the true count.
  EXPECT_EQ(
      tree.CountWithinRadius(q[0], 0.4, Metric::kL2, /*cap=*/full + 10),
      full);
}

TEST(KdTreeTest, ExcludeSkipsSelf) {
  PointSet ps = MakeRandomPoints(100, 3, 17);
  KdTree tree(&ps);
  for (int64_t i = 0; i < 20; ++i) {
    EXPECT_EQ(tree.Nearest(ps[i]), i);  // self is its own NN at distance 0
    int64_t nn = tree.Nearest(ps[i], /*exclude=*/i);
    EXPECT_NE(nn, i);
    EXPECT_EQ(nn, BruteNearest(ps, ps[i], i));
  }
}

TEST(KdTreeTest, SubsetConstructor) {
  PointSet ps(1, {0.0, 10.0, 20.0, 30.0, 40.0});
  KdTree tree(&ps, {1, 3});
  EXPECT_EQ(tree.size(), 2);
  PointSet q(1, {12.0});
  EXPECT_EQ(tree.Nearest(q[0]), 1);  // index into the original set
  PointSet q2(1, {29.0});
  EXPECT_EQ(tree.Nearest(q2[0]), 3);
  std::vector<int64_t> in_radius =
      tree.WithinRadius(q[0], 100.0, Metric::kL2);
  std::sort(in_radius.begin(), in_radius.end());
  EXPECT_EQ(in_radius, (std::vector<int64_t>{1, 3}));
}

TEST(KdTreeTest, DuplicatePointsAllReturned) {
  PointSet ps(2);
  for (int i = 0; i < 30; ++i) ps.Append(std::vector<double>{1.0, 1.0});
  KdTree tree(&ps);
  PointSet q(2, {1.0, 1.0});
  EXPECT_EQ(tree.CountWithinRadius(q[0], 0.0, Metric::kL2), 30);
  EXPECT_EQ(tree.WithinRadius(q[0], 0.1, Metric::kL2).size(), 30u);
}

// Brute-force oracle for NearestExcludingGroup with the same lexicographic
// (d2, group) winner rule.
KdTree::GroupNearest BruteGroupNearest(const PointSet& ps, PointView q,
                                       const std::vector<int32_t>& group_of,
                                       int32_t exclude_group,
                                       const std::vector<uint8_t>& active) {
  KdTree::GroupNearest best;
  for (int64_t i = 0; i < ps.size(); ++i) {
    int32_t g = group_of[static_cast<size_t>(i)];
    if (g == exclude_group || active[static_cast<size_t>(g)] == 0) continue;
    double d2 = SquaredL2(q, ps[i]);
    if (d2 < best.d2 || (d2 == best.d2 && g < best.group)) {
      best.d2 = d2;
      best.group = g;
      best.index = i;
    }
  }
  return best;
}

TEST(KdTreeGroupTest, MatchesBruteForceWithExclusionAndFilter) {
  const int32_t kGroups = 13;
  PointSet ps = MakeRandomPoints(400, 3, 91);
  std::vector<int32_t> group_of(400);
  for (int64_t i = 0; i < 400; ++i) {
    group_of[static_cast<size_t>(i)] = static_cast<int32_t>(i % kGroups);
  }
  std::vector<uint8_t> active(kGroups, 1);
  active[4] = 0;  // a dead group must never win
  active[9] = 0;
  KdTree tree(&ps);
  for (int64_t i = 0; i < 60; ++i) {
    int32_t self = group_of[static_cast<size_t>(i)];
    KdTree::GroupNearest got =
        tree.NearestExcludingGroup(ps[i], group_of, self, active);
    KdTree::GroupNearest want =
        BruteGroupNearest(ps, ps[i], group_of, self, active);
    EXPECT_EQ(got.group, want.group);
    EXPECT_EQ(got.d2, want.d2);
    EXPECT_NE(got.group, self);
    EXPECT_NE(got.group, 4);
    EXPECT_NE(got.group, 9);
  }
}

TEST(KdTreeGroupTest, DistanceTiesResolveToSmallestGroup) {
  // Two points equidistant from the query on opposite sides of the split;
  // the far-subtree `<=` descend must still find the smaller group id.
  PointSet ps(1);
  for (int i = 0; i < 40; ++i) {
    ps.Append(std::vector<double>{i < 20 ? 0.0 : 2.0});
  }
  std::vector<int32_t> group_of(40);
  for (int64_t i = 0; i < 40; ++i) {
    // Left pile gets odd high groups, right pile even low ones, so the
    // winner must come from the far side of whatever subtree is searched
    // first.
    group_of[static_cast<size_t>(i)] =
        i < 20 ? static_cast<int32_t>(20 + i) : static_cast<int32_t>(i - 20);
  }
  std::vector<uint8_t> active(40, 1);
  KdTree tree(&ps);
  PointSet q(1, {1.0});  // exactly 1.0 from both piles
  KdTree::GroupNearest got =
      tree.NearestExcludingGroup(q[0], group_of, /*exclude_group=*/-1,
                                 active);
  EXPECT_EQ(got.d2, 1.0);
  EXPECT_EQ(got.group, 0);
}

TEST(KdTreeGroupTest, AllFilteredReturnsEmpty) {
  PointSet ps = MakeRandomPoints(30, 2, 7);
  std::vector<int32_t> group_of(30, 0);
  std::vector<uint8_t> active(1, 1);
  KdTree tree(&ps);
  KdTree::GroupNearest got =
      tree.NearestExcludingGroup(ps[0], group_of, /*exclude_group=*/0,
                                 active);
  EXPECT_EQ(got.index, -1);
  EXPECT_EQ(got.group, -1);
  active[0] = 0;
  got = tree.NearestExcludingGroup(ps[0], group_of, /*exclude_group=*/-1,
                                   active);
  EXPECT_EQ(got.index, -1);
}

}  // namespace
}  // namespace dbs::data
