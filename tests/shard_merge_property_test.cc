// The merge contract, property-tested (DESIGN.md §12): MergePartialKde is
// a sorted disjoint union with no arithmetic, so every merge order and
// every tree shape must finalize to the SAME model, bitwise. Also pins the
// merged-model round trip: FinalizeKde -> ExportState/FromState and
// SaveKde/LoadKde both reproduce Evaluate byte-for-byte.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "data/dataset.h"
#include "data/range_scan.h"
#include "density/kde.h"
#include "density/kde_io.h"
#include "density/kde_partial.h"
#include "synth/generator.h"
#include "test_temp.h"
#include "util/shard.h"

namespace dbs {
namespace {

constexpr int kDim = 3;

data::PointSet MakeData(int64_t points, uint64_t seed) {
  synth::ClusteredDatasetOptions opts;
  opts.dim = kDim;
  opts.num_clusters = 4;
  opts.num_cluster_points = points;
  opts.noise_multiplier = 0.1;
  opts.seed = seed;
  auto ds = synth::MakeClusteredDataset(opts);
  EXPECT_TRUE(ds.ok());
  return std::move(ds)->points;
}

density::KdeOptions KdeOpts() {
  density::KdeOptions opts;
  opts.num_kernels = 128;
  opts.seed = 13;
  return opts;
}

// One partial per shard, each from its own RangeScan slice.
std::vector<density::PartialKde> FitAllShards(const data::PointSet& data,
                                              int64_t num_shards) {
  std::vector<density::PartialKde> partials;
  for (int64_t s = 0; s < num_shards; ++s) {
    ShardInfo info;
    info.shard = s;
    info.num_shards = num_shards;
    info.total_rows = data.size();
    const RowRange range = ShardRowRange(info.total_rows, num_shards, s);
    data::InMemoryScan base(&data);
    data::RangeScan slice(&base, range.begin, range.end);
    auto partial = density::Kde::FitPartial(slice, KdeOpts(), info);
    EXPECT_TRUE(partial.ok()) << partial.status().ToString();
    partials.push_back(std::move(*partial));
  }
  return partials;
}

bool SameDoubles(const std::vector<double>& a,
                 const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

void ExpectSameModel(const density::Kde& got, const density::Kde& want) {
  const density::Kde::State g = got.ExportState();
  const density::Kde::State w = want.ExportState();
  EXPECT_EQ(g.n, w.n);
  EXPECT_EQ(g.kernel, w.kernel);
  EXPECT_TRUE(SameDoubles(g.centers.flat(), w.centers.flat()));
  EXPECT_TRUE(SameDoubles(g.bandwidths, w.bandwidths));
  EXPECT_TRUE(SameDoubles(g.bounds.lo(), w.bounds.lo()));
  EXPECT_TRUE(SameDoubles(g.bounds.hi(), w.bounds.hi()));
}

// Left fold in the given order of shard indices.
[[nodiscard]] Result<density::Kde> FoldAndFinalize(
    const std::vector<density::PartialKde>& partials,
    const std::vector<size_t>& order) {
  density::PartialKde acc = partials[order[0]];
  for (size_t i = 1; i < order.size(); ++i) {
    auto merged = density::MergePartialKde(std::move(acc),
                                           partials[order[i]]);
    if (!merged.ok()) return merged.status();
    acc = std::move(*merged);
  }
  return density::FinalizeKde(std::move(acc), KdeOpts());
}

TEST(ShardMergePropertyTest, EveryMergeOrderFinalizesIdentically) {
  const data::PointSet data = MakeData(1500, 31);
  const std::vector<density::PartialKde> partials = FitAllShards(data, 4);
  std::vector<size_t> order(partials.size());
  std::iota(order.begin(), order.end(), size_t{0});
  auto reference = FoldAndFinalize(partials, order);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  // All 24 permutations of the 4 shards.
  while (std::next_permutation(order.begin(), order.end())) {
    auto kde = FoldAndFinalize(partials, order);
    ASSERT_TRUE(kde.ok()) << kde.status().ToString();
    ExpectSameModel(*kde, *reference);
  }
}

TEST(ShardMergePropertyTest, TreeShapeCannotAffectTheModel) {
  const data::PointSet data = MakeData(1500, 37);
  std::vector<density::PartialKde> p = FitAllShards(data, 4);

  // Balanced: (0+1) + (2+3).
  auto left = density::MergePartialKde(p[0], p[1]);
  auto right = density::MergePartialKde(p[2], p[3]);
  ASSERT_TRUE(left.ok() && right.ok());
  auto balanced = density::MergePartialKde(std::move(*left),
                                           std::move(*right));
  ASSERT_TRUE(balanced.ok());
  auto balanced_kde = density::FinalizeKde(std::move(*balanced), KdeOpts());
  ASSERT_TRUE(balanced_kde.ok());

  // Skewed: ((3+1) + 0) + 2.
  auto skew = density::MergePartialKde(p[3], p[1]);
  ASSERT_TRUE(skew.ok());
  skew = density::MergePartialKde(std::move(*skew), p[0]);
  ASSERT_TRUE(skew.ok());
  skew = density::MergePartialKde(std::move(*skew), p[2]);
  ASSERT_TRUE(skew.ok());
  auto skewed_kde = density::FinalizeKde(std::move(*skew), KdeOpts());
  ASSERT_TRUE(skewed_kde.ok());

  ExpectSameModel(*skewed_kde, *balanced_kde);
}

TEST(ShardMergePropertyTest, MergeIsCommutative) {
  const data::PointSet data = MakeData(800, 41);
  std::vector<density::PartialKde> p = FitAllShards(data, 2);
  auto ab = density::MergePartialKde(p[0], p[1]);
  auto ba = density::MergePartialKde(p[1], p[0]);
  ASSERT_TRUE(ab.ok() && ba.ok());
  ASSERT_EQ(ab->parts.size(), 2u);
  EXPECT_EQ(ab->parts[0].shard, 0);
  EXPECT_EQ(ba->parts[0].shard, 0);
  auto kde_ab = density::FinalizeKde(std::move(*ab), KdeOpts());
  auto kde_ba = density::FinalizeKde(std::move(*ba), KdeOpts());
  ASSERT_TRUE(kde_ab.ok() && kde_ba.ok());
  ExpectSameModel(*kde_ba, *kde_ab);
}

TEST(ShardMergePropertyTest, DuplicateShardIsRejected) {
  const data::PointSet data = MakeData(800, 43);
  std::vector<density::PartialKde> p = FitAllShards(data, 2);
  auto dup = density::MergePartialKde(p[0], p[0]);
  EXPECT_FALSE(dup.ok());
  // Partials from builds with different shard counts cannot merge either.
  std::vector<density::PartialKde> other = FitAllShards(data, 3);
  auto cross = density::MergePartialKde(p[0], other[1]);
  EXPECT_FALSE(cross.ok());
}

TEST(ShardMergePropertyTest, IncompletePartialCannotFinalize) {
  const data::PointSet data = MakeData(800, 47);
  std::vector<density::PartialKde> p = FitAllShards(data, 3);
  auto partial = density::MergePartialKde(p[0], p[2]);  // shard 1 missing
  ASSERT_TRUE(partial.ok());
  EXPECT_FALSE(density::FinalizeKde(std::move(*partial), KdeOpts()).ok());
}

TEST(ShardMergePropertyTest, MergedModelRoundTripsThroughStateAndDisk) {
  const data::PointSet data = MakeData(2000, 53);
  std::vector<density::PartialKde> p = FitAllShards(data, 3);
  auto merged = density::MergePartialKde(p[0], p[1]);
  ASSERT_TRUE(merged.ok());
  merged = density::MergePartialKde(std::move(*merged), p[2]);
  ASSERT_TRUE(merged.ok());
  auto kde = density::FinalizeKde(std::move(*merged), KdeOpts());
  ASSERT_TRUE(kde.ok());

  const data::PointSet queries = MakeData(200, 59);
  std::vector<double> want(static_cast<size_t>(queries.size()));
  for (int64_t i = 0; i < queries.size(); ++i) {
    want[static_cast<size_t>(i)] = kde->Evaluate(queries[i]);
  }

  // ExportState -> FromState.
  auto rebuilt = density::Kde::FromState(kde->ExportState());
  ASSERT_TRUE(rebuilt.ok());
  // SaveKde -> LoadKde.
  const std::string path = test::TempPath("shard_merge_roundtrip.dbsk");
  ASSERT_TRUE(density::SaveKde(*kde, path).ok());
  auto loaded = density::LoadKde(path);
  ASSERT_TRUE(loaded.ok());
  std::remove(path.c_str());

  for (int64_t i = 0; i < queries.size(); ++i) {
    const double w = want[static_cast<size_t>(i)];
    const double from_state = rebuilt->Evaluate(queries[i]);
    const double from_disk = loaded->Evaluate(queries[i]);
    EXPECT_EQ(std::memcmp(&from_state, &w, sizeof(double)), 0) << i;
    EXPECT_EQ(std::memcmp(&from_disk, &w, sizeof(double)), 0) << i;
  }
}

}  // namespace
}  // namespace dbs
