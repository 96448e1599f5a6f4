// Every ISA clone of the frozen kernel block (density/kernel_block.h) must
// return the baseline clone's bits: the clones are one body compiled under
// different target attributes, so any difference means a transformation
// that changes values (FMA contraction, a reassociated accumulator) reached
// one copy of the arithmetic. Checked with memcmp over all five kernels,
// dims 1-6, no exclusion / an exclusion that misses / one that matches
// centers, tile lengths on every edge of the 256-wide block and of the
// 16-wide capped block, and caps at 0, around the exact sum and at +inf.
// The same sweep checks the cap's contract on the baseline: the exact sum's
// bits when that sum is <= cap, a value above the cap otherwise. A clone
// this CPU cannot run is skipped, and the skip names it.

#include <cmath>
#include <cstring>
#include <limits>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "density/kernel.h"
#include "density/kernel_block.h"
#include "util/rng.h"

namespace dbs::density {
namespace {

struct NamedClone {
  const char* isa;
  KernelTileFn sum;
};

// Test names and failure messages show the ISA, not the pointer bytes.
void PrintTo(const NamedClone& clone, std::ostream* os) { *os << clone.isa; }

// The clones compiled beside the baseline, called by name.
std::vector<NamedClone> WiderClones() {
  return {
#if defined(__x86_64__)
      {"x86-64-v4", &SumKernelProductTileV4},
#endif
  };
}

bool HostRuns(const char* isa) {
  const KernelTileClones host = HostKernelTileClones();
  for (int i = 0; i < host.count; ++i) {
    if (std::strcmp(host.clone[i].isa, isa) == 0) return true;
  }
  return false;
}

// One tile and query point: center j of the tile sits at p + u_j * h in
// each dimension, with u drawn so that a share of the factors fall outside
// the compact kernels' support (zero products) and some land exactly on
// the support edge. The centers at tile/2 and tile/3 are copies of one
// point close to p, the one the matching exclusion names.
struct Case {
  int dim = 0;
  int64_t tile = 0;
  std::vector<double> p;
  std::vector<double> inv_bandwidths;
  std::vector<double> soa;
  std::vector<double> near_center;  // coordinates of the duplicated center
};

Case MakeCase(int dim, int64_t tile, uint64_t seed) {
  Rng rng(seed);
  Case c;
  c.dim = dim;
  c.tile = tile;
  c.p.resize(static_cast<size_t>(dim));
  c.inv_bandwidths.resize(static_cast<size_t>(dim));
  c.near_center.resize(static_cast<size_t>(dim));
  std::vector<double> h(static_cast<size_t>(dim));
  for (int j = 0; j < dim; ++j) {
    c.p[j] = 4.0 * rng.NextDouble() - 2.0;
    h[j] = 0.5 + rng.NextDouble();
    c.inv_bandwidths[j] = 1.0 / h[j];
    c.near_center[j] = c.p[j] + 0.1 * h[j] * (rng.NextDouble() - 0.5);
  }
  c.soa.resize(static_cast<size_t>(dim) * tile);
  for (int64_t t = 0; t < tile; ++t) {
    for (int j = 0; j < dim; ++j) {
      double u = 2.6 * rng.NextDouble() - 1.3;
      if (t % 17 == 5) u = (t % 2 == 0) ? 1.0 : -1.0;  // on the edge
      c.soa[static_cast<size_t>(j) * tile + t] = c.p[j] + u * h[j];
    }
  }
  for (int64_t t : {tile / 2, tile / 3}) {
    if (t >= tile) continue;
    for (int j = 0; j < dim; ++j) {
      c.soa[static_cast<size_t>(j) * tile + t] = c.near_center[j];
    }
  }
  return c;
}

class KernelCloneTest : public ::testing::TestWithParam<NamedClone> {};

constexpr double kInf = std::numeric_limits<double>::infinity();

const KernelType kKernels[] = {KernelType::kEpanechnikov,
                               KernelType::kQuartic,
                               KernelType::kTriangular,
                               KernelType::kUniform,
                               KernelType::kGaussian};
const int64_t kTiles[] = {0, 1, 15, 16, 17, 255, 256, 257, 1000};
constexpr int kNumCaps = 5;

// Calls check(kernel, case, exclude, exclude_name, cap, exact) over
// kernels x dims 1-6 x tiles x exclusions x caps, where `exact` is the
// baseline's uncapped sum and the caps are 0, the double just below it,
// `exact` itself, the double just above it, and +inf. Returns the number
// of cases.
template <typename Check>
int64_t ForEachCappedCase(Check&& check) {
  int64_t cases = 0;
  for (int dim = 1; dim <= 6; ++dim) {
    for (int64_t tile : kTiles) {
      const Case c = MakeCase(
          dim, tile, 1000 * static_cast<uint64_t>(dim) +
                         static_cast<uint64_t>(tile));
      std::vector<double> miss = c.near_center;
      miss[0] += 1e-9;
      const std::pair<const double*, const char*> excludes[] = {
          {nullptr, "none"}, {miss.data(), "miss"},
          {c.near_center.data(), "match"}};
      for (KernelType kernel : kKernels) {
        for (const auto& [exclude, exclude_name] : excludes) {
          const double exact = SumKernelProductTileBaseline(
              kernel, dim, c.p.data(), c.inv_bandwidths.data(), c.soa.data(),
              tile, exclude, kInf);
          const double caps[kNumCaps] = {0.0, std::nextafter(exact, -kInf),
                                         exact, std::nextafter(exact, kInf),
                                         kInf};
          for (double cap : caps) {
            check(kernel, c, exclude, exclude_name, cap, exact);
            ++cases;
          }
        }
      }
    }
  }
  return cases;
}

TEST_P(KernelCloneTest, MatchesBaselineBitwise) {
  const NamedClone clone = GetParam();
  if (!HostRuns(clone.isa)) {
    GTEST_SKIP() << "this CPU cannot run clone " << clone.isa;
  }
  int64_t nonzero = 0;
  const int64_t compared = ForEachCappedCase(
      [&](KernelType kernel, const Case& c, const double* exclude,
          const char* exclude_name, double cap, double exact) {
        const double want = SumKernelProductTileBaseline(
            kernel, c.dim, c.p.data(), c.inv_bandwidths.data(), c.soa.data(),
            c.tile, exclude, cap);
        const double got =
            clone.sum(kernel, c.dim, c.p.data(), c.inv_bandwidths.data(),
                      c.soa.data(), c.tile, exclude, cap);
        ASSERT_EQ(std::memcmp(&got, &want, sizeof(double)), 0)
            << clone.isa << " vs baseline, kernel " << KernelTypeName(kernel)
            << ", dim " << c.dim << ", tile " << c.tile << ", exclude "
            << exclude_name << ", cap " << cap << " (exact " << exact
            << "): " << got << " vs " << want;
        if (want != 0.0) ++nonzero;
      });
  EXPECT_EQ(compared, 6 * 9 * 5 * 3 * kNumCaps);
  // Most sums must be nonzero, or the comparison proves little.
  EXPECT_GT(nonzero, compared / 2);
}

TEST(KernelCapTest, ExactAtOrBelowTheCapAndAboveItOtherwise) {
  int64_t stopped_early = 0;
  const int64_t cases = ForEachCappedCase(
      [&](KernelType kernel, const Case& c, const double* exclude,
          const char* exclude_name, double cap, double exact) {
        const double got = SumKernelProductTileBaseline(
            kernel, c.dim, c.p.data(), c.inv_bandwidths.data(), c.soa.data(),
            c.tile, exclude, cap);
        if (exact <= cap) {
          ASSERT_EQ(std::memcmp(&got, &exact, sizeof(double)), 0)
              << "kernel " << KernelTypeName(kernel) << ", dim " << c.dim
              << ", tile " << c.tile << ", exclude " << exclude_name
              << ", cap " << cap << ": " << got << " vs exact " << exact;
        } else {
          ASSERT_GT(got, cap)
              << "kernel " << KernelTypeName(kernel) << ", dim " << c.dim
              << ", tile " << c.tile << ", exclude " << exclude_name
              << ", exact " << exact;
          if (got != exact) ++stopped_early;
        }
      });
  EXPECT_EQ(cases, 6 * 9 * 5 * 3 * kNumCaps);
  // The cases must include rows that really stop before the end.
  EXPECT_GT(stopped_early, 0);
}

// The compacted exclusion adds the remaining terms in tile order: dropping
// the matching centers from the tile and summing the rest with no
// exclusion gives the same bits.
TEST(KernelCapTest, ExclusionEqualsSummingTheTileWithoutTheMatches) {
  for (int dim = 1; dim <= 6; ++dim) {
    for (int64_t tile : kTiles) {
      const Case c = MakeCase(dim, tile, 31 * static_cast<uint64_t>(dim) +
                                             static_cast<uint64_t>(tile));
      std::vector<int64_t> kept_at;
      for (int64_t t = 0; t < tile; ++t) {
        bool matches = true;
        for (int j = 0; j < dim; ++j) {
          matches = matches && c.soa[static_cast<size_t>(j) * tile + t] ==
                                   c.near_center[j];
        }
        if (!matches) kept_at.push_back(t);
      }
      const auto kept = static_cast<int64_t>(kept_at.size());
      std::vector<double> rest(static_cast<size_t>(dim) * kept);
      for (int j = 0; j < dim; ++j) {
        for (int64_t k = 0; k < kept; ++k) {
          rest[static_cast<size_t>(j) * kept + k] =
              c.soa[static_cast<size_t>(j) * tile + kept_at[k]];
        }
      }
      for (KernelType kernel : kKernels) {
        const double excluded = SumKernelProductTileBaseline(
            kernel, dim, c.p.data(), c.inv_bandwidths.data(), c.soa.data(),
            tile, c.near_center.data(), kInf);
        const double summed = SumKernelProductTileBaseline(
            kernel, dim, c.p.data(), c.inv_bandwidths.data(), rest.data(),
            kept, nullptr, kInf);
        ASSERT_EQ(std::memcmp(&excluded, &summed, sizeof(double)), 0)
            << "kernel " << KernelTypeName(kernel) << ", dim " << dim
            << ", tile " << tile;
      }
    }
  }
}

std::string CloneName(const ::testing::TestParamInfo<NamedClone>& param) {
  std::string name = param.param.isa;
  for (char& ch : name) {
    if (ch == '-') ch = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(WiderIsas, KernelCloneTest,
                         ::testing::ValuesIn(WiderClones()), CloneName);
// Off x86-64 the baseline is the only clone.
GTEST_ALLOW_UNINSTANTIATED_PARAMETERIZED_TEST(KernelCloneTest);

TEST(KernelCloneCaseTest, ExcludingAMatchingCenterDropsItsTerms) {
  // The matching exclusion must actually remove terms, or the "match"
  // cases above would not exercise the exclusion branch.
  const Case c = MakeCase(3, 257, 77);
  const double all = SumKernelProductTileBaseline(
      KernelType::kEpanechnikov, 3, c.p.data(), c.inv_bandwidths.data(),
      c.soa.data(), c.tile, nullptr, kInf);
  const double excluded = SumKernelProductTileBaseline(
      KernelType::kEpanechnikov, 3, c.p.data(), c.inv_bandwidths.data(),
      c.soa.data(), c.tile, c.near_center.data(), kInf);
  EXPECT_LT(excluded, all);
}

TEST(KernelCloneListTest, WidestFirstEndingWithTheBaseline) {
  const KernelTileClones host = HostKernelTileClones();
  ASSERT_GE(host.count, 1);
  ASSERT_LE(host.count, kMaxKernelTileClones);
  EXPECT_EQ(host.clone[host.count - 1].sum, &SumKernelProductTileBaseline);
  for (const NamedClone& named : WiderClones()) {
    for (int i = 0; i < host.count; ++i) {
      if (std::strcmp(host.clone[i].isa, named.isa) == 0) {
        EXPECT_EQ(host.clone[i].sum, named.sum) << named.isa;
      }
    }
  }
  const KernelTileClone active = ActiveKernelTileClone();
  EXPECT_STREQ(active.isa, host.clone[0].isa);
  EXPECT_EQ(active.sum, host.clone[0].sum);
  RecordProperty("active_clone", active.isa);
}

}  // namespace
}  // namespace dbs::density
