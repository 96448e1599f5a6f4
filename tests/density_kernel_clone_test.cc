// Every ISA clone of the frozen kernel block (density/kernel_block.h) must
// return the baseline clone's bits: the clones are one body compiled under
// different target attributes, so any difference means a transformation
// that changes values (FMA contraction, a reassociated accumulator) reached
// one copy of the arithmetic. Checked with memcmp over all five kernels,
// dims 1-6, no exclusion / an exclusion that misses / one that matches
// centers, and tile lengths on every edge of the 256-wide block. A clone
// this CPU cannot run is skipped, and the skip names it.

#include <cstring>
#include <ostream>
#include <string>
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

TEST_P(KernelCloneTest, MatchesBaselineBitwise) {
  const NamedClone clone = GetParam();
  if (!HostRuns(clone.isa)) {
    GTEST_SKIP() << "this CPU cannot run clone " << clone.isa;
  }
  const KernelType kKernels[] = {KernelType::kEpanechnikov,
                                 KernelType::kQuartic,
                                 KernelType::kTriangular,
                                 KernelType::kUniform,
                                 KernelType::kGaussian};
  const int64_t kTiles[] = {0, 1, 255, 256, 257, 1000};
  int64_t compared = 0;
  int64_t nonzero = 0;
  for (int dim = 1; dim <= 6; ++dim) {
    for (int64_t tile : kTiles) {
      const Case c = MakeCase(
          dim, tile, 1000 * static_cast<uint64_t>(dim) +
                         static_cast<uint64_t>(tile));
      std::vector<double> miss = c.near_center;
      miss[0] += 1e-9;
      const double* excludes[] = {nullptr, miss.data(), c.near_center.data()};
      for (KernelType kernel : kKernels) {
        for (const double* exclude : excludes) {
          const double want = SumKernelProductTileBaseline(
              kernel, dim, c.p.data(), c.inv_bandwidths.data(), c.soa.data(),
              tile, exclude);
          const double got =
              clone.sum(kernel, dim, c.p.data(), c.inv_bandwidths.data(),
                        c.soa.data(), tile, exclude);
          ASSERT_EQ(std::memcmp(&got, &want, sizeof(double)), 0)
              << clone.isa << " vs baseline, kernel "
              << KernelTypeName(kernel) << ", dim " << dim << ", tile "
              << tile << ", exclude "
              << (exclude == nullptr             ? "none"
                  : exclude == miss.data()       ? "miss"
                                                 : "match")
              << ": " << got << " vs " << want;
          ++compared;
          if (want != 0.0) ++nonzero;
        }
      }
    }
  }
  EXPECT_EQ(compared, 6 * 6 * 5 * 3);
  // Most sums must be nonzero, or the comparison proves little.
  EXPECT_GT(nonzero, compared / 2);
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
      c.soa.data(), c.tile, nullptr);
  const double excluded = SumKernelProductTileBaseline(
      KernelType::kEpanechnikov, 3, c.p.data(), c.inv_bandwidths.data(),
      c.soa.data(), c.tile, c.near_center.data());
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
