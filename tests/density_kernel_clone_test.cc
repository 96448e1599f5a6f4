// Every ISA clone of the frozen kernel block (density/kernel_block.h) must
// return the baseline clone's bits: the clones are one body compiled under
// different target attributes, so any difference means a transformation
// that changes values (FMA contraction, a reassociated accumulator) reached
// one copy of the arithmetic. Checked with memcmp over all five kernels,
// dims 1-6, no exclusion / an exclusion that misses / one that matches
// centers, tile lengths on every edge of the 256-wide block and of the
// 16-wide capped block, and caps at 0, around the exact sum and at +inf.
// The same sweep checks the cap's contract on the baseline: the exact sum's
// bits when that sum is <= cap, a value above the cap otherwise. The
// row-lane form is checked against the single-row baseline the same way,
// row by row, over groups of 1-17 rows (full and padded vectors) on every
// row-lane clone. A clone this CPU cannot run is skipped, and the skip
// names it.

#include <algorithm>
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

template <typename Named>
std::string CloneName(const ::testing::TestParamInfo<Named>& param) {
  std::string name = param.param.isa;
  for (char& ch : name) {
    if (ch == '-') ch = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(WiderIsas, KernelCloneTest,
                         ::testing::ValuesIn(WiderClones()),
                         CloneName<NamedClone>);
// Off x86-64 the baseline is the only clone.
GTEST_ALLOW_UNINSTANTIATED_PARAMETERIZED_TEST(KernelCloneTest);

// ---------------------------------------------------------------------------
// The row-lane form (SumEpanechnikovRowLanes) against the frozen single-row
// block, on every row-lane clone the host runs, the baseline included.

struct NamedRowClone {
  const char* isa;
  KernelRowLanesFn sum_rows;
};

void PrintTo(const NamedRowClone& clone, std::ostream* os) {
  *os << clone.isa;
}

std::vector<NamedRowClone> RowLaneClones() {
  return {
#if defined(__x86_64__)
      {"x86-64-v4", &SumEpanechnikovRowLanesV4},
      {"x86-64", &SumEpanechnikovRowLanesBaseline},
#else
      {"generic", &SumEpanechnikovRowLanesBaseline},
#endif
  };
}

// The self rows a group's lanes exclude.
enum class Selves {
  kNone,      // no exclusion
  kOwnRow,    // leave-one-out: only the last row, a center copy, matches
  kMatch,     // every row excludes the duplicated center
  kMiss,      // every row's self is one ulp-ish off that center
  kNan,       // every row's self has a NaN coordinate
  kNegZero,   // -0.0 where the duplicated center holds +0.0
};
constexpr Selves kAllSelves[] = {Selves::kNone,  Selves::kOwnRow,
                                 Selves::kMatch, Selves::kMiss,
                                 Selves::kNan,   Selves::kNegZero};

const char* SelvesName(Selves selves) {
  switch (selves) {
    case Selves::kNone: return "none";
    case Selves::kOwnRow: return "own row";
    case Selves::kMatch: return "match";
    case Selves::kMiss: return "miss";
    case Selves::kNan: return "nan";
    case Selves::kNegZero: return "-0.0";
  }
  return "?";
}

// Moves the case along axis 0 so that the duplicated center sits at +0.0
// there: the -0.0 self compares equal to it.
Case ShiftedToZero(Case c) {
  const double shift = c.near_center[0];
  for (int64_t t = 0; t < c.tile; ++t) c.soa[static_cast<size_t>(t)] -= shift;
  c.p[0] -= shift;
  c.near_center[0] -= shift;  // +0.0 exactly
  return c;
}

// `size` rows (row-major) that share the case's tile: jittered within a
// tenth of a bandwidth around p, except the last row, which is a copy of
// the duplicated center, so the padding lanes repeat a matching row.
std::vector<double> MakeGroupRows(const Case& c, int size, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> rows(static_cast<size_t>(size) * c.dim);
  for (int r = 0; r < size; ++r) {
    for (int j = 0; j < c.dim; ++j) {
      rows[static_cast<size_t>(r) * c.dim + j] =
          r + 1 == size ? c.near_center[j]
                        : c.p[j] + 0.1 / c.inv_bandwidths[j] *
                                       (rng.NextDouble() - 0.5);
    }
  }
  return rows;
}

std::vector<double> MakeSelves(const Case& c, const std::vector<double>& rows,
                               int size, Selves selves) {
  std::vector<double> self_rows(static_cast<size_t>(size) * c.dim);
  for (int r = 0; r < size; ++r) {
    for (int j = 0; j < c.dim; ++j) {
      double v = c.near_center[j];
      switch (selves) {
        case Selves::kOwnRow:
          v = rows[static_cast<size_t>(r) * c.dim + j];
          break;
        case Selves::kMiss:
          if (j == 0) v += 1e-9;
          break;
        case Selves::kNan:
          if (j == 0) v = std::nan("");
          break;
        case Selves::kNegZero:
          if (j == 0) v = -0.0;
          break;
        case Selves::kNone:
        case Selves::kMatch:
          break;
      }
      self_rows[static_cast<size_t>(r) * c.dim + j] = v;
    }
  }
  return self_rows;
}

// Sums a group through a row-lane clone as Kde's batch paths do: eight
// rows a call, the last call's spare lanes filled with the group's last
// row and their sums dropped.
std::vector<double> SumGroupInLanes(KernelRowLanesFn sum_rows, const Case& c,
                                    const std::vector<double>& rows,
                                    const double* selves, int size,
                                    double cap) {
  std::vector<double> out(static_cast<size_t>(size));
  std::vector<double> lanes(static_cast<size_t>(c.dim) * kKernelRowLanes);
  std::vector<double> self_lanes(lanes.size());
  double sums[kKernelRowLanes];
  for (int r0 = 0; r0 < size; r0 += kKernelRowLanes) {
    for (int r = 0; r < kKernelRowLanes; ++r) {
      const int row = std::min(r0 + r, size - 1);
      for (int j = 0; j < c.dim; ++j) {
        const size_t at = static_cast<size_t>(j) * kKernelRowLanes + r;
        lanes[at] = rows[static_cast<size_t>(row) * c.dim + j];
        if (selves != nullptr) {
          self_lanes[at] = selves[static_cast<size_t>(row) * c.dim + j];
        }
      }
    }
    sum_rows(c.dim, lanes.data(),
             selves != nullptr ? self_lanes.data() : nullptr,
             c.inv_bandwidths.data(), c.soa.data(), c.tile, cap, sums);
    for (int r = 0; r < kKernelRowLanes && r0 + r < size; ++r) {
      out[static_cast<size_t>(r0 + r)] = sums[r];
    }
  }
  return out;
}

class RowLaneTest : public ::testing::TestWithParam<NamedRowClone> {};

// Each row of each group against the single-row baseline's exact sum: at
// or below the cap the same bits (at +inf, always), above it a value above
// the cap, which is the single-row block's own `sum <= cap` decision
// (KernelCapTest). The caps are 0, the double below the exact sum of the
// group's middle row, that sum, the double above it, and +inf. Every
// row-lane clone must also match the baseline row-lane clone bit for bit
// at every cap.
TEST_P(RowLaneTest, MatchesSingleRowBlock) {
  const NamedRowClone clone = GetParam();
  if (!HostRuns(clone.isa)) {
    GTEST_SKIP() << "this CPU cannot run clone " << clone.isa;
  }
  const bool is_baseline = clone.sum_rows == &SumEpanechnikovRowLanesBaseline;
  int64_t rows_checked = 0;
  int64_t nonzero = 0;
  int64_t stopped_early = 0;
  int64_t excluded = 0;
  for (int dim = 1; dim <= 6; ++dim) {
    for (int64_t tile : kTiles) {
      const Case base = MakeCase(dim, tile, 7000 * static_cast<uint64_t>(dim) +
                                                static_cast<uint64_t>(tile));
      const Case shifted = ShiftedToZero(base);
      for (Selves selves : kAllSelves) {
        const Case& c = selves == Selves::kNegZero ? shifted : base;
        for (int size = 1; size <= 17; ++size) {
          const std::vector<double> rows =
              MakeGroupRows(c, size, 131 * static_cast<uint64_t>(size));
          const std::vector<double> self_rows =
              MakeSelves(c, rows, size, selves);
          const double* self_data =
              selves == Selves::kNone ? nullptr : self_rows.data();
          std::vector<double> exact(static_cast<size_t>(size));
          for (int r = 0; r < size; ++r) {
            const double* row = rows.data() + static_cast<size_t>(r) * dim;
            exact[static_cast<size_t>(r)] = SumKernelProductTileBaseline(
                KernelType::kEpanechnikov, dim, row, c.inv_bandwidths.data(),
                c.soa.data(), tile,
                self_data != nullptr
                    ? self_data + static_cast<size_t>(r) * dim
                    : nullptr,
                kInf);
            ++rows_checked;
            if (exact[static_cast<size_t>(r)] != 0.0) ++nonzero;
            if (self_data != nullptr &&
                exact[static_cast<size_t>(r)] !=
                    SumKernelProductTileBaseline(
                        KernelType::kEpanechnikov, dim, row,
                        c.inv_bandwidths.data(), c.soa.data(), tile, nullptr,
                        kInf)) {
              ++excluded;
            }
          }
          const double middle = exact[static_cast<size_t>((size - 1) / 2)];
          const double caps[kNumCaps] = {0.0, std::nextafter(middle, -kInf),
                                         middle, std::nextafter(middle, kInf),
                                         kInf};
          for (double cap : caps) {
            const std::vector<double> got =
                SumGroupInLanes(clone.sum_rows, c, rows, self_data, size, cap);
            const std::vector<double> baseline_lanes =
                is_baseline ? got
                            : SumGroupInLanes(&SumEpanechnikovRowLanesBaseline,
                                              c, rows, self_data, size, cap);
            for (int r = 0; r < size; ++r) {
              const double want = exact[static_cast<size_t>(r)];
              const double row_got = got[static_cast<size_t>(r)];
              const auto where = [&] {
                return ::testing::Message()
                       << clone.isa << ", dim " << dim << ", tile " << tile
                       << ", selves " << SelvesName(selves) << ", group of "
                       << size << ", row " << r << ", cap " << cap
                       << ": row lanes " << row_got << " vs single row "
                       << want;
              };
              ASSERT_EQ(std::memcmp(&row_got,
                                    &baseline_lanes[static_cast<size_t>(r)],
                                    sizeof(double)),
                        0)
                  << where() << " (baseline row lanes "
                  << baseline_lanes[static_cast<size_t>(r)] << ")";
              if (want <= cap) {
                ASSERT_EQ(std::memcmp(&row_got, &want, sizeof(double)), 0)
                    << where();
              } else {
                ASSERT_GT(row_got, cap) << where();
                if (row_got != want) ++stopped_early;
              }
            }
          }
        }
      }
    }
  }
  // 6 dims x 9 tiles x 6 selves x (1 + 2 + ... + 17) rows.
  EXPECT_EQ(rows_checked, 6 * 9 * 6 * (17 * 18 / 2));
  // Most sums must be nonzero, rows must really stop early, and the
  // exclusions must really drop terms, or the comparison proves little.
  EXPECT_GT(nonzero, rows_checked / 2);
  EXPECT_GT(stopped_early, 0);
  EXPECT_GT(excluded, 0);
}

INSTANTIATE_TEST_SUITE_P(AllIsas, RowLaneTest,
                         ::testing::ValuesIn(RowLaneClones()),
                         CloneName<NamedRowClone>);

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
  EXPECT_EQ(host.clone[host.count - 1].sum_rows,
            &SumEpanechnikovRowLanesBaseline);
  for (const NamedClone& named : WiderClones()) {
    for (int i = 0; i < host.count; ++i) {
      if (std::strcmp(host.clone[i].isa, named.isa) == 0) {
        EXPECT_EQ(host.clone[i].sum, named.sum) << named.isa;
      }
    }
  }
  // Each clone carries the row-lane form compiled for its own ISA.
  for (const NamedRowClone& named : RowLaneClones()) {
    for (int i = 0; i < host.count; ++i) {
      if (std::strcmp(host.clone[i].isa, named.isa) == 0) {
        EXPECT_EQ(host.clone[i].sum_rows, named.sum_rows) << named.isa;
      }
    }
  }
  const KernelTileClone active = ActiveKernelTileClone();
  EXPECT_STREQ(active.isa, host.clone[0].isa);
  EXPECT_EQ(active.sum, host.clone[0].sum);
  EXPECT_EQ(active.sum_rows, host.clone[0].sum_rows);
  RecordProperty("active_clone", active.isa);
}

}  // namespace
}  // namespace dbs::density
