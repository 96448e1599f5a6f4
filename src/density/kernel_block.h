// The frozen per-pair kernel block loop shared by every tuned KDE path.
//
// SumKernelProductTile is THE summation kernel the bitwise-reproducibility
// guarantees rest on: Kde's cell-grouped and brute batch paths (DESIGN.md
// §9) both sum a point against an SoA center tile through this one
// function, so "both paths use the same per-pair arithmetic in the same
// order" is true by construction, not by parallel maintenance. They call it
// through one of the ISA clones declared at the end of this file. Its
// include list is pinned in tools/lint/layers.txt; treat the arithmetic as
// frozen — any change here changes every density byte in the system.
//
// Contract: the tile is summed in ascending tile order, products are taken
// in dimension order, and the accumulator is a single double. A zero kernel
// factor multiplies through to +0.0 instead of branching out early, and
// +0.0 terms are compacted away before accumulation — both bitwise
// invisible, because adding +0.0 to a non-negative sum cannot change its
// bits. The consequence: summing any SUPERSET of the in-support centers, in
// ascending order, yields the identical bits. A self-exclusion drops its
// matching terms from the compacted list, so it too adds the remaining
// terms in the same order.
//
// The sum may stop early at a cap: every term is >= +0.0 and rounded
// addition is monotone, so once a partial sum exceeds `cap` the full sum
// does too. The result is the exact sum when that sum is <= cap, and
// otherwise some partial sum > cap. cap = +inf never stops and keeps the
// 256-term blocks: the full sum, for every caller that passes no cap.

#ifndef DBS_DENSITY_KERNEL_BLOCK_H_
#define DBS_DENSITY_KERNEL_BLOCK_H_

#include <algorithm>
#include <cstdint>

#include "density/kernel.h"

namespace dbs::density {

// Tile block width for the batch inner loop: long enough to vectorize,
// small enough that the product buffer stays in L1. Block boundaries are
// bitwise invisible (the accumulator runs across blocks), so this is a
// tuning constant, not a semantic one.
inline constexpr int64_t kKernelTileBlock = 256;

// Block width under a finite cap, which is tested after every block: a
// narrower block lets a row stop sooner, a wider one costs less a term
// (EXPERIMENTS.md, "Capped score pass"). Like kKernelTileBlock, it cannot
// show in a result below the cap.
inline constexpr int64_t kKernelCapBlock = 16;

// Ordered kernel-product sum of point `p` (dim doubles) against an SoA
// center tile (`soa` holds dim arrays of length `tile`). `exclude` is the
// coordinates of a center to skip (nullptr = none); a center is excluded
// only when its product is nonzero and every coordinate matches bitwise.
// `cap` is the early-stop bound of the contract above (+inf = the full
// sum). Always inlined, so that each ISA clone in kernel_block.cc compiles
// its own copy under its own target attribute instead of calling a
// baseline one.
[[gnu::always_inline]] inline double SumKernelProductTile(
    KernelType kernel, int dim, const double* p, const double* inv_bandwidths,
    const double* soa, int64_t tile, const double* exclude, double cap) {
  const int d = dim;
  // A builtin rather than <limits>: this header's include list is pinned.
  const int64_t width =
      cap < __builtin_huge_val() ? kKernelCapBlock : kKernelTileBlock;
  double prod[kKernelTileBlock];
  double sum = 0.0;
  for (int64_t b0 = 0; b0 < tile; b0 += width) {
    const int64_t block = std::min(width, tile - b0);
    for (int64_t t = 0; t < block; ++t) prod[t] = 1.0;
    if (kernel == KernelType::kEpanechnikov) {
      // Inlined Epanechnikov: identical arithmetic to KernelValue, minus
      // the per-factor call; branch-free so the loop vectorizes.
      for (int j = 0; j < d; ++j) {
        const double pj = p[j];
        const double ih = inv_bandwidths[j];
        const double* col = soa + static_cast<size_t>(j) * tile + b0;
        for (int64_t t = 0; t < block; ++t) {
          const double u = (pj - col[t]) * ih;
          const double a = 1.0 - u * u;
          prod[t] *= a > 0 ? 0.75 * a : 0.0;
        }
      }
    } else {
      for (int j = 0; j < d; ++j) {
        const double pj = p[j];
        const double ih = inv_bandwidths[j];
        const double* col = soa + static_cast<size_t>(j) * tile + b0;
        for (int64_t t = 0; t < block; ++t) {
          prod[t] *= KernelValue(kernel, (pj - col[t]) * ih);
        }
      }
    }
    // The sequential accumulator is the one serial FP dependency chain
    // here, and in a pruned tile many gathered centers fall outside the
    // support box (prod == +0.0). Compact the nonzero products —
    // branchless and order-preserving — so the serial chain only runs
    // over terms that matter. Skipping +0.0 additions is bitwise
    // invisible: adding +0.0 to a non-negative accumulator is identity.
    int64_t nz = 0;
    if (exclude == nullptr) {
      for (int64_t t = 0; t < block; ++t) {
        prod[nz] = prod[t];
        nz += prod[t] != 0.0 ? 1 : 0;
      }
    } else {
      // The same compaction, remembering where each kept term came from;
      // then the terms whose center equals `exclude` drop out of the list.
      // Only nonzero terms reach the coordinate compare.
      int32_t at[kKernelTileBlock];
      for (int64_t t = 0; t < block; ++t) {
        prod[nz] = prod[t];
        at[nz] = static_cast<int32_t>(t);
        nz += prod[t] != 0.0 ? 1 : 0;
      }
      int64_t kept = 0;
      for (int64_t k = 0; k < nz; ++k) {
        const double* center = soa + b0 + at[k];
        bool matches = true;
        for (int j = 0; j < d; ++j) {
          if (center[static_cast<size_t>(j) * tile] != exclude[j]) {
            matches = false;
            break;
          }
        }
        prod[kept] = prod[k];
        kept += matches ? 0 : 1;
      }
      nz = kept;
    }
    for (int64_t t = 0; t < nz; ++t) sum += prod[t];
    if (sum > cap) break;
  }
  return sum;
}

// ISA clones (kernel_block.cc). The body above is compiled once for the
// baseline ISA and, on x86-64, once more under target("arch=x86-64-v4")
// (AVX-512, FMA). A wider vector cannot change a result: -ffp-contract=off
// keeps FMA contraction out of every clone, each per-term operation rounds
// the same at any width, and the accumulator stays one serial chain in tile
// order. So every clone returns the baseline clone's bits, which
// tests/density_kernel_clone_test.cc checks with memcmp on every clone the
// host can run, for every cap. The cap cannot split the clones either: the
// block width and the stop test read only `cap` and the serial sum.
using KernelTileFn = double (*)(KernelType kernel, int dim, const double* p,
                                const double* inv_bandwidths,
                                const double* soa, int64_t tile,
                                const double* exclude, double cap);

double SumKernelProductTileBaseline(KernelType kernel, int dim,
                                    const double* p,
                                    const double* inv_bandwidths,
                                    const double* soa, int64_t tile,
                                    const double* exclude, double cap);
#if defined(__x86_64__)
__attribute__((target("arch=x86-64-v4"))) double SumKernelProductTileV4(
    KernelType kernel, int dim, const double* p, const double* inv_bandwidths,
    const double* soa, int64_t tile, const double* exclude, double cap);
#endif

struct KernelTileClone {
  const char* isa;  // "x86-64-v4", "x86-64"; "generic" elsewhere
  KernelTileFn sum;
};

inline constexpr int kMaxKernelTileClones = 2;

// The clones this host's CPU can run, widest first. The baseline clone is
// always present, and always last.
struct KernelTileClones {
  int count = 0;
  KernelTileClone clone[kMaxKernelTileClones] = {};
};
KernelTileClones HostKernelTileClones();

// The widest clone this host can run: the one Kde::FromState picks for every
// estimator. No option selects another.
KernelTileClone ActiveKernelTileClone();

}  // namespace dbs::density

#endif  // DBS_DENSITY_KERNEL_BLOCK_H_
