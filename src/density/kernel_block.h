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
//
// SumEpanechnikovRowLanes is the row-lane form of the same block for the
// Epanechnikov kernel: eight rows that share one tile (a cell group, or
// the brute path's whole center table) are summed at once, one row a lane
// of an explicit 8-double vector. It returns each row's single-row bits,
// because nothing a lane computes differs from the single-row block:
//   * Per term, a lane does the same arithmetic in the same order: k = 1;
//     then for each axis j, u = (p_j - c_jt) * ih_j, a = 1 - u*u,
//     k *= (a > 0) ? 0.75*a : 0. -ffp-contract=off keeps FMA out of every
//     clone, so each operation rounds as it does in the single-row loop.
//   * The lane is the row's single accumulator and adds EVERY tile term,
//     zeros included, in ascending tile order. Adding +0.0 to a
//     non-negative sum is the identity, so this is the superset clause
//     above: the bits of the compacted chain.
//   * Leave-one-out sets k = +0.0 for a center whose coordinates all
//     compare == to the lane's self, as the single-row block compares. A
//     matching center whose product is already +0.0 gives the same sum
//     either way, and every duplicate of self drops, as it does there.
//   * A finite cap is tested after every kKernelCapBlock terms, and the
//     sum stops only once EVERY lane is above it. A lane that keeps adding
//     stays "some partial sum > cap", so each row keeps the cap contract
//     above: the exact bits at or below the cap, some value above it
//     otherwise. cap = +inf is never tested.
// A caller with fewer than eight rows fills the spare lanes with copies of
// its last row and drops their sums: a copy stops when that row does, so
// it cannot hold back the cap's stop. The vector types make the select a
// bitwise AND with the comparison mask, which every ISA clone (and a
// sanitizer build) compiles to vector code with the same bits; a plain
// double[8] loop of the same arithmetic is not vectorized by gcc 12.

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

// Rows a row-lane call sums.
inline constexpr int kKernelRowLanes = 8;

// The explicit vector types that hold the lanes: one 8-double vector in
// the x86-64-v4 clone, four 2-double vectors in the baseline clone. Each
// is the widest vector its ISA compares natively; gcc lowers a wider
// vector comparison to one scalar compare a lane.
using KernelLanes8 = double __attribute__((vector_size(64)));
using KernelLaneBits8 = int64_t __attribute__((vector_size(64)));
using KernelLanes2 = double __attribute__((vector_size(16)));
using KernelLaneBits2 = int64_t __attribute__((vector_size(16)));

// Row-lane Epanechnikov sums (the contract above) of eight rows against an
// SoA center tile, the lanes held in vectors of type Lanes (with LaneBits,
// the integer vector of the same shape, for the masks). `lanes` holds
// dim x kKernelRowLanes doubles, axis-major: lanes[j * kKernelRowLanes + r]
// is coordinate j of lane r's row. `self_lanes` holds each lane's self in
// the same layout (nullptr = no exclusion). `sums` receives the
// kKernelRowLanes sums. Always inlined, for the clones, like
// SumKernelProductTile.
template <typename Lanes, typename LaneBits>
[[gnu::always_inline]] inline void SumEpanechnikovRowLanes(
    int dim, const double* lanes, const double* self_lanes,
    const double* inv_bandwidths, const double* soa, int64_t tile,
    double cap, double* sums) {
  constexpr int kWidth = static_cast<int>(sizeof(Lanes) / sizeof(double));
  constexpr int kParts = kKernelRowLanes / kWidth;
  static_assert(kParts * kWidth == kKernelRowLanes);
  // A scalar operand is splat into every lane, and x - (+0.0) is x for
  // every x, -0.0 included, so `x - zero` holds x in each lane.
  const Lanes zero = {};
  const Lanes one = 1.0 - zero;
  const Lanes three_quarters = 0.75 - zero;
  const Lanes cap_lanes = cap - zero;
  // Only a finite cap is tested; with cap = +inf the one block is the tile.
  const bool capped = cap < __builtin_huge_val();
  const int64_t width = capped ? kKernelCapBlock : tile;
  Lanes acc[kParts];
  for (int q = 0; q < kParts; ++q) acc[q] = zero;
  for (int64_t b0 = 0; b0 < tile; b0 += width) {
    const int64_t b1 = std::min(tile, b0 + width);
    for (int64_t t = b0; t < b1; ++t) {
      Lanes k[kParts];
      LaneBits self_match[kParts];
      for (int q = 0; q < kParts; ++q) {
        k[q] = one;
        self_match[q] = ~LaneBits{};
      }
      for (int j = 0; j < dim; ++j) {
        const Lanes cj = soa[static_cast<size_t>(j) * tile + t] - zero;
        const Lanes ih = inv_bandwidths[j] - zero;
        const double* row_lanes =
            lanes + static_cast<size_t>(j) * kKernelRowLanes;
        for (int q = 0; q < kParts; ++q) {
          Lanes pj;
          __builtin_memcpy(&pj, row_lanes + static_cast<size_t>(q) * kWidth,
                           sizeof(pj));
          const Lanes u = (pj - cj) * ih;
          const Lanes a = one - u * u;
          // (a > 0) ? 0.75*a : +0.0, as a mask: all-ones where a > 0.
          k[q] *= (Lanes)((LaneBits)(three_quarters * a) &
                          (LaneBits)(a > zero));
        }
        if (self_lanes != nullptr) {
          const double* self_row_lanes =
              self_lanes + static_cast<size_t>(j) * kKernelRowLanes;
          for (int q = 0; q < kParts; ++q) {
            Lanes sj;
            __builtin_memcpy(&sj,
                             self_row_lanes + static_cast<size_t>(q) * kWidth,
                             sizeof(sj));
            self_match[q] &= (LaneBits)(sj == cj);
          }
        }
      }
      for (int q = 0; q < kParts; ++q) {
        if (self_lanes != nullptr) {
          k[q] = (Lanes)((LaneBits)k[q] & ~self_match[q]);
        }
        acc[q] += k[q];
      }
    }
    if (capped) {
      bool every_lane_over = true;
      for (int q = 0; q < kParts; ++q) {
        const LaneBits over = (LaneBits)(acc[q] > cap_lanes);
        for (int r = 0; r < kWidth; ++r) {
          every_lane_over = every_lane_over && over[r] != 0;
        }
      }
      if (every_lane_over) break;
    }
  }
  __builtin_memcpy(sums, acc, sizeof(acc));
}

// ISA clones (kernel_block.cc). Each body above is compiled once for the
// baseline ISA and, on x86-64, once more under target("arch=x86-64-v4")
// (AVX-512, FMA). A wider vector cannot change a result: -ffp-contract=off
// keeps FMA contraction out of every clone, each per-term operation rounds
// the same at any width, and each accumulator stays one serial chain in
// tile order. So every clone returns the baseline clone's bits, which
// tests/density_kernel_clone_test.cc checks with memcmp on every clone the
// host can run, for every cap, and the row-lane clones return the
// single-row baseline's bits at or below the cap. The cap cannot split the
// clones either: the block width and the stop test read only `cap` and the
// serial sums. The single-row loop vectorizes only in the x86-64-v4 clone
// (and not under ASan or UBSan); the row-lane form is vector code in every
// clone and build.
using KernelTileFn = double (*)(KernelType kernel, int dim, const double* p,
                                const double* inv_bandwidths,
                                const double* soa, int64_t tile,
                                const double* exclude, double cap);
using KernelRowLanesFn = void (*)(int dim, const double* lanes,
                                  const double* self_lanes,
                                  const double* inv_bandwidths,
                                  const double* soa, int64_t tile, double cap,
                                  double* sums);

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

void SumEpanechnikovRowLanesBaseline(int dim, const double* lanes,
                                     const double* self_lanes,
                                     const double* inv_bandwidths,
                                     const double* soa, int64_t tile,
                                     double cap, double* sums);
#if defined(__x86_64__)
__attribute__((target("arch=x86-64-v4"))) void SumEpanechnikovRowLanesV4(
    int dim, const double* lanes, const double* self_lanes,
    const double* inv_bandwidths, const double* soa, int64_t tile,
    double cap, double* sums);
#endif

// One ISA's clones of both forms, picked together.
struct KernelTileClone {
  const char* isa;  // "x86-64-v4", "x86-64"; "generic" elsewhere
  KernelTileFn sum;
  KernelRowLanesFn sum_rows;
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
