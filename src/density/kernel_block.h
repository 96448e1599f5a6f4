// The frozen per-pair kernel block loop shared by every tuned KDE path.
//
// SumKernelProductTile is THE summation kernel the bitwise-reproducibility
// guarantees rest on: Kde's cell-sorted and brute batch paths (DESIGN.md
// §9) both sum a point against an SoA center tile through this one
// function, so "both paths use the same per-pair arithmetic in the same
// order" is true by construction, not by parallel maintenance. Its include list is pinned in
// tools/lint/layers.txt; treat the arithmetic as frozen — any change here
// changes every density byte in the system.
//
// Contract: the tile is summed in ascending tile order, products are taken
// in dimension order, and the accumulator is a single double. A zero kernel
// factor multiplies through to +0.0 instead of branching out early, and
// +0.0 terms are skipped before accumulation — both bitwise invisible,
// because adding +0.0 to a non-negative sum cannot change its bits. The
// consequence: summing any SUPERSET of the in-support centers, in
// ascending order, yields the identical bits.

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

// Ordered kernel-product sum of point `p` (dim doubles) against an SoA
// center tile (`soa` holds dim arrays of length `tile`). `exclude` is the
// coordinates of a center to skip (nullptr = none); a center is excluded
// only when its product is nonzero and every coordinate matches bitwise.
inline double SumKernelProductTile(KernelType kernel, int dim,
                                   const double* p,
                                   const double* inv_bandwidths,
                                   const double* soa, int64_t tile,
                                   const double* exclude) {
  const int d = dim;
  double prod[kKernelTileBlock];
  double sum = 0.0;
  for (int64_t b0 = 0; b0 < tile; b0 += kKernelTileBlock) {
    const int64_t block = std::min(kKernelTileBlock, tile - b0);
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
    if (exclude == nullptr) {
      // The sequential accumulator is the one serial FP dependency chain
      // here, and in a pruned tile many gathered centers fall outside the
      // support box (prod == +0.0). Compact the nonzero products —
      // branchless and order-preserving — so the serial chain only runs
      // over terms that matter. Skipping +0.0 additions is bitwise
      // invisible: adding +0.0 to a non-negative accumulator is identity.
      int64_t nz = 0;
      for (int64_t t = 0; t < block; ++t) {
        prod[nz] = prod[t];
        nz += prod[t] != 0.0 ? 1 : 0;
      }
      for (int64_t t = 0; t < nz; ++t) sum += prod[t];
    } else {
      for (int64_t t = 0; t < block; ++t) {
        if (prod[t] != 0.0) {
          bool matches = true;
          for (int j = 0; j < d; ++j) {
            if (soa[static_cast<size_t>(j) * tile + b0 + t] != exclude[j]) {
              matches = false;
              break;
            }
          }
          if (matches) continue;
        }
        sum += prod[t];
      }
    }
  }
  return sum;
}

}  // namespace dbs::density

#endif  // DBS_DENSITY_KERNEL_BLOCK_H_
