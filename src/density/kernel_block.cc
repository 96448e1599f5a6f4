// The ISA clones of the frozen kernel block (density/kernel_block.h).
//
// Each wrapper below is the unchanged body of one form of the block, the
// single-row SumKernelProductTile or the row-lane SumEpanechnikovRowLanes,
// inlined (both are always_inline) and compiled under the wrapper's own
// target attribute, so one portable library carries an AVX-512 copy of
// each form next to the baseline one. Only this file holds target
// attributes, and nothing here is compiled with -march=: an inline helper
// built for a wider ISA in a per-ISA file could become the copy the linker
// keeps for baseline callers. Its include list is pinned in
// tools/lint/layers.txt, like the header's.

#include "density/kernel_block.h"

namespace dbs::density {

double SumKernelProductTileBaseline(KernelType kernel, int dim,
                                    const double* p,
                                    const double* inv_bandwidths,
                                    const double* soa, int64_t tile,
                                    const double* exclude, double cap) {
  return SumKernelProductTile(kernel, dim, p, inv_bandwidths, soa, tile,
                              exclude, cap);
}

void SumEpanechnikovRowLanesBaseline(int dim, const double* lanes,
                                     const double* self_lanes,
                                     const double* inv_bandwidths,
                                     const double* soa, int64_t tile,
                                     double cap, double* sums) {
  SumEpanechnikovRowLanes<KernelLanes2, KernelLaneBits2>(
      dim, lanes, self_lanes, inv_bandwidths, soa, tile, cap, sums);
}

#if defined(__x86_64__)
__attribute__((target("arch=x86-64-v4"))) double SumKernelProductTileV4(
    KernelType kernel, int dim, const double* p, const double* inv_bandwidths,
    const double* soa, int64_t tile, const double* exclude, double cap) {
  return SumKernelProductTile(kernel, dim, p, inv_bandwidths, soa, tile,
                              exclude, cap);
}

__attribute__((target("arch=x86-64-v4"))) void SumEpanechnikovRowLanesV4(
    int dim, const double* lanes, const double* self_lanes,
    const double* inv_bandwidths, const double* soa, int64_t tile,
    double cap, double* sums) {
  SumEpanechnikovRowLanes<KernelLanes8, KernelLaneBits8>(
      dim, lanes, self_lanes, inv_bandwidths, soa, tile, cap, sums);
}
#endif

KernelTileClones HostKernelTileClones() {
  KernelTileClones clones;
#if defined(__x86_64__)
  // The CPU model is normally read by a libgcc constructor; reading it here
  // too keeps the answer right for a Kde built during static initialization.
  __builtin_cpu_init();
  if (__builtin_cpu_supports("x86-64-v4")) {
    clones.clone[clones.count++] = {"x86-64-v4", &SumKernelProductTileV4,
                                    &SumEpanechnikovRowLanesV4};
  }
  clones.clone[clones.count++] = {"x86-64", &SumKernelProductTileBaseline,
                                  &SumEpanechnikovRowLanesBaseline};
#else
  clones.clone[clones.count++] = {"generic", &SumKernelProductTileBaseline,
                                  &SumEpanechnikovRowLanesBaseline};
#endif
  return clones;
}

KernelTileClone ActiveKernelTileClone() {
  return HostKernelTileClones().clone[0];
}

}  // namespace dbs::density
