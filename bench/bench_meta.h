// Host and build stamp for the checked-in BENCH_*.json files.
//
// A recorded number is comparable only with one from the same kind of
// host and build, so every bench that writes a checked-in JSON file opens
// it with the same "meta" object: the processor count, the compiler, the
// CMake build type, the kernel block clone the host ran (kernel_isa; see
// density/kernel_block.h) and the git revision the caller passes as
// git_sha= (the bench cannot know which commit its sources came from). The
// target must be registered with dbs_stamp_bench in bench/CMakeLists.txt,
// which defines DBS_BENCH_COMPILER and DBS_BENCH_BUILD_TYPE.

#ifndef DBS_BENCH_BENCH_META_H_
#define DBS_BENCH_BENCH_META_H_

#include <cstdio>
#include <string>
#include <thread>

#include "density/kernel_block.h"

namespace dbs::bench {

// Writes the `"meta": {...},` line of a BENCH_*.json object.
inline void WriteBenchMeta(std::FILE* f, const std::string& git_sha) {
  std::fprintf(f,
               "  \"meta\": {\"nproc\": %u, \"compiler\": \"%s\", "
               "\"build_type\": \"%s\", \"kernel_isa\": \"%s\", "
               "\"git_sha\": \"%s\"},\n",
               std::thread::hardware_concurrency(), DBS_BENCH_COMPILER,
               DBS_BENCH_BUILD_TYPE, density::ActiveKernelTileClone().isa,
               git_sha.c_str());
}

}  // namespace dbs::bench

#endif  // DBS_BENCH_BENCH_META_H_
