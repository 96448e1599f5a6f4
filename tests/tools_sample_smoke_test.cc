// End-to-end smoke test for tools/dbs_sample's double-buffered scan flag.
//
// Runs the real binary (path injected by CMake as DBS_SAMPLE_BIN) against
// the same input with double_buffer=1 (the default) and double_buffer=0
// (the synchronous scan) and asserts the sample files are byte-identical:
// prefetching may only change timing, never a single output byte.

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/dataset_io.h"
#include "data/point_set.h"
#include "test_temp.h"
#include "util/rng.h"

namespace dbs {
namespace {

using test::TempPath;

void WriteInput(const std::string& path, int64_t n, int dim,
                uint64_t seed) {
  dbs::Rng rng(seed);
  data::PointSet ps(dim);
  ps.Reserve(n);
  std::vector<double> p(static_cast<size_t>(dim));
  for (int64_t i = 0; i < n; ++i) {
    for (int j = 0; j < dim; ++j) p[static_cast<size_t>(j)] = rng.NextDouble();
    ps.Append(p);
  }
  ASSERT_TRUE(data::WriteDatasetFile(path, ps).ok());
}

int RunSample(const std::string& args) {
  std::string cmd = std::string(DBS_SAMPLE_BIN) + " " + args +
                    " >/dev/null 2>&1";
  return std::system(cmd.c_str());
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

class SampleSmokeTest : public ::testing::TestWithParam<const char*> {};

TEST_P(SampleSmokeTest, DoubleBufferedOutputIsByteIdentical) {
  const std::string mode = GetParam();
  const std::string in = TempPath("in_" + mode + ".dbsf");
  const std::string out_sync = TempPath("sync_" + mode + ".dbsf");
  const std::string out_buf = TempPath("buf_" + mode + ".dbsf");
  const std::string out_default = TempPath("default_" + mode + ".dbsf");
  WriteInput(in, /*n=*/20000, /*dim=*/3, /*seed=*/0xfeedULL);

  const std::string common = "in=" + in + " mode=" + mode +
                             " size=500 kernels=64 seed=9";
  ASSERT_EQ(RunSample(common + " out=" + out_sync + " double_buffer=0"), 0);
  ASSERT_EQ(RunSample(common + " out=" + out_buf + " double_buffer=1"), 0);
  ASSERT_EQ(RunSample(common + " out=" + out_default), 0);  // default on

  std::string sync_bytes = ReadBytes(out_sync);
  ASSERT_FALSE(sync_bytes.empty());
  EXPECT_EQ(ReadBytes(out_buf), sync_bytes);
  EXPECT_EQ(ReadBytes(out_default), sync_bytes);
}

INSTANTIATE_TEST_SUITE_P(Modes, SampleSmokeTest,
                         ::testing::Values("twopass", "stream", "uniform"));

TEST(SampleSmokeTest, MissingOutputStillFailsWithUsage) {
  const std::string in = TempPath("in_noout.dbsf");
  WriteInput(in, /*n=*/100, /*dim=*/2, /*seed=*/1);
  EXPECT_NE(RunSample("in=" + in + " double_buffer=1"), 0);
}

}  // namespace
}  // namespace dbs
