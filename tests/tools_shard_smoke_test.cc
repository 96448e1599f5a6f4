// End-to-end smoke test for the shards=N flag on tools/dbs_sample and
// tools/dbs_outliers (binaries injected by CMake as DBS_SAMPLE_BIN /
// DBS_OUTLIERS_BIN).
//
// The acceptance property (DESIGN.md §12): shards=1 — the default — is
// byte-identical to the pre-sharding pipeline, for both the written sample
// file and the printed report; higher shard counts run successfully and
// stay worker-count invariant.

#include <sys/wait.h>

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
  Rng rng(seed);
  data::PointSet ps(dim);
  std::vector<double> p(static_cast<size_t>(dim));
  for (int64_t i = 0; i < n; ++i) {
    // A dense blob plus occasional far-out rows, so outliers exist.
    const bool sparse = (i % 83) == 0;
    for (int j = 0; j < dim; ++j) {
      p[static_cast<size_t>(j)] = sparse ? rng.NextDouble(-6.0, 6.0)
                                         : rng.NextGaussian(0.0, 0.5);
    }
    ps.Append(p);
  }
  ASSERT_TRUE(data::WriteDatasetFile(path, ps).ok());
}

// Runs `bin args > stdout_path 2>/dev/null`; returns the exit status.
int RunTool(const std::string& bin, const std::string& args,
            const std::string& stdout_path) {
  std::string cmd = bin + " " + args + " > " + stdout_path + " 2>/dev/null";
  return std::system(cmd.c_str());
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// The tools print the output path in their report; mask it so reports for
// different output files can be compared literally otherwise.
std::string MaskPath(std::string text, const std::string& path) {
  for (size_t pos = text.find(path); pos != std::string::npos;
       pos = text.find(path, pos)) {
    text.replace(pos, path.size(), "<out>");
  }
  return text;
}

class ToolsShardSmokeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    input_ = TempPath("in.dbsf");
    WriteInput(input_, /*n=*/12000, /*dim=*/3, /*seed=*/0xbeefULL);
  }

  std::string input_;
};

TEST_F(ToolsShardSmokeTest, SampleShardsOneIsByteIdenticalToDefault) {
  for (const std::string mode : {"twopass", "onepass"}) {
    const std::string common = "in=" + input_ + " mode=" + mode +
                               " size=400 kernels=64 seed=9 out=";
    const std::string out_default = TempPath("sample_default_" + mode);
    const std::string out_sharded = TempPath("sample_shards1_" + mode);
    ASSERT_EQ(RunTool(DBS_SAMPLE_BIN, common + out_default + ".dbsf",
                      out_default + ".txt"),
              0);
    ASSERT_EQ(RunTool(DBS_SAMPLE_BIN,
                      common + out_sharded + ".dbsf shards=1 workers=2",
                      out_sharded + ".txt"),
              0);
    const std::string want = ReadBytes(out_default + ".dbsf");
    ASSERT_FALSE(want.empty());
    EXPECT_EQ(ReadBytes(out_sharded + ".dbsf"), want) << mode;
    // The printed report (sample size, k_a, passes) must not change either.
    EXPECT_EQ(MaskPath(ReadBytes(out_sharded + ".txt"),
                       out_sharded + ".dbsf"),
              MaskPath(ReadBytes(out_default + ".txt"),
                       out_default + ".dbsf"))
        << mode;
  }
}

TEST_F(ToolsShardSmokeTest, SampleHigherShardCountsAreWorkerInvariant) {
  const std::string common =
      "in=" + input_ + " mode=twopass size=400 kernels=64 seed=9 out=";
  const std::string serial = TempPath("sample_s3_w0");
  const std::string pooled = TempPath("sample_s3_w4");
  ASSERT_EQ(RunTool(DBS_SAMPLE_BIN, common + serial + ".dbsf shards=3",
                    serial + ".txt"),
            0);
  ASSERT_EQ(RunTool(DBS_SAMPLE_BIN,
                    common + pooled + ".dbsf shards=3 workers=4",
                    pooled + ".txt"),
            0);
  const std::string want = ReadBytes(serial + ".dbsf");
  ASSERT_FALSE(want.empty());
  EXPECT_EQ(ReadBytes(pooled + ".dbsf"), want);
  EXPECT_EQ(MaskPath(ReadBytes(pooled + ".txt"), pooled + ".dbsf"),
            MaskPath(ReadBytes(serial + ".txt"), serial + ".dbsf"));
}

TEST_F(ToolsShardSmokeTest, SampleRejectsShardsOnUnsupportedModes) {
  const std::string sink = TempPath("sample_reject");
  EXPECT_NE(RunTool(DBS_SAMPLE_BIN,
                    "in=" + input_ + " mode=stream out=" + sink +
                        ".dbsf shards=2",
                    sink + ".txt"),
            0);
  EXPECT_NE(RunTool(DBS_SAMPLE_BIN,
                    "in=" + input_ + " mode=twopass out=" + sink +
                        ".dbsf shards=0",
                    sink + ".txt"),
            0);
}

TEST_F(ToolsShardSmokeTest, OutliersShardsOneIsByteIdenticalToDefault) {
  for (const std::string mode : {"approx", "estimate"}) {
    const std::string common = "in=" + input_ + " mode=" + mode +
                               " k=0.4 p=4 kernels=64 seed=9";
    const std::string out_default = TempPath("outl_default_" + mode);
    const std::string out_sharded = TempPath("outl_shards1_" + mode);
    ASSERT_EQ(RunTool(DBS_OUTLIERS_BIN, common, out_default + ".txt"), 0);
    ASSERT_EQ(RunTool(DBS_OUTLIERS_BIN, common + " shards=1 workers=2",
                      out_sharded + ".txt"),
              0);
    const std::string want = ReadBytes(out_default + ".txt");
    ASSERT_FALSE(want.empty());
    EXPECT_EQ(ReadBytes(out_sharded + ".txt"), want) << mode;
  }
}

TEST_F(ToolsShardSmokeTest, OutliersHigherShardCountsAreWorkerInvariant) {
  const std::string common =
      "in=" + input_ + " mode=approx k=0.4 p=4 kernels=64 seed=9 shards=3";
  const std::string serial = TempPath("outl_s3_w0");
  const std::string pooled = TempPath("outl_s3_w4");
  ASSERT_EQ(RunTool(DBS_OUTLIERS_BIN, common, serial + ".txt"), 0);
  ASSERT_EQ(RunTool(DBS_OUTLIERS_BIN, common + " workers=4",
                    pooled + ".txt"),
            0);
  const std::string want = ReadBytes(serial + ".txt");
  ASSERT_FALSE(want.empty());
  EXPECT_EQ(ReadBytes(pooled + ".txt"), want);
}

TEST_F(ToolsShardSmokeTest, OutliersRejectsShardsOnExactMode) {
  const std::string sink = TempPath("outl_reject");
  EXPECT_NE(
      RunTool(DBS_OUTLIERS_BIN,
              "in=" + input_ + " mode=exact shards=2", sink + ".txt"),
      0);
}

TEST_F(ToolsShardSmokeTest, OutliersRejectsBadModeAndParamsBeforeIo) {
  // A bad flag exits 2 before the tool opens its input: a missing input
  // alone would exit 1.
  const std::string sink = TempPath("outl_bad_flag");
  const std::string missing = "in=" + TempPath("missing.dbsf");
  for (const char* bad : {" mode=bogus", " k=nan", " k=-1", " p=-1"}) {
    SCOPED_TRACE(bad);
    const int status = RunTool(DBS_OUTLIERS_BIN, missing + bad, sink + ".txt");
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 2);
  }
}

}  // namespace
}  // namespace dbs
