// End-to-end smoke test for tools/dbs_gen's failure path.
//
// Runs the real binary (path injected by CMake as DBS_GEN_BIN): a
// clustered dataset whose clusters cannot be placed must end the tool
// with a non-zero exit and a message, not a hang.

#include <sys/wait.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "test_temp.h"

namespace dbs {
namespace {

using test::TempPath;

// Runs dbs_gen with `args`; returns its exit code and puts its combined
// output in *output.
int RunGen(const std::string& args, std::string* output) {
  const std::string log = TempPath("dbs_gen.log");
  const std::string cmd =
      std::string(DBS_GEN_BIN) + " " + args + " >" + log + " 2>&1";
  const int status = std::system(cmd.c_str());
  std::ifstream in(log);
  std::ostringstream text;
  text << in.rdbuf();
  *output = text.str();
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(GenSmokeTest, JammedClusterPlacementExitsWithAMessage) {
  std::string output;
  const std::string out = TempPath("jammed.dbsf");
  EXPECT_EQ(RunGen("out=" + out +
                       " kind=clusters dim=1 points=30000 noise=0.1 seed=1",
                   &output),
            1);
  EXPECT_NE(output.find("cannot place 10 separated clusters in 1-D"),
            std::string::npos)
      << output;

  const std::string fits = TempPath("five.dbsf");
  EXPECT_EQ(RunGen("out=" + fits +
                       " kind=clusters dim=1 clusters=5 points=30000 "
                       "noise=0.1 seed=1",
                   &output),
            0)
      << output;
}

}  // namespace
}  // namespace dbs
