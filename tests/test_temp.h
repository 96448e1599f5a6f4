// Per-process scratch paths for tests.
//
// gtest_discover_tests registers every TEST as its own ctest entry, and
// `ctest -j` runs those processes concurrently, so a fixed file name under
// ::testing::TempDir() is shared by every process that writes it: one test
// overwrites or deletes another's file mid-run. TempPath hands out paths
// inside a directory made once per process with mkdtemp, so no two
// processes ever share a file. The process that made the directory removes
// it, with everything in it, when it exits. dbs_lint's shared-temp-path
// rule keeps new fixed names under TempDir() out of tests/.

#ifndef DBS_TESTS_TEST_TEMP_H_
#define DBS_TESTS_TEST_TEMP_H_

#include <stdlib.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

#include <gtest/gtest.h>

#include "util/check.h"

namespace dbs::test {

class ProcessTempDir {
 public:
  ProcessTempDir() : owner_(::getpid()) {
    std::string pattern = ::testing::TempDir();
    if (pattern.empty() || pattern.back() != '/') pattern += '/';
    pattern += "dbs_test_XXXXXX";
    DBS_CHECK(::mkdtemp(pattern.data()) != nullptr);
    path_ = pattern + '/';
  }

  ~ProcessTempDir() {
    // A forked child (a death test) must leave its parent's files alone.
    if (::getpid() != owner_) return;
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }

  ProcessTempDir(const ProcessTempDir&) = delete;
  ProcessTempDir& operator=(const ProcessTempDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  pid_t owner_;
  std::string path_;
};

// `name` inside this process's private temp directory, which is created
// on first use.
inline std::string TempPath(const std::string& name) {
  static const ProcessTempDir dir;
  return dir.path() + name;
}

}  // namespace dbs::test

#endif  // DBS_TESTS_TEST_TEMP_H_
