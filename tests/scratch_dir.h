// A test's scratch directory: created under ::testing::TempDir() when the
// owner is constructed, removed with everything under it when the owner is
// destroyed, so mapped segments and store files do not outlive the test.
#ifndef MMJOIN_TESTS_SCRATCH_DIR_H_
#define MMJOIN_TESTS_SCRATCH_DIR_H_

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <system_error>

namespace mmjoin {

/// The directory is `TempDir()` + `tag` + "_" + the pid, plus "_" and the
/// running test's name ('/' of parameterized names flattened) when there
/// is one. Only the process that created it removes it: a fork()ed child
/// that inherits the owner and returns through its destructor leaves the
/// parent's directory alone.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag)
      : path_(::testing::TempDir() + tag + "_" + std::to_string(::getpid())),
        owner_(::getpid()) {
    if (const ::testing::TestInfo* test =
            ::testing::UnitTest::GetInstance()->current_test_info()) {
      std::string name = test->name();
      std::replace(name.begin(), name.end(), '/', '_');
      path_ += "_" + name;
    }
    created_ = ::mkdir(path_.c_str(), 0755) == 0;
  }

  ~ScratchDir() {
    if (created_ && ::getpid() == owner_) {
      std::error_code ec;  // best effort: a test outcome never depends on it
      std::filesystem::remove_all(path_, ec);
    }
  }

  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }
  /// False when the directory could not be made (it already existed, say).
  bool created() const { return created_; }

 private:
  std::string path_;
  pid_t owner_;
  bool created_ = false;
};

}  // namespace mmjoin

#endif  // MMJOIN_TESTS_SCRATCH_DIR_H_
