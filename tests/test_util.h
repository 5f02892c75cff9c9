#ifndef MISTIQUE_TESTS_TEST_UTIL_H_
#define MISTIQUE_TESTS_TEST_UTIL_H_

#include <unistd.h>
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace mistique {

/// Seed source for randomized tests: `default_seed` unless the
/// MISTIQUE_TEST_SEED env var overrides it (how a soak or CI failure is
/// replayed, docs/TESTING.md). Declare one per test body; if the test
/// fails, the destructor prints the effective seed and the exact
/// environment setting that reproduces the run.
class TestSeed {
 public:
  explicit TestSeed(uint64_t default_seed) : seed_(default_seed) {
    if (const char* env = std::getenv("MISTIQUE_TEST_SEED")) {
      if (env[0] != '\0') seed_ = std::strtoull(env, nullptr, 0);
    }
  }
  ~TestSeed() {
    if (::testing::Test::HasFailure()) {
      const auto* info =
          ::testing::UnitTest::GetInstance()->current_test_info();
      std::fprintf(stderr,
                   "[  SEED    ] reproduce with: MISTIQUE_TEST_SEED=%llu "
                   "--gtest_filter=%s.%s\n",
                   static_cast<unsigned long long>(seed_),
                   info ? info->test_suite_name() : "?",
                   info ? info->name() : "?");
    }
  }
  uint64_t value() const { return seed_; }
  operator uint64_t() const { return seed_; }

 private:
  uint64_t seed_;
};

/// Decodes a hex string ("0aff...") into bytes: golden streams in tests.
inline std::vector<uint8_t> HexBytes(const std::string& hex) {
  std::vector<uint8_t> out(hex.size() / 2);
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<uint8_t>(std::stoi(hex.substr(2 * i, 2), nullptr, 16));
  }
  return out;
}

/// Creates a unique directory under the system temp directory for a test
/// and removes it on destruction. The name is one path component, unique
/// per process: parameterized suites and tests carry '/' in their names
/// ("Seeds/DataStoreModelTest", "RoundTrips/0"), which would otherwise
/// nest the directory and leave its parents behind.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name =
        "mistique_test_" + tag + "_" +
        (info ? std::string(info->test_suite_name()) + "_" + info->name()
              : "unknown") +
        "_" + std::to_string(::getpid());
    std::replace(name.begin(), name.end(), '/', '_');
    path_ = std::filesystem::temp_directory_path() / name;
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  std::string path() const { return path_.string(); }

 private:
  std::filesystem::path path_;
};

#define ASSERT_OK(expr)                                              \
  do {                                                               \
    const ::mistique::Status _st = (expr);                           \
    ASSERT_TRUE(_st.ok()) << _st.ToString();                         \
  } while (0)

#define EXPECT_OK(expr)                                              \
  do {                                                               \
    const ::mistique::Status _st = (expr);                           \
    EXPECT_TRUE(_st.ok()) << _st.ToString();                         \
  } while (0)

#define ASSERT_OK_AND_ASSIGN(lhs, rexpr)                             \
  ASSERT_OK_AND_ASSIGN_IMPL(                                         \
      MISTIQUE_ASSIGN_OR_RETURN_NAME(_assert_tmp_, __COUNTER__), lhs, rexpr)

#define ASSERT_OK_AND_ASSIGN_IMPL(tmp, lhs, rexpr)                   \
  auto tmp = (rexpr);                                                \
  ASSERT_TRUE(tmp.ok()) << tmp.status().ToString();                  \
  lhs = std::move(tmp).ValueOrDie();

}  // namespace mistique

#endif  // MISTIQUE_TESTS_TEST_UTIL_H_
