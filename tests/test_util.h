#ifndef RODB_TESTS_TEST_UTIL_H_
#define RODB_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <type_traits>

#include "common/status.h"
#include "hwmodel/cpu_model.h"

namespace rodb::testing {

/// Creates a fresh temporary directory for a test and removes it on
/// destruction.
class TempDir {
 public:
  TempDir() {
    std::string tmpl = std::filesystem::temp_directory_path() /
                       "rodb_test_XXXXXX";
    char* made = ::mkdtemp(tmpl.data());
    EXPECT_NE(made, nullptr);
    path_ = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// ExecCounters as its array of uint64_t fields, so a test can set or
/// compare every counter without naming each one.
static_assert(std::has_unique_object_representations_v<ExecCounters>,
              "ExecCounters must be plain uint64_t fields");
inline constexpr size_t kCounterWords = sizeof(ExecCounters) / sizeof(uint64_t);
using CounterWords = std::array<uint64_t, kCounterWords>;

inline CounterWords ToWords(const ExecCounters& c) {
  return std::bit_cast<CounterWords>(c);
}

/// Counters whose every field holds a distinct non-zero value.
inline ExecCounters DistinctCounters() {
  CounterWords words;
  for (size_t i = 0; i < kCounterWords; ++i) words[i] = 3 * i + 1;
  return std::bit_cast<ExecCounters>(words);
}

}  // namespace rodb::testing

/// gtest helpers for Status / Result.
#define ASSERT_OK(expr)                                 \
  do {                                                  \
    const auto& _s = (expr);                            \
    ASSERT_TRUE(_s.ok()) << _s.ToString();              \
  } while (0)

#define EXPECT_OK(expr)                                 \
  do {                                                  \
    const auto& _s = (expr);                            \
    EXPECT_TRUE(_s.ok()) << _s.ToString();              \
  } while (0)

#define ASSERT_OK_AND_ASSIGN(lhs, expr)                  \
  ASSERT_OK_AND_ASSIGN_IMPL_(                            \
      RODB_TEST_CONCAT_(_res_, __LINE__), lhs, expr)

#define ASSERT_OK_AND_ASSIGN_IMPL_(tmp, lhs, expr)       \
  auto tmp = (expr);                                     \
  ASSERT_TRUE(tmp.ok()) << tmp.status().ToString();      \
  lhs = std::move(tmp).value()

#define RODB_TEST_CONCAT_INNER_(a, b) a##b
#define RODB_TEST_CONCAT_(a, b) RODB_TEST_CONCAT_INNER_(a, b)

#endif  // RODB_TESTS_TEST_UTIL_H_
