#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

#include "common/file_util.h"
#include "io/file_backend.h"
#include "io/mem_backend.h"
#include "io/unit_buffers.h"
#include "test_util.h"

namespace rodb {
namespace {

std::vector<uint8_t> PatternBytes(size_t n) {
  std::vector<uint8_t> data(n);
  for (size_t i = 0; i < n; ++i) {
    data[i] = static_cast<uint8_t>((i * 31 + (i >> 8)) & 0xFF);
  }
  return data;
}

/// Drains a stream and returns the concatenated bytes, checking offsets.
std::vector<uint8_t> Drain(SequentialStream* stream, size_t unit) {
  std::vector<uint8_t> out;
  uint64_t expect_offset = 0;
  while (true) {
    auto view = stream->Next();
    EXPECT_TRUE(view.ok()) << view.status().ToString();
    if (view->size == 0) break;
    EXPECT_EQ(view->file_offset, expect_offset);
    EXPECT_LE(view->size, unit);
    out.insert(out.end(), view->data, view->data + view->size);
    expect_offset += view->size;
  }
  return out;
}

/// Every non-empty view a stream hands out, as (file_offset, bytes), in
/// order; checks that the end is sticky.
std::vector<std::pair<uint64_t, std::vector<uint8_t>>> Views(
    SequentialStream* stream) {
  std::vector<std::pair<uint64_t, std::vector<uint8_t>>> views;
  while (true) {
    auto view = stream->Next();
    EXPECT_TRUE(view.ok()) << view.status().ToString();
    if (!view.ok()) return views;
    if (view->size == 0) break;
    views.emplace_back(view->file_offset,
                       std::vector<uint8_t>(view->data,
                                            view->data + view->size));
  }
  auto again = stream->Next();
  EXPECT_TRUE(again.ok() && again->size == 0);
  return views;
}

class BackendTest : public ::testing::TestWithParam<int> {};

TEST_P(BackendTest, FileBackendDeliversExactBytes) {
  const int depth = GetParam();
  testing::TempDir dir;
  const std::string path = dir.path() + "/data.bin";
  // 2.5 units: exercises a partial tail unit.
  const size_t kUnit = 4096;
  const auto data = PatternBytes(kUnit * 2 + kUnit / 2);
  ASSERT_OK(WriteStringToFile(
      path, std::string(data.begin(), data.end())));

  FileBackend backend;
  IoStats stats;
  IoOptions options;
  options.read.io_unit_bytes = kUnit;
  options.read.prefetch_depth = depth;
  options.read.stats = &stats;
  ASSERT_OK_AND_ASSIGN(auto stream, backend.OpenStream(path, options));
  EXPECT_EQ(stream->file_size(), data.size());
  EXPECT_EQ(Drain(stream.get(), kUnit), data);
  EXPECT_EQ(stats.bytes_read, data.size());
  EXPECT_EQ(stats.requests, 3u);
  EXPECT_EQ(stats.files_opened, 1u);
}

// Ranges of at most one unit get the thread-free stream, longer ones the
// prefetching ring; both must serve exactly what MemBackend serves.
TEST_P(BackendTest, FileBackendRangesMatchMemBackend) {
  const size_t kUnit = 4096;
  const auto data = PatternBytes(10 * kUnit + 37);
  const uint64_t size = data.size();
  struct Shape {
    const char* name;
    bool empty_file;
    uint64_t start;
    uint64_t length;
  };
  const Shape shapes[] = {
      {"empty file", true, 0, UINT64_MAX},
      {"start at EOF", false, size, UINT64_MAX},
      {"start past EOF", false, size + 3 * kUnit, 5},
      {"length 0", false, 3 * kUnit + 11, 0},
      {"length 1", false, 3 * kUnit + 11, 1},
      {"one unit", false, 2 * kUnit + 100, kUnit},
      {"one unit + 1 byte", false, 2 * kUnit + 100, kUnit + 1},
      {"mid-file to EOF", false, 4 * kUnit + 999, UINT64_MAX},
      {"mid-file 3 units", false, kUnit + 7, 3 * kUnit},
  };
  testing::TempDir dir;
  const std::string path = dir.path() + "/ranges.bin";
  for (const Shape& shape : shapes) {
    SCOPED_TRACE(shape.name);
    const std::vector<uint8_t> bytes =
        shape.empty_file ? std::vector<uint8_t>() : data;
    ASSERT_OK(
        WriteStringToFile(path, std::string(bytes.begin(), bytes.end())));
    FileBackend file_backend;
    MemBackend mem_backend;
    mem_backend.PutFile(path, bytes);
    IoStats file_stats;
    IoStats mem_stats;
    IoOptions options;
    options.read.io_unit_bytes = kUnit;
    options.read.prefetch_depth = GetParam();
    options.start_offset = shape.start;
    options.length = shape.length;
    options.read.stats = &file_stats;
    ASSERT_OK_AND_ASSIGN(auto fs, file_backend.OpenStream(path, options));
    options.read.stats = &mem_stats;
    ASSERT_OK_AND_ASSIGN(auto ms, mem_backend.OpenStream(path, options));
    EXPECT_EQ(fs->file_size(), ms->file_size());
    EXPECT_EQ(Views(fs.get()), Views(ms.get()));
    EXPECT_EQ(file_stats.bytes_read, mem_stats.bytes_read);
    EXPECT_EQ(file_stats.requests, mem_stats.requests);
    EXPECT_EQ(file_stats.files_opened, 1u);
    EXPECT_EQ(mem_stats.files_opened, 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(Depths, BackendTest, ::testing::Values(1, 2, 8, 48));

TEST(FileBackendTest, EmptyFile) {
  testing::TempDir dir;
  const std::string path = dir.path() + "/empty";
  ASSERT_OK(WriteStringToFile(path, ""));
  FileBackend backend;
  ASSERT_OK_AND_ASSIGN(auto stream, backend.OpenStream(path, IoOptions{}));
  auto view = stream->Next();
  ASSERT_OK(view.status());
  EXPECT_EQ(view->size, 0u);
  // EOF is sticky.
  auto again = stream->Next();
  ASSERT_OK(again.status());
  EXPECT_EQ(again->size, 0u);
}

TEST(FileBackendTest, MissingFileFails) {
  FileBackend backend;
  EXPECT_TRUE(
      backend.OpenStream("/no/such/rodb/file", IoOptions{}).status().IsIoError());
}

TEST(FileBackendTest, RejectsZeroUnit) {
  FileBackend backend;
  IoOptions options;
  options.read.io_unit_bytes = 0;
  EXPECT_FALSE(backend.OpenStream("/dev/null", options).ok());
}

TEST(FileBackendTest, EarlyDestructionIsClean) {
  testing::TempDir dir;
  const std::string path = dir.path() + "/big.bin";
  const auto data = PatternBytes(1 << 20);
  ASSERT_OK(WriteStringToFile(path, std::string(data.begin(), data.end())));
  FileBackend backend;
  IoOptions options;
  options.read.io_unit_bytes = 4096;
  options.read.prefetch_depth = 4;
  // A one-unit range (no producer thread) and the whole file (producer
  // mid-flight), each dropped unread and after one view: must close, and
  // join, cleanly.
  for (const uint64_t length : {uint64_t{4096}, uint64_t{UINT64_MAX}}) {
    for (const bool read_one : {false, true}) {
      options.length = length;
      ASSERT_OK_AND_ASSIGN(auto stream, backend.OpenStream(path, options));
      if (read_one) {
        auto view = stream->Next();
        ASSERT_OK(view.status());
        EXPECT_EQ(view->size, 4096u);
      }
      stream.reset();
    }
  }
}

TEST(FileBackendTest, OneUnitStreamFailsWhenFileShrinks) {
  testing::TempDir dir;
  const std::string path = dir.path() + "/shrinks.bin";
  const auto data = PatternBytes(3000);
  ASSERT_OK(WriteStringToFile(path, std::string(data.begin(), data.end())));
  FileBackend backend;
  IoStats stats;
  IoOptions options;
  options.read.io_unit_bytes = 4096;
  options.read.stats = &stats;
  ASSERT_OK_AND_ASSIGN(auto stream, backend.OpenStream(path, options));
  // The thread-free stream reads nothing until its first Next().
  ASSERT_EQ(::truncate(path.c_str(), 1000), 0);
  for (int call = 0; call < 2; ++call) {
    auto view = stream->Next();
    ASSERT_TRUE(view.status().IsIoError()) << view.status().ToString();
    EXPECT_EQ(view.status().message(), "file shrank while reading");
  }
  EXPECT_EQ(stats.bytes_read, 0u);
  EXPECT_EQ(stats.requests, 0u);
  EXPECT_EQ(stats.files_opened, 1u);
}

TEST(UnitBuffersTest, ReleasedBufferIsHandedOutAgainForItsSize) {
  constexpr size_t kSize = 12345;  // a size no other test uses
  uint8_t* first = nullptr;
  {
    UnitBuffer buffer = AcquireUnitBuffer(kSize);
    ASSERT_NE(buffer, nullptr);
    first = buffer.get();
    std::memset(first, 0x5a, kSize);
  }
#if defined(__SANITIZE_ADDRESS__)
  // On the free list the bytes are poisoned: a use after release trips.
  EXPECT_TRUE(__asan_address_is_poisoned(first));
  EXPECT_TRUE(__asan_address_is_poisoned(first + kSize - 1));
#endif
  UnitBuffer other_size = AcquireUnitBuffer(kSize + 1);
  EXPECT_NE(other_size.get(), first);
  UnitBuffer again = AcquireUnitBuffer(kSize);
  EXPECT_EQ(again.get(), first);
  again[kSize - 1] = 1;  // writable end to end once handed out again
  EXPECT_EQ(AcquireUnitBuffer(0), nullptr);
}

TEST(UnitBuffersTest, ConcurrentAcquireAndRelease) {
  // 8 threads churn buffers of three sizes, each holding two at a time
  // and stamping them with its own id: a buffer handed to two holders at
  // once would show the other's stamp. Run under TSan too.
  constexpr int kThreads = 8;
  constexpr size_t kSizes[] = {4096, 8192, 128 * 1024};
  std::atomic<int> torn{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &kSizes, &torn] {
      const uint8_t stamp = static_cast<uint8_t>(t + 1);
      for (int i = 0; i < 500; ++i) {
        const size_t a = kSizes[(i + t) % 3];
        const size_t b = kSizes[(i + 2 * t + 1) % 3];
        UnitBuffer x = AcquireUnitBuffer(a);
        UnitBuffer y = AcquireUnitBuffer(b);
        std::memset(x.get(), stamp, a);
        std::memset(y.get(), stamp, b);
        std::this_thread::yield();
        if (x[0] != stamp || x[a - 1] != stamp || y[0] != stamp ||
            y[b - 1] != stamp) {
          torn.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(torn.load(), 0);
}

TEST(MemBackendTest, ServesRegisteredFiles) {
  MemBackend backend;
  const auto data = PatternBytes(10000);
  backend.PutFile("a", data);
  EXPECT_TRUE(backend.HasFile("a"));
  EXPECT_EQ(backend.FileSize("a"), data.size());
  IoStats stats;
  IoOptions options;
  options.read.io_unit_bytes = 1024;
  options.read.stats = &stats;
  ASSERT_OK_AND_ASSIGN(auto stream, backend.OpenStream("a", options));
  EXPECT_EQ(Drain(stream.get(), 1024), data);
  EXPECT_EQ(stats.bytes_read, data.size());
  EXPECT_EQ(stats.requests, 10u);  // ceil(10000/1024)
}

TEST(MemBackendTest, MissingFile) {
  MemBackend backend;
  EXPECT_FALSE(backend.HasFile("nope"));
  EXPECT_EQ(backend.FileSize("nope"), 0u);
  EXPECT_TRUE(backend.OpenStream("nope", IoOptions{}).status().IsNotFound());
}

TEST(MemBackendTest, MutableFileAppends) {
  MemBackend backend;
  auto* file = backend.MutableFile("grow");
  file->push_back(1);
  file->push_back(2);
  EXPECT_EQ(backend.FileSize("grow"), 2u);
  ASSERT_OK_AND_ASSIGN(auto stream, backend.OpenStream("grow", IoOptions{}));
  auto view = stream->Next();
  ASSERT_OK(view.status());
  EXPECT_EQ(view->size, 2u);
  EXPECT_EQ(view->data[1], 2);
}

TEST(MemBackendTest, MatchesFileBackendByteForByte) {
  // The two backends must be interchangeable under the engine.
  testing::TempDir dir;
  const auto data = PatternBytes(123457);
  const std::string path = dir.path() + "/x";
  ASSERT_OK(WriteStringToFile(path, std::string(data.begin(), data.end())));
  FileBackend file_backend;
  MemBackend mem_backend;
  mem_backend.PutFile(path, data);
  IoOptions options;
  options.read.io_unit_bytes = 8192;
  options.read.prefetch_depth = 3;
  ASSERT_OK_AND_ASSIGN(auto fs, file_backend.OpenStream(path, options));
  ASSERT_OK_AND_ASSIGN(auto ms, mem_backend.OpenStream(path, options));
  EXPECT_EQ(Drain(fs.get(), 8192), Drain(ms.get(), 8192));
}

}  // namespace
}  // namespace rodb
