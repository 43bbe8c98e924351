#include "io/unit_buffers.h"

#include <mutex>
#include <unordered_map>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#define RODB_POISON(p, n) ASAN_POISON_MEMORY_REGION(p, n)
#define RODB_UNPOISON(p, n) ASAN_UNPOISON_MEMORY_REGION(p, n)
#else
#define RODB_POISON(p, n) ((void)(p), (void)(n))
#define RODB_UNPOISON(p, n) ((void)(p), (void)(n))
#endif

namespace rodb {

namespace {

struct FreeList {
  std::mutex mu;
  std::unordered_map<size_t, std::vector<uint8_t*>> free;  // guarded by mu
};

FreeList& List() {
  // Never destroyed: a buffer may be released during static destruction
  // (say, by a process-wide cache), after a local static would be gone.
  static FreeList* const list = new FreeList;
  return *list;
}

}  // namespace

void UnitBufferRelease::operator()(uint8_t* buffer) const {
  RODB_POISON(buffer, size);
  FreeList& list = List();
  std::lock_guard<std::mutex> lock(list.mu);
  list.free[size].push_back(buffer);
}

UnitBuffer AcquireUnitBuffer(size_t size) {
  if (size == 0) return UnitBuffer(nullptr, UnitBufferRelease{0});
  uint8_t* buffer = nullptr;
  {
    FreeList& list = List();
    std::lock_guard<std::mutex> lock(list.mu);
    auto it = list.free.find(size);
    if (it != list.free.end() && !it->second.empty()) {
      buffer = it->second.back();
      it->second.pop_back();
    }
  }
  if (buffer == nullptr) {
    // Default-initialised: every consumer writes the bytes it hands out.
    buffer = new uint8_t[size];
  } else {
    RODB_UNPOISON(buffer, size);
  }
  return UnitBuffer(buffer, UnitBufferRelease{size});
}

}  // namespace rodb
