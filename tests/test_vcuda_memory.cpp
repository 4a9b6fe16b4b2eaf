#include "vcuda/runtime.hpp"

#include <gtest/gtest.h>

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <thread>

namespace {

/// A thread that keeps its registry lookup cache between probes: every
/// probe() runs space_of on the same worker thread.
class ProbeThread {
public:
  ProbeThread() : worker_([this] { run(); }) {}
  ProbeThread(const ProbeThread &) = delete;
  ProbeThread &operator=(const ProbeThread &) = delete;
  ~ProbeThread() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    worker_.join();
  }

  vcuda::MemorySpace probe(const void *p) {
    std::unique_lock<std::mutex> lock(mutex_);
    query_ = p;
    pending_ = true;
    cv_.notify_all();
    cv_.wait(lock, [this] { return !pending_; });
    return answer_;
  }

private:
  void run() {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      cv_.wait(lock, [this] { return pending_ || stop_; });
      if (stop_) {
        return;
      }
      answer_ = vcuda::memory_registry().space_of(query_);
      pending_ = false;
      cv_.notify_all();
    }
  }

  std::mutex mutex_;
  std::condition_variable cv_;
  const void *query_ = nullptr;
  vcuda::MemorySpace answer_ = vcuda::MemorySpace::Pageable;
  bool pending_ = false;
  bool stop_ = false;
  std::thread worker_; // last: starts after the state above exists
};

TEST(Registry, MallocRegistersDeviceSpace) {
  void *p = nullptr;
  ASSERT_EQ(vcuda::Malloc(&p, 1024), vcuda::Error::Success);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(vcuda::memory_registry().space_of(p), vcuda::MemorySpace::Device);
  EXPECT_EQ(vcuda::Free(p), vcuda::Error::Success);
  EXPECT_EQ(vcuda::memory_registry().space_of(p),
            vcuda::MemorySpace::Pageable);
}

TEST(Registry, MallocHostRegistersPinnedSpace) {
  void *p = nullptr;
  ASSERT_EQ(vcuda::MallocHost(&p, 64), vcuda::Error::Success);
  EXPECT_EQ(vcuda::memory_registry().space_of(p), vcuda::MemorySpace::Pinned);
  EXPECT_EQ(vcuda::FreeHost(p), vcuda::Error::Success);
}

TEST(Registry, InteriorPointersResolve) {
  void *p = nullptr;
  ASSERT_EQ(vcuda::Malloc(&p, 4096), vcuda::Error::Success);
  auto *interior = static_cast<std::byte *>(p) + 2048;
  EXPECT_EQ(vcuda::memory_registry().space_of(interior),
            vcuda::MemorySpace::Device);
  auto *one_past = static_cast<std::byte *>(p) + 4096;
  EXPECT_EQ(vcuda::memory_registry().space_of(one_past),
            vcuda::MemorySpace::Pageable);
  vcuda::Free(p);
}

TEST(Registry, StackPointerIsPageable) {
  int local = 0;
  EXPECT_EQ(vcuda::memory_registry().space_of(&local),
            vcuda::MemorySpace::Pageable);
}

TEST(Registry, CachedLookupSeesBlockReallocatedInAnotherSpace) {
  // Free erases a block's entry and Malloc inserts one; done directly on
  // the registry, the block comes back at the same address in another
  // space. The registry only records metadata, so a static array serves
  // as the block.
  alignas(256) static std::byte block[512];
  const auto base = reinterpret_cast<std::uintptr_t>(block);
  vcuda::MemoryRegistry &reg = vcuda::memory_registry();
  ProbeThread other;

  reg.insert({base, sizeof block, vcuda::MemorySpace::Device, 0});
  EXPECT_EQ(other.probe(block + 100), vcuda::MemorySpace::Device);
  EXPECT_EQ(other.probe(block + 100), vcuda::MemorySpace::Device); // cached
  ASSERT_TRUE(reg.erase(base).has_value());
  reg.insert({base, sizeof block, vcuda::MemorySpace::Pinned, -1});
  EXPECT_EQ(other.probe(block + 100), vcuda::MemorySpace::Pinned);
  EXPECT_EQ(other.probe(block), vcuda::MemorySpace::Pinned);
  EXPECT_EQ(reg.space_of(block + 100), vcuda::MemorySpace::Pinned);

  // A cached unregistered range also yields to a later registration.
  ASSERT_TRUE(reg.erase(base).has_value());
  EXPECT_EQ(other.probe(block + 100), vcuda::MemorySpace::Pageable);
  reg.insert({base, sizeof block, vcuda::MemorySpace::Device, 0});
  EXPECT_EQ(other.probe(block + 100), vcuda::MemorySpace::Device);
  EXPECT_EQ(other.probe(block + sizeof block), vcuda::MemorySpace::Pageable);
  ASSERT_TRUE(reg.erase(base).has_value());
  EXPECT_EQ(other.probe(block + 100), vcuda::MemorySpace::Pageable);
}

TEST(Registry, CachedLookupSeesHostRegisterAndUnregister) {
  static int host[256];
  ProbeThread other;
  EXPECT_EQ(other.probe(&host[10]), vcuda::MemorySpace::Pageable);
  ASSERT_EQ(vcuda::HostRegister(host, sizeof host), vcuda::Error::Success);
  EXPECT_EQ(other.probe(&host[10]), vcuda::MemorySpace::Pinned);
  ASSERT_EQ(vcuda::HostUnregister(host), vcuda::Error::Success);
  EXPECT_EQ(other.probe(&host[10]), vcuda::MemorySpace::Pageable);
}

TEST(Registry, PointerGetAttributesReportsDevice) {
  void *p = nullptr;
  vcuda::SetDevice(2);
  ASSERT_EQ(vcuda::Malloc(&p, 16), vcuda::Error::Success);
  vcuda::MemorySpace space{};
  int device = -1;
  ASSERT_EQ(vcuda::PointerGetAttributes(&space, &device, p),
            vcuda::Error::Success);
  EXPECT_EQ(space, vcuda::MemorySpace::Device);
  EXPECT_EQ(device, 2);
  vcuda::Free(p);
  vcuda::SetDevice(0);
}

TEST(Registry, FreeWrongSpaceFails) {
  void *p = nullptr;
  ASSERT_EQ(vcuda::MallocHost(&p, 16), vcuda::Error::Success);
  EXPECT_EQ(vcuda::Free(p), vcuda::Error::InvalidValue); // wrong deallocator
  EXPECT_EQ(vcuda::FreeHost(p), vcuda::Error::Success);
}

TEST(Registry, NullFreeIsNoop) {
  EXPECT_EQ(vcuda::Free(nullptr), vcuda::Error::Success);
  EXPECT_EQ(vcuda::FreeHost(nullptr), vcuda::Error::Success);
}

TEST(Registry, ZeroByteMalloc) {
  void *p = reinterpret_cast<void *>(0x1);
  EXPECT_EQ(vcuda::Malloc(&p, 0), vcuda::Error::Success);
  EXPECT_EQ(p, nullptr);
}

TEST(Registry, BytesInTracksTotals) {
  const std::size_t before =
      vcuda::memory_registry().bytes_in(vcuda::MemorySpace::Device);
  void *a = nullptr, *b = nullptr;
  vcuda::Malloc(&a, 1000);
  vcuda::Malloc(&b, 2000);
  EXPECT_GE(vcuda::memory_registry().bytes_in(vcuda::MemorySpace::Device),
            before + 3000);
  vcuda::Free(a);
  vcuda::Free(b);
}

TEST(Device, SetGetRoundtrip) {
  int d = -1;
  ASSERT_EQ(vcuda::SetDevice(1), vcuda::Error::Success);
  ASSERT_EQ(vcuda::GetDevice(&d), vcuda::Error::Success);
  EXPECT_EQ(d, 1);
  EXPECT_EQ(vcuda::SetDevice(vcuda::device_count()),
            vcuda::Error::InvalidDevice);
  vcuda::SetDevice(0);
}

TEST(Device, CountIsConfigurable) {
  const int prev = vcuda::set_device_count(4);
  EXPECT_EQ(vcuda::device_count(), 4);
  vcuda::set_device_count(prev);
}

} // namespace
