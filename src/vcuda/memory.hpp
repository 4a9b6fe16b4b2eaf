// Pointer registry for the virtual CUDA runtime.
//
// All three memory spaces are backed by ordinary host allocations; the
// registry records which *virtual* space each allocation belongs to so that
// (a) cudaPointerGetAttributes-style queries work (TEMPI checks whether user
// buffers are GPU-resident on every Send/Pack), and (b) the cost model can
// price accesses by space. Lookups accept interior pointers.
//
// Every Send/Pack asks the registry about its buffers, from every rank
// thread at once, so find() is served from a small per-thread cache of
// recently resolved ranges (allocations and the unregistered gaps between
// them) and takes no lock and writes no shared memory on a hit. A
// registry generation, bumped under the writer lock by every insert and
// erase, validates the cache: any change to the map empties every
// thread's cache on its next lookup.
#pragma once

#include "vcuda/costmodel.hpp"

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <shared_mutex>

namespace vcuda {

/// One registered allocation.
struct Allocation {
  std::uintptr_t base = 0;
  std::size_t size = 0;
  MemorySpace space = MemorySpace::Pageable;
  int device = -1; ///< owning device for Device space, else -1
};

/// Thread-safe interval map from pointer to allocation metadata.
class MemoryRegistry {
public:
  MemoryRegistry();

  void insert(const Allocation &a);

  /// Remove the allocation based at exactly `base`; returns it if present.
  std::optional<Allocation> erase(std::uintptr_t base);

  /// Find the allocation containing `p` (interior pointers OK). A lookup
  /// made after an insert/erase returned (on any thread, with the usual
  /// happens-before) sees that change.
  [[nodiscard]] std::optional<Allocation> find(const void *p) const;

  /// Space of `p`; unregistered pointers are Pageable host memory.
  [[nodiscard]] MemorySpace space_of(const void *p) const;

  [[nodiscard]] std::size_t count() const;

  /// Total registered bytes in `space`.
  [[nodiscard]] std::size_t bytes_in(MemorySpace space) const;

private:
  /// Drawn from one process-wide sequence, so no two registries (nor two
  /// states of one) ever share a value and a cached range can only
  /// validate against the registry state it was read from. Its own cache
  /// line: readers load it on every find while the lock word below is
  /// written by slow-path lookups.
  alignas(64) std::atomic<std::uint64_t> generation_;
  alignas(64) mutable std::shared_mutex mutex_;
  std::map<std::uintptr_t, Allocation> by_base_;
};

/// The process-wide registry used by the vcuda API.
MemoryRegistry &memory_registry();

} // namespace vcuda
