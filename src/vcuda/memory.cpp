#include "vcuda/memory.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <iterator>
#include <limits>
#include <mutex>

namespace vcuda {

namespace {

std::atomic<std::uint64_t> g_next_generation{1};

std::uint64_t fresh_generation() {
  return g_next_generation.fetch_add(1, std::memory_order_relaxed);
}

/// One resolved address range [lo, hi): inside `a` if `found`, else an
/// unregistered gap. Empty slots (lo == hi) match nothing.
struct CachedRange {
  std::uintptr_t lo = 0;
  std::uintptr_t hi = 0;
  bool found = false;
  Allocation a;
};

/// The calling thread's recently resolved ranges, valid for registry
/// generation `gen` only; sixteen slots hold a rank's hot buffers (user
/// objects, wire leases, channel pins).
struct LookupCache {
  std::uint64_t gen = 0;
  std::array<CachedRange, 16> slots{};
  std::size_t next = 0;
};
thread_local LookupCache t_lookup_cache;

} // namespace

MemoryRegistry::MemoryRegistry() : generation_(fresh_generation()) {}

void MemoryRegistry::insert(const Allocation &a) {
  assert(a.size > 0);
  const std::unique_lock<std::shared_mutex> lock(mutex_);
  by_base_[a.base] = a;
  generation_.store(fresh_generation(), std::memory_order_release);
}

std::optional<Allocation> MemoryRegistry::erase(std::uintptr_t base) {
  const std::unique_lock<std::shared_mutex> lock(mutex_);
  const auto it = by_base_.find(base);
  if (it == by_base_.end()) {
    return std::nullopt;
  }
  Allocation a = it->second;
  by_base_.erase(it);
  generation_.store(fresh_generation(), std::memory_order_release);
  return a;
}

std::optional<Allocation> MemoryRegistry::find(const void *p) const {
  const auto addr = reinterpret_cast<std::uintptr_t>(p);
  LookupCache &cache = t_lookup_cache;
  // Read before the lock: a range resolved below from a newer state is
  // filed under this older generation and merely dropped on the next call.
  const std::uint64_t gen = generation_.load(std::memory_order_acquire);
  if (cache.gen == gen) {
    for (const CachedRange &r : cache.slots) {
      if (addr - r.lo < r.hi - r.lo) {
        return r.found ? std::optional<Allocation>(r.a) : std::nullopt;
      }
    }
  } else {
    cache.slots = {};
    cache.next = 0;
    cache.gen = gen;
  }

  // Resolve the maximal range that every address in it resolves the same
  // way as `addr`: the containing allocation up to the next base (so an
  // overlapping later registration keeps shadowing it), or the gap
  // between the neighbouring allocations.
  CachedRange r;
  {
    const std::shared_lock<std::shared_mutex> lock(mutex_);
    const auto next = by_base_.upper_bound(addr);
    r.hi = next == by_base_.end() ? std::numeric_limits<std::uintptr_t>::max()
                                  : next->first;
    if (next != by_base_.begin()) {
      const Allocation &a = std::prev(next)->second;
      if (addr - a.base < a.size) {
        r.found = true;
        r.a = a;
        r.lo = a.base;
        r.hi = std::min(r.hi, a.base + a.size);
      } else {
        r.lo = a.base + a.size;
      }
    }
  }
  cache.slots[cache.next] = r;
  cache.next = (cache.next + 1) % cache.slots.size();
  return r.found ? std::optional<Allocation>(r.a) : std::nullopt;
}

MemorySpace MemoryRegistry::space_of(const void *p) const {
  const auto a = find(p);
  return a ? a->space : MemorySpace::Pageable;
}

std::size_t MemoryRegistry::count() const {
  const std::shared_lock<std::shared_mutex> lock(mutex_);
  return by_base_.size();
}

std::size_t MemoryRegistry::bytes_in(MemorySpace space) const {
  const std::shared_lock<std::shared_mutex> lock(mutex_);
  std::size_t total = 0;
  for (const auto &[base, a] : by_base_) {
    if (a.space == space) {
      total += a.size;
    }
  }
  return total;
}

MemoryRegistry &memory_registry() {
  static MemoryRegistry registry;
  return registry;
}

} // namespace vcuda
