// A relaxed event counter split into per-thread stripes.
//
// A process-wide counter that every rank thread bumps on every message
// is one cache line written by all of them: with four threads a relaxed
// fetch_add to a shared line costs several times the uncontended add, and
// the hot path makes dozens per message. Here each counter owns one
// cache-line-sized cell per stripe and a thread always adds to the cell of
// its own stripe, so concurrent threads write disjoint lines. Reads sum
// the stripes and reset zeroes them; both are for snapshots taken while
// the counted work is quiescent, exactly like the single atomic they
// replace (no total is lost — an add is still one atomic fetch_add).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace support {

/// Stripes per counter. Threads beyond this many share stripes (still
/// exact, just contended again).
inline constexpr std::size_t kCounterStripes = 16;

/// Small per-thread ordinal handed out round-robin at a thread's first
/// call, so threads started together get consecutive values. Used to pick
/// a thread's counter stripe and its request-pool home shard.
inline std::size_t this_thread_index() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t index =
      next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

class StripedCounter {
public:
  void add(std::uint64_t n = 1) {
    cells_[this_thread_index() % kCounterStripes].v.fetch_add(
        n, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const Cell &c : cells_) {
      total += c.v.load(std::memory_order_relaxed);
    }
    return total;
  }

  void reset() {
    for (Cell &c : cells_) {
      c.v.store(0, std::memory_order_relaxed);
    }
  }

private:
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Cell, kCounterStripes> cells_{};
};

} // namespace support
