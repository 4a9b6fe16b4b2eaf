// Shared machinery of the repository benchmark: options, clocks, seeded
// generators, the oracle hash, percentile rules, the per-session result
// record and the traced-run probe that turns counter deltas into the
// per-layer metrics.
//
// Every number here is measured from outside the library: the benchmark
// only calls the public MPI surface, tempi's public observability API
// (trace counters and phases, buffer-cache stats) and vcuda's counters.
#pragma once

#include "shim.hpp"
#include "tempi/trace.hpp"
#include "vcuda/runtime.hpp"

#include <array>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Test-sized inputs (the benchmark's own test runs every workload so).
  bool tiny = false;
  /// Flip one byte of the received buffer of this timed op before its
  /// check (-1: never). The benchmark's own test uses it to prove that a
  /// wrong buffer is counted as a failed op.
  long long corrupt_op = -1;
};

/// Host wall clock, ns.
inline std::uint64_t host_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// CPU time of the calling thread, ns. The host-clock op metrics use it
/// rather than wall time: on a virtual machine the wall clock also counts
/// time the hypervisor gave the vCPU to someone else (steal), which swings
/// by several times from one minute to the next; thread CPU time does not.
inline std::uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// CPU time of the whole process (every thread), ns.
inline std::uint64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// splitmix64: small, seedable, and identical on every platform.
class Rng {
public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform integer in [0, n).
  std::uint64_t below(std::uint64_t n) { return n == 0 ? 0 : next() % n; }

private:
  std::uint64_t s_;
};

/// Fill `bytes` at `p` with a seeded byte pattern.
void fill_pattern(void *p, std::size_t bytes, std::uint64_t seed);

/// 64-bit content hash; the oracle comparisons use it so that expected
/// buffers need not be kept.
std::uint64_t hash_bytes(const void *p, std::size_t bytes);

/// Percentile by the inverted-CDF rule: the smallest sample v with at least
/// pct% of samples <= v. Repeating a sample set leaves it unchanged, so a
/// loop that runs whole passes reports the same virtual percentiles however
/// many passes the host clock allowed.
double percentile(std::vector<double> v, int pct);
double median(std::vector<double> v);

/// One timed op: host CPU time on its critical path (every rank thread
/// that works on it in series), wall time, virtual latency, useful payload.
/// Host times are floats to keep the sample store small (it is part of
/// the peak RSS the benchmark reports); virtual time and payload are exact
/// integers, so their sums and percentiles repeat bit for bit.
struct OpSample {
  float host_us = 0.0F;
  float wall_us = 0.0F;
  vcuda::VirtualNs virt_ns = 0;
  std::uint64_t payload_bytes = 0;
};

/// Per-phase totals accumulated across ring drains of one traced loop.
struct PhaseTotals {
  std::array<std::uint64_t, tempi::trace::kPhaseCount> count{};
  std::array<double, tempi::trace::kPhaseCount> virt_us{};
  std::uint64_t dropped = 0;
};

/// Snapshots of every counter source the per-layer metrics difference.
struct CounterSnapshot {
  std::map<std::string, std::uint64_t> registry;
  vcuda::Counters vcuda;
};
CounterSnapshot take_counter_snapshot();

/// What one session (install -> run ranks -> uninstall) produced.
struct SessionResult {
  double setup_s = 0.0;
  std::vector<OpSample> ops;
  /// ops.size() at the end of each timed pass: host metrics are taken per
  /// window of whole passes and the median window is reported.
  std::vector<std::size_t> pass_ends;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures; ///< first few failure messages
  /// vcuda device+pinned MB at each pass end of the timed loop.
  std::vector<double> device_mb;
  double working_set_bytes = 0.0;    ///< bytes the workload's buffers span
  double computed_bytes_per_op = 0.0; ///< kernel bytes moved, computed
  std::uint64_t leased_after_run = 0;
  std::map<std::string, double> layers; ///< traced sessions only
};

/// What a workload needs from the harness in one session.
struct Plan {
  double loop_seconds = 0.0; ///< 0: set up, warm up and tear down only
  bool traced = false;
};

/// Rank-thread coordination outside MPI, so harness synchronisation never
/// shows up in the library's counters.
class Team {
public:
  explicit Team(int ranks) : barrier_(ranks) {}
  void sync() { barrier_.arrive_and_wait(); }
  /// Rank 0 decides, every rank learns: call on all ranks at once.
  bool agree(bool rank0_says, int rank) {
    if (rank == 0) {
      go_.store(rank0_says, std::memory_order_relaxed);
    }
    sync();
    const bool go = go_.load(std::memory_order_relaxed);
    sync();
    return go;
  }

private:
  std::barrier<> barrier_;
  std::atomic<bool> go_{true};
};

/// The first few failure messages of a session's rank threads; the
/// workloads count failed ops themselves, once per op.
class Failures {
public:
  void add(const std::string &what);
  void move_into(SessionResult &res);

private:
  std::mutex mutex_;
  std::vector<std::string> first_;
};

/// Brackets the timed loop of a session: set-up clock, counter deltas,
/// span drains and shim tallies. Methods named rank_* run on every rank;
/// the rest run on rank 0 while every rank is quiescent (between syncs).
class Probe {
public:
  Probe(const Plan &plan, int ranks);

  /// Process CPU time excluded from set-up (oracle work), bracketed by
  /// syncs. Set-up is measured as process CPU time for the reason given
  /// at thread_cpu_ns().
  void exclude_begin();
  void exclude_end();
  /// After warm-up: closes the set-up clock and collects the commit
  /// timings the top shim recorded on rank 0.
  void setup_done(SessionResult &res);

  void loop_begin();
  /// Move recorded spans into the phase totals (ring capacity is finite).
  void drain();
  void loop_end();

  /// Every rank, around its timed loop: arm the shims and take the
  /// thread-local tallies (shim calls, buffer-cache hits).
  void rank_loop_begin(int rank);
  void rank_loop_end(int rank);

  /// Per-layer metrics for `ops` timed ops (traced sessions only).
  void finish(SessionResult &res, double ops) const;

private:
  struct RankTally {
    shim::Tally calls;
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
  };
  Plan plan_;
  std::uint64_t t_start_ = 0;
  std::uint64_t excluded_ns_ = 0;
  std::uint64_t exclude_t0_ = 0;
  CounterSnapshot before_, after_;
  PhaseTotals phases_;
  std::vector<RankTally> ranks_;
  shim::CommitTally commits_;
};

/// vcuda device plus pinned bytes currently registered, in MB.
double device_mb_now();

} // namespace perfbench
