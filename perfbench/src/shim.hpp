// Outside-in interposition shims for the traced run.
//
// Two function tables wrap every MPI entry point:
//   * the bottom shim is installed over the system table BEFORE
//     tempi::install(), so TEMPI's "next" pointers go through it and every
//     TEMPI -> sysmpi call is counted and timed;
//   * the top shim is installed over TEMPI's table AFTER tempi::install(),
//     so the application's calls go through it; a thread-local depth guard
//     counts only the outermost call.
// Top time minus bottom time is the time spent in TEMPI itself.
// tempi::uninstall() restores the system table, which removes both.
#pragma once

#include <cstdint>

namespace perfbench::shim {

/// Per-thread call tallies, counted only while the thread is armed.
struct Tally {
  std::uint64_t top_calls = 0;
  std::uint64_t top_host_ns = 0;
  std::uint64_t top_virt_ns = 0;
  std::uint64_t bottom_calls = 0;
  std::uint64_t bottom_host_ns = 0;
  std::uint64_t bottom_virt_ns = 0;
  std::uint64_t bottom_wait_virt_ns = 0; ///< in calls that wait on a peer
  std::uint64_t wire_bytes = 0;          ///< bytes handed to sysmpi sends
  std::uint64_t pack_calls = 0;          ///< outermost MPI_Pack
  std::uint64_t pack_host_ns = 0;
  std::uint64_t pack_virt_ns = 0;
  std::uint64_t pack_bytes = 0;
  std::uint64_t unpack_calls = 0; ///< outermost MPI_Unpack
  std::uint64_t unpack_host_ns = 0;
  std::uint64_t unpack_virt_ns = 0;
  std::uint64_t unpack_bytes = 0;
  std::uint64_t fallthrough_packs = 0; ///< MPI_Pack calls that reached sysmpi

  Tally &operator+=(const Tally &o);
};

/// Install the bottom shim over the system table (before tempi::install).
void install_bottom();
/// Install the top shim over the active table (after tempi::install).
void install_top();

/// Arm or disarm counting on the calling thread.
void arm(bool on);
/// The calling thread's tally; resets it.
Tally take();

/// Outermost MPI_Type_commit calls seen by the top shim on the calling
/// thread, armed or not (set-up commits are the point); resets them.
struct CommitTally {
  std::uint64_t calls = 0;
  std::uint64_t host_ns = 0;
};
CommitTally take_commits();

} // namespace perfbench::shim
