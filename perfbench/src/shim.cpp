#include "shim.hpp"

#include "common.hpp"
#include "interpose/table.hpp"
#include "vcuda/clock.hpp"

#include <tuple>

namespace perfbench::shim {

Tally &Tally::operator+=(const Tally &o) {
  top_calls += o.top_calls;
  top_host_ns += o.top_host_ns;
  top_virt_ns += o.top_virt_ns;
  bottom_calls += o.bottom_calls;
  bottom_host_ns += o.bottom_host_ns;
  bottom_virt_ns += o.bottom_virt_ns;
  bottom_wait_virt_ns += o.bottom_wait_virt_ns;
  wire_bytes += o.wire_bytes;
  pack_calls += o.pack_calls;
  pack_host_ns += o.pack_host_ns;
  pack_virt_ns += o.pack_virt_ns;
  pack_bytes += o.pack_bytes;
  unpack_calls += o.unpack_calls;
  unpack_host_ns += o.unpack_host_ns;
  unpack_virt_ns += o.unpack_virt_ns;
  unpack_bytes += o.unpack_bytes;
  fallthrough_packs += o.fallthrough_packs;
  return *this;
}

namespace {

using interpose::MpiTable;

enum class Fn {
#define PERFBENCH_FN_ENUM(name, ret, args) name,
  SYSMPI_FOR_EACH_FN(PERFBENCH_FN_ENUM)
#undef PERFBENCH_FN_ENUM
};

MpiTable g_top_next;    // TEMPI's table: what the top shim forwards to
MpiTable g_bottom_next; // the system table: what the bottom shim forwards to

thread_local Tally tl_tally;
thread_local CommitTally tl_commits;
thread_local bool tl_armed = false;
thread_local int tl_top_depth = 0;
thread_local int tl_bottom_depth = 0;

/// Calls that can block until a peer arrives: their virtual time is wait.
constexpr bool waits_on_peer(Fn f) {
  switch (f) {
  case Fn::Send:
  case Fn::Recv:
  case Fn::Sendrecv:
  case Fn::Wait:
  case Fn::Waitall:
  case Fn::Waitany:
  case Fn::Waitsome:
  case Fn::Probe:
  case Fn::Barrier:
  case Fn::Bcast:
  case Fn::Allreduce:
  case Fn::Reduce:
  case Fn::Reduce_scatter:
  case Fn::Reduce_scatter_block:
  case Fn::Gather:
  case Fn::Gatherv:
  case Fn::Scatter:
  case Fn::Allgather:
  case Fn::Alltoallv:
  case Fn::Neighbor_alltoallv:
    return true;
  default:
    return false;
  }
}

std::uint64_t type_bytes(long long count, MPI_Datatype type) {
  int size = 0;
  if (count <= 0 || type == MPI_DATATYPE_NULL ||
      interpose::system_table().Type_size(type, &size) != MPI_SUCCESS ||
      size <= 0) {
    return 0;
  }
  return static_cast<std::uint64_t>(count) * static_cast<std::uint64_t>(size);
}

/// Bytes a sysmpi call puts on the wire as a sender: point-to-point sends,
/// one rank's Allreduce contribution and its dense-exchange send side; 0
/// for everything else.
template <Fn F, typename... A> std::uint64_t sent_bytes(A... a) {
  const auto args = std::tie(a...);
  if constexpr (F == Fn::Send || F == Fn::Isend || F == Fn::Sendrecv) {
    return type_bytes(std::get<1>(args), std::get<2>(args));
  } else if constexpr (F == Fn::Allreduce) {
    return type_bytes(std::get<2>(args), std::get<3>(args));
  } else if constexpr (F == Fn::Alltoallv) {
    int n = 0;
    interpose::system_table().Comm_size(std::get<8>(args), &n);
    const int *counts = std::get<1>(args);
    long long total = 0;
    for (int i = 0; counts != nullptr && i < n; ++i) {
      total += counts[i];
    }
    return type_bytes(total, std::get<3>(args));
  } else {
    return 0;
  }
}

template <Fn F, auto Slot> struct Shim;

template <Fn F, typename... A, int (*MpiTable::*Slot)(A...)>
struct Shim<F, Slot> {
  static int top(A... a) {
    constexpr bool kCommit = F == Fn::Type_commit;
    if (tl_top_depth > 0 || !(tl_armed || kCommit)) {
      return (g_top_next.*Slot)(a...);
    }
    ++tl_top_depth;
    const std::uint64_t h0 = host_ns();
    const vcuda::VirtualNs v0 = vcuda::virtual_now();
    const int rc = (g_top_next.*Slot)(a...);
    const std::uint64_t dh = host_ns() - h0;
    const vcuda::VirtualNs dv = vcuda::virtual_now() - v0;
    --tl_top_depth;
    if constexpr (kCommit) {
      ++tl_commits.calls;
      tl_commits.host_ns += dh;
      if (!tl_armed) {
        return rc;
      }
    }
    Tally &t = tl_tally;
    ++t.top_calls;
    t.top_host_ns += dh;
    t.top_virt_ns += dv;
    if constexpr (F == Fn::Pack) {
      const auto args = std::tie(a...);
      ++t.pack_calls;
      t.pack_host_ns += dh;
      t.pack_virt_ns += dv;
      t.pack_bytes += type_bytes(std::get<1>(args), std::get<2>(args));
    } else if constexpr (F == Fn::Unpack) {
      const auto args = std::tie(a...);
      ++t.unpack_calls;
      t.unpack_host_ns += dh;
      t.unpack_virt_ns += dv;
      t.unpack_bytes += type_bytes(std::get<4>(args), std::get<5>(args));
    }
    return rc;
  }

  static int bottom(A... a) {
    if (tl_bottom_depth > 0 || !tl_armed) {
      return (g_bottom_next.*Slot)(a...);
    }
    ++tl_bottom_depth;
    const std::uint64_t h0 = host_ns();
    const vcuda::VirtualNs v0 = vcuda::virtual_now();
    const int rc = (g_bottom_next.*Slot)(a...);
    const std::uint64_t dh = host_ns() - h0;
    const vcuda::VirtualNs dv = vcuda::virtual_now() - v0;
    --tl_bottom_depth;
    Tally &t = tl_tally;
    ++t.bottom_calls;
    t.bottom_host_ns += dh;
    t.bottom_virt_ns += dv;
    if constexpr (waits_on_peer(F)) {
      t.bottom_wait_virt_ns += dv;
    }
    if constexpr (F == Fn::Pack) {
      ++t.fallthrough_packs;
    }
    t.wire_bytes += sent_bytes<F>(a...);
    return rc;
  }
};

} // namespace

void install_bottom() {
  MpiTable t = interpose::system_table();
  g_bottom_next = t;
#define PERFBENCH_BOTTOM(name, ret, args)                                      \
  t.name = &Shim<Fn::name, &MpiTable::name>::bottom;
  SYSMPI_FOR_EACH_FN(PERFBENCH_BOTTOM)
#undef PERFBENCH_BOTTOM
  interpose::install(t);
}

void install_top() {
  MpiTable t = interpose::active_table();
  g_top_next = t;
#define PERFBENCH_TOP(name, ret, args)                                         \
  t.name = &Shim<Fn::name, &MpiTable::name>::top;
  SYSMPI_FOR_EACH_FN(PERFBENCH_TOP)
#undef PERFBENCH_TOP
  interpose::install(t);
}

void arm(bool on) { tl_armed = on; }

Tally take() {
  const Tally t = tl_tally;
  tl_tally = Tally{};
  return t;
}

CommitTally take_commits() {
  const CommitTally c = tl_commits;
  tl_commits = CommitTally{};
  return c;
}

} // namespace perfbench::shim
