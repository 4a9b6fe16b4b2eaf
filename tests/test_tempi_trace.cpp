// The operation tracer + metrics registry (tempi/trace.hpp): span
// nesting/ordering across the async engine, ring-buffer wraparound drops,
// concurrent emits from plain threads, the Chrome trace-event export's
// structure, the disabled path's no-allocation guarantee, flush()
// idempotence, and the counter registry: unique names covering everything
// perfbench reads, reset_counters() zeroing counters but not gauges, and
// per-thread counter stripes summing exactly.
#include "sysmpi/mpi.hpp"
#include "sysmpi/world.hpp"
#include "tempi/buffer_cache.hpp"
#include "tempi/tempi.hpp"
#include "tempi/trace.hpp"
#include "vcuda/runtime.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace {

namespace trace = tempi::trace;

void run2(const std::function<void(int)> &body) {
  sysmpi::RunConfig cfg;
  cfg.ranks = 2;
  cfg.ranks_per_node = 1;
  sysmpi::run_ranks(cfg, body);
}

MPI_Datatype make_vec(int blocks, int block_bytes, int pitch_bytes) {
  MPI_Datatype t = nullptr;
  MPI_Type_vector(blocks, block_bytes, pitch_bytes, MPI_BYTE, &t);
  MPI_Type_commit(&t);
  return t;
}

class TempiTrace : public ::testing::Test {
protected:
  void SetUp() override {
    tempi::install();
    trace::reset_counters();
    trace::reset();
    trace::set_enabled(true);
  }
  void TearDown() override {
    trace::set_enabled(false);
    trace::set_trace_path("");
    trace::set_stats_requested(false);
    trace::set_default_ring_capacity(16384);
    trace::reset();
    tempi::uninstall();
  }
};

/// One 2-rank Isend/Irecv of a strided device object, completion via
/// MPI_Wait on both sides.
void isend_round() {
  run2([](int rank) {
    MPI_Init(nullptr, nullptr);
    MPI_Datatype t = make_vec(64, 64, 128);
    MPI_Aint lb = 0, extent = 0;
    MPI_Type_get_extent(t, &lb, &extent);
    void *buf = nullptr;
    vcuda::Malloc(&buf, static_cast<std::size_t>(extent) + 64);
    MPI_Request req = nullptr;
    if (rank == 0) {
      MPI_Isend(buf, 1, t, 1, 5, MPI_COMM_WORLD, &req);
    } else {
      MPI_Irecv(buf, 1, t, 0, 5, MPI_COMM_WORLD, &req);
    }
    MPI_Wait(&req, MPI_STATUS_IGNORE);
    vcuda::Free(buf);
    MPI_Type_free(&t);
    MPI_Finalize();
  });
}

TEST_F(TempiTrace, SpanOrderingAcrossAsyncWait) {
  isend_round();
  const trace::Snapshot snap = tempi::trace_snapshot();
  ASSERT_FALSE(snap.spans.empty());
  for (const trace::SpanRecord &rec : snap.spans) {
    EXPECT_GE(rec.t1, rec.t0); // every span is a well-formed interval
  }
  // Sender: the pack must be issued before its wire leg begins. Receiver:
  // the wire leg must begin before the unpack ends. (Virtual clocks are
  // per-rank-thread, so ordering is only compared within one rank.)
  const auto first_t0 = [&snap](int rank, trace::Phase phase) {
    vcuda::VirtualNs best = ~vcuda::VirtualNs{0};
    for (const trace::SpanRecord &rec : snap.spans) {
      if (rec.rank == rank && rec.lane == 0 && rec.phase == phase) {
        best = std::min(best, rec.t0);
      }
    }
    return best;
  };
  const auto count_of = [&snap](int rank, trace::Phase phase,
                                trace::OpKind kind) {
    std::size_t n = 0;
    for (const trace::SpanRecord &rec : snap.spans) {
      if (rec.rank == rank && rec.phase == phase && rec.kind == kind) {
        ++n;
      }
    }
    return n;
  };
  ASSERT_GE(count_of(0, trace::Phase::PackLaunch, trace::OpKind::Isend), 1u);
  ASSERT_GE(count_of(0, trace::Phase::Wire, trace::OpKind::Isend), 1u);
  ASSERT_GE(count_of(1, trace::Phase::Wire, trace::OpKind::Irecv), 1u);
  ASSERT_GE(count_of(1, trace::Phase::Unpack, trace::OpKind::Irecv), 1u);
  EXPECT_LE(first_t0(0, trace::Phase::PackLaunch),
            first_t0(0, trace::Phase::Wire));
  EXPECT_LE(first_t0(1, trace::Phase::Wire),
            first_t0(1, trace::Phase::Unpack));
}

TEST_F(TempiTrace, WraparoundDropsCountedNotCrashed) {
  trace::set_default_ring_capacity(8);
  trace::reset(); // next armed emit creates a capacity-8 ring
  for (int i = 0; i < 100; ++i) {
    trace::emit(trace::Phase::Wire, trace::OpKind::Send, i, i + 1, 64);
  }
  const trace::Snapshot snap = tempi::trace_snapshot();
  EXPECT_EQ(snap.spans.size(), 8u); // drop-new: the first 8 are retained
  EXPECT_EQ(snap.dropped, 92u);
  EXPECT_EQ(snap.spans.front().t0, 0u);
}

TEST_F(TempiTrace, ConcurrentEmitFromPlainThreads) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kPerThread; ++i) {
        trace::emit(trace::Phase::Unpack, trace::OpKind::Recv, i, i + 2, 32,
                    t);
      }
    });
  }
  for (std::thread &t : threads) {
    t.join();
  }
  const trace::Snapshot snap = tempi::trace_snapshot();
  EXPECT_EQ(snap.spans.size() + snap.dropped,
            static_cast<std::size_t>(kThreads) * kPerThread);
  EXPECT_EQ(snap.dropped, 0u); // default capacity holds 1000/thread
  EXPECT_EQ(trace::ring_count(), static_cast<std::size_t>(kThreads));
}

TEST_F(TempiTrace, ChromeTraceExportMatchesMinimalSchema) {
  isend_round();
  const std::string path =
      ::testing::TempDir() + "tempi_trace_schema.json";
  ASSERT_TRUE(trace::write_chrome_trace(path));
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string s = ss.str();
  // Balanced braces/brackets outside string literals.
  long braces = 0, bracks = 0;
  bool in_string = false, escaped = false;
  for (const char c : s) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{') {
      ++braces;
    } else if (c == '}') {
      --braces;
    } else if (c == '[') {
      ++bracks;
    } else if (c == ']') {
      --bracks;
    }
    ASSERT_GE(braces, 0);
    ASSERT_GE(bracks, 0);
  }
  EXPECT_FALSE(in_string);
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(bracks, 0);
  const auto count = [&s](const char *needle) {
    std::size_t n = 0;
    for (std::size_t pos = s.find(needle); pos != std::string::npos;
         pos = s.find(needle, pos + 1)) {
      ++n;
    }
    return n;
  };
  EXPECT_NE(s.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(s.find("\"displayTimeUnit\""), std::string::npos);
  // One complete event per retained span, each with ts/dur, plus rank
  // process_name and lane thread_name metadata.
  const trace::Snapshot snap = tempi::trace_snapshot();
  EXPECT_EQ(count("\"ph\":\"X\""), snap.spans.size());
  EXPECT_EQ(count("\"dur\":"), snap.spans.size());
  EXPECT_EQ(count("\"ts\":"), snap.spans.size());
  EXPECT_GE(count("\"ph\":\"M\""), 2u);
  EXPECT_GE(count("\"name\":\"process_name\""), 2u); // one per rank
  std::remove(path.c_str());
}

TEST_F(TempiTrace, DisabledPathAllocatesNothing) {
  trace::set_enabled(false);
  trace::reset(); // drop rings created by SetUp-era emits (none) and arm off
  ASSERT_EQ(trace::ring_count(), 0u);
  for (int i = 0; i < 1000; ++i) {
    trace::emit(trace::Phase::Wire, trace::OpKind::Send, i, i + 1);
    trace::ScopedSpan span(trace::Phase::Unpack, trace::OpKind::Recv);
  }
  EXPECT_EQ(trace::ring_count(), 0u); // no ring, no record, no drop
  const trace::Snapshot snap = tempi::trace_snapshot();
  EXPECT_TRUE(snap.spans.empty());
  EXPECT_EQ(snap.dropped, 0u);
}

TEST_F(TempiTrace, FlushIsIdempotentPerGeneration) {
  const std::string path = ::testing::TempDir() + "tempi_trace_flush.json";
  trace::set_trace_path(path);
  trace::emit(trace::Phase::Wire, trace::OpKind::Send, 0, 10, 64);
  trace::flush();
  std::remove(path.c_str()); // a generation-unchanged flush must not rewrite
  trace::flush();
  std::ifstream second(path);
  EXPECT_FALSE(second.good());
  trace::emit(trace::Phase::Wire, trace::OpKind::Send, 10, 20, 64);
  trace::flush(); // new span -> new generation -> rewritten
  std::ifstream third(path);
  EXPECT_TRUE(third.good());
  std::remove(path.c_str());
}

/// One short program over every counter family, all on device buffers:
/// a blocking Send/Recv and a persistent round on 2 ranks, an Isend/Irecv
/// round, then a ring MPI_Neighbor_alltoallv and an MPI_Allreduce on 4
/// ranks over 2 nodes.
void drive_every_family() {
  run2([](int rank) {
    MPI_Init(nullptr, nullptr);
    MPI_Datatype t = make_vec(64, 64, 128);
    MPI_Aint lb = 0, extent = 0;
    MPI_Type_get_extent(t, &lb, &extent);
    void *buf = nullptr;
    vcuda::Malloc(&buf, static_cast<std::size_t>(extent) + 64);
    if (rank == 0) {
      MPI_Send(buf, 1, t, 1, 1, MPI_COMM_WORLD);
    } else {
      MPI_Recv(buf, 1, t, 0, 1, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
    }
    MPI_Request req = nullptr;
    if (rank == 0) {
      MPI_Send_init(buf, 1, t, 1, 2, MPI_COMM_WORLD, &req);
    } else {
      MPI_Recv_init(buf, 1, t, 0, 2, MPI_COMM_WORLD, &req);
    }
    MPI_Start(&req);
    MPI_Wait(&req, MPI_STATUS_IGNORE);
    MPI_Request_free(&req);
    vcuda::Free(buf);
    MPI_Type_free(&t);
    MPI_Finalize();
  });
  isend_round();
  sysmpi::RunConfig cfg;
  cfg.ranks = 4;
  cfg.ranks_per_node = 2;
  sysmpi::run_ranks(cfg, [](int rank) {
    MPI_Init(nullptr, nullptr);
    MPI_Datatype t = make_vec(16, 8, 16);
    MPI_Aint lb = 0, extent = 0;
    MPI_Type_get_extent(t, &lb, &extent);
    const auto bytes = static_cast<std::size_t>(extent);
    void *sbuf = nullptr;
    void *rbuf = nullptr;
    vcuda::Malloc(&sbuf, bytes);
    vcuda::Malloc(&rbuf, bytes);
    std::memset(sbuf, 0, bytes);
    const int left = (rank + 3) % 4;
    const int right = (rank + 1) % 4;
    MPI_Comm ring = MPI_COMM_NULL;
    MPI_Dist_graph_create_adjacent(MPI_COMM_WORLD, 1, &left, nullptr, 1,
                                   &right, nullptr, MPI_INFO_NULL, 0, &ring);
    const int one = 1;
    const int zero = 0;
    EXPECT_EQ(MPI_Neighbor_alltoallv(sbuf, &one, &zero, t, rbuf, &one, &zero,
                                     t, ring),
              MPI_SUCCESS);
    EXPECT_EQ(MPI_Allreduce(sbuf, rbuf, 8, MPI_INT, MPI_SUM, MPI_COMM_WORLD),
              MPI_SUCCESS);
    MPI_Comm_free(&ring);
    vcuda::Free(sbuf);
    vcuda::Free(rbuf);
    MPI_Type_free(&t);
    MPI_Finalize();
  });
}

TEST_F(TempiTrace, RegistryNamesAreUniqueAndCoverPerfbench) {
  drive_every_family();

  // Every family moved, or this test proves nothing.
  EXPECT_GT(trace::counter_value("tempi.send.oneshot") +
                trace::counter_value("tempi.send.device") +
                trace::counter_value("tempi.send.staged") +
                trace::counter_value("tempi.send.pipelined"),
            0u);
  EXPECT_EQ(trace::counter_value("tempi.irecv.accelerated"), 1u);
  EXPECT_EQ(trace::counter_value("tempi.persistent.inits"), 2u);
  EXPECT_EQ(trace::counter_value("tempi.coll.neighbor"), 4u);
  EXPECT_EQ(trace::counter_value("tempi.red.allreduce"), 4u);

  const auto all = trace::counter_snapshot();
  EXPECT_TRUE(std::is_sorted(
      all.begin(), all.end(),
      [](const auto &a, const auto &b) { return a.first < b.first; }));
  // (a) No name is registered twice: a second registration would shadow
  // the first in counter_value and split the count.
  for (std::size_t i = 1; i < all.size(); ++i) {
    EXPECT_NE(all[i - 1].first, all[i].first);
  }
  // (b) Every name perfbench reads is registered: it reads a missing name
  // as 0, which would silently zero a per-layer metric.
  std::vector<std::string> wanted = {
      "tempi.model.cache_hits",       "tempi.model.cache_misses",
      "tempi.model.generation_bumps", "tempi.engine.isends",
      "tempi.engine.completions",     "tempi.engine.batched_syncs",
      "tempi.persistent.starts",      "tempi.persistent.replays",
      "tempi.coll.alltoallv",         "tempi.coll.neighbor",
      "tempi.coll.fallback",          "tempi.coll.peer_legs",
      "tempi.topo.intra_node_legs",   "tempi.topo.staggered_legs",
      "tempi.red.allreduce",          "tempi.red.reduce",
      "tempi.red.reduce_scatter",     "tempi.red.fallback",
      "tempi.red.peer_legs",          "tempi.red.kernel_launches",
  };
  for (const char *method : {"oneshot", "device", "staged", "pipelined"}) {
    wanted.push_back(std::string("tempi.send.") + method);
    wanted.push_back(std::string("tempi.isend.") + method);
  }
  for (const char *lock :
       {"pool", "depot", "vcuda_streams", "trace_rings", "tune_refresh"}) {
    wanted.push_back(std::string("tempi.lock.") + lock + ".acquires");
    wanted.push_back(std::string("tempi.lock.") + lock + ".contended");
  }
  for (const std::string &name : wanted) {
    EXPECT_TRUE(std::any_of(all.begin(), all.end(),
                            [&name](const auto &kv) {
                              return kv.first == name;
                            }))
        << "missing: " << name;
  }
}

TEST_F(TempiTrace, ResetCountersZeroesCountersOnly) {
  drive_every_family();
  // A lease held across the reset keeps the leased_now gauge nonzero.
  const tempi::CachedBuffer held =
      tempi::lease_buffer(vcuda::MemorySpace::Device, 4096);
  const std::size_t leased = tempi::buffer_cache_stats().leased_now;
  EXPECT_GE(leased, 1u);
  const std::size_t spans = trace::snapshot().spans.size();
  EXPECT_GT(spans, 0u);
  constexpr std::string_view kLockPrefix = "tempi.lock.";
  const auto is_gauge = [&](const std::string &name) {
    return name.compare(0, kLockPrefix.size(), kLockPrefix) == 0;
  };
  std::vector<std::pair<std::string, std::uint64_t>> gauges;
  bool counted = false;
  for (const auto &[name, value] : trace::counter_snapshot()) {
    if (is_gauge(name)) {
      gauges.emplace_back(name, value);
    } else {
      counted = counted || value > 0;
    }
  }
  EXPECT_TRUE(counted);
  EXPECT_GT(trace::counter_value("tempi.lock.pool.acquires"), 0u);

  trace::reset_counters();

  for (const auto &[name, value] : trace::counter_snapshot()) {
    if (!is_gauge(name)) {
      EXPECT_EQ(value, 0u) << name;
    }
  }
  for (const auto &[name, value] : gauges) {
    EXPECT_EQ(trace::counter_value(name), value) << name;
  }
  EXPECT_EQ(tempi::buffer_cache_stats().leased_now, leased);
  EXPECT_EQ(trace::snapshot().spans.size(), spans);

  // A counter first constructed after the reset registers and counts.
  static trace::Counter late("test.trace.late");
  late.add(3);
  EXPECT_EQ(trace::counter_value("test.trace.late"), 3u);
}

TEST_F(TempiTrace, StripedCountersSumExactlyAcrossThreads) {
  // More threads than stripes, so some threads share a stripe: the sum
  // read through the registry (and vcuda's counters) is still exact.
  constexpr int kThreads = static_cast<int>(support::kCounterStripes) + 4;
  constexpr int kAdds = 500;
  static trace::Counter striped("test.trace.striped");
  const std::uint64_t fences0 = vcuda::counters().stream_fences;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kAdds; ++i) {
        striped.add();
        vcuda::StreamFence(nullptr);
      }
      striped.add(2);
    });
  }
  for (std::thread &t : threads) {
    t.join();
  }
  constexpr std::uint64_t kExpected =
      static_cast<std::uint64_t>(kThreads) * (kAdds + 2);
  EXPECT_EQ(trace::counter_value("test.trace.striped"), kExpected);
  EXPECT_EQ(vcuda::counters().stream_fences - fences0,
            static_cast<std::uint64_t>(kThreads) * kAdds);
  const auto snap = trace::counter_snapshot();
  const auto it = std::find_if(snap.begin(), snap.end(), [](const auto &kv) {
    return kv.first == "test.trace.striped";
  });
  ASSERT_NE(it, snap.end());
  EXPECT_EQ(it->second, kExpected);
  trace::reset_counters();
  EXPECT_EQ(trace::counter_value("test.trace.striped"), 0u);
}

TEST_F(TempiTrace, StatsReportPrintsCountersAndPhases) {
  isend_round();
  const std::string path = ::testing::TempDir() + "tempi_trace_stats.txt";
  std::FILE *f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  trace::print_stats_report(f);
  std::fclose(f);
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string s = ss.str();
  EXPECT_NE(s.find("tempi.engine.isends"), std::string::npos);
  EXPECT_NE(s.find("PackLaunch"), std::string::npos);
  EXPECT_NE(s.find("Wire"), std::string::npos);
  std::remove(path.c_str());
}

} // namespace
