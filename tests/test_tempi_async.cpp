// The non-blocking request engine (tempi/async.hpp): correctness of every
// packing method through Isend/Irecv/Wait, edge cases around request
// handles (MPI_REQUEST_NULL, mixed TEMPI/system arrays, polling Test,
// repeated Wait), buffer pinning until completion, the Waitall unpack
// batch, the halo-exchange auto-selection criterion, and the uninstall
// drain contract.
#include "sysmpi/mpi.hpp"
#include "sysmpi/world.hpp"
#include "tempi/async.hpp"
#include "tempi/buffer_cache.hpp"
#include "tempi/tempi.hpp"
#include "tempi/trace.hpp"
#include "halo/halo.hpp"
#include "test_helpers.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <vector>

namespace {

using testing_helpers::fill_pattern;
using testing_helpers::reference_pack;
using testing_helpers::SpaceBuffer;
using tempi::trace::counter_value;

void run2(const std::function<void(int)> &body) {
  sysmpi::RunConfig cfg;
  cfg.ranks = 2;
  cfg.ranks_per_node = 1;
  sysmpi::run_ranks(cfg, body);
}

class TempiAsync : public ::testing::Test {
protected:
  void SetUp() override {
    tempi::install();
    tempi::trace::reset_counters();
  }
  void TearDown() override {
    tempi::set_send_mode(tempi::SendMode::Auto);
    tempi::uninstall();
  }
};

/// Ship a strided device object rank0 -> rank1 through Isend/Irecv/Wait and
/// verify the delivered bytes against a raw-byte cross-check channel.
void isend_exchange_and_check(tempi::SendMode mode, int vcount, int blocklen,
                              int stride_elems) {
  tempi::set_send_mode(mode);
  run2([&](int rank) {
    MPI_Init(nullptr, nullptr);
    MPI_Datatype t = nullptr;
    MPI_Type_vector(vcount, blocklen, stride_elems, MPI_FLOAT, &t);
    MPI_Type_commit(&t);
    MPI_Aint lb = 0, extent = 0;
    MPI_Type_get_extent(t, &lb, &extent);

    SpaceBuffer buf(vcuda::MemorySpace::Device,
                    static_cast<std::size_t>(extent) + 64);
    if (rank == 0) {
      fill_pattern(buf.get(), buf.size(), 23);
      MPI_Request req = MPI_REQUEST_NULL;
      ASSERT_EQ(MPI_Isend(buf.get(), 1, t, 1, 7, MPI_COMM_WORLD, &req),
                MPI_SUCCESS);
      ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
      EXPECT_EQ(req, MPI_REQUEST_NULL);
      MPI_Send(buf.get(), static_cast<int>(buf.size()), MPI_BYTE, 1, 8,
               MPI_COMM_WORLD);
    } else {
      std::memset(buf.get(), 0, buf.size());
      MPI_Request req = MPI_REQUEST_NULL;
      ASSERT_EQ(MPI_Irecv(buf.get(), 1, t, 0, 7, MPI_COMM_WORLD, &req),
                MPI_SUCCESS);
      MPI_Status status;
      ASSERT_EQ(MPI_Wait(&req, &status), MPI_SUCCESS);
      EXPECT_EQ(req, MPI_REQUEST_NULL);
      EXPECT_EQ(status.MPI_SOURCE, 0);
      EXPECT_EQ(status.MPI_TAG, 7);

      std::vector<std::byte> raw(buf.size());
      MPI_Recv(raw.data(), static_cast<int>(raw.size()), MPI_BYTE, 0, 8,
               MPI_COMM_WORLD, MPI_STATUS_IGNORE);
      EXPECT_EQ(reference_pack(buf.get(), 1, *t),
                reference_pack(raw.data(), 1, *t))
          << "mode " << static_cast<int>(mode);
    }
    MPI_Type_free(&t);
    MPI_Finalize();
  });
  tempi::set_send_mode(tempi::SendMode::Auto);
}

TEST_F(TempiAsync, DeviceMethodDeliversCorrectBytes) {
  isend_exchange_and_check(tempi::SendMode::ForceDevice, 64, 8, 24);
}

TEST_F(TempiAsync, OneShotMethodDeliversCorrectBytes) {
  isend_exchange_and_check(tempi::SendMode::ForceOneShot, 64, 8, 24);
}

TEST_F(TempiAsync, StagedMethodDeliversCorrectBytes) {
  isend_exchange_and_check(tempi::SendMode::ForceStaged, 64, 8, 24);
}

TEST_F(TempiAsync, AutoDeliversCorrectBytesAndCountsNonBlocking) {
  isend_exchange_and_check(tempi::SendMode::Auto, 128, 2, 10);
  EXPECT_EQ(counter_value("tempi.isend.oneshot") +
                counter_value("tempi.isend.device") +
                counter_value("tempi.isend.staged"),
            1u);
  EXPECT_EQ(counter_value("tempi.isend.forwarded"), 0u);
  EXPECT_EQ(counter_value("tempi.irecv.accelerated"), 1u);
  EXPECT_EQ(counter_value("tempi.irecv.forwarded"), 0u);
}

TEST_F(TempiAsync, WaitOnNullRequestSucceeds) {
  sysmpi::ensure_self_context();
  MPI_Request req = MPI_REQUEST_NULL;
  EXPECT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
  EXPECT_EQ(req, MPI_REQUEST_NULL);
}

TEST_F(TempiAsync, WaitallToleratesNullEntries) {
  run2([&](int rank) {
    MPI_Init(nullptr, nullptr);
    MPI_Datatype t = nullptr;
    MPI_Type_vector(32, 4, 12, MPI_INT, &t);
    MPI_Type_commit(&t);
    MPI_Aint lb = 0, extent = 0;
    MPI_Type_get_extent(t, &lb, &extent);
    SpaceBuffer buf(vcuda::MemorySpace::Device,
                    static_cast<std::size_t>(extent) + 16);
    fill_pattern(buf.get(), buf.size(), rank + 1);

    // Slots 0 and 2 stay MPI_REQUEST_NULL; slot 1 is a live TEMPI request.
    MPI_Request reqs[3] = {MPI_REQUEST_NULL, MPI_REQUEST_NULL,
                           MPI_REQUEST_NULL};
    MPI_Status statuses[3];
    if (rank == 0) {
      ASSERT_EQ(MPI_Isend(buf.get(), 1, t, 1, 3, MPI_COMM_WORLD, &reqs[1]),
                MPI_SUCCESS);
    } else {
      ASSERT_EQ(MPI_Irecv(buf.get(), 1, t, 0, 3, MPI_COMM_WORLD, &reqs[1]),
                MPI_SUCCESS);
    }
    ASSERT_EQ(MPI_Waitall(3, reqs, statuses), MPI_SUCCESS);
    for (MPI_Request r : reqs) {
      EXPECT_EQ(r, MPI_REQUEST_NULL);
    }
    if (rank == 1) {
      EXPECT_EQ(statuses[1].MPI_SOURCE, 0);
      EXPECT_EQ(statuses[1].MPI_TAG, 3);
    }
    MPI_Type_free(&t);
    MPI_Finalize();
  });
}

TEST_F(TempiAsync, WaitanyOverMixedTempiAndSystemRequests) {
  run2([&](int rank) {
    MPI_Init(nullptr, nullptr);
    MPI_Datatype t = nullptr;
    MPI_Type_vector(16, 8, 16, MPI_DOUBLE, &t);
    MPI_Type_commit(&t);
    MPI_Aint lb = 0, extent = 0;
    MPI_Type_get_extent(t, &lb, &extent);
    SpaceBuffer dev(vcuda::MemorySpace::Device,
                    static_cast<std::size_t>(extent) + 8);
    std::vector<int> host(64, rank);

    if (rank == 0) {
      fill_pattern(dev.get(), dev.size(), 3);
      MPI_Send(dev.get(), 1, t, 1, 10, MPI_COMM_WORLD); // TEMPI-accelerated
      MPI_Send(host.data(), 64, MPI_INT, 1, 11, MPI_COMM_WORLD); // system
    } else {
      // One TEMPI-owned request (device strided recv) and one system
      // request (host contiguous recv) in the same array.
      MPI_Request reqs[2] = {MPI_REQUEST_NULL, MPI_REQUEST_NULL};
      ASSERT_EQ(MPI_Irecv(dev.get(), 1, t, 0, 10, MPI_COMM_WORLD, &reqs[0]),
                MPI_SUCCESS);
      ASSERT_EQ(
          MPI_Irecv(host.data(), 64, MPI_INT, 0, 11, MPI_COMM_WORLD,
                    &reqs[1]),
          MPI_SUCCESS);
      EXPECT_TRUE(tempi::async::owns(reqs[0]));
      EXPECT_FALSE(tempi::async::owns(reqs[1]));

      bool done[2] = {false, false};
      for (int k = 0; k < 2; ++k) {
        int index = -1;
        MPI_Status status;
        ASSERT_EQ(MPI_Waitany(2, reqs, &index, &status), MPI_SUCCESS);
        ASSERT_TRUE(index == 0 || index == 1);
        EXPECT_FALSE(done[index]);
        done[index] = true;
        EXPECT_EQ(reqs[index], MPI_REQUEST_NULL);
      }
      EXPECT_TRUE(done[0] && done[1]);
      EXPECT_EQ(host[0], 0);

      // A third Waitany over the all-null array reports MPI_UNDEFINED.
      int index = 0;
      ASSERT_EQ(MPI_Waitany(2, reqs, &index, MPI_STATUS_IGNORE),
                MPI_SUCCESS);
      EXPECT_EQ(index, MPI_UNDEFINED);
    }
    MPI_Type_free(&t);
    MPI_Finalize();
  });
}

TEST_F(TempiAsync, TestPolledBeforeCompletion) {
  run2([&](int rank) {
    MPI_Init(nullptr, nullptr);
    MPI_Datatype t = nullptr;
    MPI_Type_vector(32, 4, 8, MPI_FLOAT, &t);
    MPI_Type_commit(&t);
    MPI_Aint lb = 0, extent = 0;
    MPI_Type_get_extent(t, &lb, &extent);
    SpaceBuffer buf(vcuda::MemorySpace::Device,
                    static_cast<std::size_t>(extent) + 32);

    if (rank == 1) {
      MPI_Request req = MPI_REQUEST_NULL;
      ASSERT_EQ(MPI_Irecv(buf.get(), 1, t, 0, 5, MPI_COMM_WORLD, &req),
                MPI_SUCCESS);
      // The peer has not sent yet (it blocks on our go-ahead), so Test
      // must report not-done and leave the request live.
      int flag = 1;
      ASSERT_EQ(MPI_Test(&req, &flag, MPI_STATUS_IGNORE), MPI_SUCCESS);
      EXPECT_EQ(flag, 0);
      EXPECT_NE(req, MPI_REQUEST_NULL);
      EXPECT_TRUE(tempi::async::owns(req));

      const int go = 1;
      MPI_Send(&go, 1, MPI_INT, 0, 6, MPI_COMM_WORLD);
      flag = 0;
      MPI_Status status;
      while (flag == 0) {
        ASSERT_EQ(MPI_Test(&req, &flag, &status), MPI_SUCCESS);
      }
      EXPECT_EQ(req, MPI_REQUEST_NULL);
      EXPECT_EQ(status.MPI_SOURCE, 0);
      EXPECT_EQ(status.MPI_TAG, 5);
    } else {
      fill_pattern(buf.get(), buf.size(), 9);
      int go = 0;
      MPI_Recv(&go, 1, MPI_INT, 1, 6, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
      MPI_Send(buf.get(), 1, t, 1, 5, MPI_COMM_WORLD);
    }
    MPI_Type_free(&t);
    MPI_Finalize();
  });
}

TEST_F(TempiAsync, RepeatedWaitOnCompletedRequestSucceeds) {
  run2([&](int rank) {
    MPI_Init(nullptr, nullptr);
    MPI_Datatype t = nullptr;
    MPI_Type_vector(8, 2, 6, MPI_INT, &t);
    MPI_Type_commit(&t);
    MPI_Aint lb = 0, extent = 0;
    MPI_Type_get_extent(t, &lb, &extent);
    SpaceBuffer buf(vcuda::MemorySpace::Device,
                    static_cast<std::size_t>(extent) + 8);
    fill_pattern(buf.get(), buf.size(), rank + 4);

    MPI_Request req = MPI_REQUEST_NULL;
    if (rank == 0) {
      ASSERT_EQ(MPI_Isend(buf.get(), 1, t, 1, 2, MPI_COMM_WORLD, &req),
                MPI_SUCCESS);
    } else {
      ASSERT_EQ(MPI_Irecv(buf.get(), 1, t, 0, 2, MPI_COMM_WORLD, &req),
                MPI_SUCCESS);
    }
    ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
    EXPECT_EQ(req, MPI_REQUEST_NULL);
    // Completion nulled the handle; waiting again is a no-op success.
    EXPECT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
    EXPECT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
    MPI_Type_free(&t);
    MPI_Finalize();
  });
}

TEST_F(TempiAsync, IntermediatesStayLeasedUntilCompletion) {
  run2([&](int rank) {
    MPI_Init(nullptr, nullptr);
    MPI_Datatype t = nullptr;
    MPI_Type_vector(64, 4, 12, MPI_FLOAT, &t);
    MPI_Type_commit(&t);
    MPI_Aint lb = 0, extent = 0;
    MPI_Type_get_extent(t, &lb, &extent);
    SpaceBuffer buf(vcuda::MemorySpace::Device,
                    static_cast<std::size_t>(extent) + 16);
    fill_pattern(buf.get(), buf.size(), 2);

    if (rank == 1) {
      // The peer idles in its Recv until released, so the process-wide
      // lease gauge moves only with this rank's activity here.
      const std::size_t before = tempi::buffer_cache_stats().leased_now;
      MPI_Request req = MPI_REQUEST_NULL;
      ASSERT_EQ(MPI_Irecv(buf.get(), 1, t, 0, 1, MPI_COMM_WORLD, &req),
                MPI_SUCCESS);
      // The wire intermediate is pinned inside the in-flight op, past the
      // lexical scope of the Irecv call.
      EXPECT_GT(tempi::buffer_cache_stats().leased_now, before);
      const int go = 1;
      MPI_Send(&go, 1, MPI_INT, 0, 0, MPI_COMM_WORLD);
      ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
      // The "done" handshake orders the peer's transient send-side leases
      // before this final read of the shared gauge.
      int done = 0;
      MPI_Recv(&done, 1, MPI_INT, 0, 2, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
      EXPECT_EQ(tempi::buffer_cache_stats().leased_now, before);
    } else {
      int go = 0;
      MPI_Recv(&go, 1, MPI_INT, 1, 0, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
      MPI_Send(buf.get(), 1, t, 1, 1, MPI_COMM_WORLD);
      const int done = 1;
      MPI_Send(&done, 1, MPI_INT, 1, 2, MPI_COMM_WORLD);
    }
    MPI_Type_free(&t);
    MPI_Finalize();
  });
}

TEST_F(TempiAsync, HaloIsendAutoSelectsNonSystemMethods) {
  // The acceptance criterion: the paper's halo exchange issued through
  // Isend/Irecv/Waitall must be accelerated under SendMode::Auto, observed
  // through the non-blocking tempi.isend.* counters.
  halo::Config cfg;
  cfg.nx = cfg.ny = cfg.nz = 8;
  cfg.vals = 8;
  cfg.radius = 3;
  cfg.px = cfg.py = cfg.pz = 1;
  sysmpi::RunConfig rc;
  rc.ranks = 1;
  rc.ranks_per_node = 1;
  sysmpi::run_ranks(rc, [&](int) {
    MPI_Init(nullptr, nullptr);
    void *grid = nullptr;
    vcuda::Malloc(&grid, cfg.grid_bytes());
    std::memset(grid, 0, cfg.grid_bytes());
    {
      halo::Exchanger ex(cfg, MPI_COMM_WORLD);
      ex.exchange_isend(grid);
    }
    vcuda::Free(grid);
    MPI_Finalize();
  });
  EXPECT_EQ(counter_value("tempi.isend.oneshot") +
                counter_value("tempi.isend.device") +
                counter_value("tempi.isend.staged"),
            26u);
  EXPECT_EQ(counter_value("tempi.isend.forwarded"), 0u);
  EXPECT_EQ(counter_value("tempi.irecv.accelerated"), 26u);
  EXPECT_EQ(counter_value("tempi.irecv.forwarded"), 0u);

  EXPECT_EQ(counter_value("tempi.engine.isends"), 26u);
  EXPECT_EQ(counter_value("tempi.engine.irecvs"), 26u);
  EXPECT_EQ(counter_value("tempi.engine.completions"), 52u);
  // Waitall retired the 26 receives with batched stream syncs.
  EXPECT_GE(counter_value("tempi.engine.batched_syncs"), 1u);
  EXPECT_EQ(tempi::async::in_flight(), 0u);
}

TEST_F(TempiAsync, HaloIsendMatchesBlockingExchange) {
  // Same traffic, two call patterns: the non-blocking exchange must fill
  // the ghost shells with exactly the bytes the blocking exchange does.
  halo::Config cfg;
  cfg.nx = cfg.ny = cfg.nz = 6;
  cfg.vals = 2;
  cfg.radius = 2;
  cfg.px = 2;
  cfg.py = cfg.pz = 1;
  sysmpi::RunConfig rc;
  rc.ranks = cfg.ranks();
  rc.ranks_per_node = 2;

  std::vector<std::vector<std::byte>> nb(static_cast<std::size_t>(2));
  std::vector<std::vector<std::byte>> blocking(static_cast<std::size_t>(2));
  for (int use_nb = 0; use_nb < 2; ++use_nb) {
    sysmpi::run_ranks(rc, [&](int rank) {
      MPI_Init(nullptr, nullptr);
      void *grid = nullptr;
      vcuda::Malloc(&grid, cfg.grid_bytes());
      // Position-and-rank dependent fill so every region is distinct.
      fill_pattern(grid, cfg.grid_bytes(), 100 + rank);
      {
        halo::Exchanger ex(cfg, MPI_COMM_WORLD);
        if (use_nb != 0) {
          ex.exchange_isend(grid);
        } else {
          ex.exchange(grid);
        }
      }
      auto &out = (use_nb != 0 ? nb : blocking)[static_cast<std::size_t>(
          rank)];
      out.assign(static_cast<std::byte *>(grid),
                 static_cast<std::byte *>(grid) + cfg.grid_bytes());
      vcuda::Free(grid);
      MPI_Finalize();
    });
  }
  EXPECT_EQ(nb[0], blocking[0]);
  EXPECT_EQ(nb[1], blocking[1]);
}

TEST_F(TempiAsync, UninstallDrainsInFlightRequests) {
  // An Irecv that never matches: uninstall must drain the pool loudly
  // instead of leaking it (contract in tempi.hpp).
  sysmpi::RunConfig rc;
  rc.ranks = 1;
  rc.ranks_per_node = 1;
  sysmpi::run_ranks(rc, [&](int) {
    MPI_Init(nullptr, nullptr);
    MPI_Datatype t = nullptr;
    MPI_Type_vector(16, 4, 8, MPI_FLOAT, &t);
    MPI_Type_commit(&t);
    MPI_Aint lb = 0, extent = 0;
    MPI_Type_get_extent(t, &lb, &extent);
    SpaceBuffer buf(vcuda::MemorySpace::Device,
                    static_cast<std::size_t>(extent) + 4);
    MPI_Request req = MPI_REQUEST_NULL;
    ASSERT_EQ(MPI_Irecv(buf.get(), 1, t, 0, 99, MPI_COMM_WORLD, &req),
              MPI_SUCCESS);
    EXPECT_TRUE(tempi::async::owns(req));
    MPI_Type_free(&t);
    MPI_Finalize();
  });
  EXPECT_EQ(tempi::async::in_flight(), 1u);
  tempi::uninstall(); // drains; TearDown's uninstall becomes a no-op
  EXPECT_EQ(tempi::async::in_flight(), 0u);
}

TEST_F(TempiAsync, WaitsomeCompletesTempiRequestsInMixedArrays) {
  run2([&](int rank) {
    MPI_Init(nullptr, nullptr);
    MPI_Datatype t = nullptr;
    MPI_Type_vector(32, 4, 12, MPI_INT, &t);
    MPI_Type_commit(&t);
    MPI_Aint lb = 0, extent = 0;
    MPI_Type_get_extent(t, &lb, &extent);
    SpaceBuffer typed(vcuda::MemorySpace::Device,
                      static_cast<std::size_t>(extent) + 16);
    int plain = 0;
    // Slot 0: TEMPI-owned typed op; slot 1: MPI_REQUEST_NULL; slot 2: a
    // plain system request — one Waitsome loop completes the lot.
    MPI_Request reqs[3] = {MPI_REQUEST_NULL, MPI_REQUEST_NULL,
                           MPI_REQUEST_NULL};
    if (rank == 0) {
      fill_pattern(typed.get(), typed.size(), 4);
      plain = 55;
      ASSERT_EQ(MPI_Isend(typed.get(), 1, t, 1, 1, MPI_COMM_WORLD, &reqs[0]),
                MPI_SUCCESS);
      ASSERT_EQ(MPI_Isend(&plain, 1, MPI_INT, 1, 2, MPI_COMM_WORLD,
                          &reqs[2]),
                MPI_SUCCESS);
    } else {
      ASSERT_EQ(MPI_Irecv(typed.get(), 1, t, 0, 1, MPI_COMM_WORLD,
                          &reqs[0]),
                MPI_SUCCESS);
      EXPECT_TRUE(tempi::async::owns(reqs[0]));
      ASSERT_EQ(MPI_Irecv(&plain, 1, MPI_INT, 0, 2, MPI_COMM_WORLD,
                          &reqs[2]),
                MPI_SUCCESS);
    }
    int done = 0;
    while (done < 2) {
      int outcount = 0;
      int indices[3] = {-1, -1, -1};
      ASSERT_EQ(MPI_Waitsome(3, reqs, &outcount, indices,
                             MPI_STATUSES_IGNORE),
                MPI_SUCCESS);
      ASSERT_NE(outcount, MPI_UNDEFINED);
      done += outcount;
    }
    for (MPI_Request r : reqs) {
      EXPECT_EQ(r, MPI_REQUEST_NULL);
    }
    if (rank == 1) {
      EXPECT_EQ(plain, 55);
    }
    int outcount = 0;
    int indices[3] = {-1, -1, -1};
    ASSERT_EQ(MPI_Waitsome(3, reqs, &outcount, indices,
                           MPI_STATUSES_IGNORE),
              MPI_SUCCESS);
    EXPECT_EQ(outcount, MPI_UNDEFINED); // nothing active left
    MPI_Type_free(&t);
    MPI_Finalize();
  });
}

TEST_F(TempiAsync, TestallAndTestanyDriveTempiReceives) {
  run2([&](int rank) {
    MPI_Init(nullptr, nullptr);
    MPI_Datatype t = nullptr;
    MPI_Type_vector(24, 8, 20, MPI_BYTE, &t);
    MPI_Type_commit(&t);
    MPI_Aint lb = 0, extent = 0;
    MPI_Type_get_extent(t, &lb, &extent);
    SpaceBuffer buf(vcuda::MemorySpace::Device,
                    static_cast<std::size_t>(extent) + 8);
    if (rank == 0) {
      int go = 0;
      MPI_Recv(&go, 1, MPI_INT, 1, 60, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
      fill_pattern(buf.get(), buf.size(), 6);
      MPI_Send(buf.get(), 1, t, 1, 61, MPI_COMM_WORLD);
      MPI_Send(buf.get(), static_cast<int>(buf.size()), MPI_BYTE, 1, 62,
               MPI_COMM_WORLD);
    } else {
      std::memset(buf.get(), 0, buf.size());
      MPI_Request req = MPI_REQUEST_NULL;
      ASSERT_EQ(MPI_Irecv(buf.get(), 1, t, 0, 61, MPI_COMM_WORLD, &req),
                MPI_SUCCESS);
      ASSERT_TRUE(tempi::async::owns(req));
      // Unmatched yet: Testany and Testall both report no completion
      // without consuming the request.
      int flag = 1, index = 0;
      ASSERT_EQ(MPI_Testany(1, &req, &index, &flag, MPI_STATUS_IGNORE),
                MPI_SUCCESS);
      EXPECT_EQ(flag, 0);
      EXPECT_NE(req, MPI_REQUEST_NULL);
      ASSERT_EQ(MPI_Testall(1, &req, &flag, MPI_STATUSES_IGNORE),
                MPI_SUCCESS);
      EXPECT_EQ(flag, 0);
      const int go = 1;
      MPI_Send(&go, 1, MPI_INT, 0, 60, MPI_COMM_WORLD);
      while (flag == 0) {
        ASSERT_EQ(MPI_Testall(1, &req, &flag, MPI_STATUSES_IGNORE),
                  MPI_SUCCESS);
      }
      EXPECT_EQ(req, MPI_REQUEST_NULL);
      std::vector<std::byte> raw(buf.size());
      MPI_Recv(raw.data(), static_cast<int>(raw.size()), MPI_BYTE, 0, 62,
               MPI_COMM_WORLD, MPI_STATUS_IGNORE);
      EXPECT_EQ(reference_pack(buf.get(), 1, *t),
                reference_pack(raw.data(), 1, *t));
    }
    MPI_Type_free(&t);
    MPI_Finalize();
  });
}

TEST_F(TempiAsync, TestsomeConsumesArrivalsIncrementally) {
  run2([&](int rank) {
    MPI_Init(nullptr, nullptr);
    MPI_Datatype t = nullptr;
    MPI_Type_vector(16, 4, 12, MPI_BYTE, &t);
    MPI_Type_commit(&t);
    MPI_Aint lb = 0, extent = 0;
    MPI_Type_get_extent(t, &lb, &extent);
    SpaceBuffer a(vcuda::MemorySpace::Device,
                  static_cast<std::size_t>(extent) + 8);
    SpaceBuffer b(vcuda::MemorySpace::Device,
                  static_cast<std::size_t>(extent) + 8);
    if (rank == 0) {
      fill_pattern(a.get(), a.size(), 1);
      fill_pattern(b.get(), b.size(), 2);
      // First message, handshake, then the second: the receiver observes a
      // partial completion set in between.
      MPI_Send(a.get(), 1, t, 1, 70, MPI_COMM_WORLD);
      int seen = 0;
      MPI_Recv(&seen, 1, MPI_INT, 1, 71, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
      MPI_Send(b.get(), 1, t, 1, 72, MPI_COMM_WORLD);
    } else {
      std::memset(a.get(), 0, a.size());
      std::memset(b.get(), 0, b.size());
      MPI_Request reqs[2] = {MPI_REQUEST_NULL, MPI_REQUEST_NULL};
      ASSERT_EQ(MPI_Irecv(a.get(), 1, t, 0, 70, MPI_COMM_WORLD, &reqs[0]),
                MPI_SUCCESS);
      ASSERT_EQ(MPI_Irecv(b.get(), 1, t, 0, 72, MPI_COMM_WORLD, &reqs[1]),
                MPI_SUCCESS);
      int outcount = 0;
      int indices[2] = {-1, -1};
      while (outcount == 0) {
        ASSERT_EQ(MPI_Testsome(2, reqs, &outcount, indices,
                               MPI_STATUSES_IGNORE),
                  MPI_SUCCESS);
      }
      EXPECT_EQ(outcount, 1); // only the first message has arrived
      EXPECT_EQ(indices[0], 0);
      EXPECT_EQ(reqs[0], MPI_REQUEST_NULL);
      EXPECT_NE(reqs[1], MPI_REQUEST_NULL);
      const int seen = 1;
      MPI_Send(&seen, 1, MPI_INT, 0, 71, MPI_COMM_WORLD);
      int more = 0;
      while (more == 0) {
        ASSERT_EQ(MPI_Testsome(2, reqs, &more, indices,
                               MPI_STATUSES_IGNORE),
                  MPI_SUCCESS);
        ASSERT_NE(more, MPI_UNDEFINED);
      }
      EXPECT_EQ(indices[0], 1);
      EXPECT_EQ(reqs[1], MPI_REQUEST_NULL);
    }
    MPI_Type_free(&t);
    MPI_Finalize();
  });
}

} // namespace
