#include "sysmpi/mpi.hpp"
#include "sysmpi/world.hpp"
#include "tempi/tempi.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <optional>
#include <tuple>
#include <vector>

namespace {

void run_n(int n, int rpn, const std::function<void(int)> &body) {
  sysmpi::RunConfig cfg;
  cfg.ranks = n;
  cfg.ranks_per_node = rpn;
  sysmpi::run_ranks(cfg, body);
}

TEST(Barrier, AlignsVirtualClocks) {
  run_n(6, 3, [](int rank) {
    // Skew the clocks, then barrier: everyone leaves at a common time at
    // least as late as the largest skew.
    vcuda::this_thread_timeline().advance(
        static_cast<vcuda::VirtualNs>(rank) * 1000);
    ASSERT_EQ(MPI_Barrier(MPI_COMM_WORLD), MPI_SUCCESS);
    EXPECT_GE(vcuda::virtual_now(), 5000u);
  });
}

TEST(Barrier, RepeatedBarriersProgress) {
  run_n(4, 2, [](int) {
    vcuda::VirtualNs prev = vcuda::virtual_now();
    for (int i = 0; i < 5; ++i) {
      ASSERT_EQ(MPI_Barrier(MPI_COMM_WORLD), MPI_SUCCESS);
      EXPECT_GT(vcuda::virtual_now(), prev);
      prev = vcuda::virtual_now();
    }
  });
}

TEST(Bcast, RootValueReachesAll) {
  run_n(7, 3, [](int rank) {
    std::vector<int> buf(100, rank == 2 ? 1234 : 0);
    ASSERT_EQ(MPI_Bcast(buf.data(), 100, MPI_INT, 2, MPI_COMM_WORLD),
              MPI_SUCCESS);
    EXPECT_EQ(buf[0], 1234);
    EXPECT_EQ(buf[99], 1234);
  });
}

TEST(Bcast, SingleRankIsNoop) {
  run_n(1, 1, [](int) {
    int x = 5;
    EXPECT_EQ(MPI_Bcast(&x, 1, MPI_INT, 0, MPI_COMM_WORLD), MPI_SUCCESS);
    EXPECT_EQ(x, 5);
  });
}

TEST(Allreduce, SumAndMax) {
  run_n(5, 5, [](int rank) {
    const long long mine = rank + 1;
    long long sum = 0;
    ASSERT_EQ(MPI_Allreduce(&mine, &sum, 1, MPI_LONG_LONG, MPI_SUM,
                            MPI_COMM_WORLD),
              MPI_SUCCESS);
    EXPECT_EQ(sum, 15);

    const double dv = rank * 1.5;
    double mx = 0.0;
    ASSERT_EQ(MPI_Allreduce(&dv, &mx, 1, MPI_DOUBLE, MPI_MAX,
                            MPI_COMM_WORLD),
              MPI_SUCCESS);
    EXPECT_DOUBLE_EQ(mx, 6.0);

    double mn = 0.0;
    ASSERT_EQ(MPI_Allreduce(&dv, &mn, 1, MPI_DOUBLE, MPI_MIN,
                            MPI_COMM_WORLD),
              MPI_SUCCESS);
    EXPECT_DOUBLE_EQ(mn, 0.0);
  });
}

TEST(Alltoallv, EachPairExchangesDistinctData) {
  constexpr int kRanks = 4;
  run_n(kRanks, 2, [](int rank) {
    // Rank r sends r*100+d to destination d.
    std::vector<int> sendbuf(kRanks), recvbuf(kRanks, -1);
    std::vector<int> counts(kRanks, 1), displs(kRanks);
    std::iota(displs.begin(), displs.end(), 0);
    for (int d = 0; d < kRanks; ++d) {
      sendbuf[static_cast<std::size_t>(d)] = rank * 100 + d;
    }
    ASSERT_EQ(MPI_Alltoallv(sendbuf.data(), counts.data(), displs.data(),
                            MPI_INT, recvbuf.data(), counts.data(),
                            displs.data(), MPI_INT, MPI_COMM_WORLD),
              MPI_SUCCESS);
    for (int s = 0; s < kRanks; ++s) {
      EXPECT_EQ(recvbuf[static_cast<std::size_t>(s)], s * 100 + rank);
    }
  });
}

TEST(Alltoallv, VariableCountsAndDisplacements) {
  constexpr int kRanks = 3;
  run_n(kRanks, 3, [](int rank) {
    // Rank r sends (d+1) ints to destination d.
    std::vector<int> scounts(kRanks), sdispls(kRanks), rcounts(kRanks),
        rdispls(kRanks);
    int stotal = 0;
    for (int d = 0; d < kRanks; ++d) {
      scounts[static_cast<std::size_t>(d)] = d + 1;
      sdispls[static_cast<std::size_t>(d)] = stotal;
      stotal += d + 1;
    }
    int rtotal = 0;
    for (int s = 0; s < kRanks; ++s) {
      rcounts[static_cast<std::size_t>(s)] = rank + 1;
      rdispls[static_cast<std::size_t>(s)] = rtotal;
      rtotal += rank + 1;
    }
    std::vector<int> sendbuf(static_cast<std::size_t>(stotal));
    for (int d = 0, k = 0; d < kRanks; ++d) {
      for (int i = 0; i <= d; ++i, ++k) {
        sendbuf[static_cast<std::size_t>(k)] = rank * 1000 + d * 10 + i;
      }
    }
    std::vector<int> recvbuf(static_cast<std::size_t>(rtotal), -1);
    ASSERT_EQ(MPI_Alltoallv(sendbuf.data(), scounts.data(), sdispls.data(),
                            MPI_INT, recvbuf.data(), rcounts.data(),
                            rdispls.data(), MPI_INT, MPI_COMM_WORLD),
              MPI_SUCCESS);
    for (int s = 0; s < kRanks; ++s) {
      for (int i = 0; i <= rank; ++i) {
        EXPECT_EQ(recvbuf[static_cast<std::size_t>(rdispls[s] + i)],
                  s * 1000 + rank * 10 + i);
      }
    }
  });
}

TEST(DistGraph, NeighborAlltoallvFollowsAdjacency) {
  // 4 ranks in a directed ring: each sends to (rank+1), receives from
  // (rank-1).
  constexpr int kRanks = 4;
  run_n(kRanks, 2, [](int rank) {
    const int src = (rank + kRanks - 1) % kRanks;
    const int dst = (rank + 1) % kRanks;
    MPI_Comm ring = MPI_COMM_NULL;
    ASSERT_EQ(MPI_Dist_graph_create_adjacent(MPI_COMM_WORLD, 1, &src, nullptr,
                                             1, &dst, nullptr, MPI_INFO_NULL,
                                             0, &ring),
              MPI_SUCCESS);
    const int sval = rank * 11;
    int rval = -1;
    const int one = 1, zero = 0;
    ASSERT_EQ(MPI_Neighbor_alltoallv(&sval, &one, &zero, MPI_INT, &rval, &one,
                                     &zero, MPI_INT, ring),
              MPI_SUCCESS);
    EXPECT_EQ(rval, src * 11);
    MPI_Comm_free(&ring);
  });
}

TEST(DistGraph, TwentySixNeighborHaloPattern) {
  // The communication pattern of the paper's 3D stencil: every rank talks
  // to all other ranks of a tiny periodic 2x2x2 grid (26 logical neighbors
  // collapse onto 7 distinct ranks).
  constexpr int kRanks = 8;
  run_n(kRanks, 2, [](int rank) {
    std::vector<int> nbrs;
    for (int r = 0; r < kRanks; ++r) {
      if (r != rank) {
        nbrs.push_back(r);
      }
    }
    const int deg = static_cast<int>(nbrs.size());
    MPI_Comm graph = MPI_COMM_NULL;
    ASSERT_EQ(MPI_Dist_graph_create_adjacent(
                  MPI_COMM_WORLD, deg, nbrs.data(), nullptr, deg, nbrs.data(),
                  nullptr, MPI_INFO_NULL, 0, &graph),
              MPI_SUCCESS);
    std::vector<int> sendbuf(static_cast<std::size_t>(deg)),
        recvbuf(static_cast<std::size_t>(deg), -1);
    std::vector<int> counts(static_cast<std::size_t>(deg), 1),
        displs(static_cast<std::size_t>(deg));
    std::iota(displs.begin(), displs.end(), 0);
    for (int i = 0; i < deg; ++i) {
      sendbuf[static_cast<std::size_t>(i)] = rank * 100 + nbrs[static_cast<std::size_t>(i)];
    }
    ASSERT_EQ(MPI_Neighbor_alltoallv(sendbuf.data(), counts.data(),
                                     displs.data(), MPI_INT, recvbuf.data(),
                                     counts.data(), displs.data(), MPI_INT,
                                     graph),
              MPI_SUCCESS);
    for (int i = 0; i < deg; ++i) {
      EXPECT_EQ(recvbuf[static_cast<std::size_t>(i)],
                nbrs[static_cast<std::size_t>(i)] * 100 + rank);
    }
    MPI_Comm_free(&graph);
  });
}

TEST(CommMgmt, WorldCommCannotBeFreed) {
  run_n(2, 2, [](int) {
    MPI_Comm world = MPI_COMM_WORLD;
    EXPECT_NE(MPI_Comm_free(&world), MPI_SUCCESS);
  });
}

TEST(Wtime, IsVirtualAndMonotonic) {
  run_n(1, 1, [](int) {
    const double t0 = MPI_Wtime();
    vcuda::this_thread_timeline().advance(vcuda::us_to_ns(500.0));
    const double t1 = MPI_Wtime();
    EXPECT_NEAR(t1 - t0, 500e-6, 1e-9);
  });
}

// --- collective traffic vs user messages ------------------------------------
//
// Collectives and user point-to-point share each rank's mailbox; the
// internal (negative) collective tags must neither equal MPI_ANY_TAG nor be
// matched by it. Checked on the system path and with TEMPI installed (its
// engines draw tags from the same sequence).

/// Runs the first collective of the world: root-0 Bcast or a sum
/// Allreduce, both yielding 222 on every rank.
int first_collective(bool allreduce, int rank) {
  int out = 0;
  if (allreduce) {
    const int in = rank == 0 ? 200 : 22;
    EXPECT_EQ(MPI_Allreduce(&in, &out, 1, MPI_INT, MPI_SUM, MPI_COMM_WORLD),
              MPI_SUCCESS);
  } else {
    out = rank == 0 ? 222 : 0;
    EXPECT_EQ(MPI_Bcast(&out, 1, MPI_INT, 0, MPI_COMM_WORLD), MPI_SUCCESS);
  }
  return out;
}

/// (TEMPI installed, collective is Allreduce rather than Bcast).
class CollectiveTags
    : public ::testing::TestWithParam<std::tuple<bool, bool>> {};

TEST_P(CollectiveTags, CollectiveDoesNotTakeUserMessage) {
  const auto [with_tempi, allreduce] = GetParam();
  std::optional<tempi::ScopedInterposer> guard;
  if (with_tempi) {
    guard.emplace();
  }
  run_n(2, 1, [allreduce](int rank) {
    // Each rank's user message is queued at its peer before the collective
    // receives anything, whichever rank that collective receives on.
    MPI_Init(nullptr, nullptr);
    const int peer = 1 - rank;
    const int mine = 111 + rank;
    ASSERT_EQ(MPI_Send(&mine, 1, MPI_INT, peer, 5, MPI_COMM_WORLD),
              MPI_SUCCESS);
    EXPECT_EQ(first_collective(allreduce, rank), 222);
    int x = 0;
    ASSERT_EQ(MPI_Recv(&x, 1, MPI_INT, peer, 5, MPI_COMM_WORLD,
                       MPI_STATUS_IGNORE),
              MPI_SUCCESS);
    EXPECT_EQ(x, 111 + peer);
    MPI_Finalize();
  });
}

TEST_P(CollectiveTags, AnyTagReceiveAndProbeSkipCollectiveTraffic) {
  // The root's Bcast message reaches rank 1 first; a user MPI_ANY_TAG
  // probe and receive must wait for the user message behind it. (A root
  // Allreduce would wait for rank 1, so only Bcast can run ahead here.)
  const bool with_tempi = std::get<0>(GetParam());
  std::optional<tempi::ScopedInterposer> guard;
  if (with_tempi) {
    guard.emplace();
  }
  run_n(2, 1, [](int rank) {
    MPI_Init(nullptr, nullptr);
    if (rank == 0) {
      EXPECT_EQ(first_collective(false, rank), 222);
      const int v = 111;
      ASSERT_EQ(MPI_Send(&v, 1, MPI_INT, 1, 5, MPI_COMM_WORLD), MPI_SUCCESS);
    } else {
      MPI_Status status;
      ASSERT_EQ(MPI_Probe(0, MPI_ANY_TAG, MPI_COMM_WORLD, &status),
                MPI_SUCCESS);
      EXPECT_EQ(status.MPI_TAG, 5);
      int x = 0;
      ASSERT_EQ(MPI_Recv(&x, 1, MPI_INT, 0, MPI_ANY_TAG, MPI_COMM_WORLD,
                         &status),
                MPI_SUCCESS);
      EXPECT_EQ(x, 111);
      EXPECT_EQ(status.MPI_TAG, 5);
      EXPECT_EQ(first_collective(false, rank), 222);
    }
    MPI_Finalize();
  });
}

INSTANTIATE_TEST_SUITE_P(Paths, CollectiveTags,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Bool()));

} // namespace
