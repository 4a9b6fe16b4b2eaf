// Transport-layer edge cases: eager vs rendezvous behaviour, self
// messaging, communicator isolation, zero-byte messages, mixed residency,
// ordering under load, and receives that are already blocked when their
// message is sent (the sender writes into the receiver's buffer).
#include "sysmpi/mpi.hpp"
#include "sysmpi/netmodel.hpp"
#include "sysmpi/world.hpp"
#include "test_helpers.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

namespace {

using testing_helpers::fill_pattern;
using testing_helpers::SpaceBuffer;

void run2(const std::function<void(int)> &body, int rpn = 1) {
  sysmpi::RunConfig cfg;
  cfg.ranks = 2;
  cfg.ranks_per_node = rpn;
  sysmpi::run_ranks(cfg, body);
}

/// Spin until `n` receives are posted on world rank `rank`'s mailbox (a
/// blocked MPI_Recv is one), so the next matching send finds its receiver
/// waiting.
void await_blocked(int rank, std::size_t n = 1) {
  sysmpi::Mailbox &box = sysmpi::this_rank().world->mailbox(rank);
  while (box.posted_receives() < n) {
    std::this_thread::yield();
  }
}

/// Spin until a message matching (source, tag) is queued at this rank,
/// without receiving it (Iprobe costs no virtual time).
void await_queued(int source, int tag) {
  int flag = 0;
  while (flag == 0) {
    MPI_Iprobe(source, tag, MPI_COMM_WORLD, &flag, MPI_STATUS_IGNORE);
    std::this_thread::yield();
  }
}

TEST(Transport, EagerSendReturnsBeforeReceiverPosts) {
  // An eager-size send completes at the sender even though the receiver
  // posts much later: the sender's clock advances only by the overhead.
  run2([](int rank) {
    std::vector<std::byte> buf(1024);
    if (rank == 0) {
      const vcuda::VirtualNs t0 = vcuda::virtual_now();
      MPI_Send(buf.data(), 1024, MPI_BYTE, 1, 0, MPI_COMM_WORLD);
      EXPECT_LT(vcuda::virtual_now() - t0, vcuda::us_to_ns(2.0));
    } else {
      vcuda::this_thread_timeline().advance(vcuda::us_to_ns(10000.0));
      MPI_Recv(buf.data(), 1024, MPI_BYTE, 0, 0, MPI_COMM_WORLD,
               MPI_STATUS_IGNORE);
      // The message was long since delivered: receive costs ~overhead.
      EXPECT_GT(vcuda::virtual_now(), vcuda::us_to_ns(10000.0));
      EXPECT_LT(vcuda::virtual_now(), vcuda::us_to_ns(10010.0));
    }
  });
}

TEST(Transport, RendezvousSendBlocksForTheWire) {
  // Beyond the eager threshold, a blocking send cannot complete before
  // the wire time has elapsed.
  const std::size_t bytes = sysmpi::net_params().eager_bytes * 16;
  run2([bytes](int rank) {
    std::vector<std::byte> buf(bytes);
    if (rank == 0) {
      const vcuda::VirtualNs t0 = vcuda::virtual_now();
      MPI_Send(buf.data(), static_cast<int>(bytes), MPI_BYTE, 1, 0,
               MPI_COMM_WORLD);
      const vcuda::VirtualNs wire = transfer_duration(
          sysmpi::net_params(), bytes, false, false, false);
      EXPECT_GE(vcuda::virtual_now() - t0, wire);
    } else {
      MPI_Recv(buf.data(), static_cast<int>(bytes), MPI_BYTE, 0, 0,
               MPI_COMM_WORLD, MPI_STATUS_IGNORE);
    }
  });
}

TEST(Transport, SelfSendRecv) {
  run2([](int rank) {
    if (rank != 0) {
      return;
    }
    const int v = 31;
    int x = 0;
    ASSERT_EQ(MPI_Send(&v, 1, MPI_INT, 0, 7, MPI_COMM_WORLD), MPI_SUCCESS);
    ASSERT_EQ(MPI_Recv(&x, 1, MPI_INT, 0, 7, MPI_COMM_WORLD,
                       MPI_STATUS_IGNORE),
              MPI_SUCCESS);
    EXPECT_EQ(x, 31);
  });
}

TEST(Transport, ZeroByteMessagesMatch) {
  // Both when the message waits in the queue and when the receive is
  // already blocked.
  for (const bool blocked : {false, true}) {
    run2([blocked](int rank) {
      if (rank == 0) {
        if (blocked) {
          await_blocked(1);
        }
        ASSERT_EQ(MPI_Send(nullptr, 0, MPI_INT, 1, 3, MPI_COMM_WORLD),
                  MPI_SUCCESS);
      } else {
        if (!blocked) {
          await_queued(0, 3);
        }
        MPI_Status status;
        ASSERT_EQ(MPI_Recv(nullptr, 0, MPI_INT, 0, 3, MPI_COMM_WORLD,
                           &status),
                  MPI_SUCCESS);
        int count = -1;
        MPI_Get_count(&status, MPI_INT, &count);
        EXPECT_EQ(count, 0);
        EXPECT_EQ(status.MPI_TAG, 3);
      }
    });
  }
}

TEST(Transport, CommunicatorsIsolateTraffic) {
  // Same (source, tag) on two communicators must not cross-match.
  sysmpi::RunConfig cfg;
  cfg.ranks = 2;
  cfg.ranks_per_node = 2;
  sysmpi::run_ranks(cfg, [](int rank) {
    MPI_Comm other = MPI_COMM_NULL;
    ASSERT_EQ(MPI_Comm_split(MPI_COMM_WORLD, 0, rank, &other), MPI_SUCCESS);
    if (rank == 0) {
      const int on_world = 1, on_other = 2;
      MPI_Send(&on_world, 1, MPI_INT, 1, 5, MPI_COMM_WORLD);
      MPI_Send(&on_other, 1, MPI_INT, 1, 5, other);
    } else {
      int x = 0;
      // Receive from `other` first even though world's arrived first.
      MPI_Recv(&x, 1, MPI_INT, 0, 5, other, MPI_STATUS_IGNORE);
      EXPECT_EQ(x, 2);
      MPI_Recv(&x, 1, MPI_INT, 0, 5, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
      EXPECT_EQ(x, 1);
    }
    MPI_Comm_free(&other);
  });
}

TEST(Transport, MixedResidencyDeviceToHost) {
  // Device sender, pageable-host receiver: data must arrive intact and
  // the wire is priced as a mixed transfer.
  run2([](int rank) {
    constexpr std::size_t kBytes = 4096;
    if (rank == 0) {
      SpaceBuffer dev(vcuda::MemorySpace::Device, kBytes);
      fill_pattern(dev.get(), kBytes, 77);
      MPI_Send(dev.get(), kBytes, MPI_BYTE, 1, 0, MPI_COMM_WORLD);
    } else {
      std::vector<std::byte> host(kBytes), expect(kBytes);
      fill_pattern(expect.data(), kBytes, 77);
      MPI_Recv(host.data(), kBytes, MPI_BYTE, 0, 0, MPI_COMM_WORLD,
               MPI_STATUS_IGNORE);
      EXPECT_EQ(host, expect);
    }
  });
}

TEST(Transport, OrderingPreservedUnderBurst) {
  // 500 back-to-back eager messages arrive in order with ascending
  // payloads, interleaved across two tags.
  run2([](int rank) {
    if (rank == 0) {
      for (int i = 0; i < 500; ++i) {
        MPI_Send(&i, 1, MPI_INT, 1, i % 2, MPI_COMM_WORLD);
      }
    } else {
      int next_even = 0, next_odd = 1;
      for (int i = 0; i < 500; ++i) {
        int x = -1;
        MPI_Status status;
        MPI_Recv(&x, 1, MPI_INT, 0, MPI_ANY_TAG, MPI_COMM_WORLD, &status);
        if (status.MPI_TAG == 0) {
          EXPECT_EQ(x, next_even);
          next_even += 2;
        } else {
          EXPECT_EQ(x, next_odd);
          next_odd += 2;
        }
      }
    }
  });
}

TEST(Transport, VirtualTimeNeverRegressesAcrossRecvs) {
  run2([](int rank) {
    if (rank == 0) {
      std::vector<std::byte> buf(1 << 18);
      for (int i = 0; i < 10; ++i) {
        MPI_Send(buf.data(), 1 << 18, MPI_BYTE, 1, 0, MPI_COMM_WORLD);
      }
    } else {
      std::vector<std::byte> buf(1 << 18);
      vcuda::VirtualNs prev = 0;
      for (int i = 0; i < 10; ++i) {
        MPI_Recv(buf.data(), 1 << 18, MPI_BYTE, 0, 0, MPI_COMM_WORLD,
                 MPI_STATUS_IGNORE);
        EXPECT_GE(vcuda::virtual_now(), prev);
        prev = vcuda::virtual_now();
      }
    }
  });
}

TEST(Transport, NonContiguousDeviceSendPaysBaselineCost) {
  // The Spectrum-like path: a fragmented device datatype send is per-block
  // expensive at BOTH ends.
  run2([](int rank) {
    MPI_Datatype t = nullptr;
    MPI_Type_vector(256, 1, 2, MPI_INT, &t);
    MPI_Type_commit(&t);
    SpaceBuffer buf(vcuda::MemorySpace::Device, 256 * 8 + 8);
    const vcuda::VirtualNs t0 = vcuda::virtual_now();
    if (rank == 0) {
      MPI_Send(buf.get(), 1, t, 1, 0, MPI_COMM_WORLD);
      EXPECT_GT(vcuda::virtual_now() - t0, vcuda::us_to_ns(1000.0));
    } else {
      MPI_Recv(buf.get(), 1, t, 0, 0, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
      EXPECT_GT(vcuda::virtual_now() - t0, vcuda::us_to_ns(2000.0));
    }
    MPI_Type_free(&t);
  });
}

TEST(Transport, HostNonContiguousSendIsCheap) {
  run2([](int rank) {
    MPI_Datatype t = nullptr;
    MPI_Type_vector(256, 1, 2, MPI_INT, &t);
    MPI_Type_commit(&t);
    std::vector<int> buf(512);
    const vcuda::VirtualNs t0 = vcuda::virtual_now();
    if (rank == 0) {
      MPI_Send(buf.data(), 1, t, 1, 0, MPI_COMM_WORLD);
      EXPECT_LT(vcuda::virtual_now() - t0, vcuda::us_to_ns(100.0));
    } else {
      MPI_Recv(buf.data(), 1, t, 0, 0, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
    }
    MPI_Type_free(&t);
  });
}

// --- receives blocked before the send ---------------------------------------

class BlockedRecv : public ::testing::TestWithParam<vcuda::MemorySpace> {};

TEST_P(BlockedRecv, TakesBytesStatusAndCount) {
  // A receive posted with room to spare gets the exact bytes, source, tag
  // and element count, and the rest of its buffer stays untouched.
  const vcuda::MemorySpace space = GetParam();
  run2([space](int rank) {
    constexpr int kCount = 1000, kRoom = 1024;
    SpaceBuffer buf(space, kRoom * sizeof(int));
    if (rank == 0) {
      fill_pattern(buf.get(), kCount * sizeof(int), 5);
      await_blocked(1);
      ASSERT_EQ(MPI_Send(buf.get(), kCount, MPI_INT, 1, 9, MPI_COMM_WORLD),
                MPI_SUCCESS);
      return;
    }
    std::memset(buf.get(), 0xAB, buf.size());
    MPI_Status status;
    ASSERT_EQ(MPI_Recv(buf.get(), kRoom, MPI_INT, 0, 9, MPI_COMM_WORLD,
                       &status),
              MPI_SUCCESS);
    std::vector<std::byte> expect(buf.size(), std::byte{0xAB});
    fill_pattern(expect.data(), kCount * sizeof(int), 5);
    EXPECT_EQ(std::memcmp(buf.get(), expect.data(), buf.size()), 0);
    EXPECT_EQ(status.MPI_SOURCE, 0);
    EXPECT_EQ(status.MPI_TAG, 9);
    int count = -1;
    MPI_Get_count(&status, MPI_INT, &count);
    EXPECT_EQ(count, kCount);
  });
}

TEST_P(BlockedRecv, TooSmallGetsTruncateAndStaysUntouched) {
  const vcuda::MemorySpace space = GetParam();
  run2([space](int rank) {
    SpaceBuffer buf(space, 8 * sizeof(int));
    if (rank == 0) {
      fill_pattern(buf.get(), buf.size(), 6);
      await_blocked(1);
      ASSERT_EQ(MPI_Send(buf.get(), 8, MPI_INT, 1, 2, MPI_COMM_WORLD),
                MPI_SUCCESS);
      return;
    }
    std::memset(buf.get(), 0x5A, buf.size());
    EXPECT_EQ(MPI_Recv(buf.get(), 4, MPI_INT, 0, 2, MPI_COMM_WORLD,
                       MPI_STATUS_IGNORE),
              MPI_ERR_TRUNCATE);
    const std::vector<std::byte> untouched(buf.size(), std::byte{0x5A});
    EXPECT_EQ(std::memcmp(buf.get(), untouched.data(), buf.size()), 0);
  });
}

TEST_P(BlockedRecv, NonContiguousTypeStillScatters) {
  // A strided receive type cannot be written in place; the message is
  // staged and scattered, leaving the gaps alone.
  const vcuda::MemorySpace space = GetParam();
  run2([space](int rank) {
    constexpr int kBlocks = 64;
    if (rank == 0) {
      std::vector<int> src(kBlocks);
      for (int i = 0; i < kBlocks; ++i) {
        src[static_cast<std::size_t>(i)] = i + 1;
      }
      await_blocked(1);
      ASSERT_EQ(MPI_Send(src.data(), kBlocks, MPI_INT, 1, 4, MPI_COMM_WORLD),
                MPI_SUCCESS);
      return;
    }
    MPI_Datatype strided = nullptr;
    MPI_Type_vector(kBlocks, 1, 2, MPI_INT, &strided);
    MPI_Type_commit(&strided);
    SpaceBuffer buf(space, 2 * kBlocks * sizeof(int));
    std::memset(buf.get(), 0xFF, buf.size());
    MPI_Status status;
    ASSERT_EQ(MPI_Recv(buf.get(), 1, strided, 0, 4, MPI_COMM_WORLD, &status),
              MPI_SUCCESS);
    const auto *got = static_cast<const int *>(buf.get());
    for (int i = 0; i < kBlocks; ++i) {
      EXPECT_EQ(got[2 * i], i + 1);
      EXPECT_EQ(got[2 * i + 1], -1);
    }
    int count = -1;
    MPI_Get_count(&status, strided, &count);
    EXPECT_EQ(count, 1);
    MPI_Type_free(&strided);
  });
}

INSTANTIATE_TEST_SUITE_P(Spaces, BlockedRecv,
                         ::testing::Values(vcuda::MemorySpace::Pageable,
                                           vcuda::MemorySpace::Device));

/// Receive key for the ordering tests: (source, tag), either may be a
/// wildcard.
using RecvKey = std::pair<int, int>;

class NoOvertaking : public ::testing::TestWithParam<RecvKey> {};

TEST_P(NoOvertaking, LaterMessageQueuesBehindEarlierOne) {
  // A (tag 1) is queued; a receive for tag 2 blocks; then B (tag 1) and C
  // (tag 2) arrive. C goes to the blocked receive, and B must still come
  // after A for any receive that matches both.
  const auto [source, tag] = GetParam();
  run2([source, tag](int rank) {
    if (rank == 0) {
      const int a = 1, b = 2, c = 3;
      MPI_Send(&a, 1, MPI_INT, 1, 1, MPI_COMM_WORLD);
      await_blocked(1);
      MPI_Send(&b, 1, MPI_INT, 1, 1, MPI_COMM_WORLD);
      MPI_Send(&c, 1, MPI_INT, 1, 2, MPI_COMM_WORLD);
      return;
    }
    int x = 0;
    MPI_Recv(&x, 1, MPI_INT, 0, 2, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
    EXPECT_EQ(x, 3);
    MPI_Recv(&x, 1, MPI_INT, source, tag, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
    EXPECT_EQ(x, 1);
    MPI_Recv(&x, 1, MPI_INT, source, tag, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
    EXPECT_EQ(x, 2);
  });
}

TEST_P(NoOvertaking, QueuedMatchIsTakenBeforeBlocking) {
  // With A already queued, a matching receive must take A rather than
  // block; if it blocked, B (sent only once it does) would overtake A.
  const auto [source, tag] = GetParam();
  std::atomic<bool> first_done{false};
  run2([source, tag, &first_done](int rank) {
    if (rank == 0) {
      const int a = 1, b = 2;
      MPI_Send(&a, 1, MPI_INT, 1, 1, MPI_COMM_WORLD);
      sysmpi::Mailbox &box = sysmpi::this_rank().world->mailbox(1);
      while (!first_done.load() && box.posted_receives() == 0) {
        std::this_thread::yield();
      }
      MPI_Send(&b, 1, MPI_INT, 1, 1, MPI_COMM_WORLD);
      return;
    }
    await_queued(0, 1);
    int x = 0;
    MPI_Recv(&x, 1, MPI_INT, source, tag, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
    first_done.store(true);
    ASSERT_EQ(x, 1); // stop here on failure: A would never be taken
    MPI_Recv(&x, 1, MPI_INT, source, tag, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
    EXPECT_EQ(x, 2);
  });
}

INSTANTIATE_TEST_SUITE_P(Keys, NoOvertaking,
                         ::testing::Values(RecvKey{0, 1},
                                           RecvKey{MPI_ANY_SOURCE, 1},
                                           RecvKey{0, MPI_ANY_TAG},
                                           RecvKey{MPI_ANY_SOURCE,
                                                   MPI_ANY_TAG}));

TEST(Transport, TwoBlockedThreadsOfOneRankEachGetOneMessage) {
  run2([](int rank) {
    if (rank == 0) {
      await_blocked(1, 2);
      const int a = 10, b = 20;
      MPI_Send(&a, 1, MPI_INT, 1, 4, MPI_COMM_WORLD);
      MPI_Send(&b, 1, MPI_INT, 1, 4, MPI_COMM_WORLD);
      return;
    }
    MPI_Comm comm = MPI_COMM_WORLD;
    int got[2] = {0, 0};
    std::vector<std::thread> threads;
    for (int &slot : got) {
      threads.emplace_back([comm, &slot] {
        MPI_Recv(&slot, 1, MPI_INT, 0, 4, comm, MPI_STATUS_IGNORE);
      });
    }
    for (std::thread &t : threads) {
      t.join();
    }
    std::sort(std::begin(got), std::end(got));
    EXPECT_EQ(got[0], 10);
    EXPECT_EQ(got[1], 20);
    EXPECT_EQ(sysmpi::this_rank().world->mailbox(1).posted_receives(), 0u);
  });
}

/// Send case for the pricing comparison: message size, whether the send
/// type is strided, and where the receive buffer lives.
struct WireCase {
  std::size_t bytes;
  bool strided_send;
  vcuda::MemorySpace recv_space;
};

class BlockedVersusQueued : public ::testing::TestWithParam<WireCase> {};

TEST_P(BlockedVersusQueued, SameBytesAndVirtualTimes) {
  // Whether the receive is already blocked (bytes written in place) or the
  // message waits in the queue (staged) changes no byte and no virtual
  // time at either end.
  const WireCase wc = GetParam();
  struct Outcome {
    std::vector<std::byte> data;
    vcuda::VirtualNs send_done = 0, recv_done = 0;
  };
  const auto run = [&wc](bool blocked) {
    Outcome out;
    run2([&](int rank) {
      const int ints = static_cast<int>(wc.bytes / sizeof(int));
      MPI_Datatype type = MPI_INT;
      int count = ints;
      if (wc.strided_send) {
        MPI_Type_vector(ints, 1, 2, MPI_INT, &type);
        MPI_Type_commit(&type);
        count = 1;
      }
      if (rank == 0) {
        std::vector<int> src(static_cast<std::size_t>(2 * ints));
        fill_pattern(src.data(), src.size() * sizeof(int), 8);
        if (blocked) {
          await_blocked(1);
        }
        ASSERT_EQ(MPI_Send(src.data(), count, type, 1, 6, MPI_COMM_WORLD),
                  MPI_SUCCESS);
        out.send_done = vcuda::virtual_now();
      } else {
        SpaceBuffer dst(wc.recv_space, wc.bytes);
        if (!blocked) {
          await_queued(0, 6);
        }
        ASSERT_EQ(MPI_Recv(dst.get(), ints, MPI_INT, 0, 6, MPI_COMM_WORLD,
                           MPI_STATUS_IGNORE),
                  MPI_SUCCESS);
        out.recv_done = vcuda::virtual_now();
        out.data.assign(dst.bytes(), dst.bytes() + wc.bytes);
      }
      if (wc.strided_send) {
        MPI_Type_free(&type);
      }
    });
    return out;
  };
  const Outcome queued = run(false);
  const Outcome blocked = run(true);
  EXPECT_EQ(blocked.data, queued.data);
  EXPECT_EQ(blocked.send_done, queued.send_done);
  EXPECT_EQ(blocked.recv_done, queued.recv_done);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, BlockedVersusQueued,
    ::testing::Values(
        WireCase{4096, false, vcuda::MemorySpace::Pageable},
        WireCase{4096, false, vcuda::MemorySpace::Device},
        WireCase{4096, true, vcuda::MemorySpace::Pageable},
        WireCase{4096, true, vcuda::MemorySpace::Device},
        WireCase{1 << 20, false, vcuda::MemorySpace::Device},
        WireCase{1 << 20, true, vcuda::MemorySpace::Pageable}));

} // namespace
