// `p2p`: two ranks on two virtual nodes. Rank 0 times ping-pong round
// trips of seeded strided device objects, alternating blocking Send/Recv,
// Isend/Irecv + Waitall and persistent Send_init/Recv_init + Start/Wait.
// This is the workload where interpose, handle lookup, model choice,
// leases, methods and the request engine dominate.
#include "workloads.hpp"

#include "interpose/table.hpp"
#include "sysmpi/world.hpp"
#include "tempi/tempi.hpp"

#include <cmath>
#include <cstring>
#include <optional>

namespace perfbench {

namespace {

enum class Mode { Blocking = 0, Nonblocking = 1, Persistent = 2 };
constexpr int kModes = 3;
constexpr int kTagBlocking = 1;
constexpr int kTagNonblocking = 2;
constexpr int kTagPersistent = 100; // + shape index

/// One shape per log-uniform size stratum over 1 KiB - 4 MiB, blocks of
/// 8 - 256 B and the three strided kinds cycling with the stratum.
std::vector<ShapeSpec> p2p_specs(const Options &opt) {
  Rng rng(opt.seed ^ 0x70327032ULL);
  const int n = opt.tiny ? 6 : 32;
  const double hi = opt.tiny ? 32768.0 : 4194304.0;
  std::vector<ShapeSpec> specs;
  for (int i = 0; i < n; ++i) {
    // Kinds and blocks follow the stratum, the same for every seed.
    const auto kind = static_cast<ShapeKind>((i + i / 6) % 3);
    const long long block = 8LL << (i % 6);
    specs.push_back(
        strided_spec(kind, stratified_bytes(i, n, 1024.0, hi, rng), block, rng));
  }
  return specs;
}

/// Expected hash of rank 0's receive buffer after a round trip of each
/// shape: the background with the object's bytes replaced by the source's,
/// as the system MPI's own pack/unpack produces it on host copies.
std::optional<std::vector<std::uint64_t>> g_expected;

std::vector<std::uint64_t> expected_hashes(const std::vector<Shape> &shapes,
                                           const void *src,
                                           const void *background,
                                           std::size_t max_extent,
                                           std::size_t max_size) {
  const interpose::MpiTable &sys = interpose::system_table();
  std::vector<unsigned char> packed(max_size), dst(max_extent);
  std::vector<std::uint64_t> out;
  for (const Shape &sh : shapes) {
    int pos = 0;
    sys.Pack(src, 1, sh.type, packed.data(), static_cast<int>(sh.size), &pos,
             MPI_COMM_WORLD);
    std::memcpy(dst.data(), background, static_cast<std::size_t>(sh.extent));
    pos = 0;
    sys.Unpack(packed.data(), static_cast<int>(sh.size), &pos, dst.data(), 1,
               sh.type, MPI_COMM_WORLD);
    out.push_back(hash_bytes(dst.data(), static_cast<std::size_t>(sh.extent)));
  }
  return out;
}

} // namespace

void run_p2p(const Options &opt, const Plan &plan, Probe &probe,
             SessionResult &res) {
  Failures fails;
  Team team(2);
  std::vector<double> auto_us, best_forced_us;
  // Per rank, one flag per round trip (warm-up included): 1 if it failed.
  std::vector<std::vector<char>> bad(2);
  // Rank 1's CPU time per timed round trip: in a ping-pong both ranks'
  // work lies on the critical path, so an op's host time is the sum.
  std::vector<double> echo_cpu_us;
  sysmpi::RunConfig rc;
  rc.ranks = 2;
  rc.ranks_per_node = 1;
  sysmpi::run_ranks(rc, [&](int rank) {
    MPI_Init(nullptr, nullptr);
    const int peer = 1 - rank;
    std::vector<Shape> shapes;
    // Buffers are sized for the largest object any seed can draw, so the
    // footprint does not depend on the seed.
    std::size_t max_extent = opt.tiny ? std::size_t{128} << 10
                                      : std::size_t{9} << 20;
    std::size_t max_size = 0;
    double payload_sum = 0.0;
    for (const ShapeSpec &spec : p2p_specs(opt)) {
      shapes.push_back(commit_shape(spec));
      max_extent = std::max(max_extent, static_cast<std::size_t>(shapes.back().extent));
      max_size = std::max(max_size, static_cast<std::size_t>(shapes.back().size));
      payload_sum += static_cast<double>(shapes.back().size);
    }
    // Rank 0 sends from `src` and receives the echo into `dst`; rank 1
    // receives into and echoes from `dst`. Each op ends by restoring `dst`
    // to the background, so an op that silently moved nothing fails.
    void *src = nullptr, *dst = nullptr;
    vcuda::Malloc(&src, max_extent);
    vcuda::Malloc(&dst, max_extent);
    std::vector<unsigned char> background(max_extent);
    fill_pattern(src, max_extent, opt.seed);
    fill_pattern(background.data(), max_extent, ~opt.seed + static_cast<std::uint64_t>(rank));
    std::memcpy(dst, background.data(), max_extent);

    std::vector<MPI_Request> psend(shapes.size(), MPI_REQUEST_NULL);
    std::vector<MPI_Request> precv(shapes.size(), MPI_REQUEST_NULL);
    for (std::size_t i = 0; i < shapes.size(); ++i) {
      const int tag = kTagPersistent + static_cast<int>(i);
      const void *from = rank == 0 ? src : dst;
      MPI_Send_init(from, 1, shapes[i].type, peer, tag, MPI_COMM_WORLD, &psend[i]);
      MPI_Recv_init(dst, 1, shapes[i].type, peer, tag, MPI_COMM_WORLD, &precv[i]);
    }
    if (rank == 0) {
      res.working_set_bytes = static_cast<double>(2 * 2 * max_extent);
      // Per round trip and direction: pack reads and writes the payload,
      // unpack reads and writes it again.
      res.computed_bytes_per_op =
          8.0 * payload_sum / static_cast<double>(shapes.size());
    }

    team.sync();
    if (rank == 0) {
      probe.exclude_begin();
      if (!g_expected) {
        std::vector<unsigned char> host_src(max_extent);
        std::memcpy(host_src.data(), src, max_extent);
        g_expected = expected_hashes(shapes, host_src.data(),
                                     background.data(), max_extent, max_size);
      }
      probe.exclude_end();
    }
    team.sync();

    long long op_index = 0; // rank 0's timed ops
    // One round trip of shape i in `mode`; returns rank 0's virtual us.
    const auto round_trip = [&](std::size_t i, Mode mode, bool timed) {
      const Shape &sh = shapes[i];
      MPI_Datatype t = sh.type;
      const std::size_t extent = static_cast<std::size_t>(sh.extent);
      MPI_Status st{};
      int rcs[4] = {MPI_SUCCESS, MPI_SUCCESS, MPI_SUCCESS, MPI_SUCCESS};
      const std::uint64_t h0 = host_ns();
      const std::uint64_t c0 = thread_cpu_ns();
      const vcuda::VirtualNs v0 = vcuda::virtual_now();
      if (rank == 0) {
        switch (mode) {
        case Mode::Blocking:
          rcs[0] = MPI_Send(src, 1, t, 1, kTagBlocking, MPI_COMM_WORLD);
          rcs[1] = MPI_Recv(dst, 1, t, 1, kTagBlocking, MPI_COMM_WORLD, &st);
          break;
        case Mode::Nonblocking: {
          MPI_Request r[2] = {MPI_REQUEST_NULL, MPI_REQUEST_NULL};
          MPI_Status sts[2];
          rcs[0] = MPI_Irecv(dst, 1, t, 1, kTagNonblocking, MPI_COMM_WORLD, &r[0]);
          rcs[1] = MPI_Isend(src, 1, t, 1, kTagNonblocking, MPI_COMM_WORLD, &r[1]);
          rcs[2] = MPI_Waitall(2, r, sts);
          st = sts[0];
          break;
        }
        case Mode::Persistent:
          rcs[0] = MPI_Start(&precv[i]);
          rcs[1] = MPI_Start(&psend[i]);
          rcs[2] = MPI_Wait(&psend[i], MPI_STATUS_IGNORE);
          rcs[3] = MPI_Wait(&precv[i], &st);
          break;
        }
      } else {
        switch (mode) {
        case Mode::Blocking:
          rcs[0] = MPI_Recv(dst, 1, t, 0, kTagBlocking, MPI_COMM_WORLD, &st);
          rcs[1] = MPI_Send(dst, 1, t, 0, kTagBlocking, MPI_COMM_WORLD);
          break;
        case Mode::Nonblocking: {
          MPI_Request r = MPI_REQUEST_NULL;
          rcs[0] = MPI_Irecv(dst, 1, t, 0, kTagNonblocking, MPI_COMM_WORLD, &r);
          rcs[1] = MPI_Wait(&r, &st);
          rcs[2] = MPI_Isend(dst, 1, t, 0, kTagNonblocking, MPI_COMM_WORLD, &r);
          rcs[3] = MPI_Wait(&r, MPI_STATUS_IGNORE);
          break;
        }
        case Mode::Persistent:
          rcs[0] = MPI_Start(&precv[i]);
          rcs[1] = MPI_Wait(&precv[i], &st);
          rcs[2] = MPI_Start(&psend[i]);
          rcs[3] = MPI_Wait(&psend[i], MPI_STATUS_IGNORE);
          break;
        }
      }
      const vcuda::VirtualNs v1 = vcuda::virtual_now();
      const std::uint64_t c1 = thread_cpu_ns();
      const std::uint64_t h1 = host_ns();
      if (rank == 0 && timed && op_index++ == opt.corrupt_op) {
        static_cast<unsigned char *>(dst)[extent / 2] ^= 0x5a;
      }

      const char *wrong = nullptr;
      int count = -1;
      for (const int r : rcs) {
        if (r != MPI_SUCCESS) {
          wrong = "MPI error";
        }
      }
      if (wrong == nullptr &&
          (MPI_Get_count(&st, t, &count) != MPI_SUCCESS || count != 1)) {
        wrong = "MPI_Get_count does not match the sent object";
      }
      if (wrong == nullptr && rank == 0 &&
          hash_bytes(dst, extent) != (*g_expected)[i]) {
        wrong = "received object differs from the seeded fill";
      }
      if (wrong != nullptr) {
        fails.add(std::string(wrong) + " (rank " + std::to_string(rank) +
                  ", mode " + std::to_string(static_cast<int>(mode)) + ", " +
                  std::to_string(sh.size) + " B)");
      }
      bad[static_cast<std::size_t>(rank)].push_back(wrong != nullptr ? 1 : 0);
      std::memcpy(dst, background.data(), extent);
      if (timed && rank == 0) {
        res.ops.push_back({static_cast<float>(static_cast<double>(c1 - c0) * 1e-3),
                           static_cast<float>(static_cast<double>(h1 - h0) * 1e-3),
                           v1 - v0, static_cast<std::uint64_t>(2 * sh.size)});
      } else if (timed) {
        echo_cpu_us.push_back(static_cast<double>(c1 - c0) * 1e-3);
      }
      return vcuda::ns_to_us(v1 - v0);
    };

    // A pass gives every shape every mode once; consecutive round trips
    // alternate modes.
    const std::size_t n = shapes.size();
    const auto pass = [&](bool timed) {
      for (std::size_t j = 0; j < kModes * n; ++j) {
        const std::size_t i = j % n;
        round_trip(i, static_cast<Mode>((j + j / n) % kModes), timed);
      }
    };

    pass(false); // warm-up
    team.sync();
    if (rank == 0) {
      probe.setup_done(res);
    }

    if (plan.loop_seconds > 0.0) {
      if (rank == 0) {
        probe.loop_begin();
      }
      team.sync();
      probe.rank_loop_begin(rank);
      const std::uint64_t deadline =
          host_ns() + static_cast<std::uint64_t>(plan.loop_seconds * 1e9);
      bool more = true;
      while (more) {
        pass(true);
        team.sync();
        if (rank == 0) {
          res.pass_ends.push_back(res.ops.size());
          res.device_mb.push_back(device_mb_now());
          probe.drain();
        }
        more = team.agree(host_ns() < deadline, rank);
      }
      probe.rank_loop_end(rank);
      team.sync();
      if (rank == 0) {
        probe.loop_end();
      }

      if (plan.traced) {
        // Auto against each forced method, blocking round trips only. All
        // auto round trips run before any forced one, so forced samples
        // cannot feed auto's choices.
        const tempi::SendMode modes[] = {
            tempi::SendMode::Auto, tempi::SendMode::ForceOneShot,
            tempi::SendMode::ForceDevice, tempi::SendMode::ForceStaged};
        std::vector<std::vector<double>> us(4, std::vector<double>(n));
        for (int m = 0; m < 4; ++m) {
          if (rank == 0) {
            tempi::set_send_mode(modes[m]);
          }
          team.sync();
          for (std::size_t i = 0; i < n; ++i) {
            round_trip(i, Mode::Blocking, false);
            us[static_cast<std::size_t>(m)][i] =
                round_trip(i, Mode::Blocking, false);
          }
          team.sync();
        }
        if (rank == 0) {
          tempi::set_send_mode(tempi::SendMode::Auto);
          for (std::size_t i = 0; i < n; ++i) {
            auto_us.push_back(us[0][i]);
            best_forced_us.push_back(
                std::min({us[1][i], us[2][i], us[3][i]}));
          }
        }
        team.sync();
      }
    }

    for (std::size_t i = 0; i < shapes.size(); ++i) {
      MPI_Request_free(&psend[i]);
      MPI_Request_free(&precv[i]);
    }
    vcuda::Free(src);
    vcuda::Free(dst);
    for (Shape &sh : shapes) {
      free_shape(sh);
    }
    MPI_Finalize();
  });
  for (std::size_t i = 0; i < res.ops.size() && i < echo_cpu_us.size(); ++i) {
    res.ops[i].host_us += static_cast<float>(echo_cpu_us[i]);
  }
  // Failure messages come from both ranks; the count is per round trip.
  fails.move_into(res);
  res.attempted = bad[0].size();
  for (std::size_t i = 0; i < bad[0].size(); ++i) {
    res.failed += (bad[0][i] != 0 || bad[1][i] != 0) ? 1 : 0;
  }
  if (!auto_us.empty()) {
    double log_sum = 0.0;
    for (std::size_t i = 0; i < auto_us.size(); ++i) {
      log_sum += std::log(auto_us[i] / best_forced_us[i]);
    }
    res.layers["tempi.perf_model.auto_over_best"] =
        std::exp(log_sum / static_cast<double>(auto_us.size()));
  }
}

} // namespace perfbench
