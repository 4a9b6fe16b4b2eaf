// `halo`: four ranks on two virtual nodes (2 ranks per node), a 2x2x1
// periodic grid, using the examples/halo Exchanger. One op is one
// iteration: exchange() (26 MPI_Pack, MPI_Neighbor_alltoallv, 26
// MPI_Unpack) then residual_norm() (MPI_Allreduce). An iteration's time is
// the maximum across ranks. The only workload that drives collectives,
// topology, reduce and four contending rank threads.
#include "workloads.hpp"

#include "halo/halo.hpp"
#include "sysmpi/world.hpp"

#include <cmath>
#include <cstring>

namespace perfbench {

namespace {

constexpr int kIterationsPerPass = 16;
constexpr double kGhostPoison = -1.0;

halo::Config halo_config(const Options &opt) {
  halo::Config cfg;
  cfg.nx = cfg.ny = cfg.nz = opt.tiny ? 6 : 16;
  // The seed also draws the brick depth (16 or 17 points), so the modeled
  // times are inputs of the run too; one point moves virt_us_p50 by 0.2%.
  cfg.nz += static_cast<int>(Rng(opt.seed ^ 0x68616c6fULL).next() & 1);
  cfg.vals = 8;
  cfg.radius = 3;
  cfg.px = 2;
  cfg.py = 2;
  cfg.pz = 1;
  return cfg;
}

/// The seeded field: a small integer per global gridpoint value, so every
/// square and every partial sum is exact in double and the residual has a
/// closed form regardless of summation order.
double field(std::uint64_t seed, long long gidx) {
  Rng rng(seed ^ (static_cast<std::uint64_t>(gidx) * 0x9e3779b97f4a7c15ULL));
  return static_cast<double>(rng.next() % 251);
}

struct Expected {
  std::vector<double> grid;   ///< interior and ghosts, as after an exchange
  std::vector<double> poison; ///< interior, ghosts overwritten
};

/// The rank at Cartesian position `crank` owns global bricks by the
/// row-major convention (x fastest); ghost values wrap periodically.
Expected expected_grid(const halo::Config &c, int crank, std::uint64_t seed) {
  const int cx = crank % c.px, cy = (crank / c.px) % c.py,
            cz = crank / (c.px * c.py);
  const int r = c.radius;
  const long long GX = static_cast<long long>(c.px) * c.nx,
                  GY = static_cast<long long>(c.py) * c.ny,
                  GZ = static_cast<long long>(c.pz) * c.nz;
  const int X = c.nx + 2 * r, Y = c.ny + 2 * r, Z = c.nz + 2 * r;
  const auto wrap = [](long long v, long long n) { return ((v % n) + n) % n; };
  Expected e;
  e.grid.resize(static_cast<std::size_t>(X) * Y * Z * c.vals);
  e.poison.resize(e.grid.size());
  std::size_t at = 0;
  for (int z = 0; z < Z; ++z) {
    for (int y = 0; y < Y; ++y) {
      for (int x = 0; x < X; ++x) {
        const bool ghost = z < r || z >= c.nz + r || y < r || y >= c.ny + r ||
                           x < r || x >= c.nx + r;
        const long long gz = wrap(static_cast<long long>(cz) * c.nz + z - r, GZ);
        const long long gy = wrap(static_cast<long long>(cy) * c.ny + y - r, GY);
        const long long gx = wrap(static_cast<long long>(cx) * c.nx + x - r, GX);
        for (int v = 0; v < c.vals; ++v, ++at) {
          const double f = field(seed, ((gz * GY + gy) * GX + gx) * c.vals + v);
          e.grid[at] = f;
          e.poison[at] = ghost ? kGhostPoison : f;
        }
      }
    }
  }
  return e;
}

/// sqrt of the sum of squares over every global interior value.
double closed_form_residual(const halo::Config &c, std::uint64_t seed) {
  const long long n = static_cast<long long>(c.px) * c.nx * c.py * c.ny *
                      c.pz * c.nz * c.vals;
  std::uint64_t sum = 0;
  for (long long g = 0; g < n; ++g) {
    const auto f = static_cast<std::uint64_t>(field(seed, g));
    sum += f * f;
  }
  return std::sqrt(static_cast<double>(sum));
}

} // namespace

void run_halo(const Options &opt, const Plan &plan, Probe &probe,
              SessionResult &res) {
  const halo::Config cfg = halo_config(opt);
  const int ranks = cfg.ranks();
  Failures fails;
  Team team(ranks);
  // Per rank, the current pass's samples; rank 0 folds them into res.ops
  // at every pass end (an iteration takes as long as its slowest rank).
  std::vector<std::vector<OpSample>> per_rank(static_cast<std::size_t>(ranks));
  std::vector<double> rank_cpu_us(static_cast<std::size_t>(ranks), 0.0);
  // Per rank, one flag per iteration (warm-up included): 1 if it failed.
  std::vector<std::vector<char>> bad(static_cast<std::size_t>(ranks));
  double residual = 0.0;
  sysmpi::RunConfig rc;
  rc.ranks = ranks;
  rc.ranks_per_node = 2;
  sysmpi::run_ranks(rc, [&](int rank) {
    MPI_Init(nullptr, nullptr);
    void *grid = nullptr;
    vcuda::Malloc(&grid, cfg.grid_bytes());
    {
      halo::Exchanger ex(cfg, MPI_COMM_WORLD);
      team.sync();
      if (rank == 0) {
        probe.exclude_begin();
        residual = closed_form_residual(cfg, opt.seed);
      }
      const Expected expect = expected_grid(cfg, ex.rank(), opt.seed);
      team.sync();
      if (rank == 0) {
        probe.exclude_end();
        res.working_set_bytes =
            static_cast<double>(ranks) *
            static_cast<double>(cfg.grid_bytes() + 2 * ex.halo_bytes());
        // Every rank packs and unpacks its halo once: each reads and
        // writes the halo bytes.
        res.computed_bytes_per_op =
            4.0 * static_cast<double>(ranks) *
            static_cast<double>(ex.halo_bytes());
      }
      // Halo bytes all ranks ship per iteration.
      const std::uint64_t payload =
          static_cast<std::uint64_t>(ranks) * ex.halo_bytes();
      std::memcpy(grid, expect.poison.data(), cfg.grid_bytes());

      long long op_index = 0;
      const auto iteration = [&](bool timed) {
        const std::uint64_t h0 = host_ns();
        const std::uint64_t c0 = thread_cpu_ns();
        const vcuda::VirtualNs v0 = vcuda::virtual_now();
        ex.exchange(grid);
        const double norm = ex.residual_norm(grid);
        const vcuda::VirtualNs v1 = vcuda::virtual_now();
        const std::uint64_t c1 = thread_cpu_ns();
        const std::uint64_t h1 = host_ns();
        if (rank == 0 && timed && op_index++ == opt.corrupt_op) {
          static_cast<double *>(grid)[0] += 1.0; // a corner ghost cell
        }
        const char *wrong = nullptr;
        if (std::memcmp(grid, expect.grid.data(), cfg.grid_bytes()) != 0) {
          wrong = "ghost cells differ from the neighbours' values";
        } else if (norm != residual) {
          wrong = "residual differs from its closed form";
        }
        if (wrong != nullptr) {
          fails.add(std::string(wrong) + " (rank " + std::to_string(rank) + ")");
        }
        bad[static_cast<std::size_t>(rank)].push_back(wrong != nullptr ? 1 : 0);
        std::memcpy(grid, expect.poison.data(), cfg.grid_bytes());
        if (timed) {
          const double cpu_us = static_cast<double>(c1 - c0) * 1e-3;
          rank_cpu_us[static_cast<std::size_t>(rank)] += cpu_us;
          per_rank[static_cast<std::size_t>(rank)].push_back(
              {static_cast<float>(cpu_us),
               static_cast<float>(static_cast<double>(h1 - h0) * 1e-3),
               v1 - v0, payload});
        }
      };

      for (int i = 0; i < 3; ++i) { // warm-up
        iteration(false);
      }
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
          for (int i = 0; i < kIterationsPerPass; ++i) {
            iteration(true);
          }
          team.sync();
          if (rank == 0) {
            for (int i = 0; i < kIterationsPerPass; ++i) {
              OpSample op = per_rank[0][static_cast<std::size_t>(i)];
              for (const std::vector<OpSample> &mine : per_rank) {
                const OpSample &s = mine[static_cast<std::size_t>(i)];
                op.host_us = std::max(op.host_us, s.host_us);
                op.wall_us = std::max(op.wall_us, s.wall_us);
                op.virt_ns = std::max(op.virt_ns, s.virt_ns);
              }
              res.ops.push_back(op);
            }
            for (std::vector<OpSample> &mine : per_rank) {
              mine.clear();
            }
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
      }
    }
    vcuda::Free(grid);
    MPI_Finalize();
  });
  // Failure messages come from every rank; the count is per iteration.
  fails.move_into(res);
  res.attempted = bad[0].size();
  for (std::size_t i = 0; i < bad[0].size(); ++i) {
    bool any = false;
    for (const std::vector<char> &b : bad) {
      any = any || b[i] != 0;
    }
    res.failed += any ? 1 : 0;
  }

  if (plan.traced && !res.ops.empty()) {
    res.layers["halo.rank_skew"] =
        *std::max_element(rank_cpu_us.begin(), rank_cpu_us.end()) /
        *std::min_element(rank_cpu_us.begin(), rank_cpu_us.end());
  }
}

} // namespace perfbench
