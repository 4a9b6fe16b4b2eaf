// `pack`: one rank, one thread. MPI_Pack then MPI_Unpack of one object on
// device buffers, over a seeded set of committed types. Kernels,
// strided_block and commit do nearly all the work; there is no wire, no
// model choice, no request engine and no lock traffic.
#include "workloads.hpp"

#include "interpose/table.hpp"
#include "sysmpi/world.hpp"

#include <cstring>
#include <optional>

namespace perfbench {

namespace {

/// The seeded type set: a (size stratum x block size) grid of strided
/// shapes, plus a ~5% share of small irregular shapes that leave the fast
/// path.
std::vector<ShapeSpec> pack_specs(const Options &opt) {
  Rng rng(opt.seed ^ 0x7061636bULL);
  const int strata = opt.tiny ? 4 : 16;
  const double hi = opt.tiny ? 16384.0 : 4194304.0;
  const std::vector<long long> blocks =
      opt.tiny ? std::vector<long long>{1, 8, 64}
               : std::vector<long long>{1, 2, 4, 8, 16, 32, 64, 128, 256};
  std::vector<ShapeSpec> specs;
  for (int i = 0; i < strata; ++i) {
    for (std::size_t j = 0; j < blocks.size(); ++j) {
      // Kinds rotate over the grid, the same for every seed, so the seed
      // moves sizes, pitches and splits within a cell but not the mix.
      const auto kind = static_cast<ShapeKind>((i + static_cast<int>(j)) % 3);
      const long long block = blocks[j];
      const long long bytes = stratified_bytes(i, strata, 1024.0, hi, rng);
      specs.push_back(strided_spec(kind, bytes, block, rng));
    }
  }
  const int irregular = opt.tiny ? 2 : 8;
  for (int i = 0; i < irregular; ++i) {
    specs.push_back(irregular_spec(
        i % 2 == 0 ? ShapeKind::Indexed : ShapeKind::Struct, 8 + 3 * i, rng));
  }
  // The op order within a pass is the same for every seed: each op's host
  // time depends on what the previous op left in the caches.
  return specs;
}

std::size_t capacity_bytes(const Options &opt) {
  return opt.tiny ? std::size_t{64} << 10 : std::size_t{9} << 20;
}

/// Oracle hashes per shape: the packed bytes and the unpacked extent, both
/// produced by the system MPI on host copies of the same inputs. Computed
/// in the first session of a process and reused by the later ones.
struct Oracle {
  std::vector<std::uint64_t> packed;
  std::vector<std::uint64_t> unpacked;
};
std::optional<Oracle> g_oracle;

Oracle compute_oracle(const std::vector<Shape> &shapes, const void *src,
                      const void *background, std::size_t max_extent,
                      std::size_t max_size) {
  const interpose::MpiTable &sys = interpose::system_table();
  std::vector<unsigned char> packed(max_size), dst(max_extent);
  Oracle o;
  for (const Shape &sh : shapes) {
    int pos = 0;
    sys.Pack(src, 1, sh.type, packed.data(), static_cast<int>(sh.size), &pos,
             MPI_COMM_WORLD);
    o.packed.push_back(hash_bytes(packed.data(), static_cast<std::size_t>(sh.size)));
    std::memcpy(dst.data(), background, static_cast<std::size_t>(sh.extent));
    pos = 0;
    sys.Unpack(packed.data(), static_cast<int>(sh.size), &pos, dst.data(), 1,
               sh.type, MPI_COMM_WORLD);
    o.unpacked.push_back(
        hash_bytes(dst.data(), static_cast<std::size_t>(sh.extent)));
  }
  return o;
}

} // namespace

void run_pack(const Options &opt, const Plan &plan, Probe &probe,
              SessionResult &res) {
  Failures fails;
  sysmpi::RunConfig rc;
  rc.ranks = 1;
  rc.ranks_per_node = 1;
  sysmpi::run_ranks(rc, [&](int) {
    MPI_Init(nullptr, nullptr);
    std::vector<Shape> shapes;
    // Buffers are sized for the largest object any seed can draw, so the
    // footprint does not depend on the seed.
    std::size_t max_extent = capacity_bytes(opt), max_size = 0;
    double payload_sum = 0.0;
    for (const ShapeSpec &spec : pack_specs(opt)) {
      shapes.push_back(commit_shape(spec));
      max_extent = std::max(max_extent, static_cast<std::size_t>(shapes.back().extent));
      max_size = std::max(max_size, static_cast<std::size_t>(shapes.back().size));
      payload_sum += static_cast<double>(shapes.back().size);
    }
    void *src = nullptr, *dst = nullptr, *packed = nullptr;
    vcuda::Malloc(&src, max_extent);
    vcuda::Malloc(&dst, max_extent);
    vcuda::Malloc(&packed, max_size);
    std::vector<unsigned char> background(max_extent);
    fill_pattern(src, max_extent, opt.seed);
    fill_pattern(background.data(), max_extent, ~opt.seed);
    std::memcpy(dst, background.data(), max_extent);
    res.working_set_bytes = static_cast<double>(3 * max_extent + max_size);
    // Pack reads and writes the payload once each; so does Unpack.
    res.computed_bytes_per_op =
        4.0 * payload_sum / static_cast<double>(shapes.size());

    probe.exclude_begin();
    if (!g_oracle) {
      std::vector<unsigned char> host_src(max_extent);
      std::memcpy(host_src.data(), src, max_extent);
      g_oracle = compute_oracle(shapes, host_src.data(), background.data(),
                                max_extent, max_size);
    }
    probe.exclude_end();
    const Oracle &oracle = *g_oracle;

    long long op_index = 0; // timed ops only
    const auto op = [&](std::size_t i, bool timed) {
      const Shape &sh = shapes[i];
      const int size = static_cast<int>(sh.size);
      const std::size_t extent = static_cast<std::size_t>(sh.extent);
      int pos = 0, upos = 0;
      const std::uint64_t h0 = host_ns();
      const std::uint64_t c0 = thread_cpu_ns();
      const vcuda::VirtualNs v0 = vcuda::virtual_now();
      const int rc_pack =
          MPI_Pack(src, 1, sh.type, packed, size, &pos, MPI_COMM_WORLD);
      const int rc_unpack =
          MPI_Unpack(packed, size, &upos, dst, 1, sh.type, MPI_COMM_WORLD);
      const vcuda::VirtualNs v1 = vcuda::virtual_now();
      const std::uint64_t c1 = thread_cpu_ns();
      const std::uint64_t h1 = host_ns();
      if (timed && op_index++ == opt.corrupt_op) {
        static_cast<unsigned char *>(dst)[extent / 2] ^= 0x5a;
      }
      ++res.attempted;
      const char *bad = nullptr;
      if (rc_pack != MPI_SUCCESS || rc_unpack != MPI_SUCCESS) {
        bad = "MPI error";
      } else if (pos != size || upos != size) {
        bad = "wrong position";
      } else if (hash_bytes(packed, static_cast<std::size_t>(size)) !=
                 oracle.packed[i]) {
        bad = "packed bytes differ from the system MPI";
      } else if (hash_bytes(dst, extent) != oracle.unpacked[i]) {
        bad = "unpack did not restore the source";
      }
      if (bad != nullptr) {
        ++res.failed;
        fails.add(std::string(bad) + " (" + shape_kind_name(sh.spec.kind) +
                  ", " + std::to_string(size) + " B)");
      }
      std::memcpy(dst, background.data(), extent);
      if (timed) {
        res.ops.push_back({static_cast<float>(static_cast<double>(c1 - c0) * 1e-3),
                           static_cast<float>(static_cast<double>(h1 - h0) * 1e-3),
                           v1 - v0, static_cast<std::uint64_t>(size)});
      }
    };

    for (std::size_t i = 0; i < shapes.size(); ++i) { // warm-up pass
      op(i, false);
    }
    probe.setup_done(res);

    if (plan.loop_seconds > 0.0) {
      probe.loop_begin();
      probe.rank_loop_begin(0);
      const std::uint64_t deadline =
          host_ns() + static_cast<std::uint64_t>(plan.loop_seconds * 1e9);
      do {
        for (std::size_t i = 0; i < shapes.size(); ++i) {
          op(i, true);
        }
        res.pass_ends.push_back(res.ops.size());
        res.device_mb.push_back(device_mb_now());
        probe.drain();
      } while (host_ns() < deadline);
      probe.rank_loop_end(0);
      probe.loop_end();
    }

    vcuda::Free(src);
    vcuda::Free(dst);
    vcuda::Free(packed);
    for (Shape &sh : shapes) {
      free_shape(sh);
    }
    MPI_Finalize();
  });
  fails.move_into(res);
}

} // namespace perfbench
