// Kernel geometry properties (Sec. 3.3) over randomized StridedBlocks:
// the power-of-two fill rule, the 1024-thread block limit, full coverage
// of the object, and word-size divisibility invariants. A differential
// test checks every pack/unpack/reduce kernel body byte for byte against
// a naive per-byte reference, run immediately and through graph replay.
#include "tempi/kernels.hpp"
#include "test_helpers.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <functional>
#include <random>
#include <vector>

namespace {

using tempi::StridedBlock;

StridedBlock random_block(std::mt19937 &gen) {
  std::uniform_int_distribution<int> dims_dist(1, 3);
  std::uniform_int_distribution<long long> block_dist(1, 2048);
  std::uniform_int_distribution<long long> count_dist(1, 600);
  std::uniform_int_distribution<long long> off_dist(0, 64);
  StridedBlock sb;
  const int dims = dims_dist(gen);
  sb.start = off_dist(gen);
  sb.counts.push_back(block_dist(gen));
  sb.strides.push_back(1);
  long long span = sb.counts[0];
  for (int d = 1; d < dims; ++d) {
    const long long count = count_dist(gen);
    const long long stride = span + off_dist(gen);
    sb.counts.push_back(count);
    sb.strides.push_back(stride);
    span = stride * count;
  }
  return sb;
}

class KernelGeometry : public ::testing::TestWithParam<unsigned> {};

TEST_P(KernelGeometry, InvariantsHold) {
  std::mt19937 gen(GetParam());
  for (int trial = 0; trial < 50; ++trial) {
    const StridedBlock sb = random_block(gen);
    const int w = tempi::select_word_size(sb);

    // Word size divides the contiguous block, the start, and all strides.
    EXPECT_EQ(sb.counts[0] % w, 0);
    EXPECT_EQ(sb.start % w, 0);
    for (std::size_t d = 1; d < sb.strides.size(); ++d) {
      EXPECT_EQ(sb.strides[d] % w, 0);
    }
    EXPECT_TRUE(w == 1 || w == 2 || w == 4 || w == 8 || w == 16);

    for (const int count : {1, 3}) {
      const vcuda::LaunchConfig cfg = tempi::make_launch_config(sb, w, count);
      // Block limit.
      EXPECT_LE(cfg.block.volume(), 1024ull);
      EXPECT_GE(cfg.block.volume(), 1ull);
      // Power-of-two dimensions.
      EXPECT_TRUE(std::has_single_bit(cfg.block.x));
      EXPECT_TRUE(std::has_single_bit(cfg.block.y));
      EXPECT_TRUE(std::has_single_bit(cfg.block.z));
      // The grid covers the object in every dimension.
      EXPECT_GE(static_cast<long long>(cfg.grid.x) * cfg.block.x * w,
                sb.counts[0]);
      if (sb.ndims() >= 2) {
        EXPECT_GE(static_cast<long long>(cfg.grid.y) * cfg.block.y,
                  sb.counts[1]);
      }
      if (sb.ndims() >= 3) {
        EXPECT_GE(static_cast<long long>(cfg.grid.z) * cfg.block.z,
                  sb.counts[2]);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelGeometry, ::testing::Range(1u, 9u));

TEST(KernelCostShape, PackReadsStridedUnpackWritesStrided) {
  StridedBlock sb;
  sb.counts = {32, 100};
  sb.strides = {1, 64};
  const auto pack = tempi::pack_cost(sb, 2, vcuda::MemorySpace::Device,
                                     vcuda::MemorySpace::Device);
  EXPECT_EQ(pack.total_bytes, 32u * 100u * 2u);
  EXPECT_EQ(pack.src.contiguous_bytes, 32u);
  EXPECT_FALSE(pack.src.is_write);
  EXPECT_EQ(pack.dst.contiguous_bytes, 0u);
  EXPECT_TRUE(pack.dst.is_write);

  const auto unpack = tempi::unpack_cost(sb, 2, vcuda::MemorySpace::Device,
                                         vcuda::MemorySpace::Device);
  EXPECT_EQ(unpack.dst.contiguous_bytes, 32u);
  EXPECT_TRUE(unpack.dst.is_write);
}

TEST(KernelCostShape, PinnedEndpointGovernsBothSides) {
  StridedBlock sb;
  sb.counts = {16, 8};
  sb.strides = {1, 32};
  const auto cost = tempi::pack_cost(sb, 1, vcuda::MemorySpace::Device,
                                     vcuda::MemorySpace::Pinned);
  EXPECT_EQ(cost.src.space, vcuda::MemorySpace::Pinned);
  EXPECT_EQ(cost.dst.space, vcuda::MemorySpace::Pinned);
}

TEST(KernelCostShape, ContiguousObjectHasNoStridedSide) {
  StridedBlock sb;
  sb.counts = {4096};
  sb.strides = {1};
  const auto cost = tempi::pack_cost(sb, 1, vcuda::MemorySpace::Device,
                                     vcuda::MemorySpace::Device);
  EXPECT_EQ(cost.src.contiguous_bytes, 0u);
  EXPECT_EQ(cost.dst.contiguous_bytes, 0u);
}

// --- differential kernel bodies ----------------------------------------------

using testing_helpers::fill_pattern;
using testing_helpers::SpaceBuffer;

/// Block sizes covering both row-copy tiers (powers of two up to 256 and
/// everything else) with word sizes 1 to 16.
constexpr long long kBlockBytes[] = {1,  2,  3,  4,   5,   8,   12,  16,  24,
                                     32, 48, 64, 100, 128, 256, 257, 1024};

struct DiffCase {
  StridedBlock sb;
  long long extent = 0;
  int count = 1;
};

/// A random canonical block: 1-6 dims, a few rows per dim (at most 64
/// blocks per object), gaps that make strides odd or aligned, and an
/// extent equal to or beyond the row grid.
DiffCase random_diff_case(std::mt19937 &gen) {
  std::uniform_int_distribution<int> dims_dist(1, 6);
  std::uniform_int_distribution<std::size_t> block_dist(
      0, std::size(kBlockBytes) - 1);
  std::uniform_int_distribution<long long> rows_dist(1, 4);
  std::uniform_int_distribution<long long> gap_dist(0, 2);
  std::uniform_int_distribution<long long> start_dist(0, 3);
  std::uniform_int_distribution<int> count_dist(1, 3);
  DiffCase c;
  StridedBlock &sb = c.sb;
  const long long block = kBlockBytes[block_dist(gen)];
  // Aligned or odd offsets: the word size follows the alignment.
  const long long align = gen() % 2 == 0 ? std::min(block, 16LL) : 1;
  sb.start = start_dist(gen) * align + (gen() % 2 == 0 ? 0 : 1);
  sb.counts.push_back(block);
  sb.strides.push_back(1);
  long long span = block;
  long long per_obj = 1;
  const int dims = dims_dist(gen);
  for (int d = 1; d < dims; ++d) {
    long long rows = rows_dist(gen);
    if (per_obj * rows > 64) {
      rows = 1;
    }
    per_obj *= rows;
    const long long stride = span + gap_dist(gen) * align + (gen() % 3 == 0);
    sb.counts.push_back(rows);
    sb.strides.push_back(stride);
    span = stride * rows;
  }
  c.extent = span + (gen() % 2 == 0
                         ? 0
                         : align * static_cast<long long>(1 + gen() % 4) +
                               (gen() % 3 == 0));
  c.count = count_dist(gen);
  return c;
}

long long blocks_per_object(const StridedBlock &sb) {
  long long n = 1;
  for (int d = 1; d < sb.ndims(); ++d) {
    n *= sb.counts[static_cast<std::size_t>(d)];
  }
  return n;
}

/// Object-side byte offset of global block g, decomposed from scratch.
long long ref_block_offset(const StridedBlock &sb, long long extent,
                           long long g) {
  const long long per = blocks_per_object(sb);
  long long rem = g % per;
  long long off = (g / per) * extent + sb.start;
  for (int d = 1; d < sb.ndims(); ++d) {
    const auto ud = static_cast<std::size_t>(d);
    off += (rem % sb.counts[ud]) * sb.strides[ud];
    rem /= sb.counts[ud];
  }
  return off;
}

/// Visit blocks [g0, g1) byte by byte: fn(object_byte, packed_byte) with
/// the packed index counted from g0.
void ref_for_each_byte(const StridedBlock &sb, long long extent, long long g0,
                       long long g1,
                       const std::function<void(long long, long long)> &fn) {
  const long long block = sb.block_bytes();
  for (long long g = g0; g < g1; ++g) {
    const long long off = ref_block_offset(sb, extent, g);
    for (long long b = 0; b < block; ++b) {
      fn(off + b, (g - g0) * block + b);
    }
  }
}

/// Runs one launch on a fresh stream, either immediately or captured into
/// a graph that is then replayed once.
vcuda::Error run_launch(bool via_graph,
                        const std::function<vcuda::Error(vcuda::StreamHandle)>
                            &launch,
                        const std::function<void()> &reset) {
  vcuda::StreamHandle stream = nullptr;
  EXPECT_EQ(vcuda::StreamCreate(&stream), vcuda::Error::Success);
  vcuda::Error e = vcuda::Error::Success;
  if (!via_graph) {
    e = launch(stream);
  } else {
    EXPECT_EQ(vcuda::GraphBeginCapture(stream), vcuda::Error::Success);
    e = launch(stream);
    vcuda::GraphHandle graph = nullptr;
    EXPECT_EQ(vcuda::GraphEndCapture(stream, &graph), vcuda::Error::Success);
    // Capture records without executing: reset the outputs so only the
    // replay can produce the expected bytes.
    reset();
    EXPECT_EQ(vcuda::GraphLaunch(graph, stream), vcuda::Error::Success);
    EXPECT_EQ(vcuda::GraphDestroy(graph), vcuda::Error::Success);
  }
  EXPECT_EQ(vcuda::StreamSynchronize(stream), vcuda::Error::Success);
  EXPECT_EQ(vcuda::StreamDestroy(stream), vcuda::Error::Success);
  return e;
}

std::string describe(const DiffCase &c) {
  std::string s = "start=" + std::to_string(c.sb.start) + " counts={";
  for (const long long v : c.sb.counts) {
    s += std::to_string(v) + ",";
  }
  s += "} strides={";
  for (const long long v : c.sb.strides) {
    s += std::to_string(v) + ",";
  }
  return s + "} extent=" + std::to_string(c.extent) +
         " count=" + std::to_string(c.count);
}

/// Checks every pack/unpack launch form of case `c` (whole object,
/// recompute-per-call, ranges, span table) byte for byte against the
/// per-byte reference, plus the span reduce when both sides are
/// word-aligned. `seed` fills the buffers; `gen` draws the random ranges
/// and span tables. Returns whether the reduce was checked.
bool check_kernel_bodies(const DiffCase &c, bool via_graph,
                         std::uint32_t seed, std::mt19937 &gen) {
  const StridedBlock &sb = c.sb;
  SCOPED_TRACE(describe(c));
  const tempi::PackPlan plan = tempi::make_pack_plan(sb, c.extent);
  const long long per = blocks_per_object(sb);
  const long long total = per * c.count;
  const long long block = sb.block_bytes();
  // Spans lay several object groups side by side: room for 3 groups.
  const long long group = c.extent * c.count;
  const auto obj_bytes = static_cast<std::size_t>(group * 3 + 64);
  const auto packed_bytes = static_cast<std::size_t>(total * block * 3 + 64);
  SpaceBuffer obj(vcuda::MemorySpace::Device, obj_bytes);
  SpaceBuffer packed(vcuda::MemorySpace::Device, packed_bytes);
  fill_pattern(obj.get(), obj_bytes, seed);
  std::vector<std::byte> obj_bg(obj.bytes(), obj.bytes() + obj_bytes);
  std::vector<std::byte> packed_bg(packed_bytes);
  fill_pattern(packed_bg.data(), packed_bytes, seed + 7919);
  const auto reset = [&] {
    std::memcpy(obj.get(), obj_bg.data(), obj_bytes);
    std::memcpy(packed.get(), packed_bg.data(), packed_bytes);
  };
  using Launch = std::function<vcuda::Error(vcuda::StreamHandle)>;
  // Blocks [g0, g0 + n * (g1 - g0)) of each span of n objects, byte by
  // byte: fn(object byte, packed byte).
  const auto for_each_span_byte =
      [&](const std::vector<tempi::PackSpan> &spans, long long g0,
          long long g1,
          const std::function<void(std::size_t, std::size_t)> &fn) {
        for (const tempi::PackSpan &s : spans) {
          ref_for_each_byte(sb, c.extent, g0, g0 + (g1 - g0) * s.count,
                            [&](long long o, long long p) {
                              fn(static_cast<std::size_t>(s.obj_offset + o),
                                 static_cast<std::size_t>(s.packed_offset +
                                                          p));
                            });
        }
      };
  // A pack must equal the naive gather; every other packed byte keeps
  // its background.
  const auto expect_pack = [&](const Launch &launch,
                               const std::vector<tempi::PackSpan> &spans,
                               long long g0, long long g1, const char *what) {
    reset();
    ASSERT_EQ(run_launch(via_graph, launch, reset), vcuda::Error::Success)
        << what;
    std::vector<std::byte> want = packed_bg;
    for_each_span_byte(spans, g0, g1, [&](std::size_t o, std::size_t p) {
      want[p] = obj_bg[o];
    });
    EXPECT_EQ(std::memcmp(packed.get(), want.data(), packed_bytes), 0)
        << what;
  };
  // An unpack (or a combine) must touch exactly the visited object
  // bytes; gap bytes keep the object background.
  const auto expect_unpack =
      [&](const Launch &launch, const std::vector<tempi::PackSpan> &spans,
          long long g0, long long g1, bool combine, const char *what) {
        reset();
        ASSERT_EQ(run_launch(via_graph, launch, reset), vcuda::Error::Success)
            << what;
        std::vector<std::byte> want = obj_bg;
        for_each_span_byte(spans, g0, g1, [&](std::size_t o, std::size_t p) {
          want[o] = combine ? (want[o] | packed_bg[p]) : packed_bg[p];
        });
        EXPECT_EQ(std::memcmp(obj.get(), want.data(), obj_bytes), 0) << what;
      };
  const std::vector<tempi::PackSpan> whole = {{0, 0, 1}};
  void *const o = obj.get();
  void *const pk = packed.get();

  // Whole-object launches, plan-driven and recompute-per-call.
  expect_pack(
      [&](vcuda::StreamHandle st) {
        return tempi::launch_pack(plan, sb, c.extent, pk, o, c.count, st);
      },
      whole, 0, total, "launch_pack");
  expect_pack(
      [&](vcuda::StreamHandle st) {
        return tempi::launch_pack(sb, c.extent, pk, o, c.count, st);
      },
      whole, 0, total, "launch_pack (recompute)");
  expect_unpack(
      [&](vcuda::StreamHandle st) {
        return tempi::launch_unpack(plan, sb, c.extent, o, pk, c.count, st);
      },
      whole, 0, total, false, "launch_unpack");
  expect_unpack(
      [&](vcuda::StreamHandle st) {
        return tempi::launch_unpack(sb, c.extent, o, pk, c.count, st);
      },
      whole, 0, total, false, "launch_unpack (recompute)");

  // Ranged launches starting mid-row, mid-plane and mid-object, and a few
  // blocks into a run, where a sub-word row copy starts mid-word.
  const long long rows = sb.ndims() >= 2 ? sb.counts[1] : 1;
  std::uniform_int_distribution<long long> gdist(0, total - 1);
  const long long ga = gdist(gen);
  const long long gb = gdist(gen);
  const std::pair<long long, long long> ranges[] = {
      {0, total},
      {1, total},
      {total / 2, total},
      {total - 1, total},
      {std::min(rows + 1, total - 1), total},
      {std::min(per / 2 + 1, total - 1), std::min(per + per / 2 + 1, total)},
      {std::min(3LL, total - 1), total - 2},
      {std::min(rows + 5, total - 1), total - 1},
      {std::min(ga, gb), std::max(ga, gb) + 1}};
  for (const auto &[g0, g1] : ranges) {
    if (g1 <= g0) {
      continue;
    }
    SCOPED_TRACE("range [" + std::to_string(g0) + "," + std::to_string(g1) +
                 ")");
    expect_pack(
        [&](vcuda::StreamHandle st) {
          return tempi::launch_pack_range(plan, sb, c.extent, pk, o, g0,
                                          g1 - g0, st);
        },
        whole, g0, g1, "launch_pack_range");
    expect_unpack(
        [&](vcuda::StreamHandle st) {
          return tempi::launch_unpack_range(plan, sb, c.extent, o, pk, g0,
                                            g1 - g0, st);
        },
        whole, g0, g1, false, "launch_unpack_range");
  }

  // A span table with possibly zero-count spans and packed gaps, its
  // object groups laid out in reverse order.
  std::vector<tempi::PackSpan> spans;
  long long next_packed = 3;
  for (int j = 0; j < 3; ++j) {
    const int n = static_cast<int>(gen() % (c.count + 1));
    spans.push_back({group * (2 - j), next_packed, n});
    next_packed += n * per * block + static_cast<long long>(gen() % 5);
  }
  expect_pack(
      [&](vcuda::StreamHandle st) {
        return tempi::launch_pack_spans(plan, sb, c.extent, pk, o, spans, st);
      },
      spans, 0, per, "launch_pack_spans");
  expect_unpack(
      [&](vcuda::StreamHandle st) {
        return tempi::launch_unpack_spans(plan, sb, c.extent, o, pk, spans,
                                          st);
      },
      spans, 0, per, false, "launch_unpack_spans");
  // Bitwise OR on 32-bit words is a per-byte OR. The combine reads
  // words in place, so both sides must be word-aligned: pack the span
  // table densely from offset 0.
  if (tempi::select_word_size(sb) < 4 || c.extent % 4 != 0) {
    return false;
  }
  std::vector<tempi::PackSpan> dense = spans;
  long long at = 0;
  for (tempi::PackSpan &s : dense) {
    s.packed_offset = at;
    at += s.count * per * block;
  }
  expect_unpack(
      [&](vcuda::StreamHandle st) {
        return tempi::launch_reduce_spans(tempi::ReduceOp::Bor,
                                          tempi::ReduceWord::I32, plan, sb,
                                          c.extent, o, pk, dense, st);
      },
      dense, 0, per, true, "launch_reduce_spans");
  return true;
}

class KernelBodies : public ::testing::TestWithParam<bool> {};

TEST_P(KernelBodies, MatchNaivePerByteReference) {
  const bool via_graph = GetParam();
  std::mt19937 gen(20210623);
  int reduced = 0;
  for (int trial = 0; trial < 160; ++trial) {
    const DiffCase c = random_diff_case(gen);
    reduced += check_kernel_bodies(c, via_graph,
                                   static_cast<std::uint32_t>(trial), gen);
    if (::testing::Test::HasFailure()) {
      return; // one failing case is enough to diagnose
    }
  }
  EXPECT_GE(reduced, 10) << "too few word-aligned cases for the combine";
}

/// Long dimension-1 runs of 1-, 2- and 4-byte blocks: the sub-word row
/// copies move 8 / B rows per packed word and the rest one by one, so the
/// row counts here are never a multiple of 8 / B and exceed several
/// words. Starts and strides are block-aligned or odd; a second and third
/// dimension splits the walk into several runs.
TEST_P(KernelBodies, LongSubwordRunsMatchReference) {
  const bool via_graph = GetParam();
  std::mt19937 gen(8675309);
  std::uint32_t seed = 0;
  for (const long long block : {1LL, 2LL, 4LL}) {
    const long long word_rows = 8 / block;
    for (const long long rows :
         {word_rows + 1, 3 * word_rows - 1, 37LL, 69LL}) {
      for (const bool odd : {false, true}) {
        for (const long long outer : {1LL, 3LL}) {
          DiffCase c;
          StridedBlock &sb = c.sb;
          sb.start = odd ? 1 + block : 2 * block;
          sb.counts = {block, rows};
          sb.strides = {1, odd ? 2 * block + 1 : 3 * block};
          long long span = sb.strides[1] * rows;
          if (outer > 1) {
            sb.counts.push_back(outer);
            sb.strides.push_back(span + (odd ? 3 : block));
            span = sb.strides[2] * outer;
          }
          c.extent = span + (odd ? 5 : 0);
          c.count = outer > 1 ? 2 : 3;
          ASSERT_NE(rows % word_rows, 0);
          check_kernel_bodies(c, via_graph, ++seed, gen);
          if (::testing::Test::HasFailure()) {
            return;
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ImmediateAndGraphReplay, KernelBodies,
                         ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool> &info) {
                           return info.param ? std::string("GraphReplay")
                                             : std::string("Immediate");
                         });

} // namespace
