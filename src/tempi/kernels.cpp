#include "tempi/kernels.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <limits>
#include <type_traits>
#include <vector>

namespace tempi {

namespace {

vcuda::MemorySpace space_of(const void *p) {
  return vcuda::memory_registry().space_of(p);
}

unsigned next_pow2_capped(long long n, unsigned cap) {
  if (n <= 1) {
    return 1;
  }
  const auto v = static_cast<unsigned long long>(n);
  const unsigned long long p = std::bit_ceil(v);
  return static_cast<unsigned>(std::min<unsigned long long>(p, cap));
}

} // namespace

int select_word_size(const StridedBlock &sb) {
  for (const int w : {16, 8, 4, 2}) {
    if (sb.block_bytes() % w != 0 || sb.start % w != 0) {
      continue;
    }
    bool ok = true;
    for (std::size_t d = 1; d < sb.strides.size(); ++d) {
      if (sb.strides[d] % w != 0) {
        ok = false;
        break;
      }
    }
    if (ok) {
      return w;
    }
  }
  return 1;
}

vcuda::LaunchConfig make_launch_config(const StridedBlock &sb, int word_size,
                                       int count) {
  constexpr unsigned kBlockLimit = 1024;
  vcuda::LaunchConfig cfg;
  const int nd = sb.ndims();

  const long long x_extent =
      sb.block_bytes() / std::max(word_size, 1); // X loads words
  cfg.block.x = next_pow2_capped(x_extent, kBlockLimit);
  unsigned remaining = kBlockLimit / cfg.block.x;
  if (nd >= 2) {
    cfg.block.y = next_pow2_capped(sb.counts[1], std::max(remaining, 1u));
    remaining = std::max(remaining / cfg.block.y, 1u);
  }
  if (nd >= 3) {
    cfg.block.z = next_pow2_capped(sb.counts[2], std::max(remaining, 1u));
  }

  auto grid_for = [](long long total, unsigned block) {
    return static_cast<unsigned>((total + block - 1) / block);
  };
  cfg.grid.x = grid_for(std::max<long long>(x_extent, 1), cfg.block.x);
  if (nd >= 2) {
    cfg.grid.y = grid_for(sb.counts[1], cfg.block.y);
  }
  if (nd >= 3) {
    cfg.grid.z = grid_for(sb.counts[2], cfg.block.z);
  } else if (nd == 2 && count > 1) {
    // 2-D kernels absorb the dynamic object count in grid Z.
    cfg.grid.z = static_cast<unsigned>(count);
  }
  return cfg;
}

namespace {

/// The memory system that governs a kernel's throughput. When either end
/// is mapped host memory ("one-shot"), every transaction crosses the
/// CPU-GPU interconnect and its 32 B zero-copy granularity dominates;
/// otherwise the device memory system (128 B coalescing) governs. This is
/// how the paper's saturation points (32 B one-shot, 128 B in-device,
/// Sec. 6.3) arise.
vcuda::MemorySpace governing_space(vcuda::MemorySpace a,
                                   vcuda::MemorySpace b) {
  if (a == vcuda::MemorySpace::Pinned || b == vcuda::MemorySpace::Pinned) {
    return vcuda::MemorySpace::Pinned;
  }
  return vcuda::MemorySpace::Device;
}

/// Blocks (dimension-0 rows) per object: the packed stream is the
/// concatenation of these blocks in dimension-1-fastest order, so a
/// global block index addresses any aligned sub-range of the stream.
long long blocks_per_object(const StridedBlock &sb) {
  long long n = 1;
  for (int d = 1; d < sb.ndims(); ++d) {
    n *= sb.counts[static_cast<std::size_t>(d)];
  }
  return n;
}

/// The one cost formula of every pack/unpack launch, priced by block
/// count so whole-object, ranged and span launches share it (cost scales
/// with bytes). The strided side is the source of a pack and the
/// destination of an unpack.
vcuda::KernelCost blocks_cost(const StridedBlock &sb, long long n_blocks,
                              bool is_pack, vcuda::MemorySpace src_space,
                              vcuda::MemorySpace dst_space) {
  vcuda::KernelCost cost;
  cost.total_bytes =
      static_cast<std::size_t>(n_blocks) * static_cast<std::size_t>(
                                               sb.block_bytes());
  const bool strided = sb.ndims() > 1;
  const vcuda::MemorySpace gov = governing_space(src_space, dst_space);
  const std::size_t stride_block =
      strided ? static_cast<std::size_t>(sb.block_bytes()) : 0;
  if (is_pack) {
    cost.src = {stride_block, /*is_write=*/false, gov};
    cost.dst = {0, /*is_write=*/true, gov};
  } else {
    cost.src = {0, /*is_write=*/false, gov};
    cost.dst = {stride_block, /*is_write=*/true, gov};
  }
  return cost;
}

} // namespace

vcuda::KernelCost pack_cost(const StridedBlock &sb, int count,
                            vcuda::MemorySpace src_space,
                            vcuda::MemorySpace dst_space) {
  return blocks_cost(sb, count * blocks_per_object(sb), /*is_pack=*/true,
                     src_space, dst_space);
}

vcuda::KernelCost unpack_cost(const StridedBlock &sb, int count,
                              vcuda::MemorySpace src_space,
                              vcuda::MemorySpace dst_space) {
  return blocks_cost(sb, count * blocks_per_object(sb), /*is_pack=*/false,
                     src_space, dst_space);
}

namespace {

// --- the row copies (RowCopy) a plan freezes --------------------------------

/// Visit the row pairs of a row copy: copy_row(dst_row, src_row).
template <bool Pack, typename CopyRow>
void each_row(std::byte *dst, const std::byte *src, long long rows,
              long long stride, long long block, CopyRow copy_row) {
  const long long dst_step = Pack ? block : stride;
  const long long src_step = Pack ? stride : block;
  for (long long r = 0; r < rows; ++r, dst += dst_step, src += src_step) {
    copy_row(dst, src);
  }
}

// Every row copy starts on a 64-byte boundary. Its loop is a few
// instructions, and one that straddles two cache lines ran at half speed
// on a Xeon host (8-byte pack: 44 vs 90 us per MiB), so its speed must not
// depend on what the linker places before it.

/// Fixed tier: a power-of-two block of 8 to 256 B, copied with a
/// compile-time size (a few register moves, no call). Also moves the
/// rows the sub-word tier leaves over.
template <bool Pack, std::size_t B>
[[gnu::aligned(64)]] void copy_rows_fixed(std::byte *dst, const std::byte *src,
                                          long long rows, long long stride,
                                          long long /*block*/) {
  each_row<Pack>(dst, src, rows, stride, B,
                 [](std::byte *d, const std::byte *s) {
                   std::memcpy(d, s, B);
                 });
}

/// Sub-word tier: a 1-, 2- or 4-byte block, moved 8 / B rows at a time
/// through one 64-bit packed word: a pack gathers the rows into a register
/// and stores it with one 8-byte store, an unpack loads 8 packed bytes and
/// scatters them. The strided side sees only block-sized accesses, so no
/// gap byte is read or written. Rows left over after the last full word
/// go through the fixed tier.
template <bool Pack, std::size_t B>
[[gnu::aligned(64)]] void copy_rows_subword(std::byte *dst,
                                            const std::byte *src,
                                            long long rows, long long stride,
                                            long long block) {
  using Row = std::conditional_t<
      B == 1, std::uint8_t,
      std::conditional_t<B == 2, std::uint16_t, std::uint32_t>>;
  static_assert(sizeof(Row) == B);
  constexpr long long kRows = 8 / B; // rows per packed word
  // Bit offset of row i in the word, so that its bytes land at packed
  // bytes [i * B, (i + 1) * B) whatever the byte order.
  constexpr auto shift = [](long long i) {
    return static_cast<int>(
        8 * B *
        (std::endian::native == std::endian::little ? i : kRows - 1 - i));
  };
  const long long words = rows / kRows;
  for (long long w = 0; w < words; ++w) {
    std::uint64_t word = 0;
    if constexpr (Pack) {
      for (long long i = 0; i < kRows; ++i, src += stride) {
        Row r = 0;
        std::memcpy(&r, src, B);
        word |= static_cast<std::uint64_t>(r) << shift(i);
      }
      std::memcpy(dst, &word, sizeof word);
      dst += sizeof word;
    } else {
      std::memcpy(&word, src, sizeof word);
      src += sizeof word;
      for (long long i = 0; i < kRows; ++i, dst += stride) {
        const auto r = static_cast<Row>(word >> shift(i));
        std::memcpy(dst, &r, B);
      }
    }
  }
  copy_rows_fixed<Pack, B>(dst, src, rows - words * kRows, stride, block);
}

/// Memcpy tier: any other block, one libc memcpy per row.
template <bool Pack>
[[gnu::aligned(64)]] void copy_rows_memcpy(std::byte *dst, const std::byte *src,
                                           long long rows, long long stride,
                                           long long block) {
  each_row<Pack>(dst, src, rows, stride, block,
                 [block](std::byte *d, const std::byte *s) {
                   std::memcpy(d, s, static_cast<std::size_t>(block));
                 });
}

constexpr long long kMaxSpecializedBlock = 256;

/// Row copy for blocks of `block` bytes.
template <bool Pack> RowCopy select_row_copy(long long block) {
  // Indexed by log2 of the block.
  static constexpr RowCopy fixed[] = {
      copy_rows_subword<Pack, 1>, copy_rows_subword<Pack, 2>,
      copy_rows_subword<Pack, 4>, copy_rows_fixed<Pack, 8>,
      copy_rows_fixed<Pack, 16>,  copy_rows_fixed<Pack, 32>,
      copy_rows_fixed<Pack, 64>,  copy_rows_fixed<Pack, 128>,
      copy_rows_fixed<Pack, 256>};
  const auto b = static_cast<unsigned long long>(block);
  if (block < 1 || block > kMaxSpecializedBlock || !std::has_single_bit(b)) {
    return copy_rows_memcpy<Pack>;
  }
  return fixed[std::countr_zero(b)];
}

} // namespace

PackPlan make_pack_plan(const StridedBlock &sb, long long extent) {
  PackPlan plan;
  plan.contiguous = sb.ndims() == 1;
  if (plan.contiguous) {
    return plan;
  }
  plan.word_size = select_word_size(sb);
  plan.config = make_launch_config(sb, plan.word_size, 1);
  plan.pack_rows = select_row_copy<true>(sb.block_bytes());
  plan.unpack_rows = select_row_copy<false>(sb.block_bytes());
  plan.grid_z_per_object = sb.ndims() == 2;
  if (sb.ndims() == 2) {
    plan.dma_capable = true;
    plan.dma_width = static_cast<std::size_t>(sb.counts[0]);
    plan.dma_rows = static_cast<std::size_t>(sb.counts[1]);
    plan.dma_pitch = static_cast<std::size_t>(sb.strides[1]);
    plan.dma_uniform =
        extent > 0 &&
        static_cast<std::size_t>(extent) == plan.dma_rows * plan.dma_pitch;
  }
  return plan;
}

vcuda::LaunchConfig launch_config_for(const PackPlan &plan, int count) {
  vcuda::LaunchConfig cfg = plan.config;
  if (plan.grid_z_per_object && count > 1) {
    cfg.grid.z = static_cast<unsigned>(count);
  }
  return cfg;
}

namespace {

/// Object-side byte distance between the rows of one run.
long long row_stride(const StridedBlock &sb, long long extent) {
  return sb.ndims() >= 2 ? sb.strides[1] : extent;
}

/// The recursive half of for_each_row_run: one level per dimension >= 1,
/// so the index tuple lives on the call stack whatever ndims() is.
template <typename Fn> struct RowRunWalk {
  const StridedBlock &sb;
  long long block;
  long long left;   ///< blocks still to emit
  long long packed; ///< packed offset of the next block, relative to g0
  Fn &fn;

  /// Walk dimension `d` of the box at object offset `off`, skipping its
  /// first `skip` blocks; `per` is the block count of one index of `d`.
  void dim(int d, long long off, long long skip, long long per) {
    const auto ud = static_cast<std::size_t>(d);
    if (d == 1) {
      const long long rows = std::min(sb.counts[1] - skip, left);
      fn(off + skip * sb.strides[1], packed, rows);
      packed += rows * block;
      left -= rows;
      return;
    }
    long long i = 0;
    if (skip > 0) {
      i = skip / per;
      skip %= per;
    }
    const long long inner = per / sb.counts[ud - 1];
    for (; i < sb.counts[ud] && left > 0; ++i, skip = 0) {
      dim(d - 1, off + i * sb.strides[ud], skip, inner);
    }
  }
};

/// The one block walker of every kernel body. Visits global blocks
/// [g0, g1) (block g is row g % blocks_per_object of object
/// g / blocks_per_object, dimension 1 fastest) and emits
/// fn(object_offset, packed_offset, rows) per run of consecutive
/// dimension-1 rows: `rows` blocks that sit row_stride() apart on the
/// object side and are dense on the packed side, where packed_offset
/// counts from g0. g0 is decomposed once; the walk then steps the index
/// tuple. A 1-D object is a single block, so its run spans consecutive
/// objects.
template <typename Fn>
void for_each_row_run(const StridedBlock &sb, long long extent, long long g0,
                      long long g1, Fn &&fn) {
  const long long block = sb.block_bytes();
  const long long per_obj = blocks_per_object(sb);
  if (block == 0 || per_obj == 0 || g1 <= g0) {
    return;
  }
  if (sb.ndims() == 1) {
    fn(sb.start + g0 * extent, 0LL, g1 - g0);
    return;
  }
  RowRunWalk<Fn> walk{sb, block, g1 - g0, 0, fn};
  const int top = sb.ndims() - 1;
  const long long per_top = per_obj / sb.counts[static_cast<std::size_t>(top)];
  long long skip = g0 % per_obj;
  for (long long obj = g0 / per_obj; walk.left > 0; ++obj, skip = 0) {
    walk.dim(top, obj * extent + sb.start, skip, per_top);
  }
}

/// One walker call of a kernel body: global blocks [g0, g1) of the
/// objects at obj_offset, packed from packed_offset on.
struct Segment {
  long long obj_offset = 0;
  long long packed_offset = 0;
  long long g0 = 0;
  long long g1 = 0;
};

/// Shared body of every pack/unpack launch. A 1-D (contiguous) plan issues
/// one async copy per object (Sec. 3.3; global block g is object g).
/// Otherwise one kernel of `objects`-object geometry moving `blocks`
/// blocks runs the walker over each segment with the plan's row copy.
template <bool Pack, typename Segments>
vcuda::Error launch_copy(const PackPlan &plan, const StridedBlock &sb,
                         long long extent, void *dst, const void *src,
                         int objects, long long blocks, Segments segs,
                         vcuda::StreamHandle stream) {
  auto *out = static_cast<std::byte *>(dst);
  const auto *in = static_cast<const std::byte *>(src);
  if (plan.contiguous) {
    const auto bytes = static_cast<std::size_t>(sb.counts[0]);
    for (const Segment &s : segs) {
      for (long long g = s.g0; g < s.g1; ++g) {
        const long long obj = s.obj_offset + sb.start + g * extent;
        const long long packed = s.packed_offset + (g - s.g0) * sb.counts[0];
        const vcuda::Error e =
            Pack ? vcuda::MemcpyAsync(out + packed, in + obj, bytes,
                                      vcuda::MemcpyKind::Default, stream)
                 : vcuda::MemcpyAsync(out + obj, in + packed, bytes,
                                      vcuda::MemcpyKind::Default, stream);
        if (e != vcuda::Error::Success) {
          return e;
        }
      }
    }
    return vcuda::Error::Success;
  }
  const vcuda::LaunchConfig cfg = launch_config_for(plan, objects);
  const vcuda::KernelCost cost =
      blocks_cost(sb, blocks, Pack, space_of(src), space_of(dst));
  const RowCopy rows = Pack ? plan.pack_rows : plan.unpack_rows;
  return vcuda::LaunchKernel(
      cfg, cost, stream,
      [rows, &sb, extent, out, in, segs = std::move(segs)] {
        const long long stride = row_stride(sb, extent);
        const long long block = sb.block_bytes();
        for (const Segment &s : segs) {
          for_each_row_run(
              sb, extent, s.g0, s.g1,
              [&](long long o, long long p, long long n) {
                if constexpr (Pack) {
                  rows(out + s.packed_offset + p, in + s.obj_offset + o, n,
                       stride, block);
                } else {
                  rows(out + s.obj_offset + o, in + s.packed_offset + p, n,
                       stride, block);
                }
              });
        }
      });
}

template <bool Pack>
vcuda::Error launch_whole(const PackPlan &plan, const StridedBlock &sb,
                          long long extent, void *dst, const void *src,
                          int count, vcuda::StreamHandle stream) {
  assert(sb.ndims() >= 1);
  const long long blocks = count * blocks_per_object(sb);
  return launch_copy<Pack>(plan, sb, extent, dst, src, count, blocks,
                           std::array{Segment{0, 0, 0, blocks}}, stream);
}

template <bool Pack>
vcuda::Error launch_range(const PackPlan &plan, const StridedBlock &sb,
                          long long extent, void *dst, const void *src,
                          long long first_block, long long n_blocks,
                          vcuda::StreamHandle stream) {
  assert(first_block >= 0 && n_blocks >= 0);
  if (n_blocks == 0) {
    return vcuda::Error::Success;
  }
  const long long per_obj = blocks_per_object(sb);
  const int eq_objs =
      static_cast<int>((n_blocks + per_obj - 1) / per_obj); // geometry only
  return launch_copy<Pack>(
      plan, sb, extent, dst, src, eq_objs, n_blocks,
      std::array{Segment{0, 0, first_block, first_block + n_blocks}}, stream);
}

/// A span table as walker segments (zero-count spans dropped), plus its
/// total object count.
std::vector<Segment> span_segments(const StridedBlock &sb,
                                   std::span<const PackSpan> spans,
                                   long long *objects) {
  const long long per_obj = blocks_per_object(sb);
  std::vector<Segment> segs;
  segs.reserve(spans.size());
  *objects = 0;
  for (const PackSpan &s : spans) {
    if (s.count > 0) {
      segs.push_back({s.obj_offset, s.packed_offset, 0, s.count * per_obj});
      *objects += s.count;
    }
  }
  return segs;
}

int clamp_to_int(long long n) {
  return static_cast<int>(
      std::min<long long>(n, std::numeric_limits<int>::max()));
}

template <bool Pack>
vcuda::Error launch_spans(const PackPlan &plan, const StridedBlock &sb,
                          long long extent, void *dst, const void *src,
                          std::span<const PackSpan> spans,
                          vcuda::StreamHandle stream) {
  long long objects = 0;
  // The segments are moved into the launch closure: the kernel body must
  // not reference caller-stack storage once enqueued.
  std::vector<Segment> segs = span_segments(sb, spans, &objects);
  if (objects == 0) {
    return vcuda::Error::Success;
  }
  return launch_copy<Pack>(plan, sb, extent, dst, src, clamp_to_int(objects),
                           objects * blocks_per_object(sb), std::move(segs),
                           stream);
}

} // namespace

vcuda::Error launch_pack(const PackPlan &plan, const StridedBlock &sb,
                         long long extent, void *dst, const void *src,
                         int count, vcuda::StreamHandle stream) {
  return launch_whole<true>(plan, sb, extent, dst, src, count, stream);
}

vcuda::Error launch_unpack(const PackPlan &plan, const StridedBlock &sb,
                           long long extent, void *dst, const void *src,
                           int count, vcuda::StreamHandle stream) {
  return launch_whole<false>(plan, sb, extent, dst, src, count, stream);
}

vcuda::Error launch_pack_range(const PackPlan &plan, const StridedBlock &sb,
                               long long extent, void *dst, const void *src,
                               long long first_block, long long n_blocks,
                               vcuda::StreamHandle stream) {
  return launch_range<true>(plan, sb, extent, dst, src, first_block, n_blocks,
                            stream);
}

vcuda::Error launch_unpack_range(const PackPlan &plan, const StridedBlock &sb,
                                 long long extent, void *dst, const void *src,
                                 long long first_block, long long n_blocks,
                                 vcuda::StreamHandle stream) {
  return launch_range<false>(plan, sb, extent, dst, src, first_block,
                             n_blocks, stream);
}

vcuda::Error launch_pack_spans(const PackPlan &plan, const StridedBlock &sb,
                               long long extent, void *dst, const void *src,
                               std::span<const PackSpan> spans,
                               vcuda::StreamHandle stream) {
  return launch_spans<true>(plan, sb, extent, dst, src, spans, stream);
}

vcuda::Error launch_unpack_spans(const PackPlan &plan, const StridedBlock &sb,
                                 long long extent, void *dst, const void *src,
                                 std::span<const PackSpan> spans,
                                 vcuda::StreamHandle stream) {
  return launch_spans<false>(plan, sb, extent, dst, src, spans, stream);
}

namespace {

template <typename T>
void combine_typed(ReduceOp op, T *inout, const T *in, std::size_t n) {
  switch (op) {
  case ReduceOp::Sum:
    for (std::size_t i = 0; i < n; ++i)
      inout[i] = static_cast<T>(inout[i] + in[i]);
    return;
  case ReduceOp::Prod:
    for (std::size_t i = 0; i < n; ++i)
      inout[i] = static_cast<T>(inout[i] * in[i]);
    return;
  case ReduceOp::Min:
    for (std::size_t i = 0; i < n; ++i)
      inout[i] = std::min(inout[i], in[i]);
    return;
  case ReduceOp::Max:
    for (std::size_t i = 0; i < n; ++i)
      inout[i] = std::max(inout[i], in[i]);
    return;
  default:
    break;
  }
  if constexpr (std::is_integral_v<T>) {
    switch (op) {
    case ReduceOp::Lor:
      for (std::size_t i = 0; i < n; ++i)
        inout[i] = static_cast<T>((inout[i] != 0 || in[i] != 0) ? 1 : 0);
      return;
    case ReduceOp::Land:
      for (std::size_t i = 0; i < n; ++i)
        inout[i] = static_cast<T>((inout[i] != 0 && in[i] != 0) ? 1 : 0);
      return;
    case ReduceOp::Bor:
      for (std::size_t i = 0; i < n; ++i)
        inout[i] = static_cast<T>(inout[i] | in[i]);
      return;
    case ReduceOp::Band:
      for (std::size_t i = 0; i < n; ++i)
        inout[i] = static_cast<T>(inout[i] & in[i]);
      return;
    default:
      break;
    }
  }
  assert(false && "op/word combination validated before launch");
}

/// Combine `bytes` of payload, reinterpreted as `word`-typed arrays.
void combine_bytes(ReduceOp op, ReduceWord word, std::byte *inout,
                   const std::byte *in, std::size_t bytes) {
  const std::size_t n = bytes / reduce_word_bytes(word);
  switch (word) {
  case ReduceWord::I32:
    combine_typed(op, reinterpret_cast<std::int32_t *>(inout),
                  reinterpret_cast<const std::int32_t *>(in), n);
    return;
  case ReduceWord::I64:
    combine_typed(op, reinterpret_cast<std::int64_t *>(inout),
                  reinterpret_cast<const std::int64_t *>(in), n);
    return;
  case ReduceWord::F32:
    combine_typed(op, reinterpret_cast<float *>(inout),
                  reinterpret_cast<const float *>(in), n);
    return;
  case ReduceWord::F64:
    combine_typed(op, reinterpret_cast<double *>(inout),
                  reinterpret_cast<const double *>(in), n);
    return;
  }
}

bool reduce_op_valid(ReduceOp op, ReduceWord word) {
  if (word == ReduceWord::F32 || word == ReduceWord::F64) {
    return op == ReduceOp::Sum || op == ReduceOp::Prod ||
           op == ReduceOp::Min || op == ReduceOp::Max;
  }
  return true;
}

} // namespace

std::size_t reduce_word_bytes(ReduceWord word) {
  switch (word) {
  case ReduceWord::I32:
  case ReduceWord::F32:
    return 4;
  case ReduceWord::I64:
  case ReduceWord::F64:
    return 8;
  }
  return 1;
}

vcuda::KernelCost reduce_cost(std::size_t bytes, std::size_t word_bytes,
                              vcuda::MemorySpace src_space,
                              vcuda::MemorySpace dst_space) {
  vcuda::KernelCost cost;
  cost.total_bytes = bytes;
  const vcuda::MemorySpace gov = governing_space(src_space, dst_space);
  cost.src = {0, /*is_write=*/false, gov};
  // The accumulator side is read-modify-write; model it as the write side.
  cost.dst = {0, /*is_write=*/true, gov};
  cost.reduce_ops = word_bytes > 0 ? bytes / word_bytes : 0;
  return cost;
}

vcuda::Error launch_reduce(ReduceOp op, ReduceWord word, void *inout,
                           const void *in, std::size_t count,
                           vcuda::StreamHandle stream) {
  if (!reduce_op_valid(op, word)) {
    return vcuda::Error::InvalidValue;
  }
  if (count == 0) {
    return vcuda::Error::Success;
  }
  const std::size_t wb = reduce_word_bytes(word);
  const std::size_t bytes = count * wb;
  vcuda::LaunchConfig cfg;
  cfg.block.x = 256;
  cfg.grid.x = static_cast<unsigned>(
      std::min<std::size_t>((count + 255) / 256,
                            std::numeric_limits<unsigned>::max()));
  const vcuda::KernelCost cost =
      reduce_cost(bytes, wb, space_of(in), space_of(inout));
  auto *acc = static_cast<std::byte *>(inout);
  const auto *src = static_cast<const std::byte *>(in);
  return vcuda::LaunchKernel(cfg, cost, stream, [op, word, acc, src, bytes] {
    combine_bytes(op, word, acc, src, bytes);
  });
}

vcuda::Error launch_reduce_spans(ReduceOp op, ReduceWord word,
                                 const PackPlan &plan, const StridedBlock &sb,
                                 long long extent, void *inout, const void *in,
                                 std::span<const PackSpan> spans,
                                 vcuda::StreamHandle stream) {
  if (!reduce_op_valid(op, word)) {
    return vcuda::Error::InvalidValue;
  }
  const std::size_t wb = reduce_word_bytes(word);
  assert(sb.block_bytes() % static_cast<long long>(wb) == 0);
  long long objects = 0;
  std::vector<Segment> segs = span_segments(sb, spans, &objects);
  if (objects == 0) {
    return vcuda::Error::Success;
  }
  auto *out = static_cast<std::byte *>(inout);
  const auto *src = static_cast<const std::byte *>(in);
  const int eq_objs = clamp_to_int(objects);
  const vcuda::LaunchConfig cfg =
      plan.contiguous ? make_launch_config(sb, plan.word_size, eq_objs)
                      : launch_config_for(plan, eq_objs);
  vcuda::KernelCost cost =
      blocks_cost(sb, objects * blocks_per_object(sb), /*is_pack=*/false,
                  space_of(in), space_of(inout));
  cost.reduce_ops = cost.total_bytes / wb;
  return vcuda::LaunchKernel(
      cfg, cost, stream,
      [op, word, &sb, extent, out, src, segs = std::move(segs)] {
        const long long stride = row_stride(sb, extent);
        const long long block = sb.block_bytes();
        for (const Segment &s : segs) {
          for_each_row_run(
              sb, extent, s.g0, s.g1,
              [&](long long o, long long p, long long n) {
                std::byte *acc = out + s.obj_offset + o;
                const std::byte *val = src + s.packed_offset + p;
                for (long long r = 0; r < n;
                     ++r, acc += stride, val += block) {
                  combine_bytes(op, word, acc, val,
                                static_cast<std::size_t>(block));
                }
              });
        }
      });
}

vcuda::Error launch_pack(const StridedBlock &sb, long long extent, void *dst,
                         const void *src, int count,
                         vcuda::StreamHandle stream) {
  return launch_pack(make_pack_plan(sb, extent), sb, extent, dst, src, count,
                     stream);
}

vcuda::Error launch_unpack(const StridedBlock &sb, long long extent,
                           void *dst, const void *src, int count,
                           vcuda::StreamHandle stream) {
  return launch_unpack(make_pack_plan(sb, extent), sb, extent, dst, src,
                       count, stream);
}

} // namespace tempi
