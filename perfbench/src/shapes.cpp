#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

const char *shape_kind_name(ShapeKind k) {
  switch (k) {
  case ShapeKind::Vector:
    return "vector";
  case ShapeKind::Subarray:
    return "subarray";
  case ShapeKind::Hvector3d:
    return "hvector3d";
  case ShapeKind::Indexed:
    return "indexed";
  case ShapeKind::Struct:
    return "struct";
  }
  return "?";
}

long long stratified_bytes(int i, int n, double lo, double hi, Rng &rng) {
  const double jitter = 0.1 * (rng.uniform() - 0.5);
  const double t = (i + 0.5 + jitter) / n;
  return std::llround(std::exp2(std::log2(lo) + t * (std::log2(hi) -
                                                     std::log2(lo))));
}

ShapeSpec strided_spec(ShapeKind kind, long long target_bytes,
                       long long block, Rng &rng) {
  ShapeSpec s;
  s.kind = kind;
  s.block = block;
  const long long blocks = std::max(1LL, target_bytes / block);
  // The gap between rows is a quarter to a whole block, never zero (rows
  // stay strided), and a multiple of the block's alignment, as is the
  // subarray offset: the packer picks its word size from alignment, so
  // every seed keeps the same word size per block size.
  const long long align = std::min(block, 16LL);
  const long long steps = std::max(1LL, block / align);
  const long long gap =
      align * std::max(1LL, static_cast<long long>(std::ceil(
                                 static_cast<double>(steps) *
                                 (0.25 + 0.75 * rng.uniform()))));
  s.pitch = block + gap;
  s.offset = align * static_cast<long long>(
                         rng.below(static_cast<std::uint64_t>(gap / align + 1)));
  if (kind == ShapeKind::Vector) {
    s.rows = blocks;
    s.planes = 1;
  } else {
    // Rows per plane around sqrt(blocks), spread by up to 1.4x either way.
    const double r = std::sqrt(static_cast<double>(blocks)) *
                     std::exp2(rng.uniform() - 0.5);
    s.rows = std::clamp(std::llround(r), 1LL, blocks);
    s.planes = std::max(1LL, blocks / s.rows);
  }
  s.plane = (s.rows + static_cast<long long>(rng.below(3))) * s.pitch;
  return s;
}

ShapeSpec irregular_spec(ShapeKind kind, int blocks, Rng &rng) {
  ShapeSpec s;
  s.kind = kind;
  s.rows = blocks;
  s.salt = rng.next();
  return s;
}

namespace {

int to_int(long long v) {
  if (v < 0 || v > 0x7fffffffLL) {
    throw std::runtime_error("shape dimension out of int range");
  }
  return static_cast<int>(v);
}

MPI_Datatype build_type(const ShapeSpec &s) {
  MPI_Datatype t = MPI_DATATYPE_NULL;
  switch (s.kind) {
  case ShapeKind::Vector:
    MPI_Type_vector(to_int(s.rows), to_int(s.block), to_int(s.pitch),
                    MPI_BYTE, &t);
    break;
  case ShapeKind::Subarray: {
    const int sizes[3] = {to_int(s.planes), to_int(s.plane / s.pitch),
                          to_int(s.pitch)};
    const int subsizes[3] = {to_int(s.planes), to_int(s.rows),
                             to_int(s.block)};
    const int starts[3] = {0, 0, to_int(s.offset)};
    MPI_Type_create_subarray(3, sizes, subsizes, starts, MPI_ORDER_C,
                             MPI_BYTE, &t);
    break;
  }
  case ShapeKind::Hvector3d: {
    MPI_Datatype row = MPI_DATATYPE_NULL;
    MPI_Type_vector(to_int(s.rows), to_int(s.block), to_int(s.pitch),
                    MPI_BYTE, &row);
    MPI_Type_create_hvector(to_int(s.planes), 1, s.plane, row, &t);
    MPI_Type_free(&row);
    break;
  }
  case ShapeKind::Indexed: {
    // Irregular lengths and gaps: no constant stride to canonicalize.
    Rng rng(s.salt);
    const int n = to_int(s.rows);
    std::vector<int> lens(static_cast<std::size_t>(n));
    std::vector<int> displs(static_cast<std::size_t>(n));
    int at = 0;
    for (int i = 0; i < n; ++i) {
      lens[static_cast<std::size_t>(i)] = 1 + static_cast<int>(rng.below(24));
      displs[static_cast<std::size_t>(i)] = at;
      at += lens[static_cast<std::size_t>(i)] + 1 +
            static_cast<int>(rng.below(40));
    }
    MPI_Type_indexed(n, lens.data(), displs.data(), MPI_INT, &t);
    break;
  }
  case ShapeKind::Struct: {
    Rng rng(s.salt);
    const int ints = 1 + static_cast<int>(rng.below(64));
    const int doubles = 1 + static_cast<int>(rng.below(64));
    const int bytes = 1 + static_cast<int>(rng.below(256));
    const int lens[3] = {ints, doubles, bytes};
    const MPI_Aint d1 = 8 * ((4LL * ints + 8 + 7) / 8);
    const MPI_Aint d2 = d1 + 8LL * doubles + 3;
    const MPI_Aint displs[3] = {0, d1, d2};
    const MPI_Datatype types[3] = {MPI_INT, MPI_DOUBLE, MPI_BYTE};
    MPI_Type_create_struct(3, lens, displs, types, &t);
    break;
  }
  }
  return t;
}

} // namespace

Shape commit_shape(const ShapeSpec &spec) {
  Shape sh;
  sh.spec = spec;
  sh.type = build_type(spec);
  if (sh.type == MPI_DATATYPE_NULL || MPI_Type_commit(&sh.type) != MPI_SUCCESS) {
    throw std::runtime_error(std::string("cannot commit a ") +
                             shape_kind_name(spec.kind) + " shape");
  }
  int size = 0;
  MPI_Aint lb = 0, extent = 0;
  MPI_Type_size(sh.type, &size);
  MPI_Type_get_extent(sh.type, &lb, &extent);
  if (lb != 0 || size <= 0 || extent < size) {
    throw std::runtime_error("unexpected shape bounds");
  }
  sh.size = size;
  sh.extent = extent;
  return sh;
}

void free_shape(Shape &shape) {
  if (shape.type != MPI_DATATYPE_NULL) {
    MPI_Type_free(&shape.type);
  }
}

} // namespace perfbench
