// The three workloads and the seeded datatype shapes two of them share.
//
// Each workload runs one session: every rank thread sets up (types,
// buffers, oracle, warm-up), runs its timed closed loop in whole passes
// until the plan's seconds are spent, checks every op against the sysmpi
// oracle, and tears down. See perfbench/README.md for why each exists.
#pragma once

#include "common.hpp"
#include "sysmpi/mpi.hpp"

#include <string>
#include <vector>

namespace perfbench {

void run_pack(const Options &opt, const Plan &plan, Probe &probe,
              SessionResult &res);
void run_p2p(const Options &opt, const Plan &plan, Probe &probe,
             SessionResult &res);
void run_halo(const Options &opt, const Plan &plan, Probe &probe,
              SessionResult &res);


/// How a shape's datatype is built.
enum class ShapeKind {
  Vector,    ///< 2-D MPI_Type_vector over bytes
  Subarray,  ///< 3-D MPI_Type_create_subarray over bytes
  Hvector3d, ///< hvector of a vector: a nested 3-D object
  Indexed,   ///< irregular MPI_Type_indexed: leaves TEMPI's fast path
  Struct,    ///< mixed-type MPI_Type_create_struct: leaves the fast path
};
const char *shape_kind_name(ShapeKind k);

/// A seeded object layout. Strided kinds are `planes` planes of `rows`
/// blocks of `block` bytes, rows `pitch` bytes apart and planes `plane`
/// bytes apart; the irregular kinds draw their own layout from `salt`
/// (Indexed has `rows` blocks).
struct ShapeSpec {
  ShapeKind kind = ShapeKind::Vector;
  long long block = 1;
  long long rows = 1;
  long long planes = 1;
  long long pitch = 2;
  long long plane = 2;
  long long offset = 0; ///< subarray start within a row
  std::uint64_t salt = 0;
};

/// A committed shape plus its size (payload bytes) and extent.
struct Shape {
  ShapeSpec spec;
  MPI_Datatype type = MPI_DATATYPE_NULL;
  long long size = 0;
  long long extent = 0;
};

/// A strided shape of about `target_bytes` in blocks of `block` bytes.
ShapeSpec strided_spec(ShapeKind kind, long long target_bytes,
                       long long block, Rng &rng);
/// A small irregular shape of at most ~4 KiB: Indexed with `blocks`
/// blocks (the system MPI's cost is per block), or a three-field Struct.
ShapeSpec irregular_spec(ShapeKind kind, int blocks, Rng &rng);

/// Build and commit `spec` (through the interposed MPI_Type_commit).
Shape commit_shape(const ShapeSpec &spec);
void free_shape(Shape &shape);

/// Size target for stratum i of n strata spanning [lo, hi] bytes on a log
/// scale, jittered by the seed within a tenth of a stratum: every seed
/// covers the whole range the same way, so percentiles stay comparable.
long long stratified_bytes(int i, int n, double lo, double hi, Rng &rng);

} // namespace perfbench
