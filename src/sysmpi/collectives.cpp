#include "sysmpi/collectives.hpp"

#include "support/log.hpp"
#include "sysmpi/netmodel.hpp"
#include "sysmpi/pack_baseline.hpp"
#include "sysmpi/transport.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <climits>
#include <cstring>
#include <type_traits>
#include <vector>

namespace sysmpi {

int next_collective_tag(MPI_Comm comm) {
  const std::uint64_t seq = comm->collective_seq++;
  return -2 - static_cast<int>(seq & 0x3FFFFFFu);
}

namespace {

template <typename T>
bool apply_op_typed(OpKind kind, T *inout, const T *in, int count) {
  switch (kind) {
  case OpKind::Sum:
    for (int i = 0; i < count; ++i) inout[i] = static_cast<T>(inout[i] + in[i]);
    return true;
  case OpKind::Max:
    for (int i = 0; i < count; ++i) inout[i] = std::max(inout[i], in[i]);
    return true;
  case OpKind::Min:
    for (int i = 0; i < count; ++i) inout[i] = std::min(inout[i], in[i]);
    return true;
  case OpKind::Prod:
    for (int i = 0; i < count; ++i) inout[i] = static_cast<T>(inout[i] * in[i]);
    return true;
  default:
    break;
  }
  // Logical and bitwise ops are defined for integer types only (MPI leaves
  // them undefined on floats; we reject them as a type error).
  if constexpr (std::is_integral_v<T>) {
    switch (kind) {
    case OpKind::Lor:
      for (int i = 0; i < count; ++i)
        inout[i] = static_cast<T>((inout[i] != 0 || in[i] != 0) ? 1 : 0);
      return true;
    case OpKind::Land:
      for (int i = 0; i < count; ++i)
        inout[i] = static_cast<T>((inout[i] != 0 && in[i] != 0) ? 1 : 0);
      return true;
    case OpKind::Bor:
      for (int i = 0; i < count; ++i)
        inout[i] = static_cast<T>(inout[i] | in[i]);
      return true;
    case OpKind::Band:
      for (int i = 0; i < count; ++i)
        inout[i] = static_cast<T>(inout[i] & in[i]);
      return true;
    default:
      break;
    }
  }
  return false;
}

} // namespace

bool apply_reduce(OpKind kind, void *inout, const void *in, int count,
                  Named named) {
  switch (named) {
  case Named::Byte:
  case Named::Char:
  case Named::SignedChar:
    return apply_op_typed(kind, static_cast<signed char *>(inout),
                          static_cast<const signed char *>(in), count);
  case Named::UnsignedChar:
    return apply_op_typed(kind, static_cast<unsigned char *>(inout),
                          static_cast<const unsigned char *>(in), count);
  case Named::Short:
    return apply_op_typed(kind, static_cast<short *>(inout),
                          static_cast<const short *>(in), count);
  case Named::UnsignedShort:
    return apply_op_typed(kind, static_cast<unsigned short *>(inout),
                          static_cast<const unsigned short *>(in), count);
  case Named::Int:
    return apply_op_typed(kind, static_cast<int *>(inout),
                          static_cast<const int *>(in), count);
  case Named::Unsigned:
    return apply_op_typed(kind, static_cast<unsigned *>(inout),
                          static_cast<const unsigned *>(in), count);
  case Named::Long:
    return apply_op_typed(kind, static_cast<long *>(inout),
                          static_cast<const long *>(in), count);
  case Named::UnsignedLong:
    return apply_op_typed(kind, static_cast<unsigned long *>(inout),
                          static_cast<const unsigned long *>(in), count);
  case Named::LongLong:
    return apply_op_typed(kind, static_cast<long long *>(inout),
                          static_cast<const long long *>(in), count);
  case Named::UnsignedLongLong:
    return apply_op_typed(kind, static_cast<unsigned long long *>(inout),
                          static_cast<const unsigned long long *>(in), count);
  case Named::Float:
    return apply_op_typed(kind, static_cast<float *>(inout),
                          static_cast<const float *>(in), count);
  case Named::Double:
    return apply_op_typed(kind, static_cast<double *>(inout),
                          static_cast<const double *>(in), count);
  case Named::Count_:
    break;
  }
  return false;
}

int barrier_impl(MPI_Comm comm) {
  if (comm == nullptr) {
    return MPI_ERR_ARG;
  }
  World &world = *comm->world;
  BarrierState &b = world.barrier_for(comm->id);
  vcuda::Timeline &tl = vcuda::this_thread_timeline();
  const int nranks = comm->size();
  // Modeled cost: a dissemination barrier, ~2 * ceil(log2(P)) half-trips.
  const int rounds = nranks > 1 ? std::bit_width(
                                      static_cast<unsigned>(nranks - 1))
                                : 0;
  const vcuda::VirtualNs cost = vcuda::us_to_ns(
      2.0 * rounds * net_params().cpu_lat_inter_us);
  comm->collective_seq++; // keep sequence aligned with other collectives

  std::unique_lock<std::mutex> lock(b.mutex);
  b.max_clock = std::max(b.max_clock, tl.now());
  if (++b.arrived == nranks) {
    b.release_clock = b.max_clock + cost;
    b.arrived = 0;
    b.max_clock = 0;
    ++b.generation;
    b.cv.notify_all();
  } else {
    const std::uint64_t gen = b.generation;
    b.cv.wait(lock, [&b, gen] { return b.generation != gen; });
  }
  tl.wait_until(b.release_clock);
  return MPI_SUCCESS;
}

int bcast_impl(void *buf, int count, MPI_Datatype dt, int root,
               MPI_Comm comm) {
  if (comm == nullptr || dt == nullptr) {
    return MPI_ERR_ARG;
  }
  const int size = comm->size();
  const int rank = comm->my_rank;
  const int tag = next_collective_tag(comm);
  if (size == 1) {
    return MPI_SUCCESS;
  }
  // Binomial tree rooted at `root`.
  const int rel = (rank - root + size) % size;
  int mask = 1;
  while (mask < size) {
    if (rel & mask) {
      const int parent = (rel - mask + root) % size;
      const int rc = recv_impl(buf, count, dt, parent, tag, comm,
                               MPI_STATUS_IGNORE);
      if (rc != MPI_SUCCESS) {
        return rc;
      }
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (rel + mask < size) {
      const int child = (rel + mask + root) % size;
      const int rc = send_impl(buf, count, dt, child, tag, comm);
      if (rc != MPI_SUCCESS) {
        return rc;
      }
    }
    mask >>= 1;
  }
  return MPI_SUCCESS;
}

int allreduce_impl(const void *sendbuf, void *recvbuf, int count,
                   MPI_Datatype dt, MPI_Op op, MPI_Comm comm) {
  if (comm == nullptr || dt == nullptr || op == nullptr ||
      dt->combiner != MPI_COMBINER_NAMED) {
    return MPI_ERR_ARG;
  }
  const int size = comm->size();
  const int rank = comm->my_rank;
  const int tag = next_collective_tag(comm);
  const std::size_t bytes = static_cast<std::size_t>(dt->size) * count;
  if (sendbuf != MPI_IN_PLACE && bytes > 0) {
    std::memcpy(recvbuf, sendbuf, bytes);
  }
  // Reduce to rank 0 (linear, ascending source order), then broadcast.
  if (rank == 0) {
    std::vector<std::byte> tmp(bytes);
    for (int src = 1; src < size; ++src) {
      const int rc = recv_impl(tmp.data(), count, dt, src, tag, comm,
                               MPI_STATUS_IGNORE);
      if (rc != MPI_SUCCESS) {
        return rc;
      }
      if (!apply_reduce(op->kind, recvbuf, tmp.data(), count, dt->named)) {
        return MPI_ERR_TYPE;
      }
    }
  } else {
    const int rc = send_impl(recvbuf, count, dt, 0, tag, comm);
    if (rc != MPI_SUCCESS) {
      return rc;
    }
  }
  return bcast_impl(recvbuf, count, dt, 0, comm);
}

int alltoallv_impl(const void *sendbuf, const int *sendcounts,
                   const int *sdispls, MPI_Datatype sendtype, void *recvbuf,
                   const int *recvcounts, const int *rdispls,
                   MPI_Datatype recvtype, MPI_Comm comm) {
  if (comm == nullptr || sendtype == nullptr || recvtype == nullptr) {
    return MPI_ERR_ARG;
  }
  const int size = comm->size();
  const int rank = comm->my_rank;
  const int tag = next_collective_tag(comm);
  const auto *sbase = static_cast<const std::byte *>(sendbuf);
  auto *rbase = static_cast<std::byte *>(recvbuf);

  // Sends are buffered (never block), so issue all sends then drain
  // receives; peers are rotated so traffic is spread, as in pairwise
  // exchange algorithms.
  for (int step = 0; step < size; ++step) {
    const int dst = (rank + step) % size;
    const int rc = send_impl(
        sbase + static_cast<long long>(sdispls[dst]) * sendtype->extent,
        sendcounts[dst], sendtype, dst, tag, comm);
    if (rc != MPI_SUCCESS) {
      return rc;
    }
  }
  for (int step = 0; step < size; ++step) {
    const int src = (rank - step + size) % size;
    const int rc = recv_impl(
        rbase + static_cast<long long>(rdispls[src]) * recvtype->extent,
        recvcounts[src], recvtype, src, tag, comm, MPI_STATUS_IGNORE);
    if (rc != MPI_SUCCESS) {
      return rc;
    }
  }
  return MPI_SUCCESS;
}

int reduce_impl(const void *sendbuf, void *recvbuf, int count,
                MPI_Datatype dt, MPI_Op op, int root, MPI_Comm comm) {
  if (comm == nullptr || dt == nullptr || op == nullptr ||
      dt->combiner != MPI_COMBINER_NAMED || root < 0 ||
      root >= comm->size()) {
    return MPI_ERR_ARG;
  }
  const int size = comm->size();
  const int rank = comm->my_rank;
  if (sendbuf == MPI_IN_PLACE && rank != root) {
    return MPI_ERR_ARG; // in-place reduce is root-only
  }
  const int tag = next_collective_tag(comm);
  const std::size_t bytes = static_cast<std::size_t>(dt->size) * count;
  if (rank == root) {
    if (sendbuf != MPI_IN_PLACE && bytes > 0) {
      std::memcpy(recvbuf, sendbuf, bytes);
    }
    std::vector<std::byte> tmp(bytes);
    for (int src = 0; src < size; ++src) {
      if (src == root) {
        continue;
      }
      const int rc = recv_impl(tmp.data(), count, dt, src, tag, comm,
                               MPI_STATUS_IGNORE);
      if (rc != MPI_SUCCESS) {
        return rc;
      }
      if (!apply_reduce(op->kind, recvbuf, tmp.data(), count, dt->named)) {
        return MPI_ERR_TYPE;
      }
    }
    return MPI_SUCCESS;
  }
  return send_impl(sendbuf, count, dt, root, tag, comm);
}

int reduce_scatter_impl(const void *sendbuf, void *recvbuf,
                        const int *recvcounts, MPI_Datatype dt, MPI_Op op,
                        MPI_Comm comm) {
  if (comm == nullptr || dt == nullptr || op == nullptr ||
      recvcounts == nullptr || dt->combiner != MPI_COMBINER_NAMED) {
    return MPI_ERR_ARG;
  }
  const int size = comm->size();
  const int rank = comm->my_rank;
  long long total = 0;
  for (int r = 0; r < size; ++r) {
    if (recvcounts[r] < 0) {
      return MPI_ERR_COUNT;
    }
    total += recvcounts[r];
  }
  if (total > INT_MAX) {
    return MPI_ERR_COUNT;
  }
  const int count = static_cast<int>(total);
  // With MPI_IN_PLACE the full input vector is taken from recvbuf; the
  // result still lands in the first recvcounts[rank] elements.
  const void *in = sendbuf == MPI_IN_PLACE ? recvbuf : sendbuf;
  // Phase 1 (one tag slot): linear reduce of the full vector to rank 0,
  // ascending source order — same association order as allreduce/reduce.
  const int tag_reduce = next_collective_tag(comm);
  const std::size_t bytes = static_cast<std::size_t>(dt->size) * count;
  std::vector<std::byte> acc;
  if (rank == 0) {
    acc.resize(bytes);
    if (bytes > 0) {
      std::memcpy(acc.data(), in, bytes);
    }
    std::vector<std::byte> tmp(bytes);
    for (int src = 1; src < size; ++src) {
      const int rc = recv_impl(tmp.data(), count, dt, src, tag_reduce, comm,
                               MPI_STATUS_IGNORE);
      if (rc != MPI_SUCCESS) {
        return rc;
      }
      if (!apply_reduce(op->kind, acc.data(), tmp.data(), count, dt->named)) {
        return MPI_ERR_TYPE;
      }
    }
  } else {
    const int rc = send_impl(in, count, dt, 0, tag_reduce, comm);
    if (rc != MPI_SUCCESS) {
      return rc;
    }
  }
  // Phase 2 (one tag slot): rank 0 scatters each rank's segment.
  const int tag_scatter = next_collective_tag(comm);
  if (rank == 0) {
    long long off = 0;
    for (int dst = 0; dst < size; ++dst) {
      const std::byte *seg = acc.data() + off * dt->size;
      if (dst == 0) {
        if (recvcounts[0] > 0) {
          std::memmove(recvbuf, seg,
                       static_cast<std::size_t>(recvcounts[0]) * dt->size);
        }
      } else {
        const int rc =
            send_impl(seg, recvcounts[dst], dt, dst, tag_scatter, comm);
        if (rc != MPI_SUCCESS) {
          return rc;
        }
      }
      off += recvcounts[dst];
    }
    return MPI_SUCCESS;
  }
  return recv_impl(recvbuf, recvcounts[rank], dt, 0, tag_scatter, comm,
                   MPI_STATUS_IGNORE);
}

int reduce_scatter_block_impl(const void *sendbuf, void *recvbuf,
                              int recvcount, MPI_Datatype dt, MPI_Op op,
                              MPI_Comm comm) {
  if (comm == nullptr || recvcount < 0) {
    return MPI_ERR_ARG;
  }
  const std::vector<int> counts(static_cast<std::size_t>(comm->size()),
                                recvcount);
  return reduce_scatter_impl(sendbuf, recvbuf, counts.data(), dt, op, comm);
}

int gather_impl(const void *sendbuf, int sendcount, MPI_Datatype sendtype,
                void *recvbuf, int recvcount, MPI_Datatype recvtype, int root,
                MPI_Comm comm) {
  if (comm == nullptr || sendtype == nullptr) {
    return MPI_ERR_ARG;
  }
  const int size = comm->size();
  const int rank = comm->my_rank;
  const int tag = next_collective_tag(comm);
  if (rank != root) {
    return send_impl(sendbuf, sendcount, sendtype, root, tag, comm);
  }
  if (recvtype == nullptr) {
    return MPI_ERR_ARG;
  }
  auto *rbase = static_cast<std::byte *>(recvbuf);
  for (int src = 0; src < size; ++src) {
    std::byte *slot =
        rbase + static_cast<long long>(src) * recvcount * recvtype->extent;
    if (src == rank) {
      // Self-copy through the datatype engine (handles non-contiguous).
      std::vector<std::byte> tmp(
          static_cast<std::size_t>(sendtype->size) * sendcount);
      baseline_pack(tmp.data(), sendbuf, sendcount, *sendtype);
      baseline_unpack(slot, tmp.data(), recvcount, *recvtype);
      continue;
    }
    const int rc =
        recv_impl(slot, recvcount, recvtype, src, tag, comm,
                  MPI_STATUS_IGNORE);
    if (rc != MPI_SUCCESS) {
      return rc;
    }
  }
  return MPI_SUCCESS;
}

int gatherv_impl(const void *sendbuf, int sendcount, MPI_Datatype sendtype,
                 void *recvbuf, const int *recvcounts, const int *displs,
                 MPI_Datatype recvtype, int root, MPI_Comm comm) {
  if (comm == nullptr || sendtype == nullptr) {
    return MPI_ERR_ARG;
  }
  const int size = comm->size();
  const int rank = comm->my_rank;
  const int tag = next_collective_tag(comm);
  if (rank != root) {
    return send_impl(sendbuf, sendcount, sendtype, root, tag, comm);
  }
  if (recvtype == nullptr || recvcounts == nullptr || displs == nullptr) {
    return MPI_ERR_ARG;
  }
  auto *rbase = static_cast<std::byte *>(recvbuf);
  for (int src = 0; src < size; ++src) {
    std::byte *slot =
        rbase + static_cast<long long>(displs[src]) * recvtype->extent;
    if (src == rank) {
      std::vector<std::byte> tmp(
          static_cast<std::size_t>(sendtype->size) * sendcount);
      baseline_pack(tmp.data(), sendbuf, sendcount, *sendtype);
      baseline_unpack(slot, tmp.data(), recvcounts[src], *recvtype);
      continue;
    }
    const int rc = recv_impl(slot, recvcounts[src], recvtype, src, tag, comm,
                             MPI_STATUS_IGNORE);
    if (rc != MPI_SUCCESS) {
      return rc;
    }
  }
  return MPI_SUCCESS;
}

int scatter_impl(const void *sendbuf, int sendcount, MPI_Datatype sendtype,
                 void *recvbuf, int recvcount, MPI_Datatype recvtype,
                 int root, MPI_Comm comm) {
  if (comm == nullptr || recvtype == nullptr) {
    return MPI_ERR_ARG;
  }
  const int size = comm->size();
  const int rank = comm->my_rank;
  const int tag = next_collective_tag(comm);
  if (rank == root) {
    if (sendtype == nullptr) {
      return MPI_ERR_ARG;
    }
    const auto *sbase = static_cast<const std::byte *>(sendbuf);
    for (int dst = 0; dst < size; ++dst) {
      const std::byte *slot =
          sbase + static_cast<long long>(dst) * sendcount * sendtype->extent;
      if (dst == rank) {
        std::vector<std::byte> tmp(
            static_cast<std::size_t>(sendtype->size) * sendcount);
        baseline_pack(tmp.data(), slot, sendcount, *sendtype);
        baseline_unpack(recvbuf, tmp.data(), recvcount, *recvtype);
        continue;
      }
      const int rc = send_impl(slot, sendcount, sendtype, dst, tag, comm);
      if (rc != MPI_SUCCESS) {
        return rc;
      }
    }
    return MPI_SUCCESS;
  }
  return recv_impl(recvbuf, recvcount, recvtype, root, tag, comm,
                   MPI_STATUS_IGNORE);
}

int allgather_impl(const void *sendbuf, int sendcount, MPI_Datatype sendtype,
                   void *recvbuf, int recvcount, MPI_Datatype recvtype,
                   MPI_Comm comm) {
  // Gather to rank 0 then broadcast the assembled buffer. next_collective_
  // tag stays aligned because every rank takes the same path.
  const int rc = gather_impl(sendbuf, sendcount, sendtype, recvbuf,
                             recvcount, recvtype, 0, comm);
  if (rc != MPI_SUCCESS) {
    return rc;
  }
  const long long total =
      static_cast<long long>(recvcount) * comm->size();
  return bcast_impl(recvbuf, static_cast<int>(total), recvtype, 0, comm);
}

int comm_split_impl(MPI_Comm comm, int color, int key, MPI_Comm *newcomm) {
  if (comm == nullptr || newcomm == nullptr) {
    return MPI_ERR_ARG;
  }
  const int size = comm->size();
  const int rank = comm->my_rank;

  // Exchange (color, key) pairs: gather to 0, broadcast to all.
  std::vector<int> pairs(static_cast<std::size_t>(size) * 2);
  const int mine[2] = {color, key};
  int rc = gather_impl(mine, 2, MPI_INT, pairs.data(), 2, MPI_INT, 0, comm);
  if (rc != MPI_SUCCESS) {
    return rc;
  }
  rc = bcast_impl(pairs.data(), size * 2, MPI_INT, 0, comm);
  if (rc != MPI_SUCCESS) {
    return rc;
  }
  // Every rank consumes one ordinal for this split so ids stay aligned.
  const std::uint64_t ordinal = comm->next_child_ordinal++;

  if (color == MPI_UNDEFINED) {
    *newcomm = MPI_COMM_NULL;
    return MPI_SUCCESS;
  }
  // Members of my color, ordered by (key, parent rank).
  std::vector<std::pair<int, int>> members; // (key, parent rank)
  for (int r = 0; r < size; ++r) {
    if (pairs[static_cast<std::size_t>(r) * 2] == color) {
      members.emplace_back(pairs[static_cast<std::size_t>(r) * 2 + 1], r);
    }
  }
  std::sort(members.begin(), members.end());

  auto *c = new Comm();
  c->world = comm->world;
  c->id = comm->id * 1000003ull + ordinal * 131ull +
          static_cast<std::uint64_t>(color + 1);
  c->world_ranks.reserve(members.size());
  for (std::size_t i = 0; i < members.size(); ++i) {
    const int parent_rank = members[i].second;
    c->world_ranks.push_back(comm->world_rank_of(parent_rank));
    if (parent_rank == rank) {
      c->my_rank = static_cast<int>(i);
    }
  }
  *newcomm = c;
  return MPI_SUCCESS;
}

namespace {

/// The system MPI never remaps ranks itself; when a caller asks for
/// reorder=1 and ends up on this identity path (no topology layer
/// interposed, or the remap was rejected), say so once instead of
/// silently dropping the request.
void log_identity_reorder_once(const char *what) {
  static std::atomic<bool> cart_logged{false};
  static std::atomic<bool> graph_logged{false};
  std::atomic<bool> &flag =
      what[0] == 'C' ? cart_logged : graph_logged;
  if (!flag.exchange(true)) {
    support::log_info("sysmpi: ", what,
                      "(reorder=1) falling back to identity rank mapping");
  }
}

} // namespace

int dist_graph_create_adjacent_impl(MPI_Comm comm_old, int indegree,
                                    const int *sources,
                                    const int *sourceweights, int outdegree,
                                    const int *destinations,
                                    const int *destweights, int info,
                                    int reorder, MPI_Comm *comm_dist_graph) {
  (void)sourceweights;
  (void)destweights;
  (void)info;
  if (reorder != 0) {
    log_identity_reorder_once("MPI_Dist_graph_create_adjacent");
  }
  if (comm_old == nullptr || comm_dist_graph == nullptr || indegree < 0 ||
      outdegree < 0) {
    return MPI_ERR_ARG;
  }
  auto *comm = new Comm();
  comm->world = comm_old->world;
  // Identical creation order on every rank keeps ordinals — and therefore
  // communicator ids — consistent without communication.
  comm->id = comm_old->id * 1000003ull + comm_old->next_child_ordinal++;
  comm->my_rank = comm_old->my_rank;
  comm->world_ranks = comm_old->world_ranks;
  comm->is_graph = true;
  comm->graph_sources.assign(sources, sources + indegree);
  comm->graph_destinations.assign(destinations, destinations + outdegree);
  *comm_dist_graph = comm;
  return MPI_SUCCESS;
}

int cart_create_impl(MPI_Comm comm_old, int ndims, const int *dims,
                     const int *periods, int reorder, MPI_Comm *comm_cart) {
  if (comm_old == nullptr || comm_cart == nullptr || ndims < 1 ||
      dims == nullptr || periods == nullptr) {
    return MPI_ERR_ARG;
  }
  long long grid = 1;
  for (int d = 0; d < ndims; ++d) {
    if (dims[d] < 1) {
      return MPI_ERR_ARG;
    }
    grid *= dims[d];
  }
  if (grid > comm_old->size()) {
    return MPI_ERR_ARG;
  }
  if (reorder != 0) {
    log_identity_reorder_once("MPI_Cart_create");
  }
  // Every rank consumes one ordinal for this construction so ids stay
  // aligned, including ranks left out of the grid.
  const std::uint64_t ordinal = comm_old->next_child_ordinal++;
  if (comm_old->my_rank >= grid) {
    *comm_cart = MPI_COMM_NULL;
    return MPI_SUCCESS;
  }
  auto *c = new Comm();
  c->world = comm_old->world;
  c->id = comm_old->id * 1000003ull + ordinal * 8191ull + 7ull;
  c->my_rank = comm_old->my_rank;
  c->world_ranks.assign(comm_old->world_ranks.begin(),
                        comm_old->world_ranks.begin() + grid);
  c->is_cart = true;
  c->cart_dims.assign(dims, dims + ndims);
  c->cart_periods.assign(periods, periods + ndims);
  *comm_cart = c;
  return MPI_SUCCESS;
}

int cart_coords_impl(MPI_Comm comm, int rank, int maxdims, int *coords) {
  if (comm == nullptr || !comm->is_cart || coords == nullptr || rank < 0 ||
      rank >= comm->size() ||
      maxdims < static_cast<int>(comm->cart_dims.size())) {
    return MPI_ERR_ARG;
  }
  // Row-major: the last dimension varies fastest.
  for (int d = static_cast<int>(comm->cart_dims.size()) - 1; d >= 0; --d) {
    const int extent = comm->cart_dims[static_cast<std::size_t>(d)];
    coords[d] = rank % extent;
    rank /= extent;
  }
  return MPI_SUCCESS;
}

int cart_rank_impl(MPI_Comm comm, const int *coords, int *rank) {
  if (comm == nullptr || !comm->is_cart || coords == nullptr ||
      rank == nullptr) {
    return MPI_ERR_ARG;
  }
  int r = 0;
  for (std::size_t d = 0; d < comm->cart_dims.size(); ++d) {
    const int extent = comm->cart_dims[d];
    int c = coords[d];
    if (c < 0 || c >= extent) {
      if (comm->cart_periods[d] == 0) {
        return MPI_ERR_ARG; // out of range on a non-periodic dimension
      }
      c = ((c % extent) + extent) % extent;
    }
    r = r * extent + c;
  }
  *rank = r;
  return MPI_SUCCESS;
}

int cart_shift_impl(MPI_Comm comm, int direction, int disp, int *rank_source,
                    int *rank_dest) {
  if (comm == nullptr || !comm->is_cart || rank_source == nullptr ||
      rank_dest == nullptr || direction < 0 ||
      direction >= static_cast<int>(comm->cart_dims.size())) {
    return MPI_ERR_ARG;
  }
  std::vector<int> coords(comm->cart_dims.size());
  int rc = cart_coords_impl(comm, comm->my_rank,
                            static_cast<int>(coords.size()), coords.data());
  if (rc != MPI_SUCCESS) {
    return rc;
  }
  const int extent = comm->cart_dims[static_cast<std::size_t>(direction)];
  const bool periodic =
      comm->cart_periods[static_cast<std::size_t>(direction)] != 0;
  const int base = coords[static_cast<std::size_t>(direction)];
  auto resolve = [&](int displacement, int *out) {
    const int c = base + displacement;
    if (!periodic && (c < 0 || c >= extent)) {
      *out = MPI_PROC_NULL;
      return MPI_SUCCESS;
    }
    coords[static_cast<std::size_t>(direction)] = c;
    return cart_rank_impl(comm, coords.data(), out);
  };
  rc = resolve(-disp, rank_source);
  if (rc != MPI_SUCCESS) {
    return rc;
  }
  return resolve(disp, rank_dest);
}

int neighbor_alltoallv_impl(const void *sendbuf, const int *sendcounts,
                            const int *sdispls, MPI_Datatype sendtype,
                            void *recvbuf, const int *recvcounts,
                            const int *rdispls, MPI_Datatype recvtype,
                            MPI_Comm comm) {
  if (comm == nullptr || !comm->is_graph || sendtype == nullptr ||
      recvtype == nullptr) {
    return MPI_ERR_ARG;
  }
  const int tag = next_collective_tag(comm);
  const auto *sbase = static_cast<const std::byte *>(sendbuf);
  auto *rbase = static_cast<std::byte *>(recvbuf);

  const auto &dsts = comm->graph_destinations;
  const auto &srcs = comm->graph_sources;
  for (std::size_t i = 0; i < dsts.size(); ++i) {
    const int rc = send_impl(
        sbase + static_cast<long long>(sdispls[i]) * sendtype->extent,
        sendcounts[i], sendtype, dsts[i], tag, comm);
    if (rc != MPI_SUCCESS) {
      return rc;
    }
  }
  // A rank may appear several times as a source; FIFO matching per (src,
  // tag) pairs messages with slots in neighbor order, matching MPI.
  for (std::size_t i = 0; i < srcs.size(); ++i) {
    const int rc = recv_impl(
        rbase + static_cast<long long>(rdispls[i]) * recvtype->extent,
        recvcounts[i], recvtype, srcs[i], tag, comm, MPI_STATUS_IGNORE);
    if (rc != MPI_SUCCESS) {
      return rc;
    }
  }
  return MPI_SUCCESS;
}

} // namespace sysmpi
