// Internal collective implementations (not interposable; see transport.hpp).
//
// Collective messages use reserved negative tags derived from a per-
// communicator sequence number. MPI requires every rank of a communicator
// to issue collectives in the same order, which keeps the per-rank sequence
// counters consistent without extra synchronization.
#pragma once

#include "sysmpi/types.hpp"
#include "sysmpi/world.hpp"

namespace sysmpi {

/// Reserve the tag of the current collective on `comm`, consuming one
/// slot of the per-rank sequence (which every rank advances identically).
/// Exported because TEMPI's collectives engine must derive the exact tag
/// — and consume the exact sequence slots — a system-path rank does for
/// the same call; one definition keeps that interoperability invariant in
/// one place. Collective tags are -2 and below: MPI_ANY_TAG (-1) and every
/// user tag (>= 0) stay distinct from them, and a user MPI_ANY_TAG receive
/// or probe never matches them (see match_at in world.cpp).
int next_collective_tag(MPI_Comm comm);

/// Apply `kind` elementwise: inout[i] = op(inout[i], in[i]). Returns false
/// for unsupported op/type combinations (logical/bitwise ops on floating
/// point, or a non-reducible named type). Exported because TEMPI's
/// reduction engine must combine host-resident contributions with exactly
/// the semantics a system-path rank uses.
bool apply_reduce(OpKind kind, void *inout, const void *in, int count,
                  Named named);

int barrier_impl(MPI_Comm comm);
int bcast_impl(void *buf, int count, MPI_Datatype dt, int root, MPI_Comm comm);
int allreduce_impl(const void *sendbuf, void *recvbuf, int count,
                   MPI_Datatype dt, MPI_Op op, MPI_Comm comm);
int alltoallv_impl(const void *sendbuf, const int *sendcounts,
                   const int *sdispls, MPI_Datatype sendtype, void *recvbuf,
                   const int *recvcounts, const int *rdispls,
                   MPI_Datatype recvtype, MPI_Comm comm);
int dist_graph_create_adjacent_impl(MPI_Comm comm_old, int indegree,
                                    const int *sources, const int *sourceweights,
                                    int outdegree, const int *destinations,
                                    const int *destweights, int info,
                                    int reorder, MPI_Comm *comm_dist_graph);
int cart_create_impl(MPI_Comm comm_old, int ndims, const int *dims,
                     const int *periods, int reorder, MPI_Comm *comm_cart);
int cart_coords_impl(MPI_Comm comm, int rank, int maxdims, int *coords);
int cart_rank_impl(MPI_Comm comm, const int *coords, int *rank);
int cart_shift_impl(MPI_Comm comm, int direction, int disp, int *rank_source,
                    int *rank_dest);
int neighbor_alltoallv_impl(const void *sendbuf, const int *sendcounts,
                            const int *sdispls, MPI_Datatype sendtype,
                            void *recvbuf, const int *recvcounts,
                            const int *rdispls, MPI_Datatype recvtype,
                            MPI_Comm comm);
int reduce_impl(const void *sendbuf, void *recvbuf, int count,
                MPI_Datatype dt, MPI_Op op, int root, MPI_Comm comm);
int reduce_scatter_impl(const void *sendbuf, void *recvbuf,
                        const int *recvcounts, MPI_Datatype dt, MPI_Op op,
                        MPI_Comm comm);
int reduce_scatter_block_impl(const void *sendbuf, void *recvbuf,
                              int recvcount, MPI_Datatype dt, MPI_Op op,
                              MPI_Comm comm);
int gather_impl(const void *sendbuf, int sendcount, MPI_Datatype sendtype,
                void *recvbuf, int recvcount, MPI_Datatype recvtype, int root,
                MPI_Comm comm);
int gatherv_impl(const void *sendbuf, int sendcount, MPI_Datatype sendtype,
                 void *recvbuf, const int *recvcounts, const int *displs,
                 MPI_Datatype recvtype, int root, MPI_Comm comm);
int scatter_impl(const void *sendbuf, int sendcount, MPI_Datatype sendtype,
                 void *recvbuf, int recvcount, MPI_Datatype recvtype,
                 int root, MPI_Comm comm);
int allgather_impl(const void *sendbuf, int sendcount, MPI_Datatype sendtype,
                   void *recvbuf, int recvcount, MPI_Datatype recvtype,
                   MPI_Comm comm);
int comm_split_impl(MPI_Comm comm, int color, int key, MPI_Comm *newcomm);

} // namespace sysmpi
