// Internal point-to-point engine used by the MPI_* implementations and the
// collectives. These functions are *not* interposable: they are the system
// MPI's internals, just as calls inside a real libmpi.so do not route back
// through the dynamic linker's interposition.
#pragma once

#include "sysmpi/types.hpp"
#include "sysmpi/world.hpp"

namespace sysmpi {

/// Is `source` legal for a receive or probe on `comm`: MPI_ANY_SOURCE,
/// MPI_PROC_NULL or a rank of the communicator?
bool valid_source(MPI_Comm comm, int source);

/// Fill `status` (if non-null) for a receive or probe from MPI_PROC_NULL,
/// which completes at once with an empty message.
void proc_null_status(MPI_Status *status);

/// Blocking standard-mode send of count*dt from buf to `dest` (comm rank).
int send_impl(const void *buf, int count, MPI_Datatype dt, int dest, int tag,
              MPI_Comm comm);

/// Blocking receive into count*dt at buf from `source` (comm rank or
/// MPI_ANY_SOURCE). Fills `status` if non-null.
int recv_impl(void *buf, int count, MPI_Datatype dt, int source, int tag,
              MPI_Comm comm, MPI_Status *status);

/// Non-blocking receive attempt; returns true (and fills status) if a
/// matching message was already available.
bool try_recv_impl(void *buf, int count, MPI_Datatype dt, int source, int tag,
                   MPI_Comm comm, MPI_Status *status);

} // namespace sysmpi
