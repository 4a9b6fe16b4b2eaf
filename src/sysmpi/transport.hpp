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

/// Post a receive into count*dt at buf from `source` (comm rank or
/// MPI_ANY_SOURCE, not MPI_PROC_NULL) on the caller's mailbox, so it
/// matches messages ahead of every receive posted after it. `r` must stay
/// alive until finish_recv completes it or withdraw_recv returns.
int post_recv(void *buf, int count, MPI_Datatype dt, int source, int tag,
              MPI_Comm comm, Mailbox::Receive &r);

/// Whether the posted receive `r` holds its message (never blocks).
bool recv_ready(MPI_Comm comm, Mailbox::Receive &r);

/// Complete the posted receive `r` with the arguments it was posted with,
/// blocking until its message arrives: prices the transfer, delivers the
/// bytes and fills `status` if non-null. A message larger than the buffer
/// leaves it untouched and returns MPI_ERR_TRUNCATE, also in MPI_ERROR.
int finish_recv(void *buf, int count, MPI_Datatype dt, MPI_Comm comm,
                Mailbox::Receive &r, MPI_Status *status);

/// Withdraw a posted receive that will not be completed (a message
/// already matched to it is dropped).
void withdraw_recv(MPI_Comm comm, Mailbox::Receive &r);

} // namespace sysmpi
