// System MPI entry points (the functions a real libmpi.so would export).
//
// Each function validates arguments, then defers to the datatype engine
// (types.cpp), the point-to-point engine (transport.cpp), or the
// collectives (collectives.cpp). TEMPI reaches these through
// interpose::system_table().
#include "sysmpi/collectives.hpp"
#include "sysmpi/netmodel.hpp"
#include "sysmpi/pack_baseline.hpp"
#include "sysmpi/registration.hpp"
#include "sysmpi/transport.hpp"
#include "sysmpi/types.hpp"
#include "sysmpi/world.hpp"
#include "vcuda/clock.hpp"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace sysmpi {

namespace {

// --- environment -------------------------------------------------------------

int sys_Init(int *argc, char ***argv) {
  (void)argc;
  (void)argv;
  ensure_self_context();
  RankCtx &ctx = this_rank();
  ctx.initialized = true;
  ctx.thread_level = MPI_THREAD_SINGLE;
  ctx.thread_is_main = true;
  return MPI_SUCCESS;
}

int sys_Init_thread(int *argc, char ***argv, int required, int *provided) {
  (void)argc;
  (void)argv;
  if (required < MPI_THREAD_SINGLE || required > MPI_THREAD_MULTIPLE) {
    return MPI_ERR_ARG;
  }
  ensure_self_context();
  RankCtx &ctx = this_rank();
  ctx.initialized = true;
  // The engine is MULTIPLE-safe (mailboxes and NIC ports carry their own
  // locks), so every requested level is granted exactly.
  ctx.thread_level = required;
  ctx.thread_is_main = true;
  if (provided != nullptr) {
    *provided = ctx.thread_level;
  }
  return MPI_SUCCESS;
}

int sys_Query_thread(int *provided) {
  if (provided == nullptr) {
    return MPI_ERR_ARG;
  }
  *provided = this_rank().thread_level;
  return MPI_SUCCESS;
}

int sys_Is_thread_main(int *flag) {
  if (flag == nullptr) {
    return MPI_ERR_ARG;
  }
  *flag = this_rank().thread_is_main ? 1 : 0;
  return MPI_SUCCESS;
}

int sys_Finalize() {
  this_rank().finalized = true;
  return MPI_SUCCESS;
}

int sys_Initialized(int *flag) {
  if (flag == nullptr) {
    return MPI_ERR_ARG;
  }
  *flag = this_rank().initialized ? 1 : 0;
  return MPI_SUCCESS;
}

int sys_Comm_rank(MPI_Comm comm, int *rank) {
  if (comm == nullptr || rank == nullptr) {
    return MPI_ERR_ARG;
  }
  *rank = comm->my_rank;
  return MPI_SUCCESS;
}

int sys_Comm_size(MPI_Comm comm, int *size) {
  if (comm == nullptr || size == nullptr) {
    return MPI_ERR_ARG;
  }
  *size = comm->size();
  return MPI_SUCCESS;
}

int sys_Comm_free(MPI_Comm *comm) {
  if (comm == nullptr || *comm == nullptr) {
    return MPI_ERR_ARG;
  }
  if (*comm == this_rank().world_comm) {
    return MPI_ERR_ARG; // the world communicator cannot be freed
  }
  delete *comm;
  *comm = MPI_COMM_NULL;
  return MPI_SUCCESS;
}

int sys_Comm_split(MPI_Comm comm, int color, int key, MPI_Comm *newcomm) {
  return comm_split_impl(comm, color, key, newcomm);
}

int sys_Comm_dup(MPI_Comm comm, MPI_Comm *newcomm) {
  if (comm == nullptr || newcomm == nullptr) {
    return MPI_ERR_ARG;
  }
  // Collective; every rank consumes the same ordinal so the duplicated
  // communicator's id (and therefore its message space) matches.
  auto *c = new Comm(*comm);
  c->id = comm->id * 1000003ull + comm->next_child_ordinal++ * 7919ull;
  c->next_child_ordinal = 1;
  c->collective_seq = 0;
  *newcomm = c;
  return MPI_SUCCESS;
}

// --- datatype constructors ---------------------------------------------------

int sys_Type_contiguous(int count, MPI_Datatype oldtype,
                        MPI_Datatype *newtype) {
  if (count < 0 || oldtype == nullptr || newtype == nullptr) {
    return MPI_ERR_ARG;
  }
  *newtype = make_contiguous(count, oldtype);
  return MPI_SUCCESS;
}

int sys_Type_vector(int count, int blocklength, int stride,
                    MPI_Datatype oldtype, MPI_Datatype *newtype) {
  if (count < 0 || blocklength < 0 || oldtype == nullptr ||
      newtype == nullptr) {
    return MPI_ERR_ARG;
  }
  *newtype = make_vector(count, blocklength, stride, oldtype);
  return MPI_SUCCESS;
}

int sys_Type_create_hvector(int count, int blocklength, MPI_Aint stride,
                            MPI_Datatype oldtype, MPI_Datatype *newtype) {
  if (count < 0 || blocklength < 0 || oldtype == nullptr ||
      newtype == nullptr) {
    return MPI_ERR_ARG;
  }
  *newtype = make_hvector(count, blocklength, stride, oldtype);
  return MPI_SUCCESS;
}

int sys_Type_indexed(int count, const int *blocklengths,
                     const int *displacements, MPI_Datatype oldtype,
                     MPI_Datatype *newtype) {
  if (count < 0 || oldtype == nullptr || newtype == nullptr) {
    return MPI_ERR_ARG;
  }
  *newtype = make_indexed(count, blocklengths, displacements, oldtype);
  return MPI_SUCCESS;
}

int sys_Type_create_hindexed(int count, const int *blocklengths,
                             const MPI_Aint *displacements,
                             MPI_Datatype oldtype, MPI_Datatype *newtype) {
  if (count < 0 || oldtype == nullptr || newtype == nullptr) {
    return MPI_ERR_ARG;
  }
  *newtype = make_hindexed(count, blocklengths, displacements, oldtype);
  return MPI_SUCCESS;
}

int sys_Type_create_indexed_block(int count, int blocklength,
                                  const int *displacements,
                                  MPI_Datatype oldtype,
                                  MPI_Datatype *newtype) {
  if (count < 0 || blocklength < 0 || oldtype == nullptr ||
      newtype == nullptr) {
    return MPI_ERR_ARG;
  }
  *newtype = make_indexed_block(count, blocklength, displacements, oldtype);
  return MPI_SUCCESS;
}

int sys_Type_create_subarray(int ndims, const int *sizes, const int *subsizes,
                             const int *starts, int order,
                             MPI_Datatype oldtype, MPI_Datatype *newtype) {
  if (ndims < 1 || sizes == nullptr || subsizes == nullptr ||
      starts == nullptr || oldtype == nullptr || newtype == nullptr) {
    return MPI_ERR_ARG;
  }
  if (order != MPI_ORDER_C && order != MPI_ORDER_FORTRAN) {
    return MPI_ERR_ARG;
  }
  for (int d = 0; d < ndims; ++d) {
    if (subsizes[d] < 0 || sizes[d] < subsizes[d] || starts[d] < 0 ||
        starts[d] + subsizes[d] > sizes[d]) {
      return MPI_ERR_ARG;
    }
  }
  *newtype = make_subarray(ndims, sizes, subsizes, starts, order, oldtype);
  return MPI_SUCCESS;
}

int sys_Type_create_struct(int count, const int *blocklengths,
                           const MPI_Aint *displacements,
                           const MPI_Datatype *types, MPI_Datatype *newtype) {
  if (count < 0 || newtype == nullptr) {
    return MPI_ERR_ARG;
  }
  *newtype = make_struct(count, blocklengths, displacements, types);
  return MPI_SUCCESS;
}

int sys_Type_create_resized(MPI_Datatype oldtype, MPI_Aint lb, MPI_Aint extent,
                            MPI_Datatype *newtype) {
  if (oldtype == nullptr || newtype == nullptr) {
    return MPI_ERR_ARG;
  }
  *newtype = make_resized(oldtype, lb, extent);
  return MPI_SUCCESS;
}

int sys_Type_dup(MPI_Datatype oldtype, MPI_Datatype *newtype) {
  if (oldtype == nullptr || newtype == nullptr) {
    return MPI_ERR_ARG;
  }
  *newtype = make_dup(oldtype);
  return MPI_SUCCESS;
}

int sys_Type_commit(MPI_Datatype *datatype) {
  if (datatype == nullptr || *datatype == nullptr) {
    return MPI_ERR_ARG;
  }
  commit(*datatype);
  return MPI_SUCCESS;
}

int sys_Type_free(MPI_Datatype *datatype) {
  if (datatype == nullptr || *datatype == nullptr) {
    return MPI_ERR_ARG;
  }
  type_release(*datatype);
  *datatype = MPI_DATATYPE_NULL;
  return MPI_SUCCESS;
}

int sys_Type_size(MPI_Datatype datatype, int *size) {
  if (datatype == nullptr || size == nullptr) {
    return MPI_ERR_ARG;
  }
  *size = static_cast<int>(datatype->size);
  return MPI_SUCCESS;
}

int sys_Type_get_extent(MPI_Datatype datatype, MPI_Aint *lb,
                        MPI_Aint *extent) {
  if (datatype == nullptr || lb == nullptr || extent == nullptr) {
    return MPI_ERR_ARG;
  }
  *lb = datatype->lb;
  *extent = datatype->extent;
  return MPI_SUCCESS;
}

int sys_Type_get_true_extent(MPI_Datatype datatype, MPI_Aint *true_lb,
                             MPI_Aint *true_extent) {
  if (datatype == nullptr || true_lb == nullptr || true_extent == nullptr) {
    return MPI_ERR_ARG;
  }
  const BlockList &flat = datatype->flat_list();
  if (flat.blocks.empty()) {
    *true_lb = 0;
    *true_extent = 0;
    return MPI_SUCCESS;
  }
  long long lo = flat.blocks.front().offset;
  long long hi = lo;
  for (const Block &b : flat.blocks) {
    lo = std::min(lo, b.offset);
    hi = std::max(hi, b.offset + b.length);
  }
  *true_lb = lo;
  *true_extent = hi - lo;
  return MPI_SUCCESS;
}

int sys_Type_get_envelope(MPI_Datatype datatype, int *num_integers,
                          int *num_addresses, int *num_datatypes,
                          int *combiner) {
  if (datatype == nullptr || num_integers == nullptr ||
      num_addresses == nullptr || num_datatypes == nullptr ||
      combiner == nullptr) {
    return MPI_ERR_ARG;
  }
  *num_integers = static_cast<int>(datatype->ints.size());
  *num_addresses = static_cast<int>(datatype->aints.size());
  *num_datatypes = static_cast<int>(datatype->subtypes.size());
  *combiner = datatype->combiner;
  return MPI_SUCCESS;
}

int sys_Type_get_contents(MPI_Datatype datatype, int max_integers,
                          int max_addresses, int max_datatypes, int *integers,
                          MPI_Aint *addresses, MPI_Datatype *datatypes) {
  if (datatype == nullptr || datatype->combiner == MPI_COMBINER_NAMED) {
    return MPI_ERR_TYPE;
  }
  if (max_integers < static_cast<int>(datatype->ints.size()) ||
      max_addresses < static_cast<int>(datatype->aints.size()) ||
      max_datatypes < static_cast<int>(datatype->subtypes.size())) {
    return MPI_ERR_ARG;
  }
  for (std::size_t i = 0; i < datatype->ints.size(); ++i) {
    integers[i] = datatype->ints[i];
  }
  for (std::size_t i = 0; i < datatype->aints.size(); ++i) {
    addresses[i] = datatype->aints[i];
  }
  for (std::size_t i = 0; i < datatype->subtypes.size(); ++i) {
    // Per MPI, returned handles are new references the caller must free.
    type_retain(datatype->subtypes[i]);
    datatypes[i] = datatype->subtypes[i];
  }
  return MPI_SUCCESS;
}

// --- point-to-point ----------------------------------------------------------

int sys_Send(const void *buf, int count, MPI_Datatype datatype, int dest,
             int tag, MPI_Comm comm) {
  return send_impl(buf, count, datatype, dest, tag, comm);
}

int sys_Recv(void *buf, int count, MPI_Datatype datatype, int source, int tag,
             MPI_Comm comm, MPI_Status *status) {
  return recv_impl(buf, count, datatype, source, tag, comm, status);
}

int sys_Sendrecv(const void *sendbuf, int sendcount, MPI_Datatype sendtype,
                 int dest, int sendtag, void *recvbuf, int recvcount,
                 MPI_Datatype recvtype, int source, int recvtag, MPI_Comm comm,
                 MPI_Status *status) {
  // Sends are buffered, so send-then-receive cannot deadlock.
  const int rc = send_impl(sendbuf, sendcount, sendtype, dest, sendtag, comm);
  if (rc != MPI_SUCCESS) {
    return rc;
  }
  return recv_impl(recvbuf, recvcount, recvtype, source, recvtag, comm,
                   status);
}

} // namespace

/// Request object: sends complete eagerly at Isend time; receives are
/// posted to the mailbox at Irecv/Start time, so they match messages in
/// posting order, and completed at Wait/Test. Persistent requests
/// (MPI_Send_init / MPI_Recv_init) store the frozen call arguments and
/// toggle `active` across Start -> Wait/Test cycles instead of being
/// destroyed on completion; only MPI_Request_free retires them.
struct Request {
  enum class Kind {
    SendDone,
    Recv,
    PersistentSend,
    PersistentRecv,
  };
  Kind kind = Kind::SendDone;
  void *buf = nullptr;
  int count = 0;
  MPI_Datatype datatype = nullptr;
  int peer = MPI_ANY_SOURCE;
  int tag = MPI_ANY_TAG;
  MPI_Comm comm = nullptr;
  MPI_Status status{};
  bool active = false; ///< persistent only: armed by Start, cleared at
                       ///< completion
  bool posted = false; ///< `rx` is posted and not yet completed
  Mailbox::Receive rx; ///< the receive posted for this request
  [[nodiscard]] bool persistent() const {
    return kind == Kind::PersistentSend || kind == Kind::PersistentRecv;
  }
};

namespace {

int sys_Isend(const void *buf, int count, MPI_Datatype datatype, int dest,
              int tag, MPI_Comm comm, MPI_Request *request) {
  if (request == nullptr) {
    return MPI_ERR_ARG;
  }
  const int rc = send_impl(buf, count, datatype, dest, tag, comm);
  if (rc != MPI_SUCCESS) {
    return rc;
  }
  auto *r = new Request();
  r->kind = Request::Kind::SendDone;
  *request = r;
  return MPI_SUCCESS;
}

/// Post a receive request's receive. From MPI_PROC_NULL nothing is
/// posted: the request completes with the empty PROC_NULL status.
int post_request(Request &r) {
  if (r.peer == MPI_PROC_NULL) {
    proc_null_status(&r.status);
    return MPI_SUCCESS;
  }
  const int rc =
      post_recv(r.buf, r.count, r.datatype, r.peer, r.tag, r.comm, r.rx);
  r.posted = rc == MPI_SUCCESS;
  return rc;
}

/// Complete a receive request's posted receive into r.status, blocking
/// for its message if `block`. *flag reports completion; an erroneous
/// completion (truncation) completes too, with the code in MPI_ERROR.
int finish_request(Request &r, bool block, int *flag) {
  *flag = 1;
  if (!r.posted) {
    return MPI_SUCCESS;
  }
  if (!block && !recv_ready(r.comm, r.rx)) {
    *flag = 0;
    return MPI_SUCCESS;
  }
  r.posted = false;
  return finish_recv(r.buf, r.count, r.datatype, r.comm, r.rx, &r.status);
}

int sys_Irecv(void *buf, int count, MPI_Datatype datatype, int source, int tag,
              MPI_Comm comm, MPI_Request *request) {
  if (request == nullptr || comm == nullptr || !valid_source(comm, source)) {
    return MPI_ERR_ARG;
  }
  auto r = std::make_unique<Request>();
  r->kind = Request::Kind::Recv;
  r->buf = buf;
  r->count = count;
  r->datatype = datatype;
  r->peer = source;
  r->tag = tag;
  r->comm = comm;
  const int rc = post_request(*r);
  if (rc != MPI_SUCCESS) {
    return rc;
  }
  type_retain(datatype);
  *request = r.release();
  return MPI_SUCCESS;
}

void complete_request(MPI_Request *request, MPI_Status *status) {
  if (status != MPI_STATUS_IGNORE) {
    *status = (*request)->status;
  }
  if ((*request)->datatype != nullptr) {
    type_release((*request)->datatype);
  }
  delete *request;
  *request = MPI_REQUEST_NULL;
}

/// Complete a request (blocking for its message if `block`): a one-shot
/// request is freed, a persistent one toggled back to inactive. A
/// Wait/Test on an inactive persistent request completes immediately with
/// an empty status, per MPI.
int complete(MPI_Request *request, bool block, int *flag,
             MPI_Status *status) {
  Request &r = **request;
  if (r.persistent() && !r.active) {
    r.status = MPI_Status{}; // empty status: never armed or already done
  }
  const int rc = finish_request(r, block, flag);
  if (*flag == 0) {
    return MPI_SUCCESS;
  }
  if (!r.persistent()) {
    complete_request(request, status);
    return rc;
  }
  r.active = false;
  if (status != MPI_STATUS_IGNORE) {
    *status = r.status;
  }
  return rc;
}

int sys_Wait(MPI_Request *request, MPI_Status *status) {
  if (request == nullptr) {
    return MPI_ERR_ARG;
  }
  if (*request == MPI_REQUEST_NULL) {
    return MPI_SUCCESS;
  }
  int flag = 0;
  return complete(request, /*block=*/true, &flag, status);
}

int sys_Waitall(int count, MPI_Request *requests, MPI_Status *statuses) {
  if (count < 0 || (count > 0 && requests == nullptr)) {
    return MPI_ERR_ARG;
  }
  for (int i = 0; i < count; ++i) {
    MPI_Status *status =
        statuses == MPI_STATUSES_IGNORE ? MPI_STATUS_IGNORE : &statuses[i];
    const int rc = sys_Wait(&requests[i], status);
    if (rc != MPI_SUCCESS) {
      return rc;
    }
  }
  return MPI_SUCCESS;
}

int sys_Test(MPI_Request *request, int *flag, MPI_Status *status);

int sys_Waitany(int count, MPI_Request *requests, int *index,
                MPI_Status *status) {
  if (count < 0 || (count > 0 && requests == nullptr) || index == nullptr) {
    return MPI_ERR_ARG;
  }
  // Inactive persistent requests are ignored like null entries, per MPI;
  // otherwise a completed-and-disarmed channel would be "won" forever.
  bool any_active = false;
  for (int i = 0; i < count; ++i) {
    any_active = any_active ||
                 (requests[i] != MPI_REQUEST_NULL &&
                  !(requests[i]->persistent() && !requests[i]->active));
  }
  if (!any_active) {
    *index = MPI_UNDEFINED;
    return MPI_SUCCESS;
  }
  // Poll: completed sends return immediately; pending receives are tested
  // against the mailbox. A small virtual cost accrues per sweep.
  while (true) {
    for (int i = 0; i < count; ++i) {
      if (requests[i] == MPI_REQUEST_NULL ||
          (requests[i]->persistent() && !requests[i]->active)) {
        continue;
      }
      int flag = 0;
      const int rc = sys_Test(&requests[i], &flag, status);
      if (flag != 0) {
        *index = i;
        return rc;
      }
      if (rc != MPI_SUCCESS) {
        return rc;
      }
    }
    vcuda::this_thread_timeline().advance(100);
    std::this_thread::yield();
  }
}

int sys_Probe(int source, int tag, MPI_Comm comm, MPI_Status *status) {
  if (comm == nullptr || !valid_source(comm, source)) {
    return MPI_ERR_ARG;
  }
  if (source == MPI_PROC_NULL) {
    proc_null_status(status);
    return MPI_SUCCESS;
  }
  World &world = *comm->world;
  const Mailbox::PeekInfo info =
      world.mailbox(comm->world_rank_of(comm->my_rank))
          .peek(source, tag, comm->id);
  if (status != MPI_STATUS_IGNORE) {
    status->MPI_SOURCE = info.src_comm_rank;
    status->MPI_TAG = info.tag;
    status->MPI_ERROR = MPI_SUCCESS;
    status->count_bytes = static_cast<long long>(info.bytes);
  }
  return MPI_SUCCESS;
}

int sys_Iprobe(int source, int tag, MPI_Comm comm, int *flag,
               MPI_Status *status) {
  if (comm == nullptr || flag == nullptr || !valid_source(comm, source)) {
    return MPI_ERR_ARG;
  }
  if (source == MPI_PROC_NULL) {
    *flag = 1;
    proc_null_status(status);
    return MPI_SUCCESS;
  }
  World &world = *comm->world;
  Mailbox::PeekInfo info;
  if (!world.mailbox(comm->world_rank_of(comm->my_rank))
           .try_peek(source, tag, comm->id, info)) {
    *flag = 0;
    return MPI_SUCCESS;
  }
  *flag = 1;
  if (status != MPI_STATUS_IGNORE) {
    status->MPI_SOURCE = info.src_comm_rank;
    status->MPI_TAG = info.tag;
    status->MPI_ERROR = MPI_SUCCESS;
    status->count_bytes = static_cast<long long>(info.bytes);
  }
  return MPI_SUCCESS;
}

int sys_Test(MPI_Request *request, int *flag, MPI_Status *status) {
  if (request == nullptr || flag == nullptr) {
    return MPI_ERR_ARG;
  }
  if (*request == MPI_REQUEST_NULL) {
    *flag = 1;
    return MPI_SUCCESS;
  }
  return complete(request, /*block=*/false, flag, status);
}

// --- persistent requests and the remaining completion calls ------------------

int sys_Send_init(const void *buf, int count, MPI_Datatype datatype, int dest,
                  int tag, MPI_Comm comm, MPI_Request *request) {
  if (request == nullptr || comm == nullptr) {
    return MPI_ERR_ARG;
  }
  auto *r = new Request();
  r->kind = Request::Kind::PersistentSend;
  r->buf = const_cast<void *>(buf);
  r->count = count;
  r->datatype = datatype;
  type_retain(datatype);
  r->peer = dest;
  r->tag = tag;
  r->comm = comm;
  *request = r;
  return MPI_SUCCESS;
}

int sys_Recv_init(void *buf, int count, MPI_Datatype datatype, int source,
                  int tag, MPI_Comm comm, MPI_Request *request) {
  if (request == nullptr || comm == nullptr || !valid_source(comm, source)) {
    return MPI_ERR_ARG;
  }
  auto *r = new Request();
  r->kind = Request::Kind::PersistentRecv;
  r->buf = buf;
  r->count = count;
  r->datatype = datatype;
  type_retain(datatype);
  r->peer = source;
  r->tag = tag;
  r->comm = comm;
  *request = r;
  return MPI_SUCCESS;
}

int sys_Start(MPI_Request *request) {
  if (request == nullptr || *request == MPI_REQUEST_NULL) {
    return MPI_ERR_ARG;
  }
  Request &r = **request;
  if (!r.persistent() || r.active) {
    return MPI_ERR_ARG; // not a persistent request, or already armed
  }
  // Sends are buffered: the transfer completes eagerly at Start, exactly
  // like sys_Isend; Wait/Test merely disarm the request. Receives are
  // posted now, like sys_Irecv's.
  const int rc =
      r.kind == Request::Kind::PersistentSend
          ? send_impl(r.buf, r.count, r.datatype, r.peer, r.tag, r.comm)
          : post_request(r);
  if (rc != MPI_SUCCESS) {
    return rc;
  }
  r.active = true;
  return MPI_SUCCESS;
}

int sys_Startall(int count, MPI_Request *requests) {
  if (count < 0 || (count > 0 && requests == nullptr)) {
    return MPI_ERR_ARG;
  }
  for (int i = 0; i < count; ++i) {
    const int rc = sys_Start(&requests[i]);
    if (rc != MPI_SUCCESS) {
      return rc;
    }
  }
  return MPI_SUCCESS;
}

int sys_Request_free(MPI_Request *request) {
  if (request == nullptr || *request == MPI_REQUEST_NULL) {
    return MPI_ERR_ARG;
  }
  // Sends (persistent or not) completed eagerly at Start/Isend time, and a
  // pending or armed receive is withdrawn without waiting for a matching
  // message: freeing must not hang on a sender that never comes. It waits
  // only for a sender that is already writing into the receive buffer.
  Request &r = **request;
  if (r.posted) {
    withdraw_recv(r.comm, r.rx);
  }
  if (r.datatype != nullptr) {
    type_release(r.datatype);
  }
  delete *request;
  *request = MPI_REQUEST_NULL;
  return MPI_SUCCESS;
}

int sys_Testall(int count, MPI_Request *requests, int *flag,
                MPI_Status *statuses) {
  if (count < 0 || (count > 0 && requests == nullptr) || flag == nullptr) {
    return MPI_ERR_ARG;
  }
  // Each entry is tested (and, when complete, retired) individually;
  // statuses land per entry as completions happen, so by the time *flag
  // rises every slot is filled. Entries that are already done — null
  // slots and disarmed persistent requests — count as complete WITHOUT
  // touching their status slot, so a status written by the poll that
  // actually completed the entry survives later flag=0 polls.
  int done = 0;
  for (int i = 0; i < count; ++i) {
    if (requests[i] == MPI_REQUEST_NULL ||
        (requests[i]->persistent() && !requests[i]->active)) {
      ++done;
      continue;
    }
    MPI_Status *status =
        statuses == MPI_STATUSES_IGNORE ? MPI_STATUS_IGNORE : &statuses[i];
    int f = 0;
    const int rc = sys_Test(&requests[i], &f, status);
    if (rc != MPI_SUCCESS) {
      return rc;
    }
    done += f;
  }
  *flag = done == count ? 1 : 0;
  return MPI_SUCCESS;
}

int sys_Testany(int count, MPI_Request *requests, int *index, int *flag,
                MPI_Status *status) {
  if (count < 0 || (count > 0 && requests == nullptr) || index == nullptr ||
      flag == nullptr) {
    return MPI_ERR_ARG;
  }
  bool any_active = false;
  for (int i = 0; i < count; ++i) {
    if (requests[i] == MPI_REQUEST_NULL ||
        (requests[i]->persistent() && !requests[i]->active)) {
      continue; // inactive persistent requests are ignored, per MPI —
                // reporting them as completions would livelock drain loops
    }
    any_active = true;
    int f = 0;
    const int rc = sys_Test(&requests[i], &f, status);
    if (f != 0) {
      *index = i;
      *flag = 1;
      return rc;
    }
    if (rc != MPI_SUCCESS) {
      return rc;
    }
  }
  *index = MPI_UNDEFINED;
  *flag = any_active ? 0 : 1;
  return MPI_SUCCESS;
}

int sys_Testsome(int incount, MPI_Request *requests, int *outcount,
                 int *indices, MPI_Status *statuses) {
  if (incount < 0 || (incount > 0 && requests == nullptr) ||
      outcount == nullptr || indices == nullptr) {
    return MPI_ERR_ARG;
  }
  bool any_active = false;
  int done = 0;
  for (int i = 0; i < incount; ++i) {
    if (requests[i] == MPI_REQUEST_NULL ||
        (requests[i]->persistent() && !requests[i]->active)) {
      continue; // inactive persistent: ignored, per MPI (see sys_Testany)
    }
    any_active = true;
    MPI_Status *status = statuses == MPI_STATUSES_IGNORE
                             ? MPI_STATUS_IGNORE
                             : &statuses[done];
    int f = 0;
    const int rc = sys_Test(&requests[i], &f, status);
    if (f != 0) {
      indices[done++] = i;
    }
    if (rc != MPI_SUCCESS) {
      *outcount = done;
      return rc;
    }
  }
  *outcount = any_active ? done : MPI_UNDEFINED;
  return MPI_SUCCESS;
}

int sys_Waitsome(int incount, MPI_Request *requests, int *outcount,
                 int *indices, MPI_Status *statuses) {
  if (incount < 0 || (incount > 0 && requests == nullptr) ||
      outcount == nullptr || indices == nullptr) {
    return MPI_ERR_ARG;
  }
  // Poll sweeps until at least one request completes (mirroring
  // sys_Waitany), returning every completion the successful sweep found.
  while (true) {
    const int rc = sys_Testsome(incount, requests, outcount, indices,
                                statuses);
    if (rc != MPI_SUCCESS) {
      return rc;
    }
    if (*outcount == MPI_UNDEFINED || *outcount > 0) {
      return MPI_SUCCESS;
    }
    vcuda::this_thread_timeline().advance(100);
    std::this_thread::yield();
  }
}

// --- collectives --------------------------------------------------------------

int sys_Barrier(MPI_Comm comm) { return barrier_impl(comm); }

int sys_Bcast(void *buffer, int count, MPI_Datatype datatype, int root,
              MPI_Comm comm) {
  return bcast_impl(buffer, count, datatype, root, comm);
}

int sys_Allreduce(const void *sendbuf, void *recvbuf, int count,
                  MPI_Datatype datatype, MPI_Op op, MPI_Comm comm) {
  return allreduce_impl(sendbuf, recvbuf, count, datatype, op, comm);
}

int sys_Reduce(const void *sendbuf, void *recvbuf, int count,
               MPI_Datatype datatype, MPI_Op op, int root, MPI_Comm comm) {
  return reduce_impl(sendbuf, recvbuf, count, datatype, op, root, comm);
}

int sys_Reduce_scatter(const void *sendbuf, void *recvbuf,
                       const int *recvcounts, MPI_Datatype datatype, MPI_Op op,
                       MPI_Comm comm) {
  return reduce_scatter_impl(sendbuf, recvbuf, recvcounts, datatype, op, comm);
}

int sys_Reduce_scatter_block(const void *sendbuf, void *recvbuf, int recvcount,
                             MPI_Datatype datatype, MPI_Op op, MPI_Comm comm) {
  return reduce_scatter_block_impl(sendbuf, recvbuf, recvcount, datatype, op,
                                   comm);
}

int sys_Gather(const void *sendbuf, int sendcount, MPI_Datatype sendtype,
               void *recvbuf, int recvcount, MPI_Datatype recvtype, int root,
               MPI_Comm comm) {
  return gather_impl(sendbuf, sendcount, sendtype, recvbuf, recvcount,
                     recvtype, root, comm);
}

int sys_Gatherv(const void *sendbuf, int sendcount, MPI_Datatype sendtype,
                void *recvbuf, const int *recvcounts, const int *displs,
                MPI_Datatype recvtype, int root, MPI_Comm comm) {
  return gatherv_impl(sendbuf, sendcount, sendtype, recvbuf, recvcounts,
                      displs, recvtype, root, comm);
}

int sys_Scatter(const void *sendbuf, int sendcount, MPI_Datatype sendtype,
                void *recvbuf, int recvcount, MPI_Datatype recvtype, int root,
                MPI_Comm comm) {
  return scatter_impl(sendbuf, sendcount, sendtype, recvbuf, recvcount,
                      recvtype, root, comm);
}

int sys_Allgather(const void *sendbuf, int sendcount, MPI_Datatype sendtype,
                  void *recvbuf, int recvcount, MPI_Datatype recvtype,
                  MPI_Comm comm) {
  return allgather_impl(sendbuf, sendcount, sendtype, recvbuf, recvcount,
                        recvtype, comm);
}

int sys_Alltoallv(const void *sendbuf, const int *sendcounts,
                  const int *sdispls, MPI_Datatype sendtype, void *recvbuf,
                  const int *recvcounts, const int *rdispls,
                  MPI_Datatype recvtype, MPI_Comm comm) {
  return alltoallv_impl(sendbuf, sendcounts, sdispls, sendtype, recvbuf,
                        recvcounts, rdispls, recvtype, comm);
}

int sys_Dist_graph_create_adjacent(MPI_Comm comm_old, int indegree,
                                   const int *sources,
                                   const int *sourceweights, int outdegree,
                                   const int *destinations,
                                   const int *destweights, int info,
                                   int reorder, MPI_Comm *comm_dist_graph) {
  return dist_graph_create_adjacent_impl(comm_old, indegree, sources,
                                         sourceweights, outdegree,
                                         destinations, destweights, info,
                                         reorder, comm_dist_graph);
}

int sys_Cart_create(MPI_Comm comm_old, int ndims, const int *dims,
                    const int *periods, int reorder, MPI_Comm *comm_cart) {
  return cart_create_impl(comm_old, ndims, dims, periods, reorder, comm_cart);
}

int sys_Cart_coords(MPI_Comm comm, int rank, int maxdims, int *coords) {
  return cart_coords_impl(comm, rank, maxdims, coords);
}

int sys_Cart_rank(MPI_Comm comm, const int *coords, int *rank) {
  return cart_rank_impl(comm, coords, rank);
}

int sys_Cart_shift(MPI_Comm comm, int direction, int disp, int *rank_source,
                   int *rank_dest) {
  return cart_shift_impl(comm, direction, disp, rank_source, rank_dest);
}

int sys_Neighbor_alltoallv(const void *sendbuf, const int *sendcounts,
                           const int *sdispls, MPI_Datatype sendtype,
                           void *recvbuf, const int *recvcounts,
                           const int *rdispls, MPI_Datatype recvtype,
                           MPI_Comm comm) {
  return neighbor_alltoallv_impl(sendbuf, sendcounts, sdispls, sendtype,
                                 recvbuf, recvcounts, rdispls, recvtype, comm);
}

// --- pack/unpack ---------------------------------------------------------------

int sys_Pack(const void *inbuf, int incount, MPI_Datatype datatype,
             void *outbuf, int outsize, int *position, MPI_Comm comm) {
  (void)comm;
  if (datatype == nullptr || position == nullptr || incount < 0) {
    return MPI_ERR_ARG;
  }
  if (!datatype->committed) {
    return MPI_ERR_TYPE;
  }
  const long long needed = datatype->size * incount;
  if (*position + needed > outsize) {
    return MPI_ERR_TRUNCATE;
  }
  auto *out = static_cast<std::byte *>(outbuf) + *position;
  baseline_pack(out, inbuf, incount, *datatype);
  *position += static_cast<int>(needed);
  return MPI_SUCCESS;
}

int sys_Unpack(const void *inbuf, int insize, int *position, void *outbuf,
               int outcount, MPI_Datatype datatype, MPI_Comm comm) {
  (void)comm;
  if (datatype == nullptr || position == nullptr || outcount < 0) {
    return MPI_ERR_ARG;
  }
  if (!datatype->committed) {
    return MPI_ERR_TYPE;
  }
  const long long needed = datatype->size * outcount;
  if (*position + needed > insize) {
    return MPI_ERR_TRUNCATE;
  }
  const auto *in = static_cast<const std::byte *>(inbuf) + *position;
  baseline_unpack(outbuf, in, outcount, *datatype);
  *position += static_cast<int>(needed);
  return MPI_SUCCESS;
}

int sys_Pack_size(int incount, MPI_Datatype datatype, MPI_Comm comm,
                  int *size) {
  (void)comm;
  if (datatype == nullptr || size == nullptr || incount < 0) {
    return MPI_ERR_ARG;
  }
  *size = static_cast<int>(datatype->size * incount);
  return MPI_SUCCESS;
}

int sys_Get_count(const MPI_Status *status, MPI_Datatype datatype,
                  int *count) {
  if (status == nullptr || datatype == nullptr || count == nullptr) {
    return MPI_ERR_ARG;
  }
  if (datatype->size == 0) {
    *count = 0;
    return MPI_SUCCESS;
  }
  *count = static_cast<int>(status->count_bytes / datatype->size);
  return MPI_SUCCESS;
}

} // namespace

interpose::MpiTable make_system_table() {
  interpose::MpiTable t;
  t.Init = sys_Init;
  t.Init_thread = sys_Init_thread;
  t.Finalize = sys_Finalize;
  t.Initialized = sys_Initialized;
  t.Query_thread = sys_Query_thread;
  t.Is_thread_main = sys_Is_thread_main;
  t.Comm_rank = sys_Comm_rank;
  t.Comm_size = sys_Comm_size;
  t.Comm_free = sys_Comm_free;
  t.Comm_split = sys_Comm_split;
  t.Comm_dup = sys_Comm_dup;
  t.Type_contiguous = sys_Type_contiguous;
  t.Type_vector = sys_Type_vector;
  t.Type_create_hvector = sys_Type_create_hvector;
  t.Type_indexed = sys_Type_indexed;
  t.Type_create_hindexed = sys_Type_create_hindexed;
  t.Type_create_indexed_block = sys_Type_create_indexed_block;
  t.Type_create_subarray = sys_Type_create_subarray;
  t.Type_create_struct = sys_Type_create_struct;
  t.Type_create_resized = sys_Type_create_resized;
  t.Type_dup = sys_Type_dup;
  t.Type_commit = sys_Type_commit;
  t.Type_free = sys_Type_free;
  t.Type_size = sys_Type_size;
  t.Type_get_extent = sys_Type_get_extent;
  t.Type_get_true_extent = sys_Type_get_true_extent;
  t.Type_get_envelope = sys_Type_get_envelope;
  t.Type_get_contents = sys_Type_get_contents;
  t.Send = sys_Send;
  t.Recv = sys_Recv;
  t.Sendrecv = sys_Sendrecv;
  t.Isend = sys_Isend;
  t.Irecv = sys_Irecv;
  t.Wait = sys_Wait;
  t.Waitall = sys_Waitall;
  t.Waitany = sys_Waitany;
  t.Waitsome = sys_Waitsome;
  t.Test = sys_Test;
  t.Testall = sys_Testall;
  t.Testany = sys_Testany;
  t.Testsome = sys_Testsome;
  t.Send_init = sys_Send_init;
  t.Recv_init = sys_Recv_init;
  t.Start = sys_Start;
  t.Startall = sys_Startall;
  t.Request_free = sys_Request_free;
  t.Probe = sys_Probe;
  t.Iprobe = sys_Iprobe;
  t.Barrier = sys_Barrier;
  t.Bcast = sys_Bcast;
  t.Allreduce = sys_Allreduce;
  t.Reduce = sys_Reduce;
  t.Reduce_scatter = sys_Reduce_scatter;
  t.Reduce_scatter_block = sys_Reduce_scatter_block;
  t.Gather = sys_Gather;
  t.Gatherv = sys_Gatherv;
  t.Scatter = sys_Scatter;
  t.Allgather = sys_Allgather;
  t.Alltoallv = sys_Alltoallv;
  t.Dist_graph_create_adjacent = sys_Dist_graph_create_adjacent;
  t.Cart_create = sys_Cart_create;
  t.Cart_coords = sys_Cart_coords;
  t.Cart_rank = sys_Cart_rank;
  t.Cart_shift = sys_Cart_shift;
  t.Neighbor_alltoallv = sys_Neighbor_alltoallv;
  t.Pack = sys_Pack;
  t.Unpack = sys_Unpack;
  t.Pack_size = sys_Pack_size;
  t.Get_count = sys_Get_count;
  return t;
}

} // namespace sysmpi

// --- non-interposable functions ------------------------------------------------

double MPI_Wtime() {
  return vcuda::ns_to_s(vcuda::virtual_now());
}

int MPI_Abort(MPI_Comm comm, int errorcode) {
  (void)comm;
  std::fprintf(stderr, "MPI_Abort with error code %d\n", errorcode);
  std::abort();
}
