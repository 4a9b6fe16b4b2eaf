#include "sysmpi/transport.hpp"

#include "sysmpi/netmodel.hpp"
#include "sysmpi/pack_baseline.hpp"
#include "vcuda/runtime.hpp"

#include <cassert>
#include <cstring>
#include <memory>

namespace sysmpi {

namespace {

bool is_gpu(const void *p) {
  return vcuda::memory_registry().space_of(p) == vcuda::MemorySpace::Device;
}

/// Write the outgoing message as contiguous wire bytes at `dst`: host
/// staging, or a posted receive's buffer. For contiguous data this is
/// free of *virtual* cost (the CUDA-aware wire model prices the transfer);
/// for non-contiguous data the baseline datatype engine runs and charges
/// its per-block costs (the slow Spectrum-like path).
///
/// Returns whether the wire source should be priced as GPU-resident.
bool write_wire(void *dst, const void *buf, int count, const Datatype &dt,
                std::size_t bytes) {
  if (bytes == 0) {
    return false;
  }
  if (dt.is_contiguous()) {
    std::memcpy(dst, buf, bytes); // wire cost priced by netmodel
    return is_gpu(buf);
  }
  baseline_pack(dst, buf, count, dt);
  // After the baseline engine, the packed bytes live in host memory; the
  // wire leg is a host-to-host transfer.
  return false;
}

/// The claimed receive's buffer if the sender may write the message into
/// it in place, else null (stage instead). The receive type must be
/// contiguous (dst set) and hold the message: a larger one reaches the
/// receive staged, to report truncation with its buffer untouched. The
/// baseline engine prices block copies by where the destination lives, so
/// a non-contiguous send packs in place only into host memory, where its
/// staging would have gone.
void *direct_dst(const Mailbox::Receive *r, std::size_t bytes,
                 const Datatype &dt) {
  if (r == nullptr || r->dst == nullptr || bytes > r->capacity) {
    return nullptr;
  }
  if (!dt.is_contiguous() && is_gpu(r->dst)) {
    return nullptr;
  }
  return r->dst;
}

/// Deliver staged host bytes into the user buffer, mirroring write_wire.
void unstage_recv(void *buf, const Datatype &dt, const std::byte *payload,
                  std::size_t bytes) {
  if (dt.is_contiguous()) {
    std::memcpy(buf, payload, bytes);
    return;
  }
  const int elems =
      static_cast<int>(bytes / static_cast<std::size_t>(dt.size));
  baseline_unpack(buf, payload, elems, dt);
}

} // namespace

bool valid_source(MPI_Comm comm, int source) {
  return source == MPI_ANY_SOURCE || source == MPI_PROC_NULL ||
         (source >= 0 && source < comm->size());
}

void proc_null_status(MPI_Status *status) {
  if (status != MPI_STATUS_IGNORE) {
    status->MPI_SOURCE = MPI_PROC_NULL;
    status->MPI_TAG = MPI_ANY_TAG;
    status->MPI_ERROR = MPI_SUCCESS;
    status->count_bytes = 0;
  }
}

namespace {

/// Stamp the departure of a message whose bytes are written: the sender's
/// host overhead, NIC injection (and, for eager inter-node messages, the
/// destination ejection reservation) and, for rendezvous, the blocking
/// wait for the wire. Pure pricing with no error path, so send_impl can
/// complete a receiver it claimed before the write right after this.
void price_departure(Envelope &e, World &world, int src_world,
                     int dst_world) {
  const NetParams &net = net_params();
  vcuda::Timeline &tl = vcuda::this_thread_timeline();
  e.src_node = world.node_of(src_world);
  e.rendezvous = e.bytes > net.eager_bytes;

  tl.advance(vcuda::us_to_ns(net.host_overhead_us));
  e.send_time = tl.now();

  const bool same_node = world.node_of(dst_world) == e.src_node;

  // Inter-node messages serialize on the source node's NIC injection port
  // (shared by all ranks of the node). The message "departs" when the port
  // accepts it.
  if (!same_node && e.bytes > 0) {
    // Occupancy is the wire time alone, priced with symmetric residency.
    const vcuda::VirtualNs wire =
        transfer_duration(net, e.bytes, e.src_gpu, e.src_gpu,
                          /*same_node=*/false) -
        vcuda::us_to_ns(e.src_gpu ? net.gpu_lat_inter_us
                                  : net.cpu_lat_inter_us);
    e.send_time = world.reserve_nic(e.src_node, src_world, e.send_time, wire);
    // The receive-side ejection port serializes at the same rate; carry the
    // residency so the receiver can price incast (see reserve_nic_eject).
    e.eject_ns = wire;
    // Eager transfers depart now, so their ejection-port arrival time is
    // already known: reserve the destination port here (the receiver
    // queries the settled queue when it completes — two-phase pricing,
    // see World::nic_eject_insert). Rendezvous starts depend on when the
    // receiver shows up, so those price at completion instead.
    if (!e.rendezvous) {
      const vcuda::VirtualNs latency = vcuda::us_to_ns(
          e.src_gpu ? net.gpu_lat_inter_us : net.cpu_lat_inter_us);
      e.eject_ready = e.send_time + latency;
      e.eject_reserved = true;
      world.nic_eject_insert(world.node_of(dst_world), e.eject_ready, wire);
    }
  }

  // A blocking standard-mode send of a large message cannot complete before
  // the wire does; estimate the wire leg with the destination residency
  // assumed symmetric to ours (the receiver re-prices precisely).
  if (e.rendezvous) {
    tl.wait_until(e.send_time +
                  transfer_duration(net, e.bytes, e.src_gpu, e.src_gpu,
                                    same_node));
  }
}

} // namespace

int send_impl(const void *buf, int count, MPI_Datatype dt, int dest, int tag,
              MPI_Comm comm) {
  if (dest == MPI_PROC_NULL) {
    return MPI_SUCCESS;
  }
  if (comm == nullptr || dt == nullptr || count < 0 || dest < 0 ||
      dest >= comm->size()) {
    return MPI_ERR_ARG;
  }
  assert(dt->committed && "send with uncommitted datatype");
  World &world = *comm->world;
  const int dst_world = comm->world_rank_of(dest);
  Mailbox &box = world.mailbox(dst_world);

  Envelope e;
  e.src_comm_rank = comm->my_rank;
  e.tag = tag;
  e.comm_id = comm->id;
  e.bytes = static_cast<std::size_t>(dt->size) * count;
  // A receive already posted for this message takes the bytes in its own
  // buffer (one copy); otherwise stage them, without zero-filling a buffer
  // that is overwritten whole. A claimed receive stays pending until
  // complete(), so nothing between the claim and it may return early.
  Mailbox::Receive *posted = box.claim(e.src_comm_rank, tag, comm->id);
  void *dst = direct_dst(posted, e.bytes, *dt);
  if (dst == nullptr) {
    e.payload = std::make_unique_for_overwrite<std::byte[]>(e.bytes);
    dst = e.payload.get();
  }
  e.src_gpu = write_wire(dst, buf, count, *dt, e.bytes);
  price_departure(e, world, comm->world_rank_of(comm->my_rank), dst_world);
  if (posted != nullptr) {
    box.complete(*posted, std::move(e));
  } else {
    box.deliver(std::move(e));
  }
  return MPI_SUCCESS;
}

namespace {

Mailbox &my_mailbox(MPI_Comm comm) {
  return comm->world->mailbox(comm->world_rank_of(comm->my_rank));
}

/// Complete a matched receive: advance virtual time and move a staged
/// payload into the user buffer (a direct one is there already).
int land_recv(void *buf, int count, MPI_Datatype dt, MPI_Comm comm,
              Envelope &e, MPI_Status *status) {
  const std::size_t expected = static_cast<std::size_t>(dt->size) * count;
  if (e.bytes > expected) {
    if (status != MPI_STATUS_IGNORE) {
      status->MPI_SOURCE = e.src_comm_rank;
      status->MPI_TAG = e.tag;
      status->MPI_ERROR = MPI_ERR_TRUNCATE;
      status->count_bytes = 0; // the buffer is left untouched
    }
    return MPI_ERR_TRUNCATE;
  }
  World &world = *comm->world;
  const NetParams &net = net_params();
  vcuda::Timeline &tl = vcuda::this_thread_timeline();

  // Destination wire residency: a non-contiguous type unpacks from host
  // staging; contiguous device buffers receive directly (CUDA-aware).
  const bool dst_gpu = dt->is_contiguous() && is_gpu(buf);
  const int my_node = world.node_of(comm->world_rank_of(comm->my_rank));
  const bool same_node = my_node == e.src_node;
  const vcuda::VirtualNs wire =
      transfer_duration(net, e.bytes, e.src_gpu, dst_gpu, same_node);

  tl.advance(vcuda::us_to_ns(net.host_overhead_us));
  // Rendezvous transfers start when both sides are ready; eager transfers
  // departed at send time and may already have arrived.
  const vcuda::VirtualNs start =
      e.rendezvous ? (tl.now() > e.send_time ? tl.now() : e.send_time)
                   : e.send_time;
  // Inter-node arrivals serialize on this node's NIC ejection port. The
  // message's first byte reaches the port one wire-minus-residency after
  // departure; queueing behind other nodes' concurrent arrivals (incast)
  // charges extra delay. A single sender's stream is already spaced by the
  // injection port, so it never queues here and prices exactly as before.
  vcuda::VirtualNs incast = 0;
  if (!same_node && e.eject_ns > 0) {
    // Eager messages were reserved at the sender under eject_ready (the
    // pricing then sees every concurrent arrival, not just the ones this
    // receiver has processed so far); rendezvous messages reserve here.
    incast = world.reserve_nic_eject(
        my_node, e.eject_reserved ? e.eject_ready : start + wire - e.eject_ns,
        e.eject_ns);
  }
  tl.wait_until(start + wire + incast);

  if (e.payload != nullptr && e.bytes > 0) {
    unstage_recv(buf, *dt, e.payload.get(), e.bytes);
  }

  if (status != MPI_STATUS_IGNORE) {
    status->MPI_SOURCE = e.src_comm_rank;
    status->MPI_TAG = e.tag;
    status->MPI_ERROR = MPI_SUCCESS;
    status->count_bytes = static_cast<long long>(e.bytes);
  }
  return MPI_SUCCESS;
}

} // namespace

int recv_impl(void *buf, int count, MPI_Datatype dt, int source, int tag,
              MPI_Comm comm, MPI_Status *status) {
  if (source == MPI_PROC_NULL) {
    proc_null_status(status);
    return MPI_SUCCESS;
  }
  Mailbox::Receive r;
  const int rc = post_recv(buf, count, dt, source, tag, comm, r);
  if (rc != MPI_SUCCESS) {
    return rc;
  }
  return finish_recv(buf, count, dt, comm, r, status);
}

int post_recv(void *buf, int count, MPI_Datatype dt, int source, int tag,
              MPI_Comm comm, Mailbox::Receive &r) {
  if (comm == nullptr || dt == nullptr || count < 0 ||
      source == MPI_PROC_NULL || !valid_source(comm, source)) {
    return MPI_ERR_ARG;
  }
  assert(dt->committed && "recv with uncommitted datatype");
  r.src = source;
  r.tag = tag;
  r.comm_id = comm->id;
  // Only a contiguous receive type can be filled in place by the sender.
  r.dst = dt->is_contiguous() ? buf : nullptr;
  r.capacity = static_cast<std::size_t>(dt->size) * count;
  r.env = Envelope{}; // a re-posted persistent receive drops the last one
  my_mailbox(comm).post(r);
  return MPI_SUCCESS;
}

bool recv_ready(MPI_Comm comm, Mailbox::Receive &r) {
  return my_mailbox(comm).test(r);
}

int finish_recv(void *buf, int count, MPI_Datatype dt, MPI_Comm comm,
                Mailbox::Receive &r, MPI_Status *status) {
  my_mailbox(comm).wait(r);
  return land_recv(buf, count, dt, comm, r.env, status);
}

void withdraw_recv(MPI_Comm comm, Mailbox::Receive &r) {
  my_mailbox(comm).withdraw(r);
  r.env = Envelope{};
}

} // namespace sysmpi
