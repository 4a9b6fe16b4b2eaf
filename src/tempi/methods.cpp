#include "tempi/methods.hpp"

#include "sysmpi/mpi.hpp"
#include "tempi/trace.hpp"

#include <algorithm>
#include <functional>

namespace tempi {

vcuda::MemorySpace intermediate_space(Method m) {
  switch (m) {
  case Method::Device:
  case Method::Pipelined: return vcuda::MemorySpace::Device;
  case Method::OneShot:
  case Method::Staged: return vcuda::MemorySpace::Pinned;
  }
  return vcuda::MemorySpace::Device;
}

namespace {

/// Size the pipeline for `count` objects; rejects packs the single wire
/// leg cannot express rather than wrapping. The limit is injectable
/// (wire_chunk_limit) so tests can exercise the rejection — and the
/// Pipelined method's multi-leg alternative — without gigabyte payloads.
int size_pipeline(const Packer &packer, int count, PackPipeline *pipe) {
  pipe->bytes = packer.packed_bytes(count);
  return pipe->bytes > wire_chunk_limit() ? MPI_ERR_COUNT : MPI_SUCCESS;
}

} // namespace

int start_pack(const Packer &packer, Method m, const void *buf, int count,
               vcuda::StreamHandle stream, PackPipeline *pipe) {
  if (m == Method::Pipelined) {
    return MPI_ERR_OTHER; // chunked transfers use send_legs/LegRecv
  }
  if (const int rc = size_pipeline(packer, count, pipe); rc != MPI_SUCCESS) {
    return rc;
  }
  const std::size_t bytes = pipe->bytes;

  if (m == Method::Device || m == Method::OneShot) {
    // Device: pack in device memory, hand the device buffer to CUDA-aware
    // MPI. OneShot: pack straight into mapped host memory through
    // zero-copy stores, then a plain host-to-host MPI transfer.
    {
      trace::ScopedSpan lease(trace::Phase::LeaseAcquire, trace::OpKind::None,
                              bytes);
      pipe->wire = lease_buffer(intermediate_space(m), bytes);
    }
    if (lease_failed(pipe->wire, bytes)) {
      return MPI_ERR_OTHER;
    }
    return packer.pack_async(pipe->wire.get(), buf, count, stream) ==
                   vcuda::Error::Success
               ? MPI_SUCCESS
               : MPI_ERR_OTHER;
  }

  // Staged: pack in device memory, copy down to pinned host, send from host.
  {
    trace::ScopedSpan lease(trace::Phase::LeaseAcquire, trace::OpKind::None,
                            bytes);
    pipe->stage = lease_buffer(vcuda::MemorySpace::Device, bytes);
    pipe->wire = lease_buffer(vcuda::MemorySpace::Pinned, bytes);
  }
  if (lease_failed(pipe->stage, bytes) || lease_failed(pipe->wire, bytes)) {
    return MPI_ERR_OTHER;
  }
  if (packer.pack_async(pipe->stage.get(), buf, count, stream) !=
      vcuda::Error::Success) {
    return MPI_ERR_OTHER;
  }
  vcuda::MemcpyAsync(pipe->wire.get(), pipe->stage.get(), bytes,
                     vcuda::MemcpyKind::DeviceToHost, stream);
  return MPI_SUCCESS;
}

int start_recv(const Packer &packer, Method m, int count, PackPipeline *pipe) {
  if (m == Method::Pipelined) {
    return MPI_ERR_OTHER; // chunked transfers use send_legs/LegRecv
  }
  if (const int rc = size_pipeline(packer, count, pipe); rc != MPI_SUCCESS) {
    return rc;
  }
  {
    trace::ScopedSpan lease(trace::Phase::LeaseAcquire, trace::OpKind::None,
                            pipe->bytes);
    pipe->wire = lease_buffer(intermediate_space(m), pipe->bytes);
  }
  if (lease_failed(pipe->wire, pipe->bytes)) {
    return MPI_ERR_OTHER;
  }
  return MPI_SUCCESS;
}

int start_unpack(const Packer &packer, Method m, void *buf, int count,
                 PackPipeline &pipe, vcuda::StreamHandle stream) {
  const std::size_t bytes = pipe.bytes;
  const void *unpack_src = pipe.wire.get();
  if (m == Method::Staged) {
    // Staged only: lift the wire bytes back to device memory first.
    {
      trace::ScopedSpan lease(trace::Phase::LeaseAcquire, trace::OpKind::None,
                              bytes);
      pipe.stage = lease_buffer(vcuda::MemorySpace::Device, bytes);
    }
    if (lease_failed(pipe.stage, bytes)) {
      return MPI_ERR_OTHER;
    }
    vcuda::MemcpyAsync(pipe.stage.get(), pipe.wire.get(), bytes,
                       vcuda::MemcpyKind::HostToDevice, stream);
    unpack_src = pipe.stage.get();
  }
  return packer.unpack_async(buf, unpack_src, count, stream) ==
                 vcuda::Error::Success
             ? MPI_SUCCESS
             : MPI_ERR_OTHER;
}

int send_with_method(const Packer &packer, Method m, const void *buf,
                     int count, int dest, int tag, MPI_Comm comm,
                     const interpose::MpiTable &next) {
  if (m == Method::Pipelined) {
    return send_legs(PackLegs{packer, buf, count, 0}, dest, tag, comm, next);
  }
  // Pool streams keep this message's legs off the default stream, so it
  // neither waits for nor delays unrelated work enqueued there.
  vcuda::StreamHandle stream = vcuda::next_pool_stream();
  const auto blk = static_cast<std::size_t>(packer.wire_block_bytes());
  PackPipeline pipe;
  {
    trace::ScopedSpan span(trace::Phase::PackLaunch, trace::OpKind::Send, 0,
                           dest, tag, static_cast<std::int8_t>(m));
    // Harvest the measured pack duration for the tuner (Staged packs into
    // device staging and then copies D2H inside start_pack, so its span
    // is not a clean kernel sample — skip it).
    tune::ScopedObservation obs(m == Method::OneShot
                                    ? tune::Axis::OneshotPack
                                    : tune::Axis::DevicePack,
                                blk, 0, m != Method::Staged);
    const int rc = start_pack(packer, m, buf, count, stream, &pipe);
    if (rc != MPI_SUCCESS) {
      return rc;
    }
    span.set_bytes(pipe.bytes);
    obs.set_total(pipe.bytes);
    vcuda::StreamSynchronize(stream);
  }
  trace::ScopedSpan wire(trace::Phase::Wire, trace::OpKind::Send, pipe.bytes,
                         dest, tag, static_cast<std::int8_t>(m));
  // Sender-side wire durations are only trustworthy for rendezvous-sized
  // payloads (wire_observable); the Device method rides the CUDA-aware
  // wire, the host-intermediate methods ride the CPU wire.
  tune::ScopedObservation obs(m == Method::Device ? tune::Axis::GpuWire
                                                  : tune::Axis::CpuWire,
                              0, pipe.bytes,
                              tune::wire_observable(pipe.bytes));
  return next.Send(pipe.wire.get(), pipe.wire_count(), MPI_BYTE, dest, tag,
                   comm);
}

int recv_with_method(const Packer &packer, Method m, void *buf, int count,
                     int source, int tag, MPI_Comm comm, MPI_Status *status,
                     const interpose::MpiTable &next) {
  if (m == Method::Pipelined) {
    LegRecv legs(packer, buf, count, source, tag, comm);
    const int rc = legs.finish(next);
    // Drain the enqueued unpack legs on the error path too, before the
    // chunk leases return to the cache.
    legs.synchronize();
    if (rc != MPI_SUCCESS) {
      return rc;
    }
    legs.fill_status(status);
    return MPI_SUCCESS;
  }
  vcuda::StreamHandle stream = vcuda::next_pool_stream();
  PackPipeline pipe;
  const int rrc = start_recv(packer, m, count, &pipe);
  if (rrc != MPI_SUCCESS) {
    // A failed lease must not proceed into the transfer: next.Recv would
    // land wire bytes in a null buffer.
    return rrc;
  }
  MPI_Status wire_status;
  int rc;
  {
    trace::ScopedSpan span(trace::Phase::Wire, trace::OpKind::Recv, pipe.bytes,
                           source, tag, static_cast<std::int8_t>(m));
    rc = next.Recv(pipe.wire.get(), pipe.wire_count(), MPI_BYTE, source, tag,
                   comm, &wire_status);
  }
  if (rc != MPI_SUCCESS) {
    return rc;
  }
  trace::ScopedSpan span(trace::Phase::Unpack, trace::OpKind::Recv, pipe.bytes,
                         source, tag, static_cast<std::int8_t>(m));
  tune::ScopedObservation obs(m == Method::OneShot
                                  ? tune::Axis::OneshotUnpack
                                  : tune::Axis::DeviceUnpack,
                              static_cast<std::size_t>(
                                  packer.wire_block_bytes()),
                              pipe.bytes, m != Method::Staged);
  const int urc = start_unpack(packer, m, buf, count, pipe, stream);
  // Synchronize on the error path too: start_unpack may have enqueued the
  // staged H2D copy before failing, and the pipeline's buffers must not
  // return to the cache while stream work still references them.
  vcuda::StreamSynchronize(stream);
  if (urc != MPI_SUCCESS) {
    obs.disarm(); // a failed unpack is not a duration sample
    return urc;
  }
  if (status != MPI_STATUS_IGNORE) {
    *status = wire_status;
    // Report the logical element count, not the wire byte count.
    status->count_bytes = static_cast<long long>(packer.packed_bytes(count));
  }
  return MPI_SUCCESS;
}


// --- the Pipelined (chunked) method ------------------------------------------

namespace {

/// Process-wide Pipelined counters, registered as tempi.pipeline.*.
struct PipelineCounters {
  trace::Counter sends{"tempi.pipeline.sends"};  ///< pipelined sends
  trace::Counter recvs{"tempi.pipeline.recvs"};  ///< pipelined receives
  /// Wire legs issued (both sides, terminators included).
  trace::Counter chunks{"tempi.pipeline.chunks"};
  /// Packed bytes carried by sends larger than the wire-chunk limit —
  /// traffic that used to fail with MPI_ERR_COUNT.
  trace::Counter over_ceiling_bytes{"tempi.pipeline.over_ceiling_bytes"};
};

PipelineCounters &pipeline_counters() {
  static PipelineCounters c;
  return c;
}

} // namespace

int plan_pipeline_frame(std::size_t block_bytes, long long blocks,
                        std::size_t chunk_target, PipelineFrame *frame) {
  const std::size_t limit = wire_chunk_limit();
  if (block_bytes == 0 || blocks < 0) {
    return MPI_ERR_ARG;
  }
  if (block_bytes > limit) {
    // Legs split at block (dimension-0 row) boundaries; one contiguous
    // block beyond the wire limit keeps the historical rejection.
    return MPI_ERR_COUNT;
  }
  if (const std::size_t o = chunk_bytes_override(); o != 0) {
    chunk_target = o; // TEMPI_CHUNK_BYTES is authoritative
  } else if (chunk_target == 0) {
    chunk_target =
        fallback_chunk_bytes(block_bytes * static_cast<std::size_t>(blocks));
  }
  // Whole blocks per leg, at least one, never exceeding the wire limit or
  // the payload: at least one full leg must precede the strictly-shorter
  // final leg, or the receiver would take the lone data leg as full and
  // wait for a terminator forever.
  frame->block = block_bytes;
  frame->blocks_per_leg = std::clamp<long long>(
      static_cast<long long>(std::min(chunk_target, limit) / block_bytes), 1,
      std::max<long long>(blocks, 1));
  frame->chunk = static_cast<std::size_t>(frame->blocks_per_leg) * block_bytes;
  frame->full_legs = blocks / frame->blocks_per_leg;
  frame->rem_blocks = blocks % frame->blocks_per_leg;
  // Wire protocol: full legs carry exactly `chunk` bytes; the final leg is
  // strictly smaller, so an evenly divided message appends an empty
  // terminator leg. The receiver keys termination off "leg < first leg".
  frame->legs = frame->full_legs + 1; // remainder leg or empty terminator
  return MPI_SUCCESS;
}

namespace {

/// Frame `count` objects of the packer's datatype in its wire blocks, so
/// even a single count==1 object splits.
int plan_packer_frame(const Packer &packer, int count,
                      std::size_t chunk_target, PipelineFrame *frame) {
  const long long blocks = count > 0 ? packer.total_blocks(count) : 0;
  if (blocks <= 0) {
    return MPI_ERR_ARG; // the acceleration gate filters empty payloads
  }
  return plan_pipeline_frame(
      static_cast<std::size_t>(packer.wire_block_bytes()), blocks,
      chunk_target, frame);
}

} // namespace

int send_legs(const LegSource &src, int dest, int tag, MPI_Comm comm,
              const interpose::MpiTable &next) {
  const auto *pack = std::get_if<PackLegs>(&src);
  const auto *slice = std::get_if<SliceLegs>(&src);
  const auto *replay = std::get_if<ReplayLegs>(&src);
  PipelineFrame f;
  int rc = MPI_SUCCESS;
  if (pack != nullptr) {
    rc = plan_packer_frame(pack->packer, pack->count, pack->chunk_target, &f);
  } else if (slice != nullptr) {
    rc = plan_pipeline_frame(1, static_cast<long long>(slice->total),
                             slice->chunk_target, &f);
  } else {
    f = replay->prog.frame;
  }
  if (rc != MPI_SUCCESS) {
    return rc;
  }
  PipelineCounters &pc = pipeline_counters();
  pc.sends.add();
  if (f.total_bytes() > wire_chunk_limit()) {
    pc.over_ceiling_bytes.add(f.total_bytes());
  }

  // Two wire slots ping-pong on two streams: while leg i rides the wire,
  // leg i+1 becomes ready in the other slot on the other stream. The
  // system MPI copies the payload out before Send returns, so a slot is
  // reusable as soon as its Send completes. A slice needs neither.
  CachedBuffer lease[2];
  void *slot[2] = {nullptr, nullptr};
  vcuda::StreamHandle stream[2] = {nullptr, nullptr};
  if (pack != nullptr) {
    stream[0] = vcuda::next_pool_stream();
    stream[1] = vcuda::next_pool_stream();
    {
      trace::ScopedSpan span(trace::Phase::LeaseAcquire, trace::OpKind::None,
                             2 * f.chunk);
      for (CachedBuffer &l : lease) {
        l = lease_buffer(vcuda::MemorySpace::Device, f.chunk);
      }
    }
    for (int s = 0; s < 2; ++s) {
      if (lease_failed(lease[s], f.chunk)) {
        return MPI_ERR_OTHER;
      }
      slot[s] = lease[s].get();
    }
  } else if (replay != nullptr) {
    for (int s = 0; s < 2; ++s) {
      slot[s] = replay->prog.slot[s].get();
      stream[s] = replay->prog.stream[s];
    }
  }
  // Enqueue leg `leg` into its slot without waiting for it.
  const auto prepare = [&](long long leg) {
    const int s = static_cast<int>(leg & 1);
    if (pack != nullptr) {
      return f.leg_blocks(leg) == 0 ||
             pack->packer.pack_range_async(slot[s], pack->buf,
                                           leg * f.blocks_per_leg,
                                           f.leg_blocks(leg), stream[s]) ==
                 vcuda::Error::Success;
    }
    if (replay != nullptr) {
      const vcuda::GraphHandle g =
          replay->prog.leg_graphs[static_cast<std::size_t>(leg)];
      return g == nullptr ||
             vcuda::GraphLaunch(g, stream[s]) == vcuda::Error::Success;
    }
    return true; // a slice is wire-ready as it stands
  };
  const trace::OpKind kind = pack != nullptr    ? trace::OpKind::Send
                             : slice != nullptr ? trace::OpKind::Coll
                                                : trace::OpKind::Persistent;
  const std::int8_t method =
      pack != nullptr ? static_cast<std::int8_t>(Method::Pipelined) : -1;

  rc = prepare(0) ? MPI_SUCCESS : MPI_ERR_OTHER;
  for (long long leg = 0; rc == MPI_SUCCESS && leg < f.legs; ++leg) {
    const int s = static_cast<int>(leg & 1);
    const std::size_t leg_bytes = f.leg_bytes(leg);
    // The wire must not depart before this leg is ready.
    if (pack != nullptr) {
      // The measured duration is the *residual* pack time after overlap
      // with the previous leg's wire — exactly the effective per-chunk
      // pack cost estimate_pipelined_us should use, so full (chunk-sized)
      // legs feed the tuner at the chunk's {block, leg bytes} knot.
      trace::ScopedSpan ready(trace::Phase::PackLaunch, kind, 0, dest, tag,
                              method);
      tune::ScopedObservation obs(tune::Axis::DevicePack, f.block, leg_bytes,
                                  leg < f.full_legs); // on-knot legs only
      vcuda::StreamSynchronize(stream[s]);
    } else if (replay != nullptr) {
      // A recorded leg waits on a pre-armed fence, not a cold sync.
      trace::ScopedSpan ready(trace::Phase::GraphReplay, kind, 0, dest, tag);
      vcuda::StreamFence(stream[s]);
    }
    // Prepare the next leg *before* the blocking send: the stream runs
    // ahead of the host, so it overlaps this leg's wire time.
    if (leg + 1 < f.legs && !prepare(leg + 1)) {
      rc = MPI_ERR_OTHER;
      break;
    }
    const void *wire =
        slice != nullptr ? static_cast<const std::byte *>(slice->bytes) +
                               static_cast<std::size_t>(leg) * f.chunk
                         : slot[s];
    {
      trace::ScopedSpan span(trace::Phase::Wire, kind, leg_bytes, dest, tag,
                             method);
      tune::ScopedObservation obs(tune::Axis::GpuWire, 0, leg_bytes,
                                  pack != nullptr &&
                                      tune::wire_observable(leg_bytes));
      rc = next.Send(wire, static_cast<int>(leg_bytes), MPI_BYTE, dest, tag,
                     comm);
    }
    if (rc != MPI_SUCCESS) {
      break;
    }
    pc.chunks.add();
  }
  // Drain both streams before the slots are reused or return to the cache
  // (also on the error path, where the next leg may still be enqueued).
  for (vcuda::StreamHandle st : stream) {
    if (pack != nullptr) {
      vcuda::StreamSynchronize(st);
    } else if (replay != nullptr) {
      vcuda::StreamFence(st);
    }
  }
  return rc;
}

LegRecv::LegRecv(const Packer &packer, void *buf, int count, int source,
                 int tag, MPI_Comm comm)
    : packer_(&packer), buf_(buf), count_(count), peer_(source), tag_(tag),
      comm_(comm), expected_(packer.packed_bytes(count)) {
  stream_[0] = vcuda::next_pool_stream();
  stream_[1] = vcuda::next_pool_stream();
  pipeline_counters().recvs.add();
}

LegRecv::LegRecv(void *dst, std::size_t expected, int source, int tag,
                 MPI_Comm comm)
    : buf_(dst), peer_(source), tag_(tag), comm_(comm), expected_(expected) {
  pipeline_counters().recvs.add();
}

int LegRecv::step(const interpose::MpiTable &next) {
  if (done_) {
    return MPI_SUCCESS;
  }
  const bool first = legs_ == 0;
  const int s = static_cast<int>(legs_ & 1);
  // The first leg may be any legal chunk: the sender's chunk is bounded by
  // the wire limit and by the message itself (a larger first leg means
  // the sender ships more than fits — the system MPI's truncation error
  // reports it). Later legs carry at most chunk_; landing at a running
  // offset, the cap shrinks to the remaining room so an overrunning
  // sender gets the same precise truncation error.
  std::size_t cap =
      first ? std::min(std::max<std::size_t>(expected_, 1), wire_chunk_limit())
            : chunk_;
  void *dst = nullptr;
  if (packer_ == nullptr || accumulate_) {
    dst = static_cast<std::byte *>(packer_ == nullptr ? buf_
                                                      : slot_[0].get()) +
          received_;
    if (!first) {
      cap = std::min(cap, expected_ - received_);
    }
  } else if (first) {
    {
      trace::ScopedSpan lease(trace::Phase::LeaseAcquire, trace::OpKind::None,
                              cap);
      slot_[0] = lease_buffer(vcuda::MemorySpace::Device, cap);
    }
    if (lease_failed(slot_[0], cap)) {
      return MPI_ERR_OTHER;
    }
    dst = slot_[0].get();
  } else {
    {
      // Before reusing this slot, its unpack from two legs ago must have
      // drained; the other slot's unpack keeps overlapping this wire wait.
      trace::ScopedSpan drain(trace::Phase::Unpack, trace::OpKind::Recv, 0,
                              peer_, tag_,
                              static_cast<std::int8_t>(Method::Pipelined));
      vcuda::StreamSynchronize(stream_[s]);
    }
    dst = slot_[s].get();
  }
  MPI_Status st;
  int rc;
  {
    trace::ScopedSpan wire(
        trace::Phase::Wire,
        packer_ != nullptr ? trace::OpKind::Recv : trace::OpKind::Coll, cap,
        peer_, tag_,
        packer_ != nullptr ? static_cast<std::int8_t>(Method::Pipelined)
                           : std::int8_t{-1});
    rc = next.Recv(dst, static_cast<int>(cap), MPI_BYTE, peer_, tag_, comm_,
                   &st);
  }
  if (rc != MPI_SUCCESS) {
    return rc;
  }
  const auto leg = static_cast<std::size_t>(st.count_bytes);
  pipeline_counters().chunks.add();
  ++legs_;
  if (first) {
    // Later legs belong to the same message: lock the match to the first
    // leg's source/tag (MPI_ANY_SOURCE / MPI_ANY_TAG must not re-wildcard).
    peer_ = st.MPI_SOURCE;
    tag_ = st.MPI_TAG;
    first_status_ = st;
    chunk_ = leg;
    if (chunk_ == 0) {
      done_ = true; // degenerate: an empty message
      return MPI_SUCCESS;
    }
  }
  if (received_ + leg > expected_) {
    return MPI_ERR_TRUNCATE;
  }
  if (first && packer_ != nullptr) {
    if (const int lrc = setup_slots(); lrc != MPI_SUCCESS) {
      return lrc;
    }
  }
  if (leg > 0 && packer_ != nullptr && !accumulate_) {
    if (const int urc = unpack_leg(leg, s); urc != MPI_SUCCESS) {
      return urc;
    }
  }
  received_ += leg;
  if (leg < chunk_) {
    done_ = true;
    if (accumulate_) {
      const auto blk = static_cast<std::size_t>(packer_->wire_block_bytes());
      if (blk == 0 || received_ % blk != 0) {
        return MPI_ERR_OTHER; // stream ends mid-block
      }
      if (packer_->unpack_range_async(buf_, slot_[0].get(), 0,
                                      static_cast<long long>(received_ / blk),
                                      stream_[0]) != vcuda::Error::Success) {
        return MPI_ERR_OTHER;
      }
    }
  }
  return MPI_SUCCESS;
}

int LegRecv::setup_slots() {
  const auto blk = static_cast<std::size_t>(packer_->wire_block_bytes());
  if (blk != 0 && chunk_ % blk == 0) {
    // Legs are whole receiver blocks: unpack them through two ping-pong
    // chunk leases.
    slot_[1] = lease_buffer(vcuda::MemorySpace::Device, chunk_);
    return lease_failed(slot_[1], chunk_) ? MPI_ERR_OTHER : MPI_SUCCESS;
  }
  // Legs are whole *sender* blocks; if they are not whole receiver blocks,
  // fall back to accumulating the packed stream and unpacking once —
  // correct, though no longer pipelined.
  accumulate_ = true;
  CachedBuffer all = lease_buffer(vcuda::MemorySpace::Device,
                                  std::max<std::size_t>(expected_, 1));
  if (lease_failed(all, expected_)) {
    return MPI_ERR_OTHER;
  }
  vcuda::MemcpyAsync(all.get(), slot_[0].get(), chunk_,
                     vcuda::MemcpyKind::DeviceToDevice, stream_[0]);
  // The first-leg lease returns to the cache; drain the copy that read
  // from it first.
  vcuda::StreamSynchronize(stream_[0]);
  slot_[0] = std::move(all);
  return MPI_SUCCESS;
}

int LegRecv::unpack_leg(std::size_t leg_bytes, int slot) {
  const auto blk = static_cast<std::size_t>(packer_->wire_block_bytes());
  const auto n = static_cast<long long>(leg_bytes / blk);
  if (static_cast<std::size_t>(n) * blk != leg_bytes) {
    return MPI_ERR_OTHER; // partial receiver block; cannot scatter it
  }
  if (blocks_done_ + n > packer_->total_blocks(count_)) {
    return MPI_ERR_TRUNCATE;
  }
  trace::ScopedSpan span(trace::Phase::Unpack, trace::OpKind::Recv, leg_bytes,
                         peer_, tag_,
                         static_cast<std::int8_t>(Method::Pipelined));
  // Effective overlapped per-chunk unpack cost: the enqueue (launch)
  // only — the kernel itself overlaps the next leg's wire time. Observe
  // at the chunk knot so tuned pipelined estimates use overlapped costs.
  tune::ScopedObservation obs(tune::Axis::DeviceUnpack, blk, leg_bytes,
                              leg_bytes == chunk_);
  const vcuda::Error e = packer_->unpack_range_async(
      buf_, slot_[slot].get(), blocks_done_, n, stream_[slot]);
  if (e != vcuda::Error::Success) {
    obs.disarm();
    return MPI_ERR_OTHER;
  }
  blocks_done_ += n;
  return MPI_SUCCESS;
}

int LegRecv::finish(const interpose::MpiTable &next) {
  int rc = MPI_SUCCESS;
  while (!done_ && (rc = step(next)) == MPI_SUCCESS) {
  }
  return rc;
}

int LegRecv::poll(const interpose::MpiTable &next) {
  while (!done_) {
    int flag = 0;
    if (next.Iprobe(peer_, tag_, comm_, &flag, nullptr) != MPI_SUCCESS ||
        flag == 0) {
      return MPI_SUCCESS;
    }
    if (const int rc = step(next); rc != MPI_SUCCESS) {
      return rc;
    }
  }
  return MPI_SUCCESS;
}

void LegRecv::append_streams(std::vector<vcuda::StreamHandle> &streams) const {
  for (vcuda::StreamHandle s : stream_) {
    if (s != nullptr && std::find(streams.begin(), streams.end(), s) ==
                            streams.end()) {
      streams.push_back(s);
    }
  }
}

void LegRecv::synchronize() {
  if (packer_ == nullptr) {
    return; // legs landed in place: no stream work
  }
  trace::ScopedSpan drain(trace::Phase::Unpack, trace::OpKind::Recv,
                          received_, peer_, tag_,
                          static_cast<std::int8_t>(Method::Pipelined));
  vcuda::StreamSynchronize(stream_[0]);
  vcuda::StreamSynchronize(stream_[1]);
}

void LegRecv::fill_status(MPI_Status *status) const {
  if (status == MPI_STATUS_IGNORE) {
    return;
  }
  *status = first_status_;
  status->count_bytes = static_cast<long long>(received_);
}

// --- persistent-channel replay programs --------------------------------------

PersistentProgram::~PersistentProgram() {
  if (graph != nullptr) {
    vcuda::GraphDestroy(graph);
  }
}

void PersistentProgram::clear() {
  if (graph != nullptr) {
    vcuda::GraphDestroy(graph);
    graph = nullptr;
  }
  pipe = PackPipeline{}; // drops the pinned wire/stage leases
  stream = nullptr;      // pool stream: not owned, just forgotten
}

PipelinedSendProgram::~PipelinedSendProgram() {
  for (vcuda::GraphHandle g : leg_graphs) {
    if (g != nullptr) {
      vcuda::GraphDestroy(g);
    }
  }
}

namespace {

/// Run `record` between Begin/EndCapture on `stream`, cleaning up the
/// half-open capture when recording fails.
int capture_on(vcuda::StreamHandle stream, vcuda::GraphHandle *graph,
               const std::function<int()> &record) {
  trace::ScopedSpan span(trace::Phase::GraphCapture, trace::OpKind::Persistent);
  if (vcuda::GraphBeginCapture(stream) != vcuda::Error::Success) {
    return MPI_ERR_OTHER;
  }
  const int rc = record();
  vcuda::GraphHandle g = nullptr;
  if (vcuda::GraphEndCapture(stream, &g) != vcuda::Error::Success) {
    return MPI_ERR_OTHER;
  }
  if (rc != MPI_SUCCESS) {
    vcuda::GraphDestroy(g);
    return rc;
  }
  *graph = g;
  return MPI_SUCCESS;
}

} // namespace

int record_persistent_send(const Packer &packer, Method m, const void *buf,
                           int count, PersistentProgram *prog) {
  if (m == Method::Pipelined) {
    return MPI_ERR_OTHER; // pipelined channels use record_pipelined_send
  }
  prog->stream = vcuda::next_pool_stream();
  // start_pack leases the pipeline and enqueues the pack leg(s); under
  // capture the leases happen live (they are pinned to the channel) while
  // the kernel/copy chain is recorded instead of executed.
  return capture_on(prog->stream, &prog->graph, [&] {
    return start_pack(packer, m, buf, count, prog->stream, &prog->pipe);
  });
}

int record_persistent_recv(const Packer &packer, Method m, void *buf,
                           int count, PersistentProgram *prog) {
  if (m == Method::Pipelined) {
    return MPI_ERR_OTHER; // pipelined receives re-arm a LegRecv instead
  }
  prog->stream = vcuda::next_pool_stream();
  // The wire lease is acquired live (the transfer lands in it every
  // replay); only the [H2D +] unpack chain is recorded.
  if (const int rc = start_recv(packer, m, count, &prog->pipe);
      rc != MPI_SUCCESS) {
    return rc;
  }
  return capture_on(prog->stream, &prog->graph, [&] {
    return start_unpack(packer, m, buf, count, prog->pipe, prog->stream);
  });
}

int record_pipelined_send(const Packer &packer, const void *buf, int count,
                          std::size_t chunk_target,
                          PipelinedSendProgram *prog) {
  if (const int rc =
          plan_packer_frame(packer, count, chunk_target, &prog->frame);
      rc != MPI_SUCCESS) {
    return rc;
  }
  const PipelineFrame &f = prog->frame;
  prog->stream[0] = vcuda::next_pool_stream();
  prog->stream[1] = vcuda::next_pool_stream();
  for (int s = 0; s < 2; ++s) {
    prog->slot[s] = lease_buffer(vcuda::MemorySpace::Device, f.chunk);
    if (lease_failed(prog->slot[s], f.chunk)) {
      return MPI_ERR_OTHER;
    }
  }
  prog->leg_graphs.assign(static_cast<std::size_t>(f.legs), nullptr);
  for (long long leg = 0; leg < f.legs; ++leg) {
    if (f.leg_blocks(leg) == 0) {
      continue; // the empty terminator replays as a bare zero-byte send
    }
    const int s = static_cast<int>(leg & 1);
    const int rc = capture_on(
        prog->stream[s], &prog->leg_graphs[static_cast<std::size_t>(leg)],
        [&] {
          return packer.pack_range_async(prog->slot[s].get(), buf,
                                         leg * f.blocks_per_leg,
                                         f.leg_blocks(leg),
                                         prog->stream[s]) ==
                         vcuda::Error::Success
                     ? MPI_SUCCESS
                     : MPI_ERR_OTHER;
        });
    if (rc != MPI_SUCCESS) {
      return rc;
    }
  }
  return MPI_SUCCESS;
}

} // namespace tempi
