// The in-process "cluster": ranks are threads, nodes are a virtual grouping.
//
// run_ranks() plays the role of mpirun/jsrun: it spawns one thread per rank,
// binds it to a virtual GPU (round-robin within its virtual node, like
// jsrun's resource sets on Summit), resets its virtual clock, and runs the
// application body. MPI handles are per-rank objects exactly as handle
// values are per-process in a real MPI.
#pragma once

#include "sysmpi/handles.hpp"
#include "sysmpi/netmodel.hpp"
#include "vcuda/clock.hpp"

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

namespace sysmpi {

/// One in-flight message. `payload` is host-side staging, absent when the
/// sender wrote straight into a posted receive's buffer; CUDA-awareness
/// is captured by `src_gpu` + pricing, not by where the bytes travelled.
struct Envelope {
  int src_comm_rank = -1;
  int tag = 0;
  std::uint64_t comm_id = 0;
  std::unique_ptr<std::byte[]> payload; ///< staged bytes, or null if direct
  std::size_t bytes = 0;                ///< message size either way
  vcuda::VirtualNs send_time = 0; ///< sender's clock at handoff
  bool src_gpu = false;           ///< wire source is GPU-resident
  bool rendezvous = false;        ///< transfer starts only once matched
  int src_node = 0;
  /// Receive-side NIC residency (serialization term of the wire time),
  /// computed at the sender so both ports price the same message equally.
  /// Zero for intra-node or empty messages, which never touch a NIC.
  vcuda::VirtualNs eject_ns = 0;
  /// Eager transfers only: when the first byte reaches the destination
  /// ejection port. The sender reserves the port at delivery under this
  /// key; the receiver queries it (see World::nic_eject_insert).
  vcuda::VirtualNs eject_ready = 0;
  bool eject_reserved = false; ///< eject_ready reservation was made
};

/// Per-rank receive side with (source, tag, comm) matching: a queue of
/// unexpected messages and a list of posted receives.
///
/// A receive is registered when it is posted (MPI_Recv, MPI_Irecv,
/// MPI_Start), not when it is waited for, so receives match messages in
/// the order they were posted (MPI-3.1 Sec. 3.5). A sender that finds a
/// posted receive hands its message straight to it, copying the payload
/// once, into the receive buffer when that holds it; only a message no
/// receive is posted for is staged (two copies). No-overtaking holds
/// because a receive registers only after scanning the queue under the
/// lock, and deliver() hands every match to a registered receive: the
/// queue never holds an envelope a registered receive matches.
class Mailbox {
public:
  /// A posted receive. `dst`/`capacity` describe a contiguous receive
  /// buffer a sender may write directly (null for other types). The owner
  /// keeps it alive until wait() or test() reports it done or withdraw()
  /// returns.
  struct Receive {
    int src = 0;
    int tag = 0;
    std::uint64_t comm_id = 0;
    void *dst = nullptr;
    std::size_t capacity = 0;
    Envelope env;
    bool done = false;
    std::condition_variable cv;
  };

  /// Post `r` (its key and buffer set, not done): it takes the earliest
  /// queued envelope it matches, else it is registered behind the
  /// receives posted before it.
  void post(Receive &r);

  /// Block until `r` holds its envelope. An envelope whose bytes were
  /// written into `r.dst` has a null payload.
  void wait(Receive &r);

  /// Whether `r` holds its envelope yet (never blocks).
  bool test(Receive &r);

  /// Withdraw a posted receive. One already matched keeps its envelope
  /// (`r.done`); a sender that has claimed it but not completed it is
  /// waited out, since it is writing into the receive buffer.
  void withdraw(Receive &r);

  /// Hand `e` to the earliest registered receive it matches, else queue
  /// it as unexpected.
  void deliver(Envelope &&e);

  /// Remove and return the earliest registered receive matching a
  /// message with this key, or null. The caller must complete() it: the
  /// receive stays pending, and no later message can reach it, until then.
  Receive *claim(int src_comm_rank, int tag, std::uint64_t comm_id);

  /// Hand a claimed receive its envelope.
  void complete(Receive &r, Envelope &&e);

  /// Metadata of a matched message, for MPI_Probe/MPI_Iprobe.
  struct PeekInfo {
    int src_comm_rank = -1;
    int tag = 0;
    std::size_t bytes = 0;
  };

  /// Block until a matching envelope exists; do not remove it.
  PeekInfo peek(int src, int tag, std::uint64_t comm_id);

  /// Non-blocking peek; returns false if nothing matches.
  bool try_peek(int src, int tag, std::uint64_t comm_id, PeekInfo &out);

  /// Receives posted and not yet matched (lets tests order a send after
  /// a receive is posted).
  std::size_t posted_receives();

private:
  // The helpers below expect mutex_ held.
  /// Remove the earliest queued envelope matching the receive into `out`.
  bool pop_match(int src, int tag, std::uint64_t comm_id, Envelope &out);
  /// Remove and return the earliest receive matching a message key, or
  /// null.
  Receive *unlink_receive(int src_comm_rank, int tag, std::uint64_t comm_id);
  static void wake(Receive &r, Envelope &&e);
  std::mutex mutex_;
  std::condition_variable cv_; ///< queue growth, for blocked peeks
  std::deque<Envelope> queue_;
  std::vector<Receive *> posted_; ///< unmatched receives, posting order
};

/// Shared state for one collective-synchronization point (per comm).
struct BarrierState {
  std::mutex mutex;
  std::condition_variable cv;
  int arrived = 0;
  std::uint64_t generation = 0;
  vcuda::VirtualNs max_clock = 0;
  vcuda::VirtualNs release_clock = 0;
};

class World {
public:
  World(int size, int ranks_per_node);

  [[nodiscard]] int size() const { return size_; }
  [[nodiscard]] int ranks_per_node() const { return ranks_per_node_; }
  [[nodiscard]] int node_of(int world_rank) const {
    return world_rank / ranks_per_node_;
  }
  [[nodiscard]] Mailbox &mailbox(int world_rank) {
    return *mailboxes_[static_cast<std::size_t>(world_rank)];
  }
  /// Barrier state for a communicator (created on first use).
  BarrierState &barrier_for(std::uint64_t comm_id);

  /// Reserve the node's NIC for an inter-node message from `src_rank`
  /// (world rank): the injection port arbitrates round-robin across the
  /// node's rank queues, so each rank's stream is paced at its static
  /// fair share — consecutive legs from one rank depart at least
  /// ranks_per_node * occupancy apart, keeping the aggregate at the port
  /// rate. Returns the departure time: max(ready, the rank's next fair
  /// slot). Pacing per rank (instead of one FIFO over the mutex order of
  /// concurrent callers) makes departure schedules deterministic, and
  /// with one rank per node it reduces exactly to the serial port. This
  /// is what makes alltoallv time grow with ranks-per-node and node
  /// count (Fig. 12a).
  vcuda::VirtualNs reserve_nic(int node, int src_rank, vcuda::VirtualNs ready,
                               vcuda::VirtualNs occupancy);

  /// The NIC *ejection* port serializes inter-node arrivals FIFO *in
  /// ready order*: the port keeps reservations sorted by ready time and
  /// prices each message's queueing delay against the drain of
  /// earlier-ready arrivals. Pricing is two-phase so it reflects the
  /// full arrival set, not the order receivers happen to process
  /// completions: the SENDER inserts the reservation at delivery time
  /// (when the eager departure schedule is known), and the receiver
  /// later queries the settled queue for its message's delay. A queued
  /// message pays its backlog plus a nic_incast_penalty fraction of its
  /// own occupancy (see NetParams::model_ejection); a message reaching
  /// the port while it is idle pays nothing, so uncontended traffic is
  /// priced exactly as a serial wire.
  void nic_eject_insert(int node, vcuda::VirtualNs ready,
                        vcuda::VirtualNs occupancy);

  /// Claim the reservation matching (ready, occupancy) and return its
  /// extra delay under the current drain. Equal-key reservations are
  /// interchangeable: each query claims the earliest unclaimed one, so
  /// the SET of prices is deterministic even when claim order is not.
  /// A message with no reservation (rendezvous transfers, whose start
  /// depends on when the receiver shows up, or one pruned long ago) is
  /// inserted and priced on the spot.
  vcuda::VirtualNs reserve_nic_eject(int node, vcuda::VirtualNs ready,
                                     vcuda::VirtualNs occupancy);

  /// Ejection ports replay a ready-ordered FIFO: reservations sorted by
  /// ready time with their simulated drain-finish times, so pricing does
  /// not depend on the order receivers happen to process completions.
  /// Public only so the drain helpers in world.cpp can name it.
  struct EjectPort {
    std::mutex mutex;
    struct Entry {
      vcuda::VirtualNs ready;
      vcuda::VirtualNs occupancy;
      vcuda::VirtualNs finish; ///< FIFO drain completion in ready order
      bool claimed = false;    ///< queried by its receiver already
    };
    std::vector<Entry> entries;
    /// Drain time at the prune boundary: entries dropped to bound memory
    /// still gate everything priced after them.
    vcuda::VirtualNs pruned_finish = 0;
  };

private:
  struct NicPort {
    std::mutex mutex;
    /// Next fair departure slot per source world rank.
    std::map<int, vcuda::VirtualNs> rank_next;
  };
  int size_;
  int ranks_per_node_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::vector<std::unique_ptr<NicPort>> nics_;
  std::vector<std::unique_ptr<EjectPort>> eject_nics_;
  std::mutex barriers_mutex_;
  std::map<std::uint64_t, std::unique_ptr<BarrierState>> barriers_;
};

struct Comm {
  World *world = nullptr;
  std::uint64_t id = 0;
  int my_rank = 0;              ///< rank within this communicator
  std::vector<int> world_ranks; ///< comm rank -> world rank

  // Distributed-graph adjacency (MPI_Dist_graph_create_adjacent).
  bool is_graph = false;
  std::vector<int> graph_sources;      ///< comm ranks we receive from
  std::vector<int> graph_destinations; ///< comm ranks we send to

  // Cartesian topology (MPI_Cart_create). Row-major: the last dimension
  // varies fastest in the coords -> rank mapping, per the MPI standard.
  bool is_cart = false;
  std::vector<int> cart_dims;
  std::vector<int> cart_periods;

  /// Per-rank counters that stay consistent because MPI requires identical
  /// collective/constructor ordering on every rank of a communicator.
  std::uint64_t next_child_ordinal = 1;
  std::uint64_t collective_seq = 0;

  [[nodiscard]] int size() const {
    return static_cast<int>(world_ranks.size());
  }
  [[nodiscard]] int world_rank_of(int comm_rank) const {
    return world_ranks[static_cast<std::size_t>(comm_rank)];
  }
};

/// Thread-local rank context (the "process" of this rank).
struct RankCtx {
  std::shared_ptr<World> world;
  int world_rank = 0;
  MPI_Comm world_comm = nullptr;
  bool initialized = false;
  bool finalized = false;
  /// Thread level granted by Init/Init_thread. Plain MPI_Init grants
  /// MPI_THREAD_SINGLE per the standard, though sysmpi's engine is
  /// MULTIPLE-safe regardless — the level is reporting, not enforcement.
  int thread_level = MPI_THREAD_SINGLE;
  /// The thread that called Init/Init_thread on this context is "main"
  /// for MPI_Is_thread_main. Helper threads touching MPI lazily get a
  /// fresh TLS context that never ran Init, so the flag stays false.
  bool thread_is_main = false;
};

RankCtx &this_rank();

/// Launcher configuration (the jsrun command line).
struct RunConfig {
  int ranks = 1;
  int ranks_per_node = 6; ///< Summit: 6 GPUs per node
  bool reset_timelines = true;
};

/// Run `body(rank)` on `cfg.ranks` threads with MPI available. Blocks until
/// all ranks return; rethrows the first rank exception.
void run_ranks(const RunConfig &cfg, const std::function<void(int)> &body);

/// Ensure the calling thread has a (possibly single-rank) context, so MPI
/// can be used without run_ranks in simple tools.
void ensure_self_context();

} // namespace sysmpi
