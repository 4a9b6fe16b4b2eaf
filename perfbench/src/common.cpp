#include "common.hpp"

#include "tempi/buffer_cache.hpp"
#include "vcuda/memory.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace perfbench {

void fill_pattern(void *p, std::size_t bytes, std::uint64_t seed) {
  Rng rng(seed);
  auto *out = static_cast<unsigned char *>(p);
  std::size_t i = 0;
  for (; i + 8 <= bytes; i += 8) {
    const std::uint64_t w = rng.next();
    std::memcpy(out + i, &w, 8);
  }
  for (const std::uint64_t w = rng.next(); i < bytes; ++i) {
    out[i] = static_cast<unsigned char>(w >> (8 * (i % 8)));
  }
}

std::uint64_t hash_bytes(const void *p, std::size_t bytes) {
  const auto *in = static_cast<const unsigned char *>(p);
  std::uint64_t h = 0x243f6a8885a308d3ULL ^ bytes;
  std::size_t i = 0;
  for (; i + 8 <= bytes; i += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, in + i, 8);
    h = (h ^ w) * 0x100000001b3ULL;
    h ^= h >> 29;
  }
  for (; i < bytes; ++i) {
    h = (h ^ in[i]) * 0x100000001b3ULL;
  }
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  return h ^ (h >> 33);
}

double percentile(std::vector<double> v, int pct) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  // Smallest index i with (i + 1) / n >= pct / 100, in integers.
  const std::size_t n = v.size();
  const std::size_t rank =
      (static_cast<std::size_t>(pct) * n + 99) / 100; // ceil(pct * n / 100)
  return v[rank == 0 ? 0 : rank - 1];
}

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

CounterSnapshot take_counter_snapshot() {
  CounterSnapshot s;
  for (auto &[name, value] : tempi::trace::counter_snapshot()) {
    s.registry.emplace(name, value);
  }
  s.vcuda = vcuda::counters();
  return s;
}

void Failures::add(const std::string &what) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (first_.size() < 8) {
    first_.push_back(what);
  }
}

void Failures::move_into(SessionResult &res) {
  const std::lock_guard<std::mutex> lock(mutex_);
  res.failures.insert(res.failures.end(), first_.begin(), first_.end());
}

Probe::Probe(const Plan &plan, int ranks)
    : plan_(plan), t_start_(process_cpu_ns()),
      ranks_(static_cast<std::size_t>(ranks)) {}

void Probe::exclude_begin() { exclude_t0_ = process_cpu_ns(); }

void Probe::exclude_end() { excluded_ns_ += process_cpu_ns() - exclude_t0_; }

void Probe::setup_done(SessionResult &res) {
  res.setup_s =
      static_cast<double>(process_cpu_ns() - t_start_ - excluded_ns_) * 1e-9;
  commits_ = shim::take_commits();
}

void Probe::loop_begin() {
  if (!plan_.traced) {
    return;
  }
  before_ = take_counter_snapshot();
  tempi::trace::reset();
  tempi::trace::set_enabled(true);
}

void Probe::drain() {
  if (!plan_.traced) {
    return;
  }
  const tempi::trace::Snapshot snap = tempi::trace::snapshot();
  for (std::size_t p = 0; p < tempi::trace::kPhaseCount; ++p) {
    phases_.count[p] += snap.phases[p].count;
    phases_.virt_us[p] += snap.phases[p].total_us;
  }
  phases_.dropped += snap.dropped;
  tempi::trace::reset();
}

void Probe::loop_end() {
  if (!plan_.traced) {
    return;
  }
  drain();
  tempi::trace::set_enabled(false);
  after_ = take_counter_snapshot();
}

void Probe::rank_loop_begin(int rank) {
  if (!plan_.traced) {
    return;
  }
  shim::take();
  const tempi::BufferCacheStats bc = tempi::buffer_cache_stats();
  RankTally &t = ranks_[static_cast<std::size_t>(rank)];
  t.cache_hits = bc.hits;
  t.cache_misses = bc.misses;
  shim::arm(true);
}

void Probe::rank_loop_end(int rank) {
  if (!plan_.traced) {
    return;
  }
  shim::arm(false);
  const tempi::BufferCacheStats bc = tempi::buffer_cache_stats();
  RankTally &t = ranks_[static_cast<std::size_t>(rank)];
  t.calls = shim::take();
  t.cache_hits = bc.hits - t.cache_hits;
  t.cache_misses = bc.misses - t.cache_misses;
}

namespace {

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

} // namespace

void Probe::finish(SessionResult &res, double ops) const {
  if (!plan_.traced || ops <= 0.0) {
    return;
  }
  std::map<std::string, double> &m = res.layers;
  const auto put = [&m](const std::string &name, double v) {
    m.emplace(name, v); // a workload's own value wins
  };
  const auto delta = [this](const std::string &name) {
    const auto a = after_.registry.find(name);
    const auto b = before_.registry.find(name);
    const std::uint64_t va = a == after_.registry.end() ? 0 : a->second;
    const std::uint64_t vb = b == before_.registry.end() ? 0 : b->second;
    return static_cast<double>(va - vb);
  };

  shim::Tally calls;
  double cache_hits = 0.0, cache_misses = 0.0;
  for (const RankTally &t : ranks_) {
    calls += t.calls;
    cache_hits += static_cast<double>(t.cache_hits);
    cache_misses += static_cast<double>(t.cache_misses);
  }
  // Integer totals over `ops` first, units after: whole passes then give
  // bit-identical per-op values however many passes ran.
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };

  put("interpose.calls_per_op", d(calls.top_calls) / ops);
  put("interpose.host_us_per_op", d(calls.top_host_ns) / ops * 1e-3);
  put("tempi.self_host_us_per_op",
      (d(calls.top_host_ns) - d(calls.bottom_host_ns)) / ops * 1e-3);
  put("tempi.commit.host_us_per_type",
      ratio(d(commits_.host_ns) * 1e-3, d(commits_.calls)));

  put("tempi.packer.pack_virt_us", d(calls.pack_virt_ns) / ops * 1e-3);
  put("tempi.packer.unpack_virt_us", d(calls.unpack_virt_ns) / ops * 1e-3);
  put("tempi.packer.host_ns_per_byte",
      ratio(d(calls.pack_host_ns + calls.unpack_host_ns),
            d(calls.pack_bytes + calls.unpack_bytes)));
  put("tempi.packer.fallthrough_share",
      ratio(d(calls.fallthrough_packs), d(calls.pack_calls)));

  const vcuda::Counters &va = after_.vcuda, &vb = before_.vcuda;
  put("vcuda.kernel_launches_per_op",
      d(va.kernel_launches - vb.kernel_launches) / ops);
  put("vcuda.memcpy_async_per_op",
      d(va.memcpy_async_calls - vb.memcpy_async_calls) / ops);
  put("vcuda.stream_syncs_per_op", d(va.stream_syncs - vb.stream_syncs) / ops);
  put("vcuda.mallocs_per_op", d(va.mallocs - vb.mallocs) / ops);
  put("vcuda.graph_launches_per_op",
      d(va.graph_launches - vb.graph_launches) / ops);
  put("vcuda.computed_bytes_per_op", res.computed_bytes_per_op);

  put("tempi.perf_model.cache_hit_ratio",
      ratio(delta("tempi.model.cache_hits"),
            delta("tempi.model.cache_hits") +
                delta("tempi.model.cache_misses")));
  put("tempi.perf_model.generation_bumps",
      delta("tempi.model.generation_bumps"));
  const double oneshot =
      delta("tempi.send.oneshot") + delta("tempi.isend.oneshot");
  const double device = delta("tempi.send.device") + delta("tempi.isend.device");
  const double staged = delta("tempi.send.staged") + delta("tempi.isend.staged");
  const double chosen = oneshot + device + staged +
                        delta("tempi.send.pipelined") +
                        delta("tempi.isend.pipelined");
  put("tempi.perf_model.method_share.oneshot", ratio(oneshot, chosen));
  put("tempi.perf_model.method_share.device", ratio(device, chosen));
  put("tempi.perf_model.method_share.staged", ratio(staged, chosen));

  put("tempi.buffer_cache.hit_ratio",
      ratio(cache_hits, cache_hits + cache_misses));
  put("tempi.buffer_cache.leased_after_run", d(res.leased_after_run));

  put("tempi.async.completions_per_op",
      delta("tempi.engine.completions") / ops);
  put("tempi.async.batched_syncs_per_op",
      delta("tempi.engine.batched_syncs") / ops);
  put("tempi.async.persistent_replay_ratio",
      ratio(delta("tempi.persistent.replays"),
            delta("tempi.persistent.starts")));

  put("sysmpi.calls_per_op", d(calls.bottom_calls) / ops);
  put("sysmpi.host_us_per_op", d(calls.bottom_host_ns) / ops * 1e-3);
  put("sysmpi.virt_us_per_op", d(calls.bottom_virt_ns) / ops * 1e-3);
  put("sysmpi.wait_virt_us_per_op",
      d(calls.bottom_wait_virt_ns) / ops * 1e-3);
  put("sysmpi.wire_bytes_per_op", d(calls.wire_bytes) / ops);

  const double coll_legs = delta("tempi.coll.peer_legs");
  put("tempi.collectives.peer_legs_per_op", coll_legs / ops);
  put("tempi.collectives.fallback_share",
      ratio(delta("tempi.coll.fallback"),
            delta("tempi.coll.alltoallv") + delta("tempi.coll.neighbor") +
                delta("tempi.coll.fallback")));
  put("tempi.topology.intra_node_leg_share",
      ratio(delta("tempi.topo.intra_node_legs"), coll_legs));
  put("tempi.topology.staggered_legs_per_op",
      delta("tempi.topo.staggered_legs") / ops);

  put("tempi.reduce.peer_legs_per_op", delta("tempi.red.peer_legs") / ops);
  put("tempi.reduce.kernel_launches_per_op",
      delta("tempi.red.kernel_launches") / ops);
  put("tempi.reduce.fallback_share",
      ratio(delta("tempi.red.fallback"),
            delta("tempi.red.allreduce") + delta("tempi.red.reduce") +
                delta("tempi.red.reduce_scatter") +
                delta("tempi.red.fallback")));

  for (const char *lock :
       {"pool", "depot", "vcuda_streams", "trace_rings", "tune_refresh"}) {
    const std::string base = std::string("tempi.lock.") + lock;
    put(std::string("support.lock.") + lock + ".contended_ratio",
        ratio(delta(base + ".contended"), delta(base + ".acquires")));
  }

  for (std::size_t p = 0; p < tempi::trace::kPhaseCount; ++p) {
    const std::string base =
        std::string("phase.") +
        tempi::trace::phase_name(static_cast<tempi::trace::Phase>(p));
    put(base + ".count_per_op", d(phases_.count[p]) / ops);
    put(base + ".virt_us_per_op", phases_.virt_us[p] / ops);
  }
  put("tempi.trace.dropped_spans", d(phases_.dropped));
}

double device_mb_now() {
  const vcuda::MemoryRegistry &reg = vcuda::memory_registry();
  return static_cast<double>(reg.bytes_in(vcuda::MemorySpace::Device) +
                             reg.bytes_in(vcuda::MemorySpace::Pinned)) *
         1e-6;
}

} // namespace perfbench
