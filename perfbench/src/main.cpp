// perfbench: the repository benchmark's measuring program.
//
//   perfbench --workload pack|p2p|halo --seed N --seconds S --trace 0|1
//             [--tiny] [--corrupt-op K]
//
// Untraced (--trace 0): sets the workload up 5 to 15 times in one process
// (install, world launch, commits, allocations, warm-up), runs a closed
// loop of S host seconds after the first set-up, and reports the
// end-to-end metrics with the median set-up time. Traced (--trace 1): one untraced
// loop of S/2 seconds, then one loop of S/2 seconds with the outside-in
// shims installed and span recording armed, and reports the per-layer
// metrics. The last line of standard output is one JSON document;
// perfbench/run.py turns it into the benchmark's result line.
#include "common.hpp"
#include "shim.hpp"
#include "tempi/buffer_cache.hpp"
#include "tempi/tempi.hpp"
#include "tempi/trace.hpp"
#include "workloads.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

extern char **environ;

namespace perfbench {
namespace {

struct Workload {
  const char *name;
  void (*run)(const Options &, const Plan &, Probe &, SessionResult &);
  int ranks; ///< rank threads it launches
  /// Set-ups per untraced run; the median is reported. Workloads whose
  /// set-up is short and noisy repeat it more often.
  int setup_reps;
};
constexpr Workload kWorkloads[] = {
    {"pack", run_pack, 1, 5},
    {"p2p", run_p2p, 2, 7},
    {"halo", run_halo, 4, 15},
};

const Workload *find_workload(const std::string &name) {
  for (const Workload &w : kWorkloads) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

[[noreturn]] void usage(const char *why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload pack|p2p|halo "
               "--seed N --seconds S --trace 0|1 [--tiny] [--corrupt-op K]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char **argv) {
  Options o;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        usage(("missing value for " + a).c_str());
      }
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        o.workload = value();
        have_workload = true;
      } else if (a == "--seed") {
        o.seed = std::stoull(value());
        have_seed = true;
      } else if (a == "--seconds") {
        o.seconds = std::stod(value());
        have_seconds = true;
      } else if (a == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") {
          usage("--trace takes 0 or 1");
        }
        o.trace = v == "1";
        have_trace = true;
      } else if (a == "--tiny") {
        o.tiny = true;
      } else if (a == "--corrupt-op") {
        o.corrupt_op = std::stoll(value());
      } else {
        usage(("unknown argument " + a).c_str());
      }
    } catch (const std::logic_error &) {
      usage(("bad value for " + a).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  if (find_workload(o.workload) == nullptr) {
    usage(("unknown workload " + o.workload).c_str());
  }
  if (!(o.seconds > 0.0 && o.seconds <= 120.0)) {
    usage("--seconds must be in (0, 120]");
  }
  return o;
}

/// One session: install (shims around TEMPI when traced), run the
/// workload's ranks, uninstall.
SessionResult session(const Options &opt, const Plan &plan) {
  const Workload &w = *find_workload(opt.workload);
  SessionResult res;
  Probe probe(plan, w.ranks);
  if (plan.traced) {
    shim::install_bottom();
  }
  tempi::install();
  if (plan.traced) {
    shim::install_top();
  }
  w.run(opt, plan, probe, res);
  res.leased_after_run = tempi::buffer_cache_stats().leased_now;
  tempi::uninstall(); // restores the system table: both shims are gone
  probe.finish(res, static_cast<double>(res.ops.size()));
  return res;
}

// --- JSON output -------------------------------------------------------------

std::string quoted(const std::string &s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// A metric: value, unit and (for percentiles) its sample counts.
struct Metric {
  double value = 0.0;
  std::string unit;
  long long samples = -1;
  long long beyond = -1; ///< samples above a percentile
};

std::string metric_json(const Metric &m) {
  std::string s = "{\"value\": " + number(m.value) + ", \"unit\": " + quoted(m.unit);
  if (m.samples >= 0) {
    s += ", \"samples\": " + std::to_string(m.samples);
  }
  if (m.beyond >= 0) {
    s += ", \"beyond\": " + std::to_string(m.beyond);
  }
  return s + "}";
}

// --- run context ---------------------------------------------------------------

/// Every TEMPI_* variable the library could read at install.
std::string knob_state() {
  std::string knobs;
  for (char **e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "TEMPI_", 6) == 0) {
      knobs += knobs.empty() ? "" : " ";
      knobs += *e;
    }
  }
  return knobs.empty() ? "default" : knobs;
}

long llc_bytes() {
  long v = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (v <= 0) {
    v = sysconf(_SC_LEVEL2_CACHE_SIZE);
  }
  return v > 0 ? v : 0;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 * 1e-6; // KiB -> MB
}

/// Host-clock metrics of one window of whole passes.
struct Window {
  double p50 = 0.0, p99 = 0.0, ops_per_s = 0.0;
};

/// Consecutive whole passes of at least kWindowOps ops each (the last
/// short window joins its predecessor), so every window holds a p99 with
/// at least ten samples beyond it. Host metrics are the median over
/// windows: a burst of outside load on the host spoils a window, not the
/// run.
constexpr std::size_t kWindowOps = 1000;

std::vector<Window> host_windows(const SessionResult &r) {
  std::vector<std::size_t> cuts;
  std::size_t start = 0;
  for (const std::size_t end : r.pass_ends) {
    if (end - start >= kWindowOps) {
      cuts.push_back(end);
      start = end;
    }
  }
  if (cuts.empty()) {
    cuts.push_back(r.ops.size());
  } else {
    cuts.back() = r.ops.size();
  }
  std::vector<Window> windows;
  start = 0;
  for (const std::size_t end : cuts) {
    std::vector<double> host;
    double busy_s = 0.0;
    for (std::size_t i = start; i < end; ++i) {
      host.push_back(r.ops[i].host_us);
      busy_s += r.ops[i].host_us * 1e-6;
    }
    windows.push_back({percentile(host, 50), percentile(host, 99),
                       busy_s > 0.0 ? static_cast<double>(end - start) / busy_s
                                    : 0.0});
    start = end;
  }
  return windows;
}

std::map<std::string, Metric> end_to_end(const SessionResult &r,
                                         double setup_s, double rss_mb) {
  std::vector<double> virt;
  std::uint64_t virt_ns = 0, payload = 0;
  for (const OpSample &op : r.ops) {
    virt.push_back(vcuda::ns_to_us(op.virt_ns));
    virt_ns += op.virt_ns;
    payload += op.payload_bytes;
  }
  const std::vector<Window> windows = host_windows(r);
  std::vector<double> p50, p99, rate;
  for (const Window &w : windows) {
    p50.push_back(w.p50);
    p99.push_back(w.p99);
    rate.push_back(w.ops_per_s);
  }
  const auto n = static_cast<long long>(r.ops.size());
  const auto beyond_p99 = [](long long k) { return k - (99 * k + 99) / 100; };
  const long long per_window = n / static_cast<long long>(windows.size());
  std::map<std::string, Metric> m;
  m["setup_s"] = {setup_s, "s"};
  m["virt_us_p50"] = {percentile(virt, 50), "us", n, -1};
  m["virt_us_p99"] = {percentile(virt, 99), "us", n, beyond_p99(n)};
  m["host_us_p50"] = {median(p50), "us", per_window, -1};
  m["host_us_p99"] = {median(p99), "us", per_window, beyond_p99(per_window)};
  m["host_ops_per_s"] = {median(rate), "ops/s", per_window, -1};
  // Bytes per virtual ns is GB/s; both sums are exact integers.
  m["virt_payload_gbps"] = {
      virt_ns > 0 ? static_cast<double>(payload) / static_cast<double>(virt_ns)
                  : 0.0,
      "GB/s", n, -1};
  m["peak_rss_mb"] = {rss_mb, "MB"};
  m["device_mb"] = {median(r.device_mb), "MB"};
  return m;
}

/// Units of the per-layer metrics, by name pattern.
std::string layer_unit(const std::string &name) {
  const auto ends = [&name](const char *suffix) {
    const std::size_t n = std::strlen(suffix);
    return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
  };
  if (ends("_us_per_op") || ends("_us") || ends("host_us_per_type")) {
    return "us";
  }
  if (ends("ns_per_byte")) {
    return "ns/B";
  }
  if (ends("bytes_per_op")) {
    return "B";
  }
  if (ends("_ratio") || ends("_share") || ends("over_best") ||
      ends("rank_skew") || name.find("method_share") != std::string::npos) {
    return "ratio";
  }
  return "count";
}

int run(const Options &opt) {
  // Rings are created lazily on the first armed span; size them so a pass
  // between two drains never fills one.
  tempi::trace::set_default_ring_capacity(std::size_t{1} << 16);
  const std::string knobs = knob_state();

  std::vector<SessionResult> sessions;
  std::vector<double> setups;
  double rss_mb = 0.0;
  if (!opt.trace) {
    // The timed session comes first and the peak RSS is read right after
    // it: the extra set-ups only feed the set-up median, and repeated
    // install/uninstall cycles leave a run-to-run varying heap behind.
    const int reps = find_workload(opt.workload)->setup_reps;
    for (int rep = 0; rep < reps; ++rep) {
      Plan plan;
      plan.loop_seconds = rep == 0 ? opt.seconds : 0.0;
      sessions.push_back(session(opt, plan));
      setups.push_back(sessions.back().setup_s);
      if (rep == 0) {
        rss_mb = peak_rss_mb();
      }
    }
  } else {
    Plan plain;
    plain.loop_seconds = opt.seconds / 2;
    sessions.push_back(session(opt, plain));
    Plan traced = plain;
    traced.traced = true;
    sessions.push_back(session(opt, traced));
  }

  SessionResult &measured = opt.trace ? sessions.back() : sessions.front();
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> failures;
  for (const SessionResult &s : sessions) {
    attempted += s.attempted;
    failed += s.failed;
    failures.insert(failures.end(), s.failures.begin(), s.failures.end());
  }

  std::map<std::string, Metric> metrics;
  if (!opt.trace) {
    metrics = end_to_end(measured, median(setups), rss_mb);
  } else {
    std::vector<double> plain_host, traced_host;
    for (const OpSample &op : sessions[0].ops) {
      plain_host.push_back(op.host_us);
    }
    for (const OpSample &op : measured.ops) {
      traced_host.push_back(op.host_us);
    }
    measured.layers["tempi.trace.overhead_ratio"] =
        percentile(traced_host, 50) / percentile(plain_host, 50);
    // Metrics a workload does not exercise read 0.
    for (const char *name :
         {"tempi.perf_model.auto_over_best", "halo.rank_skew"}) {
      measured.layers.emplace(name, 0.0);
    }
    for (const auto &[name, value] : measured.layers) {
      metrics[name] = {value, layer_unit(name)};
    }
  }

  std::string out = "{\"workload\": " + quoted(opt.workload) +
                    ", \"trace\": " + (opt.trace ? "true" : "false");
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"failures\": [";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    out += i == 0 ? "" : ", ";
    out += quoted(failures[i]);
  }
  out += "], \"context\": {";
  out += "\"seed\": " + std::to_string(opt.seed);
  out += ", \"seconds\": " + number(opt.seconds);
  out += ", \"tiny\": " + std::string(opt.tiny ? "true" : "false");
  out += ", \"knobs\": " + quoted(knobs);
  out += ", \"model_calibration\": " + quoted(tempi::model_calibration_source());
  out += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  out += ", \"llc_bytes\": " + std::to_string(llc_bytes());
  out += ", \"build_type\": " + quoted(PERFBENCH_BUILD_TYPE);
  out += ", \"rank_threads\": " + std::to_string(find_workload(opt.workload)->ranks);
  out += ", \"sessions\": " + std::to_string(sessions.size());
  out += ", \"timed_ops\": " + std::to_string(measured.ops.size());
  out += ", \"host_windows\": " + std::to_string(host_windows(measured).size());
  std::vector<double> wall;
  for (const OpSample &op : measured.ops) {
    wall.push_back(op.wall_us);
  }
  out += ", \"host_wall_us_p50\": " + number(median(wall));


  out += ", \"working_set_bytes\": " + number(measured.working_set_bytes);
  out += ", \"computed_bytes_per_op\": " + number(measured.computed_bytes_per_op);
  out += "}, \"metrics\": {";
  bool first = true;
  for (const auto &[name, m] : metrics) {
    out += first ? "" : ", ";
    out += quoted(name) + ": " + metric_json(m);
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return 0;
}

} // namespace
} // namespace perfbench

int main(int argc, char **argv) {
  const perfbench::Options opt = perfbench::parse(argc, argv);
  try {
    return perfbench::run(opt);
  } catch (const std::exception &e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 3;
  }
}
