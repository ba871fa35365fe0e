// End-to-end benchmark harness for the dproc simulator.
//
// One process runs one named workload (see README.md for why each exists):
//
//   dproc_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--trace-file <path>]
//
// The load is open-loop in virtual time: every d-mon polls once per
// simulated period however slow the host is, and the harness measures the
// host cost of that fixed schedule. Each run
//
//  1. sets up the measured world (construction, channel joins,
//     applications, warm-up) and times it;
//  2. runs a fixed number of timed slices (the deterministic window: every
//     count and virtual-time metric comes from it and repeats exactly for a
//     seed), then keeps running slices until `--seconds` of wall time have
//     passed; the host-time metric is the fastest slice;
//  3. sets the world up again, timing each set-up and checking that a short
//     fingerprint window after every set-up gives identical
//     event/packet/byte counts;
//  4. checks the outputs (procfs reads parse, views cover every live peer,
//     the hierarchy summary counts every node, churn heals, the stream
//     delivers frames) and prints one JSON line.
//
// `--trace 0` reports the end-to-end metrics. `--trace 1` turns on the
// simulator's causal tracing and self-monitoring, wraps the standard
// monitoring modules in a timing decorator, times calls into each layer's
// public API and reports the per-layer metrics, writing the harness's own
// wall-clock spans as one Chrome-trace JSON file.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <new>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "dproc/core/cluster.hpp"
#include "dproc/core/monitors.hpp"
#include "dproc/ecode/ecode.hpp"
#include "dproc/host/pmc.hpp"
#include "dproc/smartpointer/client.hpp"
#include "dproc/smartpointer/server.hpp"
#include "dproc/telemetry/telemetry.hpp"
#include "dproc/util/rng.hpp"
#include "dproc/util/stats.hpp"
#include "dproc/workload/linpack.hpp"

// --- heap allocation counter ------------------------------------------------
// Replaces the global operator new so allocs_per_event is an exact count.
// The harness is single-threaded, so a plain counter suffices.
namespace {
std::uint64_t g_allocs = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocs;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocs;
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace {

using namespace dproc;
using Clock = std::chrono::steady_clock;

std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// --- workloads --------------------------------------------------------------

enum class Kind { kPaper8, kFlat128, kHier4096, kChurn64 };

struct Spec {
  Kind kind;
  const char* name;
  std::size_t nodes;
  double warmup_s;      // simulated settle after every channel has joined
  double fp_s;          // fingerprint window after each set-up
  int steps_per_slice;  // poll periods (1 s) per timed slice
  int fixed_slices;     // the deterministic window
  int setups;           // set-ups per run (setup_s median, repeat check)
};

// Sizing: every slice covers whole cycles of the workload's periodic work
// (paper8: the 2 s filter keep-alive and the 5 s control write; flat128:
// the 2-period keyframe cycle; churn64: one 30 s fault cycle), so slices do
// equal work and the fastest one is comparable across runs. The fixed
// window and one set-up fit well inside a run. A paper8 set-up takes about
// 40 ms, so it is repeated often enough for a steady median.
constexpr Spec kSpecs[] = {
    {Kind::kPaper8, "paper8", 8, 10.0, 20.0, 10, 60, 25},
    {Kind::kFlat128, "flat128", 128, 5.0, 2.0, 2, 50, 2},
    {Kind::kHier4096, "hier4096", 4096, 6.0, 1.0, 1, 8, 2},
    {Kind::kChurn64, "churn64", 64, 8.0, 4.0, 30, 2, 2},
};

constexpr double kPeriodS = 1.0;
constexpr double kChurnCycleS = 30.0;
constexpr int kChurnCycles = 200;  // generated ahead; unreached ones never fire

/// Stream endpoints as (server, client) pairs: on paper8 the paper's
/// server on node 0 streaming to node 2. Elsewhere small streams between
/// nodes no fault touches; their d-mons run at different seeded phases, so
/// the pooled lag tail depends less on any one node's phase.
std::vector<std::pair<std::size_t, std::size_t>> stream_pairs(Kind kind) {
  switch (kind) {
    case Kind::kPaper8: return {{0, 2}};
    case Kind::kChurn64: return {{3, 4}, {5, 6}};
    default: return {{3, 4}, {5, 6}, {7, 8}, {9, 10}};
  }
}

std::vector<std::size_t> reader_nodes(const Spec& spec) {
  switch (spec.kind) {
    case Kind::kPaper8: return {0, 1, 2, 3, 4, 5, 6, 7};
    case Kind::kFlat128: return {1, 42, 85, 127};
    case Kind::kHier4096: return {spec.nodes - 1};  // the subscriber
    case Kind::kChurn64: return {3, 4, 5, 6};
  }
  return {};
}

/// Nodes the churn plan never takes down: registry replica hosts (0..2,
/// killed only as leaders), the stream endpoints and the readers.
constexpr std::size_t kChurnProtected = 7;

/// The E-code differential filter every paper8 publisher runs: a sample
/// goes out when it moved by more than `pct` since it was last sent, and
/// every sample goes out on even seconds so readers' views stay fresh.
std::string differential_filter(std::size_t metric_count, int pct) {
  std::ostringstream src;
  src << "filter {\n"
      << "  int keep = (input[0].timestamp / 1000000000) % 2 == 0;\n"
      << "  int i = 0;\n"
      << "  while (i < " << metric_count << ") {\n"
      << "    double last = input[i].last_value_sent;\n"
      << "    if (keep || abs(input[i].value - last) > abs(last) * " << pct
      << " / 100.0) {\n"
      << "      output[i] = input[i];\n"
      << "    }\n"
      << "    i = i + 1;\n"
      << "  }\n"
      << "}\n";
  return src.str();
}

// --- timing decorator for the standard monitoring modules -------------------

struct CollectTiming {
  std::int64_t ns = 0;
};

/// Behaviour-preserving wrapper: forwards every call and times collect()
/// on the host clock. The simulation never sees the measurement.
class TimedModule final : public core::MonitoringModule {
 public:
  TimedModule(std::unique_ptr<core::MonitoringModule> inner,
              CollectTiming& timing)
      : inner_(std::move(inner)), timing_(timing) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] std::vector<core::MetricDesc> metrics() const override {
    return inner_->metrics();
  }
  void collect(std::vector<core::MetricSample>& out, SimTime now) override {
    const std::int64_t start = wall_ns();
    inner_->collect(out, now);
    timing_.ns += wall_ns() - start;
  }
  void set_period(SimDuration period) override { inner_->set_period(period); }

 private:
  std::unique_ptr<core::MonitoringModule> inner_;
  CollectTiming& timing_;
};

/// Cluster::register_standard_modules' module set, each module wrapped.
void register_timed_standard_modules(core::DMon& dmon, host::Host& host,
                                     net::Nic& nic, double link_capacity_bps,
                                     CollectTiming& timing) {
  auto add = [&](std::unique_ptr<core::MonitoringModule> module) {
    dmon.register_module(
        std::make_unique<TimedModule>(std::move(module), timing));
  };
  add(std::make_unique<core::CpuMonitor>(host, seconds(5.0)));
  add(std::make_unique<core::MemMonitor>(host));
  add(std::make_unique<core::DiskMonitor>(host));
  add(std::make_unique<core::NetMonitor>(host, nic, link_capacity_bps));
  add(std::make_unique<core::PmcMonitor>(
      host, std::vector<std::string>{host::Pmc::kCacheMisses}));
}

// --- the harness's own wall-clock spans ---------------------------------------

struct WallSpan {
  const char* cat;
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
};

class SpanLog {
 public:
  static constexpr std::size_t kCapacity = 200'000;

  void enable(bool on) {
    on_ = on;
    if (on) spans_.reserve(kCapacity);
  }
  [[nodiscard]] bool on() const { return on_; }
  void add(const char* cat, const char* name, std::int64_t start,
           std::int64_t end) {
    if (!on_) return;
    if (spans_.size() < kCapacity) {
      spans_.push_back(WallSpan{cat, name, start, end});
    } else {
      ++dropped_;
    }
  }
  bool write_chrome(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    out << "{\"traceEvents\":[\n";
    out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
           "\"args\":{\"name\":\"dproc_perfbench\"}}";
    char buf[256];
    for (const WallSpan& s : spans_) {
      std::snprintf(buf, sizeof buf,
                    ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                    "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1}",
                    s.name, s.cat,
                    static_cast<double>(s.start_ns - origin) / 1e3,
                    static_cast<double>(s.end_ns - s.start_ns) / 1e3);
      out << buf;
    }
    out << "\n],\"otherData\":{\"spans_dropped\":" << dropped_ << "}}\n";
    return static_cast<bool>(out);
  }

 private:
  bool on_ = false;
  std::vector<WallSpan> spans_;
  std::uint64_t dropped_ = 0;
};

SpanLog g_spans;

/// Keeps the untraced baseline world's work out of the span log.
class SpansPaused {
 public:
  SpansPaused() : was_on_(g_spans.on()) { g_spans.enable(false); }
  ~SpansPaused() { g_spans.enable(was_on_); }
  SpansPaused(const SpansPaused&) = delete;
  SpansPaused& operator=(const SpansPaused&) = delete;

 private:
  bool was_on_;
};

class ScopedWall {
 public:
  ScopedWall(const char* cat, const char* name)
      : cat_(cat), name_(name), start_(g_spans.on() ? wall_ns() : 0) {}
  ~ScopedWall() {
    if (g_spans.on()) g_spans.add(cat_, name_, start_, wall_ns());
  }
  ScopedWall(const ScopedWall&) = delete;
  ScopedWall& operator=(const ScopedWall&) = delete;

 private:
  const char* cat_;
  const char* name_;
  std::int64_t start_;
};

// --- one simulated world ------------------------------------------------------

struct Options {
  const Spec* spec = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_file;
};

/// Member order is destruction order in reverse: applications go before
/// the cluster, the cluster before the engine it schedules on.
struct World {
  sim::Engine engine;
  std::unique_ptr<core::Cluster> cluster;
  std::vector<std::unique_ptr<workload::LinpackTask>> linpack;
  std::vector<std::unique_ptr<smartpointer::Server>> servers;
  std::vector<std::unique_ptr<smartpointer::Client>> clients;
  CollectTiming collect;  // filled only when the decorator is installed
};

core::ClusterConfig make_config(const Options& opt, bool traced,
                                bool decorate, CollectTiming* timing) {
  const Spec& spec = *opt.spec;
  core::ClusterConfig config;
  config.node_count = spec.nodes;
  config.seed = mix64(opt.seed ^ (0x9e11ULL * (static_cast<int>(spec.kind) + 1)));
  config.dmon.poll_period = seconds(kPeriodS);
  switch (spec.kind) {
    case Kind::kPaper8:
      break;
    case Kind::kFlat128:
      config.batch.enabled = true;
      config.batch.delta_epsilon = 0.01;
      // A keyframe every other period keeps a suppressed feed inside the
      // three-period staleness horizon.
      config.batch.keyframe_every = 2;
      config.batch.interest = true;
      // 128 simultaneous joins tail-drop at the registry; retries with
      // jitter land them all.
      config.liveness.join_retries = true;
      config.liveness.retry_jitter = 1.0;
      break;
    case Kind::kHier4096:
      config.hierarchy.enabled = true;
      config.hierarchy.zone_size = 8;
      config.hierarchy.fanout = 8;
      config.hierarchy.declare_zone_peers = false;
      config.hierarchy.subscribers = std::vector<std::size_t>{spec.nodes - 1};
      config.liveness.join_retries = true;
      config.liveness.retry_jitter = 1.0;
      break;
    case Kind::kChurn64:
      config.liveness.enabled = true;
      config.liveness.heartbeat_period = seconds(1.0);
      config.liveness.miss_threshold = 5;
      config.liveness.retry_jitter = 1.0;
      config.dmon.stale_after_periods = 3;
      config.registry.enabled = true;
      config.registry.replicas = 3;
      config.flight.enabled = true;
      config.health.enabled = true;
      config.batch.enabled = true;
      config.batch.delta_epsilon = 0.01;
      config.batch.keyframe_every = 2;
      config.adapt.enabled = true;
      config.sketch.enabled = true;
      break;
  }
  if (traced) {
    config.self_monitor = true;
    config.trace.enabled = true;
  }
  if (decorate) {
    const double capacity = config.link.bandwidth_bps;
    config.module_factory = [timing, capacity](core::DMon& dmon,
                                               host::Host& host,
                                               net::Nic& nic) {
      register_timed_standard_modules(dmon, host, nic, capacity, *timing);
    };
  }
  return config;
}

bool node_up(core::Cluster& cluster, std::size_t i) {
  return !cluster.node(i).kecho->crashed() &&
         !cluster.fabric().node_down(cluster.nic(i).node());
}

bool all_channels_joined(core::Cluster& cluster) {
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    if (!node_up(cluster, i)) continue;
    const auto channels = cluster.node(i).kecho->channels();
    if (channels.empty()) return false;
    for (const auto& [id, name] : channels) {
      if (id == 0) return false;
    }
  }
  return true;
}

std::uint64_t delivered_bytes(core::Cluster& cluster) {
  std::uint64_t bytes = 0;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    bytes += cluster.fabric().bytes_delivered_to(cluster.nic(i).node());
  }
  return bytes;
}

// --- per-run accounting --------------------------------------------------------

/// Per-node d-mon accounting accumulated by a sample observer: at each
/// poll's collection phase, last_poll() still holds the previous poll.
struct PollTotals {
  std::uint64_t polls = 0;
  std::uint64_t collected = 0;
  std::uint64_t published = 0;
  std::uint64_t delta_suppressed = 0;
  std::uint64_t filter_insns = 0;
};

/// Samples a paper8 publisher handed to its filter, for the E-code replay.
struct Capture {
  std::size_t node;
  bool variant_b;
  std::vector<core::MetricSample> samples;
};

struct Snapshot {
  std::uint64_t events = 0;
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  std::uint64_t cancel_flags = 0;
  net::FabricStats fabric{};
  std::uint64_t datagrams_lost = 0;
  double submit_us = 0, receive_us = 0;
  std::uint64_t cost_polls = 0;
  PollTotals polls{};
  std::uint64_t kecho_submits = 0, kecho_receives = 0;
  std::uint64_t bytes_saved = 0;
  std::uint64_t cache_hits = 0, cache_misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t join_retries = 0;
  std::uint64_t failovers = 0;
  std::uint64_t collect_errors = 0;
  std::uint64_t slo_violations = 0;
  std::int64_t collect_ns = 0;
  std::uint64_t frames_processed = 0;
};

struct Run {
  Options opt;
  std::vector<std::size_t> readers;
  std::vector<PollTotals> totals;  // per node
  std::vector<Capture> captures;
  bool capturing = false;
  std::string filter_a, filter_b;

  // Operations issued by the harness.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  // Virtual-time observations over the fixed window.
  std::vector<double> render_ms;      // publish -> render per distinct sample
  std::vector<std::int64_t> last_seen;  // per reader x peer: sampled_at ns
  std::uint64_t fresh_checks = 0, fresh_hits = 0;
  std::vector<double> summary_age_ms;
  double health_min = 100.0;
  bool health_seen = false;

  // Host-time observations (trace mode).
  std::vector<double> read_ns;
  std::vector<double> write_us;
  std::int64_t run_for_ns = 0;  // wall time inside Engine::run_for

  std::size_t read_metrics = 0;  // metric ids every node publishes
  // Procfs paths, built once per world so the harness's own string work
  // stays out of allocs_per_event: per reader x peer x metric (per metric
  // for the hier4096 roll-up), and each node's control file.
  std::vector<std::string> read_paths;
  std::vector<std::string> control_paths;
  int step = 0;  // poll periods since the measured window began
  int control_writes = 0;

  void fail(std::string message) {
    if (errors.size() < 20) errors.push_back(std::move(message));
  }
};

Snapshot snapshot(World& w, Run& run) {
  core::Cluster& c = *w.cluster;
  Snapshot s;
  s.events = w.engine.events_processed();
  s.packets = c.fabric().stats().packets_delivered;
  s.bytes = delivered_bytes(c);
  s.cancel_flags = w.engine.cancel_flags_allocated();
  s.fabric = c.fabric().stats();
  for (std::size_t i = 0; i < c.size(); ++i) {
    s.datagrams_lost += c.nic(i).stats().datagrams_lost;
    const core::DMon* d = c.dmon(i);
    if (d != nullptr) {
      s.submit_us += d->submit_cost_us().sum();
      s.receive_us += d->receive_cost_us().sum();
      s.cost_polls += d->submit_cost_us().count();
      s.bytes_saved += d->interest_bytes_saved();
      s.collect_errors += d->collect_errors();
      s.slo_violations += d->slo_violations();
    }
    const PollTotals& t = run.totals[i];
    s.polls.polls += t.polls;
    s.polls.collected += t.collected;
    s.polls.published += t.published;
    s.polls.delta_suppressed += t.delta_suppressed;
    s.polls.filter_insns += t.filter_insns;
    telemetry::Registry& reg = c.host(i).telemetry();
    s.kecho_submits += reg.counter("kecho", "submits").value();
    s.kecho_receives += reg.counter("kecho", "receives").value();
    s.cache_hits += c.node(i).kecho->cache_stats().hits;
    s.cache_misses += c.node(i).kecho->cache_stats().misses;
    s.evictions += c.node(i).kecho->evictions_initiated();
    s.join_retries += reg.counter("kecho", "join_retries").value();
  }
  if (c.config().registry.enabled) {
    for (std::size_t r = 0; r < c.registry_replica_count(); ++r) {
      s.failovers += c.registry_replica(r).stats().failovers;
    }
  }
  s.collect_ns = w.collect.ns;
  for (const auto& client : w.clients) s.frames_processed += client->frames_processed();
  return s;
}

// --- set-up --------------------------------------------------------------------

struct SetupResult {
  double construct_s = 0;
  double join_s = 0;
  [[nodiscard]] double total() const { return construct_s + join_s; }
  std::string fingerprint;
};

void install_observers(World& w, Run& run) {
  core::Cluster& c = *w.cluster;
  run.totals.assign(c.size(), PollTotals{});
  for (std::size_t i = 0; i < c.size(); ++i) {
    core::DMon* d = c.dmon(i);
    if (d == nullptr) continue;
    d->add_sample_observer(
        [&run, d, i](const std::vector<core::MetricSample>& samples, SimTime) {
          PollTotals& t = run.totals[i];
          const core::PollRecord& prev = d->last_poll();
          if (t.polls > 0) {
            t.published += prev.samples_published;
            t.delta_suppressed += prev.delta_suppressed;
            t.filter_insns += prev.filter_instructions;
          }
          ++t.polls;
          t.collected += samples.size();
          if (run.capturing && d->tuning().has_filter()) {
            run.captures.push_back(Capture{
                i, d->tuning().filter_source() == run.filter_b, samples});
          }
        });
  }
}

/// Starts the workload's applications once every channel has joined.
void start_apps(World& w, Run& run) {
  core::Cluster& c = *w.cluster;
  const Spec& spec = *run.opt.spec;
  const auto pairs = stream_pairs(spec.kind);

  smartpointer::ServerConfig sc;
  if (spec.kind == Kind::kPaper8) {
    sc.atom_count = 120'000;  // 3 MB full frames
    // Not a divisor of the poll period, so frames meet every phase of the
    // client's d-mon work and the lag tail does not hinge on the seed.
    sc.frame_rate_hz = 4.7;
    // Every publisher runs the differential filter.
    const std::size_t metrics = c.dmon(0)->metric_table().size();
    run.filter_a = differential_filter(metrics, 15);
    run.filter_b = differential_filter(metrics, 20);
    const auto tuning = core::parse_control_commands(run.filter_a);
    for (std::size_t i = 0; i < c.size(); ++i) {
      if (Status s = c.dmon(i)->apply_tuning(tuning.value()); !s) {
        run.fail("filter deploy on node " + std::to_string(i) + ": " +
                 s.to_string());
      }
    }
    // Linpack load on the client, plus one more on a seeded node.
    w.linpack.push_back(
        std::make_unique<workload::LinpackTask>(c.host(pairs.front().second)));
    Rng rng{mix64(run.opt.seed ^ 0x11a9ULL)};
    const auto extra = static_cast<std::size_t>(rng.uniform_int(3, 7));
    w.linpack.push_back(std::make_unique<workload::LinpackTask>(c.host(extra)));
  } else {
    // Small streams that measure how the monitoring load delays an
    // application's frames without becoming load themselves: 250 B frames
    // on four streams add about 1% to flat128's events, packets and bytes.
    // The rate is not a divisor of the poll period, so frames meet every
    // phase of the nodes' d-mon work; and the streams together carry
    // enough frames that the p99 of the 100 s window has over forty
    // beyond it.
    sc.atom_count = 10;
    sc.frame_rate_hz = 11.83;
  }
  for (const auto& [server, client] : pairs) {
    w.servers.push_back(std::make_unique<smartpointer::Server>(
        c.host(server), c.nic(server), c.dmon(server), sc));
    w.servers.back()->start();
    smartpointer::ClientConfig cc;
    cc.mode = smartpointer::FilterMode::kDynamic;
    cc.dmon = c.dmon(client);
    w.clients.push_back(std::make_unique<smartpointer::Client>(
        c.host(client), c.nic(client), c.nic(server).node(), sc.port, cc));
    w.clients.back()->connect();
  }

  if (spec.kind == Kind::kFlat128) {
    // Non-readers only want CPU and memory: interest-scoped fan-out.
    for (std::size_t i = 0; i < c.size(); ++i) {
      if (std::find(run.readers.begin(), run.readers.end(), i) !=
          run.readers.end()) {
        continue;
      }
      (void)c.dmon(i)->declare_interest({"cpu", "mem"});
    }
  }
}

/// Starts every d-mon at a seeded phase inside the first period, as
/// independently booted machines would: node i gets the slot pi(i) of N
/// evenly spaced slots (pi a seeded permutation) plus a seeded jitter
/// inside the slot. Publish->render latency then depends on the phase
/// gap between publisher and reader, not on a lock-stepped clock.
void start_staggered(core::Cluster& c, std::uint64_t seed) {
  Rng rng{mix64(seed ^ 0x57a6ULL)};
  std::vector<std::size_t> slot(c.size());
  std::iota(slot.begin(), slot.end(), std::size_t{0});
  for (std::size_t i = slot.size(); i > 1; --i) {
    std::swap(slot[i - 1], slot[static_cast<std::size_t>(
                               rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
  }
  const double width = kPeriodS / static_cast<double>(c.size());
  for (std::size_t i = 0; i < c.size(); ++i) {
    core::DMon* d = c.dmon(i);
    if (d == nullptr) continue;
    const double offset = (static_cast<double>(slot[i]) + rng.uniform()) * width;
    c.engine().schedule_at(SimTime::zero() + seconds(offset), [d] { d->start(); });
  }
}

/// Fills run.read_paths and run.control_paths for the world just set up.
void build_paths(World& w, Run& run) {
  core::Cluster& c = *w.cluster;
  const std::size_t n = c.size();
  const std::size_t m = run.read_metrics;
  auto name = [&](std::size_t i) -> const std::string& {
    return c.fabric().node_name(c.nic(i).node());
  };
  run.read_paths.clear();
  if (run.opt.spec->kind == Kind::kHier4096) {
    const auto& table = c.dmon(run.readers.front())->metric_table();
    for (std::size_t k = 0; k < m; ++k) {
      run.read_paths.push_back("/proc/cluster/rollup/" + table[k].path);
    }
  } else {
    run.read_paths.resize(run.readers.size() * n * m);
    for (std::size_t ri = 0; ri < run.readers.size(); ++ri) {
      const auto& table = c.dmon(run.readers[ri])->metric_table();
      for (std::size_t p = 0; p < n; ++p) {
        for (std::size_t k = 0; k < m; ++k) {
          run.read_paths[(ri * n + p) * m + k] =
              "/proc/cluster/" + name(p) + "/" + table[k].path;
        }
      }
    }
  }
  run.control_paths.clear();
  for (std::size_t i = 0; i < n; ++i) {
    run.control_paths.push_back("/proc/cluster/" + name(i) + "/control");
  }
}

/// Builds the world and brings it to steady state; times the set-up.
SetupResult set_up(World& w, Run& run, bool traced, bool decorate) {
  const Spec& spec = *run.opt.spec;
  SetupResult r;
  const std::int64_t t0 = wall_ns();
  {
    ScopedWall span("setup", "construct");
    w.cluster = std::make_unique<core::Cluster>(
        w.engine, make_config(run.opt, traced, decorate, &w.collect));
  }
  const std::int64_t t1 = wall_ns();
  {
    ScopedWall span("setup", "join");
    install_observers(w, run);
    start_staggered(*w.cluster, run.opt.seed);
    const SimTime limit = SimTime::zero() + seconds(120.0);
    do {
      w.engine.run_for(milliseconds(250.0));
    } while (!all_channels_joined(*w.cluster) && w.engine.now() < limit);
    if (!all_channels_joined(*w.cluster)) run.fail("channels never joined");
    // Readers rotate over the module metrics every node publishes, not the
    // application metrics registered by start_apps on single nodes.
    run.read_metrics = w.cluster->dmon(0)->metric_table().size();
    start_apps(w, run);
    w.engine.run_for(seconds(spec.warmup_s));
  }
  const std::int64_t t2 = wall_ns();
  r.construct_s = static_cast<double>(t1 - t0) / 1e9;
  r.join_s = static_cast<double>(t2 - t1) / 1e9;
  build_paths(w, run);

  // Expected joins count as operations: every node's channels.
  for (std::size_t i = 0; i < w.cluster->size(); ++i) {
    const auto channels = w.cluster->node(i).kecho->channels();
    for (const auto& [id, name] : channels) {
      ++run.attempted;
      if (id == 0) ++run.failed;
    }
  }

  {
    ScopedWall span("setup", "fingerprint");
    const std::uint64_t e0 = w.engine.events_processed();
    const std::uint64_t p0 = w.cluster->fabric().stats().packets_delivered;
    const std::uint64_t b0 = delivered_bytes(*w.cluster);
    w.engine.run_for(seconds(spec.fp_s));
    r.fingerprint =
        "events=" + std::to_string(w.engine.events_processed() - e0) +
        " packets=" +
        std::to_string(w.cluster->fabric().stats().packets_delivered - p0) +
        " bytes=" + std::to_string(delivered_bytes(*w.cluster) - b0);
  }
  return r;
}

// --- churn plan -------------------------------------------------------------------

/// Generated fault plan: per 30 s cycle, one node outage, one uplink flap,
/// one downlink loss burst, and on every third cycle a registry-leader
/// kill with the killed node restarted. Every fault ends by 10 s into its
/// cycle; the remaining 20 s are the settle window.
sim::FaultPlan churn_plan(core::Cluster& c, std::uint64_t seed, SimTime base) {
  Rng rng{mix64(seed ^ 0xc4a05ULL)};
  sim::FaultPlan plan;
  const auto n = static_cast<std::int64_t>(c.size());
  const auto lo = static_cast<std::int64_t>(kChurnProtected);
  auto at = [&](int cycle, double offset) {
    return base + seconds(cycle * kChurnCycleS + offset);
  };
  for (int k = 0; k < kChurnCycles; ++k) {
    const auto victim = static_cast<std::uint32_t>(rng.uniform_int(lo, n - 1));
    const double down = rng.uniform(1.0, 3.0);
    plan.node_outage(at(k, down), at(k, down + rng.uniform(2.0, 5.0)), victim);

    const auto flapped = static_cast<std::size_t>(rng.uniform_int(lo, n - 1));
    const double flap = rng.uniform(2.0, 5.0);
    plan.flap_link(at(k, flap), at(k, flap + 3.0), milliseconds(500.0),
                   c.uplink(flapped));

    const auto lossy = static_cast<std::size_t>(rng.uniform_int(lo, n - 1));
    const double loss = rng.uniform(1.0, 6.0);
    plan.loss_burst(at(k, loss), at(k, loss + 2.0), c.downlink(lossy),
                    rng.uniform(0.1, 0.3), rng());

    if (k % 3 == 1) {
      // Replica 0 leads whenever the previous kill has healed (it
      // reclaims leadership on return), so the kill lands on node 0.
      const double kill = rng.uniform(1.0, 3.0);
      plan.kill_registry_leader(at(k, kill));
      plan.restart_node(at(k, kill + 5.0), 0);
    }
  }
  return plan;
}

// --- one poll period of harness work --------------------------------------------

bool parse_number(const std::string& text, double& value) {
  const char* begin = text.c_str();
  char* end = nullptr;
  value = std::strtod(begin, &end);
  return end != begin && (*end == '\n' || *end == '\0');
}

double parse_field(const std::string& text, const char* field) {
  const std::size_t at = text.find(field);
  if (at == std::string::npos) return -1.0;
  return std::strtod(text.c_str() + at + std::strlen(field), nullptr);
}

Result<std::string> timed_read(Run& run, procfs::ProcFs& fs,
                               const std::string& path) {
  ScopedWall span("procfs", "read");
  if (!run.opt.trace) return fs.read(path);
  const std::int64_t t0 = wall_ns();
  auto result = fs.read(path);
  run.read_ns.push_back(static_cast<double>(wall_ns() - t0));
  return result;
}

/// Readers poll a rotating metric of every live peer through
/// /proc/cluster and record freshness and publish->render latency.
void read_peers(World& w, Run& run, bool in_window) {
  core::Cluster& c = *w.cluster;
  const double fresh_limit_s = 3.0 * kPeriodS;
  for (std::size_t ri = 0; ri < run.readers.size(); ++ri) {
    const std::size_t r = run.readers[ri];
    if (!node_up(c, r)) continue;
    core::DMon& d = *c.dmon(r);
    for (std::size_t p = 0; p < c.size(); ++p) {
      if (p == r || !node_up(c, p)) continue;  // never the local node
      const net::NodeId peer = c.nic(p).node();
      const auto health = d.peer_health(peer);
      if (!health || health->state == core::PeerState::kDead ||
          !health->has_data) {
        continue;
      }
      const std::size_t k =
          (static_cast<std::size_t>(run.step) + p) % run.read_metrics;
      const std::string& path =
          run.read_paths[(ri * c.size() + p) * run.read_metrics + k];
      auto text = timed_read(run, c.procfs(r), path);
      ++run.attempted;
      double value = 0;
      if (!text.is_ok() || !parse_number(text.value(), value)) {
        ++run.failed;
        run.fail("read " + path + " on node " + std::to_string(r) + ": " +
                 (text.is_ok() ? text.value() : text.status().to_string()));
        continue;
      }
      if (!in_window) continue;
      // Freshness of the value just read (age from the publisher's stamp).
      ++run.fresh_checks;
      const double age = parse_field(text.value(), "\nage_s ");
      if (age >= 0 && age < fresh_limit_s) ++run.fresh_hits;
      // Publish -> render for each distinct sample of the first metric.
      const core::RemoteMetric* m = d.remote_metric(peer, core::MetricId{0});
      std::int64_t& seen = run.last_seen[ri * c.size() + p];
      if (m != nullptr && m->sampled_at.ns() != seen) {
        seen = m->sampled_at.ns();
        run.render_ms.push_back((m->received_at - m->sampled_at).sec() * 1e3);
      }
    }
  }
}

/// hier4096: the subscriber's root summary and its procfs roll-up files.
void read_summary(World& w, Run& run, bool in_window) {
  core::Cluster& c = *w.cluster;
  const std::size_t sub = run.readers.front();
  core::DMon& d = *c.dmon(sub);
  const SimTime now = w.engine.now();
  const std::string& path =
      run.read_paths[static_cast<std::size_t>(run.step) % run.read_metrics];
  auto text = timed_read(run, c.procfs(sub), path);
  ++run.attempted;
  if (!text.is_ok() || parse_field(text.value(), "count ") < 1.0) {
    ++run.failed;
    run.fail("read " + path + ": " +
             (text.is_ok() ? text.value() : text.status().to_string()));
    return;
  }
  const net::AggregateBatch* summary = d.cluster_summary();
  if (summary == nullptr || summary->entries.empty()) {
    ++run.failed;
    run.fail("subscriber has no root summary");
    return;
  }
  if (!in_window) return;
  const auto& e = summary->entries.front();
  ++run.fresh_checks;
  if ((now - SimTime{e.latest_ns}).sec() < 3.0 * kPeriodS) ++run.fresh_hits;
  run.summary_age_ms.push_back((now - d.cluster_summary_at()).sec() * 1e3);
  std::int64_t& seen = run.last_seen[0];
  if (d.cluster_summary_at().ns() != seen) {
    seen = d.cluster_summary_at().ns();
    run.render_ms.push_back(
        (d.cluster_summary_at() - SimTime{e.latest_ns}).sec() * 1e3);
  }
}

/// paper8: node 1 redeploys a peer's filter through its control file every
/// five periods, alternating two thresholds so the publisher recompiles.
void control_write(World& w, Run& run) {
  core::Cluster& c = *w.cluster;
  constexpr std::size_t kController = 1;
  const std::size_t n = c.size();
  const std::size_t target =
      (kController + 1 + static_cast<std::size_t>(run.control_writes) % (n - 1)) % n;
  const bool to_b = c.dmon(target)->tuning().filter_source() != run.filter_b;
  const std::string& path = run.control_paths[target];
  ScopedWall span("procfs", "write");
  const std::int64_t t0 = run.opt.trace ? wall_ns() : 0;
  const Status s =
      c.procfs(kController).write(path, to_b ? run.filter_b : run.filter_a);
  if (run.opt.trace) {
    run.write_us.push_back(static_cast<double>(wall_ns() - t0) / 1e3);
  }
  ++run.attempted;
  ++run.control_writes;
  if (!s) {
    ++run.failed;
    run.fail("write " + path + ": " + s.to_string());
  }
}

/// Every node alive, and every live node live in every live peer's view.
void check_views(World& w, Run& run, const char* when) {
  core::Cluster& c = *w.cluster;
  const Spec& spec = *run.opt.spec;
  if (spec.kind == Kind::kHier4096) {
    const net::AggregateBatch* summary =
        c.dmon(run.readers.front())->cluster_summary();
    const std::uint32_t counted =
        summary == nullptr || summary->entries.empty()
            ? 0
            : summary->entries.front().count;
    if (counted != spec.nodes) {
      run.fail(std::string(when) + ": root summary counts " +
               std::to_string(counted) + " of " + std::to_string(spec.nodes) +
               " nodes");
    }
    return;
  }
  const bool all_pairs = spec.kind == Kind::kChurn64;
  std::vector<std::size_t> viewers = run.readers;
  if (all_pairs) {
    viewers.clear();
    for (std::size_t i = 0; i < c.size(); ++i) viewers.push_back(i);
  }
  for (std::size_t v : viewers) {
    if (!node_up(c, v)) {
      run.fail(std::string(when) + ": node " + std::to_string(v) + " down");
      continue;
    }
    for (std::size_t p = 0; p < c.size(); ++p) {
      if (p == v) continue;
      if (!node_up(c, p)) {
        run.fail(std::string(when) + ": node " + std::to_string(p) + " down");
        continue;
      }
      if (c.dmon(v)->peer_state(c.nic(p).node()) != core::PeerState::kLive) {
        run.fail(std::string(when) + ": node " + std::to_string(v) +
                 " does not see node " + std::to_string(p) + " live");
      }
    }
  }
}

void period_tick(World& w, Run& run, bool in_window) {
  const Spec& spec = *run.opt.spec;
  {
    ScopedWall span("sim", "run_for");
    const std::int64_t t0 = wall_ns();
    w.engine.run_for(seconds(kPeriodS));
    run.run_for_ns += wall_ns() - t0;
  }
  ++run.step;
  if (spec.kind == Kind::kHier4096) {
    read_summary(w, run, in_window);
  } else {
    read_peers(w, run, in_window);
  }
  if (spec.kind == Kind::kPaper8 && run.step % 5 == 0) control_write(w, run);
  if (spec.kind == Kind::kChurn64) {
    if (in_window) {
      for (std::size_t i = 0; i < w.cluster->size(); ++i) {
        const core::HealthEngine* h = w.cluster->dmon(i)->health_engine();
        if (h != nullptr && node_up(*w.cluster, i)) {
          run.health_min = std::min(run.health_min, h->score());
          run.health_seen = true;
        }
      }
    }
    if (run.step % static_cast<int>(kChurnCycleS) == 0) {
      check_views(w, run, "after churn settle window");
    }
  }
}

// --- E-code probe -----------------------------------------------------------------

struct EcodeProbe {
  double compile_us = 0;
  double eval_ns = 0;
  std::uint64_t evals = 0;
};

/// Replays the captured publisher inputs through the deployed filter with
/// the public ecode API, tracking last_value_sent as d-mon does.
EcodeProbe ecode_probe(World& w, Run& run) {
  EcodeProbe probe;
  if (run.captures.empty()) return probe;
  core::DMon& d0 = *w.cluster->dmon(0);
  ecode::CompileEnv env;
  for (const core::MetricDesc& desc : d0.metric_table()) {
    env.constants[core::to_filter_constant(desc.key)] =
        static_cast<std::int64_t>(desc.id);
  }
  auto source = [](const std::string& control) {
    return core::parse_control_commands(control).value().filter_source.value();
  };
  const std::string source_a = source(run.filter_a);
  auto b = ecode::Filter::compile(source(run.filter_b), env);
  std::vector<double> compile;
  std::optional<ecode::Filter> a;
  for (int i = 0; i < 21; ++i) {
    ScopedWall span("ecode", "compile");
    const std::int64_t t0 = wall_ns();
    auto fa = ecode::Filter::compile(source_a, env);
    compile.push_back(static_cast<double>(wall_ns() - t0) / 1e3);
    if (!fa || !b) {
      run.fail("ecode probe: filter does not compile");
      return probe;
    }
    a.emplace(std::move(fa).value());
  }
  probe.compile_us = median_of(compile);

  // Per-node last-sent state, indexed by metric id; nodes with application
  // metrics (the stream client) have longer tables than node 0.
  const std::size_t n = w.cluster->size();
  std::size_t metrics = 0;
  for (std::size_t i = 0; i < n; ++i) {
    metrics = std::max(metrics, w.cluster->dmon(i)->metric_table().size());
  }
  std::vector<double> last(n * metrics, 0.0);
  std::vector<char> sent(n * metrics, 0);
  std::vector<ecode::Sample> input;
  ecode::Vm vm;  // one warm VM, as each publisher keeps
  ecode::FilterResult result;
  std::vector<double> rounds;
  for (int round = 0; round < 5; ++round) {
    std::fill(last.begin(), last.end(), 0.0);
    std::fill(sent.begin(), sent.end(), 0);
    ScopedWall span("ecode", "replay");
    const std::int64_t t0 = wall_ns();
    for (const Capture& cap : run.captures) {
      input.clear();
      for (const core::MetricSample& s : cap.samples) {
        const std::size_t k = cap.node * metrics + s.id;
        input.push_back(ecode::Sample{static_cast<std::int64_t>(s.id), s.value,
                                      sent[k] ? last[k] : 0.0,
                                      s.sampled_at.ns()});
      }
      const ecode::Filter& f = cap.variant_b ? b.value() : *a;
      if (Status s = vm.run(f.bytecode(), input, result); !s) {
        run.fail("ecode replay: " + s.to_string());
        return probe;
      }
      for (const auto& [slot, out] : result.outputs) {
        // d-mon drops outputs with an id outside the sample vector too.
        if (out.id < 0 || static_cast<std::size_t>(out.id) >= metrics) continue;
        const std::size_t k =
            cap.node * metrics + static_cast<std::size_t>(out.id);
        last[k] = out.value;
        sent[k] = 1;
      }
    }
    rounds.push_back(static_cast<double>(wall_ns() - t0) /
                     static_cast<double>(run.captures.size()));
  }
  probe.eval_ns = median_of(rounds);
  probe.evals = run.captures.size();
  return probe;
}

// --- results ------------------------------------------------------------------------

double quantile_of(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Metrics {
  std::vector<std::pair<std::string, std::pair<double, const char*>>> items;
  std::vector<std::string> not_finite;  // reported as failed checks
  void add(const std::string& name, double value, const char* unit) {
    if (!std::isfinite(value)) {
      not_finite.push_back(name);
      value = 0.0;
    }
    items.push_back({name, {value, unit}});
  }
};

std::string to_json(bool correct, std::uint64_t attempted,
                    std::uint64_t failed, const Metrics& m) {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : m.items) {
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
        << vu.first << ", \"unit\": \"" << vu.second << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

/// Per-stage transition latencies (us), merged across every channel.
std::array<SampleSet, telemetry::kHopStageCount> stage_breakdown(
    core::Cluster& c) {
  std::vector<const telemetry::Registry*> regs;
  for (std::size_t i = 0; i < c.size(); ++i) regs.push_back(&c.host(i).telemetry());
  std::array<SampleSet, telemetry::kHopStageCount> stages;
  for (const telemetry::HopBreakdownRow& row : telemetry::hop_breakdown(regs)) {
    stages[static_cast<std::size_t>(row.stage)].merge(row.durations_us);
  }
  return stages;
}

int run_benchmark(const Options& opt) {
  const Spec& spec = *opt.spec;
  g_spans.enable(opt.trace);
  Run run;
  run.opt = opt;
  run.readers = reader_nodes(spec);

  // The measured world is set up first, on a fresh heap. The repeat
  // set-ups (the setup_s median and the fingerprint check) follow it.
  std::vector<double> setup_s, construct_s, join_s;
  std::vector<std::string> fingerprints;
  auto record = [&](const SetupResult& r) {
    setup_s.push_back(r.total());
    construct_s.push_back(r.construct_s);
    join_s.push_back(r.join_s);
    fingerprints.push_back(r.fingerprint);
  };
  auto world = std::make_unique<World>();
  record(set_up(*world, run, opt.trace, opt.trace));
  World& w = *world;
  core::Cluster& c = *w.cluster;
  check_views(w, run, "after warm-up");

  if (spec.kind == Kind::kChurn64) c.inject(churn_plan(c, opt.seed, w.engine.now()));
  const double slice_sim_s = spec.steps_per_slice * kPeriodS;
  const double window_s = spec.fixed_slices * slice_sim_s;
  // Room for every publish->render sample of the window, so the harness's
  // own vector growth stays out of allocs_per_event.
  auto prepare_window = [&](Run& r) {
    r.last_seen.assign(r.readers.size() * c.size(), -1);
    const auto periods = static_cast<std::size_t>(spec.fixed_slices * spec.steps_per_slice);
    r.render_ms.reserve(r.last_seen.size() * periods);
    r.summary_age_ms.reserve(periods);
  };
  prepare_window(run);

  // Trace mode: an untraced world of the same seed, without the decorator,
  // driven through the same schedule (reads, control writes) one slice
  // after each traced slice of the fixed window. The two worlds meet the
  // same host conditions, so their ratio is the cost of the tracing.
  std::unique_ptr<World> base;
  std::unique_ptr<Run> base_run;
  std::vector<double> baseline_slices;
  std::uint64_t base_events = 0;
  if (opt.trace) {
    for (std::size_t i = 0; i < c.size(); ++i) c.host(i).telemetry().clear_hops();
    SpansPaused paused;
    base_run = std::make_unique<Run>();
    base_run->opt = opt;
    base_run->opt.trace = false;
    base_run->readers = run.readers;
    base = std::make_unique<World>();
    set_up(*base, *base_run, false, false);
    if (spec.kind == Kind::kChurn64) {
      base->cluster->inject(churn_plan(*base->cluster, opt.seed, base->engine.now()));
    }
    prepare_window(*base_run);
    base_events = base->engine.events_processed();
  }
  const SimTime window_start = w.engine.now();

  // Measured phase.
  run.capturing = opt.trace && spec.kind == Kind::kPaper8;
  std::vector<double> slice_wall;
  slice_wall.reserve(100'000);
  Snapshot before = snapshot(w, run);
  Snapshot after;
  // Heap allocations between the two snapshots, excluding their own work.
  const std::uint64_t allocs_start = g_allocs;
  std::uint64_t allocs_end = 0;
  std::size_t pending_peak = 0;
  const std::int64_t measure_start = wall_ns();
  for (int s = 0;; ++s) {
    const bool in_window = s < spec.fixed_slices;
    const std::int64_t t0 = wall_ns();
    {
      ScopedWall span("bench", "slice");
      for (int k = 0; k < spec.steps_per_slice; ++k) {
        period_tick(w, run, in_window);
        if (in_window) pending_peak = std::max(pending_peak, w.engine.pending_events());
      }
    }
    slice_wall.push_back(static_cast<double>(wall_ns() - t0) / 1e9);
    if (base && in_window) {
      SpansPaused paused;
      const std::int64_t b0 = wall_ns();
      for (int k = 0; k < spec.steps_per_slice; ++k) period_tick(*base, *base_run, true);
      baseline_slices.push_back(static_cast<double>(wall_ns() - b0) / 1e9);
    }
    if (s + 1 == spec.fixed_slices) {
      run.capturing = false;
      allocs_end = g_allocs;
      after = snapshot(w, run);
      if (base) base_events = base->engine.events_processed() - base_events;
      check_views(w, run, "end of fixed window");
      if (base) check_views(*base, *base_run, "end of fixed window");
    }
    const double elapsed = static_cast<double>(wall_ns() - measure_start) / 1e9;
    if (s + 1 >= spec.fixed_slices &&
        (elapsed >= opt.seconds || slice_wall.size() >= slice_wall.capacity())) {
      break;
    }
  }
  const SimTime window_end = window_start + seconds(window_s);

  // Stream checks and lag.
  std::vector<double> lag_s;
  std::uint64_t rep_switches = 0;
  for (const auto& client : w.clients) {
    bool have_prev = false;
    smartpointer::Representation prev{};
    for (const auto& point : client->lag_series()) {
      if (point.completed_at < window_start || point.completed_at >= window_end) {
        continue;
      }
      lag_s.push_back(point.lag.sec());
      if (have_prev && point.rep != prev) ++rep_switches;
      prev = point.rep;
      have_prev = true;
    }
  }
  const std::uint64_t frames = after.frames_processed - before.frames_processed;
  if (frames == 0) run.fail("SmartPointer clients processed no frames");
  if (run.render_ms.empty()) run.fail("no publish->render samples");

  const double n = static_cast<double>(spec.nodes);
  const double node_s = n * window_s;
  const double events = static_cast<double>(after.events - before.events);
  const double cost_polls = static_cast<double>(after.cost_polls - before.cost_polls);

  Metrics m;
  EcodeProbe probe;
  if (!opt.trace) {
    // The fastest slice: the host's speed swings by tens of percent on a
    // one-second scale under contention from other tenants, so the median
    // slice measures the neighbours as much as the simulator; every slice
    // does the same periodic work, so the fastest one is its uncontended
    // cost.
    m.add("wall_us_per_node_s",
          *std::min_element(slice_wall.begin(), slice_wall.end()) /
              (n * slice_sim_s) * 1e6,
          "us");
    m.add("peak_rss_mb", peak_rss_mb(), "MB");
    m.add("allocs_per_event",
          static_cast<double>(allocs_end - allocs_start) / events, "count");
    m.add("monitor_overhead_pct",
          (after.submit_us - before.submit_us + after.receive_us - before.receive_us) /
              cost_polls / (kPeriodS * 1e6) * 100.0,
          "%");
    m.add("fabric_bytes_per_node_s",
          static_cast<double>(after.bytes - before.bytes) / node_s, "B/s");
    m.add("publish_render_p50_ms", quantile_of(run.render_ms, 0.5), "ms");
    m.add("publish_render_p99_ms", quantile_of(run.render_ms, 0.99), "ms");
    m.add("stream_lag_p99_s", quantile_of(lag_s, 0.99), "s");
    m.add("view_fresh_pct",
          100.0 * static_cast<double>(run.fresh_hits) /
              static_cast<double>(std::max<std::uint64_t>(run.fresh_checks, 1)),
          "%");
  } else {
    const double polls = static_cast<double>(after.polls.polls - before.polls.polls);
    const double collected =
        static_cast<double>(after.polls.collected - before.polls.collected);
    const double published =
        static_cast<double>(after.polls.published - before.polls.published);
    const double delta =
        static_cast<double>(after.polls.delta_suppressed - before.polls.delta_suppressed);
    m.add("sim.events_per_node_s", events / node_s, "1/s");
    m.add("sim.pending_peak", static_cast<double>(pending_peak), "count");
    m.add("sim.cancel_flags_per_event",
          static_cast<double>(after.cancel_flags - before.cancel_flags) / events, "count");
    m.add("net.packets_per_node_s",
          static_cast<double>(after.packets - before.packets) / node_s, "1/s");
    m.add("net.drops_buffer_full",
          static_cast<double>(after.fabric.drops_buffer_full - before.fabric.drops_buffer_full), "count");
    m.add("net.drops_link_down",
          static_cast<double>(after.fabric.drops_link_down - before.fabric.drops_link_down), "count");
    m.add("net.drops_node_down",
          static_cast<double>(after.fabric.drops_node_down - before.fabric.drops_node_down), "count");
    m.add("net.drops_loss",
          static_cast<double>(after.fabric.drops_loss - before.fabric.drops_loss), "count");
    m.add("net.datagrams_lost",
          static_cast<double>(after.datagrams_lost - before.datagrams_lost), "count");
    m.add("kecho.events_submitted_per_node_s",
          static_cast<double>(after.kecho_submits - before.kecho_submits) / node_s, "1/s");
    m.add("kecho.events_received_per_node_s",
          static_cast<double>(after.kecho_receives - before.kecho_receives) / node_s, "1/s");
    m.add("kecho.bytes_saved",
          static_cast<double>(after.bytes_saved - before.bytes_saved), "B");
    m.add("kecho.evictions", static_cast<double>(after.evictions - before.evictions), "count");
    // Metrics of subsystems only some workloads run are reported only
    // there: the registry, health and adapt on churn64, the hierarchy's
    // join storm and roll-up on hier4096.
    if (spec.kind == Kind::kChurn64) {
      const double hits = static_cast<double>(after.cache_hits - before.cache_hits);
      const double lookups = hits + static_cast<double>(after.cache_misses - before.cache_misses);
      // A window without lookups had no miss either.
      m.add("kecho.cache_hit_pct", lookups > 0 ? 100.0 * hits / lookups : 100.0, "%");
      m.add("kecho.registry_leader_changes",
            static_cast<double>(after.failovers - before.failovers), "count");
    }
    if (spec.kind == Kind::kHier4096) {
      // Joins happen during set-up, so this counts from construction to
      // the start of the window.
      m.add("kecho.join_retries", static_cast<double>(before.join_retries), "count");
    }
    m.add("core.submit_cost_us", (after.submit_us - before.submit_us) / cost_polls, "us");
    m.add("core.receive_cost_us", (after.receive_us - before.receive_us) / cost_polls, "us");
    m.add("core.samples_published_per_node_s", published / node_s, "1/s");
    m.add("core.delta_suppressed_per_node_s", delta / node_s, "1/s");
    m.add("core.filter_suppressed_pct",
          collected > 0 ? 100.0 * std::max(0.0, collected - published - delta) / collected : 0.0,
          "%");
    m.add("core.collect_errors",
          static_cast<double>(after.collect_errors - before.collect_errors), "count");
    m.add("core.slo_violations",
          static_cast<double>(after.slo_violations - before.slo_violations), "count");
    if (spec.kind == Kind::kChurn64) {
      if (!run.health_seen) run.fail("no health score was read");
      m.add("core.health_score_min", run.health_min, "score");
      double adapt = 0;
      std::size_t adapters = 0;
      for (std::size_t i = 0; i < c.size(); ++i) {
        if (const core::PeriodController* a = c.dmon(i)->adaptation()) {
          adapt += a->last_overhead();
          ++adapters;
        }
      }
      if (adapters == 0) run.fail("no d-mon adapts its periods");
      m.add("core.adapt_overhead_pct",
            100.0 * adapt / static_cast<double>(std::max<std::size_t>(adapters, 1)), "%");
    }
    if (spec.kind == Kind::kHier4096) {
      m.add("core.hier_summary_age_ms",
            std::accumulate(run.summary_age_ms.begin(), run.summary_age_ms.end(), 0.0) /
                static_cast<double>(std::max<std::size_t>(run.summary_age_ms.size(), 1)),
            "ms");
    }
    m.add("host.collect_ns_per_poll",
          polls > 0 ? static_cast<double>(after.collect_ns - before.collect_ns) / polls : 0.0,
          "ns");
    probe = ecode_probe(w, run);
    m.add("ecode.compile_us", probe.compile_us, "us");
    m.add("ecode.eval_ns", probe.eval_ns, "ns");
    m.add("ecode.insns_per_node_s",
          static_cast<double>(after.polls.filter_insns - before.polls.filter_insns) / node_s,
          "1/s");
    m.add("procfs.read_ns_p50", quantile_of(run.read_ns, 0.5), "ns");
    m.add("procfs.read_ns_p99", quantile_of(run.read_ns, 0.99), "ns");
    m.add("procfs.write_us_p50", quantile_of(run.write_us, 0.5), "us");
    m.add("smartpointer.frames_per_s", static_cast<double>(frames) / window_s, "1/s");
    m.add("smartpointer.rep_switches", static_cast<double>(rep_switches), "count");
    const auto stages = stage_breakdown(c);
    static const char* kStageNames[] = {nullptr,          "publish_submit",
                                        "submit_arrive",  "arrive_deliver",
                                        "deliver_render", "render_decision"};
    for (std::size_t st = 1; st < telemetry::kHopStageCount; ++st) {
      const std::string base = std::string("stage.") + kStageNames[st];
      m.add(base + "_ms_p50", stages[st].quantile(0.5) / 1e3, "ms");
      m.add(base + "_ms_p99", stages[st].quantile(0.99) / 1e3, "ms");
    }
    if (!opt.trace_file.empty() && !g_spans.write_chrome(opt.trace_file)) {
      run.fail("cannot write " + opt.trace_file);
    }
  }

  const std::vector<double> traced_fixed(slice_wall.begin(),
                                         slice_wall.begin() + spec.fixed_slices);
  const std::string summary =
      std::string(spec.name) + " seed=" + std::to_string(opt.seed) +
      " slices=" + std::to_string(slice_wall.size()) +
      " events=" + std::to_string(after.events - before.events) +
      " packets=" + std::to_string(after.packets - before.packets) +
      " bytes=" + std::to_string(after.bytes - before.bytes);
  world.reset();
  if (base_run) {
    run.attempted += base_run->attempted;
    run.failed += base_run->failed;
    for (const std::string& e : base_run->errors) run.fail("untraced baseline: " + e);
    base.reset();
  }

  if (!opt.trace) {
    for (int rep = 1; rep < spec.setups; ++rep) {
      World again;
      record(set_up(again, run, false, false));
    }
    m.add("setup_s", median_of(setup_s), "s");
  } else {
    {
      // Same tracing without the decorator: the fingerprints must agree,
      // so the decorator does not change behaviour.
      World plain;
      record(set_up(plain, run, true, false));
    }
    // Host costs come from the untraced baseline world, so tracing does
    // not inflate them.
    const double baseline_wall =
        std::accumulate(baseline_slices.begin(), baseline_slices.end(), 0.0);
    m.add("sim.ns_per_event",
          static_cast<double>(base_run->run_for_ns) / static_cast<double>(base_events),
          "ns");
    m.add("ecode.share_pct",
          100.0 * static_cast<double>(probe.evals) * probe.eval_ns /
              (baseline_wall * 1e9),
          "%");
    m.add("telemetry.trace_overhead_pct",
          100.0 * (median_of(traced_fixed) / median_of(baseline_slices) - 1.0),
          "%");
    m.add("setup.construct_s", median_of(construct_s), "s");
    m.add("setup.join_s", median_of(join_s), "s");
  }
  for (const std::string& fp : fingerprints) {
    if (fp != fingerprints.front()) {
      run.fail("fingerprint differs between identical set-ups: " +
               fingerprints.front() + " vs " + fp);
    }
  }

  for (const std::string& name : m.not_finite) {
    run.fail("metric " + name + " is not a finite number");
  }
  const bool correct = run.errors.empty();
  for (const std::string& e : run.errors) std::fprintf(stderr, "check failed: %s\n", e.c_str());
  std::fprintf(stderr, "%s fingerprint[%s]\n", summary.c_str(),
               fingerprints.front().c_str());
  std::printf("%s\n", to_json(correct, run.attempted, run.failed, m).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: dproc_perfbench --workload paper8|flat128|hier4096|churn64 "
               "--seed N --seconds S --trace 0|1 [--trace-file PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      for (const Spec& spec : kSpecs) {
        if (value == spec.name) opt.spec = &spec;
      }
      if (opt.spec == nullptr) return usage();
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      opt.trace = value == "1";
    } else if (key == "--trace-file") {
      opt.trace_file = value;
    } else {
      return usage();
    }
  }
  if (opt.spec == nullptr || !(opt.seconds > 0)) return usage();
  return run_benchmark(opt);
}
