// Footprint microbenchmark: per-node state must stay bounded by what it
// serves, however long the simulation runs.
//
//   cpu_mon_hour1   one CPU_MON (5 s window) sampling a busy host through
//                   the first simulated hour: ns and allocations per
//                   sample, and `heap_bytes`, its live heap at 1 h
//   cpu_mon_hour2   the same through the second hour, `heap_bytes` at 2 h;
//                   a history kept for a whole hour would move all of it
//                   on every sample here
//   flat_cluster    a flat cluster (32 nodes by default, flat128's shape:
//                   every node declares every other, batching and join
//                   retries on) run from 100 s to 400 s simulated: ns and
//                   allocations per node-second, and `heap_bytes_100s` /
//                   `heap_bytes_400s`, the live heap at both ends
//
// Samples are counted at their nominal rate (one per 100 ms). The binary
// exits 1 if the cluster's heap grows by more than 2% from 100 s to 400 s,
// or if CPU_MON allocates or holds more heap in its second hour.
//
//   $ ./micro_footprint         # writes BENCH_micro_footprint.json at the root
//
// DPROC_BENCH_NODES sets the cluster size, DPROC_BENCH_JSON_DIR the output
// directory.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "alloc_counter.hpp"
#include "bench_json.hpp"
#include "dproc/core/cluster.hpp"
#include "dproc/core/monitors.hpp"

namespace dproc::bench {
namespace {

constexpr double kMaxClusterHeapGrowth = 0.02;
constexpr double kSampleIntervalSec = 0.1;

/// Runs `engine` to `until`; ns and allocations per unit of `units`.
JsonBenchEntry run_span(const std::string& name, sim::Engine& engine,
                        SimTime until, double units) {
  const std::uint64_t allocs_before = alloc_count();
  const auto start = std::chrono::steady_clock::now();
  engine.run_until(until);
  const auto stop = std::chrono::steady_clock::now();
  JsonBenchEntry e;
  e.name = name;
  e.ns_per_event =
      static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start)
              .count()) /
      units;
  e.ops_per_sec = e.ns_per_event > 0 ? 1e9 / e.ns_per_event : 0.0;
  e.allocs_per_event = static_cast<double>(alloc_count() - allocs_before) / units;
  e.iterations = static_cast<std::uint64_t>(units);
  return e;
}

SimTime at(double sec) { return SimTime::zero() + seconds(sec); }

int run() {
  bool ok = true;
  std::vector<JsonBenchEntry> entries;

  // --- one CPU_MON over two simulated hours ------------------------------
  {
    sim::Engine engine;
    host::Host host{engine, 0, host::HostConfig{}, Rng{1}};
    host.cpu().add_compute_task("linpack");
    // Warm the engine's event slab so it does not count as CPU_MON's.
    engine.schedule_after(seconds(1.0), [] {});
    engine.schedule_after(seconds(1.0), [] {});
    engine.run_until(at(1.0));
    const std::int64_t heap_before = alloc_live_bytes();
    core::CpuMonitor mon{host, seconds(5.0)};
    const double samples_per_hour = 3600.0 / kSampleIntervalSec;
    // Both heaps are read before any extras are filled in: the extras'
    // own strings would otherwise count as CPU_MON's growth.
    JsonBenchEntry hour1 =
        run_span("cpu_mon_hour1", engine, at(3601.0), samples_per_hour);
    const std::int64_t heap_1h = alloc_live_bytes() - heap_before;
    const double load_1h = mon.load_average();
    JsonBenchEntry hour2 =
        run_span("cpu_mon_hour2", engine, at(7201.0), samples_per_hour);
    const std::int64_t heap_2h = alloc_live_bytes() - heap_before;
    hour1.extras.emplace_back("heap_bytes", static_cast<double>(heap_1h));
    hour1.extras.emplace_back("load_average", load_1h);
    hour2.extras.emplace_back("heap_bytes", static_cast<double>(heap_2h));
    hour2.extras.emplace_back("load_average", mon.load_average());
    std::printf("CPU_MON: %.1f ns/sample in hour 1, %.1f in hour 2; heap "
                "%lld B at 1 h, %lld B at 2 h\n",
                hour1.ns_per_event, hour2.ns_per_event,
                static_cast<long long>(heap_1h),
                static_cast<long long>(heap_2h));
    if (hour2.allocs_per_event > 0.0 || heap_2h > heap_1h) {
      std::fprintf(stderr, "micro_footprint: CPU_MON grew in its second "
                   "hour (%.4f allocs/sample, %lld -> %lld B)\n",
                   hour2.allocs_per_event, static_cast<long long>(heap_1h),
                   static_cast<long long>(heap_2h));
      ok = false;
    }
    entries.push_back(hour1);
    entries.push_back(hour2);
  }

  // --- a flat cluster from 100 s to 400 s --------------------------------
  {
    const std::size_t nodes = bench_nodes(32);
    sim::Engine engine;
    core::ClusterConfig config;
    config.node_count = nodes;
    config.batch.enabled = true;
    // As in flat128: simultaneous joins tail-drop at the registry, and only
    // retried joins bring every node onto the monitoring channel.
    config.liveness.join_retries = true;
    config.liveness.retry_jitter = 1.0;
    core::Cluster cluster{engine, config};
    cluster.start_dproc();
    engine.run_until(at(100.0));
    const std::int64_t heap_100 = alloc_live_bytes();
    JsonBenchEntry span =
        run_span("flat_cluster", engine, at(400.0),
                 300.0 * static_cast<double>(nodes));
    const std::int64_t heap_400 = alloc_live_bytes();
    span.extras.emplace_back("nodes", static_cast<double>(nodes));
    span.extras.emplace_back("heap_bytes_100s", static_cast<double>(heap_100));
    span.extras.emplace_back("heap_bytes_400s", static_cast<double>(heap_400));
    const double growth = static_cast<double>(heap_400 - heap_100) /
                          static_cast<double>(heap_100);
    std::printf("flat cluster (%zu nodes): heap %.2f MB at 100 s, %.2f MB at "
                "400 s (%+.2f%%); %.1f ns, %.3f allocs per node-second\n",
                nodes, static_cast<double>(heap_100) / 1e6,
                static_cast<double>(heap_400) / 1e6, 100.0 * growth,
                span.ns_per_event, span.allocs_per_event);
    if (growth > kMaxClusterHeapGrowth) {
      std::fprintf(stderr, "micro_footprint: cluster heap grew %.2f%% from "
                   "100 s to 400 s (bar %.0f%%)\n",
                   100.0 * growth, 100.0 * kMaxClusterHeapGrowth);
      ok = false;
    }
    entries.push_back(span);
  }

  if (!write_bench_json("micro_footprint", entries)) return 1;
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace dproc::bench

int main() { return dproc::bench::run(); }
