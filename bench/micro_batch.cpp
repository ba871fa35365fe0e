// Batched-publishing microbenchmark: per-period submit cost and fabric
// traffic for an 8-node d-mon cluster, legacy per-module loop vs the
// MonitorBatch path with delta suppression and interest-scoped fan-out.
//
// Emits BENCH_micro_batch.json so the fan-out savings are tracked across
// PRs: the legacy loop submits one KECho event per module per period
// (5 standard modules -> 5 events), the batch path coalesces them into at
// most one frame and delta suppression plus interest filtering shrink what
// is left. Extras record the raw event/byte totals and the reduction
// factors the batch entry achieves over the baseline.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "alloc_counter.hpp"
#include "bench_common.hpp"
#include "bench_json.hpp"
#include "dproc/core/cluster.hpp"

namespace dproc::bench {
namespace {

struct SteadyState {
  std::uint64_t events = 0;      // KECho events submitted, all nodes
  std::uint64_t wire_bytes = 0;  // fabric bytes delivered, all nodes
  double wall_ns = 0.0;          // host wall-clock for the measured window
  double allocs = 0.0;           // heap allocations in the measured window
  std::uint64_t periods = 0;
};

/// Cluster size: 8 by default (the tracked BENCH numbers);
/// DPROC_BENCH_NODES scales the same measurement up (EXPERIMENTS.md runs
/// the 8 -> 64 sweep this way).
constexpr std::size_t kDefaultNodes = 8;

/// Drives the cluster for `periods` monitoring periods (one per simulated
/// second) and reports the steady-state deltas after a warm-up window
/// that absorbs channel joins and interest propagation.
SteadyState measure(bool batched, std::uint64_t periods) {
  using Clock = std::chrono::steady_clock;
  constexpr double kWarmupSec = 4.0;

  sim::Engine engine;
  core::ClusterConfig config;
  config.node_count = bench_nodes(kDefaultNodes);
  if (batched) {
    config.batch.enabled = true;
    config.batch.delta_epsilon = 0.0;  // suppress exactly-unchanged values
    config.batch.keyframe_every = 10;
    config.batch.interest = true;
  }
  core::Cluster cluster{engine, config};
  cluster.start_dproc();
  if (batched) {
    engine.run_until(SimTime::zero() + seconds(2.0));
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      (void)cluster.dmon(i)->declare_interest({"cpu", "mem"});
    }
  }
  engine.run_until(SimTime::zero() + seconds(kWarmupSec));

  auto totals = [&] {
    SteadyState t;
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      t.events += cluster.node(i)
                      .kecho->join(cluster.config().dmon.monitor_channel)
                      .events_submitted();
      t.wire_bytes +=
          cluster.fabric().bytes_delivered_to(cluster.nic(i).node());
    }
    return t;
  };

  const SteadyState before = totals();
  const std::uint64_t allocs_before = alloc_count();
  const Clock::time_point start = Clock::now();
  engine.run_until(SimTime::zero() +
                   seconds(kWarmupSec + static_cast<double>(periods)));
  const double wall_ns =
      static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              Clock::now() - start)
                              .count());
  const std::uint64_t allocs = alloc_count() - allocs_before;
  const SteadyState after = totals();

  SteadyState out;
  out.events = after.events - before.events;
  out.wire_bytes = after.wire_bytes - before.wire_bytes;
  out.wall_ns = wall_ns;
  out.allocs = static_cast<double>(allocs);
  out.periods = periods;
  if (out.events == 0) std::abort();  // harness wired wrong
  return out;
}

JsonBenchEntry to_entry(const std::string& name, const SteadyState& s) {
  JsonBenchEntry entry;
  entry.name = name;
  entry.iterations = s.periods;
  entry.ns_per_event = s.wall_ns / static_cast<double>(s.events);
  entry.ops_per_sec = 1e9 / entry.ns_per_event;
  entry.allocs_per_event = s.allocs / static_cast<double>(s.events);
  const double periods = static_cast<double>(s.periods);
  entry.extras.emplace_back("events_submitted",
                            static_cast<double>(s.events));
  entry.extras.emplace_back("wire_bytes", static_cast<double>(s.wire_bytes));
  entry.extras.emplace_back("events_per_period",
                            static_cast<double>(s.events) / periods);
  entry.extras.emplace_back("wire_bytes_per_period",
                            static_cast<double>(s.wire_bytes) / periods);
  return entry;
}

}  // namespace
}  // namespace dproc::bench

int main(int argc, char** argv) {
  using namespace dproc::bench;
  // argv[1] (or DPROC_BENCH_ITERS) overrides the measured period count.
  std::uint64_t periods = bench_iterations(120);
  if (argc > 1) {
    const int v = std::atoi(argv[1]);
    if (v > 0) periods = static_cast<std::uint64_t>(v);
  }

  const SteadyState baseline = measure(/*batched=*/false, periods);
  const SteadyState batched = measure(/*batched=*/true, periods);

  const double event_reduction = static_cast<double>(baseline.events) /
                                 static_cast<double>(batched.events);
  const double byte_reduction = static_cast<double>(baseline.wire_bytes) /
                                static_cast<double>(batched.wire_bytes);

  const std::string nodes = std::to_string(bench_nodes(kDefaultNodes));
  Table table({"batched", "events/period", "wire_bytes/period", "ns/event"});
  const double p = static_cast<double>(periods);
  table.add_row({0, static_cast<double>(baseline.events) / p,
                 static_cast<double>(baseline.wire_bytes) / p,
                 baseline.wall_ns / static_cast<double>(baseline.events)});
  table.add_row({1, static_cast<double>(batched.events) / p,
                 static_cast<double>(batched.wire_bytes) / p,
                 batched.wall_ns / static_cast<double>(batched.events)});
  table.print("micro_batch_" + nodes + "node_steady_state");
  std::printf(
      "\nbatch + delta + interest vs per-module loop (%s nodes): "
      "%.1fx fewer events, %.2fx fewer fabric bytes\n",
      nodes.c_str(), event_reduction, byte_reduction);

  JsonBenchEntry base_entry = to_entry("per_module_" + nodes + "node", baseline);
  JsonBenchEntry batch_entry =
      to_entry("batched_delta_interest_" + nodes + "node", batched);
  batch_entry.extras.emplace_back("event_reduction_x", event_reduction);
  batch_entry.extras.emplace_back("byte_reduction_x", byte_reduction);
  const bool ok = write_bench_json("micro_batch", {base_entry, batch_entry});
  // The ISSUE acceptance bar: >=5x fewer events in steady state.
  if (event_reduction < 5.0) {
    std::fprintf(stderr, "micro_batch: event reduction %.2fx below 5x bar\n",
                 event_reduction);
    return 1;
  }
  return ok ? 0 : 1;
}
