// Period-adaptation microbenchmark: the overhead-budget control loop under
// sustained publishing pressure, swept across cluster sizes.
//
// Every node carries a 250-metric always-changing "firehose" module (the
// paper's ~5 KB event, Figure 7) on top of the standard five, so the
// accuracy pass alone would pin every period at min_period and the d-mon
// would happily burn CPU. The run first calibrates: with an effectively
// unlimited budget it measures the unclamped steady-state overhead, then
// halves it, writes the result through /proc/dproc/adapt on every node and
// lets the clamp walk periods out until the measured overhead honours it.
//
// Emits BENCH_micro_adapt.json. The exit code enforces the ISSUE bar: at
// the largest node count the settled overhead must sit at or under the
// budget — an adaptation loop that cannot hold its own budget fails CI.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "alloc_counter.hpp"
#include "bench_common.hpp"
#include "bench_json.hpp"
#include "dproc/core/adapt.hpp"
#include "dproc/core/cluster.hpp"
#include "dproc/core/monitors.hpp"

namespace dproc::bench {
namespace {

struct AdaptRun {
  std::size_t nodes = 0;
  std::uint64_t periods = 0;       // measured monitoring periods
  double unclamped_overhead = 0;   // max over nodes, calibration window
  double budget = 0;               // the knob actually parsed by the nodes
  double settled_overhead = 0;     // max over nodes, end of run
  std::uint64_t clamps = 0;        // budget clamps fired, all nodes
  double firehose_period_sec = 0;  // node 0's adapted firehose period
  std::uint64_t events = 0;        // KECho events in the measured window
  double wall_ns = 0;
  double allocs = 0;
};

double max_overhead(core::Cluster& cluster) {
  double worst = 0.0;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    const core::PeriodController* controller = cluster.dmon(i)->adaptation();
    if (controller && controller->last_overhead() > worst) {
      worst = controller->last_overhead();
    }
  }
  return worst;
}

AdaptRun measure(std::size_t nodes, std::uint64_t periods) {
  using Clock = std::chrono::steady_clock;
  constexpr double kCalibrateSec = 11.0;  // two adaptation rounds + join

  sim::Engine engine;
  core::ClusterConfig config;
  config.node_count = nodes;
  config.adapt.enabled = true;
  config.adapt.overhead_budget = 1.0;  // calibration: clamp cannot fire
  config.adapt.adapt_every_periods = 5;
  core::Cluster cluster{engine, config};
  for (std::size_t i = 0; i < nodes; ++i) {
    cluster.dmon(i)->register_module(
        std::make_unique<core::SyntheticMonitor>(
            "firehose", 250, [](std::size_t metric, SimTime now) {
              return static_cast<double>(metric) + now.sec();
            }));
  }
  cluster.start_dproc();
  engine.run_until(SimTime::zero() + seconds(kCalibrateSec));

  AdaptRun run;
  run.nodes = nodes;
  run.periods = periods;
  run.unclamped_overhead = max_overhead(cluster);
  if (run.unclamped_overhead <= 0.0) std::abort();  // harness wired wrong

  char knob[64];
  std::snprintf(knob, sizeof(knob), "budget %.9f",
                run.unclamped_overhead / 2.0);
  for (std::size_t i = 0; i < nodes; ++i) {
    if (!cluster.procfs(i).write("/proc/dproc/adapt", knob).is_ok()) {
      std::abort();
    }
  }
  run.budget = cluster.dmon(0)->adaptation()->budget();

  auto events_total = [&] {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      total += cluster.node(i)
                   .kecho->join(cluster.config().dmon.monitor_channel)
                   .events_submitted();
    }
    return total;
  };

  const std::uint64_t events_before = events_total();
  const std::uint64_t allocs_before = alloc_count();
  const Clock::time_point start = Clock::now();
  engine.run_until(SimTime::zero() +
                   seconds(kCalibrateSec + static_cast<double>(periods)));
  run.wall_ns =
      static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              Clock::now() - start)
                              .count());
  run.allocs = static_cast<double>(alloc_count() - allocs_before);
  run.events = events_total() - events_before;
  if (run.events == 0) std::abort();

  run.settled_overhead = max_overhead(cluster);
  for (std::size_t i = 0; i < nodes; ++i) {
    run.clamps += cluster.dmon(i)->adaptation()->budget_clamps();
  }
  for (const core::PeriodController::Region& region :
       cluster.dmon(0)->adaptation()->regions()) {
    if (region.module == "firehose") {
      run.firehose_period_sec = region.period.sec();
    }
  }
  return run;
}

JsonBenchEntry to_entry(const AdaptRun& run) {
  JsonBenchEntry entry;
  entry.name = "adapt_clamp_" + std::to_string(run.nodes) + "node";
  entry.iterations = run.periods;
  entry.ns_per_event = run.wall_ns / static_cast<double>(run.events);
  entry.ops_per_sec = 1e9 / entry.ns_per_event;
  entry.allocs_per_event = run.allocs / static_cast<double>(run.events);
  entry.extras.emplace_back("unclamped_overhead", run.unclamped_overhead);
  entry.extras.emplace_back("budget", run.budget);
  entry.extras.emplace_back("settled_overhead", run.settled_overhead);
  entry.extras.emplace_back("overhead_vs_budget",
                            run.settled_overhead / run.budget);
  entry.extras.emplace_back("budget_clamps",
                            static_cast<double>(run.clamps));
  entry.extras.emplace_back("firehose_period_sec", run.firehose_period_sec);
  entry.extras.emplace_back("events_per_period",
                            static_cast<double>(run.events) /
                                static_cast<double>(run.periods));
  return entry;
}

}  // namespace
}  // namespace dproc::bench

int main(int argc, char** argv) {
  using namespace dproc::bench;
  std::uint64_t periods = bench_iterations(120);
  if (argc > 1) {
    const int v = std::atoi(argv[1]);
    if (v > 0) periods = static_cast<std::uint64_t>(v);
  }

  // Sweep up to the configured size; the bar applies at the largest.
  std::vector<std::size_t> sizes{2, 4};
  const std::size_t largest = bench_nodes(8);
  while (!sizes.empty() && sizes.back() >= largest) sizes.pop_back();
  sizes.push_back(largest);

  std::vector<AdaptRun> runs;
  runs.reserve(sizes.size());
  for (std::size_t n : sizes) runs.push_back(measure(n, periods));

  Table table({"nodes", "unclamped_ovh", "budget", "settled_ovh",
               "firehose_period_s", "events/period"});
  for (const AdaptRun& run : runs) {
    table.add_row({static_cast<double>(run.nodes), run.unclamped_overhead,
                   run.budget, run.settled_overhead, run.firehose_period_sec,
                   static_cast<double>(run.events) /
                       static_cast<double>(run.periods)});
  }
  table.print("micro_adapt_budget_clamp");

  std::vector<JsonBenchEntry> entries;
  entries.reserve(runs.size());
  for (const AdaptRun& run : runs) entries.push_back(to_entry(run));
  const bool ok = write_bench_json("micro_adapt", entries);

  const AdaptRun& bar = runs.back();
  std::printf(
      "\nadaptation under budget (%zu nodes): %.4f%% -> %.4f%% against a "
      "%.4f%% budget, %llu clamps\n",
      bar.nodes, 100.0 * bar.unclamped_overhead, 100.0 * bar.settled_overhead,
      100.0 * bar.budget, static_cast<unsigned long long>(bar.clamps));
  if (bar.settled_overhead > bar.budget) {
    std::fprintf(stderr,
                 "micro_adapt: settled overhead %.6f exceeds budget %.6f at "
                 "%zu nodes\n",
                 bar.settled_overhead, bar.budget, bar.nodes);
    return 1;
  }
  return ok ? 0 : 1;
}
