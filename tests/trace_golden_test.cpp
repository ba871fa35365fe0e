// Golden-trace determinism pins.
//
// The flat case runs a fig6-style event-submission workload (4-node
// cluster, d-mons polling once per second, an E-code filter deployed
// everywhere) and fingerprints the complete observable trace: every sample
// vector each d-mon collects, every remote metric that arrives over KECho,
// the engine's global event count and final costs. The expected hashes were
// recorded from the seed implementation; the VM scratch-arena reuse, the
// zero-copy KECho frames and the scheduler rework must all reproduce the
// byte-identical trace, or this test fails.
//
// The hierarchy case runs the zone overlay at three tiers and fingerprints
// the root summary, every zone roll-up file, the engine event count and
// the fabric's delivered packets and bytes.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "dproc/core/cluster.hpp"
#include "dproc/core/hierarchy.hpp"

namespace dproc {
namespace {

/// FNV-1a, the fingerprint accumulator. Doubles are hashed bit-exactly.
struct TraceHash {
  std::uint64_t h = 1469598103934665603ull;

  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void str(const std::string& s) {
    u64(s.size());
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
  }
};

const char* kDeployedFilter = R"({
  int i = 0;
  if (input[LOADAVG].value > 0.1) {
    output[i] = input[LOADAVG];
    i = i + 1;
  }
  if (input[FREEMEM].value < input[FREEMEM].last_value_sent * 0.999) {
    output[i] = input[FREEMEM];
    i = i + 1;
  }
  if (input[RTT].value > input[RTT].last_value_sent) {
    output[i] = input[RTT];
    i = i + 1;
  }
  if (input[NET_OUT].value > 0) {
    output[i] = input[NET_OUT];
    i = i + 1;
  }
})";

struct TraceResult {
  std::uint64_t hash = 0;
  std::uint64_t remote_metrics_seen = 0;
  std::uint64_t events_processed = 0;
};

TraceResult run_workload() {
  sim::Engine engine;
  core::ClusterConfig config;
  config.node_count = 4;
  config.dmon.poll_period = seconds(1.0);
  core::Cluster cluster{engine, config};
  cluster.start_dproc();

  TraceResult out;
  TraceHash hash;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    cluster.dmon(i)->add_sample_observer(
        [&hash, i](const std::vector<core::MetricSample>& samples,
                   SimTime now) {
          hash.u64(i);
          hash.u64(static_cast<std::uint64_t>(now.ns()));
          for (const core::MetricSample& s : samples) {
            hash.u64(s.id);
            hash.f64(s.value);
            hash.u64(static_cast<std::uint64_t>(s.sampled_at.ns()));
          }
        });
  }

  // Let channels establish on the parameter path, then deploy the E-code
  // filter to every node so the steady state exercises the VM each poll.
  engine.run_until(SimTime{} + seconds(3.0));
  core::TuningConfig tuning;
  tuning.filter_source = kDeployedFilter;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    EXPECT_TRUE(cluster.dmon(i)->apply_tuning(tuning).is_ok())
        << cluster.dmon(i)->last_control_error();
  }
  engine.run_until(SimTime{} + seconds(30.0));

  // Fold in what actually crossed the wire: every peer's view of every
  // remote metric, value and arrival time included.
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    core::DMon& dmon = *cluster.dmon(i);
    for (std::size_t j = 0; j < cluster.size(); ++j) {
      if (i == j) continue;
      const auto node = static_cast<net::NodeId>(j);
      for (core::MetricId id = 0; id < dmon.metric_table().size(); ++id) {
        const core::RemoteMetric* m = dmon.remote_metric(node, id);
        if (m == nullptr || !m->valid) continue;
        ++out.remote_metrics_seen;
        hash.u64(i);
        hash.u64(node);
        hash.u64(id);
        hash.f64(m->value);
        hash.u64(static_cast<std::uint64_t>(m->sampled_at.ns()));
        hash.u64(static_cast<std::uint64_t>(m->received_at.ns()));
      }
    }
    hash.u64(dmon.last_poll().events_received);
    hash.u64(dmon.last_poll().filter_instructions);
    hash.f64(dmon.submit_cost_us().sum());
    hash.f64(dmon.receive_cost_us().sum());
  }
  hash.u64(engine.events_processed());
  hash.u64(static_cast<std::uint64_t>(engine.now().ns()));
  out.events_processed = engine.events_processed();
  out.hash = hash.h;
  return out;
}

// Recorded from the seed implementation (pre-overhaul); the optimized hot
// paths must reproduce this trace exactly.
constexpr std::uint64_t kGoldenTraceHash = 0xbd2349cf9c9ad4d6ull;

TEST(TraceGolden, EventSubmissionWorkloadMatchesSeedTrace) {
  const TraceResult r = run_workload();
  // The workload must be non-trivial: monitoring data crossed the wire and
  // the engine processed a real event volume.
  EXPECT_GT(r.remote_metrics_seen, 50u);
  EXPECT_GT(r.events_processed, 1000u);
  EXPECT_EQ(r.hash, kGoldenTraceHash)
      << "trace hash 0x" << std::hex << r.hash
      << " diverged from the recorded seed trace";
}

TEST(TraceGolden, WorkloadIsRunToRunDeterministic) {
  EXPECT_EQ(run_workload().hash, run_workload().hash);
}

/// 64 nodes in zones of 4 with fanout 4: 16 leaf zones, 4 tier-1 zones
/// and one root, so roll-ups cross two tiers before the single subscriber
/// (node 5, a plain leaf member) receives the root summary.
TraceResult run_hierarchy_workload() {
  sim::Engine engine;
  core::ClusterConfig config;
  config.node_count = 64;
  config.hierarchy.enabled = true;
  config.hierarchy.zone_size = 4;
  config.hierarchy.fanout = 4;
  config.hierarchy.subscribers = std::vector<std::size_t>{5};
  core::Cluster cluster{engine, config};
  cluster.start_dproc();
  engine.run_until(SimTime{} + seconds(20.0));

  TraceResult out;
  TraceHash hash;
  const core::DMon& subscriber = *cluster.dmon(5);
  const net::AggregateBatch* summary = subscriber.cluster_summary();
  EXPECT_NE(summary, nullptr) << "no root summary reached the subscriber";
  if (summary != nullptr) {
    hash.u64(summary->flags);
    hash.u64(summary->tier);
    hash.u64(summary->zone);
    for (const net::AggregateBatch::Entry& e : summary->entries) {
      hash.u64(e.id);
      hash.u64(e.count);
      hash.u64(static_cast<std::uint64_t>(e.latest_ns));
      hash.f64(e.min);
      hash.f64(e.max);
      hash.f64(e.sum);
      for (const net::AggregateBatch::Top& top : e.top) {
        hash.u64(top.node);
        hash.f64(top.value);
      }
    }
    hash.u64(static_cast<std::uint64_t>(subscriber.cluster_summary_at().ns()));
  }

  // Every zone roll-up file at every candidate, as an operator reads it.
  const core::HierarchyLayout layout =
      core::build_hierarchy(cluster.size(), config.hierarchy);
  EXPECT_EQ(layout.tiers(), 3u);
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    const core::DMon& dmon = *cluster.dmon(i);
    for (const std::uint32_t zone : layout.duty_zones(i)) {
      const std::string base =
          "/proc/cluster/zones/" + layout.zone(zone).name + "/";
      for (const core::MetricDesc& desc : dmon.metric_table()) {
        auto text = cluster.procfs(i).read(base + desc.path);
        ++out.remote_metrics_seen;
        hash.u64(i);
        hash.str(text.is_ok() ? text.value() : text.status().to_string());
      }
    }
  }

  std::uint64_t bytes = 0;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    bytes += cluster.fabric().bytes_delivered_to(cluster.nic(i).node());
  }
  hash.u64(cluster.fabric().stats().packets_delivered);
  hash.u64(bytes);
  hash.u64(engine.events_processed());
  out.events_processed = engine.events_processed();
  out.hash = hash.h;
  return out;
}

// Recorded at the commit before the zone overlay moved out of the d-mon
// into its own class; the move must reproduce it exactly.
constexpr std::uint64_t kGoldenHierarchyHash = 0x75bfe8a4b15ee3bdull;

TEST(TraceGolden, ThreeTierZoneOverlayMatchesRecordedTrace) {
  const TraceResult r = run_hierarchy_workload();
  EXPECT_GT(r.remote_metrics_seen, 1000u);
  EXPECT_GT(r.events_processed, 10000u);
  EXPECT_EQ(r.hash, kGoldenHierarchyHash)
      << "hierarchy trace hash 0x" << std::hex << r.hash
      << " diverged from the recorded trace";
}

}  // namespace
}  // namespace dproc
