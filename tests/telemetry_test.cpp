// Telemetry registry semantics: counter/gauge/latency behaviour against the
// enabled flag, span-ring wraparound, the zero-allocation guarantee of the
// disabled mode (alloc counter from bench/alloc_counter.cpp), Chrome
// trace_event export validity, and the end-to-end self-monitoring path: an
// 8-node cluster publishing each node's own overhead cluster-wide under
// /proc/cluster/<node>/dproc/...
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "../bench/alloc_counter.hpp"
#include "dproc/core/cluster.hpp"
#include "dproc/telemetry/telemetry.hpp"

namespace {

using dproc::SimTime;
using dproc::microseconds;
using dproc::seconds;
using dproc::telemetry::Registry;

TEST(TelemetryCounter, DisabledByDefaultAndGatedOnEnable) {
  Registry registry;
  auto& submits = registry.counter("kecho", "submits");
  submits.add();
  EXPECT_EQ(submits.value(), 0u) << "disabled counters must not move";

  registry.set_enabled(true);
  submits.add();
  submits.add(3);
  EXPECT_EQ(submits.value(), 4u);

  registry.set_enabled(false);
  submits.add(100);
  EXPECT_EQ(submits.value(), 4u) << "disabling freezes accumulation";
}

TEST(TelemetryCounter, GetOrCreateReturnsTheSameInstrument) {
  Registry registry;
  registry.set_enabled(true);
  registry.counter("a", "x").add(5);
  EXPECT_EQ(registry.counter("a", "x").value(), 5u);
  EXPECT_EQ(registry.counter("a", "y").value(), 0u);
}

TEST(TelemetryGauge, SetGatedButPullSourceAlwaysLive) {
  Registry registry;
  auto& gauge = registry.gauge("sim", "events");
  gauge.set(7.0);
  EXPECT_EQ(gauge.value(), 0.0) << "disabled set() must not stick";

  registry.set_enabled(true);
  gauge.set(7.0);
  EXPECT_EQ(gauge.value(), 7.0);

  double pulled = 42.0;
  gauge.set_source([&pulled] { return pulled; });
  EXPECT_EQ(gauge.value(), 42.0);
  pulled = 43.0;
  EXPECT_EQ(gauge.value(), 43.0) << "sources are evaluated at read time";
}

TEST(TelemetryLatency, RecordsQuantiles) {
  Registry registry;
  auto& latency = registry.latency("dmon", "poll_us");
  latency.record_us(999.0);
  EXPECT_EQ(latency.count(), 0u) << "disabled recorders must not sample";

  registry.set_enabled(true);
  for (int i = 1; i <= 100; ++i) latency.record_us(static_cast<double>(i));
  EXPECT_EQ(latency.count(), 100u);
  EXPECT_DOUBLE_EQ(latency.mean_us(), 50.5);
  // Histogram-backed: extremes and mean exact, interior within one
  // sub-bucket of the exact answer.
  EXPECT_NEAR(latency.quantile_us(0.5), 50.5, 50.5 * 0.10);
  EXPECT_DOUBLE_EQ(latency.quantile_us(1.0), 100.0);
  // A later out-of-order record is visible immediately (no sort cache).
  latency.record_us(0.5);
  EXPECT_DOUBLE_EQ(latency.quantile_us(0.0), 0.5);
}

TEST(TelemetrySpans, RingWrapsAndCountsOverwrites) {
  Registry registry{nullptr, 4};
  registry.set_enabled(true);
  for (int i = 0; i < 6; ++i) {
    const SimTime start = SimTime{} + seconds(static_cast<double>(i));
    registry.record_span("test", "span", start, start + microseconds(10.0));
  }
  EXPECT_EQ(registry.span_capacity(), 4u);
  EXPECT_EQ(registry.span_count(), 4u);
  EXPECT_EQ(registry.spans_dropped(), 2u);
  // Oldest retained is the third recorded (t=2s); newest is the sixth.
  EXPECT_EQ(registry.span(0).start_ns, (SimTime{} + seconds(2.0)).ns());
  EXPECT_EQ(registry.span(3).start_ns, (SimTime{} + seconds(5.0)).ns());

  registry.clear_spans();
  EXPECT_EQ(registry.span_count(), 0u);
}

TEST(TelemetrySpans, DisabledRecordsNothing) {
  Registry registry{nullptr, 4};
  registry.record_span("test", "span", SimTime{}, SimTime{} + seconds(1.0));
  EXPECT_EQ(registry.span_count(), 0u);
  EXPECT_EQ(registry.spans_dropped(), 0u);
}

TEST(TelemetryAllocation, DisabledInstrumentsNeverTouchTheHeap) {
  Registry registry;  // default 4096-span ring, sized only on enable
  auto& counter = registry.counter("kecho", "submits");
  auto& gauge = registry.gauge("cpu", "util");
  auto& latency = registry.latency("dmon", "poll_us");

  const std::uint64_t before = dproc::bench::alloc_count();
  for (int i = 0; i < 10'000; ++i) {
    counter.add();
    gauge.set(1.0);
    latency.record_us(1.0);
    registry.record_span("kecho", "submit", SimTime{},
                         SimTime{} + microseconds(5.0));
  }
  EXPECT_EQ(dproc::bench::alloc_count() - before, 0u)
      << "disabled telemetry must be branch-only on hot paths";
}

TEST(TelemetryAllocation, EnabledSpanAndCounterRecordingIsAllocFree) {
  Registry registry;
  registry.set_enabled(true);
  auto& counter = registry.counter("kecho", "submits");

  const std::uint64_t before = dproc::bench::alloc_count();
  for (int i = 0; i < 10'000; ++i) {
    counter.add();
    registry.record_span("kecho", "submit", SimTime{},
                         SimTime{} + microseconds(5.0));
  }
  EXPECT_EQ(dproc::bench::alloc_count() - before, 0u)
      << "the span ring is sized on enable; recording must not allocate";
}

TEST(TelemetryAllocation, RingsAreSizedWhenTheirGateIsFirstEnabled) {
  // Untraced hosts never pay for the span and hop rings; each ring is
  // allocated once, by the first enable of its own gate.
  Registry registry{nullptr, 4, 8};
  EXPECT_EQ(registry.span_capacity(), 4u);
  EXPECT_EQ(registry.hop_capacity(), 8u);

  std::uint64_t before = dproc::bench::alloc_count();
  registry.set_enabled(true);
  registry.set_enabled(false);
  registry.set_enabled(true);
  EXPECT_EQ(dproc::bench::alloc_count() - before, 1u);

  before = dproc::bench::alloc_count();
  registry.set_trace_enabled(true);
  registry.set_trace_enabled(false);
  registry.set_trace_enabled(true);
  EXPECT_EQ(dproc::bench::alloc_count() - before, 1u);

  for (int i = 0; i < 10; ++i) registry.record_hop(dproc::telemetry::Hop{});
  EXPECT_EQ(registry.hop_count(), 8u);
  EXPECT_EQ(registry.hops_dropped(), 2u);
}

TEST(TelemetryChromeTrace, ExportIsWellFormed) {
  Registry registry;
  registry.set_enabled(true);
  const SimTime start = SimTime{} + seconds(1.0);
  registry.record_span("kecho", "submit", start, start + microseconds(25.0));
  registry.record_span("dmon", "poll \"q\"", start + seconds(1.0),
                       start + seconds(1.0) + microseconds(100.0));

  const std::string json = registry.export_chrome_trace(3);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":3"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":1000000"), std::string::npos);  // µs
  EXPECT_NE(json.find("\"dur\":25"), std::string::npos);
  EXPECT_NE(json.find("poll \\\"q\\\""), std::string::npos)
      << "names must be JSON-escaped";

  Registry other;
  other.set_enabled(true);
  other.record_span("dmon", "poll", start, start + microseconds(10.0));
  const std::string merged = dproc::telemetry::merge_chrome_trace(
      {{0, &registry}, {1, &other}});
  EXPECT_NE(merged.find("\"pid\":0"), std::string::npos);
  EXPECT_NE(merged.find("\"pid\":1"), std::string::npos);
}

TEST(TelemetryRender, ListsInstrumentsByName) {
  Registry registry;
  registry.set_enabled(true);
  registry.counter("kecho", "submits").add(12);
  registry.latency("dmon", "poll_us").record_us(4.0);

  const std::string text = registry.render();
  EXPECT_NE(text.find("telemetry enabled"), std::string::npos);
  EXPECT_NE(text.find("counter kecho/submits 12"), std::string::npos);
  EXPECT_NE(text.find("latency dmon/poll_us count=1"), std::string::npos);
}

// --- cluster integration ---------------------------------------------------

double first_line_value(const std::string& rendered) {
  return std::stod(rendered.substr(0, rendered.find('\n')));
}

TEST(TelemetryCluster, SelfMonitoringPublishesOverheadClusterWide) {
  dproc::sim::Engine engine;
  dproc::core::ClusterConfig config;  // paper platform: 8 nodes
  config.self_monitor = true;
  dproc::core::Cluster cluster{engine, config};
  cluster.start_dproc();
  engine.run_until(SimTime{} + seconds(12.0));

  // Local snapshot file on every node.
  auto snapshot = cluster.procfs(0).read("/proc/dproc/telemetry");
  ASSERT_TRUE(snapshot.is_ok());
  EXPECT_NE(snapshot.value().find("telemetry enabled"), std::string::npos);
  EXPECT_NE(snapshot.value().find("counter kecho/submits"), std::string::npos);

  // Every node's own overhead is visible on every *other* node through the
  // ordinary monitoring channel, under /proc/cluster/<node>/dproc/...
  for (std::size_t observer : {std::size_t{1}, std::size_t{7}}) {
    auto submits =
        cluster.procfs(observer).read("/proc/cluster/node0/dproc/submits");
    ASSERT_TRUE(submits.is_ok()) << "observer node " << observer;
    EXPECT_GT(first_line_value(submits.value()), 0.0);

    auto receives =
        cluster.procfs(observer).read("/proc/cluster/node0/dproc/receives");
    ASSERT_TRUE(receives.is_ok());
    EXPECT_GT(first_line_value(receives.value()), 0.0);

    auto p99 = cluster.procfs(observer).read(
        "/proc/cluster/node0/dproc/submit_p99_us");
    ASSERT_TRUE(p99.is_ok());
    EXPECT_GT(first_line_value(p99.value()), 0.0);
  }

  // The staleness split introduced for render_value: age_s measures from
  // the publisher's sample time, recv_age_s from local arrival; both small
  // and non-negative on a live feed.
  auto rendered =
      cluster.procfs(1).read("/proc/cluster/node0/dproc/submits");
  ASSERT_TRUE(rendered.is_ok());
  EXPECT_NE(rendered.value().find("age_s "), std::string::npos);
  EXPECT_NE(rendered.value().find("recv_age_s "), std::string::npos);

  // Spans accumulated and export merges one pid lane per node.
  std::vector<std::pair<int, const Registry*>> registries;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    EXPECT_GT(cluster.host(i).telemetry().span_count(), 0u) << "node " << i;
    registries.emplace_back(static_cast<int>(i),
                            &cluster.host(i).telemetry());
  }
  const std::string merged = dproc::telemetry::merge_chrome_trace(registries);
  EXPECT_NE(merged.find("\"pid\":7"), std::string::npos);
}

TEST(TelemetryCluster, DisabledByDefaultLeavesNoTrace) {
  dproc::sim::Engine engine;
  dproc::core::Cluster cluster{engine, {}};
  cluster.start_dproc();
  engine.run_until(SimTime{} + seconds(5.0));

  EXPECT_FALSE(cluster.host(0).telemetry().enabled());
  EXPECT_EQ(cluster.host(0).telemetry().counter("kecho", "submits").value(),
            0u);
  EXPECT_EQ(cluster.host(0).telemetry().span_count(), 0u);
  // No DPROC_MON module registered: the dproc metric files don't exist.
  EXPECT_FALSE(
      cluster.procfs(1).read("/proc/cluster/node0/dproc/submits").is_ok());
}

}  // namespace
