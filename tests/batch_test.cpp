// Batched per-period publishing, delta suppression and interest-scoped
// fan-out — plus the d-mon submit-loop bugfixes that ride along:
//  * a module returning the wrong sample count must not publish
//    default-constructed zeros cluster-wide;
//  * a publish-ready sample whose id fits no registered module range must
//    not be grouped into a neighbouring module's frame;
//  * batching must cut the 8-node steady-state event count by at least the
//    module count (5×) and measurably reduce fabric bytes;
//  * a restarted subscriber must reconverge through delta-suppression
//    keyframes;
//  * interest filtering must strictly reduce fabric bytes.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "dproc/core/cluster.hpp"
#include "dproc/sim/fault.hpp"

namespace dproc::core {
namespace {

SimTime at(double sec) { return SimTime::zero() + seconds(sec); }

// ---------------------------------------------------------------------------
// group_by_range: the grouping primitive behind both submit paths.

MetricSample ms(MetricId id, double value) {
  return MetricSample{id, value, SimTime::zero()};
}

TEST(GroupByRange, PartitionsWellFormedInputPerModule) {
  const std::vector<MetricRange> ranges{{0, 2}, {2, 3}, {5, 1}};
  const std::vector<MetricSample> sorted{ms(0, 1), ms(1, 2), ms(2, 3),
                                         ms(4, 5), ms(5, 6)};
  std::vector<std::vector<MetricSample>> groups;
  EXPECT_EQ(group_by_range(sorted, ranges, groups), 0u);
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0].size(), 2u);
  EXPECT_EQ(groups[1].size(), 2u);  // id 3 filtered out upstream, fine
  EXPECT_EQ(groups[2].size(), 1u);
  EXPECT_EQ(groups[1][1].id, 4u);
}

TEST(GroupByRange, StrayBelowFirstRangeIsNotGroupedIntoIt) {
  // Ranges that do not start at 0 (e.g. after a module was dropped): an id
  // below every range used to ride along in the first group.
  const std::vector<MetricRange> ranges{{5, 2}, {7, 2}};
  const std::vector<MetricSample> sorted{ms(1, 1), ms(5, 2), ms(8, 3)};
  std::vector<std::vector<MetricSample>> groups;
  EXPECT_EQ(group_by_range(sorted, ranges, groups), 1u);
  ASSERT_EQ(groups.size(), 2u);
  ASSERT_EQ(groups[0].size(), 1u);
  EXPECT_EQ(groups[0][0].id, 5u);
  ASSERT_EQ(groups[1].size(), 1u);
  EXPECT_EQ(groups[1][0].id, 8u);
}

TEST(GroupByRange, StraysInGapsAndBeyondLastRangeAreCounted) {
  const std::vector<MetricRange> ranges{{0, 2}, {10, 2}};
  const std::vector<MetricSample> sorted{ms(0, 1), ms(4, 2), ms(7, 3),
                                         ms(10, 4), ms(50, 5)};
  std::vector<std::vector<MetricSample>> groups;
  EXPECT_EQ(group_by_range(sorted, ranges, groups), 3u);
  EXPECT_EQ(groups[0].size(), 1u);
  EXPECT_EQ(groups[1].size(), 1u);
}

TEST(GroupByRange, EmptyInputsAreFine) {
  std::vector<std::vector<MetricSample>> groups;
  EXPECT_EQ(group_by_range({}, {{0, 3}}, groups), 0u);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_TRUE(groups[0].empty());
  EXPECT_EQ(group_by_range({ms(0, 1)}, {}, groups), 1u);
  EXPECT_TRUE(groups.empty());
}

// ---------------------------------------------------------------------------
// Collect-loop bugfix: wrong sample counts drop the module's samples for
// the period instead of publishing zeros under valid ids.

/// Emits 3 metrics; under-reports (1 sample) while `broken` is set.
class FlakyMonitor : public MonitoringModule {
 public:
  FlakyMonitor(std::shared_ptr<bool> broken, std::shared_ptr<double> base)
      : broken_(std::move(broken)), base_(std::move(base)) {}

  [[nodiscard]] std::string name() const override { return "flaky"; }
  [[nodiscard]] std::vector<MetricDesc> metrics() const override {
    return {{0, "flaky_a", "flaky/a"},
            {0, "flaky_b", "flaky/b"},
            {0, "flaky_c", "flaky/c"}};
  }
  void collect(std::vector<MetricSample>& out, SimTime now) override {
    if (*broken_) {
      out.push_back(sample(0, -1.0, now));  // wrong count: 1 of 3
      return;
    }
    for (int i = 0; i < 3; ++i) {
      out.push_back(sample(0, *base_ + i, now));
    }
  }

 private:
  std::shared_ptr<bool> broken_;
  std::shared_ptr<double> base_;
};

TEST(CollectBugfix, WrongSampleCountDropsModuleInsteadOfPublishingZeros) {
  sim::Engine engine;
  ClusterConfig config;
  config.node_count = 2;
  auto broken = std::make_shared<bool>(false);
  auto base = std::make_shared<double>(42.0);
  config.module_factory = [broken, base](DMon& dmon, host::Host&, net::Nic&) {
    dmon.register_module(std::make_unique<FlakyMonitor>(broken, base));
  };
  Cluster cluster{engine, config};
  cluster.start_dproc();

  engine.run_until(at(3.5));
  const net::NodeId n0 = cluster.nic(0).node();
  const RemoteMetric* b = cluster.dmon(1)->remote_metric(n0, "flaky_b");
  ASSERT_NE(b, nullptr);
  EXPECT_DOUBLE_EQ(b->value, 43.0);
  EXPECT_EQ(cluster.dmon(0)->collect_errors(), 0u);

  // Break every publisher. The old code would resize() the short collection
  // and publish value-0 samples under valid ids; now the period's samples
  // from that module are dropped and an error counter moves.
  *broken = true;
  engine.run_until(at(8.5));
  EXPECT_GT(cluster.dmon(0)->collect_errors(), 0u);
  b = cluster.dmon(1)->remote_metric(n0, "flaky_b");
  ASSERT_NE(b, nullptr);
  EXPECT_DOUBLE_EQ(b->value, 43.0) << "a zero-valued sample leaked out";
  // The local view keeps the last good collection too (id-dense backfill).
  const MetricSample* local = cluster.dmon(0)->local_metric(1);
  ASSERT_NE(local, nullptr);
  EXPECT_DOUBLE_EQ(local->value, 43.0);

  // Module recovers with new values: publication resumes.
  *broken = false;
  *base = 100.0;
  engine.run_until(at(11.5));
  b = cluster.dmon(1)->remote_metric(n0, "flaky_b");
  ASSERT_NE(b, nullptr);
  EXPECT_DOUBLE_EQ(b->value, 101.0);
}

// ---------------------------------------------------------------------------
// End-to-end batching behaviour on real clusters.

struct RunTotals {
  std::uint64_t events = 0;       // KECho events submitted, all nodes
  std::uint64_t wire_bytes = 0;   // fabric bytes delivered, all nodes
};

RunTotals run_steady_state(std::size_t nodes, const BatchConfig& batch,
                           const std::vector<std::string>& interest,
                           double sim_seconds) {
  sim::Engine engine;
  ClusterConfig config;
  config.node_count = nodes;
  config.batch = batch;
  Cluster cluster{engine, config};
  cluster.start_dproc();
  if (!interest.empty()) {
    // Let the channels come up, then every node narrows its subscription.
    engine.run_until(at(2.0));
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      (void)cluster.dmon(i)->declare_interest(interest);
    }
  }
  engine.run_until(at(sim_seconds));
  RunTotals totals;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    totals.events += cluster.node(i)
                         .kecho->join(cluster.config().dmon.monitor_channel)
                         .events_submitted();
    totals.wire_bytes += cluster.fabric().bytes_delivered_to(
        cluster.nic(i).node());
  }
  return totals;
}

TEST(BatchPublish, EightNodeSteadyStateCutsEventsFiveFoldAndBytes) {
  const RunTotals baseline = run_steady_state(8, BatchConfig{}, {}, 30.0);

  BatchConfig batch;
  batch.enabled = true;
  batch.delta_epsilon = 0.0;  // suppress exactly-unchanged values
  batch.keyframe_every = 10;
  batch.interest = true;
  const RunTotals batched = run_steady_state(8, batch, {"cpu", "mem"}, 30.0);

  ASSERT_GT(baseline.events, 0u);
  ASSERT_GT(batched.events, 0u) << "keyframes must keep the feed alive";
  // 5 standard modules coalesce into (at most) one frame per period.
  EXPECT_GE(baseline.events, 5 * batched.events)
      << "baseline " << baseline.events << " vs batched " << batched.events;
  EXPECT_LT(batched.wire_bytes, baseline.wire_bytes);
}

TEST(BatchPublish, InterestFilteringStrictlyReducesFabricBytes) {
  BatchConfig batch;
  batch.enabled = true;
  batch.interest = true;
  const RunTotals full = run_steady_state(8, batch, {}, 25.0);
  const RunTotals narrowed = run_steady_state(8, batch, {"cpu"}, 25.0);
  EXPECT_LT(narrowed.wire_bytes, full.wire_bytes);
  EXPECT_EQ(full.events, narrowed.events)
      << "interest narrows payloads, not the event count";
}

TEST(BatchPublish, InterestSavingsAreAccountedByThePublisher) {
  sim::Engine engine;
  ClusterConfig config;
  config.node_count = 3;
  config.batch.enabled = true;
  config.batch.interest = true;
  Cluster cluster{engine, config};
  cluster.start_dproc();
  engine.run_until(at(2.0));
  ASSERT_TRUE(cluster.dmon(1)->declare_interest({"cpu"}).is_ok());
  ASSERT_TRUE(cluster.dmon(2)->declare_interest({"cpu"}).is_ok());
  engine.run_until(at(8.0));
  // Node 0 publishes full batches but sends nodes 1 and 2 only CPU_MON's
  // slice; the byte delta is accounted on the publisher.
  EXPECT_GT(cluster.dmon(0)->interest_bytes_saved(), 0u);
  // The narrowed subscribers keep receiving node 0's cpu metrics...
  const net::NodeId n0 = cluster.nic(0).node();
  const RemoteMetric* loadavg = cluster.dmon(1)->remote_metric(n0, "loadavg");
  ASSERT_NE(loadavg, nullptr);
  EXPECT_GT(loadavg->received_at, at(6.0));
  // ...while its other modules stopped updating once the narrowing took
  // effect (values cached from the pre-declaration full batches may
  // remain, but nothing fresh arrives).
  const RemoteMetric* freemem = cluster.dmon(1)->remote_metric(n0, "freemem");
  if (freemem != nullptr) {
    EXPECT_LT(freemem->received_at, at(4.0));
  }
  // Node 0 never declared: it still receives everything from node 1.
  const net::NodeId n1 = cluster.nic(1).node();
  EXPECT_NE(cluster.dmon(0)->remote_metric(n1, "freemem"), nullptr);
}

TEST(BatchPublish, InterestDeclarationIsWritableThroughProcfs) {
  sim::Engine engine;
  ClusterConfig config;
  config.node_count = 2;
  config.batch.enabled = true;
  config.batch.interest = true;
  Cluster cluster{engine, config};
  cluster.start_dproc();
  engine.run_until(at(2.0));
  ASSERT_TRUE(cluster.procfs(1).write("/proc/dproc/interest", "cpu net").is_ok());
  engine.run_until(at(4.0));
  auto rendered = cluster.procfs(1).read("/proc/dproc/interest");
  ASSERT_TRUE(rendered.is_ok());
  EXPECT_NE(rendered.value().find("local cpu net"), std::string::npos);
  // The publisher side learned it over the control channel.
  auto publisher_view = cluster.procfs(0).read("/proc/dproc/interest");
  ASSERT_TRUE(publisher_view.is_ok());
  EXPECT_NE(publisher_view.value().find("cpu net"), std::string::npos);
  // "all" clears the narrowing again.
  ASSERT_TRUE(cluster.procfs(1).write("/proc/dproc/interest", "all").is_ok());
  engine.run_until(at(6.0));
  EXPECT_EQ(cluster.dmon(0)->peer_interest(cluster.nic(1).node()), nullptr);
}

TEST(BatchPublish, EqualInterestSetsShareOneFilteredFramePerPeriod) {
  sim::Engine engine;
  ClusterConfig config;
  config.node_count = 4;
  config.batch.enabled = true;
  config.batch.interest = true;
  Cluster cluster{engine, config};
  cluster.start_dproc();
  engine.run_until(at(2.0));
  // Nodes 1 and 2 declare equal sets as separate objects; node 3 another.
  ASSERT_TRUE(cluster.dmon(1)->declare_interest({"net", "cpu"}).is_ok());
  ASSERT_TRUE(cluster.dmon(2)->declare_interest({"cpu", "net", "cpu"}).is_ok());
  ASSERT_TRUE(cluster.dmon(3)->declare_interest({"mem"}).is_ok());
  engine.run_until(at(4.0));

  DMon& publisher = *cluster.dmon(0);
  const net::NodeId n0 = cluster.nic(0).node();
  const net::NodeId n1 = cluster.nic(1).node();
  const net::NodeId n2 = cluster.nic(2).node();
  const net::NodeId n3 = cluster.nic(3).node();
  ASSERT_NE(publisher.peer_interest(n1), nullptr);
  EXPECT_EQ(publisher.peer_interest(n1), publisher.peer_interest(n2))
      << "equal sets are interned once";
  EXPECT_NE(publisher.peer_interest(n1), publisher.peer_interest(n3));

  // Node 0's monitoring frames as delivered, per (submit time, receiver).
  std::map<std::pair<std::int64_t, net::NodeId>, const net::Message*> frames;
  cluster.fabric().set_trace_hook([&](net::Fabric::TraceEvent event,
                                      net::DropCause, const net::Packet& p,
                                      SimTime) {
    if (event != net::Fabric::TraceEvent::kDeliver || p.src != n0 ||
        p.message == nullptr) {
      return;
    }
    kecho::Event decoded;
    if (!kecho::decode_event_frame(p.message, decoded) ||
        decoded.channel != publisher.monitor_channel_id()) {
      return;
    }
    frames[{decoded.submitted_at.ns(), p.dst}] = p.message.get();
  });
  auto frame_of = [&](std::int64_t period, net::NodeId member) {
    auto it = frames.find({period, member});
    return it == frames.end() ? nullptr : it->second;
  };
  auto periods = [&] {
    std::set<std::int64_t> out;
    for (const auto& [key, frame] : frames) out.insert(key.first);
    return out;
  };

  engine.run_until(at(8.0));
  ASSERT_FALSE(frames.empty());
  for (std::int64_t period : periods()) {
    ASSERT_NE(frame_of(period, n1), nullptr);
    EXPECT_EQ(frame_of(period, n1), frame_of(period, n2))
        << "one encoding per set per period";
    EXPECT_NE(frame_of(period, n1), frame_of(period, n3));
  }

  // Node 1 re-declares node 3's set: it moves to node 3's frame.
  ASSERT_TRUE(cluster.dmon(1)->declare_interest({"mem"}).is_ok());
  engine.run_until(at(10.0));
  EXPECT_EQ(publisher.peer_interest(n1), publisher.peer_interest(n3));
  frames.clear();
  engine.run_until(at(14.0));
  ASSERT_FALSE(frames.empty());
  for (std::int64_t period : periods()) {
    ASSERT_NE(frame_of(period, n1), nullptr);
    EXPECT_EQ(frame_of(period, n1), frame_of(period, n3));
    EXPECT_NE(frame_of(period, n1), frame_of(period, n2));
  }
}

TEST(BatchPublish, RestartedSubscriberReconvergesThroughKeyframes) {
  // Same fault shape as the chaos smoke test (outage → eviction → restart
  // → rejoin), with delta suppression so aggressive that regular batches
  // carry nothing: the restarted subscriber can only reconverge through a
  // keyframe.
  auto converged_after_restart = [](int keyframe_every, double check_at) {
    sim::Engine engine;
    ClusterConfig config;
    config.node_count = 3;
    config.liveness.enabled = true;
    config.liveness.heartbeat_period = seconds(1.0);
    config.liveness.miss_threshold = 5;
    config.batch.enabled = true;
    config.batch.delta_epsilon = 1e30;  // nothing ever exceeds it
    config.batch.keyframe_every = keyframe_every;
    Cluster cluster{engine, config};
    cluster.start_dproc();
    sim::FaultPlan plan;
    plan.node_outage(at(4.0), at(11.0), 2);
    cluster.inject(plan);

    engine.run_until(at(3.5));
    const net::NodeId n0 = cluster.nic(0).node();
    EXPECT_NE(cluster.dmon(2)->remote_metric(n0, "freemem"), nullptr);
    EXPECT_GT(cluster.dmon(0)->delta_suppressed_total(), 0u)
        << "suppression must actually be active for this test to mean "
           "anything";

    // Node 2 crashes at t=4, is evicted (miss threshold 5), restarts at
    // t=11 with empty caches and rejoins. Wait out the refresh window.
    engine.run_until(at(check_at));
    const RemoteMetric* metric = cluster.dmon(2)->remote_metric(n0, "freemem");
    if (metric == nullptr) return false;
    // Fresh data, not a leftover: it arrived after the restart.
    return metric->received_at > at(11.0);
  };

  // Rejoin (a couple of seconds) + keyframe_every periods suffice to hear
  // a full refresh.
  EXPECT_TRUE(converged_after_restart(4, 11.0 + 4.0 + 5.0));
  // Contrast over the same window: with keyframes effectively disabled the
  // subscriber stays blind, which proves the keyframe is the convergence
  // mechanism (delta suppression never lets a regular frame out).
  EXPECT_FALSE(converged_after_restart(1'000'000, 11.0 + 4.0 + 5.0));
}

TEST(BatchPublish, PeriodChangeForcesKeyframe) {
  // A runtime period change invalidates delta-suppressed subscribers'
  // decode baselines (their next expected update may now be a slow period
  // away). Suppression is total and the keyframe schedule effectively
  // disabled, so the only way fresh data can arrive after the retune is
  // the forced keyframe.
  sim::Engine engine;
  ClusterConfig config;
  config.node_count = 2;
  config.batch.enabled = true;
  config.batch.delta_epsilon = 1e30;       // regular frames carry nothing
  config.batch.keyframe_every = 1'000'000;  // no scheduled keyframe either
  Cluster cluster{engine, config};
  cluster.start_dproc();

  engine.run_until(at(4.0));
  const net::NodeId n0 = cluster.nic(0).node();
  const RemoteMetric* metric = cluster.dmon(1)->remote_metric(n0, "freemem");
  ASSERT_NE(metric, nullptr);  // the phase-0 keyframe seeded the caches
  const SimTime before_change = metric->received_at;
  EXPECT_LT(before_change, at(2.5));

  // A retune that does not touch periods must not force anything. (The
  // threshold gates loadavg only; freemem keeps flowing into the batch,
  // where the huge epsilon suppresses it.)
  TuningConfig no_period;
  no_period.thresholds.push_back(
      Threshold{"loadavg", ThresholdKind::kAbove, 1e9, 0.0});
  ASSERT_TRUE(cluster.dmon(0)->apply_tuning(no_period).is_ok());
  engine.run_until(at(7.0));
  metric = cluster.dmon(1)->remote_metric(n0, "freemem");
  ASSERT_NE(metric, nullptr);
  EXPECT_EQ(metric->received_at.ns(), before_change.ns());

  // A period change must emit a keyframe on the next batch, mid-schedule.
  TuningConfig retune;
  retune.default_period = seconds(1.0);
  ASSERT_TRUE(cluster.dmon(0)->apply_tuning(retune).is_ok());
  engine.run_until(at(10.0));
  metric = cluster.dmon(1)->remote_metric(n0, "freemem");
  ASSERT_NE(metric, nullptr);
  EXPECT_GT(metric->received_at, at(7.0))
      << "no keyframe followed the period change";
}

TEST(BatchPublish, DisabledConfigKeepsLegacyBehaviour) {
  // BatchConfig is fully off by default: the byte-identity of the default
  // wire format is pinned by the golden-trace test; here we pin the
  // defaults themselves and the per-module event count.
  const BatchConfig defaults;
  EXPECT_FALSE(defaults.enabled);
  EXPECT_LT(defaults.delta_epsilon, 0.0);
  EXPECT_FALSE(defaults.interest);

  sim::Engine engine;
  ClusterConfig config;
  config.node_count = 2;
  Cluster cluster{engine, config};
  cluster.start_dproc();
  engine.run_until(at(5.5));
  // 5 standard modules → 5 events per steady-state period.
  EXPECT_EQ(cluster.dmon(0)->last_poll().events_submitted, 5u);
  EXPECT_EQ(cluster.dmon(0)->delta_suppressed_total(), 0u);
  EXPECT_EQ(cluster.dmon(0)->interest_bytes_saved(), 0u);
}

}  // namespace
}  // namespace dproc::core
