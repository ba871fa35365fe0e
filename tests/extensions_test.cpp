// Tests for the extension subsystems: battery/power monitoring, cluster
// aggregation, the QoS manager, and fault injection (the paper's
// peer-to-peer fault-tolerance claim).
#include <gtest/gtest.h>

#include "dproc/core/aggregate.hpp"
#include "dproc/core/cluster.hpp"
#include "dproc/host/battery.hpp"
#include "dproc/qos/manager.hpp"
#include "dproc/workload/linpack.hpp"

namespace dproc {
namespace {

// --- battery ---------------------------------------------------------------

class BatteryTest : public ::testing::Test {
 protected:
  BatteryTest() {
    core::ClusterConfig config;
    config.node_count = 2;
    config.dproc_nodes.emplace();
    cluster = std::make_unique<core::Cluster>(engine, config);
    battery = std::make_unique<host::Battery>(engine, cluster->host(0).cpu(),
                                              cluster->nic(0));
  }
  void run_for(double sec) { engine.run_until(engine.now() + seconds(sec)); }

  sim::Engine engine;
  std::unique_ptr<core::Cluster> cluster;
  std::unique_ptr<host::Battery> battery;
};

TEST_F(BatteryTest, IdleDrainIsBaselineOnly) {
  run_for(100.0);
  const double expected = 100.0 * battery->config().idle_watts;
  EXPECT_NEAR(battery->remaining_joules(),
              battery->config().capacity_joules - expected, 1.0);
  EXPECT_NEAR(battery->watts(), battery->config().idle_watts, 0.01);
}

TEST_F(BatteryTest, CpuLoadIncreasesDrain) {
  run_for(50.0);
  const double idle_level = battery->level();
  workload::LinpackTask burn{cluster->host(0)};
  run_for(50.0);
  const double active_drop = idle_level - battery->level();
  const double expected_joules =
      50.0 * (battery->config().idle_watts + battery->config().cpu_active_watts);
  EXPECT_NEAR(active_drop * battery->config().capacity_joules,
              expected_joules, expected_joules * 0.05);
}

TEST_F(BatteryTest, NetworkTrafficDrains) {
  run_for(10.0);
  const double before = battery->remaining_joules();
  // Push ~12 MB through the radio.
  for (int i = 0; i < 250; ++i) {
    cluster->nic(0).send_datagram(1, 99, net::make_message({}, 50'000));
  }
  run_for(10.0);
  const double spent = before - battery->remaining_joules();
  const double radio = 12.5e6 * battery->config().nanojoules_per_byte * 1e-9;
  EXPECT_GT(spent, 10.0 * battery->config().idle_watts + radio * 0.8);
}

TEST_F(BatteryTest, LevelNeverNegative) {
  host::BatteryConfig tiny;
  tiny.capacity_joules = 5.0;
  host::Battery small{engine, cluster->host(0).cpu(), cluster->nic(0), tiny};
  run_for(100.0);
  EXPECT_EQ(small.remaining_joules(), 0.0);
  EXPECT_TRUE(small.depleted());
  EXPECT_EQ(small.level(), 0.0);
}

TEST(BatteryMonitorTest, PublishesPowerMetricsClusterWide) {
  sim::Engine engine;
  core::ClusterConfig config;
  config.node_count = 2;
  core::Cluster cluster{engine, config};
  // The mobile node (1) registers the power module dynamically — the
  // paper's §2.1 extension example.
  auto battery = std::make_unique<host::Battery>(engine, cluster.host(1).cpu(),
                                                 cluster.nic(1));
  cluster.dmon(1)->register_module(
      std::make_unique<core::BatteryMonitor>(*battery));
  cluster.start_dproc();
  engine.run_until(SimTime{} + seconds(5.0));

  // Node 0 never registered a power module but still renders the peer's
  // metric: ids are registered symmetrically... here they are not, so the
  // value travels but node 0 lacks the procfs file. Check via the API:
  const core::RemoteMetric* level =
      cluster.dmon(1)->remote_metric(0, "battery_level");
  (void)level;  // node 0 publishes no battery; nothing to assert there
  auto reading = cluster.procfs(1).read("/proc/power/battery_level");
  ASSERT_TRUE(reading.is_ok());
  EXPECT_GT(std::stod(reading.value()), 0.99);
  auto watts = cluster.procfs(1).read("/proc/power/watts");
  ASSERT_TRUE(watts.is_ok());
  EXPECT_GT(std::stod(watts.value()), 0.0);
}

// --- aggregation ------------------------------------------------------------

TEST(AggregateTest, SummarizesAcrossCluster) {
  sim::Engine engine;
  core::ClusterConfig config;
  config.node_count = 4;
  core::Cluster cluster{engine, config};
  core::ClusterAggregator aggregator{*cluster.dmon(0), cluster.procfs(0)};
  cluster.start_dproc();
  engine.run_until(SimTime{} + seconds(3.0));

  // Two linpack threads on node 2: cluster max loadavg should reflect it.
  workload::LinpackTask a{cluster.host(2)}, b{cluster.host(2)};
  engine.run_until(SimTime{} + seconds(12.0));

  const core::AggregateView view = aggregator.aggregate("loadavg");
  EXPECT_EQ(view.nodes, 4u);  // self + three peers
  EXPECT_GT(view.max, 1.5);
  EXPECT_LT(view.min, 0.5);
  EXPECT_GT(view.mean, 0.3);
  EXPECT_LT(view.mean, 1.2);

  auto rendered = cluster.procfs(0).read("/proc/cluster/summary/loadavg");
  ASSERT_TRUE(rendered.is_ok());
  EXPECT_NE(rendered.value().find("nodes 4"), std::string::npos);
  EXPECT_NE(rendered.value().find("max"), std::string::npos);
}

TEST(AggregateTest, StalePeersExcluded) {
  sim::Engine engine;
  core::ClusterConfig config;
  config.node_count = 3;
  core::Cluster cluster{engine, config};
  core::ClusterAggregator aggregator{*cluster.dmon(0), cluster.procfs(0),
                                     seconds(5.0)};
  cluster.start_dproc();
  engine.run_until(SimTime{} + seconds(4.0));
  EXPECT_EQ(aggregator.aggregate("freemem").nodes, 3u);

  // Kill node 2's network: its values age out of the aggregate.
  cluster.fabric().set_node_down(2, true);
  engine.run_until(engine.now() + seconds(10.0));
  EXPECT_EQ(aggregator.aggregate("freemem").nodes, 2u);
}

TEST(AggregateTest, UnknownMetricYieldsEmptyView) {
  sim::Engine engine;
  core::ClusterConfig config;
  config.node_count = 2;
  core::Cluster cluster{engine, config};
  core::ClusterAggregator aggregator{*cluster.dmon(0), cluster.procfs(0)};
  EXPECT_EQ(aggregator.aggregate("bogus").nodes, 0u);
}

// --- qos ---------------------------------------------------------------------

class QosTest : public ::testing::Test {
 protected:
  QosTest() {
    core::ClusterConfig config;
    config.node_count = 1;
    config.dproc_nodes.emplace();
    cluster = std::make_unique<core::Cluster>(engine, config);
    manager = std::make_unique<qos::Manager>(cluster->host(0));
  }
  void run_for(double sec) { engine.run_until(engine.now() + seconds(sec)); }

  sim::Engine engine;
  std::unique_ptr<core::Cluster> cluster;
  std::unique_ptr<qos::Manager> manager;
};

TEST_F(QosTest, ReservationEnforcedAgainstBackgroundLoad) {
  // The reserved task would get 1/4 CPU unmanaged; it reserved 60%.
  host::Cpu& cpu = cluster->host(0).cpu();
  const host::TaskId reserved = cpu.add_compute_task("reserved");
  workload::LinpackTask bg1{cluster->host(0)}, bg2{cluster->host(0)},
      bg3{cluster->host(0)};

  qos::ReservationConfig reservation;
  reservation.cpu_share = 0.6;
  ASSERT_TRUE(manager->reserve(reserved, reservation).is_ok());
  run_for(30.0);  // let the controller converge

  const SimDuration before = cpu.task_cpu_time(reserved);
  run_for(20.0);
  const double achieved = (cpu.task_cpu_time(reserved) - before).sec() / 20.0;
  EXPECT_NEAR(achieved, 0.6, 0.06);
}

TEST_F(QosTest, AdmissionControlRejectsOversubscription) {
  host::Cpu& cpu = cluster->host(0).cpu();
  const host::TaskId a = cpu.add_compute_task("a");
  const host::TaskId b = cpu.add_compute_task("b");
  qos::ReservationConfig big;
  big.cpu_share = 0.6;
  ASSERT_TRUE(manager->reserve(a, big).is_ok());
  EXPECT_EQ(manager->reserve(b, big).code(), StatusCode::kResourceExhausted);
  EXPECT_NEAR(manager->admitted_share(), 0.6, 1e-12);
  // A smaller reservation still fits.
  qos::ReservationConfig small;
  small.cpu_share = 0.2;
  EXPECT_TRUE(manager->reserve(b, small).is_ok());
}

TEST_F(QosTest, ViolationCallbackFiresWhenInfeasible) {
  host::Cpu& cpu = cluster->host(0).cpu();
  const host::TaskId reserved = cpu.add_compute_task("reserved");
  qos::ReservationConfig reservation;
  reservation.cpu_share = 0.9;
  int violations = 0;
  reservation.on_violation = [&](double) { ++violations; };
  ASSERT_TRUE(manager->reserve(reserved, reservation).is_ok());

  // Kernel load eats ~40% of every second: 0.9 is unreachable even at
  // maximum weight.
  engine.schedule_periodic(seconds(1.0), [&] {
    cluster->host(0).cpu().consume_kernel(milliseconds(400.0));
  });
  workload::LinpackTask bg{cluster->host(0)};
  run_for(30.0);
  EXPECT_GT(violations, 5);
  const qos::ReservationStatus* status = manager->status(reserved);
  ASSERT_NE(status, nullptr);
  EXPECT_GT(status->violations, 5u);
  EXPECT_LT(status->achieved_share, 0.9);
}

TEST_F(QosTest, ReleaseRestoresBestEffort) {
  host::Cpu& cpu = cluster->host(0).cpu();
  const host::TaskId reserved = cpu.add_compute_task("reserved");
  workload::LinpackTask bg{cluster->host(0)};
  qos::ReservationConfig reservation;
  reservation.cpu_share = 0.8;
  ASSERT_TRUE(manager->reserve(reserved, reservation).is_ok());
  run_for(20.0);
  manager->release(reserved);
  EXPECT_EQ(manager->reservation_count(), 0u);
  EXPECT_DOUBLE_EQ(cpu.task_weight(reserved), 1.0);
  EXPECT_DOUBLE_EQ(manager->admitted_share(), 0.0);

  const SimDuration before = cpu.task_cpu_time(reserved);
  run_for(10.0);
  const double achieved = (cpu.task_cpu_time(reserved) - before).sec() / 10.0;
  EXPECT_NEAR(achieved, 0.5, 0.02);  // back to fair share
}

TEST_F(QosTest, VanishedTaskDropsReservation) {
  host::Cpu& cpu = cluster->host(0).cpu();
  const host::TaskId task = cpu.add_compute_task("short-lived");
  qos::ReservationConfig reservation;
  reservation.cpu_share = 0.5;
  ASSERT_TRUE(manager->reserve(task, reservation).is_ok());
  run_for(3.0);
  cpu.remove_task(task);
  run_for(3.0);
  EXPECT_EQ(manager->reservation_count(), 0u);
  EXPECT_DOUBLE_EQ(manager->admitted_share(), 0.0);
}

TEST_F(QosTest, InvalidSharesRejected) {
  host::Cpu& cpu = cluster->host(0).cpu();
  const host::TaskId task = cpu.add_compute_task("t");
  qos::ReservationConfig bad;
  bad.cpu_share = 0.0;
  EXPECT_FALSE(manager->reserve(task, bad).is_ok());
  bad.cpu_share = 1.5;
  EXPECT_FALSE(manager->reserve(task, bad).is_ok());
  EXPECT_FALSE(manager->describe().empty());
}

// --- cluster configuration validation ---------------------------------------

TEST(ClusterConfigTest, RejectsInvalidShapes) {
  sim::Engine engine;
  core::ClusterConfig zero;
  zero.node_count = 0;
  EXPECT_THROW((core::Cluster{engine, zero}), std::invalid_argument);

  core::ClusterConfig bad_split;
  bad_split.node_count = 4;
  bad_split.trunk_split = 0;
  EXPECT_THROW((core::Cluster{engine, bad_split}), std::invalid_argument);
  bad_split.trunk_split = 4;
  EXPECT_THROW((core::Cluster{engine, bad_split}), std::invalid_argument);

  core::ClusterConfig bad_dproc;
  bad_dproc.node_count = 2;
  bad_dproc.dproc_nodes = std::vector<std::size_t>{5};
  EXPECT_THROW((core::Cluster{engine, bad_dproc}), std::out_of_range);
}

TEST(ClusterConfigTest, GeneratedNamesAndCustomNamesCoexist) {
  sim::Engine engine;
  core::ClusterConfig config;
  config.node_count = 3;
  config.node_names = {"alpha"};  // remaining nodes get generated names
  core::Cluster cluster{engine, config};
  EXPECT_EQ(cluster.fabric().node_name(0), "alpha");
  EXPECT_EQ(cluster.fabric().node_name(1), "node1");
  EXPECT_EQ(cluster.fabric().node_name(2), "node2");
}

TEST(ClusterConfigTest, CustomModuleFactoryReplacesStandardSet) {
  sim::Engine engine;
  core::ClusterConfig config;
  config.node_count = 2;
  config.module_factory = [](core::DMon& dmon, host::Host&, net::Nic&) {
    dmon.register_module(
        std::make_unique<core::SyntheticMonitor>("only", 2));
  };
  core::Cluster cluster{engine, config};
  EXPECT_EQ(cluster.dmon(0)->metric_table().size(), 2u);
  EXPECT_FALSE(cluster.dmon(0)->metric_id("loadavg").has_value());
  EXPECT_TRUE(cluster.dmon(0)->metric_id("only0").has_value());
}

// --- fault tolerance ----------------------------------------------------------

TEST(FaultTolerance, MonitoringSurvivesPeerCrash) {
  sim::Engine engine;
  core::ClusterConfig config;
  config.node_count = 4;
  core::Cluster cluster{engine, config};
  cluster.start_dproc();
  engine.run_until(SimTime{} + seconds(4.0));

  // Crash node 3. The paper's p2p design: no central collector to lose.
  cluster.fabric().set_node_down(3, true);
  engine.run_until(engine.now() + seconds(10.0));

  // Surviving pairs still exchange fresh data.
  const core::RemoteMetric* fresh = cluster.dmon(0)->remote_metric(1, "freemem");
  ASSERT_NE(fresh, nullptr);
  EXPECT_LT((engine.now() - fresh->received_at).sec(), 2.0);

  // The dead node's last values remain visible but age out.
  const core::RemoteMetric* stale = cluster.dmon(0)->remote_metric(3, "freemem");
  ASSERT_NE(stale, nullptr);
  EXPECT_GT((engine.now() - stale->received_at).sec(), 8.0);
}

TEST(FaultTolerance, RegistryCrashAfterSetupIsHarmless) {
  // The registry (on node 0) is only needed for channel discovery; once
  // membership is established, monitoring is pure peer-to-peer.
  sim::Engine engine;
  core::ClusterConfig config;
  config.node_count = 4;
  core::Cluster cluster{engine, config};
  cluster.start_dproc();
  engine.run_until(SimTime{} + seconds(4.0));

  cluster.fabric().set_node_down(0, true);  // registry host dies
  engine.run_until(engine.now() + seconds(10.0));

  const core::RemoteMetric* fresh = cluster.dmon(1)->remote_metric(2, "freemem");
  ASSERT_NE(fresh, nullptr);
  EXPECT_LT((engine.now() - fresh->received_at).sec(), 2.0);
}

TEST(FaultTolerance, NodeRecoveryResumesUpdates) {
  sim::Engine engine;
  core::ClusterConfig config;
  config.node_count = 3;
  core::Cluster cluster{engine, config};
  cluster.start_dproc();
  engine.run_until(SimTime{} + seconds(4.0));

  cluster.fabric().set_node_down(2, true);
  engine.run_until(engine.now() + seconds(8.0));
  cluster.fabric().set_node_down(2, false);
  engine.run_until(engine.now() + seconds(15.0));  // TCP RTO backoff recovery

  const core::RemoteMetric* metric = cluster.dmon(0)->remote_metric(2, "freemem");
  ASSERT_NE(metric, nullptr);
  EXPECT_LT((engine.now() - metric->received_at).sec(), 5.0);
}

}  // namespace
}  // namespace dproc
