// System-level property tests: invariants that must hold for any workload,
// checked on randomized inputs.
#include <gtest/gtest.h>

#include "dproc/core/cluster.hpp"
#include "dproc/net/tcp.hpp"
#include "dproc/procfs/procfs.hpp"
#include "dproc/util/rng.hpp"

namespace dproc {
namespace {

// --- TCP: reliable, in-order, exactly-once under any loss pattern ---------

class TcpLossProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TcpLossProperty, DeliveryExactlyOnceInOrder) {
  // Buffer size parameterizes the loss regime: from heavy loss (tiny
  // buffers, go-back-N churn) to none (roomy buffers).
  const std::uint64_t buffer = GetParam();
  sim::Engine engine;
  net::Fabric fabric{engine};
  const net::NodeId a = fabric.add_node("a");
  const net::NodeId b = fabric.add_node("b");
  net::LinkConfig link;
  link.buffer_bytes = buffer;
  fabric.build_star({a, b}, link);
  net::Nic nic_a{fabric, a}, nic_b{fabric, b};

  Rng rng{buffer};
  std::vector<std::uint64_t> sent_sizes;
  std::vector<std::uint64_t> got_sizes;

  net::TcpListener listener{nic_b, 80, net::TcpConfig{},
                            [&](net::TcpConnection::Ptr conn) {
                              conn->set_message_handler(
                                  [&](const net::MessagePtr& m) {
                                    got_sizes.push_back(m->size());
                                  });
                            }};
  auto client = net::TcpConnection::connect(nic_a, b, 80);

  // Random message mix: tiny control messages to multi-segment bulk.
  for (int i = 0; i < 40; ++i) {
    const std::uint64_t size =
        rng.bernoulli(0.3)
            ? static_cast<std::uint64_t>(rng.uniform_int(1, 100))
            : static_cast<std::uint64_t>(rng.uniform_int(1'000, 200'000));
    sent_sizes.push_back(size);
    engine.schedule_after(milliseconds(rng.uniform(0.0, 500.0)),
                          [&client, size] {
                            client->send(net::make_message({}, size));
                          });
  }
  engine.run_until(SimTime{} + seconds(120.0));

  // Exactly once, in order, sizes intact — note sends were scheduled at
  // random times, so compare as multisets in arrival order of submission.
  ASSERT_EQ(got_sizes.size(), sent_sizes.size());
  std::sort(sent_sizes.begin(), sent_sizes.end());
  std::vector<std::uint64_t> got_sorted = got_sizes;
  std::sort(got_sorted.begin(), got_sorted.end());
  EXPECT_EQ(got_sorted, sent_sizes);
  EXPECT_EQ(client->stats().messages_sent, 40u);
  EXPECT_EQ(client->stats().send_queue_bytes, 0u);
}

INSTANTIATE_TEST_SUITE_P(BufferSizes, TcpLossProperty,
                         ::testing::Values(6'000, 12'000, 32'000, 256'000),
                         [](const auto& info) {
                           return "buffer" + std::to_string(info.param);
                         });

// --- CPU: conservation under random schedules ------------------------------

TEST(CpuProperty, TimeConservedUnderRandomOperations) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    sim::Engine engine;
    host::Cpu cpu{engine, host::CpuConfig{}};
    Rng rng{seed};

    std::vector<host::TaskId> sinks;
    std::vector<host::TaskId> servers;
    double kernel_injected = 0.0;

    for (int step = 0; step < 60; ++step) {
      engine.run_until(engine.now() + seconds(rng.uniform(0.05, 0.5)));
      switch (rng.uniform_int(0, 4)) {
        case 0:
          sinks.push_back(cpu.add_compute_task("sink"));
          break;
        case 1:
          if (!sinks.empty()) {
            cpu.remove_task(sinks.back());
            sinks.pop_back();
          }
          break;
        case 2:
          servers.push_back(cpu.add_server_task("srv"));
          cpu.submit_work(servers.back(), rng.uniform(0.01, 0.3), {});
          break;
        case 3:
          if (!servers.empty()) {
            cpu.submit_work(
                servers[static_cast<std::size_t>(
                    rng.uniform_int(0, static_cast<std::int64_t>(servers.size()) - 1))],
                rng.uniform(0.01, 0.2), {});
          }
          break;
        case 4: {
          const double k = rng.uniform(0.001, 0.05);
          kernel_injected += k;
          cpu.consume_kernel(seconds(k));
          break;
        }
      }
      if (!sinks.empty() && rng.bernoulli(0.3)) {
        cpu.set_task_weight(sinks[0], rng.uniform(0.1, 8.0));
      }
    }
    engine.run_until(engine.now() + seconds(2.0));

    // Conservation: total user CPU handed out <= elapsed - kernel consumed,
    // and utilization is a valid fraction.
    double user_total = 0.0;
    for (host::TaskId id : sinks) user_total += cpu.task_cpu_time(id).sec();
    for (host::TaskId id : servers) user_total += cpu.task_cpu_time(id).sec();
    const double elapsed = (engine.now() - SimTime::zero()).sec();
    EXPECT_LE(user_total + cpu.kernel_cpu_time().sec(), elapsed + 1e-6)
        << "seed " << seed;
    // consume_kernel truncates to whole nanoseconds per call.
    EXPECT_NEAR(cpu.kernel_cpu_time().sec(), kernel_injected, 60e-9);
    EXPECT_GE(cpu.utilization(), 0.0);
    EXPECT_LE(cpu.utilization(), 1.0);
  }
}

TEST(CpuProperty, WeightsSplitProportionally) {
  sim::Engine engine;
  host::Cpu cpu{engine, host::CpuConfig{}};
  const host::TaskId heavy = cpu.add_compute_task("heavy");
  const host::TaskId light = cpu.add_compute_task("light");
  cpu.set_task_weight(heavy, 3.0);
  engine.run_until(SimTime{} + seconds(8.0));
  EXPECT_NEAR(cpu.task_cpu_time(heavy).sec(), 6.0, 1e-9);
  EXPECT_NEAR(cpu.task_cpu_time(light).sec(), 2.0, 1e-9);
}

// --- procfs: random operation sequences keep the tree consistent -----------

TEST(ProcfsProperty, RandomOperationsNeverCorrupt) {
  Rng rng{0x9999};
  procfs::ProcFs fs;
  std::vector<std::string> registered;

  auto random_path = [&](bool existing) -> std::string {
    if (existing && !registered.empty()) {
      return registered[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(registered.size()) - 1))];
    }
    std::string path = "/proc";
    const int depth = static_cast<int>(rng.uniform_int(1, 4));
    for (int d = 0; d < depth; ++d) {
      path += "/n" + std::to_string(rng.uniform_int(0, 5));
    }
    return path;
  };

  for (int op = 0; op < 2000; ++op) {
    switch (rng.uniform_int(0, 3)) {
      case 0: {
        const std::string path = random_path(false);
        if (fs.register_file(path, [] { return "v"; }).is_ok()) {
          registered.push_back(path);
        }
        break;
      }
      case 1: {
        const std::string path = random_path(true);
        auto content = fs.read(path);
        if (content.is_ok()) {
          EXPECT_EQ(content.value(), "v");
        }
        break;
      }
      case 2:
        (void)fs.remove(random_path(rng.bernoulli(0.5)));
        // Conservative: drop tracking of everything under that prefix.
        registered.clear();
        break;
      case 3:
        (void)fs.list("/proc");
        break;
    }
  }
  // The tree still renders and the root is intact.
  EXPECT_TRUE(fs.is_directory("/proc") || !fs.exists("/proc"));
  (void)fs.tree();
}

// --- cluster trunk topology --------------------------------------------------

TEST(TrunkTopology, CrossSwitchFloodLeavesDisjointPathsAlone) {
  sim::Engine engine;
  core::ClusterConfig config;
  config.node_count = 4;
  config.trunk_split = 2;
  config.dproc_nodes.emplace();
  core::Cluster cluster{engine, config};

  // Flood 0->2 saturates 0's uplink, the trunk, and 2's downlink. The probe
  // 1->0 uses 1's uplink and 0's downlink: fully disjoint, must be clean;
  // a second probe 1->3 shares the trunk with the flood and must suffer.
  std::uint64_t probe_disjoint = 0;
  cluster.nic(0).bind_datagram(9, [&](net::NodeId, net::Port,
                                      const net::MessagePtr& m) {
    probe_disjoint += m->size();
  });
  std::uint64_t probe_shared = 0;
  cluster.nic(3).bind_datagram(9, [&](net::NodeId, net::Port,
                                      const net::MessagePtr& m) {
    probe_shared += m->size();
  });

  for (int i = 0; i < 20'000; ++i) {
    engine.schedule_at(SimTime{i * 50'000}, [&] {  // ~230 Mbps offered
      cluster.nic(0).send_datagram(2, 7, net::make_message({}, 1400));
    });
  }
  for (int i = 0; i < 2000; ++i) {
    engine.schedule_at(SimTime{i * 500'000}, [&] {  // ~23 Mbps each
      cluster.nic(1).send_datagram(0, 9, net::make_message({}, 1400));
      cluster.nic(1).send_datagram(3, 9, net::make_message({}, 1400));
    });
  }
  engine.run_until(SimTime{} + seconds(1.2));
  EXPECT_GT(probe_disjoint, 2000u * 1400u * 95 / 100);
  EXPECT_LT(probe_shared, probe_disjoint);
}

TEST(TrunkTopology, DprocWorksAcrossSwitches) {
  sim::Engine engine;
  core::ClusterConfig config;
  config.node_count = 4;
  config.trunk_split = 2;
  core::Cluster cluster{engine, config};
  cluster.start_dproc();
  engine.run_until(SimTime{} + seconds(4.0));
  // Node 0 (switch A) sees node 3 (switch B) and vice versa.
  EXPECT_NE(cluster.dmon(0)->remote_metric(3, "freemem"), nullptr);
  EXPECT_NE(cluster.dmon(3)->remote_metric(0, "freemem"), nullptr);
}

// --- determinism across the full stack -----------------------------------

TEST(Determinism, EightNodeClusterWithLoadIsBitStable) {
  auto fingerprint = [] {
    sim::Engine engine;
    core::ClusterConfig config;
    config.node_count = 8;
    core::Cluster cluster{engine, config};
    cluster.start_dproc();
    engine.run_until(SimTime{} + seconds(15.0));
    std::uint64_t hash = 1469598103934665603ULL;
    auto mix = [&hash](std::uint64_t v) {
      hash ^= v;
      hash *= 1099511628211ULL;
    };
    mix(engine.events_processed());
    for (std::size_t i = 0; i < 8; ++i) {
      mix(cluster.nic(i).stats().bytes_sent);
      mix(cluster.nic(i).stats().bytes_received);
      mix(static_cast<std::uint64_t>(
          cluster.host(i).cpu().kernel_cpu_time().ns()));
    }
    return hash;
  };
  EXPECT_EQ(fingerprint(), fingerprint());
}

}  // namespace
}  // namespace dproc
