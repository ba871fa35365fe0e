// Allocation and re-entrancy guarantees for the hot paths.
//
// These pin the properties the perf overhaul is built on: a warm Vm::run
// allocates nothing, a Vm is re-entrant (same program, same input, same
// result on every call), and once warm the event engine, the fabric and
// TCP schedule, forward and acknowledge without touching the heap, a
// warm /proc read allocates only the string it returns, and CPU_MON's
// history stops growing once its window is full. The
// alloc counter comes from bench/alloc_counter.cpp,
// whose global operator new/delete override counts every heap allocation
// in the test binary.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "../bench/alloc_counter.hpp"
#include "dproc/core/cluster.hpp"
#include "dproc/core/monitors.hpp"
#include "dproc/ecode/ecode.hpp"
#include "dproc/net/fabric.hpp"
#include "dproc/net/nic.hpp"
#include "dproc/net/tcp.hpp"
#include "dproc/sim/engine.hpp"

namespace {

using dproc::ecode::CompileEnv;
using dproc::ecode::Filter;
using dproc::ecode::FilterResult;
using dproc::ecode::Sample;
using dproc::ecode::Vm;

const char* kFigure3Filter = R"({
  int i = 0;
  if (input[LOADAVG].value > 2) {
    output[i] = input[LOADAVG];
    i = i + 1;
  }
  if (input[DISKUSAGE].value > 10000 && input[FREEMEM].value < 50e6) {
    output[i] = input[DISKUSAGE];
    i = i + 1;
    output[i] = input[FREEMEM];
    i = i + 1;
  }
  if (input[CACHE_MISS].value > input[CACHE_MISS].last_value_sent) {
    output[i] = input[CACHE_MISS];
    i = i + 1;
  }
})";

Filter compile_figure3() {
  CompileEnv env;
  env.constants = {{"LOADAVG", 0}, {"DISKUSAGE", 1}, {"FREEMEM", 2},
                   {"CACHE_MISS", 3}};
  auto filter = Filter::compile(kFigure3Filter, env);
  EXPECT_TRUE(filter.is_ok()) << filter.status().to_string();
  return std::move(filter).value();
}

std::vector<Sample> figure3_input() {
  return {{0, 2.5, 0.4, 0}, {1, 20'000, 220, 0}, {2, 41e6, 310e6, 0},
          {3, 8'812'004, 8'611'220, 0}};
}

TEST(PerfRegressionTest, WarmVmRunAllocatesNothing) {
  const Filter filter = compile_figure3();
  const std::vector<Sample> input = figure3_input();

  Vm vm;
  FilterResult result;
  // Warm-up: first runs size the scratch arenas and the result vectors.
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(vm.run(filter.bytecode(), input, result).is_ok());
  }

  const std::uint64_t before = dproc::bench::alloc_count();
  for (int i = 0; i < 10'000; ++i) {
    ASSERT_TRUE(vm.run(filter.bytecode(), input, result).is_ok());
  }
  EXPECT_EQ(dproc::bench::alloc_count() - before, 0u)
      << "steady-state Vm::run must not touch the heap";
  EXPECT_EQ(result.outputs.size(), 4u);
}

TEST(PerfRegressionTest, TouchedListGrowsWithOutputArenaNotMidRun) {
  // ensure_output_slot() grows every output arena together: out_samples_,
  // out_written_ AND the touched-list (the historical gap — out_touched_
  // was left to grow push_back by push_back on the next many-slot run).
  // After one run that touched only the highest slot, a run that touches
  // every slot below it must not allocate.
  CompileEnv env;
  auto high = Filter::compile(
      "int a = 0; a = a + 1; a = a * 2; a = a - 1; a = a ^ 3;"
      "for (int i = 0; i < 80; ++i) a = a + i;"
      "output[63].value = 1.0;",
      env);
  auto many = Filter::compile(
      "for (int i = 0; i < 64; ++i) output[i].value = 1.0;", env);
  ASSERT_TRUE(high.is_ok());
  ASSERT_TRUE(many.is_ok());
  // The pin only holds if `high` dominates the per-program arenas too.
  ASSERT_GE(high.value().bytecode().insns.size(),
            many.value().bytecode().insns.size());

  FilterResult result;
  {
    Vm warm;  // sizes result.outputs' capacity for 64 entries
    ASSERT_TRUE(warm.run(many.value().bytecode(), {}, result).is_ok());
  }
  Vm vm;
  ASSERT_TRUE(vm.run(high.value().bytecode(), {}, result).is_ok());

  const std::uint64_t before = dproc::bench::alloc_count();
  ASSERT_TRUE(vm.run(many.value().bytecode(), {}, result).is_ok());
  EXPECT_EQ(dproc::bench::alloc_count() - before, 0u)
      << "touching 64 pre-grown slots must not reallocate the touched list";
  EXPECT_EQ(result.outputs.size(), 64u);
}

TEST(PerfRegressionTest, VmIsReentrant) {
  const Filter filter = compile_figure3();
  const std::vector<Sample> input = figure3_input();

  Vm vm;
  auto first = vm.run(filter.bytecode(), input);
  ASSERT_TRUE(first.is_ok()) << first.status().to_string();
  auto second = vm.run(filter.bytecode(), input);
  ASSERT_TRUE(second.is_ok()) << second.status().to_string();

  EXPECT_EQ(first.value().outputs, second.value().outputs);
  EXPECT_EQ(first.value().return_value, second.value().return_value);
  EXPECT_EQ(first.value().instructions_executed,
            second.value().instructions_executed);

  // The reuse entry point must agree with the fresh-result entry point.
  FilterResult reused;
  ASSERT_TRUE(vm.run(filter.bytecode(), input, reused).is_ok());
  EXPECT_EQ(reused.outputs, first.value().outputs);
  EXPECT_EQ(reused.instructions_executed, first.value().instructions_executed);
}

// Steady-state heap traffic of one publishing flavour: allocations across
// the whole cluster while the simulation advances a fixed window, after the
// channels and caches have warmed up.
std::uint64_t steady_state_allocs(const dproc::core::BatchConfig& batch,
                                  const std::vector<std::string>& interest) {
  dproc::sim::Engine engine;
  dproc::core::ClusterConfig config;
  config.node_count = 3;
  config.batch = batch;
  dproc::core::Cluster cluster{engine, config};
  cluster.start_dproc();
  engine.run_until(dproc::SimTime::zero() + dproc::seconds(2.0));
  if (!interest.empty()) {
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      (void)cluster.dmon(i)->declare_interest(interest);
    }
  }
  // Warm-up: scratch buffers, frame caches and procfs strings size
  // themselves in the first periods.
  engine.run_until(dproc::SimTime::zero() + dproc::seconds(10.0));
  const std::uint64_t before = dproc::bench::alloc_count();
  engine.run_until(dproc::SimTime::zero() + dproc::seconds(40.0));
  return dproc::bench::alloc_count() - before;
}

TEST(PerfRegressionTest, BatchedPublishingAllocatesNoMoreThanPerModule) {
  // The batched path coalesces 5 per-module frames into one — it must not
  // give the saving back in heap churn. Encode buffers, the decode scratch
  // and the per-distinct-interest frame cache are persistent, so a batched
  // period allocates strictly less than five separate submissions.
  const std::uint64_t per_module = steady_state_allocs({}, {});

  dproc::core::BatchConfig batch;
  batch.enabled = true;
  batch.interest = true;
  const std::uint64_t batched = steady_state_allocs(batch, {"cpu", "mem"});

  ASSERT_GT(per_module, 0u);
  EXPECT_LE(batched, per_module)
      << "batched " << batched << " allocs vs per-module " << per_module
      << " over the same simulated window";
}

// Schedules, cancels and fires one round of events whose captures span
// the inline callback size: a bare `this`-like pointer, a shared_ptr (the
// TCP retransmission timer's `self`) and a capture of exactly
// EventCallback::kInlineBytes.
void engine_round(dproc::sim::Engine& engine,
                  std::vector<dproc::sim::EventHandle>& handles,
                  std::uint64_t& sum, const std::shared_ptr<int>& owner) {
  struct Wide {
    std::uint64_t* sum;
    std::array<std::uint64_t, 5> words;
  };
  static_assert(sizeof(Wide) == dproc::sim::EventCallback::kInlineBytes);
  for (std::size_t i = 0; i < handles.size(); ++i) {
    const dproc::SimDuration at = dproc::microseconds(1.0 + static_cast<double>(i % 8));
    switch (i % 3) {
      case 0:
        handles[i] = engine.schedule_after(at, [&sum] { ++sum; });
        break;
      case 1:
        handles[i] = engine.schedule_after(at, [&sum, owner] { sum += *owner; });
        break;
      default:
        handles[i] = engine.schedule_after(
            at, [w = Wide{&sum, {1, 2, 3, 4, 5}}] { *w.sum += w.words[4]; });
        break;
    }
  }
  for (std::size_t i = 0; i < handles.size(); i += 4) handles[i].cancel();
  dproc::sim::EventHandle timer;
  int ticks = 0;
  timer = engine.schedule_periodic(dproc::microseconds(2.0), [&] {
    if (++ticks == 3) timer.cancel();
  });
  engine.run();
  for (auto& handle : handles) handle.cancel();  // all stale by now
}

TEST(PerfRegressionTest, WarmEngineSchedulesFiresAndCancelsWithoutAllocating) {
  dproc::sim::Engine engine;
  std::vector<dproc::sim::EventHandle> handles(64);
  const auto owner = std::make_shared<int>(3);
  std::uint64_t sum = 0;
  engine_round(engine, handles, sum, owner);  // sizes the slab and the heap

  const std::uint64_t before = dproc::bench::alloc_count();
  for (int i = 0; i < 100; ++i) engine_round(engine, handles, sum, owner);
  EXPECT_EQ(dproc::bench::alloc_count() - before, 0u)
      << "warm scheduling must not allocate per event";
  EXPECT_GT(sum, 0u);
  EXPECT_EQ(engine.cancel_flags_allocated(), 0u);
}

// A two-port star, a second node pair on an explicit route, and loopback.
struct FabricRig {
  dproc::sim::Engine engine;
  dproc::net::Fabric fabric{engine};
  dproc::net::NodeId a = fabric.add_node("a");
  dproc::net::NodeId b = fabric.add_node("b");
  std::uint64_t delivered = 0;

  FabricRig() {
    fabric.build_star({a, b}, dproc::net::LinkConfig{});
    const auto on_delivery = [this](const dproc::net::Packet&) { ++delivered; };
    fabric.set_delivery_handler(a, on_delivery);
    fabric.set_delivery_handler(b, on_delivery);
  }

  void burst(const dproc::net::MessagePtr& message) {
    for (int i = 0; i < 32; ++i) {
      dproc::net::Packet p;
      p.src = i % 4 == 3 ? b : a;
      p.dst = i % 5 == 4 ? p.src : (p.src == a ? b : a);  // some loopback
      p.payload_bytes = 1000;
      p.message = message;
      fabric.send(std::move(p));
    }
    engine.run();
  }
};

TEST(PerfRegressionTest, WarmFabricTraversalAllocatesNothing) {
  FabricRig rig;
  const auto message = dproc::net::make_message({1, 2, 3});
  rig.burst(message);

  const std::uint64_t before = dproc::bench::alloc_count();
  for (int i = 0; i < 100; ++i) rig.burst(message);
  EXPECT_EQ(dproc::bench::alloc_count() - before, 0u)
      << "forwarding a packet over warm links must not touch the heap";
  EXPECT_EQ(rig.delivered, 101u * 32u);
  EXPECT_EQ(rig.fabric.stats().drops_total(), 0u);
  EXPECT_EQ(message.use_count(), 1) << "in-flight FIFOs must release packets";
}

TEST(PerfRegressionTest, WarmTcpExchangeAllocatesNothingPerSegment) {
  // Request/response over one connection: each request and each reply
  // spans several segments, and every segment is acknowledged and re-arms
  // the retransmission timer. Messages are built up front — their own
  // allocation is the application's, not the transport's.
  dproc::sim::Engine engine;
  dproc::net::Fabric fabric{engine};
  const dproc::net::NodeId a = fabric.add_node("a");
  const dproc::net::NodeId b = fabric.add_node("b");
  fabric.build_star({a, b}, dproc::net::LinkConfig{});
  dproc::net::Nic nic_a{fabric, a};
  dproc::net::Nic nic_b{fabric, b};
  const auto request = dproc::net::make_message({}, 6000);
  const auto reply = dproc::net::make_message({}, 9000);
  std::uint64_t requests = 0;
  std::uint64_t replies = 0;
  dproc::net::TcpConnection::Ptr server;
  dproc::net::TcpListener listener{
      nic_b, 80, dproc::net::TcpConfig{},
      [&](dproc::net::TcpConnection::Ptr conn) {
        server = conn;
        server->set_message_handler([&](const dproc::net::MessagePtr&) {
          ++requests;
          server->send(reply);
        });
      }};
  auto client = dproc::net::TcpConnection::connect(nic_a, b, 80);
  client->set_message_handler(
      [&](const dproc::net::MessagePtr&) { ++replies; });
  engine.run();
  ASSERT_TRUE(client->established());

  const auto exchange = [&](int rounds) {
    for (int i = 0; i < rounds; ++i) {
      client->send(request);
      engine.run();
    }
  };
  exchange(10);  // warm-up: grows the segment and message rings

  const std::uint64_t before = dproc::bench::alloc_count();
  exchange(1000);
  EXPECT_EQ(dproc::bench::alloc_count() - before, 0u)
      << "segments, ACKs and retransmission timers must not allocate";
  EXPECT_EQ(requests, 1010u);
  EXPECT_EQ(replies, 1010u);
  EXPECT_EQ(client->stats().retransmissions, 0u);
  EXPECT_EQ(request.use_count(), 1) << "acked segments must release messages";
}

TEST(PerfRegressionTest, WarmProcfsReadAllocatesOnlyItsAnswer) {
  // A read walks its path as string views, through the peer's binding into
  // the shared peer subtree, and formats into a stack buffer: the string it
  // returns is its only heap block.
  dproc::sim::Engine engine;
  dproc::core::ClusterConfig config;
  config.node_count = 3;
  config.node_names = {"alan", "maui", "etna"};
  dproc::core::Cluster cluster{engine, config};
  cluster.start_dproc();
  engine.run_until(dproc::SimTime::zero() + dproc::seconds(5.0));
  dproc::procfs::ProcFs& fs = cluster.procfs(0);
  for (const std::string path :
       {"/proc/cluster/etna/cpu/loadavg", "/proc/cluster/maui/net/rtt_us",
        "/proc/cluster/etna/status", "/proc/cluster/maui/control",
        "/proc/cpu/loadavg"}) {
    ASSERT_TRUE(fs.read(path).is_ok()) << path;  // warm
    const std::uint64_t before = dproc::bench::alloc_count();
    auto content = fs.read(path);
    const std::uint64_t allocs = dproc::bench::alloc_count() - before;
    ASSERT_TRUE(content.is_ok()) << path;
    EXPECT_NE(content.value(), "no data\n") << path;
    EXPECT_LE(allocs, 1u) << path << " read made " << allocs
                          << " allocations";
  }
}

TEST(PerfRegressionTest, FullCpuMonWindowSamplesWithoutAllocating) {
  // CPU_MON's history is bounded by its window: once the window is full,
  // an hour of 10 Hz sampling (and a read every second, as d-mon's poll
  // makes) neither allocates nor holds more heap.
  dproc::sim::Engine engine;
  dproc::host::Host host{engine, 0, dproc::host::HostConfig{},
                         dproc::Rng{3}};
  host.cpu().add_compute_task("linpack");
  dproc::core::CpuMonitor mon{host, dproc::seconds(5.0)};
  auto reader = engine.schedule_periodic(
      dproc::seconds(1.0), [&] { (void)mon.load_average(); });
  engine.run_until(dproc::SimTime::zero() + dproc::seconds(10.0));

  const std::uint64_t allocs_before = dproc::bench::alloc_count();
  const std::int64_t heap_before = dproc::bench::alloc_live_bytes();
  engine.run_until(dproc::SimTime::zero() + dproc::seconds(3610.0));
  EXPECT_EQ(dproc::bench::alloc_count() - allocs_before, 0u);
  EXPECT_LE(dproc::bench::alloc_live_bytes(), heap_before);
  EXPECT_EQ(mon.load_average(), 1.0);
  reader.cancel();
}

TEST(PerfRegressionTest, FlatClusterStaysUnderHalfAnAllocationPerEvent) {
  // End-to-end guard on the whole stack: 16 nodes all-pairs with batching,
  // delta suppression and interest fan-out, measured after warm-up.
  dproc::sim::Engine engine;
  dproc::core::ClusterConfig config;
  config.node_count = 16;
  config.batch.enabled = true;
  config.batch.delta_epsilon = 0.01;
  config.batch.keyframe_every = 2;
  config.batch.interest = true;
  dproc::core::Cluster cluster{engine, config};
  cluster.start_dproc();
  engine.run_until(dproc::SimTime::zero() + dproc::seconds(2.0));
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    (void)cluster.dmon(i)->declare_interest({"cpu", "mem"});
  }
  engine.run_until(dproc::SimTime::zero() + dproc::seconds(10.0));

  const std::uint64_t allocs_before = dproc::bench::alloc_count();
  const std::uint64_t events_before = engine.events_processed();
  engine.run_until(dproc::SimTime::zero() + dproc::seconds(30.0));
  const std::uint64_t allocs = dproc::bench::alloc_count() - allocs_before;
  const std::uint64_t events = engine.events_processed() - events_before;
  ASSERT_GT(events, 0u);
  const double per_event = static_cast<double>(allocs) / static_cast<double>(events);
  EXPECT_LE(per_event, 0.5) << allocs << " allocations over " << events
                            << " events";
}

}  // namespace
