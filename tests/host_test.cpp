#include <gtest/gtest.h>

#include "dproc/host/host.hpp"

namespace dproc::host {
namespace {

class CpuTest : public ::testing::Test {
 protected:
  sim::Engine engine;
  Cpu cpu{engine, CpuConfig{}};  // 17.4 Mflops @ 200 MHz

  void run_for(double sec) { engine.run_until(engine.now() + seconds(sec)); }
};

TEST_F(CpuTest, SingleComputeTaskGetsFullCpu) {
  const TaskId task = cpu.add_compute_task("linpack");
  run_for(10.0);
  EXPECT_NEAR(cpu.task_cpu_time(task).sec(), 10.0, 1e-9);
  EXPECT_NEAR(cpu.task_mflops(task), 17.4, 1e-9);
}

TEST_F(CpuTest, TwoComputeTasksShareEqually) {
  const TaskId a = cpu.add_compute_task("a");
  const TaskId b = cpu.add_compute_task("b");
  run_for(10.0);
  EXPECT_NEAR(cpu.task_cpu_time(a).sec(), 5.0, 1e-9);
  EXPECT_NEAR(cpu.task_cpu_time(b).sec(), 5.0, 1e-9);
  EXPECT_NEAR(cpu.task_mflops(a), 8.7, 1e-9);
}

TEST_F(CpuTest, SharesSumToCapacity) {
  std::vector<TaskId> tasks;
  for (int i = 0; i < 5; ++i) tasks.push_back(cpu.add_compute_task("t"));
  run_for(7.0);
  double total = 0;
  for (TaskId t : tasks) total += cpu.task_cpu_time(t).sec();
  EXPECT_NEAR(total, 7.0, 1e-9);
}

TEST_F(CpuTest, RemoveTaskRedistributes) {
  const TaskId a = cpu.add_compute_task("a");
  const TaskId b = cpu.add_compute_task("b");
  run_for(4.0);
  cpu.remove_task(b);
  run_for(4.0);
  EXPECT_NEAR(cpu.task_cpu_time(a).sec(), 2.0 + 4.0, 1e-9);
}

TEST_F(CpuTest, KernelWorkHasStrictPriority) {
  const TaskId task = cpu.add_compute_task("user");
  run_for(1.0);
  cpu.consume_kernel(milliseconds(100.0));
  run_for(1.0);
  // During the second second the kernel stole 100 ms.
  EXPECT_NEAR(cpu.task_cpu_time(task).sec(), 1.9, 1e-9);
  EXPECT_NEAR(cpu.kernel_cpu_time().sec(), 0.1, 1e-12);
}

TEST_F(CpuTest, KernelCyclesConvertByClockRate) {
  cpu.consume_kernel_cycles(200e6);  // one second at 200 MHz
  EXPECT_NEAR(cpu.kernel_cpu_time().sec(), 1.0, 1e-9);
}

TEST_F(CpuTest, MflopsDropMatchesKernelSteal) {
  const TaskId task = cpu.add_compute_task("linpack");
  // Steal 1% of each second, the Figure 4 mechanism.
  engine.schedule_periodic(seconds(1.0),
                           [&] { cpu.consume_kernel(milliseconds(10.0)); });
  run_for(30.0);
  EXPECT_NEAR(cpu.task_mflops(task), 17.4 * 0.99, 0.01);
}

TEST_F(CpuTest, ServerTaskCompletesWork) {
  const TaskId server = cpu.add_server_task("srv");
  bool done = false;
  cpu.submit_work(server, 2.0, [&] { done = true; });
  run_for(1.9);
  EXPECT_FALSE(done);
  run_for(0.2);
  EXPECT_TRUE(done);
}

TEST_F(CpuTest, ServerWorkFifoWithinTask) {
  const TaskId server = cpu.add_server_task("srv");
  std::vector<int> order;
  cpu.submit_work(server, 1.0, [&] { order.push_back(1); });
  cpu.submit_work(server, 1.0, [&] { order.push_back(2); });
  EXPECT_EQ(cpu.queued_items(server), 2u);
  run_for(3.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(cpu.queued_items(server), 0u);
}

TEST_F(CpuTest, ServerSlowsUnderCompeteLoad) {
  const TaskId server = cpu.add_server_task("srv");
  cpu.add_compute_task("linpack");
  SimTime completed;
  cpu.submit_work(server, 1.0, [&] { completed = engine.now(); });
  engine.run();
  // Fair share of 1/2 CPU: 1 cpu-second takes 2 wall-seconds.
  EXPECT_NEAR((completed - SimTime::zero()).sec(), 2.0, 1e-9);
}

TEST_F(CpuTest, ServerIdleWhenQueueEmpty) {
  const TaskId server = cpu.add_server_task("srv");
  const TaskId sink = cpu.add_compute_task("sink");
  run_for(5.0);
  // The idle server is not runnable; the sink gets everything.
  EXPECT_NEAR(cpu.task_cpu_time(sink).sec(), 5.0, 1e-9);
  EXPECT_NEAR(cpu.task_cpu_time(server).sec(), 0.0, 1e-12);
}

TEST_F(CpuTest, RunQueueLengthCountsRunnable) {
  EXPECT_EQ(cpu.run_queue_length(), 0u);
  cpu.add_compute_task("a");
  const TaskId server = cpu.add_server_task("srv");
  EXPECT_EQ(cpu.run_queue_length(), 1u);
  cpu.submit_work(server, 10.0, {});
  EXPECT_EQ(cpu.run_queue_length(), 2u);
}

TEST_F(CpuTest, SimultaneousCompletionsBothFire) {
  const TaskId s1 = cpu.add_server_task("s1");
  const TaskId s2 = cpu.add_server_task("s2");
  int done = 0;
  cpu.submit_work(s1, 1.0, [&] { ++done; });
  cpu.submit_work(s2, 1.0, [&] { ++done; });
  engine.run();
  EXPECT_EQ(done, 2);
  EXPECT_NEAR((engine.now() - SimTime::zero()).sec(), 2.0, 1e-9);
}

TEST_F(CpuTest, UtilizationTracksBusyFraction) {
  cpu.add_compute_task("busy");
  run_for(10.0);
  EXPECT_NEAR(cpu.utilization(), 1.0, 1e-9);
}

TEST_F(CpuTest, UtilizationZeroWhenIdle) {
  run_for(10.0);
  EXPECT_NEAR(cpu.utilization(), 0.0, 1e-12);
}

TEST_F(CpuTest, InvalidArgumentsThrow) {
  EXPECT_THROW(cpu.submit_work(999, 1.0, {}), std::invalid_argument);
  const TaskId sink = cpu.add_compute_task("sink");
  EXPECT_THROW(cpu.submit_work(sink, 1.0, {}), std::invalid_argument);
  const TaskId server = cpu.add_server_task("srv");
  EXPECT_THROW(cpu.submit_work(server, -1.0, {}), std::invalid_argument);
  EXPECT_THROW(cpu.consume_kernel(seconds(-1.0)), std::invalid_argument);
  EXPECT_THROW((void)cpu.task_cpu_time(12345), std::invalid_argument);
}

// --- memory -------------------------------------------------------------

TEST(Memory, AllocateAndRelease) {
  Memory memory{1 << 20};
  EXPECT_TRUE(memory.allocate(1 << 19));
  EXPECT_EQ(memory.free_bytes(), 1u << 19);
  memory.release(1 << 19);
  EXPECT_EQ(memory.free_bytes(), 1u << 20);
}

TEST(Memory, AllocationFailsWhenFull) {
  Memory memory{1024};
  EXPECT_TRUE(memory.allocate(1024));
  EXPECT_FALSE(memory.allocate(1));
}

TEST(Memory, ReleaseUnderflowThrows) {
  Memory memory{1024};
  EXPECT_THROW(memory.release(1), std::logic_error);
}

TEST(Memory, FreePages) {
  Memory memory{Memory::kPageSize * 10};
  ASSERT_TRUE(memory.allocate(Memory::kPageSize * 3 + 1));
  EXPECT_EQ(memory.free_pages(), 6u);  // partial page not free
}

TEST(Memory, ReservationRaii) {
  Memory memory{1024};
  {
    MemoryReservation reservation{memory, 512};
    EXPECT_TRUE(reservation.ok());
    EXPECT_EQ(memory.used_bytes(), 512u);
  }
  EXPECT_EQ(memory.used_bytes(), 0u);
}

TEST(Memory, ReservationMove) {
  Memory memory{1024};
  MemoryReservation a{memory, 256};
  MemoryReservation b = std::move(a);
  EXPECT_EQ(b.bytes(), 256u);
  EXPECT_EQ(memory.used_bytes(), 256u);
  b.reset();
  EXPECT_EQ(memory.used_bytes(), 0u);
}

// --- disk -----------------------------------------------------------------

class DiskTest : public ::testing::Test {
 protected:
  sim::Engine engine;
  Disk disk{engine, DiskConfig{}};  // 20 MB/s, 5 ms seek
};

TEST_F(DiskTest, ServiceTimeIsSeekPlusTransfer) {
  SimTime completed;
  disk.submit(Disk::Op::kRead, 20'000'000, [&] { completed = engine.now(); });
  engine.run();
  EXPECT_NEAR((completed - SimTime::zero()).sec(), 1.005, 1e-9);
}

TEST_F(DiskTest, CountersTrackOpsAndSectors) {
  disk.submit(Disk::Op::kWrite, 1024);
  disk.submit(Disk::Op::kRead, 100);  // rounds up to one sector
  engine.run();
  EXPECT_EQ(disk.counters().writes, 1u);
  EXPECT_EQ(disk.counters().reads, 1u);
  EXPECT_EQ(disk.counters().sectors_written, 2u);
  EXPECT_EQ(disk.counters().sectors_read, 1u);
}

TEST_F(DiskTest, FifoOrdering) {
  std::vector<int> order;
  disk.submit(Disk::Op::kWrite, 1024, [&] { order.push_back(1); });
  disk.submit(Disk::Op::kWrite, 1024, [&] { order.push_back(2); });
  EXPECT_EQ(disk.queue_depth(), 2u);
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(disk.queue_depth(), 0u);
}

TEST_F(DiskTest, QueueingDelaysLaterRequests) {
  SimTime first, second;
  disk.submit(Disk::Op::kRead, 20'000'000, [&] { first = engine.now(); });
  disk.submit(Disk::Op::kRead, 20'000'000, [&] { second = engine.now(); });
  engine.run();
  EXPECT_NEAR((second - first).sec(), 1.005, 1e-9);
}

// --- pmc ------------------------------------------------------------------

TEST(Pmc, UnknownCounterReadsZero) {
  Pmc pmc;
  EXPECT_EQ(pmc.read("nonexistent"), 0u);
}

TEST(Pmc, IncrementAccumulates) {
  Pmc pmc;
  pmc.increment(Pmc::kCacheMisses, 10);
  pmc.increment(Pmc::kCacheMisses, 5);
  EXPECT_EQ(pmc.read(Pmc::kCacheMisses), 15u);
  EXPECT_EQ(pmc.counter_names().size(), 1u);
}

// --- host aggregate --------------------------------------------------------

TEST(Host, WiresComponentsTogether) {
  sim::Engine engine;
  HostConfig config;
  config.name = "alan";
  Host host{engine, 3, config, Rng{1}};
  EXPECT_EQ(host.name(), "alan");
  EXPECT_EQ(host.id(), 3u);
  EXPECT_EQ(host.memory().total_bytes(), 512ULL << 20);
  EXPECT_NEAR(host.cpu().config().mflops_capacity, 17.4, 1e-12);
}

}  // namespace
}  // namespace dproc::host
