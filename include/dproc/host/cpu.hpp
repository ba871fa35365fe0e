// Processor-sharing CPU model.
//
// Models one node's CPU as a processor-sharing queue with two classes:
//
//  * kernel work (monitoring modules, d-mon polling, KECho submission and
//    dispatch) runs at strict priority — this is how a real kernel steals
//    cycles from user programs, and it is precisely the effect Figure 4 of
//    the paper measures as lost linpack Mflops;
//  * user tasks (linpack threads, stream-processing loops) share the
//    remaining capacity equally, the long-run behaviour of the Linux 2.4
//    O(n) scheduler for CPU-bound tasks of equal nice.
//
// Tasks are either compute sinks (always runnable, accumulate work — the
// linpack threads) or work-item queues (runnable while items are pending —
// the SmartPointer client's per-event processing). Accounting is exact: the
// model integrates shares analytically between state changes instead of
// ticking, so results are independent of any sampling interval.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>

#include "dproc/sim/engine.hpp"
#include "dproc/util/time.hpp"

namespace dproc::host {

using TaskId = std::uint64_t;

struct CpuConfig {
  /// Peak floating-point throughput; the paper's Pentium Pro 200 MHz
  /// measures ~17.4 Mflops with linpack.
  double mflops_capacity = 17.4;
  /// Core clock, used to convert cycle costs of kernel paths to time.
  double clock_hz = 200e6;
};

class Cpu {
 public:
  Cpu(sim::Engine& engine, CpuConfig config);
  Cpu(const Cpu&) = delete;
  Cpu& operator=(const Cpu&) = delete;

  // --- user task management -------------------------------------------

  /// Adds an always-runnable compute sink (e.g. a linpack thread).
  TaskId add_compute_task(std::string name);

  /// Adds a work-item queue task; runnable only while items are pending.
  TaskId add_server_task(std::string name);

  /// Removes a task; pending work items are dropped without completion.
  void remove_task(TaskId id);

  /// Sets a task's scheduling weight (default 1.0). Runnable tasks receive
  /// CPU proportionally to weight — the mechanism a QoS manager uses to
  /// enforce reservations (cf. the paper's Q-Fabric integration).
  void set_task_weight(TaskId id, double weight);
  [[nodiscard]] double task_weight(TaskId id) const;

  /// Enqueues `cpu_seconds` of work on a server task; `on_complete` fires
  /// when this item (and everything queued before it) has been executed.
  void submit_work(TaskId id, double cpu_seconds,
                   std::function<void()> on_complete);

  /// Number of unfinished work items queued on a server task.
  [[nodiscard]] std::size_t queued_items(TaskId id) const;

  // --- kernel class ----------------------------------------------------

  /// Accounts `cpu_time` of kernel execution. Runs at strict priority:
  /// user tasks make no progress until the backlog drains.
  void consume_kernel(SimDuration cpu_time);

  /// Convenience for cycle-denominated kernel costs (rdtsc-style numbers).
  void consume_kernel_cycles(double cycles);

  // --- observation -----------------------------------------------------

  /// Instantaneous run-queue length (runnable user tasks). CPU_MON samples
  /// this periodically and averages, mirroring the paper's kernel thread.
  [[nodiscard]] std::size_t run_queue_length() const;

  /// Total CPU time a task has received so far.
  [[nodiscard]] SimDuration task_cpu_time(TaskId id);

  /// Achieved Mflops of a compute task over its lifetime; this is what the
  /// linpack "benchmark" inside the simulation reports.
  [[nodiscard]] double task_mflops(TaskId id);

  /// Total kernel CPU time consumed since construction.
  [[nodiscard]] SimDuration kernel_cpu_time() const { return kernel_total_; }

  /// Fraction of wall time the CPU was busy (kernel + user) so far.
  [[nodiscard]] double utilization();

  [[nodiscard]] const CpuConfig& config() const { return config_; }

 private:
  struct Task {
    std::string name;
    bool compute_sink = false;
    double weight = 1.0;
    // For server tasks: FIFO of (remaining cpu-seconds, completion).
    struct Item {
      double remaining_sec;
      std::function<void()> on_complete;
    };
    std::deque<Item> items;
    double cpu_seconds_done = 0.0;
    SimTime created;
    [[nodiscard]] bool runnable() const { return compute_sink || !items.empty(); }
  };

  /// Integrates progress from last_update_ to now, draining kernel backlog
  /// first and then sharing time among runnable user tasks. Completions are
  /// delivered via scheduled engine events, never from inside advance().
  void advance();

  /// Recomputes and schedules the next server-task item completion.
  void reschedule_completion();

  [[nodiscard]] double runnable_weight() const;

  sim::Engine& engine_;
  CpuConfig config_;
  std::map<TaskId, Task> tasks_;
  TaskId next_id_ = 1;

  SimTime last_update_;
  double kernel_backlog_sec_ = 0.0;  // kernel work not yet charged to time
  SimDuration kernel_total_{0};
  double busy_seconds_ = 0.0;

  sim::EventHandle completion_event_;
};

}  // namespace dproc::host
