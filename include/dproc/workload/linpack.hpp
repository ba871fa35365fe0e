// Synthetic linpack: a CPU-bound floating-point benchmark task.
//
// The paper uses linpack both as the measurement probe for Figure 4 (how
// many Mflops survive dproc's monitoring overhead) and as the artificial
// load for the Figure 9/11 client experiments. Here a linpack thread is a
// compute-sink task on the host CPU model; achieved Mflops is the CPU share
// it received times the machine's peak rate. The task also feeds the PMC
// model: flops and cache misses accrue in proportion to work done.
#pragma once

#include <memory>
#include <string>

#include "dproc/host/host.hpp"
#include "dproc/sim/engine.hpp"
#include "dproc/util/time.hpp"

namespace dproc::workload {

class LinpackTask {
 public:
  /// Starts a linpack thread on `host`; runs until destruction.
  LinpackTask(host::Host& host, std::string name = "linpack");
  ~LinpackTask();
  LinpackTask(const LinpackTask&) = delete;
  LinpackTask& operator=(const LinpackTask&) = delete;

  /// Achieved Mflops since the task started.
  [[nodiscard]] double mflops();

  /// Achieved Mflops since the previous checkpoint() call.
  [[nodiscard]] double mflops_since_checkpoint();
  void checkpoint();

 private:
  void sync_pmc();

  host::Host& host_;
  host::TaskId task_;
  SimTime started_;
  SimTime checkpoint_time_;
  SimDuration checkpoint_cpu_{0};
  double pmc_flops_accounted_ = 0.0;
  sim::EventHandle pmc_timer_;
};

/// Holds a memory reservation and optionally grows it over time — drives
/// MEM_MON's freemem metric (the paper's batch-scheduler §3 example needs
/// observable memory pressure).
class MemoryHog {
 public:
  /// Reserves `initial_bytes`; every `grow_interval` adds `grow_bytes`
  /// until the allocation fails (then it stops growing).
  MemoryHog(host::Host& host, std::uint64_t initial_bytes,
            std::uint64_t grow_bytes = 0,
            SimDuration grow_interval = seconds(1.0));
  ~MemoryHog();
  MemoryHog(const MemoryHog&) = delete;
  MemoryHog& operator=(const MemoryHog&) = delete;

 private:
  host::Host& host_;
  std::uint64_t held_ = 0;
  sim::EventHandle grow_timer_;
};

}  // namespace dproc::workload
