// Disk model: a FIFO-served device with seek latency plus streaming
// bandwidth. DISK_MON derives read/write op and sector rates by sampling the
// cumulative counters, exactly as the paper's module samples kernel disk
// statistics over a configurable period (default 1 s).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>

#include "dproc/sim/engine.hpp"
#include "dproc/util/time.hpp"

namespace dproc::host {

struct DiskConfig {
  double bandwidth_bytes_per_sec = 20e6;  // c. 2003 IDE streaming rate
  SimDuration seek_time = milliseconds(5.0);
};

struct DiskCounters {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t sectors_read = 0;
  std::uint64_t sectors_written = 0;
};

class Disk {
 public:
  static constexpr std::uint64_t kSectorSize = 512;

  enum class Op { kRead, kWrite };

  Disk(sim::Engine& engine, DiskConfig config);
  Disk(const Disk&) = delete;
  Disk& operator=(const Disk&) = delete;

  /// Queues an I/O; `on_complete` fires when the transfer finishes. The
  /// device serves requests in order at seek + size/bandwidth each.
  void submit(Op op, std::uint64_t bytes, std::function<void()> on_complete = {});

  [[nodiscard]] const DiskCounters& counters() const { return counters_; }
  [[nodiscard]] std::size_t queue_depth() const { return queue_.size() + (busy_ ? 1 : 0); }
  [[nodiscard]] const DiskConfig& config() const { return config_; }

 private:
  struct Request {
    Op op;
    std::uint64_t bytes;
    std::function<void()> on_complete;
  };

  void start_next();

  sim::Engine& engine_;
  DiskConfig config_;
  DiskCounters counters_;
  std::deque<Request> queue_;
  bool busy_ = false;
};

}  // namespace dproc::host
