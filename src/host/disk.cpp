#include "dproc/host/disk.hpp"

#include <stdexcept>
#include <utility>

namespace dproc::host {

Disk::Disk(sim::Engine& engine, DiskConfig config)
    : engine_(engine), config_(config) {
  if (config_.bandwidth_bytes_per_sec <= 0) {
    throw std::invalid_argument{"DiskConfig bandwidth must be positive"};
  }
}

void Disk::submit(Op op, std::uint64_t bytes, std::function<void()> on_complete) {
  queue_.push_back(Request{op, bytes, std::move(on_complete)});
  if (!busy_) start_next();
}

void Disk::start_next() {
  if (queue_.empty()) {
    busy_ = false;
    return;
  }
  busy_ = true;
  Request req = std::move(queue_.front());
  queue_.pop_front();

  const SimDuration service =
      config_.seek_time +
      seconds(static_cast<double>(req.bytes) / config_.bandwidth_bytes_per_sec);

  engine_.schedule_after(service, [this, req = std::move(req)]() mutable {
    const std::uint64_t sectors = (req.bytes + kSectorSize - 1) / kSectorSize;
    if (req.op == Op::kRead) {
      ++counters_.reads;
      counters_.sectors_read += sectors;
    } else {
      ++counters_.writes;
      counters_.sectors_written += sectors;
    }
    if (req.on_complete) req.on_complete();
    start_next();
  });
}

}  // namespace dproc::host
