#include "dproc/host/cpu.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <vector>

namespace dproc::host {

namespace {
// Residual work below this is treated as complete; absorbs float rounding
// from repeated share subtraction.
constexpr double kWorkEpsilonSec = 1e-12;
}  // namespace

Cpu::Cpu(sim::Engine& engine, CpuConfig config)
    : engine_(engine), config_(config), last_update_(engine.now()) {
  if (config_.mflops_capacity <= 0 || config_.clock_hz <= 0) {
    throw std::invalid_argument{"CpuConfig rates must be positive"};
  }
}

TaskId Cpu::add_compute_task(std::string name) {
  advance();
  const TaskId id = next_id_++;
  Task task;
  task.name = std::move(name);
  task.compute_sink = true;
  task.created = engine_.now();
  tasks_.emplace(id, std::move(task));
  reschedule_completion();
  return id;
}

TaskId Cpu::add_server_task(std::string name) {
  advance();
  const TaskId id = next_id_++;
  Task task;
  task.name = std::move(name);
  task.created = engine_.now();
  tasks_.emplace(id, std::move(task));
  reschedule_completion();
  return id;
}

void Cpu::remove_task(TaskId id) {
  advance();
  tasks_.erase(id);
  reschedule_completion();
}

void Cpu::set_task_weight(TaskId id, double weight) {
  if (weight <= 0) throw std::invalid_argument{"task weight must be positive"};
  advance();
  auto it = tasks_.find(id);
  if (it == tasks_.end()) throw std::invalid_argument{"set_task_weight: unknown task"};
  it->second.weight = weight;
  reschedule_completion();
}

double Cpu::task_weight(TaskId id) const {
  auto it = tasks_.find(id);
  if (it == tasks_.end()) throw std::invalid_argument{"task_weight: unknown task"};
  return it->second.weight;
}

void Cpu::submit_work(TaskId id, double cpu_seconds,
                      std::function<void()> on_complete) {
  if (cpu_seconds < 0) {
    throw std::invalid_argument{"submit_work: negative cpu_seconds"};
  }
  advance();
  auto it = tasks_.find(id);
  if (it == tasks_.end()) throw std::invalid_argument{"submit_work: unknown task"};
  if (it->second.compute_sink) {
    throw std::invalid_argument{"submit_work: task is a compute sink"};
  }
  it->second.items.push_back(Task::Item{cpu_seconds, std::move(on_complete)});
  reschedule_completion();
}

std::size_t Cpu::queued_items(TaskId id) const {
  auto it = tasks_.find(id);
  if (it == tasks_.end()) throw std::invalid_argument{"queued_items: unknown task"};
  return it->second.items.size();
}

void Cpu::consume_kernel(SimDuration cpu_time) {
  if (cpu_time < SimDuration::zero()) {
    throw std::invalid_argument{"consume_kernel: negative time"};
  }
  advance();
  kernel_backlog_sec_ += cpu_time.sec();
  kernel_total_ += cpu_time;
  reschedule_completion();
}

void Cpu::consume_kernel_cycles(double cycles) {
  consume_kernel(seconds(cycles / config_.clock_hz));
}

std::size_t Cpu::run_queue_length() const {
  std::size_t n = 0;
  for (const auto& [id, task] : tasks_) {
    if (task.runnable()) ++n;
  }
  return n;
}

double Cpu::runnable_weight() const {
  double total = 0.0;
  for (const auto& [id, task] : tasks_) {
    if (task.runnable()) total += task.weight;
  }
  return total;
}

SimDuration Cpu::task_cpu_time(TaskId id) {
  advance();
  auto it = tasks_.find(id);
  if (it == tasks_.end()) throw std::invalid_argument{"task_cpu_time: unknown task"};
  return seconds(it->second.cpu_seconds_done);
}

double Cpu::task_mflops(TaskId id) {
  advance();
  auto it = tasks_.find(id);
  if (it == tasks_.end()) throw std::invalid_argument{"task_mflops: unknown task"};
  const double elapsed = (engine_.now() - it->second.created).sec();
  if (elapsed <= 0) return 0.0;
  return config_.mflops_capacity * it->second.cpu_seconds_done / elapsed;
}

double Cpu::utilization() {
  advance();
  const double elapsed = (engine_.now() - SimTime::zero()).sec();
  if (elapsed <= 0) return 0.0;
  return std::min(1.0, busy_seconds_ / elapsed);
}

void Cpu::advance() {
  const double dt = (engine_.now() - last_update_).sec();
  last_update_ = engine_.now();
  if (dt <= 0) return;

  // Kernel class drains first (strict priority).
  const double kernel_drain = std::min(kernel_backlog_sec_, dt);
  kernel_backlog_sec_ -= kernel_drain;
  busy_seconds_ += kernel_drain;

  const double user_time = dt - kernel_drain;
  if (user_time <= 0) return;

  const double total_weight = runnable_weight();
  if (total_weight <= 0) return;
  busy_seconds_ += user_time;

  // No completion falls strictly inside (last_update, now): completions are
  // always delivered through scheduled events, so the runnable set and the
  // per-task share are constant across this interval and the integral is
  // exact. Shares are weight-proportional (weighted fair sharing).
  for (auto& [id, task] : tasks_) {
    if (!task.runnable()) continue;
    const double share = user_time * task.weight / total_weight;
    task.cpu_seconds_done += share;
    if (!task.compute_sink) {
      task.items.front().remaining_sec -= share;
    }
  }
}

void Cpu::reschedule_completion() {
  completion_event_.cancel();

  const double total_weight = runnable_weight();
  if (total_weight <= 0) return;

  // Earliest head-item completion assuming the runnable set stays fixed:
  // a task at rate weight/total finishes `remaining` in
  // remaining * total / weight wall seconds.
  double min_eta = std::numeric_limits<double>::infinity();
  for (const auto& [id, task] : tasks_) {
    if (task.compute_sink || task.items.empty()) continue;
    const double remaining = std::max(task.items.front().remaining_sec, 0.0);
    min_eta = std::min(min_eta, remaining * total_weight / task.weight);
  }
  if (min_eta == std::numeric_limits<double>::infinity()) return;

  const double eta_sec = kernel_backlog_sec_ + min_eta;
  // Sub-nanosecond ETAs truncate to zero and would spin the event loop at
  // one timestamp forever; 1 ns over-serves the task by a negligible share.
  const SimDuration eta = std::max(nanoseconds(1), seconds(eta_sec));
  completion_event_ = engine_.schedule_after(eta, [this] {
    advance();
    // Deliver every head item that is now complete (ties finish together).
    std::vector<std::function<void()>> done;
    for (auto& [id, task] : tasks_) {
      while (!task.items.empty() &&
             task.items.front().remaining_sec <= kWorkEpsilonSec) {
        done.push_back(std::move(task.items.front().on_complete));
        task.items.pop_front();
      }
    }
    reschedule_completion();
    for (auto& fn : done) {
      if (fn) fn();
    }
  });
}

}  // namespace dproc::host
