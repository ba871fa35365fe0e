#include "dproc/sim/engine.hpp"

#include <stdexcept>
#include <utility>

namespace dproc::sim {

Engine::~Engine() {
  // Destroy pending callbacks while the slab is still intact: a callback's
  // captures may own an object whose destructor cancels its own handle
  // (a TCP connection and its retransmission timer), which must find a
  // retired slot, not freed memory.
  for (std::uint32_t i = 0; i < slot_count_; ++i) {
    Slot& s = slot(i);
    ++s.generation;
    s.fn.reset();
  }
}

std::uint32_t Engine::acquire_slot(Callback&& fn, SimDuration period) {
  std::uint32_t i = free_head_;
  if (i != kNoSlot) {
    free_head_ = slot(i).next_free;
  } else {
    if ((slot_count_ & kChunkMask) == 0) {
      chunks_.push_back(std::make_unique<Slot[]>(kChunkMask + 1));
    }
    i = slot_count_++;
  }
  Slot& s = slot(i);
  s.fn = std::move(fn);
  s.period = period;
  s.cancelled = false;
  return i;
}

void Engine::release_slot(std::uint32_t i) {
  Slot& s = slot(i);
  ++s.generation;
  // The slot is not on the free list yet, so anything the callback's
  // destructor schedules lands in another slot.
  s.fn.reset();
  s.next_free = free_head_;
  free_head_ = i;
}

void Engine::cancel(std::uint32_t i, std::uint32_t generation) {
  Slot& s = slot(i);
  if (s.generation == generation) s.cancelled = true;
}

void Engine::push(SimTime when, std::uint32_t slot) {
  const Key key{when, next_seq_++, slot};
  heap_.push_back(key);
  std::size_t i = heap_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!before(key, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = key;
}

Engine::Key Engine::pop() {
  const Key top = heap_.front();
  const Key last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return top;
  std::size_t i = 0;
  while (true) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
    if (!before(heap_[child], last)) break;
    heap_[i] = heap_[child];
    i = child;
  }
  heap_[i] = last;
  return top;
}

EventHandle Engine::schedule_at(SimTime when, Callback fn) {
  if (when < now_) {
    throw std::invalid_argument{"Engine::schedule_at: time in the past"};
  }
  const std::uint32_t i = acquire_slot(std::move(fn), SimDuration::zero());
  push(when, i);
  return EventHandle{this, i, slot(i).generation};
}

EventHandle Engine::schedule_after(SimDuration delay, Callback fn) {
  if (delay < SimDuration::zero()) delay = SimDuration::zero();
  return schedule_at(now_ + delay, std::move(fn));
}

EventHandle Engine::schedule_periodic(SimDuration period, Callback fn) {
  if (period <= SimDuration::zero()) {
    throw std::invalid_argument{"Engine::schedule_periodic: period must be > 0"};
  }
  const std::uint32_t i = acquire_slot(std::move(fn), period);
  push(now_ + period, i);
  return EventHandle{this, i, slot(i).generation};
}

void Engine::fire(const Key& key) {
  now_ = key.when;
  // Chunks never move, so this reference survives whatever fn schedules.
  Slot& s = slot(key.slot);
  if (s.cancelled) {
    release_slot(key.slot);
    return;
  }
  ++processed_;
  if (s.period <= SimDuration::zero()) {
    ++s.generation;  // fired: cancelling from here on is a no-op
    s.fn();
    release_slot(key.slot);
    return;
  }
  s.fn();
  if (s.cancelled) {  // fn may have cancelled its own timer
    release_slot(key.slot);
  } else {
    push(now_ + s.period, key.slot);
  }
}

bool Engine::step() {
  // Skip cancelled entries without counting them as processed events.
  while (!heap_.empty()) {
    const Key key = pop();
    if (slot(key.slot).cancelled) {
      release_slot(key.slot);
      continue;
    }
    fire(key);
    return true;
  }
  return false;
}

void Engine::run_until(SimTime deadline) {
  while (!heap_.empty() && heap_.front().when <= deadline) {
    fire(pop());
  }
  if (now_ < deadline) now_ = deadline;
}

void Engine::run() {
  while (step()) {
  }
}

}  // namespace dproc::sim
