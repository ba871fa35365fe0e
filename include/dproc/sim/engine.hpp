// Discrete-event simulation engine.
//
// The entire cluster — kernels, network fabric, workloads — runs as callbacks
// on one virtual clock. Events fire in non-decreasing time order; ties are
// broken by scheduling order (FIFO), which makes runs fully deterministic:
// the same seed and the same program produce the same trace, a property the
// test suite asserts.
//
// Scheduling is allocation-free once the engine is warm. Each pending event
// occupies a slot in a slab of callback slots (recycled through a free
// list); the run queue is a binary heap of plain (when, seq, slot) keys.
// Callbacks are stored inline in their slot (EventCallback), and an
// EventHandle is just (engine, slot, generation): firing or dropping an
// event bumps its slot's generation, so a stale handle — the event fired,
// or the slot now holds another event — cancels nothing. A periodic timer
// keeps one slot for its whole life and re-queues it after every tick.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "dproc/util/time.hpp"

namespace dproc::sim {

class Engine;

/// Move-only void() callable with inline storage. Any callable whose
/// captures fit in kInlineBytes (a `this` plus an id, a shared_ptr, a
/// std::function) is stored in place; larger ones fall back to one heap
/// allocation, as std::function would.
class EventCallback {
 public:
  static constexpr std::size_t kInlineBytes = 48;

  EventCallback() = default;

  template <typename F, typename Fn = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<Fn, EventCallback>>>
  EventCallback(F&& fn) {  // NOLINT: implicit by design
    if constexpr (kFitsInline<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
      ops_ = &kInlineOps<Fn>;
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(fn)));
      ops_ = &kHeapOps<Fn>;
    }
  }

  EventCallback(EventCallback&& other) noexcept { take(other); }
  EventCallback& operator=(EventCallback&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }
  EventCallback(const EventCallback&) = delete;
  EventCallback& operator=(const EventCallback&) = delete;
  ~EventCallback() { reset(); }

  void operator()() { ops_->invoke(storage_); }

  /// Destroys the held callable. The object reads as empty before the
  /// callable's destructor runs, so that destructor may re-enter its owner.
  void reset() {
    if (ops_ == nullptr) return;
    const Ops* ops = ops_;
    ops_ = nullptr;
    ops->destroy(storage_);
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    void (*relocate)(void* dst, void* src) noexcept;  // move, destroy source
    void (*destroy)(void*) noexcept;
  };

  template <typename Fn>
  static constexpr bool kFitsInline =
      sizeof(Fn) <= kInlineBytes &&
      alignof(Fn) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<Fn>;

  template <typename Fn>
  static constexpr Ops kInlineOps = {
      [](void* p) { (*static_cast<Fn*>(p))(); },
      [](void* dst, void* src) noexcept {
        ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
        static_cast<Fn*>(src)->~Fn();
      },
      [](void* p) noexcept { static_cast<Fn*>(p)->~Fn(); }};

  template <typename Fn>
  static constexpr Ops kHeapOps = {
      [](void* p) { (**static_cast<Fn**>(p))(); },
      [](void* dst, void* src) noexcept {
        ::new (dst) Fn*(*static_cast<Fn**>(src));
      },
      [](void* p) noexcept { delete *static_cast<Fn**>(p); }};

  void take(EventCallback& other) noexcept {
    if (other.ops_ == nullptr) return;
    other.ops_->relocate(storage_, other.storage_);
    ops_ = std::exchange(other.ops_, nullptr);
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

/// Cancellation handle for a scheduled event: the event's slot and the
/// slot's generation when it was scheduled. Copyable; cancelling any copy
/// cancels the event. Cancelling after the event fired (or was dropped) is
/// a no-op, even if the slot has since been reused. A default-constructed
/// handle is inert. A handle must not be cancelled after its engine is
/// destroyed.
class EventHandle {
 public:
  EventHandle() = default;

  /// Prevents the event from firing (or a periodic timer from firing
  /// again). Idempotent; safe after the event fired.
  void cancel();

  /// True once a handle was taken from the engine — whether or not the
  /// event is still pending.
  [[nodiscard]] bool valid() const { return engine_ != nullptr; }

 private:
  friend class Engine;
  EventHandle(Engine* engine, std::uint32_t slot, std::uint32_t generation)
      : engine_(engine), slot_(slot), generation_(generation) {}

  Engine* engine_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t generation_ = 0;
};

class Engine {
 public:
  using Callback = EventCallback;

  Engine() = default;
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `fn` at absolute time `when`; `when` must be >= now().
  EventHandle schedule_at(SimTime when, Callback fn);

  /// Schedules `fn` after `delay` (clamped to >= 0) from now.
  EventHandle schedule_after(SimDuration delay, Callback fn);

  /// Schedules `fn` every `period`, first firing after one period. The
  /// timer keeps firing until its handle is cancelled — from outside or
  /// from inside `fn`.
  EventHandle schedule_periodic(SimDuration period, Callback fn);

  /// Runs events until the queue is empty or `deadline` is reached; the
  /// clock is advanced to `deadline` on return (even if idle earlier).
  void run_until(SimTime deadline);

  void run_for(SimDuration d) { run_until(now_ + d); }

  /// Runs until the event queue drains completely.
  void run();

  /// Processes a single event if one is pending; returns false when empty.
  bool step();

  /// Queued events, including cancelled ones not yet reached (they are
  /// dropped lazily when they come up).
  [[nodiscard]] std::size_t pending_events() const { return heap_.size(); }
  [[nodiscard]] std::uint64_t events_processed() const { return processed_; }

  /// Always 0: cancellation is a generation check on the event's slot, so
  /// no event allocates a flag. Kept because benchmark reports print it.
  [[nodiscard]] std::uint64_t cancel_flags_allocated() const { return 0; }

 private:
  friend class EventHandle;

  struct Slot {
    Callback fn;
    SimDuration period;  // > 0 for a periodic timer
    std::uint32_t generation = 0;
    std::uint32_t next_free = 0;
    bool cancelled = false;
  };

  // Run-queue key: a min-heap on (when, seq); seq is unique, so the order
  // is total and ties fire in scheduling order.
  struct Key {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  static bool before(const Key& a, const Key& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }

  // Slots live in fixed-size chunks so a callback can run in place while
  // the events it schedules grow the slab.
  static constexpr std::uint32_t kChunkShift = 8;
  static constexpr std::uint32_t kChunkMask = (1u << kChunkShift) - 1;
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  Slot& slot(std::uint32_t i) {
    return chunks_[i >> kChunkShift][i & kChunkMask];
  }
  std::uint32_t acquire_slot(Callback&& fn, SimDuration period);
  /// Retires a slot whose event is done: stale handles stop matching, the
  /// callback is destroyed, and the slot goes back on the free list.
  void release_slot(std::uint32_t i);
  void cancel(std::uint32_t i, std::uint32_t generation);

  void push(SimTime when, std::uint32_t slot);
  Key pop();
  void fire(const Key& key);

  SimTime now_ = SimTime::zero();
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  std::vector<Key> heap_;
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t slot_count_ = 0;
  std::uint32_t free_head_ = kNoSlot;
};

inline void EventHandle::cancel() {
  if (engine_ != nullptr) engine_->cancel(slot_, generation_);
}

}  // namespace dproc::sim
