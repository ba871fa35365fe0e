#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <vector>

#include "dproc/sim/engine.hpp"

namespace dproc::sim {
namespace {

TEST(Engine, StartsAtZero) {
  Engine engine;
  EXPECT_EQ(engine.now(), SimTime::zero());
  EXPECT_EQ(engine.pending_events(), 0u);
}

TEST(Engine, EventsFireInTimeOrder) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(SimTime{300}, [&] { order.push_back(3); });
  engine.schedule_at(SimTime{100}, [&] { order.push_back(1); });
  engine.schedule_at(SimTime{200}, [&] { order.push_back(2); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, TiesFireInScheduleOrder) {
  Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    engine.schedule_at(SimTime{100}, [&, i] { order.push_back(i); });
  }
  engine.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Engine, ClockAdvancesToEventTime) {
  Engine engine;
  SimTime observed;
  engine.schedule_after(seconds(2.0), [&] { observed = engine.now(); });
  engine.run();
  EXPECT_EQ(observed, SimTime::zero() + seconds(2.0));
}

TEST(Engine, ClockIsMonotoneThroughCallbacks) {
  Engine engine;
  SimTime last = SimTime::zero();
  for (int i = 0; i < 100; ++i) {
    engine.schedule_at(SimTime{i * 7 % 50}, [&] {
      EXPECT_GE(engine.now(), last);
      last = engine.now();
    });
  }
  engine.run();
}

TEST(Engine, SchedulingInThePastThrows) {
  Engine engine;
  engine.schedule_at(SimTime{100}, [] {});
  engine.run();
  EXPECT_THROW(engine.schedule_at(SimTime{50}, [] {}), std::invalid_argument);
}

TEST(Engine, NegativeDelayClampsToNow) {
  Engine engine;
  bool fired = false;
  engine.schedule_after(seconds(-1.0), [&] { fired = true; });
  engine.run();
  EXPECT_TRUE(fired);
}

TEST(Engine, CancelPreventsFiring) {
  Engine engine;
  bool fired = false;
  EventHandle handle = engine.schedule_after(seconds(1.0), [&] { fired = true; });
  handle.cancel();
  engine.run();
  EXPECT_FALSE(fired);
}

TEST(Engine, CancelIsIdempotentAndSafeAfterFire) {
  Engine engine;
  EventHandle handle = engine.schedule_after(seconds(1.0), [] {});
  engine.run();
  handle.cancel();
  handle.cancel();
}

TEST(Engine, CancelledEventsDontCountAsProcessed) {
  Engine engine;
  EventHandle handle = engine.schedule_after(seconds(1.0), [] {});
  engine.schedule_after(seconds(2.0), [] {});
  handle.cancel();
  engine.run();
  EXPECT_EQ(engine.events_processed(), 1u);
}

TEST(Engine, PeriodicFiresAtPeriod) {
  Engine engine;
  std::vector<SimTime> fires;
  EventHandle timer = engine.schedule_periodic(seconds(1.0), [&] {
    fires.push_back(engine.now());
  });
  engine.run_until(SimTime::zero() + seconds(4.5));
  timer.cancel();
  ASSERT_EQ(fires.size(), 4u);
  for (std::size_t i = 0; i < fires.size(); ++i) {
    EXPECT_EQ(fires[i].ns(), seconds(static_cast<double>(i + 1)).ns());
  }
}

TEST(Engine, PeriodicCancelStopsChain) {
  Engine engine;
  int count = 0;
  EventHandle timer = engine.schedule_periodic(seconds(1.0), [&] { ++count; });
  engine.run_until(SimTime::zero() + seconds(2.5));
  timer.cancel();
  engine.run_until(SimTime::zero() + seconds(10.0));
  EXPECT_EQ(count, 2);
}

TEST(Engine, PeriodicCanCancelItself) {
  Engine engine;
  int count = 0;
  EventHandle timer;
  timer = engine.schedule_periodic(seconds(1.0), [&] {
    if (++count == 3) timer.cancel();
  });
  engine.run_until(SimTime::zero() + seconds(10.0));
  EXPECT_EQ(count, 3);
}

TEST(Engine, NonPositivePeriodThrows) {
  Engine engine;
  EXPECT_THROW(engine.schedule_periodic(SimDuration::zero(), [] {}),
               std::invalid_argument);
}

TEST(Engine, RunUntilAdvancesClockWhenIdle) {
  Engine engine;
  engine.run_until(SimTime::zero() + seconds(5.0));
  EXPECT_EQ(engine.now(), SimTime::zero() + seconds(5.0));
}

TEST(Engine, RunUntilDoesNotFireLaterEvents) {
  Engine engine;
  bool fired = false;
  engine.schedule_after(seconds(10.0), [&] { fired = true; });
  engine.run_until(SimTime::zero() + seconds(5.0));
  EXPECT_FALSE(fired);
  EXPECT_EQ(engine.pending_events(), 1u);
}

TEST(Engine, EventsScheduledFromCallbacksRun) {
  Engine engine;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) engine.schedule_after(seconds(1.0), chain);
  };
  engine.schedule_after(seconds(1.0), chain);
  engine.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(engine.now(), SimTime::zero() + seconds(5.0));
}

TEST(Engine, StepReturnsFalseWhenEmpty) {
  Engine engine;
  EXPECT_FALSE(engine.step());
  engine.schedule_after(seconds(1.0), [] {});
  EXPECT_TRUE(engine.step());
  EXPECT_FALSE(engine.step());
}

TEST(Engine, DefaultHandleIsInert) {
  EventHandle handle;
  EXPECT_FALSE(handle.valid());
  handle.cancel();  // no-op
}

TEST(Engine, HandleStaysValidAfterFire) {
  Engine engine;
  EventHandle handle = engine.schedule_after(seconds(1.0), [] {});
  engine.run();
  EXPECT_TRUE(handle.valid());
}

TEST(Engine, CancelAfterFireSparesTheSlotsNextOccupant) {
  Engine engine;
  EventHandle first = engine.schedule_after(seconds(1.0), [] {});
  engine.run();
  // The freed slot is reused by the next event; the stale handle must not
  // reach it.
  bool fired = false;
  engine.schedule_after(seconds(1.0), [&] { fired = true; });
  first.cancel();
  engine.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(engine.events_processed(), 2u);
}

TEST(Engine, CancelAfterCancelledSlotReuseIsNoOp) {
  Engine engine;
  EventHandle dropped = engine.schedule_after(seconds(1.0), [] {});
  dropped.cancel();
  engine.run();  // drops the cancelled entry and frees its slot
  bool fired = false;
  engine.schedule_after(seconds(1.0), [&] { fired = true; });
  dropped.cancel();
  engine.run();
  EXPECT_TRUE(fired);
}

TEST(Engine, EventMayCancelItselfFromItsCallback) {
  Engine engine;
  int count = 0;
  EventHandle self;
  self = engine.schedule_after(seconds(1.0), [&] {
    ++count;
    self.cancel();  // already firing: a no-op
    engine.schedule_after(seconds(1.0), [&] { ++count; });
  });
  engine.run();
  EXPECT_EQ(count, 2);
  self.cancel();  // stale: must not touch the follow-up's reused slot
  EXPECT_EQ(engine.events_processed(), 2u);
}

TEST(Engine, PeriodicCancelledFromItsCallbackFreesItsSlot) {
  Engine engine;
  int ticks = 0;
  EventHandle timer;
  timer = engine.schedule_periodic(seconds(1.0), [&] {
    if (++ticks == 2) timer.cancel();
  });
  engine.run();
  EXPECT_EQ(ticks, 2);
  EXPECT_EQ(engine.pending_events(), 0u);
  bool fired = false;
  engine.schedule_after(seconds(1.0), [&] { fired = true; });
  timer.cancel();  // stale after the timer stopped
  engine.run();
  EXPECT_TRUE(fired);
}

TEST(Engine, PeriodicKeepsFifoTieBreakAgainstOneShots) {
  // The timer re-queues itself after each tick returns, with a fresh
  // sequence number: a one-shot scheduled before the timer, or during the
  // tick, for the instant of the next tick fires before that tick.
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(SimTime::zero() + seconds(2.0), [&] { order.push_back(0); });
  EventHandle timer = engine.schedule_periodic(seconds(1.0), [&] {
    order.push_back(1);
    if (engine.now() == SimTime::zero() + seconds(1.0)) {
      engine.schedule_at(SimTime::zero() + seconds(2.0),
                         [&] { order.push_back(2); });
    }
  });
  engine.run_until(SimTime::zero() + seconds(2.0));
  timer.cancel();
  EXPECT_EQ(order, (std::vector<int>{1, 0, 2, 1}));
}

TEST(Engine, TiesFireInScheduleOrderAcrossSlotReuse) {
  Engine engine;
  // Scramble the free list: fire some events, cancel others.
  std::vector<EventHandle> handles;
  for (int i = 0; i < 40; ++i) {
    handles.push_back(engine.schedule_after(seconds(1.0 + i % 7), [] {}));
  }
  for (std::size_t i = 0; i < handles.size(); i += 3) handles[i].cancel();
  engine.run();
  std::vector<int> order;
  const SimTime at = engine.now() + seconds(1.0);
  for (int i = 0; i < 50; ++i) {
    engine.schedule_at(at, [&, i] { order.push_back(i); });
  }
  engine.run();
  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[i], i);
}

TEST(Engine, CallbacksLargerThanInlineStorageStillRun) {
  Engine engine;
  std::array<std::uint64_t, 16> big{};
  big[15] = 7;
  std::uint64_t seen = 0;
  static_assert(sizeof(big) > EventCallback::kInlineBytes);
  engine.schedule_after(seconds(1.0), [&seen, big] { seen = big[15]; });
  engine.run();
  EXPECT_EQ(seen, 7u);
}

TEST(Engine, MoveOnlyCapturesAreAccepted) {
  Engine engine;
  int seen = 0;
  auto value = std::make_unique<int>(42);
  engine.schedule_after(seconds(1.0),
                        [&seen, value = std::move(value)] { seen = *value; });
  engine.run();
  EXPECT_EQ(seen, 42);
}

// An object whose destructor cancels its own pending event — the shape of
// a TCP connection whose retransmission timer captures the connection.
struct SelfCancelling {
  EventHandle timer;
  bool* destroyed = nullptr;
  ~SelfCancelling() {
    timer.cancel();
    *destroyed = true;
  }
};

TEST(Engine, DestroyingEngineReleasesSelfCancellingOwners) {
  bool destroyed = false;
  {
    Engine engine;
    auto owner = std::make_shared<SelfCancelling>();
    owner->destroyed = &destroyed;
    owner->timer = engine.schedule_after(seconds(1.0), [owner] {});
    // Another queued callback behind it, so the slab is not trivially
    // one slot.
    engine.schedule_after(seconds(2.0), [] {});
    owner.reset();  // the pending callback holds the last reference
    EXPECT_FALSE(destroyed);
  }
  EXPECT_TRUE(destroyed);
}

TEST(Engine, DroppingCancelledEventReleasesSelfCancellingOwner) {
  Engine engine;
  bool destroyed = false;
  auto owner = std::make_shared<SelfCancelling>();
  owner->destroyed = &destroyed;
  owner->timer = engine.schedule_after(seconds(1.0), [owner] {});
  owner->timer.cancel();
  owner.reset();
  // The cancelled entry is dropped when it comes up; its callback — and
  // with it the owner — dies then, cancelling a handle that is now stale.
  bool later = false;
  engine.schedule_after(seconds(2.0), [&] { later = true; });
  engine.run();
  EXPECT_TRUE(destroyed);
  EXPECT_TRUE(later);
  EXPECT_EQ(engine.events_processed(), 1u);
}

}  // namespace
}  // namespace dproc::sim
