// Tests for the discrete-event simulation kernel: deterministic ordering,
// cancellation, bounded runs, and the merge of an attached timer source
// (here a fake one) into the event order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "des/simulator.hpp"

namespace cloudburst::des {
namespace {

TEST(SimTime, Conversions) {
  EXPECT_EQ(from_seconds(1.0), kSecond);
  EXPECT_EQ(from_seconds(0.001), kMillisecond);
  EXPECT_DOUBLE_EQ(to_seconds(kSecond), 1.0);
  EXPECT_EQ(from_seconds(1.5e-9), 2);  // rounds to nearest ns
}

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), kSimStart);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(3 * kSecond, [&] { order.push_back(3); });
  sim.schedule(1 * kSecond, [&] { order.push_back(1); });
  sim.schedule(2 * kSecond, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 3 * kSecond);
}

TEST(Simulator, TiesBreakByInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule(kSecond, [&order, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, ClockAdvancesDuringCallbacks) {
  Simulator sim;
  SimTime seen = -1;
  sim.schedule(5 * kMillisecond, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, 5 * kMillisecond);
}

TEST(Simulator, EventsMayScheduleMoreEvents) {
  Simulator sim;
  int hops = 0;
  std::function<void()> hop = [&] {
    if (++hops < 10) sim.schedule(kMillisecond, hop);
  };
  sim.schedule(0, hop);
  sim.run();
  EXPECT_EQ(hops, 10);
  EXPECT_EQ(sim.now(), 9 * kMillisecond);
}

TEST(Simulator, NegativeDelayThrows) {
  Simulator sim;
  EXPECT_THROW(sim.schedule(-1, [] {}), std::invalid_argument);
}

TEST(Simulator, ScheduleAtPastThrows) {
  Simulator sim;
  sim.schedule(kSecond, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(0, [] {}), std::invalid_argument);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  auto handle = sim.schedule(kSecond, [&] { ran = true; });
  EXPECT_TRUE(handle.pending());
  handle.cancel();
  EXPECT_FALSE(handle.pending());
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(Simulator, CancelAfterFireIsNoop) {
  Simulator sim;
  auto handle = sim.schedule(0, [] {});
  sim.run();
  EXPECT_FALSE(handle.pending());
  handle.cancel();  // must not crash or affect anything
}

TEST(Simulator, DefaultHandleIsNotPending) {
  EventHandle h;
  EXPECT_FALSE(h.pending());
  h.cancel();  // harmless
}

TEST(Simulator, StepExecutesExactlyOne) {
  Simulator sim;
  int count = 0;
  sim.schedule(1, [&] { ++count; });
  sim.schedule(2, [&] { ++count; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(1 * kSecond, [&] { order.push_back(1); });
  sim.schedule(3 * kSecond, [&] { order.push_back(3); });
  sim.run_until(2 * kSecond);
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(sim.now(), 2 * kSecond);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(Simulator, RunUntilWithEmptyQueueKeepsClock) {
  Simulator sim;
  sim.schedule(kSecond, [] {});
  sim.run();
  EXPECT_EQ(sim.run_until(10 * kSecond), kSecond);
}

TEST(Simulator, ExecutedEventsCountsOnlyFired) {
  Simulator sim;
  auto h = sim.schedule(1, [] {});
  sim.schedule(2, [] {});
  h.cancel();
  h.cancel();  // a second cancel is a no-op and is not counted
  sim.run();
  EXPECT_EQ(sim.executed_events(), 1u);
  EXPECT_EQ(sim.scheduled_events(), 2u);
  EXPECT_EQ(sim.cancelled_events(), 1u);
}

/// A timer source holding (time, seq, id) keys in a vector; firing the
/// earliest records its id and time. Attaches on construction.
class FakeTimers final : public TimerSource {
 public:
  struct Fired {
    int id;
    SimTime time;
    bool operator==(const Fired&) const = default;
  };

  explicit FakeTimers(Simulator& sim) : sim_(sim) { sim_.attach_timers(*this); }
  ~FakeTimers() { sim_.detach_timers(*this); }
  FakeTimers(const FakeTimers&) = delete;
  FakeTimers& operator=(const FakeTimers&) = delete;

  /// Add a timer at `when`, keyed with a freshly reserved sequence number.
  void add(SimTime when, int id) { timers_.push_back({{when, sim_.reserve_sequence()}, id}); }

  bool next_timer(Key& key) const override {
    if (timers_.empty()) return false;
    key = earliest()->key;
    return true;
  }
  void fire_next_timer() override {
    const auto it = earliest();
    fired.push_back({it->id, sim_.now()});
    timers_.erase(it);
  }
  std::size_t pending_timers() const override { return timers_.size(); }

  std::vector<Fired> fired;

 private:
  struct Timer {
    Key key;
    int id;
  };
  std::vector<Timer>::const_iterator earliest() const {
    return std::min_element(timers_.begin(), timers_.end(), [](const Timer& a, const Timer& b) {
      return a.key.time != b.key.time ? a.key.time < b.key.time : a.key.seq < b.key.seq;
    });
  }

  Simulator& sim_;
  std::vector<Timer> timers_;
};

// A timer held by the attached source, keyed with a reserved sequence
// number, fires where an event scheduled at reservation time would have:
// after same-time events queued before the reservation, before those queued
// after it, and before a later time whatever its sequence.
TEST(Simulator, ReservedSequenceKeepsReservationOrder) {
  Simulator sim;
  FakeTimers timers(sim);
  std::vector<int> order;
  const auto note = [&](int id) { return [&order, id] { order.push_back(id); }; };
  sim.schedule(2 * kSecond, note(4));
  sim.schedule(kSecond, note(1));
  timers.add(kSecond, 2);
  sim.schedule(kSecond, note(3));
  timers.add(kMillisecond, 0);
  EXPECT_EQ(sim.pending_events(), 5u);
  sim.check_invariants();
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 4}));
  EXPECT_EQ(timers.fired,
            (std::vector<FakeTimers::Fired>{{0, kMillisecond}, {2, kSecond}}));
  EXPECT_EQ(sim.executed_events(), 5u);
  EXPECT_EQ(sim.scheduled_events(), 3u);  // the timers never entered the queue
  EXPECT_EQ(sim.pending_events(), 0u);
}

// The merge itself, with the fired timers and events on one list: the timer
// at (1 s, seq 1) falls between the events at (1 s, seq 0) and (1 s, seq 2).
TEST(Simulator, TimersAndEventsInterleaveInKeyOrder) {
  Simulator sim;
  FakeTimers timers(sim);
  std::vector<int> order;
  sim.schedule(kSecond, [&] { order.push_back(0); });
  timers.add(kSecond, 1);
  sim.schedule(kSecond, [&] { order.push_back(2); });
  ASSERT_TRUE(sim.step());
  EXPECT_EQ(order, (std::vector<int>{0}));
  EXPECT_TRUE(timers.fired.empty());
  ASSERT_TRUE(sim.step());
  EXPECT_EQ(timers.fired, (std::vector<FakeTimers::Fired>{{1, kSecond}}));
  EXPECT_EQ(order, (std::vector<int>{0}));
  ASSERT_TRUE(sim.step());
  EXPECT_EQ(order, (std::vector<int>{0, 2}));
  EXPECT_FALSE(sim.step());
}

// run_until stops at its deadline with timers still pending (firing those
// due at the deadline and moving the clock onto it), and run() then fires
// the rest at their own times.
TEST(Simulator, RunUntilStopsAtDeadlineWithTimersPending) {
  Simulator sim;
  FakeTimers timers(sim);
  timers.add(3 * kSecond, 3);
  timers.add(kSecond, 1);
  timers.add(2 * kSecond, 2);
  EXPECT_EQ(sim.run_until(2 * kSecond), 2 * kSecond);
  EXPECT_EQ(timers.fired, (std::vector<FakeTimers::Fired>{{1, kSecond}, {2, 2 * kSecond}}));
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_EQ(sim.run_until(2500 * kMillisecond), 2500 * kMillisecond);
  EXPECT_EQ(timers.fired.size(), 2u);
  sim.check_invariants();
  EXPECT_EQ(sim.run(), 3 * kSecond);
  EXPECT_EQ(timers.fired.back(), (FakeTimers::Fired{3, 3 * kSecond}));
  EXPECT_EQ(sim.executed_events(), 3u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

// A simulator takes one timer source; detaching it frees the place.
TEST(Simulator, SecondTimerSourceThrows) {
  Simulator sim;
  {
    FakeTimers first(sim);
    EXPECT_THROW(FakeTimers second(sim), std::logic_error);
    first.add(kSecond, 1);
    EXPECT_EQ(sim.pending_events(), 1u);
  }
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_FALSE(sim.step());
  FakeTimers replacement(sim);
  replacement.add(kSecond, 2);
  sim.run();
  EXPECT_EQ(replacement.fired, (std::vector<FakeTimers::Fired>{{2, kSecond}}));
}

// check_invariants() holds through scheduling, cancellation (with queue
// compaction), stepping and stale handles.
TEST(Simulator, CheckInvariantsHoldsThroughChurn) {
  Simulator sim;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 500; ++i) {
    handles.push_back(sim.schedule(((i * 37) % 101) * kMillisecond, [] {}));
  }
  sim.check_invariants();
  for (int i = 0; i < 500; i += 3) handles[i].cancel();
  sim.check_invariants();
  for (int i = 0; i < 200 && sim.step(); ++i) {
    sim.schedule(kMillisecond * (i % 7), [] {});
    sim.check_invariants();
  }
  for (EventHandle& h : handles) h.cancel();
  sim.check_invariants();
  sim.run();
  sim.check_invariants();
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, ManyEventsStressOrdering) {
  Simulator sim;
  SimTime last = -1;
  bool monotone = true;
  for (int i = 0; i < 10000; ++i) {
    // Deterministic pseudo-shuffled times.
    const SimTime t = ((i * 7919) % 1000) * kMillisecond;
    sim.schedule_at(t, [&, t] {
      if (t < last) monotone = false;
      last = t;
    });
  }
  sim.run();
  EXPECT_TRUE(monotone);
  EXPECT_EQ(sim.executed_events(), 10000u);
}

// --- handle lifetime contract (see simulator.hpp) ---------------------------

TEST(EventHandleLifetime, PendingIsFalseAfterSimulatorDestroyed) {
  EventHandle h;
  {
    Simulator sim;
    h = sim.schedule(kSecond, [] {});
    EXPECT_TRUE(h.pending());
  }
  EXPECT_FALSE(h.pending());
  h.cancel();  // must not touch the destroyed simulator
  EXPECT_FALSE(h.pending());
}

TEST(EventHandleLifetime, CancelAfterRunAndAfterDrainAreNoops) {
  Simulator sim;
  int fired = 0;
  EventHandle h = sim.schedule(kSecond, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(h.pending());
  h.cancel();
  h.cancel();
  EXPECT_EQ(sim.pending_events(), 0u);
  // The drained simulator keeps working afterwards.
  sim.schedule(kSecond, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(EventHandleLifetime, StaleHandleCannotCancelRecycledSlot) {
  Simulator sim;
  int fired = 0;
  EventHandle a = sim.schedule(kSecond, [&] { fired = 1; });
  a.cancel();
  // b reuses a's slab slot; a's stale generation must not reach it.
  EventHandle b = sim.schedule(kSecond, [&] { fired = 2; });
  a.cancel();
  EXPECT_FALSE(a.pending());
  EXPECT_TRUE(b.pending());
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(EventHandleLifetime, SelfCancelDuringCallbackIsNoop) {
  // The slot is released before the callback runs, so a handle reports
  // !pending() inside its own callback and self-cancel is harmless.
  Simulator sim;
  bool fired = false;
  EventHandle h;
  h = sim.schedule(kSecond, [&] {
    fired = true;
    EXPECT_FALSE(h.pending());
    h.cancel();
  });
  sim.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.executed_events(), 1u);
}

TEST(Simulator, CompactionKeepsOrderUnderMassCancellation) {
  Simulator sim;
  std::vector<int> order;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 10000; ++i) {
    handles.push_back(
        sim.schedule((i + 1) * kMillisecond, [&order, i] { order.push_back(i); }));
  }
  for (int i = 0; i < 10000; ++i) {
    if (i % 10 != 3) handles[i].cancel();  // 90% dead => queue compaction
  }
  EXPECT_EQ(sim.pending_events(), 1000u);
  sim.run();
  ASSERT_EQ(order.size(), 1000u);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
  EXPECT_EQ(sim.executed_events(), 1000u);
}

}  // namespace
}  // namespace cloudburst::des
