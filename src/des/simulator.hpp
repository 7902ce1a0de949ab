// Discrete-event simulation kernel.
//
// A Simulator owns a priority queue of (time, sequence, callback) events.
// Ties on time break by insertion sequence (or by a sequence number reserved
// earlier, see reserve_sequence), which makes every run fully deterministic.
// Events may be cancelled via the EventHandle returned at scheduling time.
//
// Timer source
// ------------
// One client may keep its own queue of timers and attach it as the
// simulator's TimerSource (net::Network does this with its flow timers).
// Each timer carries a sequence number from reserve_sequence(), and step()
// merges the source's earliest timer with the event queue in the same
// (time, seq) order, so a timer fires exactly where an event scheduled at
// reservation time would have. Timer firings count as executed events and
// pending timers as pending events; they are never scheduled or cancelled
// through the kernel, so scheduled_events() and cancelled_events() do not
// count them.
//
// Event storage & performance
// ---------------------------
// Event records live in a slab (a recycled vector of records addressed by
// slot index); the priority queue holds small POD entries pointing into the
// slab. Cancellation is lazy: the slab slot is recycled immediately (its
// generation counter is bumped, so stale queue entries and handles no
// longer match), but the queue entry stays behind and is skipped when
// popped. When dead entries outnumber live ones the queue is compacted in
// one pass. Callbacks are stored in an EventFn — a move-only callable with
// 48 bytes of inline capture storage — so scheduling an event performs no
// heap allocation on the hot paths. See DESIGN.md "Simulator internals &
// performance".
//
// Lifetime contract
// -----------------
// An EventHandle may outlive its Simulator: it holds a shared tag that the
// Simulator clears on destruction, after which pending() returns false and
// cancel() is a no-op. Handles are plain values — copy them freely; cancel
// after fire, double cancel, and cancel after the queue drained are all
// no-ops. What a handle never does is keep the Simulator (or the event's
// callback) alive.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "des/event_fn.hpp"
#include "des/sim_time.hpp"

namespace cloudburst::des {

class Simulator;

/// Timers kept outside the kernel's queue and merged into it by key (see
/// "Timer source" above). A source attaches itself with
/// Simulator::attach_timers and must detach before it is destroyed; unlike
/// an EventHandle, it must not outlive the Simulator.
class TimerSource {
 public:
  /// The ordering key of a timer: the kernel's (time, sequence).
  struct Key {
    SimTime time;
    std::uint64_t seq;
  };

  /// The earliest pending timer's key; false if none is pending. The key is
  /// never before now() and its seq came from reserve_sequence().
  virtual bool next_timer(Key& key) const = 0;
  /// Fire the earliest timer; the kernel has already set now() to its time.
  virtual void fire_next_timer() = 0;
  /// Number of pending timers.
  virtual std::size_t pending_timers() const = 0;

 protected:
  ~TimerSource() = default;
};

/// Cancellation token for a scheduled event. Copyable; cancelling twice is a
/// no-op, as is cancelling an event that already fired or whose Simulator is
/// gone (see the lifetime contract above).
class EventHandle {
 public:
  EventHandle() = default;

  /// Prevent the event from firing. Safe after the event has run, and safe
  /// after the owning Simulator was destroyed.
  void cancel();

  /// True if the event has neither fired nor been cancelled. False once the
  /// owning Simulator has been destroyed.
  bool pending() const;

 private:
  friend class Simulator;
  EventHandle(std::shared_ptr<Simulator*> owner, std::uint32_t slot,
              std::uint32_t generation)
      : owner_(std::move(owner)), slot_(slot), generation_(generation) {}

  std::shared_ptr<Simulator*> owner_;  ///< pointee nulled by ~Simulator
  std::uint32_t slot_ = 0;
  std::uint32_t generation_ = 0;
};

class Simulator {
 public:
  Simulator() : self_(std::make_shared<Simulator*>(this)) {}
  ~Simulator() { *self_ = nullptr; }
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  /// Schedule `fn` to run at now() + delay (delay >= 0).
  EventHandle schedule(SimDuration delay, EventFn fn);

  /// Schedule at an absolute time >= now().
  EventHandle schedule_at(SimTime when, EventFn fn);

  /// Take the next tie-break sequence number without queueing anything. A
  /// timer source keys its timers with these numbers (see "Timer source").
  std::uint64_t reserve_sequence() { return next_seq_++; }

  /// Merge `source`'s timers into this simulator's run. A simulator takes
  /// one source: attaching a second throws std::logic_error.
  void attach_timers(TimerSource& source);
  /// Forget `source` (a no-op unless it is the attached one).
  void detach_timers(TimerSource& source);

  /// Run until the event queue drains. Returns the final simulated time.
  SimTime run();

  /// Run events with time <= deadline; the clock ends at
  /// min(deadline, last-event time). Returns the final simulated time.
  SimTime run_until(SimTime deadline);

  /// Execute at most one event or timer. False if both were empty.
  bool step();

  /// Number of scheduled events that have neither fired nor been cancelled,
  /// plus the attached source's pending timers (lazily-deleted queue entries
  /// are not counted).
  std::size_t pending_events() const {
    return live_count_ + (timers_ != nullptr ? timers_->pending_timers() : 0);
  }
  /// Events and timers that fired.
  std::uint64_t executed_events() const { return executed_; }
  /// Events ever queued (schedule, schedule_at); timers are not counted.
  std::uint64_t scheduled_events() const { return scheduled_; }
  /// Events removed by a cancel before they fired.
  std::uint64_t cancelled_events() const { return cancelled_; }

  /// Audit the kernel's state; throws std::logic_error naming the first
  /// violation. Checks that the live-event count matches the live slab
  /// records, that every live queue entry matches a live record (and no
  /// record is queued twice or not at all), that no live entry or timer is
  /// due before now(), and that the queue is heap-ordered.
  void check_invariants() const;

 private:
  friend class EventHandle;

  /// One slab cell. `generation` advances every time the slot is released
  /// (fire or cancel), invalidating stale handles and queue entries.
  struct EventRecord {
    SimTime time = 0;
    std::uint64_t seq = 0;
    std::uint32_t generation = 0;
    bool live = false;
    EventFn fn;
  };

  /// Priority-queue entry: the (time, seq) ordering key plus the slab slot
  /// it refers to. `generation` detects entries whose event was cancelled
  /// (and whose slot possibly reused) after this entry was pushed.
  struct QueueEntry {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t generation;
  };
  struct Later {
    bool operator()(const QueueEntry& a, const QueueEntry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  /// Fire the next event or timer if it is due at or before `deadline`.
  /// Dead entries at the queue top are dropped either way.
  bool fire_next(SimTime deadline);
  bool cancel(std::uint32_t slot, std::uint32_t generation);
  bool is_pending(std::uint32_t slot, std::uint32_t generation) const;
  /// Drop dead queue entries once they outnumber live ones.
  void maybe_compact();

  SimTime now_ = kSimStart;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t scheduled_ = 0;
  std::uint64_t cancelled_ = 0;
  std::size_t live_count_ = 0;
  std::size_t dead_in_queue_ = 0;

  std::vector<EventRecord> slab_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<QueueEntry> queue_;  ///< binary heap ordered by Later
  TimerSource* timers_ = nullptr;  ///< merged by (time, seq); see attach_timers

  std::shared_ptr<Simulator*> self_;  ///< handles' liveness tag
};

}  // namespace cloudburst::des
