#include "des/simulator.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>

namespace cloudburst::des {

namespace {
/// Compact only when the dead entries amortize the rebuild: enough of them
/// in absolute terms, and more dead than live in the queue.
constexpr std::size_t kCompactMinDead = 64;
}  // namespace

std::string format(SimTime t) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6fs", to_seconds(t));
  return buf;
}

void EventHandle::cancel() {
  if (owner_ && *owner_ != nullptr) {
    (*owner_)->cancel(slot_, generation_);
  }
}

bool EventHandle::pending() const {
  return owner_ && *owner_ != nullptr && (*owner_)->is_pending(slot_, generation_);
}

EventHandle Simulator::schedule(SimDuration delay, EventFn fn) {
  if (delay < 0) throw std::invalid_argument("Simulator::schedule: negative delay");
  return schedule_at(now_ + delay, std::move(fn));
}

EventHandle Simulator::schedule_at(SimTime when, EventFn fn) {
  if (when < now_) throw std::invalid_argument("Simulator::schedule_at: time in the past");
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slab_.size());
    slab_.emplace_back();
  }
  EventRecord& rec = slab_[slot];
  rec.time = when;
  rec.seq = next_seq_++;
  rec.live = true;
  rec.fn = std::move(fn);
  queue_.push_back(QueueEntry{rec.time, rec.seq, slot, rec.generation});
  std::push_heap(queue_.begin(), queue_.end(), Later{});
  ++live_count_;
  ++scheduled_;
  return EventHandle(self_, slot, rec.generation);
}

void Simulator::attach_timers(TimerSource& source) {
  if (timers_ != nullptr) {
    throw std::logic_error("Simulator::attach_timers: a timer source is already attached");
  }
  timers_ = &source;
}

void Simulator::detach_timers(TimerSource& source) {
  if (timers_ == &source) timers_ = nullptr;
}

bool Simulator::cancel(std::uint32_t slot, std::uint32_t generation) {
  if (slot >= slab_.size()) return false;
  EventRecord& rec = slab_[slot];
  if (rec.generation != generation || !rec.live) return false;
  rec.live = false;
  rec.fn.reset();  // release captures now, not when the entry is popped
  ++rec.generation;
  free_slots_.push_back(slot);
  --live_count_;
  ++cancelled_;
  ++dead_in_queue_;
  maybe_compact();
  return true;
}

bool Simulator::is_pending(std::uint32_t slot, std::uint32_t generation) const {
  return slot < slab_.size() && slab_[slot].generation == generation &&
         slab_[slot].live;
}

void Simulator::maybe_compact() {
  if (dead_in_queue_ < kCompactMinDead || dead_in_queue_ * 2 <= queue_.size()) {
    return;
  }
  queue_.erase(std::remove_if(queue_.begin(), queue_.end(),
                              [this](const QueueEntry& e) {
                                return slab_[e.slot].generation != e.generation;
                              }),
               queue_.end());
  std::make_heap(queue_.begin(), queue_.end(), Later{});
  dead_in_queue_ = 0;
}

bool Simulator::fire_next(SimTime deadline) {
  // Cancelled entries (slot possibly reused since) leave lazily, here.
  while (!queue_.empty() &&
         slab_[queue_.front().slot].generation != queue_.front().generation) {
    std::pop_heap(queue_.begin(), queue_.end(), Later{});
    queue_.pop_back();
    --dead_in_queue_;
  }
  TimerSource::Key timer{};
  const bool has_timer = timers_ != nullptr && timers_->next_timer(timer);
  if (has_timer && (queue_.empty() || timer.time < queue_.front().time ||
                    (timer.time == queue_.front().time && timer.seq < queue_.front().seq))) {
    if (timer.time > deadline) return false;
    now_ = timer.time;
    ++executed_;
    timers_->fire_next_timer();
    return true;
  }
  if (queue_.empty() || queue_.front().time > deadline) return false;
  const QueueEntry top = queue_.front();
  std::pop_heap(queue_.begin(), queue_.end(), Later{});
  queue_.pop_back();
  EventRecord& rec = slab_[top.slot];
  // Release the slot before running: handles report !pending() during the
  // callback, and the callback may itself schedule into this slot.
  EventFn fn = std::move(rec.fn);
  rec.live = false;
  ++rec.generation;
  free_slots_.push_back(top.slot);
  --live_count_;
  now_ = top.time;
  ++executed_;
  if (fn) fn();
  return true;
}

bool Simulator::step() { return fire_next(std::numeric_limits<SimTime>::max()); }

SimTime Simulator::run() {
  while (step()) {
  }
  return now_;
}

SimTime Simulator::run_until(SimTime deadline) {
  while (fire_next(deadline)) {
  }
  // Drained before the deadline: the clock stays at the last event.
  if (now_ < deadline && pending_events() > 0) now_ = deadline;
  return now_;
}

void Simulator::check_invariants() const {
  const auto fail = [](const std::string& what) {
    throw std::logic_error("Simulator invariant violated: " + what);
  };
  std::size_t live = 0;
  for (const EventRecord& rec : slab_) live += rec.live;
  if (live != live_count_) {
    fail(std::to_string(live) + " live slab records, but the live count is " +
         std::to_string(live_count_));
  }
  // Each live record has exactly one queue entry of its generation; every
  // other entry is dead and counted as such.
  std::size_t queued = 0;
  std::size_t dead = 0;
  for (const QueueEntry& e : queue_) {
    if (e.slot >= slab_.size()) fail("a queue entry points past the slab");
    const EventRecord& rec = slab_[e.slot];
    if (rec.generation != e.generation) {
      ++dead;
      continue;
    }
    if (!rec.live) fail("a live queue entry points at a freed slot");
    if (rec.time != e.time || rec.seq != e.seq) {
      fail("a queue entry's key disagrees with its slab record");
    }
    if (e.time < now_) fail("a live event is due before now");
    ++queued;
  }
  if (queued != live_count_) fail("live events and live queue entries differ in number");
  if (dead != dead_in_queue_) fail("the dead-entry count disagrees with the queue");
  if (!std::is_heap(queue_.begin(), queue_.end(), Later{})) fail("the event queue is not a heap");
  TimerSource::Key timer{};
  if (timers_ != nullptr && timers_->next_timer(timer) &&
      (timer.time < now_ || timer.seq >= next_seq_)) {
    fail("the timer source's earliest timer is before now or holds an unreserved sequence");
  }
}

}  // namespace cloudburst::des
