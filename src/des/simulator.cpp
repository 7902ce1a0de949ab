#include "des/simulator.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

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
  return push(when, next_seq_++, std::move(fn));
}

EventHandle Simulator::schedule_reserved(SimTime when, std::uint64_t seq, EventFn fn) {
  if (when < now_) {
    throw std::invalid_argument("Simulator::schedule_reserved: time in the past");
  }
  if (seq >= next_seq_) {
    throw std::invalid_argument("Simulator::schedule_reserved: sequence not reserved");
  }
  return push(when, seq, std::move(fn));
}

EventHandle Simulator::push(SimTime when, std::uint64_t seq, EventFn fn) {
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
  rec.seq = seq;
  rec.live = true;
  rec.fn = std::move(fn);
  queue_.push_back(QueueEntry{rec.time, rec.seq, slot, rec.generation});
  std::push_heap(queue_.begin(), queue_.end(), Later{});
  ++live_count_;
  ++scheduled_;
  return EventHandle(self_, slot, rec.generation);
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

bool Simulator::step() {
  while (!queue_.empty()) {
    const QueueEntry top = queue_.front();
    std::pop_heap(queue_.begin(), queue_.end(), Later{});
    queue_.pop_back();
    EventRecord& rec = slab_[top.slot];
    if (rec.generation != top.generation) {
      // Cancelled (slot possibly reused since): lazy deletion.
      --dead_in_queue_;
      continue;
    }
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
  return false;
}

SimTime Simulator::run() {
  while (step()) {
  }
  return now_;
}

SimTime Simulator::run_until(SimTime deadline) {
  while (!queue_.empty()) {
    // Skip cancelled entries without advancing the clock.
    const QueueEntry& top = queue_.front();
    if (slab_[top.slot].generation != top.generation) {
      std::pop_heap(queue_.begin(), queue_.end(), Later{});
      queue_.pop_back();
      --dead_in_queue_;
      continue;
    }
    if (top.time > deadline) break;
    step();
  }
  if (now_ < deadline && queue_.empty()) {
    // Queue drained before the deadline: clock stays at the last event.
    return now_;
  }
  if (now_ < deadline) now_ = deadline;
  return now_;
}

}  // namespace cloudburst::des
