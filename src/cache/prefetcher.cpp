#include "cache/prefetcher.hpp"

#include <algorithm>
#include <utility>

namespace cloudburst::cache {

storage::StoreId Prefetcher::resolve_store(storage::ChunkId chunk) const {
  if (env_.resolve) return env_.resolve(chunk);
  return layout_->store_of(chunk);
}

void Prefetcher::on_pool_update(const std::deque<storage::ChunkId>& pool,
                                const storage::DataLayout& layout) {
  if (!config_.enabled) return;
  layout_ = &layout;
  for (const storage::ChunkId chunk : pool) {
    if (queued_.count(chunk) || issued_.count(chunk)) continue;
    if (cache_.contains(chunk)) continue;
    if (env_.cacheable && !env_.cacheable(resolve_store(chunk))) continue;
    queued_.insert(chunk);
    queue_.push_back(chunk);
  }
  pump();
}

void Prefetcher::cancel(storage::ChunkId chunk) {
  // Only queue membership is revoked; an already-issued GET keeps flying and
  // the slave joins it via wait_for instead of fetching again.
  queued_.erase(chunk);
}

void Prefetcher::wait_for(storage::ChunkId chunk, std::uint64_t owner,
                          std::function<void(bool)> cb) {
  inflight_.at(chunk).waiters.push_back(Waiter{owner, std::move(cb)});
}

void Prefetcher::drop_owner(std::uint64_t owner) {
  for (auto& [chunk, flight] : inflight_) {
    auto& waiters = flight.waiters;
    waiters.erase(std::remove_if(waiters.begin(), waiters.end(),
                                 [owner](const Waiter& w) { return w.owner == owner; }),
                  waiters.end());
  }
}

void Prefetcher::release(storage::ChunkId chunk) {
  // An in-flight transfer keeps its dedup entry: pump() does not check
  // inflight_, so clearing issued_ here would let a second GET of the same
  // bytes launch. The re-assigned slave joins the airborne one instead.
  if (inflight_.count(chunk)) return;
  issued_.erase(chunk);
  consumed_.erase(chunk);
}

void Prefetcher::mark_consumed(storage::ChunkId chunk) {
  if (issued_.count(chunk)) consumed_.insert(chunk);
}

std::uint64_t Prefetcher::finish() {
  std::uint64_t wasted = 0;
  for (const storage::ChunkId chunk : issued_) {
    if (consumed_.count(chunk)) continue;
    ++wasted;
    if (env_.trace) {
      const std::uint64_t bytes =
          layout_ ? layout_->chunk(chunk).bytes : std::uint64_t(0);
      env_.trace(trace::EventKind::PrefetchWasted, chunk, bytes);
    }
  }
  return wasted;
}

void Prefetcher::pump() {
  while (inflight_.size() < config_.depth && !queue_.empty()) {
    const storage::ChunkId chunk = queue_.front();
    queue_.pop_front();
    if (!queued_.erase(chunk)) continue;  // cancelled while queued
    if (issued_.count(chunk) || cache_.contains(chunk)) continue;

    const storage::ChunkInfo& info = layout_->chunk(chunk);
    storage::ChunkInfo wire = info;
    if (env_.wire_bytes) wire.bytes = env_.wire_bytes(info.bytes);

    const storage::StoreId store = resolve_store(chunk);
    issued_.insert(chunk);
    inflight_.emplace(chunk, Inflight{store, {}});
    if (env_.trace) env_.trace(trace::EventKind::PrefetchIssued, chunk, info.bytes);
    if (env_.on_issue) env_.on_issue(store, info);

    const std::uint64_t resident = wire.bytes;
    env_.fetch(store, wire,
               [this, chunk, resident](bool ok) { on_prefetched(chunk, resident, ok); });
  }
}

void Prefetcher::on_prefetched(storage::ChunkId chunk, std::uint64_t resident_bytes,
                               bool ok) {
  const auto it = inflight_.find(chunk);
  const storage::StoreId issued_store = it->second.store;
  auto waiters = std::move(it->second.waiters);
  inflight_.erase(it);
  if (ok) {
    const auto result = cache_.insert(chunk, resident_bytes, /*prefetched=*/true,
                                      env_.cache_owner);
    if (env_.trace) {
      for (const auto& [evictee, bytes] : result.evicted) {
        env_.trace(trace::EventKind::CacheEvict, evictee, bytes);
      }
    }
  } else {
    // Permanent failure: nothing landed. Revert the issue-time accounting
    // (against the store charged at issue, which a replica re-resolution may
    // no longer return) and reopen the chunk so a later pool update may try
    // again.
    if (env_.on_abort && layout_) {
      env_.on_abort(issued_store, layout_->chunk(chunk));
    }
    issued_.erase(chunk);
    consumed_.erase(chunk);
  }
  for (auto& w : waiters) w.cb(ok);
  pump();
}

}  // namespace cloudburst::cache
