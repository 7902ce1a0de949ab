// Predictive prefetcher: turns the head-node scheduler's batch lookahead
// into overlapped WAN transfers.
//
// When the head grants a master a consecutive batch, every chunk in the
// cluster pool beyond the one a slave is currently fetching is *known future
// work*. The prefetcher watches the pool and issues asynchronous
// multi-connection GETs for those granted-but-unfetched chunks into the
// site's ChunkCache, so the WAN transfer of job i+1 overlaps the processing
// of job i beyond what the slave's own pipeline_depth covers.
//
// Guarantees:
//  * a chunk is prefetched at most once per *assignment epoch* (issued-set
//    dedup) and never when it is already resident in the site cache;
//    release() reopens a chunk that crash recovery re-enqueued;
//  * a chunk assigned to a slave while its prefetch is still in flight is
//    *joined* (the slave waits on the existing transfer) — the prefetcher
//    never causes a second GET for the same bytes. Waiters are registered
//    with an owner token so a crashed slave's callbacks can be dropped;
//  * chunks assigned before their prefetch was issued are cancelled out of
//    the queue (the slave's own fetch is already the transfer);
//  * a prefetch whose (possibly retried) GET permanently fails is aborted:
//    accounting is reverted via Env::on_abort, waiters are notified with
//    ok = false (they fall back to their own fetch), and the chunk becomes
//    eligible for a later prefetch again.
//
// A Prefetcher is a per-run actor (it holds simulation callbacks); the
// ChunkCache it fills is the persistent, cross-run state. The runtime builds
// one per compute site when CacheConfig::prefetch.enabled is set.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "cache/chunk_cache.hpp"
#include "net/network.hpp"
#include "storage/store.hpp"
#include "trace/trace.hpp"

namespace cloudburst::cache {

class Prefetcher {
 public:
  /// Narrow per-run wiring (kept free of middleware types so cb_cache stays
  /// a leaf library under cb_middleware).
  struct Env {
    /// Bytes a stored chunk of `bytes` moves and occupies in the cache (the
    /// run's compression rule, shared with the slave fetch path); null keeps
    /// the stored size.
    std::function<std::uint64_t(std::uint64_t bytes)> wire_bytes;
    /// Issue one (possibly retrying) GET of `wire` from store `s`; `done`
    /// fires with the transfer's final outcome. The runtime wires this to
    /// the store fetch wrapped in the run's RetryPolicy.
    std::function<void(storage::StoreId s, const storage::ChunkInfo& wire,
                       std::function<void(bool ok)> done)>
        fetch;
    std::function<bool(storage::StoreId)> cacheable;
    /// Event sink with the actor name pre-bound ("prefetch-<site>"); may be
    /// null when no tracer is attached.
    std::function<void(trace::EventKind, std::uint64_t, std::uint64_t)> trace;
    /// Accounting hook fired per issued GET (the site's StoreTraffic etc.).
    std::function<void(storage::StoreId, const storage::ChunkInfo&)> on_issue;
    /// Reverts on_issue when the GET permanently failed: nothing was
    /// delivered, so the issue-time store charge must not stand.
    std::function<void(storage::StoreId, const storage::ChunkInfo&)> on_abort;
    /// Replica resolution: store to GET `chunk` from. Null (the default) means
    /// the layout primary; the runtime binds this to the run's ReplicaSet so
    /// prefetches also read the cheapest live copy.
    std::function<storage::StoreId(storage::ChunkId)> resolve;
    /// Tenant the prefetched bytes are billed to in the cache (per-tenant
    /// capacity shares); default = unbudgeted shared residency.
    std::uint32_t cache_owner = ChunkCache::kSharedOwner;
  };

  Prefetcher(ChunkCache& cache, PrefetchConfig config, Env env)
      : cache_(cache), config_(config), env_(std::move(env)) {}

  /// The master's pool changed (head granted a batch): enqueue every
  /// granted-but-unfetched chunk and fill the in-flight window.
  void on_pool_update(const std::deque<storage::ChunkId>& pool,
                      const storage::DataLayout& layout);

  /// `chunk` was assigned to a slave: drop it from the queue if its prefetch
  /// has not been issued yet (the slave's fetch is the transfer now).
  void cancel(storage::ChunkId chunk);

  /// A prefetch GET for `chunk` is still in flight.
  bool in_flight(storage::ChunkId chunk) const { return inflight_.count(chunk) > 0; }

  /// Join an in-flight prefetch: `cb(ok)` fires when the transfer settles.
  /// `owner` identifies the registrant (slave endpoint) so drop_owner can
  /// cancel the callback if the registrant dies while joined.
  void wait_for(storage::ChunkId chunk, std::uint64_t owner,
                std::function<void(bool ok)> cb);

  /// A slave died: discard every waiter callback it registered. Its joined
  /// transfers keep flying (the bytes still land in the cache for others).
  void drop_owner(std::uint64_t owner);

  /// Crash recovery re-enqueued `chunk`: clear it from the issued/consumed
  /// dedup sets so the recovery copy can be prefetched too. A still-in-flight
  /// transfer stays deduped — the re-assigned slave joins it instead.
  void release(storage::ChunkId chunk);

  /// A slave consumed a prefetched chunk (joined it or hit it in the cache).
  void mark_consumed(storage::ChunkId chunk);

  /// End of run: emit PrefetchWasted for every issued-but-never-consumed
  /// chunk and return how many there were.
  std::uint64_t finish();

  std::uint64_t issued_count() const { return issued_.size(); }
  std::uint64_t consumed_count() const { return consumed_.size(); }

 private:
  void pump();
  void on_prefetched(storage::ChunkId chunk, std::uint64_t resident_bytes, bool ok);

  struct Waiter {
    std::uint64_t owner = 0;
    std::function<void(bool ok)> cb;
  };

  /// One airborne GET. The store is pinned at issue time so an abort reverts
  /// exactly the charge on_issue made, even if the replica set re-resolves
  /// the chunk somewhere else meanwhile.
  struct Inflight {
    storage::StoreId store = storage::kInvalidStore;
    std::vector<Waiter> waiters;
  };

  storage::StoreId resolve_store(storage::ChunkId chunk) const;

  ChunkCache& cache_;
  PrefetchConfig config_;
  Env env_;
  const storage::DataLayout* layout_ = nullptr;

  std::deque<storage::ChunkId> queue_;  ///< candidate order
  std::set<storage::ChunkId> queued_;   ///< authoritative queue membership
  std::map<storage::ChunkId, Inflight> inflight_;
  std::set<storage::ChunkId> issued_;
  std::set<storage::ChunkId> consumed_;
};

}  // namespace cloudburst::cache
