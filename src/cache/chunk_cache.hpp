// Site-local chunk cache.
//
// The paper's time decomposition is dominated by remote data retrieval, and
// the iterative applications re-fetch the *same* S3 chunks on every pass.
// A ChunkCache interposes between the slave fetch path and any StoreId: a
// chunk that was fetched once is kept on the site's local scratch disk, and
// a later read pays a local-disk access instead of the WAN + object-store
// path. The cache is bookkeeping only — it owns no simulator state, so one
// instance can outlive the per-pass Platform rebuilds of run_iterative and
// keep warm contents across iterations.
//
// Policy surface (all in CacheConfig):
//  * capacity_bytes  — per-site budget; inserting past it evicts victims;
//  * policy          — LRU / LFU / FIFO victim selection;
//  * admit_max_fraction — size-aware admission filter: a chunk larger than
//    this fraction of the capacity is never admitted (one scan-sized object
//    must not flush the whole working set);
//  * hit_latency_seconds / hit_bandwidth — the local read model a hit pays.
// Reads from the site's own *disk* store are never cached (the cache would
// be no faster than the disk it mirrors); object-store reads are always
// cacheable, even from the store the site treats as local, because they pay
// request latency and GET pricing.
//
// The cache is default-off (RunOptions::cache == nullptr): paper-fidelity
// runs are byte-identical to the seed reproduction.
#pragma once

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "storage/data_layout.hpp"

namespace cloudburst::cache {

enum class EvictionPolicy : std::uint8_t { Lru, Lfu, Fifo };

const char* to_string(EvictionPolicy policy);

/// Knobs of the prefetcher that rides on the cache (see prefetcher.hpp).
struct PrefetchConfig {
  bool enabled = false;
  /// Max prefetch fetches in flight per site. Each GET uses the run's
  /// retrieval_streams connections (at least one).
  unsigned depth = 2;
};

struct CacheConfig {
  std::uint64_t capacity_bytes = 0;  ///< per-site budget; 0 disables the cache
  EvictionPolicy policy = EvictionPolicy::Lru;
  double admit_max_fraction = 1.0;  ///< admission filter (fraction of capacity)

  /// Local read model a hit pays (site scratch disk; no network contention).
  double hit_latency_seconds = 0.002;
  double hit_bandwidth = 800e6;  ///< bytes/sec

  PrefetchConfig prefetch;
};

/// One site's cache: chunk ids -> resident bytes, with policy bookkeeping.
class ChunkCache {
 public:
  ChunkCache(const CacheConfig& config) : config_(config) {}

  /// Insertions not billed to any tenant (the default, and every run without
  /// a StoreQos attached).
  static constexpr std::uint32_t kSharedOwner = 0xffffffffu;

  struct InsertResult {
    bool admitted = false;
    /// (chunk, bytes) evicted to make room, in eviction order.
    std::vector<std::pair<storage::ChunkId, std::uint64_t>> evicted;
  };

  /// Admit `chunk` (`bytes` resident size), evicting per policy as needed.
  /// Re-inserting a resident chunk refreshes it and evicts nothing.
  /// `owner` bills the bytes to a tenant: a budgeted owner evicts its own
  /// entries when over its budget, and global evictions never claim another
  /// budgeted tenant's entries (see set_owner_budget).
  InsertResult insert(storage::ChunkId chunk, std::uint64_t bytes,
                      bool prefetched = false, std::uint32_t owner = kSharedOwner);

  /// Cap `owner`'s resident bytes at `budget_bytes` (its cache share). Once
  /// any budget exists, unbudgeted insertions (other tenants, kSharedOwner)
  /// can no longer evict a budgeted tenant's working set.
  void set_owner_budget(std::uint32_t owner, std::uint64_t budget_bytes) {
    budgets_[owner] = budget_bytes;
  }
  std::uint64_t owner_bytes(std::uint32_t owner) const {
    const auto it = owner_used_.find(owner);
    return it != owner_used_.end() ? it->second : 0;
  }

  /// Lookup that counts: touches the entry (LRU recency / LFU frequency) and
  /// records a lifetime hit or miss.
  bool hit(storage::ChunkId chunk);

  /// Silent membership test (prefetcher dedup, tests); no stats, no touch.
  bool contains(storage::ChunkId chunk) const { return entries_.count(chunk) > 0; }

  /// Drop one chunk (returns false if absent) or everything.
  bool erase(storage::ChunkId chunk);
  void clear();

  std::uint64_t bytes_used() const { return used_; }
  std::uint64_t capacity() const { return config_.capacity_bytes; }
  std::size_t size() const { return entries_.size(); }

  // Lifetime counters (across runs; the per-run numbers live in RunResult).
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t insertions() const { return insertions_; }
  std::uint64_t evictions() const { return evictions_; }

 private:
  struct Entry {
    std::uint64_t bytes = 0;
    std::uint64_t freq = 0;       ///< LFU
    std::uint64_t last_used = 0;  ///< LRU (logical tick)
    std::uint64_t inserted = 0;   ///< FIFO (logical tick)
    bool prefetched = false;
    std::uint32_t owner = kSharedOwner;
  };

  /// Policy victim among entries `inserter` may evict: its own, plus any
  /// unbudgeted entry. Returns false when every entry is another budgeted
  /// tenant's (nothing evictable).
  bool victim_for(std::uint32_t inserter, bool own_only,
                  storage::ChunkId* out) const;
  void evict_entry(storage::ChunkId id, InsertResult& result);

  const CacheConfig& config_;
  std::unordered_map<storage::ChunkId, Entry> entries_;
  std::map<std::uint32_t, std::uint64_t> budgets_;     ///< owner -> byte cap
  std::map<std::uint32_t, std::uint64_t> owner_used_;  ///< owner -> resident
  std::uint64_t used_ = 0;
  std::uint64_t tick_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t insertions_ = 0;
  std::uint64_t evictions_ = 0;
};

/// The caches of a deployment: one ChunkCache per site, created on demand,
/// all sharing one config. Owned by the caller and passed into runs via
/// RunOptions::cache, so contents persist across per-pass Platform rebuilds.
class CacheFleet {
 public:
  explicit CacheFleet(CacheConfig config) : config_(std::move(config)) {}

  ChunkCache& site(std::uint32_t site_id);
  const CacheConfig& config() const { return config_; }

  /// Per-tenant capacity share, applied to every existing and future site
  /// cache (StoreQos::cache_budgets feeds this).
  void set_owner_budget(std::uint32_t owner, std::uint64_t budget_bytes);

  /// Drop every site's contents (cold restart); lifetime counters survive.
  void clear();

  // Fleet-wide lifetime counters.
  std::uint64_t hits() const;
  std::uint64_t misses() const;

 private:
  CacheConfig config_;
  std::map<std::uint32_t, ChunkCache> sites_;
  std::map<std::uint32_t, std::uint64_t> owner_budgets_;
};

}  // namespace cloudburst::cache
