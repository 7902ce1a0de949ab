// Timing decomposition of a distributed run.
//
// Mirrors the paper's reporting: per-cluster stacked processing / data
// retrieval / sync time (Figure 3), per-cluster local vs stolen job counts
// (Table I), and global-reduction / idle-time / total-slowdown components
// (Table II). With an N-site platform there is one ClusterResult per site.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "api/reduction_object.hpp"
#include "cluster/platform.hpp"

namespace cloudburst::middleware {

/// Node-lifecycle accounting: crashes, graceful drains, spot reclamations,
/// checkpoint flushes, and migration leases. All zero under the default
/// model (no lifecycle events configured).
struct LifecycleStats {
  std::uint32_t drains_requested = 0;   ///< drain/reclaim notices delivered
  std::uint32_t nodes_vacated = 0;      ///< drains that completed gracefully
  std::uint32_t nodes_reclaimed = 0;    ///< hard-killed at the reclaim deadline
  std::uint32_t nodes_crashed = 0;      ///< lifecycle Crash events fired
  std::uint32_t replacements_leased = 0;  ///< held nodes activated for lost ones
  std::uint32_t chunks_returned = 0;    ///< assigned chunks handed back unstarted
  std::uint32_t chunks_reexecuted = 0;  ///< completed-but-lost chunks re-run
  std::uint64_t bytes_reexecuted = 0;   ///< wasted work: bytes of those chunks
  std::uint32_t checkpoint_flushes = 0; ///< delta robjs that protected new work
  std::uint64_t checkpoint_bytes = 0;   ///< wire bytes those flushes moved
};

/// Chunk-replication accounting: copies placed, lost to store faults, and
/// re-created by the repair actor. All zero (and extra_replica_bytes empty)
/// unless a ReplicaSet is attached via RunOptions::replication.
struct ReplicaStats {
  std::uint32_t replicas_created = 0;   ///< initial placement extra copies
  std::uint32_t replicas_lost = 0;      ///< copies marked dead after failed GETs
  std::uint32_t replicas_repaired = 0;  ///< repair transfers that landed
  std::uint64_t repair_bytes = 0;       ///< wire bytes repair transfers moved
  /// Live non-primary replica bytes per store at run end; the cost model
  /// bills the cloud stores' entries as extra resident storage.
  std::vector<std::uint64_t> extra_replica_bytes;
};

struct NodeTimes {
  std::string name;
  cluster::ClusterId cluster = 0;
  double processing = 0.0;  ///< seconds busy computing
  double retrieval = 0.0;   ///< seconds with an outstanding chunk fetch
  double wait = 0.0;        ///< seconds idle waiting for a job assignment
  double finish_time = 0.0; ///< when the node completed its last job
  std::uint32_t jobs = 0;
};

/// Bytes and requests one site moved against one store.
struct StoreTraffic {
  /// Bytes charged to the store when a chunk was assigned. The cost model
  /// derives provider egress from these (data a non-cloud site pulled out of
  /// a cloud store).
  std::uint64_t bytes_fetched = 0;
  /// Bytes of bytes_fetched that the site cache actually served: no WAN
  /// transfer happened, so the cost model credits them back.
  std::uint64_t bytes_from_cache = 0;
  /// Wire bytes that moved but were not the delivered copy (failed partial
  /// GETs, hedge losers, post-timeout arrivals). They crossed the provider's
  /// egress boundary, so the cost model bills them on top of bytes_fetched.
  std::uint64_t bytes_retried = 0;
  /// Fetch requests issued, counted at the retry layer (one per attempt or
  /// hedge leg).
  std::uint64_t requests = 0;

  StoreTraffic& operator+=(const StoreTraffic& o) {
    bytes_fetched += o.bytes_fetched;
    bytes_from_cache += o.bytes_from_cache;
    bytes_retried += o.bytes_retried;
    requests += o.requests;
    return *this;
  }
};

/// Every counter one site records during a run. A new counter is one field
/// here plus one line in operator+=.
struct SiteCounters {
  std::uint32_t jobs_local = 0;   ///< jobs whose data was on this site's store
  std::uint32_t jobs_stolen = 0;  ///< jobs fetched from a remote store
  std::uint64_t bytes_local = 0;
  std::uint64_t bytes_stolen = 0;

  // Site-cache accounting (all zero when no cache fleet is attached).
  std::uint32_t cache_hits = 0;       ///< fetches served by the site cache
  std::uint32_t cache_misses = 0;     ///< fetches that went to the store
  std::uint32_t prefetch_issued = 0;  ///< speculative GETs the prefetcher sent
  std::uint32_t prefetch_wasted = 0;  ///< issued but never consumed by a slave

  // Store-QoS accounting (all zero with no StoreQos attached).
  std::uint32_t qos_throttled = 0;   ///< fetches the arbiter held back
  double qos_wait_seconds = 0.0;     ///< total seconds fetches queued at stores

  // Fault / retry accounting (all zero under the default fault-free model).
  std::uint32_t store_faults = 0;   ///< failed or timed-out fetch attempts
  std::uint32_t fetch_retries = 0;  ///< backoffs taken before re-attempts
  std::uint32_t hedges_issued = 0;  ///< hedged second GETs launched
  std::uint32_t hedges_won = 0;     ///< hedges that beat the primary

  /// This site's traffic against each store, indexed by StoreId.
  std::vector<StoreTraffic> stores;

  /// Field-by-field sum; `stores` grows to the longer of the two.
  SiteCounters& operator+=(const SiteCounters& o) {
    jobs_local += o.jobs_local;
    jobs_stolen += o.jobs_stolen;
    bytes_local += o.bytes_local;
    bytes_stolen += o.bytes_stolen;
    cache_hits += o.cache_hits;
    cache_misses += o.cache_misses;
    prefetch_issued += o.prefetch_issued;
    prefetch_wasted += o.prefetch_wasted;
    qos_throttled += o.qos_throttled;
    qos_wait_seconds += o.qos_wait_seconds;
    store_faults += o.store_faults;
    fetch_retries += o.fetch_retries;
    hedges_issued += o.hedges_issued;
    hedges_won += o.hedges_won;
    if (stores.size() < o.stores.size()) stores.resize(o.stores.size());
    for (std::size_t s = 0; s < o.stores.size(); ++s) stores[s] += o.stores[s];
    return *this;
  }

  /// Fraction of fetches the site cache served; 0 when no cache ran.
  double cache_hit_rate() const {
    const double total = static_cast<double>(cache_hits) + cache_misses;
    return total > 0.0 ? static_cast<double>(cache_hits) / total : 0.0;
  }
};

/// One site's counters plus its share of the time split.
struct ClusterResult : SiteCounters {
  std::string name;  ///< site name ("local", "cloud", ...)

  /// Mean per-node seconds (the stacked bar of Figure 3).
  double processing = 0.0;
  double retrieval = 0.0;
  double sync = 0.0;  ///< barrier wait + reduction transfers + merge

  double proc_end_time = 0.0;  ///< when the cluster's last slave finished processing
  double idle_time = 0.0;      ///< waiting for the other clusters at the end
  std::uint32_t nodes = 0;
};

/// One billed cloud instance rental. Times are relative to the job's start.
struct Rental {
  net::EndpointId node = 0;  ///< physical node, so a workload bills a shared node once
  double start = 0.0;        ///< 0.0 = rented from the start; later for boots
  /// Billing end; negative = rented to the end of the run. Reclaimed or
  /// drained cloud nodes stop billing when they vacate or hit the deadline.
  double end = -1.0;
};

struct RunResult {
  double total_time = 0.0;             ///< wall-clock of the whole job (sim seconds)
  double global_reduction_time = 0.0;  ///< after the last cluster finished processing
  std::vector<ClusterResult> clusters; ///< one per platform site
  std::vector<NodeTimes> nodes;

  /// Requests each store served for this run: the sum over sites of
  /// StoreTraffic::requests (an object store issues retrieval_streams range
  /// GETs per request).
  std::vector<std::uint64_t> store_requests;
  /// Range GETs against object-kind stores (requests x streams) — the number
  /// the cost model prices and the benches report as "S3 requests".
  std::uint64_t s3_get_requests = 0;

  /// Every billed cloud instance. For non-elastic runs this is one rental per
  /// cloud instance from 0.0; elastic runs append booted instances at their
  /// activation times.
  std::vector<Rental> rentals;
  std::uint32_t elastic_activations = 0;  ///< instances booted mid-run

  /// Node-lifecycle accounting (all zero with no lifecycle events).
  LifecycleStats lifecycle;

  /// Chunk-replication accounting (all zero with no ReplicaSet attached).
  ReplicaStats replica;

  /// Present when RunOptions carried a real task: the finalized global robj.
  api::RobjPtr robj;

  const ClusterResult& side(cluster::ClusterId s) const { return clusters.at(s); }

  /// Every site's counters summed.
  SiteCounters totals() const {
    SiteCounters sum;
    for (const auto& c : clusters) sum += c;
    return sum;
  }

  std::uint32_t total_jobs() const {
    const SiteCounters sum = totals();
    return sum.jobs_local + sum.jobs_stolen;
  }
  /// Fraction of fetches the site caches served; 0 when no cache ran.
  double cache_hit_rate() const { return totals().cache_hit_rate(); }
  /// Total wasted wire bytes across all site/store pairs.
  std::uint64_t bytes_retried_total() const {
    std::uint64_t n = 0;
    for (const StoreTraffic& t : totals().stores) n += t.bytes_retried;
    return n;
  }
};

}  // namespace cloudburst::middleware
