// Shared state of one distributed run: wiring (simulator, network, postman),
// configuration, and the recorder the actors write their accounting into.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/generalized_reduction.hpp"
#include "cache/chunk_cache.hpp"
#include "cache/prefetcher.hpp"
#include "chaos/chaos_plan.hpp"
#include "cluster/platform.hpp"
#include "directory/platform_directory.hpp"
#include "engine/memory_dataset.hpp"
#include "middleware/app_profile.hpp"
#include "middleware/messages.hpp"
#include "middleware/run_result.hpp"
#include "middleware/scheduler.hpp"
#include "net/messaging.hpp"
#include "qos/store_qos.hpp"
#include "replica/replica_set.hpp"
#include "storage/retry.hpp"
#include "trace/trace.hpp"

namespace cloudburst::middleware {

/// Arbitration of compute-node processing slots among concurrent jobs.
///
/// A workload runs several jobs' slave actors on the same physical nodes;
/// each node still has one core, so at most one job may be processing on it
/// at any instant. Before computing a chunk a slave acquires its node's
/// slot, and releases it at the chunk boundary — the arbiter's discipline
/// (FIFO, weighted fair share, strict priority) decides who gets the core
/// next. Run-to-completion workloads (FIFO, SJF — run_distributed is a
/// one-job FIFO workload) have no arbiter (RunContext::arbiter == nullptr)
/// and skip the handshake entirely, so single-job paths stay byte-identical.
class SlotArbiter {
 public:
  virtual ~SlotArbiter() = default;

  /// Claim `node`'s slot for `job`. Returns true if granted synchronously
  /// (the caller starts processing now); otherwise the claim queues and
  /// `grant` fires — synchronously, inside a later release() — when the job
  /// wins the core. At most one outstanding claim per (node, job).
  virtual bool acquire(net::EndpointId node, std::uint32_t job,
                       std::function<void()> grant) = 0;

  /// Return the slot after `used_seconds` of processing; the arbiter hands
  /// it to the next queued claim per its share discipline.
  virtual void release(net::EndpointId node, std::uint32_t job, double used_seconds) = 0;

  /// Withdraw any queued claim and/or held slot (the slave died mid-run).
  virtual void forget(net::EndpointId node, std::uint32_t job) = 0;
};

struct RunOptions {
  AppProfile profile;
  SchedulerPolicy policy;

  /// Seed for the run's randomness: copied into SchedulerPolicy::random_seed
  /// when the head's JobPool is built, so RemoteSelection::Random ablations
  /// vary with the configured run seed instead of a constant baked into the
  /// policy default; stochastic spot reclaims draw from its substreams.
  std::uint64_t random_seed = 42;

  /// Parallel retrieval streams per chunk fetch (the slave's "multiple
  /// retrieval threads"); only object stores honor > 1.
  unsigned retrieval_streams = 8;

  /// Jobs a slave may hold concurrently. 1 == strict fetch-then-process
  /// (matches the paper's stacked time decomposition); > 1 prefetches.
  unsigned pipeline_depth = 1;

  /// Client-side retry policy wrapped around every store fetch (slave
  /// fetches and prefetcher GETs; a no-op on the never-failing local-store
  /// read path). The default is disengaged — one bare attempt, no timeout,
  /// no hedge — which leaves fault-free runs byte-identical. Pair with a
  /// StoreSpec::fault profile to exercise it.
  storage::RetryPolicy retry;

  /// Baseline ablation: pre-assign every chunk round-robin at start instead
  /// of on-demand pooling ("the pooling based job distribution enables
  /// fairness in load balancing" — this is the alternative it beats).
  /// Chunks stay on their own side's cluster; no stealing can happen.
  bool static_assignment = false;

  /// Optional *real* execution: when both are set, slaves actually run the
  /// task kernel over the dataset's unit ranges while the clock is simulated,
  /// and RunResult::robj carries the finalized global reduction object. The
  /// layout's unit counts must tile `dataset` exactly.
  const api::GRTask* task = nullptr;
  const engine::MemoryDataset* dataset = nullptr;

  /// Intra-cluster reduction topology. true: binomial tree over the slaves
  /// (fast, default). false: master-driven two-phase commit (JobDone
  /// tracking + RobjRequest) — required when nodes can be lost, since
  /// the master must know which work a dead slave's lost robj covered.
  bool reduction_tree = true;

  /// Heartbeat timeout: a master notices a dead slave (crash, hard reclaim)
  /// this long after it goes silent, and re-executes every chunk the slave
  /// had been assigned since its last reduction-object checkpoint.
  double failure_detection_seconds = 1.0;

  /// Periodic robj checkpointing (direct mode only; 0 = off): every interval
  /// the master pulls each live slave's delta robj, bounding the work a
  /// crash can lose to one interval instead of the whole run.
  double checkpoint_interval_seconds = 0.0;

  /// Node-lifecycle event: how a node leaves the run. `Crash` gives no
  /// notice: the node goes silent at `at_seconds`, its master detects that
  /// after failure_detection_seconds and re-executes the un-checkpointed
  /// work. `Drain` is an operator notice (maintenance): the slave stops
  /// claiming pool chunks, finishes what it holds, flushes a final
  /// delta-robj checkpoint, and vacates — zero completed work is lost.
  /// `SpotReclaim` is a drain with a hard deadline: `notice_seconds` after
  /// the notice the node is killed whether or not it vacated (EC2 spot
  /// semantics), and its billing stops at that instant. A chaos plan's
  /// NodeCrash/NodeDrain/SpotReclaim events are translated to these and run
  /// through the same scheduler and validation; an event naming a node this
  /// job has no slave on is a no-op.
  struct LifecycleEvent {
    enum class Kind : std::uint8_t { Crash, Drain, SpotReclaim };
    Kind kind = Kind::Crash;
    cluster::ClusterId site = cluster::kLocalSite;
    std::uint32_t node_index = 0;
    double at_seconds = 0.0;       ///< when the notice (or crash) fires
    double notice_seconds = 120.0; ///< SpotReclaim only: notice-to-kill window
  };
  std::vector<LifecycleEvent> lifecycle;

  /// Stochastic spot reclamation for cloud nodes: each cloud node draws one
  /// exponential reclaim time at `reclaim_rate_per_hour` (0 = off) from its
  /// own substream of `random_seed`; a draw inside the run behaves like a
  /// scheduled SpotReclaim with `notice_seconds` of warning.
  struct SpotPolicy {
    double reclaim_rate_per_hour = 0.0;
    double notice_seconds = 120.0;
  };
  SpotPolicy spot;

  /// Checkpointed migration: hold back the last `standby_nodes` cloud slaves
  /// in the job's reserve as unbilled standbys; when a node is lost (crash,
  /// drain, reclaim) with work remaining, a same-site one activates as a
  /// replacement — it boots for `boot_seconds`, bills from its boot, and
  /// pulls the lost node's re-pooled chunks (the checkpointed robj state
  /// already lives at the master, so nothing else moves). Requires
  /// reduction_tree = false; mutually exclusive with elastic bursting (one
  /// policy decides when held slaves activate).
  struct MigrationPolicy {
    std::uint32_t standby_nodes = 0;  ///< 0 = no migration
    double boot_seconds = 60.0;
  };
  MigrationPolicy migration;

  /// Elastic bursting (Elastic Site-style, from the paper's related work):
  /// start with `initial_cloud_nodes` cloud instances; a controller checks
  /// progress every `check_interval_seconds` and, when the projected
  /// completion misses `deadline_seconds`, activates `activation_step` more
  /// held instances (each taking `boot_seconds` to come up). A node lost
  /// with work remaining (a directory drain) activates a same-site held
  /// instance at once. Requires reduction_tree = false (held instances
  /// answer the commit with identity robjs) and initial_cloud_nodes >= 1.
  struct ElasticPolicy {
    bool enabled = false;
    double deadline_seconds = 0.0;
    std::uint32_t initial_cloud_nodes = 1;
    double check_interval_seconds = 5.0;
    double boot_seconds = 60.0;
    std::uint32_t activation_step = 1;
  };
  ElasticPolicy elastic;

  /// Optional event tracer (owned by the caller); records assignments,
  /// fetches, processing, robj movement, failures, activations.
  trace::Tracer* tracer = nullptr;

  /// Optional site-local chunk caches (owned by the caller so contents
  /// survive run_iterative's per-pass Platform rebuilds). nullptr (the
  /// default) keeps every fetch on the store path — paper-fidelity runs are
  /// byte-identical with no fleet attached.
  cache::CacheFleet* cache = nullptr;

  /// Optional chunk replication (owned by the caller, like the cache fleet,
  /// so replica state survives iterative passes and is shareable across a
  /// workload's jobs). When set, masters/slaves/prefetchers resolve chunk
  /// reads through the ReplicaSet's cheapest live replica, failed GETs mark
  /// copies lost, and a background repair actor re-replicates. nullptr (the
  /// default) keeps the single-owner read path — byte-identical paper runs.
  replica::ReplicaSet* replication = nullptr;

  /// Optional per-tenant store I/O QoS (owned by the caller, shareable
  /// across a workload's jobs). When set, every store fetch — slave,
  /// prefetcher, repair actor — is admitted through the store's
  /// weighted-fair arbiter under this run's tenant (repairs bill to the
  /// "system" tenant), and per-tenant cache shares apply when a fleet is
  /// also attached. nullptr (the default) gates nothing: paper runs stay
  /// byte-identical.
  qos::StoreQos* qos = nullptr;

  /// Tenant this run's store traffic bills to when `qos` is set. The
  /// workload manager overrides it with JobSpec::tenant per job.
  std::string tenant = "default";

  /// Optional runtime service directory (owned by the caller). When set, the
  /// job resolves platform membership through it at build time: only
  /// directory-Active nodes get slave actors, and a StoreRetired event marks
  /// the store's replicas lost so the repair actor re-replicates. nullptr
  /// (the default) trusts the static PlatformSpec — paper runs stay
  /// byte-identical.
  directory::PlatformDirectory* directory = nullptr;

  /// Optional scripted chaos plan (owned by the caller; pure data, see
  /// chaos/chaos_plan.hpp). When set, JobExecution schedules every fault
  /// window against this run: WAN link faults and partitions act on the
  /// platform's inter-site links, store outages flip the store offline and
  /// abort its in-flight GETs, node events run as `lifecycle` entries, and
  /// a site outage composes all of it — links cut, store dark, slaves
  /// killed, master evacuated, its uncommitted grants re-issued to
  /// surviving clusters — with directory-driven recovery at window end.
  /// Requires reduction_tree = false. nullptr (the default) leaves every
  /// run byte-identical to the un-chaosed simulator.
  const chaos::ChaosPlan* chaos = nullptr;
};

/// Mutable per-run recorder; actors write, the runtime aggregates.
struct RunRecorder {
  std::vector<NodeTimes> nodes;  ///< one per slave, global index order
  /// Every billed cloud instance. Under a workload, times are relative to
  /// the job's own start.
  std::vector<Rental> rentals;
  std::uint32_t elastic_activations = 0;
  /// Node-lifecycle accounting (drains, reclaims, checkpoints, migrations).
  LifecycleStats lifecycle;
  /// Per-site counters, indexed by ClusterId, each with one StoreTraffic per
  /// store; sized by init().
  std::vector<SiteCounters> sites;
  /// Replication accounting (extra_replica_bytes stays empty here; the
  /// runtime snapshots it from the ReplicaSet at collect time).
  ReplicaStats replica;
  double end_time = 0.0;
  bool finished = false;

  /// Size the per-site counters for a platform.
  void init(std::size_t clusters, std::size_t stores) {
    SiteCounters blank;
    blank.stores.resize(stores);
    sites.assign(clusters, blank);
  }

  /// Stop billing `node`'s open rental at `at_seconds` (job-relative). A node
  /// rented more than once (standby re-lease) closes its most recent open
  /// rental. No-op for nodes that were never billed (e.g. a drained local
  /// node).
  void end_cloud_billing(net::EndpointId node, double at_seconds) {
    for (auto it = rentals.rbegin(); it != rentals.rend(); ++it) {
      if (it->node == node && it->end < 0.0) {
        it->end = at_seconds;
        return;
      }
    }
  }
};

struct RunContext {
  cluster::Platform& platform;
  const storage::DataLayout& layout;
  const RunOptions& options;
  net::Postman<Message>& postman;
  RunRecorder recorder{};

  /// Global unit offset of each chunk (prefix sums over chunk ids); only
  /// populated for real-execution runs.
  std::vector<std::uint64_t> chunk_unit_offset{};

  /// Per-site prefetchers, indexed by ClusterId; empty (or null entries)
  /// unless the attached cache fleet enables prefetching.
  std::vector<std::unique_ptr<cache::Prefetcher>> prefetchers{};

  /// Identity of this run within its workload (the manager's 1-based job
  /// id); stamped on every control message, and the Postman routes on it.
  std::uint32_t job_id = 0;

  /// Prefix for trace actor names (e.g. "j3/"); empty when the workload has
  /// one job, so paper traces stay byte-identical. Gives each job its own
  /// Gantt lanes when several jobs share a tracer.
  std::string trace_tag;

  /// Core-slot arbiter of a concurrent workload (FairShare, Priority); null
  /// under run-to-completion policies (no acquire/release handshake at all).
  SlotArbiter* arbiter = nullptr;

  /// Fired once when the head completes the run's global reduction — the
  /// workload manager's job-completion signal.
  std::function<void()> on_finished;

  /// Sim time this job's start() ran; run times and lifecycle billing ends
  /// are recorded relative to it.
  double job_start_seconds = 0.0;

  /// Tenant id this run bills store traffic to (resolved from
  /// RunOptions::tenant by JobExecution when a StoreQos is attached;
  /// meaningless otherwise).
  qos::TenantId qos_tenant = qos::kSystemTenant;

  /// Cache-ownership tag for this run's insertions: the tenant id under QoS,
  /// shared residency otherwise.
  std::uint32_t cache_owner() const {
    return options.qos ? qos_tenant : cache::ChunkCache::kSharedOwner;
  }

  /// Admit a store access through the QoS arbiter (when attached) before
  /// running `launch`. Released synchronously when no QoS is attached, the
  /// store is a pass-through, or its arbiter is idle; a throttled release
  /// books the wait into the recorder and traces QosThrottled under `actor`.
  void qos_gate(cluster::ClusterId site, storage::StoreId store, std::uint64_t bytes,
                const std::string& actor, storage::ChunkId chunk,
                qos::TenantId tenant, std::function<void()> launch) {
    if (!options.qos) {
      launch();
      return;
    }
    options.qos->submit(store, tenant, bytes,
                        [this, site, store, actor, chunk,
                         launch = std::move(launch)](double waited_seconds) {
                          if (waited_seconds > 0.0) {
                            ++recorder.sites[site].qos_throttled;
                            recorder.sites[site].qos_wait_seconds += waited_seconds;
                            trace(trace::EventKind::QosThrottled, actor, chunk, store);
                          }
                          launch();
                        });
  }

  /// Fired by a master when a node is lost (crashed, reclaimed, or vacated)
  /// while the cluster still has work, or when work reaches a cluster with
  /// no running, draining or booting slave. Returns true if a held slave was
  /// activated as a replacement — the master then re-pools the lost chunks
  /// so the booting replacement (and idle survivors) pull them, instead of
  /// push-assigning everything to survivors immediately. Without a
  /// replacement, a cluster left with no such slave is lost: the master is
  /// evacuated and the head re-grants its work, as after a blackout.
  std::function<bool(cluster::ClusterId)> on_node_lost{};

  /// Fired by a slave the moment it vacates (drain settled, final delta-robj
  /// shipped). The workload manager uses it to settle cross-job drains:
  /// once every job sharing the node has vacated it, the node retires from
  /// the directory and leaves the pool.
  std::function<void(net::EndpointId)> on_node_vacated{};

  /// Should reads from `store` go through site `site`'s cache? Object-kind
  /// stores always qualify (they pay request latency and GET pricing even
  /// from their own site); any store other than the site's affinity store
  /// qualifies (WAN path); the site's own disk never does (the cache medium
  /// is no faster than the disk it would mirror).
  bool store_cacheable(cluster::ClusterId site, storage::StoreId store) const {
    if (!options.cache) return false;
    const cluster::ClusterId owner = platform.owner_of_store(store);
    const auto& store_spec = platform.spec().sites.at(owner).store;
    if (store_spec && store_spec->kind == cluster::StoreSpec::Kind::Object) return true;
    return store != platform.store_of_cluster(site);
  }

  /// Site `site`'s cache, iff a fleet is attached and `store` is cacheable.
  cache::ChunkCache* site_cache(cluster::ClusterId site, storage::StoreId store) {
    if (!store_cacheable(site, store)) return nullptr;
    return &options.cache->site(site);
  }

  cache::Prefetcher* prefetcher(cluster::ClusterId site) {
    return site < prefetchers.size() ? prefetchers[site].get() : nullptr;
  }

  des::Simulator& sim() { return platform.sim(); }
  double now_seconds() const { return des::to_seconds(platform.sim().now()); }

  /// Store a reader at `site` should fetch `chunk` from: the layout primary,
  /// or — with replication attached — the cheapest live replica right now.
  storage::StoreId resolve_store(cluster::ClusterId site, storage::ChunkId chunk) const {
    if (!options.replication) return layout.store_of(chunk);
    return options.replication->resolve(chunk, site, now_seconds());
  }

  void trace(trace::EventKind kind, const std::string& actor, std::uint64_t a = 0,
             std::uint64_t b = 0) {
    if (!options.tracer) return;
    options.tracer->record(now_seconds(), kind,
                           trace_tag.empty() ? actor : trace_tag + actor, a, b);
  }

  /// All control-plane sends go through here so every message carries the
  /// run's job id; shared endpoints demultiplex on it.
  void send(net::EndpointId src, net::EndpointId dst, std::uint64_t bytes, Message msg) {
    msg.job = job_id;
    postman.send(src, dst, bytes, std::move(msg));
  }

  /// The robj hand-off's send half: move `robj` into `msg` (a null robj, as
  /// in a timing-only run, moves nothing) and return the message's wire
  /// bytes, charged at the robj's serialized size. Callers fence any kernel
  /// lane writing into `robj` first.
  std::uint64_t pack_robj(api::RobjPtr& robj, Message& msg) const {
    msg.robj_bytes = robj ? robj->byte_size() : 0;
    msg.robj = std::move(robj);
    return options.profile.robj_wire_bytes(msg.robj_bytes);
  }

  /// The robj hand-off's receive half: `into` adopts `incoming` when still
  /// null, or folds it in. A no-op for a null `incoming` (timing-only run).
  static void merge_robj(api::RobjPtr& into, api::RobjPtr incoming) {
    if (!incoming) return;
    if (!into) {
      into = std::move(incoming);
    } else {
      into->merge_from(*incoming);
    }
  }

  /// The local/stolen ledger: book (`sign` = +1) or reverse (-1) site
  /// `site`'s read of `chunk` from `store`. A read from the site's own store
  /// is local, any other is stolen; either way the store's egress counts it.
  void book_read(cluster::ClusterId site, storage::ChunkId chunk, storage::StoreId store,
                 int sign) {
    // Unsigned wrap-around: times (uint64)-1 subtracts exactly.
    const std::uint64_t bytes = layout.chunk(chunk).bytes * static_cast<std::uint64_t>(sign);
    SiteCounters& rec = recorder.sites[site];
    if (store == platform.store_of_cluster(site)) {
      rec.jobs_local += static_cast<std::uint32_t>(sign);
      rec.bytes_local += bytes;
    } else {
      rec.jobs_stolen += static_cast<std::uint32_t>(sign);
      rec.bytes_stolen += bytes;
    }
    rec.stores[store].bytes_fetched += bytes;
  }

  /// `chunk` as it moves over the wire: its bytes compressed per the profile.
  storage::ChunkInfo wire_chunk(storage::ChunkId chunk) const {
    storage::ChunkInfo wire = layout.chunk(chunk);
    wire.bytes = options.profile.chunk_wire_bytes(wire.bytes);
    return wire;
  }

  /// The one store read of a chunk (slave fetches, prefetches, repairs):
  /// admit its wire bytes through qos_gate under `tenant`, then GET them
  /// from `store` to `reader` over `streams` connections under the run's
  /// RetryPolicy with the standard retry_hooks of `site` and `actor`.
  /// `abandoned`, if set, is asked once admission releases: true (the
  /// reader died while queued) drops the read before any GET is issued.
  void read_chunk(cluster::ClusterId site, storage::StoreId store, storage::ChunkId chunk,
                  net::EndpointId reader, unsigned streams, const std::string& actor,
                  qos::TenantId tenant, std::function<bool()> abandoned,
                  storage::FetchCallback done) {
    const storage::ChunkInfo wire = wire_chunk(chunk);
    qos_gate(site, store, wire.bytes, actor, chunk, tenant,
             [this, site, store, wire, reader, streams, actor,
              abandoned = std::move(abandoned), done = std::move(done)]() mutable {
               if (abandoned && abandoned()) return;
               storage::fetch_with_retry(sim(), platform.store(store), reader, wire, streams,
                                         options.retry,
                                         retry_hooks(site, actor, wire.id, store),
                                         std::move(done));
             });
  }

  /// Standard retry observer wiring for one fetch: fault/retry/hedge
  /// counters and wasted-byte egress accounting into the recorder, trace
  /// events under `actor`. Every read_chunk uses it.
  storage::RetryHooks retry_hooks(cluster::ClusterId site, std::string actor,
                                  storage::ChunkId chunk, storage::StoreId store) {
    storage::RetryHooks h;
    h.on_attempt = [this, site, store](unsigned) {
      ++recorder.sites[site].stores[store].requests;
    };
    h.on_fault = [this, site, actor, chunk](unsigned attempt, const storage::FetchResult&) {
      ++recorder.sites[site].store_faults;
      trace(trace::EventKind::StoreFault, actor, chunk, attempt);
    };
    h.on_backoff = [this, site, actor, chunk](unsigned next_attempt, double) {
      ++recorder.sites[site].fetch_retries;
      trace(trace::EventKind::RetryBackoff, actor, chunk, next_attempt);
    };
    h.on_hedge = [this, site, actor, chunk](unsigned attempt) {
      ++recorder.sites[site].hedges_issued;
      trace(trace::EventKind::HedgeIssued, actor, chunk, attempt);
    };
    h.on_hedge_win = [this, site, actor, chunk](unsigned attempt) {
      ++recorder.sites[site].hedges_won;
      trace(trace::EventKind::HedgeWon, actor, chunk, attempt);
    };
    h.on_wasted = [this, site, store](std::uint64_t bytes) {
      recorder.sites[site].stores[store].bytes_retried += bytes;
    };
    return h;
  }
};

}  // namespace cloudburst::middleware
