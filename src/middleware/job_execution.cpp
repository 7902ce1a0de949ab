#include "middleware/job_execution.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hpp"
#include "common/rng.hpp"

namespace cloudburst::middleware {

namespace {

/// Stochastic spot draws beyond this horizon are never scheduled: the DES
/// runs until its queue drains, so a reclaim drawn months into simulated
/// time must not keep the run alive.
constexpr double kSpotHorizonSeconds = 1e7;

using NodeEvent = RunOptions::LifecycleEvent;

/// A chaos plan's node event as the lifecycle entry it stands for; nullopt
/// for the plan's link, store and site windows.
std::optional<NodeEvent> as_node_event(const chaos::ChaosEvent& ev) {
  using ChaosKind = chaos::ChaosEvent::Kind;
  NodeEvent out{NodeEvent::Kind::Crash, ev.site_a, ev.node_index, ev.at_seconds,
                ev.notice_seconds};
  if (ev.kind == ChaosKind::NodeDrain) {
    out.kind = NodeEvent::Kind::Drain;
  } else if (ev.kind == ChaosKind::SpotReclaim) {
    out.kind = NodeEvent::Kind::SpotReclaim;
  } else if (ev.kind != ChaosKind::NodeCrash) {
    return std::nullopt;
  }
  return out;
}

/// Every scripted node event of a run: the lifecycle entries, then the chaos
/// plan's node events.
std::vector<NodeEvent> node_events(const RunOptions& options) {
  std::vector<NodeEvent> events = options.lifecycle;
  if (options.chaos) {
    for (const auto& ev : options.chaos->events) {
      if (const auto node_ev = as_node_event(ev)) events.push_back(*node_ev);
    }
  }
  return events;
}

}  // namespace

void validate_run(const cluster::Platform& platform, const storage::DataLayout& layout,
                  const RunOptions& options) {
  if ((options.task == nullptr) != (options.dataset == nullptr)) {
    throw std::invalid_argument("run_distributed: task and dataset must be set together");
  }
  if (platform.total_nodes() == 0) {
    throw std::invalid_argument("run_distributed: platform has no compute nodes");
  }
  if (layout.chunks().empty()) {
    throw std::invalid_argument("run_distributed: layout has no chunks");
  }
  for (const storage::FileInfo& file : layout.files()) {
    if (file.store >= platform.store_count()) {  // kInvalidStore included
      throw std::invalid_argument("run_distributed: layout file " + file.name +
                                  " names no store of this platform");
    }
  }
  if (options.policy.remote_selection == RemoteSelection::CheapestReplica &&
      options.replication == nullptr) {
    throw std::invalid_argument(
        "run_distributed: CheapestReplica remote selection requires "
        "RunOptions::replication");
  }

  // --- features that need the master to track per-slave work ----------------
  // Scripted node events (lifecycle entries and chaos plan node events
  // alike), stochastic spot reclamation and migration all lose nodes.
  const std::vector<NodeEvent> events = node_events(options);
  const bool loses_nodes = !events.empty() || options.spot.reclaim_rate_per_hour > 0.0 ||
                           options.migration.standby_nodes > 0;
  const bool chaos = options.chaos && !options.chaos->events.empty();
  const bool elastic = options.elastic.enabled;
  if (options.reduction_tree &&
      (options.checkpoint_interval_seconds > 0.0 || elastic || loses_nodes || chaos)) {
    throw std::invalid_argument(
        "run_distributed: checkpointing, elastic bursting, node events and chaos "
        "plans require reduction_tree = false (the master must track per-slave "
        "work)");
  }
  if (options.static_assignment && (elastic || loses_nodes || chaos)) {
    throw std::invalid_argument(
        "run_distributed: static assignment excludes elastic bursting, node events "
        "and chaos plans");
  }

  // --- delays ----------------------------------------------------------------
  // Each one reaches Simulator::schedule, which throws on a negative delay
  // mid-run, and des::from_seconds, where a NaN or an infinity is undefined
  // behaviour; each check is written so NaN fails it.
  const auto non_negative = [](double value, const char* what) {
    if (!(std::isfinite(value) && value >= 0.0)) {
      throw std::invalid_argument(std::string("run_distributed: ") + what +
                                  " must be finite and >= 0");
    }
  };
  non_negative(options.failure_detection_seconds, "failure detection time");
  non_negative(options.checkpoint_interval_seconds, "checkpoint interval");
  non_negative(options.elastic.boot_seconds, "elastic boot time");

  if (options.elastic.enabled) {
    const auto cloud_nodes = platform.cloud_node_count();
    if (cloud_nodes > 0 && options.elastic.initial_cloud_nodes == 0) {
      throw std::invalid_argument(
          "run_distributed: elastic bursting needs at least one initial cloud node");
    }
    if (!(std::isfinite(options.elastic.check_interval_seconds) &&
          options.elastic.check_interval_seconds > 0.0)) {
      throw std::invalid_argument(
          "run_distributed: elastic check interval must be finite and > 0");
    }
  }

  // --- dynamic control plane (directory) -------------------------------------
  if (!options.directory) {
    for (cluster::ClusterId site = 0; site < platform.cluster_count(); ++site) {
      for (const auto& node : platform.nodes(site)) {
        if (node.offline) {
          throw std::invalid_argument(
              "run_distributed: offline nodes (deferred capacity) require "
              "RunOptions::directory");
        }
      }
    }
  }

  // --- store retry -----------------------------------------------------------
  // Every delay reaches des::from_seconds, where a NaN or an infinity is
  // undefined behaviour; each check is written so NaN fails it.
  const storage::RetryPolicy& retry = options.retry;
  const auto require = [](bool ok, const char* rule) {
    if (!ok) throw std::invalid_argument(std::string("run_distributed: retry ") + rule);
  };
  const auto at_least = [](double v, double floor) { return std::isfinite(v) && v >= floor; };
  require(retry.max_attempts >= 1, "max_attempts must be >= 1");
  require(at_least(retry.backoff_base_seconds, 1e-3), "backoff base must be finite and >= 1 ms");
  require(std::isfinite(retry.backoff_multiplier) && retry.backoff_multiplier > 0.0,
          "backoff multiplier must be finite and > 0");
  require(at_least(retry.backoff_max_seconds, retry.backoff_base_seconds),
          "backoff max must be finite and >= the base");
  require(retry.jitter_fraction >= 0.0 && retry.jitter_fraction <= 1.0,
          "jitter fraction must be in [0, 1]");
  require(at_least(retry.attempt_timeout_seconds, 0.0), "attempt timeout must be finite and >= 0");
  require(at_least(retry.hedge_delay_seconds, 0.0), "hedge delay must be finite and >= 0");

  // --- store QoS -------------------------------------------------------------
  if (options.qos) {
    // Weight validation happened at StoreQos construction; what can only be
    // checked against *this* run's platform is whether granted reservations
    // still fit the stores' access links (mirrors the lifecycle combo checks:
    // fail loudly up front, not with a starved fair pool mid-run).
    options.qos->validate_against(platform);
  }

  // --- node loss -------------------------------------------------------------
  if (loses_nodes && options.elastic.enabled) {
    throw std::invalid_argument(
        "run_distributed: node events are mutually exclusive with elastic "
        "bursting (one policy decides when held cloud slaves activate)");
  }
  non_negative(options.spot.reclaim_rate_per_hour, "spot reclaim rate");
  // Every scripted removal (a drain also takes its node out of the run) must
  // leave each site one platform node; distinct victims only, so a node named
  // twice counts once.
  std::map<cluster::ClusterId, std::set<std::uint32_t>> victims;
  for (const NodeEvent& ev : events) {
    if (ev.site >= platform.cluster_count()) {
      throw std::invalid_argument("run_distributed: node event names an unknown site");
    }
    if (ev.node_index >= platform.nodes(ev.site).size()) {
      throw std::invalid_argument("run_distributed: node event names an unknown node");
    }
    if (ev.at_seconds < 0.0) {
      throw std::invalid_argument("run_distributed: node event time must be >= 0");
    }
    if (ev.kind == NodeEvent::Kind::SpotReclaim && ev.notice_seconds < 0.0) {
      throw std::invalid_argument("run_distributed: spot reclaim notice must be >= 0");
    }
    victims[ev.site].insert(ev.node_index);
  }
  for (const auto& [site, nodes] : victims) {
    if (nodes.size() >= platform.nodes(site).size()) {
      throw std::invalid_argument(
          "run_distributed: node events would leave a site with no live slaves");
    }
  }
  if (options.migration.standby_nodes > 0) {
    non_negative(options.migration.boot_seconds, "migration boot time");
    // setup_migration holds back the last standby_nodes cloud slaves in build
    // order, which runs site by site. A site whose slaves all fall among them
    // never asks for work, and the head waits for its robj forever.
    std::vector<std::size_t> members(platform.cluster_count(), 0);
    std::size_t cloud_slaves = 0;
    for (cluster::ClusterId site = 0; site < platform.cluster_count(); ++site) {
      if (!platform.is_cloud(site)) continue;
      for (const auto& node : platform.nodes(site)) {
        if (!options.directory || options.directory->node_live(node.endpoint)) {
          ++members[site];
          ++cloud_slaves;
        }
      }
    }
    const std::size_t standbys = options.migration.standby_nodes;
    if (cloud_slaves <= standbys) {
      throw std::invalid_argument(
          "run_distributed: migration standbys must leave at least one active "
          "cloud node");
    }
    const std::size_t first_held = cloud_slaves - standbys;
    std::size_t first_of_site = 0;  // build-order index among cloud slaves
    for (cluster::ClusterId site = 0; site < platform.cluster_count(); ++site) {
      if (members[site] > 0 && first_of_site >= first_held) {
        throw std::invalid_argument("run_distributed: migration standbys would hold back "
                                    "every slave of cloud site " +
                                    platform.site_name(site));
      }
      first_of_site += members[site];
    }
  }

  // --- scripted chaos --------------------------------------------------------
  if (chaos) {
    using ChaosKind = chaos::ChaosEvent::Kind;
    for (const auto& ev : options.chaos->events) {
      if (ev.at_seconds < 0.0) {
        throw std::invalid_argument("run_distributed: chaos event time must be >= 0");
      }
      if (ev.site_a >= platform.cluster_count()) {
        throw std::invalid_argument("run_distributed: chaos event names an unknown site");
      }
      switch (ev.kind) {
        case ChaosKind::LinkFault:
          if (ev.site_b >= platform.cluster_count() || ev.site_b == ev.site_a) {
            throw std::invalid_argument(
                "run_distributed: chaos link fault needs two distinct sites");
          }
          if (!(ev.factor >= 0.0 && ev.factor <= 1.0)) {  // NaN fails too
            throw std::invalid_argument(
                "run_distributed: chaos link factor must be in [0, 1]");
          }
          break;
        case ChaosKind::SitePartition:
          break;
        case ChaosKind::StoreOutage:
          if (platform.store_of_cluster(ev.site_a) == storage::kInvalidStore) {
            throw std::invalid_argument(
                "run_distributed: chaos store outage targets a site with no store");
          }
          break;
        case ChaosKind::SiteOutage:
          if (ev.site_a == cluster::kLocalSite) {
            throw std::invalid_argument(
                "run_distributed: a chaos site outage cannot black out the head's "
                "site");
          }
          break;
        case ChaosKind::NodeCrash:
        case ChaosKind::NodeDrain:
        case ChaosKind::SpotReclaim:
          break;  // checked with the lifecycle entries above
      }
    }
  }
}

JobExecution::JobExecution(cluster::Platform& platform, const storage::DataLayout& layout,
                           const RunOptions& options, net::Postman<Message>& postman,
                           std::uint32_t job_id, std::string trace_tag,
                           SlotArbiter* arbiter, std::function<void()> on_finished,
                           std::optional<std::vector<PoolLease>> pool_leases)
    : platform_(platform),
      ctx_{.platform = platform,
           .layout = layout,
           .options = options,
           .postman = postman,
           .job_id = job_id,
           .trace_tag = std::move(trace_tag),
           .arbiter = arbiter,
           .on_finished = std::move(on_finished)},
      pool_leases_(std::move(pool_leases)) {
  ctx_.recorder.init(platform.cluster_count(), platform.store_count());
  ctx_.on_node_lost = [this](cluster::ClusterId site) {
    if (lease_replacement(site)) return true;
    if (MasterNode* master = master_of(site); !master->has_capacity()) lose_cluster(master);
    return false;
  };
  setup_chunk_offsets();
  resolve_membership();
  setup_qos();
  setup_replication();
  build_prefetchers();
  build_actors();
  apply_static_assignment();
  setup_elastic();
  setup_migration();
  schedule_lifecycle();
  setup_pool();
  rent_initial_cloud();
  setup_directory();
  setup_chaos();
}

JobExecution::~JobExecution() {
  if (directory_watch_ != 0 && ctx_.options.directory) {
    ctx_.options.directory->unwatch(directory_watch_);
  }
}

void JobExecution::resolve_membership() {
  site_nodes_.resize(platform_.cluster_count());
  const directory::PlatformDirectory* dir = ctx_.options.directory;
  const bool pooled = pool_leases_.has_value();
  std::set<net::EndpointId> leased;
  if (pooled) {
    for (const PoolLease& lease : *pool_leases_) leased.insert(lease.node);
  }
  std::size_t live_total = 0;
  for (cluster::ClusterId site = 0; site < platform_.cluster_count(); ++site) {
    for (const auto& node : platform_.nodes(site)) {
      // Directory-absent (offline, retired) nodes do not exist for this job;
      // a pooled job's cloud membership is exactly its leases.
      if (dir && !dir->node_live(node.endpoint)) continue;
      if (!dir && node.offline) continue;  // validate_run already rejected this
      if (pooled && platform_.is_cloud(site) && !leased.count(node.endpoint)) {
        continue;
      }
      site_nodes_[site].push_back(node);
      ++live_total;
    }
  }
  if (live_total == 0) {
    throw std::invalid_argument(
        "run_distributed: the service directory lists no live compute nodes");
  }
}

void JobExecution::setup_directory() {
  directory::PlatformDirectory* dir = ctx_.options.directory;
  if (!dir) return;
  directory_watch_ = dir->watch([this](const directory::DirectoryEvent& ev) {
    if (ctx_.recorder.finished) return;
    replica::ReplicaSet* rs = ctx_.options.replication;
    if (!rs) return;
    // A retired store takes its resident copies with it: mark them lost so
    // reads re-route to surviving replicas and the repair actor re-creates
    // the coverage elsewhere. A retired *site* implies the same for its
    // affinity store — directory retire_site does not cascade, so a site
    // blackout that never issued the per-store event must still lose the
    // copies (mark_lost is idempotent when it did).
    storage::StoreId store = storage::kInvalidStore;
    if (ev.kind == directory::DirectoryEvent::Kind::StoreRetired) {
      store = ev.store;
    } else if (ev.kind == directory::DirectoryEvent::Kind::SiteRetired) {
      store = platform_.store_of_cluster(ev.site);
    }
    if (store == storage::kInvalidStore) return;
    for (const auto& chunk : ctx_.layout.chunks()) {
      if (!rs->is_live(chunk.id, store)) continue;
      if (rs->mark_lost(chunk.id, store, ctx_.now_seconds())) {
        ++ctx_.recorder.replica.replicas_lost;
        ctx_.trace(trace::EventKind::ReplicaLost, "replica", chunk.id, store);
      }
    }
  });
}

bool JobExecution::drain_node(net::EndpointId ep) {
  if (ctx_.options.reduction_tree) return false;  // no per-slave work tracking
  SlaveNode* victim = slave_by_endpoint(ep);
  if (!victim) return false;
  // A held node was never started or rented: retiring it only takes it out
  // of the reserve.
  if (master_of(victim->site())->dormant(ep)) std::erase(reserve_, victim);
  return start_drain(victim, /*notice_seconds=*/-1.0);
}

void JobExecution::setup_pool() {
  if (!pool_leases_) return;
  // A lease still booting is held and activated at once: it counts as
  // capacity that will pull, and starts when warm.
  for (const PoolLease& lease : *pool_leases_) {
    if (lease.ready_in_seconds <= 0.0) continue;  // warm: starts with the job
    SlaveNode* booting = slave_by_endpoint(lease.node);
    if (!booting) continue;  // lease on a site this job has no master for
    hold(booting);
    activate(booting, lease.ready_in_seconds, trace::EventKind::InstanceActivated);
  }
}

void JobExecution::hold(SlaveNode* slave) {
  reserve_.push_back(slave);
  std::erase(initial_active_, slave);
  master_of(slave->site())->mark_dormant(slave->endpoint());
}

void JobExecution::activate(SlaveNode* slave, double boot_seconds,
                            trace::EventKind kind) {
  std::erase(reserve_, slave);
  MasterNode* master = master_of(slave->site());
  // Booting: no push target yet, but counted as capacity that will pull.
  master->mark_leased(slave->endpoint());
  if (!pool_leases_) {
    // Bills from the moment it comes up; a pooled job's instance time bills
    // at the pool's lease windows instead.
    ctx_.recorder.rentals.push_back(
        {slave->endpoint(), ctx_.now_seconds() - ctx_.job_start_seconds + boot_seconds});
  }
  platform_.sim().schedule(des::from_seconds(boot_seconds), [this, slave, master, kind] {
    master->mark_booted(slave->endpoint());
    if (!losable(slave)) return;  // the run finished or the node died meanwhile
    // A migration names the lost node's site; the replacement shares it.
    ctx_.trace(kind, slave->name(),
               kind == trace::EventKind::JobMigrated ? slave->site() : 0, 0);
    slave->start();
  });
}

void JobExecution::rent_initial_cloud() {
  if (pool_leases_) return;  // the pool's lease windows bill
  for (SlaveNode* slave : initial_active_) {
    if (platform_.is_cloud(slave->site())) {
      ctx_.recorder.rentals.push_back({slave->endpoint(), 0.0});
    }
  }
}

SlaveNode* JobExecution::slave_by_endpoint(net::EndpointId ep) {
  for (auto& s : slaves_) {
    if (s->endpoint() == ep) return s.get();
  }
  return nullptr;
}

MasterNode* JobExecution::master_of(cluster::ClusterId site) {
  for (auto& m : masters_) {
    if (m->site() == site) return m.get();
  }
  return nullptr;
}

void JobExecution::setup_chunk_offsets() {
  // Real execution: map chunk ids to dataset unit offsets.
  const RunOptions& options = ctx_.options;
  if (!options.task) return;
  if (options.task->unit_bytes() != options.dataset->unit_bytes()) {
    throw std::invalid_argument("run_distributed: task/dataset unit size mismatch");
  }
  ctx_.chunk_unit_offset.resize(ctx_.layout.chunks().size());
  std::uint64_t offset = 0;
  for (const auto& chunk : ctx_.layout.chunks()) {
    ctx_.chunk_unit_offset[chunk.id] = offset;
    offset += chunk.units;
  }
  if (offset != options.dataset->units()) {
    throw std::invalid_argument(
        "run_distributed: layout units do not tile the dataset exactly");
  }
}

void JobExecution::setup_qos() {
  qos::StoreQos* q = ctx_.options.qos;
  if (!q) return;
  q->attach(platform_);
  ctx_.qos_tenant = q->tenant_id(ctx_.options.tenant);
  if (ctx_.options.tracer) q->set_tracer(ctx_.options.tracer);
  if (ctx_.options.cache) {
    // Per-tenant cache shares: explicitly-weighted tenants each get their
    // slice of every site cache; one tenant can no longer flush another's
    // working set.
    for (const auto& [tenant, budget] :
         q->cache_budgets(ctx_.options.cache->config().capacity_bytes)) {
      ctx_.options.cache->set_owner_budget(tenant, budget);
    }
  }
}

void JobExecution::setup_replication() {
  replica::ReplicaSet* rs = ctx_.options.replication;
  if (!rs) return;
  replication_built_here_ = !rs->built();
  rs->attach(ctx_.layout, platform_);
  if (replication_built_here_) {
    // The initial placement is this job's doing: count and trace the extra
    // copies it created (a workload job joining an already-built set is a
    // pure consumer and records nothing here).
    ctx_.recorder.replica.replicas_created += rs->replicas_created();
    for (const auto& [chunk, store] : rs->initial_extras()) {
      ctx_.trace(trace::EventKind::ReplicaCreated, "replica", chunk, store);
    }
  }
  if (rs->config().placement == replica::PlacementPolicy::HotChunk) {
    // Promotion heat: cache/prefetch hits when a fleet is attached; plain
    // per-chunk fetch counts otherwise (without the fallback an uncached run
    // would silently never promote anything).
    const replica::HeatSource source = ctx_.options.cache
                                           ? replica::HeatSource::CacheHits
                                           : replica::HeatSource::FetchCounts;
    rs->set_heat_source(source);
    if (replication_built_here_) {
      log::info("replica", "hot-chunk heat source: ", replica::to_string(source));
    }
  }

  replica::RepairActor::Env env;
  env.now = [this] { return ctx_.now_seconds(); };
  env.schedule = [this](double delay_seconds, std::function<void()> fn) {
    platform_.sim().schedule(des::from_seconds(delay_seconds), std::move(fn));
  };
  env.stopped = [this] { return ctx_.recorder.finished; };
  env.trace = [this](trace::EventKind kind, std::uint64_t a, std::uint64_t b) {
    ctx_.trace(kind, "repair", a, b);
  };
  // A repair is a store-to-store read: the destination's site pays the
  // egress from the source store, on the same retry/fault machinery (and
  // therefore the same recorder counters) as any slave fetch.
  env.transfer = [this](const replica::ReplicaSet::RepairTask& task,
                        std::function<void(bool ok)> done) {
    const cluster::ClusterId dst_site = platform_.owner_of_store(task.dst);
    const std::uint64_t bytes = ctx_.layout.chunk(task.chunk).bytes;
    ctx_.recorder.sites[dst_site].stores[task.src].bytes_fetched += bytes;
    // Repairs are background traffic: they bill to the "system" tenant and
    // queue behind (or alongside) foreground fetches at the source store's
    // arbiter.
    ctx_.read_chunk(dst_site, task.src, task.chunk, platform_.store(task.dst).endpoint(),
                    ctx_.options.retrieval_streams, "repair", qos::kSystemTenant, {},
                    [this, task, dst_site, bytes,
                     done = std::move(done)](const storage::FetchResult& r) {
                      if (!r.ok) {
                        // Nothing landed: revert the issue-time egress charge.
                        ctx_.recorder.sites[dst_site].stores[task.src].bytes_fetched -=
                            bytes;
                      }
                      if (done) done(r.ok);
                    });
  };
  env.on_repaired = [this](const replica::ReplicaSet::RepairTask& task) {
    ++ctx_.recorder.replica.replicas_repaired;
    ctx_.recorder.replica.repair_bytes += ctx_.layout.chunk(task.chunk).bytes;
  };
  repair_ = std::make_unique<replica::RepairActor>(*rs, std::move(env));
}

void JobExecution::build_prefetchers() {
  // One per compute site when the attached cache fleet enables prefetching.
  // The Env hooks close over this, which outlives the prefetchers.
  const RunOptions& options = ctx_.options;
  if (!options.cache || !options.cache->config().prefetch.enabled) return;
  ctx_.prefetchers.resize(platform_.cluster_count());
  for (cluster::ClusterId site = 0; site < platform_.cluster_count(); ++site) {
    if (site_nodes_[site].empty()) continue;
    cache::Prefetcher::Env env;
    env.wire_bytes = [this](std::uint64_t bytes) {
      return ctx_.options.profile.chunk_wire_bytes(bytes);
    };
    env.cacheable = [this, site](storage::StoreId s) {
      return ctx_.store_cacheable(site, s);
    };
    const std::string pf_name = "prefetch-" + platform_.site_name(site);
    const net::EndpointId master_ep = platform_.master_endpoint(site);
    const unsigned streams = std::max(1u, options.retrieval_streams);
    // Prefetch GETs are the same store read as slave fetches — retries, and
    // QoS admission billed to this run's tenant; a permanently failed GET
    // settles done(false) and the prefetcher aborts.
    env.fetch = [this, site, pf_name, master_ep, streams](
                    storage::StoreId s, const storage::ChunkInfo& wire,
                    std::function<void(bool ok)> done) {
      const storage::ChunkId chunk = wire.id;
      ctx_.read_chunk(site, s, chunk, master_ep, streams, pf_name, ctx_.qos_tenant, {},
                      [this, s, chunk, done = std::move(done)](const storage::FetchResult& r) {
                        // Clear the route-load charge resolve() booked for
                        // this GET without touching replica health.
                        if (ctx_.options.replication) {
                          ctx_.options.replication->settle_route(chunk, s);
                        }
                        if (done) done(r.ok);
                      });
    };
    env.trace = [this, pf_name](trace::EventKind kind, std::uint64_t a,
                                std::uint64_t b) { ctx_.trace(kind, pf_name, a, b); };
    env.on_issue = [this, site](storage::StoreId s, const storage::ChunkInfo& info) {
      ++ctx_.recorder.sites[site].prefetch_issued;
      ctx_.recorder.sites[site].stores[s].bytes_fetched += info.bytes;
    };
    env.on_abort = [this, site](storage::StoreId s, const storage::ChunkInfo& info) {
      ctx_.recorder.sites[site].stores[s].bytes_fetched -= info.bytes;
    };
    if (replica::ReplicaSet* rs = options.replication) {
      env.resolve = [this, rs, site](storage::ChunkId chunk) {
        return rs->resolve(chunk, site, ctx_.now_seconds());
      };
    }
    env.cache_owner = ctx_.cache_owner();
    ctx_.prefetchers[site] = std::make_unique<cache::Prefetcher>(
        options.cache->site(site), options.cache->config().prefetch, std::move(env));
  }
}

void JobExecution::build_actors() {
  for (cluster::ClusterId site = 0; site < platform_.cluster_count(); ++site) {
    const auto& nodes = site_nodes_[site];
    if (nodes.empty()) continue;
    const net::EndpointId master_ep = platform_.master_endpoint(site);
    master_infos_.push_back(
        HeadNode::MasterInfo{master_ep, platform_.store_of_cluster(site)});
    auto peers = std::make_shared<std::vector<net::EndpointId>>();
    for (const auto& node : nodes) peers->push_back(node.endpoint);
    masters_.push_back(std::make_unique<MasterNode>(
        ctx_, site, master_ep, platform_.head_endpoint(), *peers));
    std::uint32_t rank = 0;
    for (const auto& node : nodes) {
      const std::size_t stat_index = ctx_.recorder.nodes.size();
      NodeTimes times;
      times.name = node.name;
      times.cluster = site;
      ctx_.recorder.nodes.push_back(std::move(times));
      slaves_.push_back(
          std::make_unique<SlaveNode>(ctx_, node, master_ep, stat_index, rank++, peers));
    }
  }

  // The head's JobPool draws scheduler randomness from the run's seed, not
  // the SchedulerPolicy default.
  SchedulerPolicy policy = ctx_.options.policy;
  policy.random_seed = ctx_.options.random_seed;
  JobPool::ReplicaView view;
  if (replica::ReplicaSet* rs = ctx_.options.replication) {
    // The pool stays decoupled from cb_replica: it sees replicas only through
    // these two hooks (live-copy membership and route cost for a requester).
    view.on_store = [rs](storage::ChunkId chunk, storage::StoreId store) {
      return rs->is_live(chunk, store);
    };
    view.steal_cost = [this, rs](storage::ChunkId chunk, storage::StoreId preferred) {
      const cluster::ClusterId site = preferred == storage::kInvalidStore
                                          ? cluster::ClusterId{0}
                                          : platform_.owner_of_store(preferred);
      return rs->route_cost(chunk, site, ctx_.now_seconds());
    };
  }
  head_ = std::make_unique<HeadNode>(ctx_, platform_.head_endpoint(),
                                     JobPool(ctx_.layout, policy, std::move(view)),
                                     master_infos_);

  // --- wire mailboxes --------------------------------------------------------
  net::Postman<Message>& postman = ctx_.postman;
  const std::uint32_t job = ctx_.job_id;
  HeadNode* head = head_.get();
  postman.register_mailbox(head->endpoint(), job, [head](net::EndpointId from, Message msg) {
    head->handle(from, std::move(msg));
  });
  for (auto& master : masters_) {
    MasterNode* m = master.get();
    postman.register_mailbox(m->endpoint(), job, [m](net::EndpointId from, Message msg) {
      m->handle(from, std::move(msg));
    });
  }
  for (auto& slave : slaves_) {
    SlaveNode* s = slave.get();
    postman.register_mailbox(s->endpoint(), job, [s](net::EndpointId from, Message msg) {
      s->handle(from, std::move(msg));
    });
  }
  // Filled in one pass after the mailboxes: growing it between their
  // allocations fragmented the heap and raised perfbench fleet_burst's
  // peak RSS.
  for (auto& slave : slaves_) initial_active_.push_back(slave.get());
}

void JobExecution::apply_static_assignment() {
  const RunOptions& options = ctx_.options;
  if (!options.static_assignment) return;
  // Each chunk goes to the cluster whose preferred store holds it; chunks
  // on a store no active cluster prefers are dealt round-robin across the
  // clusters (a lone cluster therefore takes everything).
  std::map<storage::StoreId, std::size_t> store_owner;
  for (std::size_t m = 0; m < masters_.size(); ++m) {
    store_owner.emplace(master_infos_[m].preferred_store, m);
  }
  std::vector<std::vector<std::pair<net::EndpointId, storage::ChunkId>>> plans(
      masters_.size());
  std::vector<std::size_t> cursors(masters_.size(), 0);
  std::size_t orphan_cursor = 0;
  for (const auto& chunk : ctx_.layout.chunks()) {
    const auto it = store_owner.find(ctx_.layout.store_of(chunk.id));
    const std::size_t m =
        it != store_owner.end() ? it->second : orphan_cursor++ % masters_.size();
    const auto& nodes = site_nodes_[masters_[m]->site()];
    plans[m].emplace_back(nodes[cursors[m]++ % nodes.size()].endpoint, chunk.id);
  }
  for (std::size_t m = 0; m < masters_.size(); ++m) {
    masters_[m]->assign_static(plans[m]);
  }
}

void JobExecution::schedule_lifecycle() {
  for (const auto& ev : ctx_.options.lifecycle) schedule_node_event(ev);
  // One reclaim draw per cloud node in build order, held ones included.
  for (auto& slave : slaves_) {
    if (platform_.is_cloud(slave->site())) draw_spot_reclaim(slave.get());
  }
}

void JobExecution::draw_spot_reclaim(SlaveNode* slave) {
  const RunOptions::SpotPolicy& spot = ctx_.options.spot;
  if (spot.reclaim_rate_per_hour <= 0.0) return;
  Rng rng = Rng::substream(ctx_.options.random_seed, spot_streams_used_++);
  const double at = rng.exponential(spot.reclaim_rate_per_hour / 3600.0);
  if (at > kSpotHorizonSeconds || master_of(slave->site())->dormant(slave->endpoint())) return;
  schedule_drain(slave, at, std::max(0.0, spot.notice_seconds));
}

bool JobExecution::losable(const SlaveNode* slave) {
  return !ctx_.recorder.finished && slave->alive() &&
         !master_of(slave->site())->dormant(slave->endpoint());
}

bool JobExecution::start_drain(SlaveNode* victim, double notice_seconds) {
  if (!losable(victim) || victim->draining()) return false;
  const bool hard = notice_seconds >= 0.0;
  ctx_.trace(trace::EventKind::NodeDrainRequested, victim->name(),
             hard ? static_cast<std::uint64_t>(notice_seconds) : 0, hard ? 1 : 0);
  victim->begin_drain();
  return true;
}

void JobExecution::kill_node(SlaveNode* victim, trace::EventKind kind, bool provider_took) {
  ctx_.trace(kind, victim->name(), 0, 0);
  auto& lifecycle = ctx_.recorder.lifecycle;
  ++(kind == trace::EventKind::NodeReclaimed ? lifecycle.nodes_reclaimed
                                             : lifecycle.nodes_crashed);
  if (provider_took) {
    ctx_.recorder.end_cloud_billing(victim->endpoint(),
                                    ctx_.now_seconds() - ctx_.job_start_seconds);
  }
  victim->kill();
  std::erase(reserve_, victim);
}

void JobExecution::detect_loss(SlaveNode* victim, double delay_seconds) {
  platform_.sim().schedule(des::from_seconds(delay_seconds), [this, victim] {
    MasterNode* master = master_of(victim->site());
    if (ctx_.recorder.finished || master->dormant(victim->endpoint())) return;
    master->on_slave_failed(victim->endpoint());
  });
}

void JobExecution::schedule_node_event(const RunOptions::LifecycleEvent& ev) {
  // A node this job has no slave on (directory-filtered, not leased by a
  // pooled job) misses quietly: random chaos plans name such nodes freely.
  SlaveNode* victim = slave_by_endpoint(platform_.nodes(ev.site).at(ev.node_index).endpoint);
  if (!victim) return;
  using Kind = RunOptions::LifecycleEvent::Kind;
  if (ev.kind != Kind::Crash) {
    schedule_drain(victim, ev.at_seconds,
                   ev.kind == Kind::Drain ? -1.0 : std::max(0.0, ev.notice_seconds));
    return;
  }
  // The node goes silent; its master notices one heartbeat timeout later and
  // re-executes the un-checkpointed work. A node that already vacated (or is
  // still held) cannot crash.
  platform_.sim().schedule(des::from_seconds(ev.at_seconds), [this, victim] {
    if (losable(victim)) kill_node(victim, trace::EventKind::SlaveFailed, false);
  });
  detect_loss(victim, ev.at_seconds + ctx_.options.failure_detection_seconds);
}

void JobExecution::schedule_drain(SlaveNode* victim, double at_seconds, double notice_seconds) {
  platform_.sim().schedule(des::from_seconds(at_seconds), [this, victim, notice_seconds] {
    start_drain(victim, notice_seconds);
  });
  if (notice_seconds < 0.0) return;  // a plain drain has no deadline
  // Spot reclaim: the provider takes the node at the deadline, unless it
  // already vacated (or was dead or held at notice time).
  platform_.sim().schedule(des::from_seconds(at_seconds + notice_seconds), [this, victim] {
    if (!losable(victim)) return;
    kill_node(victim, trace::EventKind::NodeReclaimed, true);
    detect_loss(victim, ctx_.options.failure_detection_seconds);
  });
}

void JobExecution::setup_chaos() {
  const chaos::ChaosPlan* plan = ctx_.options.chaos;
  if (!plan) return;
  using ChaosKind = chaos::ChaosEvent::Kind;
  for (const auto& ev : plan->events) {
    const auto at = des::from_seconds(ev.at_seconds);
    const auto until = des::from_seconds(ev.at_seconds + ev.duration_seconds);
    const bool ends = ev.duration_seconds > 0.0;
    switch (ev.kind) {
      case ChaosKind::LinkFault: {
        const std::vector<net::LinkId> links{platform_.wan_link(ev.site_a, ev.site_b)};
        const double factor = ev.factor;
        const cluster::ClusterId a = ev.site_a;
        const cluster::ClusterId b = ev.site_b;
        platform_.sim().schedule(at, [this, links, factor, a, b] {
          fault_links(links, factor);
          // Feed the route oracle: readers should prefer replicas off the
          // degraded path until the suspect window lapses.
          if (replica::ReplicaSet* rs = ctx_.options.replication) {
            rs->mark_site_suspect(a, ctx_.now_seconds());
            rs->mark_site_suspect(b, ctx_.now_seconds());
          }
        });
        if (ends) platform_.sim().schedule(until, [this, links] { restore_links(links); });
        break;
      }
      case ChaosKind::SitePartition: {
        const std::vector<net::LinkId> links = wan_links_of(ev.site_a);
        const cluster::ClusterId site = ev.site_a;
        platform_.sim().schedule(at, [this, links, site] {
          fault_links(links, 0.0);
          if (replica::ReplicaSet* rs = ctx_.options.replication) {
            rs->mark_site_suspect(site, ctx_.now_seconds());
          }
        });
        if (ends) platform_.sim().schedule(until, [this, links] { restore_links(links); });
        break;
      }
      case ChaosKind::StoreOutage: {
        const storage::StoreId store = platform_.store_of_cluster(ev.site_a);
        if (store == storage::kInvalidStore) break;
        platform_.sim().schedule(at, [this, store] {
          store_offline(store);
          if (replica::ReplicaSet* rs = ctx_.options.replication) {
            rs->mark_store_suspect(store, ctx_.now_seconds());
          }
        });
        if (ends) platform_.sim().schedule(until, [this, store] { store_online(store); });
        break;
      }
      case ChaosKind::NodeCrash:
      case ChaosKind::NodeDrain:
      case ChaosKind::SpotReclaim:
        schedule_node_event(*as_node_event(ev));
        break;
      case ChaosKind::SiteOutage: {
        const cluster::ClusterId site = ev.site_a;
        platform_.sim().schedule(at, [this, site] { begin_site_outage(site); });
        if (ends) platform_.sim().schedule(until, [this, site] { recover_site(site); });
        break;
      }
    }
  }
}

std::vector<net::LinkId> JobExecution::wan_links_of(cluster::ClusterId site) const {
  std::vector<net::LinkId> links;
  for (cluster::ClusterId s = 0; s < platform_.cluster_count(); ++s) {
    if (s != site) links.push_back(platform_.wan_link(site, s));
  }
  return links;
}

void JobExecution::fault_links(const std::vector<net::LinkId>& links, double factor) {
  for (const net::LinkId link : links) {
    ctx_.trace(trace::EventKind::LinkDown, "chaos", link,
               static_cast<std::uint64_t>(factor * 1000.0));
    platform_.network().set_link_capacity_factor(link, factor);
  }
}

void JobExecution::restore_links(const std::vector<net::LinkId>& links) {
  for (const net::LinkId link : links) {
    platform_.network().set_link_capacity_factor(link, 1.0);
    ctx_.trace(trace::EventKind::LinkRestored, "chaos", link, 0);
  }
}

void JobExecution::store_offline(storage::StoreId store) {
  ctx_.trace(trace::EventKind::StoreOffline, "chaos", store, 0);
  platform_.store(store).set_offline(true);
}

void JobExecution::store_online(storage::StoreId store) {
  platform_.store(store).set_offline(false);
  ctx_.trace(trace::EventKind::StoreOnline, "chaos", store, 0);
}

void JobExecution::begin_site_outage(cluster::ClusterId site) {
  if (ctx_.recorder.finished) return;
  const double now = ctx_.now_seconds();

  // 1. Cut every WAN path touching the site: in-flight flows stall at rate 0
  //    until cancelled below (victims) or until recovery (bystanders).
  fault_links(wan_links_of(site), 0.0);

  // 2. The site's store goes dark *before* the nodes: its abort path fails
  //    every in-flight GET immediately, so remote readers re-enter their
  //    retry cycle and the route oracle steers them to surviving replicas.
  const storage::StoreId store = platform_.store_of_cluster(site);
  if (store != storage::kInvalidStore && !platform_.store(store).offline()) {
    store_offline(store);
  }
  if (replica::ReplicaSet* rs = ctx_.options.replication) {
    rs->mark_site_suspect(site, now);
    if (store != storage::kInvalidStore) rs->mark_store_suspect(store, now);
  }

  // 3. Directory: the site's services leave the platform. Nodes first (the
  //    workload manager closes their pool lease windows), then the store
  //    (the watcher above marks its replicas lost), then the site itself.
  if (directory::PlatformDirectory* dir = ctx_.options.directory) {
    const auto& nodes = platform_.nodes(site);
    for (std::uint32_t i = 0; i < nodes.size(); ++i) {
      if (dir->node_live(nodes[i].endpoint)) dir->retire_node(site, i);
    }
    if (store != storage::kInvalidStore && dir->store_live(store)) {
      dir->retire_store(store);
    }
    if (dir->site_live(site)) dir->retire_site(site);
  }

  // 4. Kill this job's slaves on the site; a cloud site's meters stop at the
  //    blackout (nobody pays for a rack that is gone). Held slaves die too
  //    and leave the reserve, so no controller activates (and bills) them.
  for (auto& s : slaves_) {
    if (s->site() == site && s->alive()) kill_node(s.get(), trace::EventKind::SlaveFailed, true);
  }

  // 5. Flows to or from the dead endpoints must settle, not sit in the
  //    per-link active lists holding shares forever.
  std::uint64_t cancelled = 0;
  for (auto& s : slaves_) {
    if (s->site() == site) {
      cancelled += platform_.network().cancel_flows_with_endpoint(s->endpoint());
    }
  }
  MasterNode* master = master_of(site);
  if (master) {
    cancelled += platform_.network().cancel_flows_with_endpoint(master->endpoint());
  }
  ctx_.trace(trace::EventKind::SiteOutage, "chaos", site, cancelled);

  // 6. Control plane: the cluster is lost.
  if (master) lose_cluster(master);
}

void JobExecution::lose_cluster(MasterNode* master) {
  if (master->evacuated()) return;
  // The master goes silent now; the head notices one detection interval
  // later and re-grants every chunk it had granted the lost cluster to the
  // survivors (exactly-once: the lost cluster's robj never merges).
  master->evacuate();
  platform_.sim().schedule(des::from_seconds(ctx_.options.failure_detection_seconds),
                           [this, ep = master->endpoint()] {
                             if (!ctx_.recorder.finished) head_->on_master_failed(ep);
                           });
}

void JobExecution::recover_site(cluster::ClusterId site) {
  // Fabric back first: links at nominal capacity, store serving again.
  restore_links(wan_links_of(site));
  const storage::StoreId store = platform_.store_of_cluster(site);
  if (store != storage::kInvalidStore && platform_.store(store).offline()) {
    store_online(store);
  }
  // Directory re-registration (generation bump): the recovered capacity is
  // placeable for *future* work — this job's dead slaves stay dead, and the
  // evacuated master never speaks again.
  if (directory::PlatformDirectory* dir = ctx_.options.directory) {
    if (!dir->site_live(site)) dir->register_site(site);
    if (store != storage::kInvalidStore && !dir->store_live(store)) {
      dir->register_store(store);
    }
    const auto& nodes = platform_.nodes(site);
    for (std::uint32_t i = 0; i < nodes.size(); ++i) {
      if (!dir->node_live(nodes[i].endpoint)) dir->register_node(site, i);
    }
  }
  ctx_.trace(trace::EventKind::SiteRecovered, "chaos", site, 0);
}

void JobExecution::setup_migration() {
  const std::uint32_t standbys = ctx_.options.migration.standby_nodes;
  if (standbys == 0) return;
  // Hold back the *last* `standbys` cloud slaves in build order; a lost node
  // activates one (lease_replacement).
  std::vector<SlaveNode*> cloud;
  for (auto& slave : slaves_) {
    if (platform_.is_cloud(slave->site())) cloud.push_back(slave.get());
  }
  for (std::size_t i = cloud.size() - standbys; i < cloud.size(); ++i) hold(cloud[i]);
}

bool JobExecution::lease_replacement(cluster::ClusterId site) {
  // Same-site only: a replacement pulls the lost node's re-pooled chunks from
  // its own master, so a held slave in another cluster cannot take over the
  // work. The reserve's order fixes which one, for determinism.
  const auto it = std::find_if(reserve_.begin(), reserve_.end(), [site](SlaveNode* s) {
    return s->site() == site && s->alive();
  });
  if (it == reserve_.end()) return false;
  SlaveNode* replacement = *it;
  const RunOptions& options = ctx_.options;
  activate(replacement,
           options.elastic.enabled ? options.elastic.boot_seconds
                                   : options.migration.boot_seconds,
           trace::EventKind::JobMigrated);
  ++ctx_.recorder.lifecycle.replacements_leased;
  // A leased replacement is itself a spot instance: give it its own reclaim
  // draw, measured from the lease.
  draw_spot_reclaim(replacement);
  return true;
}

void JobExecution::setup_elastic() {
  // Cloud slaves beyond the initial allocation are held; the controller
  // watches progress and activates them when the deadline is at risk.
  const RunOptions& options = ctx_.options;
  if (!options.elastic.enabled) return;
  std::uint32_t cloud_seen = 0;
  for (auto& slave : slaves_) {
    if (platform_.is_cloud(slave->site()) &&
        cloud_seen++ >= options.elastic.initial_cloud_nodes) {
      hold(slave.get());
    }
  }

  platform_.sim().schedule(des::from_seconds(options.elastic.check_interval_seconds),
                           [this] { elastic_tick(); });
}

void JobExecution::elastic_tick() {
  const RunOptions::ElasticPolicy& elastic = ctx_.options.elastic;
  if (ctx_.recorder.finished) return;  // run over: stop rescheduling
  const double now = ctx_.now_seconds();
  // Progress is measured over the job's own lifetime, not absolute sim
  // time — a workload job submitted late would otherwise look slow.
  const double elapsed = now - ctx_.job_start_seconds;
  const std::size_t total_chunks = ctx_.layout.chunks().size();
  std::size_t done = 0;
  for (const auto& n : ctx_.recorder.nodes) done += n.jobs;
  if (done < total_chunks && !reserve_.empty()) {
    // Projected completion at the current throughput. Before the first job
    // lands the projection is unknown: scale only once the deadline itself
    // has already slipped.
    const double rate = elapsed > 0.0 ? static_cast<double>(done) / elapsed : 0.0;
    const double remaining = static_cast<double>(total_chunks - done);
    const bool misses_deadline = rate > 0.0
                                     ? elapsed + remaining / rate > elastic.deadline_seconds
                                     : elapsed > elastic.deadline_seconds;
    if (misses_deadline) {
      for (std::uint32_t k = 0; k < elastic.activation_step && !reserve_.empty(); ++k) {
        ++ctx_.recorder.elastic_activations;
        activate(reserve_.front(), elastic.boot_seconds, trace::EventKind::InstanceActivated);
      }
    }
  }
  ctx_.sim().schedule(des::from_seconds(elastic.check_interval_seconds),
                      [this] { elastic_tick(); });
}

void JobExecution::start() {
  ctx_.job_start_seconds = ctx_.now_seconds();
  for (auto& master : masters_) master->start();
  for (SlaveNode* slave : initial_active_) slave->start();
  if (repair_) repair_->start();
}

void JobExecution::fence_kernels() {
  for (auto& slave : slaves_) slave->fence_kernels();
}

RunResult JobExecution::collect() {
  // Prefetches nobody consumed were wasted WAN work; settle them now that
  // every in-flight transfer has drained.
  for (cluster::ClusterId site = 0; site < ctx_.prefetchers.size(); ++site) {
    if (ctx_.prefetchers[site]) {
      ctx_.recorder.sites[site].prefetch_wasted +=
          static_cast<std::uint32_t>(ctx_.prefetchers[site]->finish());
    }
  }

  RunResult result;
  result.total_time = ctx_.recorder.end_time - ctx_.job_start_seconds;
  result.nodes = ctx_.recorder.nodes;
  result.robj = head_->take_robj();
  result.rentals = ctx_.recorder.rentals;
  result.lifecycle = ctx_.recorder.lifecycle;
  result.replica = ctx_.recorder.replica;
  if (ctx_.options.replication && replication_built_here_) {
    // Snapshot the live extra-copy bytes: the cost model bills them as extra
    // resident storage. Only the building job carries them so a workload
    // sharing one set does not bill the same copies once per tenant.
    result.replica.extra_replica_bytes = ctx_.options.replication->extra_bytes_per_store();
  }
  result.elastic_activations = ctx_.recorder.elastic_activations;
  result.clusters.resize(platform_.cluster_count());
  for (cluster::ClusterId site = 0; site < platform_.cluster_count(); ++site) {
    static_cast<SiteCounters&>(result.clusters[site]) = ctx_.recorder.sites[site];
    result.clusters[site].name = platform_.site_name(site);
  }
  // This job's own request counts: concurrent jobs share the stores, so a
  // store's global counter mixes every job's GETs.
  const SiteCounters totals = result.totals();
  result.store_requests.resize(platform_.store_count());
  for (storage::StoreId s = 0; s < platform_.store_count(); ++s) {
    result.store_requests[s] = totals.stores[s].requests;
    const auto& store_spec =
        platform_.spec().sites.at(platform_.owner_of_store(s)).store;
    if (store_spec && store_spec->kind == cluster::StoreSpec::Kind::Object) {
      result.s3_get_requests +=
          result.store_requests[s] * std::max(1u, ctx_.options.retrieval_streams);
    }
  }

  for (const auto& node : result.nodes) {
    auto& c = result.clusters[static_cast<std::size_t>(node.cluster)];
    c.processing += node.processing;
    c.retrieval += node.retrieval;
    // Sync: waiting for assignments during the run plus the tail between the
    // node's last job and the end of the global reduction.
    c.sync += node.wait + (ctx_.recorder.end_time - node.finish_time);
    c.proc_end_time = std::max(c.proc_end_time, node.finish_time);
    ++c.nodes;
  }
  for (auto& c : result.clusters) {
    if (c.nodes > 0) {
      c.processing /= c.nodes;
      c.retrieval /= c.nodes;
      c.sync /= c.nodes;
    }
  }

  // Idle time: how long each cluster waited for the other to finish
  // processing; global reduction time: the tail after the later one.
  double last_proc_end = 0.0;
  for (const auto& c : result.clusters) {
    if (c.nodes > 0) last_proc_end = std::max(last_proc_end, c.proc_end_time);
  }
  for (auto& c : result.clusters) {
    c.idle_time = c.nodes > 0 ? last_proc_end - c.proc_end_time : 0.0;
  }
  result.global_reduction_time = ctx_.recorder.end_time - last_proc_end;
  return result;
}

}  // namespace cloudburst::middleware
