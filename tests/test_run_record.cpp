// Run-record pin: one composed three-site run, one elastic run and one
// two-job workload, with every counter the recorder keeps folded into a
// 64-bit FNV-1a digest. Two more pins cover the ways a run adds capacity: a
// migration run (standbys leased after spot reclaims and a crash) and a
// pooled workload (cold leases that boot, an idle reap, a cross-job drain);
// they hash what those paths decide — rentals, activations, node-loss
// counters, per-node work, the makespan and the trace without actor names.
// A real-execution pin runs an apps kernel with payload-sized robjs, so it
// also hashes the final reduction object's bytes. The KernelLanes pins run
// the four apps kernels (wordcount, knn, kmeans, pagerank) in direct mode,
// with checkpoints and a drained node, and in tree mode; each run's robj
// bytes and digest must equal those of the same run through a delegating
// task that processes inline. The digests are fixed, so any change to what a run
// records — a counter moved, dropped, double-counted or re-ordered — fails
// here. Each counter group is also checked non-zero, so the pin is never
// vacuous. The composed run drives every counter source at once: site caches
// with prefetch, store faults under retries and hedges, QoS throttling, k = 2
// replication with repair, a graceful drain and a hard spot reclaim.
// The RunRecord tests check that a solo run's per-site request counts sum to
// the stores' own counters, and that SiteCounters sums field by field.
// The RobjHandoffPin tests run wordcount, kmeans and pagerank with
// checkpoints short enough that idle slaves ship identity robjs, and pin the
// checkpoint accounting, every shipped robj's wire bytes and the final robj.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "api/combiners.hpp"
#include "apps/datagen.hpp"
#include "apps/kmeans.hpp"
#include "apps/knn.hpp"
#include "apps/pagerank.hpp"
#include "apps/scenarios.hpp"
#include "apps/wordcount.hpp"
#include "cache/chunk_cache.hpp"
#include "common/serialize.hpp"
#include "common/units.hpp"
#include "cost/cost_model.hpp"
#include "directory/platform_directory.hpp"
#include "middleware/runtime.hpp"
#include "qos/store_qos.hpp"
#include "replica/replica_set.hpp"
#include "storage/data_layout.hpp"
#include "trace/trace.hpp"
#include "workload/workload_manager.hpp"

namespace cloudburst {
namespace {

using namespace cloudburst::units;
using cluster::Platform;
using cluster::PlatformSpec;
using middleware::RunOptions;
using middleware::RunResult;
using Kind = middleware::RunOptions::LifecycleEvent::Kind;

/// 64-bit FNV-1a over the little-endian bytes of every value added.
class Fnv {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xffu;
      hash_ *= 0x100000001b3ull;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }

  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/// Sums of every counter group over the runs hashed so far; each must end up
/// non-zero for the pin to mean anything.
struct Seen {
  std::uint64_t jobs_local = 0, jobs_stolen = 0, bytes_local = 0, bytes_stolen = 0;
  std::uint64_t cache_hits = 0, cache_misses = 0, prefetch_issued = 0, prefetch_wasted = 0;
  std::uint64_t qos_throttled = 0;
  double qos_wait_seconds = 0.0;
  std::uint64_t store_faults = 0, fetch_retries = 0, hedges_issued = 0, hedges_won = 0;
  std::uint64_t from_store = 0, from_cache = 0, retried = 0;
  std::uint64_t store_requests = 0, s3_get_requests = 0;
  std::uint64_t rentals = 0, rentals_ended = 0, rentals_started_late = 0;
  std::uint64_t activations = 0;
  double usd = 0.0;
};

void hash_run(Fnv& h, Seen& seen, const RunResult& r) {
  h.add(r.total_time);
  for (std::size_t c = 0; c < r.clusters.size(); ++c) {
    const auto& k = r.clusters[c];
    h.add(std::uint64_t{k.jobs_local});
    h.add(std::uint64_t{k.jobs_stolen});
    h.add(k.bytes_local);
    h.add(k.bytes_stolen);
    h.add(std::uint64_t{k.cache_hits});
    h.add(std::uint64_t{k.cache_misses});
    h.add(std::uint64_t{k.prefetch_issued});
    h.add(std::uint64_t{k.prefetch_wasted});
    h.add(std::uint64_t{k.qos_throttled});
    h.add(k.qos_wait_seconds);
    h.add(std::uint64_t{k.store_faults});
    h.add(std::uint64_t{k.fetch_retries});
    h.add(std::uint64_t{k.hedges_issued});
    h.add(std::uint64_t{k.hedges_won});
    seen.jobs_local += k.jobs_local;
    seen.jobs_stolen += k.jobs_stolen;
    seen.bytes_local += k.bytes_local;
    seen.bytes_stolen += k.bytes_stolen;
    seen.cache_hits += k.cache_hits;
    seen.cache_misses += k.cache_misses;
    seen.prefetch_issued += k.prefetch_issued;
    seen.prefetch_wasted += k.prefetch_wasted;
    seen.qos_throttled += k.qos_throttled;
    seen.qos_wait_seconds += k.qos_wait_seconds;
    seen.store_faults += k.store_faults;
    seen.fetch_retries += k.fetch_retries;
    seen.hedges_issued += k.hedges_issued;
    seen.hedges_won += k.hedges_won;
    for (std::size_t s = 0; s < r.store_requests.size(); ++s) {
      const std::uint64_t from_store = k.stores[s].bytes_fetched;
      const std::uint64_t from_cache = k.stores[s].bytes_from_cache;
      const std::uint64_t retried = k.stores[s].bytes_retried;
      h.add(from_store);
      h.add(from_cache);
      h.add(retried);
      seen.from_store += from_store;
      seen.from_cache += from_cache;
      seen.retried += retried;
    }
  }
  for (std::uint64_t n : r.store_requests) {
    h.add(n);
    seen.store_requests += n;
  }
  h.add(r.s3_get_requests);
  seen.s3_get_requests += r.s3_get_requests;
  for (const middleware::Rental& rental : r.rentals) {
    const double start = rental.start;
    const double end = rental.end;
    h.add(std::uint64_t{rental.node});
    h.add(start);
    h.add(end);
    ++seen.rentals;
    if (start > 0.0) ++seen.rentals_started_late;
    if (end >= 0.0) ++seen.rentals_ended;
  }
  h.add(std::uint64_t{r.elastic_activations});
  seen.activations += r.elastic_activations;
}

/// What the capacity paths decide for one run: the makespan, every rental,
/// the activation and node-loss counters, and each node's chunk count.
void hash_capacity(Fnv& h, const RunResult& r) {
  h.add(r.total_time);
  for (const middleware::Rental& rental : r.rentals) {
    h.add(std::uint64_t{rental.node});
    h.add(rental.start);
    h.add(rental.end);
  }
  h.add(std::uint64_t{r.elastic_activations});
  const middleware::LifecycleStats& l = r.lifecycle;
  for (const std::uint64_t v :
       {std::uint64_t{l.drains_requested}, std::uint64_t{l.nodes_vacated},
        std::uint64_t{l.nodes_reclaimed}, std::uint64_t{l.nodes_crashed},
        std::uint64_t{l.replacements_leased}, std::uint64_t{l.chunks_returned},
        std::uint64_t{l.chunks_reexecuted}, l.bytes_reexecuted,
        std::uint64_t{l.checkpoint_flushes}, l.checkpoint_bytes}) {
    h.add(v);
  }
  for (const middleware::NodeTimes& node : r.nodes) h.add(std::uint64_t{node.jobs});
}

/// Every traced event as (t, kind, a, b). Actor names are left out: they are
/// labels, not decisions.
void hash_trace(Fnv& h, const trace::Tracer& tracer) {
  for (const trace::Event& e : tracer.events()) {
    h.add(e.t);
    h.add(static_cast<std::uint64_t>(e.kind));
    h.add(e.a);
    h.add(e.b);
  }
}

void hash_cost(Fnv& h, Seen& seen, const cost::CostReport& c) {
  h.add(c.instance_hours);
  h.add(c.instance_usd);
  h.add(c.get_requests);
  h.add(c.requests_usd);
  h.add(c.transfer_out_gb);
  h.add(c.transfer_usd);
  h.add(c.storage_gb);
  h.add(c.storage_usd);
  seen.usd += c.total_usd();
}

/// Local cluster bursting into two cloud providers with faulty stores.
PlatformSpec three_site_spec() {
  PlatformSpec spec = apps::east_west_spec(8, 8);
  for (std::size_t site = 1; site < 3; ++site) {
    auto& fault = spec.sites[site].store->fault;
    fault.fail_probability = 0.4;
    fault.hang_probability = 0.15;
    fault.hang_seconds = 20.0;
  }
  return spec;
}

storage::DataLayout spread_layout(const Platform& platform, std::uint64_t bytes) {
  storage::LayoutSpec lspec;
  lspec.total_bytes = bytes;
  lspec.num_files = 12;
  lspec.chunks_per_file = 4;
  lspec.unit_bytes = 64;
  storage::DataLayout layout = storage::build_layout(lspec);
  apps::spread_evenly(layout, platform);
  return layout;
}

RunOptions faulty_options() {
  RunOptions o;
  o.profile.name = "pin";
  o.profile.unit_bytes = 64;
  o.profile.bytes_per_second_per_core = MBps(4);
  o.profile.robj_bytes = KiB(64);
  o.reduction_tree = false;
  o.retry.max_attempts = 2;
  o.retry.backoff_base_seconds = 0.05;
  o.retry.attempt_timeout_seconds = 5.0;
  o.retry.hedge_delay_seconds = 0.5;
  return o;
}

/// Every counter group the composed run and the workload must exercise.
void expect_counters_nonzero(const Seen& seen) {
  EXPECT_GT(seen.jobs_local, 0u);
  EXPECT_GT(seen.jobs_stolen, 0u);
  EXPECT_GT(seen.bytes_local, 0u);
  EXPECT_GT(seen.bytes_stolen, 0u);
  EXPECT_GT(seen.cache_hits, 0u);
  EXPECT_GT(seen.cache_misses, 0u);
  EXPECT_GT(seen.prefetch_issued, 0u);
  EXPECT_GT(seen.prefetch_wasted, 0u);
  EXPECT_GT(seen.qos_throttled, 0u);
  EXPECT_GT(seen.qos_wait_seconds, 0.0);
  EXPECT_GT(seen.store_faults, 0u);
  EXPECT_GT(seen.fetch_retries, 0u);
  EXPECT_GT(seen.hedges_issued, 0u);
  EXPECT_GT(seen.hedges_won, 0u);
  EXPECT_GT(seen.from_store, 0u);
  EXPECT_GT(seen.from_cache, 0u);
  EXPECT_GT(seen.retried, 0u);
  EXPECT_GT(seen.store_requests, 0u);
  EXPECT_GT(seen.s3_get_requests, 0u);
  EXPECT_GT(seen.rentals, 0u);
  EXPECT_GT(seen.usd, 0.0);
}

/// The composed solo run: cache + prefetch, faults + hedges, QoS, k = 2
/// replication with repair, a drain and a spot reclaim. One bare attempt per
/// fetch: a failed GET writes its replica off at once, so the repair actor
/// has work.
struct ComposedRun {
  Platform platform{three_site_spec()};
  storage::DataLayout layout = spread_layout(platform, MiB(768));
  cache::CacheFleet fleet{cache_config()};
  replica::ReplicaSet rs{replication_config()};
  qos::StoreQos q;
  RunOptions options = faulty_options();
  RunResult result;

  ComposedRun() {
    options.cache = &fleet;
    options.replication = &rs;
    options.qos = &q;
    options.retry.max_attempts = 1;
    options.lifecycle.push_back({Kind::Drain, 1, 1, 6.0});
    options.lifecycle.push_back({Kind::SpotReclaim, 2, 2, 8.0, 0.001});
    result = middleware::run_distributed(platform, layout, options);
  }

  static cache::CacheConfig cache_config() {
    cache::CacheConfig c;
    c.capacity_bytes = MiB(96);
    c.prefetch.enabled = true;
    c.prefetch.depth = 4;
    return c;
  }
  static replica::ReplicationConfig replication_config() {
    replica::ReplicationConfig c = apps::cross_site_replication();
    c.repair_interval_seconds = 0.5;
    return c;
  }
};

TEST(RunRecordPin, ComposedThreeSiteRun) {
  ComposedRun run;
  const RunResult& result = run.result;
  EXPECT_GE(result.total_jobs(), 48u);
  EXPECT_GT(result.replica.replicas_repaired, 0u);
  EXPECT_EQ(result.lifecycle.drains_requested, 2u);
  EXPECT_EQ(result.lifecycle.nodes_reclaimed, 1u);

  Fnv h;
  Seen seen;
  hash_run(h, seen, result);
  hash_cost(h, seen, cost::price_run(result, run.platform, run.layout, run.options,
                                     cost::CloudPricing::aws_2011()));
  expect_counters_nonzero(seen);
  EXPECT_GT(seen.rentals_ended, 0u);
  EXPECT_EQ(h.hex(), "448d3cf25a08b497");
}

// A solo run's per-job request counts are the stores' own counters: every
// GET the stores served was issued by this run's retry layer.
TEST(RunRecord, SoloStoreRequestsMatchStoreCounters) {
  ComposedRun run;
  ASSERT_EQ(run.result.store_requests.size(), run.platform.store_count());
  for (storage::StoreId s = 0; s < run.platform.store_count(); ++s) {
    EXPECT_EQ(run.result.store_requests[s], run.platform.store(s).stats().requests)
        << "store " << s;
  }
}

TEST(RunRecord, SiteCountersSumFieldByFieldAndGrowStores) {
  middleware::SiteCounters a;
  a.jobs_local = 1;
  a.bytes_stolen = 2;
  a.qos_wait_seconds = 0.25;
  a.hedges_won = 3;
  a.stores.resize(1);
  a.stores[0] = {10, 20, 30, 40};
  middleware::SiteCounters b;
  b.jobs_local = 4;
  b.jobs_stolen = 5;
  b.bytes_local = 6;
  b.bytes_stolen = 7;
  b.cache_hits = 8;
  b.cache_misses = 9;
  b.prefetch_issued = 10;
  b.prefetch_wasted = 11;
  b.qos_throttled = 12;
  b.qos_wait_seconds = 0.5;
  b.store_faults = 13;
  b.fetch_retries = 14;
  b.hedges_issued = 15;
  b.hedges_won = 16;
  b.stores.resize(3);
  b.stores[0] = {1, 2, 3, 4};
  b.stores[2] = {5, 6, 7, 8};

  a += b;
  EXPECT_EQ(a.jobs_local, 5u);
  EXPECT_EQ(a.jobs_stolen, 5u);
  EXPECT_EQ(a.bytes_local, 6u);
  EXPECT_EQ(a.bytes_stolen, 9u);
  EXPECT_EQ(a.cache_hits, 8u);
  EXPECT_EQ(a.cache_misses, 9u);
  EXPECT_EQ(a.prefetch_issued, 10u);
  EXPECT_EQ(a.prefetch_wasted, 11u);
  EXPECT_EQ(a.qos_throttled, 12u);
  EXPECT_DOUBLE_EQ(a.qos_wait_seconds, 0.75);
  EXPECT_EQ(a.store_faults, 13u);
  EXPECT_EQ(a.fetch_retries, 14u);
  EXPECT_EQ(a.hedges_issued, 15u);
  EXPECT_EQ(a.hedges_won, 19u);
  ASSERT_EQ(a.stores.size(), 3u);
  EXPECT_EQ(a.stores[0].bytes_fetched, 11u);
  EXPECT_EQ(a.stores[0].bytes_from_cache, 22u);
  EXPECT_EQ(a.stores[0].bytes_retried, 33u);
  EXPECT_EQ(a.stores[0].requests, 44u);
  EXPECT_EQ(a.stores[1].requests, 0u);
  EXPECT_EQ(a.stores[2].bytes_fetched, 5u);
  EXPECT_EQ(a.stores[2].requests, 8u);

  // A shorter right-hand side leaves the extra stores as they were.
  middleware::SiteCounters one_store;
  one_store.stores.resize(1);
  one_store.stores[0].requests = 1;
  a += one_store;
  ASSERT_EQ(a.stores.size(), 3u);
  EXPECT_EQ(a.stores[0].requests, 45u);
  EXPECT_EQ(a.stores[2].requests, 8u);
}

TEST(RunRecordPin, ElasticRun) {
  // Deadline-driven activations: rentals that bill from their boot time.
  Platform platform(PlatformSpec::paper_testbed(8, 16));
  storage::DataLayout layout = spread_layout(platform, MiB(1536));
  storage::assign_stores_by_fraction(layout, 0.0, 0, 1);
  RunOptions o;
  o.profile.name = "pin-elastic";
  o.profile.unit_bytes = 64;
  o.profile.bytes_per_second_per_core = MBps(2);
  o.profile.robj_bytes = KiB(64);
  o.reduction_tree = false;
  o.elastic.enabled = true;
  o.elastic.initial_cloud_nodes = 1;
  o.elastic.check_interval_seconds = 2.0;
  o.elastic.boot_seconds = 10.0;
  o.elastic.activation_step = 2;
  o.elastic.deadline_seconds = 60.0;
  const RunResult result = middleware::run_distributed(platform, layout, o);
  EXPECT_EQ(result.total_jobs(), 48u);

  Fnv h;
  Seen seen;
  hash_run(h, seen, result);
  hash_cost(h, seen, cost::price_run(result, platform, layout, o,
                                     cost::CloudPricing::aws_2011()));
  EXPECT_GT(seen.activations, 0u);
  EXPECT_GT(seen.rentals_started_late, 0u);
  EXPECT_GT(seen.usd, 0.0);
  EXPECT_EQ(h.hex(), "778e7317c11c30a4");
}

TEST(RunRecordPin, TwoJobWorkload) {
  // Two tenants share the faulty platform, its cache, replicas and QoS; the
  // retry layer takes a second attempt before a fetch cycle fails.
  Platform platform(three_site_spec());
  const storage::DataLayout layout = spread_layout(platform, MiB(384));
  cache::CacheConfig ccfg;
  ccfg.capacity_bytes = MiB(64);
  ccfg.prefetch.enabled = true;
  cache::CacheFleet fleet(ccfg);
  replica::ReplicaSet rs{apps::cross_site_replication()};
  qos::QosConfig qcfg;
  qcfg.tenant_weights = {{"batch", 1.0}, {"interactive", 3.0}};
  qos::StoreQos q{qcfg};
  workload::WorkloadOptions wopts;
  wopts.policy = workload::SchedulingPolicy::FairShare;
  workload::WorkloadManager manager(platform, wopts);
  for (int i = 0; i < 2; ++i) {
    workload::JobSpec spec;
    spec.name = i == 0 ? "scan" : "probe";
    spec.tenant = i == 0 ? "batch" : "interactive";
    spec.layout = layout;
    spec.options = faulty_options();
    spec.options.cache = &fleet;
    spec.options.replication = &rs;
    spec.options.qos = &q;
    manager.submit(std::move(spec), 0.0);
  }
  const auto result = manager.run();
  ASSERT_EQ(result.jobs.size(), 2u);

  Fnv h;
  Seen seen;
  for (const auto& job : result.jobs) {
    EXPECT_GE(job.run.total_jobs(), 48u) << job.name;
    hash_run(h, seen, job.run);
    hash_cost(h, seen, job.raw_cost);
    hash_cost(h, seen, job.attributed_cost);
  }
  hash_cost(h, seen, result.platform_cost);
  expect_counters_nonzero(seen);
  EXPECT_EQ(h.hex(), "bb3b01707a7b2d35");
}

TEST(RunRecordPin, MigrationRun) {
  // Two standby cloud slaves, spot reclaims drawn at a high rate, and a
  // scripted crash: lost nodes lease standbys that bill from their boot.
  Platform platform(PlatformSpec::paper_testbed(8, 12));
  storage::DataLayout layout = spread_layout(platform, MiB(768));
  trace::Tracer tracer;
  RunOptions o = faulty_options();
  o.tracer = &tracer;
  o.failure_detection_seconds = 0.5;
  o.migration.standby_nodes = 2;
  o.migration.boot_seconds = 2.0;
  o.spot.reclaim_rate_per_hour = 200.0;
  o.spot.notice_seconds = 1.0;
  o.random_seed = 7;
  o.lifecycle.push_back({Kind::Crash, cluster::kCloudSite, 0, 4.0});
  const RunResult result = middleware::run_distributed(platform, layout, o);
  EXPECT_GE(result.total_jobs(), 48u);
  EXPECT_EQ(result.lifecycle.nodes_crashed, 1u);
  EXPECT_GT(result.lifecycle.nodes_reclaimed + result.lifecycle.nodes_vacated, 0u);
  EXPECT_GT(result.lifecycle.replacements_leased, 0u);
  EXPECT_GT(tracer.count(trace::EventKind::JobMigrated), 0u);

  Fnv h;
  hash_capacity(h, result);
  hash_trace(h, tracer);
  EXPECT_EQ(h.hex(), "4b5a49f153baee82");
}

TEST(RunRecordPin, PooledWorkload) {
  // A shared node pool: the first wave cold-boots its leases, a cross-job
  // drain retires a node both jobs compute on, the idle pool reaps, and a
  // late job cold-boots again.
  Platform platform(PlatformSpec::paper_testbed(4, 8));
  directory::PlatformDirectory dir(platform);
  dir.bootstrap();
  trace::Tracer tracer;
  workload::WorkloadOptions wopts;
  wopts.policy = workload::SchedulingPolicy::FairShare;
  wopts.tracer = &tracer;
  wopts.directory = &dir;
  wopts.pool.enabled = true;
  wopts.pool.boot_seconds = 5.0;
  wopts.pool.idle_reap_seconds = 10.0;
  workload::WorkloadManager manager(platform, wopts);
  const storage::DataLayout layout = spread_layout(platform, MiB(96));
  const double arrivals[] = {0.0, 0.0, 150.0};
  for (int i = 0; i < 3; ++i) {
    workload::JobSpec spec;
    spec.name = "p" + std::to_string(i);
    spec.tenant = i % 2 == 0 ? "batch" : "interactive";
    spec.layout = layout;
    spec.options = faulty_options();
    spec.options.profile.bytes_per_second_per_core = KiB(512);
    manager.submit(std::move(spec), arrivals[i]);
  }
  platform.sim().schedule(des::from_seconds(15.0), [&dir] {
    dir.begin_node_retirement(cluster::kCloudSite, 0);
  });
  const auto result = manager.run();
  ASSERT_EQ(result.jobs.size(), 3u);
  EXPECT_GT(result.pool.cold_boots, 0u);
  EXPECT_GT(result.pool.reaps, 0u);
  EXPECT_GT(result.pool.boot_wait_seconds, 0.0);
  EXPECT_GT(tracer.count(trace::EventKind::InstanceActivated), 0u);

  Fnv h;
  std::uint32_t vacated = 0;
  for (const auto& job : result.jobs) {
    EXPECT_EQ(job.run.total_jobs(), 48u) << job.name;
    hash_capacity(h, job.run);
    vacated += job.run.lifecycle.nodes_vacated;
  }
  EXPECT_GT(vacated, 0u);
  h.add(result.makespan);
  h.add(std::uint64_t{result.pool.cold_boots});
  h.add(std::uint64_t{result.pool.warm_leases});
  h.add(std::uint64_t{result.pool.reaps});
  h.add(result.pool.boot_wait_seconds);
  hash_trace(h, tracer);
  EXPECT_EQ(h.hex(), "487f72377753b9e4");
}

TEST(RunRecordPin, RealExecutionDirectRun) {
  // A real wordcount kernel under the two-phase commit with periodic
  // checkpoints, one drain and one crash: robj_bytes = 0, so every robj's
  // wire size, merge cost and checkpoint bytes come from its real payload.
  apps::WordGenSpec wspec;
  wspec.count = 48000;
  wspec.vocabulary = 3000;
  wspec.seed = 11;
  const auto data = apps::generate_words(wspec);
  apps::WordCountTask task;
  Platform platform(PlatformSpec::paper_testbed(24, 24));
  storage::DataLayout layout =
      storage::build_layout_for_units(data.units(), data.unit_bytes(), 6, 4);
  storage::assign_stores_by_fraction(layout, 0.5, platform.local_store_id(),
                                     platform.cloud_store_id());
  trace::Tracer tracer;
  RunOptions o;
  o.profile.name = "pin-real";
  o.profile.unit_bytes = data.unit_bytes();
  o.profile.bytes_per_second_per_core = KiB(1);
  o.profile.robj_bytes = 0;
  o.profile.merge_bytes_per_second = MBps(1);
  o.reduction_tree = false;
  o.checkpoint_interval_seconds = 1.0;
  o.failure_detection_seconds = 0.5;
  o.task = &task;
  o.dataset = &data;
  o.tracer = &tracer;
  o.lifecycle.push_back({Kind::Drain, cluster::kCloudSite, 1, 2.0});
  o.lifecycle.push_back({Kind::Crash, cluster::kLocalSite, 0, 3.0});
  const RunResult result = middleware::run_distributed(platform, layout, o);
  ASSERT_NE(result.robj, nullptr);
  EXPECT_EQ(result.total_jobs() - result.lifecycle.chunks_reexecuted, 24u);
  EXPECT_EQ(result.lifecycle.nodes_vacated, 1u);
  EXPECT_EQ(result.lifecycle.nodes_crashed, 1u);
  EXPECT_GT(result.lifecycle.chunks_reexecuted, 0u);
  EXPECT_GT(result.lifecycle.checkpoint_flushes, 1u);

  Fnv h;
  hash_capacity(h, result);
  BufferWriter writer;
  result.robj->serialize(writer);
  for (const std::uint8_t byte : writer.take()) h.add(std::uint64_t{byte});
  hash_trace(h, tracer);
  EXPECT_EQ(h.hex(), "d798e9e8da79a162");
}

// --- kernel lanes ---------------------------------------------------------------

/// Forwards everything to `inner` but keeps the default (inline) processing,
/// so every process() call runs on the simulation thread.
class InlineTask final : public api::GRTask {
 public:
  explicit InlineTask(const api::GRTask& inner) : inner_(inner) {}
  std::string name() const override { return inner_.name(); }
  std::size_t unit_bytes() const override { return inner_.unit_bytes(); }
  api::RobjPtr create_robj() const override { return inner_.create_robj(); }
  void process(const std::byte* data, std::size_t unit_count,
               api::ReductionObject& robj) const override {
    inner_.process(data, unit_count, robj);
  }
  void finalize(api::ReductionObject& robj) const override { inner_.finalize(robj); }

 private:
  const api::GRTask& inner_;
};

/// The four apps kernels over small generated datasets.
struct KernelApps {
  KernelApps() {
    apps::WordGenSpec wspec;
    wspec.count = 40000;
    wspec.vocabulary = 2000;
    wspec.seed = 5;
    words.emplace(apps::generate_words(wspec));
    apps::PointGenSpec pspec;
    pspec.count = 12000;
    pspec.seed = 7;
    points.emplace(apps::generate_points(pspec));
    knn.emplace(16, std::vector<float>(pspec.dim, 1.5f));
    kmeans.emplace(apps::mixture_centers(pspec));
    apps::GraphGenSpec gspec;
    gspec.pages = 3000;
    gspec.edges = 24000;
    gspec.seed = 9;
    edges.emplace(apps::generate_edges(gspec));
    pagerank.emplace(std::vector<double>(gspec.pages, 1.0 / gspec.pages),
                     apps::out_degrees(*edges, gspec.pages));
  }

  struct App {
    const api::GRTask* task;
    const engine::MemoryDataset* data;
  };
  std::vector<App> all() const {
    return {{&wordcount, &*words}, {&*knn, &*points}, {&*kmeans, &*points},
            {&*pagerank, &*edges}};
  }

  apps::WordCountTask wordcount;
  std::optional<engine::MemoryDataset> words, points, edges;
  std::optional<apps::KnnTask> knn;
  std::optional<apps::KmeansTask> kmeans;
  std::optional<apps::PageRankTask> pagerank;
};

struct KernelRun {
  std::vector<std::uint8_t> robj;  ///< the final robj, serialized
  std::string digest;              ///< capacity decisions, robj bytes, trace
  RunResult result;
};

/// `task` over `data` on a 16+16-core testbed, about 10 s of simulated
/// processing with real-payload robjs. Direct mode checkpoints every second
/// and drains cloud node 1 at 2 s (RobjRequest and vacate both read a
/// slave's robj mid-run); tree mode merges children into slave robjs.
KernelRun run_kernel(const api::GRTask& task, const engine::MemoryDataset& data,
                     bool tree) {
  Platform platform(PlatformSpec::paper_testbed(16, 16));
  storage::DataLayout layout =
      storage::build_layout_for_units(data.units(), data.unit_bytes(), 6, 4);
  storage::assign_stores_by_fraction(layout, 0.5, platform.local_store_id(),
                                     platform.cloud_store_id());
  trace::Tracer tracer;
  RunOptions o;
  o.profile.name = "lanes";
  o.profile.unit_bytes = data.unit_bytes();
  o.profile.bytes_per_second_per_core = static_cast<double>(data.size_bytes()) / 320.0;
  o.profile.robj_bytes = 0;
  o.profile.merge_bytes_per_second = MBps(1);
  o.task = &task;
  o.dataset = &data;
  o.tracer = &tracer;
  o.reduction_tree = tree;
  if (!tree) {
    o.checkpoint_interval_seconds = 1.0;
    o.lifecycle.push_back({Kind::Drain, cluster::kCloudSite, 1, 2.0});
  }
  KernelRun run;
  run.result = middleware::run_distributed(platform, layout, o);
  BufferWriter writer;
  run.result.robj->serialize(writer);
  run.robj = writer.take();
  Fnv h;
  hash_capacity(h, run.result);
  for (const std::uint8_t byte : run.robj) h.add(std::uint64_t{byte});
  hash_trace(h, tracer);
  run.digest = h.hex();
  return run;
}

void expect_lanes_match_inline(bool tree, const std::vector<std::string>& want) {
  const KernelApps apps;
  const auto all = apps.all();
  ASSERT_EQ(all.size(), want.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    const std::string name = all[i].task->name();
    const InlineTask inline_task(*all[i].task);
    const KernelRun inline_run = run_kernel(inline_task, *all[i].data, tree);
    const KernelRun run = run_kernel(*all[i].task, *all[i].data, tree);
    EXPECT_EQ(run.robj, inline_run.robj) << name;
    EXPECT_EQ(run.digest, inline_run.digest) << name;
    EXPECT_EQ(inline_run.digest, want[i]) << name;
    if (!tree) {
      EXPECT_EQ(inline_run.result.lifecycle.nodes_vacated, 1u) << name;
      EXPECT_GT(inline_run.result.lifecycle.checkpoint_flushes, 2u) << name;
    }
  }
}

TEST(KernelLanes, DirectRunsMatchInline) {
  expect_lanes_match_inline(
      false, {"d3ddeaf67ef9e5da", "945aca085f9ed1a3", "8eea775c3534fee0", "1e9a4f98f34a8569"});
}

TEST(KernelLanes, TreeRunsMatchInline) {
  expect_lanes_match_inline(
      true, {"1ca1c1798bbbe442", "b3e3d2ed39d7293c", "00189e5130e3627d", "9e44fea4e02e4a51"});
}

// --- robj hand-off -----------------------------------------------------------------

/// What a run's robj hand-offs decided: checkpoint accounting, every robj a
/// slave or master shipped, and the final robj.
struct HandoffPin {
  std::uint64_t checkpoint_flushes;
  std::uint64_t checkpoint_bytes;
  std::uint64_t robjs_sent;
  std::uint64_t robj_sent_bytes;  ///< sum of every RobjSent's wire bytes
  std::uint64_t idle_ships;       ///< slave ships with no chunk since its last one
  std::string robj_digest;        ///< FNV-1a of the final robj's bytes
  bool operator==(const HandoffPin&) const = default;
};

std::ostream& operator<<(std::ostream& os, const HandoffPin& p) {
  return os << "{" << p.checkpoint_flushes << ", " << p.checkpoint_bytes << ", "
            << p.robjs_sent << ", " << p.robj_sent_bytes << ", " << p.idle_ships << ", \""
            << p.robj_digest << "\"}";
}

/// `task` over `data` as in run_kernel, but direct mode checkpoints every
/// 0.25 s, so periodic RobjRequests reach slaves that processed nothing
/// since their last ship: each must still ship a fresh identity robj,
/// charged at that robj's serialized size.
HandoffPin run_handoff(const api::GRTask& task, const engine::MemoryDataset& data, bool tree) {
  Platform platform(PlatformSpec::paper_testbed(16, 16));
  storage::DataLayout layout =
      storage::build_layout_for_units(data.units(), data.unit_bytes(), 6, 4);
  storage::assign_stores_by_fraction(layout, 0.5, platform.local_store_id(),
                                     platform.cloud_store_id());
  trace::Tracer tracer;
  RunOptions o;
  o.profile.name = "handoff";
  o.profile.unit_bytes = data.unit_bytes();
  o.profile.bytes_per_second_per_core = static_cast<double>(data.size_bytes()) / 320.0;
  o.profile.robj_bytes = 0;
  o.profile.merge_bytes_per_second = MBps(1);
  o.task = &task;
  o.dataset = &data;
  o.tracer = &tracer;
  o.reduction_tree = tree;
  if (!tree) o.checkpoint_interval_seconds = 0.25;
  const RunResult result = middleware::run_distributed(platform, layout, o);

  HandoffPin pin{result.lifecycle.checkpoint_flushes, result.lifecycle.checkpoint_bytes,
                 0, 0, 0, ""};
  std::map<std::string, bool> worked;  // slave -> processed a chunk since its last ship
  for (const trace::Event& e : tracer.events()) {
    if (e.kind == trace::EventKind::ProcessEnd) worked[e.actor] = true;
    if (e.kind != trace::EventKind::RobjSent) continue;
    ++pin.robjs_sent;
    pin.robj_sent_bytes += e.a;
    if (e.actor.rfind("master-", 0) == 0) continue;
    if (!worked[e.actor]) ++pin.idle_ships;
    worked[e.actor] = false;
  }
  BufferWriter writer;
  result.robj->serialize(writer);
  Fnv h;
  for (const std::uint8_t byte : writer.take()) h.add(std::uint64_t{byte});
  pin.robj_digest = h.hex();
  return pin;
}

void expect_handoffs(bool tree, const std::vector<HandoffPin>& want) {
  const KernelApps apps;
  const std::vector<KernelApps::App> pinned = {
      {&apps.wordcount, &*apps.words}, {&*apps.kmeans, &*apps.points},
      {&*apps.pagerank, &*apps.edges}};
  ASSERT_EQ(pinned.size(), want.size());
  for (std::size_t i = 0; i < pinned.size(); ++i) {
    const HandoffPin got = run_handoff(*pinned[i].task, *pinned[i].data, tree);
    EXPECT_EQ(got, want[i]) << pinned[i].task->name();
    if (!tree) {
      EXPECT_GT(got.idle_ships, 0u) << pinned[i].task->name();
      EXPECT_GT(got.checkpoint_flushes, 0u) << pinned[i].task->name();
    }
  }
}

TEST(RobjHandoffPin, DirectRunsShipIdentityDeltas) {
  expect_handoffs(false, {{22, 178736, 34, 250288, 8, "44914fac54c6d1a8"},
                          {22, 12870, 34, 19890, 8, "c52abe10a3c06dfa"},
                          {22, 528198, 34, 816306, 8, "f51478e024ec1814"}});
}

TEST(RobjHandoffPin, TreeRuns) {
  expect_handoffs(true, {{0, 0, 12, 218944, 0, "44914fac54c6d1a8"},
                         {0, 0, 12, 7020, 0, "c52abe10a3c06dfa"},
                         {0, 0, 12, 288108, 0, "c687aad8d33d5cde"}});
}

}  // namespace
}  // namespace cloudburst
