// Store-QoS tests: config and reservation validation, weighted-fair share
// conservation under saturation, work conservation when a tenant idles,
// reservation carve-outs, per-tenant cache budgets, the default-off
// byte-identity pin, and composition with cache + faults + replication in a
// two-tenant workload.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "apps/experiments.hpp"
#include "apps/scenarios.hpp"
#include "cache/chunk_cache.hpp"
#include "cluster/platform.hpp"
#include "common/units.hpp"
#include "des/simulator.hpp"
#include "middleware/runtime.hpp"
#include "qos/store_qos.hpp"
#include "replica/replica_set.hpp"
#include "storage/data_layout.hpp"
#include "trace/trace.hpp"
#include "workload/workload_manager.hpp"

namespace cloudburst {
namespace {

using namespace cloudburst::units;
using cluster::kCloudSite;
using cluster::Platform;
using cluster::PlatformSpec;
using qos::QosConfig;
using qos::StoreQos;

// --- config / reservation validation -----------------------------------------

TEST(StoreQos, RejectsNonPositiveWeights) {
  QosConfig zero_default;
  zero_default.default_weight = 0.0;
  EXPECT_THROW(StoreQos{zero_default}, std::invalid_argument);

  QosConfig zero_tenant;
  zero_tenant.tenant_weights["a"] = 0.0;
  EXPECT_THROW(StoreQos{zero_tenant}, std::invalid_argument);

  QosConfig negative_system;
  negative_system.system_weight = -1.0;
  EXPECT_THROW(StoreQos{negative_system}, std::invalid_argument);
}

TEST(StoreQos, SystemTenantIsAlwaysIdZero) {
  StoreQos q;
  EXPECT_EQ(q.tenant_id(qos::kSystemTenantName), qos::kSystemTenant);
  const auto a = q.tenant_id("alice");
  EXPECT_EQ(q.tenant_id("alice"), a);  // stable on re-lookup
  EXPECT_NE(a, qos::kSystemTenant);
  EXPECT_EQ(q.tenant_name(a), "alice");
}

TEST(StoreQos, ReserveRejectsMalformedAndUnattachedRequests) {
  StoreQos q;
  // Capacities unknown before attach()/bind(): reserve cannot admit.
  EXPECT_THROW(q.reserve("a", 0, 1e6, 0.0, 1.0), std::logic_error);

  des::Simulator sim;
  q.bind(sim, {100e6});
  EXPECT_THROW(q.reserve("a", 0, 0.0, 0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(q.reserve("a", 0, -1e6, 0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(q.reserve("a", 0, 1e6, 5.0, 5.0), std::invalid_argument);
  EXPECT_THROW(q.reserve("a", 0, 1e6, 5.0, 2.0), std::invalid_argument);
  EXPECT_THROW(q.reserve("a", 9, 1e6, 0.0, 1.0), std::invalid_argument);
}

TEST(StoreQos, ReservationAdmissionRejectsOvercommit) {
  QosConfig cfg;
  cfg.pacing_factor = 0.9;
  StoreQos q{cfg};
  des::Simulator sim;
  trace::Tracer tracer;
  q.set_tracer(&tracer);
  q.bind(sim, {100e6});  // paced link: 90e6 minus the fair-pool floor

  EXPECT_TRUE(q.reserve("a", 0, 50e6, 0.0, 10.0));
  // 50 + 45 = 95e6 over [5, 10) exceeds the paced link: rejected.
  EXPECT_FALSE(q.reserve("b", 0, 45e6, 5.0, 15.0));
  EXPECT_EQ(q.reservations_rejected(), 1u);
  // The same rate fits once the windows no longer overlap.
  EXPECT_TRUE(q.reserve("b", 0, 45e6, 10.0, 20.0));
  ASSERT_EQ(q.reservations().size(), 2u);

  EXPECT_EQ(tracer.count(trace::EventKind::ReservationGranted), 2u);
  EXPECT_EQ(tracer.count(trace::EventKind::ReservationRejected), 1u);
}

TEST(StoreQos, ValidateAgainstRechecksPlatformCapacities) {
  StoreQos q;
  des::Simulator sim;
  q.bind(sim, {1e12, 1e12});  // optimistic capacities at reserve time
  EXPECT_TRUE(q.reserve("a", 0, 100e9, 0.0, 10.0));

  // The paper testbed's local store front end (1600 MB/s) cannot honor a
  // 100 GB/s floor: run_distributed's up-front validation must throw.
  Platform p(PlatformSpec::paper_testbed(4, 4));
  EXPECT_THROW(q.validate_against(p), std::invalid_argument);

  StoreQos fits;
  des::Simulator sim2;
  fits.bind(sim2, {1e12, 1e12});
  EXPECT_TRUE(fits.reserve("a", 0, 100e6, 0.0, 10.0));
  EXPECT_NO_THROW(fits.validate_against(p));
}

// --- arbitration mechanics ---------------------------------------------------

/// Closed-loop tenant driver: keeps exactly one request outstanding until
/// `until` sim-seconds, so the tenant is continuously backlogged.
struct Loader {
  StoreQos& q;
  des::Simulator& sim;
  storage::StoreId store;
  qos::TenantId tenant;
  std::uint64_t bytes;
  double until;

  void pump() {
    q.submit(store, tenant, bytes, [this](double) {
      if (des::to_seconds(sim.now()) < until) pump();
    });
  }
};

TEST(StoreQos, PassThroughReleasesSynchronouslyWhenUnattached) {
  StoreQos q;
  const auto t = q.tenant_id("a");
  bool released = false;
  q.submit(0, t, 1000, [&](double waited) {
    released = true;
    EXPECT_DOUBLE_EQ(waited, 0.0);
  });
  EXPECT_TRUE(released);
  const auto* stats = q.store_stats(t, 0);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->requests, 1u);
  EXPECT_EQ(stats->throttled, 0u);
}

TEST(StoreQos, ZeroCapacityStoreIsPassThrough) {
  StoreQos q;
  des::Simulator sim;
  q.bind(sim, {0.0});
  const auto t = q.tenant_id("a");
  bool released = false;
  q.submit(0, t, 1000, [&](double waited) {
    released = true;
    EXPECT_DOUBLE_EQ(waited, 0.0);
  });
  EXPECT_TRUE(released);
}

// Both tenants saturate one store: achieved bandwidth splits 3:1 by weight
// and the link stays fully used (sum of shares == capacity).
TEST(StoreQos, WeightedFairSplitsSaturatedLinkByShares) {
  QosConfig cfg;
  cfg.tenant_weights = {{"heavy", 3.0}, {"light", 1.0}};
  cfg.pacing_factor = 1.0;  // exact conservation math for the unit test
  StoreQos q{cfg};
  des::Simulator sim;
  const double capacity = 100e6;
  q.bind(sim, {capacity});

  const double horizon = 10.0;
  Loader heavy{q, sim, 0, q.tenant_id("heavy"), 1'000'000, horizon};
  Loader light{q, sim, 0, q.tenant_id("light"), 1'000'000, horizon};
  heavy.pump();
  light.pump();
  sim.run();

  const auto* h = q.store_stats(heavy.tenant, 0);
  const auto* l = q.store_stats(light.tenant, 0);
  ASSERT_NE(h, nullptr);
  ASSERT_NE(l, nullptr);
  const double ratio = static_cast<double>(h->bytes) / static_cast<double>(l->bytes);
  EXPECT_NEAR(ratio, 3.0, 0.3);  // within 10% of the 3:1 share split

  // Work conservation at full backlog: released bytes cover the whole link.
  const double elapsed = des::to_seconds(sim.now());
  const double total_rate =
      static_cast<double>(h->bytes + l->bytes) / elapsed;
  EXPECT_NEAR(total_rate, capacity, 0.05 * capacity);

  // The loser of each arbitration round waited: throttling was recorded.
  EXPECT_GT(h->throttled + l->throttled, 0u);
  EXPECT_GT(l->wait_seconds, 0.0);
}

// When the competing tenant goes idle, the survivor inherits the whole link
// (work-conserving redistribution), not just its 1/4 share.
TEST(StoreQos, IdleTenantDonatesItsShare) {
  QosConfig cfg;
  cfg.tenant_weights = {{"heavy", 3.0}, {"light", 1.0}};
  cfg.pacing_factor = 1.0;
  StoreQos q{cfg};
  des::Simulator sim;
  const double capacity = 100e6;
  q.bind(sim, {capacity});

  const double half = 5.0, horizon = 10.0;
  Loader heavy{q, sim, 0, q.tenant_id("heavy"), 1'000'000, half};
  Loader light{q, sim, 0, q.tenant_id("light"), 1'000'000, horizon};
  heavy.pump();
  light.pump();

  std::uint64_t light_bytes_at_half = 0;
  sim.schedule(des::from_seconds(half), [&] {
    const auto* l = q.store_stats(light.tenant, 0);
    light_bytes_at_half = l ? l->bytes : 0;
  });
  sim.run();

  const auto* l = q.store_stats(light.tenant, 0);
  ASSERT_NE(l, nullptr);
  // Second half: "light" alone should run at ~capacity, not weight/4 of it.
  const double solo_rate =
      static_cast<double>(l->bytes - light_bytes_at_half) / (horizon - half);
  EXPECT_NEAR(solo_rate, capacity, 0.10 * capacity);
}

// A reservation carves its rate out of the fair pool: the reserved tenant
// gets its floor and the best-effort tenant gets what remains.
TEST(StoreQos, ReservationCarvesTokensOutOfTheFairPool) {
  QosConfig cfg;
  cfg.pacing_factor = 1.0;
  StoreQos q{cfg};
  des::Simulator sim;
  const double capacity = 100e6;
  q.bind(sim, {capacity});
  ASSERT_TRUE(q.reserve("reserved", 0, 60e6, 0.0, 20.0));

  const double horizon = 10.0;
  Loader res{q, sim, 0, q.tenant_id("reserved"), 1'000'000, horizon};
  Loader bulk{q, sim, 0, q.tenant_id("bulk"), 1'000'000, horizon};
  res.pump();
  bulk.pump();
  sim.run();

  const auto* r = q.store_stats(res.tenant, 0);
  const auto* b = q.store_stats(bulk.tenant, 0);
  ASSERT_NE(r, nullptr);
  ASSERT_NE(b, nullptr);
  const double res_rate = static_cast<double>(r->bytes) / horizon;
  const double bulk_rate = static_cast<double>(b->bytes) / horizon;
  EXPECT_NEAR(res_rate, 60e6, 0.10 * 60e6);
  EXPECT_NEAR(bulk_rate, 40e6, 0.10 * 40e6);
}

TEST(StoreQos, ReportRollsUpStoresAndCacheCounters) {
  StoreQos q;
  des::Simulator sim;
  q.bind(sim, {100e6, 100e6});
  const auto t = q.tenant_id("alice");
  q.submit(0, t, 1000, [](double) {});
  q.submit(1, t, 2000, [](double) {});
  q.note_cache_hit(t);
  q.note_cache_hit(t);
  q.note_cache_miss(t);
  sim.run();

  const auto report = q.report("alice");
  EXPECT_TRUE(report.active);
  EXPECT_EQ(report.store_requests, 2u);
  EXPECT_EQ(report.bytes, 3000u);
  EXPECT_EQ(report.cache_hits, 2u);
  EXPECT_EQ(report.cache_misses, 1u);
  EXPECT_FALSE(q.report("nobody").active);
}

// --- per-tenant cache budgets ------------------------------------------------

TEST(StoreQos, CacheBudgetsSplitByConfiguredWeights) {
  QosConfig cfg;
  cfg.tenant_weights = {{"a", 3.0}, {"b", 1.0}};
  StoreQos q{cfg};
  const auto budgets = q.cache_budgets(1000);
  ASSERT_EQ(budgets.size(), 2u);
  EXPECT_EQ(budgets.at(q.tenant_id("a")), 750u);
  EXPECT_EQ(budgets.at(q.tenant_id("b")), 250u);
  StoreQos unweighted;
  EXPECT_TRUE(unweighted.cache_budgets(1000).empty());
}

TEST(ChunkCacheOwners, BudgetedOwnerEvictsOnlyItsOwnEntries) {
  cache::CacheConfig cfg;
  cfg.capacity_bytes = 1000;
  cache::ChunkCache cache(cfg);
  cache.set_owner_budget(1, 300);

  EXPECT_TRUE(cache.insert(0, 100, false, 1).admitted);
  EXPECT_TRUE(cache.insert(1, 100, false, 1).admitted);
  EXPECT_TRUE(cache.insert(2, 100, false, 1).admitted);
  EXPECT_EQ(cache.owner_bytes(1), 300u);

  // A fourth chunk is over budget: the owner's own LRU entry goes, even
  // though the cache as a whole has 700 free bytes.
  const auto result = cache.insert(3, 100, false, 1);
  EXPECT_TRUE(result.admitted);
  ASSERT_EQ(result.evicted.size(), 1u);
  EXPECT_EQ(result.evicted[0].first, 0u);
  EXPECT_EQ(cache.owner_bytes(1), 300u);

  // A chunk larger than the whole budget is rejected outright.
  EXPECT_FALSE(cache.insert(9, 400, false, 1).admitted);
}

TEST(ChunkCacheOwners, GlobalEvictionNeverRaidsAnotherBudgetedTenant) {
  cache::CacheConfig cfg;
  cfg.capacity_bytes = 300;
  cache::ChunkCache cache(cfg);
  cache.set_owner_budget(1, 200);
  cache.set_owner_budget(2, 200);

  EXPECT_TRUE(cache.insert(0, 100, false, 1).admitted);
  EXPECT_TRUE(cache.insert(1, 100, false, 1).admitted);
  EXPECT_TRUE(cache.insert(2, 100, false, 2).admitted);  // cache now full

  // Owner 2 is inside its budget but the cache is full: it may recycle its
  // own LRU entry, never the other *budgeted* tenant's.
  const auto recycled = cache.insert(3, 100, false, 2);
  EXPECT_TRUE(recycled.admitted);
  ASSERT_EQ(recycled.evicted.size(), 1u);
  EXPECT_EQ(recycled.evicted[0].first, 2u);
  EXPECT_TRUE(cache.contains(0));
  EXPECT_TRUE(cache.contains(1));

  // A shared (unbudgeted) inserter cannot raid budgeted tenants either.
  EXPECT_FALSE(cache.insert(4, 100).admitted);

  // Shared entries, by contrast, are fair game for anyone.
  cache.erase(3);
  EXPECT_TRUE(cache.insert(5, 100).admitted);  // shared owner, fits now
  const auto raided = cache.insert(6, 100, false, 2);
  EXPECT_TRUE(raided.admitted);  // evicts the shared entry
  EXPECT_FALSE(cache.contains(5));
  EXPECT_TRUE(cache.contains(0));
  EXPECT_TRUE(cache.contains(1));
}

TEST(ChunkCacheOwners, FleetAppliesBudgetsToEverySite) {
  cache::CacheConfig cfg;
  cfg.capacity_bytes = 1000;
  cache::CacheFleet fleet(cfg);
  fleet.site(0);  // existing site gets the budget retroactively
  fleet.set_owner_budget(7, 100);
  EXPECT_FALSE(fleet.site(0).insert(0, 200, false, 7).admitted);
  EXPECT_FALSE(fleet.site(1).insert(0, 200, false, 7).admitted);  // new site too
  EXPECT_TRUE(fleet.site(1).insert(1, 100, false, 7).admitted);
}

// --- default-off byte identity -----------------------------------------------

TEST(QosIntegration, UnsetQosKeepsPaperRunsByteIdentical) {
  const auto baseline = apps::run_env(apps::Env::Cloud, apps::PaperApp::Kmeans);
  // Naming a tenant without attaching a StoreQos must not move one event:
  // the whole subsystem is unreachable until RunOptions::qos is set.
  const auto tagged = apps::run_env(
      apps::Env::Cloud, apps::PaperApp::Kmeans,
      [](cluster::PlatformSpec&, middleware::RunOptions& options) {
        options.tenant = "interactive";
        options.qos = nullptr;
      });
  EXPECT_DOUBLE_EQ(tagged.total_time, baseline.total_time);
  EXPECT_EQ(tagged.totals().qos_throttled, 0u);
  EXPECT_DOUBLE_EQ(tagged.totals().qos_wait_seconds, 0.0);
  EXPECT_EQ(tagged.s3_get_requests, baseline.s3_get_requests);
  ASSERT_EQ(tagged.clusters.size(), baseline.clusters.size());
  for (std::size_t c = 0; c < baseline.clusters.size(); ++c) {
    EXPECT_DOUBLE_EQ(tagged.clusters[c].retrieval, baseline.clusters[c].retrieval);
    EXPECT_DOUBLE_EQ(tagged.clusters[c].processing, baseline.clusters[c].processing);
  }
}

// --- middleware integration --------------------------------------------------

TEST(QosIntegration, SoloRunArbitratesAndAccountsPerTenant) {
  StoreQos q;
  trace::Tracer tracer;
  const auto result = apps::run_env(
      apps::Env::Cloud, apps::PaperApp::Kmeans,
      [&](cluster::PlatformSpec&, middleware::RunOptions& options) {
        options.qos = &q;
        options.tenant = "alice";
        options.tracer = &tracer;
      });

  EXPECT_EQ(result.total_jobs(), 96u);  // the run still processes everything
  const auto report = q.report("alice");
  EXPECT_TRUE(report.active);
  EXPECT_GT(report.store_requests, 0u);
  EXPECT_GT(report.bytes, 0u);
  EXPECT_GT(report.achieved_bytes_per_sec, 0.0);
  // Recorder counters and the trace stream agree on throttle events.
  EXPECT_EQ(result.totals().qos_throttled, tracer.count(trace::EventKind::QosThrottled));
  EXPECT_GE(result.totals().qos_wait_seconds, 0.0);
}

// Two tenants through one workload with cache + faults + replication + QoS
// attached at once: everything composes and the per-tenant QoS report lands
// in the WorkloadResult.
TEST(QosIntegration, ComposesWithCacheFaultsAndReplicationInAWorkload) {
  // Cloud store faults exercise retry + QoS on the same path.
  PlatformSpec spec = PlatformSpec::paper_testbed(4, 4);
  spec.sites[kCloudSite].store->fault.fail_probability = 0.02;
  Platform faulty(spec);

  storage::LayoutSpec lspec;
  lspec.total_bytes = MiB(256);
  lspec.num_files = 8;
  lspec.chunks_per_file = 2;
  lspec.unit_bytes = 64;
  storage::DataLayout layout = storage::build_layout(lspec);
  storage::assign_stores_by_fraction(layout, 0.5, faulty.local_store_id(),
                                     faulty.cloud_store_id());

  cache::CacheConfig ccfg;
  ccfg.capacity_bytes = MiB(64);
  cache::CacheFleet fleet(ccfg);

  replica::ReplicaSet rs{apps::cross_site_replication()};

  QosConfig qcfg;
  qcfg.tenant_weights = {{"batch", 1.0}, {"interactive", 3.0}};
  StoreQos q{qcfg};

  trace::Tracer tracer;
  middleware::RunOptions options;
  options.profile.name = "wl";
  options.profile.unit_bytes = 64;
  options.profile.bytes_per_second_per_core = MBps(4);
  options.profile.robj_bytes = KiB(64);
  options.retry.max_attempts = 3;
  options.retry.backoff_base_seconds = 0.05;
  options.cache = &fleet;
  options.replication = &rs;
  options.qos = &q;

  workload::WorkloadOptions wopts;
  wopts.policy = workload::SchedulingPolicy::FairShare;
  wopts.tracer = &tracer;
  workload::WorkloadManager manager(faulty, wopts);
  for (int i = 0; i < 2; ++i) {
    workload::JobSpec jspec;
    jspec.name = i == 0 ? "scan" : "probe";
    jspec.tenant = i == 0 ? "batch" : "interactive";
    jspec.layout = layout;
    jspec.options = options;
    manager.submit(std::move(jspec), 0.0);
  }
  const auto result = manager.run();

  ASSERT_EQ(result.jobs.size(), 2u);
  for (const auto& job : result.jobs) {
    EXPECT_EQ(job.run.total_jobs(), 16u) << job.name;
  }

  // Per-tenant QoS rollups surfaced in the workload result.
  const auto* batch = result.tenant("batch");
  const auto* interactive = result.tenant("interactive");
  ASSERT_NE(batch, nullptr);
  ASSERT_NE(interactive, nullptr);
  EXPECT_TRUE(batch->qos.active);
  EXPECT_TRUE(interactive->qos.active);
  EXPECT_GT(batch->qos.store_requests, 0u);
  EXPECT_GT(interactive->qos.store_requests, 0u);
  EXPECT_GT(batch->qos.bytes + interactive->qos.bytes, 0u);

  // Trace and recorder counters agree across the whole workload.
  std::uint32_t throttled = 0;
  for (const auto& job : result.jobs) throttled += job.run.totals().qos_throttled;
  EXPECT_EQ(throttled, tracer.count(trace::EventKind::QosThrottled));
}

}  // namespace
}  // namespace cloudburst
