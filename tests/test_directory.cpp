// Dynamic-control-plane tests: PlatformDirectory state machine + change
// feed, NodePool leasing/reaping/billing windows, per-tenant admission
// quotas, the CSV arrival-trace loader, the directory-off byte-identity
// pin, cross-job drain with zero lost work, seeded randomized
// register/retire under load, and composition with QoS + replication.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "apps/scenarios.hpp"
#include "cluster/platform.hpp"
#include "common/units.hpp"
#include "des/simulator.hpp"
#include "directory/platform_directory.hpp"
#include "middleware/runtime.hpp"
#include "qos/store_qos.hpp"
#include "replica/replica_set.hpp"
#include "storage/data_layout.hpp"
#include "trace/trace.hpp"
#include "workload/node_pool.hpp"
#include "workload/trace_file.hpp"
#include "workload/workload_manager.hpp"

namespace cloudburst {
namespace {

using namespace cloudburst::units;
using cluster::kCloudSite;
using cluster::kLocalSite;
using cluster::Platform;
using cluster::PlatformSpec;
using directory::DirectoryEvent;
using directory::PlatformDirectory;
using directory::ServiceState;

// --- directory state machine -------------------------------------------------

TEST(PlatformDirectory, BootstrapSkipsOfflineNodesUntilRegistered) {
  PlatformSpec spec = PlatformSpec::paper_testbed(4, 4);
  cluster::NodeSpec late = spec.cloud().nodes.back();
  late.offline = true;
  spec.cloud().nodes.push_back(late);
  Platform platform(spec);
  const std::uint32_t last =
      static_cast<std::uint32_t>(platform.nodes(kCloudSite).size()) - 1;

  PlatformDirectory dir(platform);
  EXPECT_EQ(dir.node_state(kCloudSite, 0), ServiceState::Absent);
  dir.bootstrap();

  // Everything but the offline node is Active; stores and sites are live.
  EXPECT_EQ(dir.node_state(kCloudSite, 0), ServiceState::Active);
  EXPECT_EQ(dir.node_state(kCloudSite, last), ServiceState::Absent);
  EXPECT_EQ(dir.active_node_count(),
            platform.nodes(kLocalSite).size() + platform.nodes(kCloudSite).size() - 1);
  EXPECT_TRUE(dir.store_live(platform.local_store_id()));
  EXPECT_TRUE(dir.store_live(platform.cloud_store_id()));
  EXPECT_TRUE(dir.site_live(kLocalSite));
  EXPECT_TRUE(dir.site_live(kCloudSite));

  // Capacity arrival: the offline node joins through register_node.
  dir.register_node(kCloudSite, last);
  EXPECT_EQ(dir.node_state(kCloudSite, last), ServiceState::Active);
  EXPECT_EQ(dir.node_generation(kCloudSite, last), 0u);
  const auto active = dir.active_nodes(kCloudSite);
  ASSERT_EQ(active.size(), platform.nodes(kCloudSite).size());
  EXPECT_EQ(active.back().endpoint, platform.nodes(kCloudSite).back().endpoint);
}

TEST(PlatformDirectory, RetirementLifecycleAndGenerationBump) {
  Platform platform(PlatformSpec::paper_testbed(4, 4));
  PlatformDirectory dir(platform);
  dir.bootstrap();

  // Double-registration of a live node is an error, not a silent no-op.
  EXPECT_THROW(dir.register_node(kCloudSite, 0), std::logic_error);

  dir.begin_node_retirement(kCloudSite, 0);
  EXPECT_EQ(dir.node_state(kCloudSite, 0), ServiceState::Draining);
  EXPECT_TRUE(dir.node_live(platform.nodes(kCloudSite)[0].endpoint));
  EXPECT_FALSE(dir.node_active(platform.nodes(kCloudSite)[0].endpoint));
  // A draining node is excluded from new placement.
  EXPECT_EQ(dir.active_nodes(kCloudSite).size(),
            platform.nodes(kCloudSite).size() - 1);

  dir.complete_node_retirement(kCloudSite, 0);
  EXPECT_EQ(dir.node_state(kCloudSite, 0), ServiceState::Retired);
  EXPECT_FALSE(dir.node_live(platform.nodes(kCloudSite)[0].endpoint));
  EXPECT_THROW(dir.begin_node_retirement(kCloudSite, 0), std::logic_error);

  // Re-registration resurrects the slot under a new generation.
  dir.register_node(kCloudSite, 0);
  EXPECT_EQ(dir.node_state(kCloudSite, 0), ServiceState::Active);
  EXPECT_EQ(dir.node_generation(kCloudSite, 0), 1u);

  EXPECT_THROW(dir.register_node(kCloudSite, 999), std::invalid_argument);
}

TEST(PlatformDirectory, WatchersSeeChangesInOrderAndUnwatchStops) {
  Platform platform(PlatformSpec::paper_testbed(4, 4));
  PlatformDirectory dir(platform);
  dir.bootstrap();

  std::vector<DirectoryEvent::Kind> seen;
  const auto id = dir.watch([&](const DirectoryEvent& e) { seen.push_back(e.kind); });
  std::size_t other = 0;
  dir.watch([&](const DirectoryEvent&) { ++other; });

  dir.begin_node_retirement(kCloudSite, 1);
  dir.complete_node_retirement(kCloudSite, 1);
  dir.register_node(kCloudSite, 1);
  dir.retire_store(platform.cloud_store_id());
  const std::vector<DirectoryEvent::Kind> expect = {
      DirectoryEvent::Kind::NodeDraining, DirectoryEvent::Kind::NodeRetired,
      DirectoryEvent::Kind::NodeRegistered, DirectoryEvent::Kind::StoreRetired};
  EXPECT_EQ(seen, expect);
  EXPECT_EQ(other, 4u);

  dir.unwatch(id);
  dir.retire_site(kCloudSite);
  EXPECT_EQ(seen.size(), 4u);  // unwatched: no further delivery
  EXPECT_EQ(other, 5u);
  EXPECT_FALSE(dir.site_live(kCloudSite));
}

// --- node pool ---------------------------------------------------------------

TEST(NodePool, ColdLeaseBootsAndWarmLeaseIsInstant) {
  des::Simulator sim;
  workload::PoolOptions opts;
  opts.enabled = true;
  opts.boot_seconds = 60.0;
  workload::NodePool pool(sim, opts, nullptr);
  pool.add_node(7, "cloud0");
  ASSERT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.leasable(), 1u);

  const auto first = pool.lease(1, "alice", 0, 0.0);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_TRUE(first[0].cold);
  EXPECT_DOUBLE_EQ(first[0].ready_in_seconds, 60.0);

  // A second job mid-boot shares the residual window, not a fresh one.
  const auto shared = pool.lease(2, "bob", 0, 40.0);
  ASSERT_EQ(shared.size(), 1u);
  EXPECT_FALSE(shared[0].cold);
  EXPECT_DOUBLE_EQ(shared[0].ready_in_seconds, 20.0);

  // After the boot completes, leases are warm and free of wait.
  pool.release_job(1, 100.0);
  const auto warm = pool.lease(3, "alice", 0, 100.0);
  ASSERT_EQ(warm.size(), 1u);
  EXPECT_FALSE(warm[0].cold);
  EXPECT_DOUBLE_EQ(warm[0].ready_in_seconds, 0.0);

  EXPECT_EQ(pool.stats().cold_boots, 1u);
  EXPECT_EQ(pool.stats().warm_leases, 2u);
  EXPECT_DOUBLE_EQ(pool.stats().boot_wait_seconds, 80.0);
  // Lease-seconds attribute to the releasing job and its tenant.
  EXPECT_DOUBLE_EQ(pool.job_lease_seconds(1), 100.0);
  EXPECT_DOUBLE_EQ(pool.tenant_lease_seconds("alice"), 100.0);
}

TEST(NodePool, IdleReapClosesBillingWindowAndReturnsNodeCold) {
  des::Simulator sim;
  workload::PoolOptions opts;
  opts.enabled = true;
  opts.boot_seconds = 10.0;
  opts.idle_reap_seconds = 30.0;
  workload::NodePool pool(sim, opts, nullptr);
  pool.add_node(7, "cloud0");

  // Pool calls happen inside sim events (as the manager makes them), so the
  // idle-reap timer is anchored at the release's sim time.
  pool.lease(1, "a", 0, 0.0);
  sim.schedule(des::from_seconds(50.0), [&] { pool.release_job(1, 50.0); });
  sim.run_until(des::from_seconds(100.0));

  EXPECT_EQ(pool.stats().reaps, 1u);
  const auto windows = pool.windows(1000.0);
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_DOUBLE_EQ(windows[0].start, 0.0);
  EXPECT_DOUBLE_EQ(windows[0].end, 80.0);  // release + 30 s idle

  // Re-leasing after the reap opens a second billing window.
  pool.lease(2, "a", 0, 200.0);
  EXPECT_EQ(pool.stats().cold_boots, 2u);
  EXPECT_EQ(pool.windows(1000.0).size(), 2u);
}

TEST(NodePool, ReLeaseDuringIdleWindowCancelsTheReap) {
  des::Simulator sim;
  workload::PoolOptions opts;
  opts.enabled = true;
  opts.boot_seconds = 10.0;
  opts.idle_reap_seconds = 30.0;
  workload::NodePool pool(sim, opts, nullptr);
  pool.add_node(7, "cloud0");

  pool.lease(1, "a", 0, 0.0);
  sim.schedule(des::from_seconds(20.0), [&] { pool.release_job(1, 20.0); });
  // Re-lease inside the idle window: the pending reap must not fire.
  sim.schedule(des::from_seconds(30.0), [&] { pool.lease(2, "a", 0, 30.0); });
  sim.run_until(des::from_seconds(200.0));

  EXPECT_EQ(pool.stats().reaps, 0u);
  EXPECT_EQ(pool.stats().cold_boots, 1u);
  EXPECT_EQ(pool.stats().warm_leases, 1u);
  ASSERT_EQ(pool.windows(500.0).size(), 1u);
  EXPECT_DOUBLE_EQ(pool.windows(500.0)[0].end, 500.0);  // still open
}

TEST(NodePool, BlockStopsLeasingAndRetireClosesTheWindow) {
  des::Simulator sim;
  workload::PoolOptions opts;
  opts.enabled = true;
  opts.boot_seconds = 5.0;
  workload::NodePool pool(sim, opts, nullptr);
  pool.add_node(7, "cloud0");
  pool.add_node(8, "cloud1");

  pool.lease(1, "a", 0, 0.0);
  pool.block_node(7);
  EXPECT_EQ(pool.leasable(), 1u);
  const auto leases = pool.lease(2, "a", 0, 1.0);
  ASSERT_EQ(leases.size(), 1u);
  EXPECT_EQ(leases[0].node, 8u);

  pool.retire_node(7, 42.0);
  const auto windows = pool.windows(100.0);
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_DOUBLE_EQ(windows[0].end, 42.0);   // retired: closed at retirement
  EXPECT_DOUBLE_EQ(windows[1].end, 100.0);  // live: closed at the fallback

  // Directory re-registration: the retired node is leasable (Cold) again.
  pool.add_node(7, "cloud0");
  EXPECT_EQ(pool.leasable(), 2u);
}

// --- workload fixture --------------------------------------------------------

/// Small two-site platform + an 8-file layout that runs in milliseconds.
struct DirectoryRig {
  Platform platform{PlatformSpec::paper_testbed(4, 4)};
  storage::DataLayout layout;
  middleware::RunOptions options;

  DirectoryRig() {
    storage::LayoutSpec spec;
    spec.total_bytes = MiB(256);
    spec.num_files = 8;
    spec.chunks_per_file = 2;
    spec.unit_bytes = 64;
    layout = storage::build_layout(spec);
    storage::assign_stores_by_fraction(layout, 0.5, platform.local_store_id(),
                                       platform.cloud_store_id());
    options.profile.name = "dir";
    options.profile.unit_bytes = 64;
    options.profile.bytes_per_second_per_core = MBps(4);
    options.profile.robj_bytes = KiB(64);
  }

  workload::JobSpec job(std::string name, std::string tenant = "default") {
    workload::JobSpec spec;
    spec.name = std::move(name);
    spec.tenant = std::move(tenant);
    spec.layout = layout;
    spec.options = options;
    return spec;
  }
};

// --- admission quotas --------------------------------------------------------

TEST(TenantQuotas, ConcurrentJobCapRejectsAndReleasesOnFinish) {
  DirectoryRig rig;
  trace::Tracer tracer;
  workload::WorkloadOptions opts;
  opts.policy = workload::SchedulingPolicy::FairShare;
  opts.tracer = &tracer;
  opts.quotas["alice"].max_concurrent_jobs = 1;
  workload::WorkloadManager manager(rig.platform, opts);
  manager.submit(rig.job("a1", "alice"), 0.0);
  manager.submit(rig.job("a2", "alice"), 0.0);   // over the cap: rejected
  manager.submit(rig.job("b1", "bob"), 0.0);     // other tenants unaffected
  manager.submit(rig.job("a3", "alice"), 5000.0);  // a1 long done: admitted
  const auto result = manager.run();

  EXPECT_EQ(result.rejected_jobs, 1u);
  EXPECT_TRUE(result.job(2).rejected);
  EXPECT_EQ(result.job(2).reject_reason, workload::QuotaReject::ConcurrentJobs);
  EXPECT_FALSE(result.job(1).rejected);
  EXPECT_FALSE(result.job(3).rejected);
  EXPECT_FALSE(result.job(4).rejected);
  // A rejected job never ran: zero span, zero cost, no run events.
  EXPECT_DOUBLE_EQ(result.job(2).start_seconds, result.job(2).submit_seconds);
  EXPECT_DOUBLE_EQ(result.job(2).finish_seconds, result.job(2).submit_seconds);
  EXPECT_DOUBLE_EQ(result.job(2).raw_cost.total_usd(), 0.0);
  EXPECT_EQ(result.job(2).run.total_jobs(), 0u);
  // Tenant rollup and trace agree.
  ASSERT_NE(result.tenant("alice"), nullptr);
  EXPECT_EQ(result.tenant("alice")->rejected, 1u);
  EXPECT_EQ(result.tenant("alice")->jobs, 2u);  // admitted jobs only
  EXPECT_EQ(tracer.count(trace::EventKind::JobRejected), 1u);
  EXPECT_EQ(tracer.count(trace::EventKind::JobStarted), 3u);
  // SLO rate covers admitted jobs only (all deadline-free here).
  EXPECT_DOUBLE_EQ(result.slo_hit_rate, 1.0);
}

TEST(TenantQuotas, BytesInFlightCapRejects) {
  DirectoryRig rig;
  workload::WorkloadOptions opts;
  opts.policy = workload::SchedulingPolicy::FairShare;
  opts.quotas["alice"].max_bytes_in_flight = MiB(300);  // one 256 MiB job fits
  workload::WorkloadManager manager(rig.platform, opts);
  manager.submit(rig.job("a1", "alice"), 0.0);
  manager.submit(rig.job("a2", "alice"), 0.0);
  const auto result = manager.run();
  EXPECT_FALSE(result.job(1).rejected);
  EXPECT_TRUE(result.job(2).rejected);
  EXPECT_EQ(result.job(2).reject_reason, workload::QuotaReject::BytesInFlight);
}

TEST(TenantQuotas, UsdPerHourCapRejects) {
  DirectoryRig rig;
  workload::WorkloadOptions opts;
  opts.policy = workload::SchedulingPolicy::FairShare;
  // Each job's burn estimate is cloud_nodes x instance-hour price; allow one
  // job's burn but not two.
  const double one_job = static_cast<double>(rig.platform.cloud_node_count()) *
                         opts.pricing.instance_hour_usd;
  opts.quotas["alice"].max_usd_per_hour = 1.5 * one_job;
  workload::WorkloadManager manager(rig.platform, opts);
  manager.submit(rig.job("a1", "alice"), 0.0);
  manager.submit(rig.job("a2", "alice"), 0.0);
  const auto result = manager.run();
  EXPECT_FALSE(result.job(1).rejected);
  EXPECT_TRUE(result.job(2).rejected);
  EXPECT_EQ(result.job(2).reject_reason, workload::QuotaReject::UsdPerHour);
  EXPECT_STREQ(workload::to_string(result.job(2).reject_reason), "usd-per-hour");
}

// --- CSV arrival-trace loader ------------------------------------------------

std::string write_temp(const std::string& name, const std::string& body) {
  const std::string path = testing::TempDir() + name;
  std::ofstream out(path);
  out << body;
  return path;
}

TEST(TraceFile, ParsesHeaderCommentsAndRows) {
  const auto path = write_temp("arrivals_ok.csv",
                               "# production trace, one job per row\n"
                               "submit_seconds,tenant,job_bytes\n"
                               "\n"
                               "3.5, analytics, 1048576\n"
                               "0.0,reports,2048\n");
  const auto records = workload::load_arrival_csv(path);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_DOUBLE_EQ(records[0].submit_seconds, 3.5);
  EXPECT_EQ(records[0].tenant, "analytics");
  EXPECT_EQ(records[0].job_bytes, 1048576u);
  EXPECT_EQ(records[1].tenant, "reports");

  // Replay sorts: the trace feeds submit_all in time order.
  const auto trace = workload::to_arrival_trace(records);
  const std::vector<double> expect = {0.0, 3.5};
  EXPECT_EQ(trace.times, expect);
  std::remove(path.c_str());
}

void expect_load_failure(const std::string& name, const std::string& body,
                         const std::string& want_line,
                         const std::string& want_reason) {
  const auto path = write_temp(name, body);
  try {
    workload::load_arrival_csv(path);
    FAIL() << "expected load_arrival_csv to throw for " << name;
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(path + ":" + want_line + ":"), std::string::npos) << msg;
    EXPECT_NE(msg.find(want_reason), std::string::npos) << msg;
  }
  std::remove(path.c_str());
}

TEST(TraceFile, MalformedInputsFailWithPathAndLine) {
  EXPECT_THROW(workload::load_arrival_csv("/nonexistent/trace.csv"),
               std::runtime_error);
  expect_load_failure("two_cols.csv", "1.0,alice\n", "1", "expected 3 columns");
  expect_load_failure("bad_number.csv", "1.0,alice,100\nxyz,bob,100\n", "2",
                      "submit_seconds is not a number");
  expect_load_failure("second_header.csv", "t,tenant,bytes\nt,tenant,bytes\n",
                      "2", "submit_seconds is not a number");
  expect_load_failure("negative_time.csv", "-1.0,alice,100\n", "1",
                      "must be non-negative");
  expect_load_failure("empty_tenant.csv", "1.0,,100\n", "1",
                      "tenant must not be empty");
  expect_load_failure("bad_bytes.csv", "1.0,alice,12.5\n", "1",
                      "job_bytes is not an unsigned integer");
  expect_load_failure("zero_bytes.csv", "1.0,alice,0\n", "1",
                      "job_bytes must be positive");
}

// --- directory-off byte identity ---------------------------------------------

TEST(DirectoryIntegration, AttachedButUnmutatedDirectoryIsByteIdentical) {
  // A directory that is bootstrapped and never mutated must not move a
  // single event relative to the same workload without one.
  const auto run_workload = [](bool with_directory) {
    DirectoryRig rig;
    PlatformDirectory dir(rig.platform);
    workload::WorkloadOptions opts;
    opts.policy = workload::SchedulingPolicy::FairShare;
    if (with_directory) {
      dir.bootstrap();
      opts.directory = &dir;
    }
    workload::WorkloadManager manager(rig.platform, opts);
    manager.submit(rig.job("a", "alice"), 0.0);
    manager.submit(rig.job("b", "bob"), 1.0);
    return manager.run();
  };
  const auto baseline = run_workload(false);
  const auto attached = run_workload(true);

  EXPECT_DOUBLE_EQ(attached.makespan, baseline.makespan);
  ASSERT_EQ(attached.jobs.size(), baseline.jobs.size());
  for (std::size_t i = 0; i < baseline.jobs.size(); ++i) {
    const auto& a = attached.jobs[i];
    const auto& b = baseline.jobs[i];
    EXPECT_DOUBLE_EQ(a.finish_seconds, b.finish_seconds);
    EXPECT_DOUBLE_EQ(a.run.total_time, b.run.total_time);
    EXPECT_EQ(a.run.store_requests, b.run.store_requests);
    ASSERT_EQ(a.run.clusters.size(), b.run.clusters.size());
    for (std::size_t c = 0; c < b.run.clusters.size(); ++c) {
      ASSERT_EQ(a.run.clusters[c].stores.size(), b.run.clusters[c].stores.size());
      for (std::size_t s = 0; s < b.run.clusters[c].stores.size(); ++s) {
        EXPECT_EQ(a.run.clusters[c].stores[s].bytes_fetched,
                  b.run.clusters[c].stores[s].bytes_fetched);
      }
    }
    ASSERT_EQ(a.run.nodes.size(), b.run.nodes.size());
    for (std::size_t n = 0; n < b.run.nodes.size(); ++n) {
      EXPECT_DOUBLE_EQ(a.run.nodes[n].finish_time, b.run.nodes[n].finish_time);
      EXPECT_EQ(a.run.nodes[n].jobs, b.run.nodes[n].jobs);
    }
  }
  EXPECT_DOUBLE_EQ(attached.platform_cost.total_usd(),
                   baseline.platform_cost.total_usd());
}

TEST(DirectoryIntegration, PoolRequiresADirectory) {
  DirectoryRig rig;
  workload::WorkloadOptions opts;
  opts.pool.enabled = true;  // no directory attached
  EXPECT_THROW(workload::WorkloadManager(rig.platform, opts),
               std::invalid_argument);
}

TEST(DirectoryIntegration, PooledSubmitNeedsWorkTrackingAndOwnsNodeLifetime) {
  // Pool leases boot and leave mid-run, so a pooled manager takes a job only
  // in direct mode without a static plan, and keeps per-job elastic,
  // migration and spot machinery out: the pool owns cloud-node lifetime.
  DirectoryRig rig;
  PlatformDirectory dir(rig.platform);
  dir.bootstrap();
  workload::WorkloadOptions opts;
  opts.directory = &dir;
  opts.pool.enabled = true;
  workload::WorkloadManager pooled(rig.platform, opts);
  workload::WorkloadManager plain(rig.platform, {});

  const auto direct_job = [&rig](const std::function<void(middleware::RunOptions&)>& edit) {
    workload::JobSpec spec = rig.job("j");
    spec.options.reduction_tree = false;
    edit(spec.options);
    return spec;
  };
  EXPECT_NO_THROW(pooled.submit(direct_job([](middleware::RunOptions&) {}), 0.0));

  struct Rule {
    const char* name;
    std::function<void(middleware::RunOptions&)> edit;
  };
  const Rule rejected[] = {
      {"tree", [](middleware::RunOptions& o) { o.reduction_tree = true; }},
      {"static", [](middleware::RunOptions& o) { o.static_assignment = true; }},
      {"elastic",
       [](middleware::RunOptions& o) {
         o.elastic.enabled = true;
         o.elastic.deadline_seconds = 1.0;
       }},
      {"migration", [](middleware::RunOptions& o) { o.migration.standby_nodes = 1; }},
      {"spot", [](middleware::RunOptions& o) { o.spot.reclaim_rate_per_hour = 1.0; }},
  };
  for (const Rule& rule : rejected) {
    EXPECT_THROW(pooled.submit(direct_job(rule.edit), 0.0), std::invalid_argument)
        << rule.name;
    // Each is a pool rule: without the pool the same job is accepted.
    EXPECT_NO_THROW(plain.submit(direct_job(rule.edit), 0.0)) << rule.name;
  }
}

// --- cross-job drain ---------------------------------------------------------

/// Pool-ready job options: slow cores so mid-run mutations land while jobs
/// still compute, reduction_tree off (drain requirement).
middleware::RunOptions slow_pool_options() {
  middleware::RunOptions options;
  options.profile.name = "dir-slow";
  options.profile.unit_bytes = 64;
  options.profile.bytes_per_second_per_core = KiB(256);
  options.profile.robj_bytes = KiB(64);
  options.reduction_tree = false;
  return options;
}

TEST(DirectoryIntegration, CrossJobDrainLosesNoCompletedWork) {
  Platform platform(PlatformSpec::paper_testbed(4, 4));
  PlatformDirectory dir(platform);
  dir.bootstrap();

  workload::WorkloadOptions opts;
  opts.policy = workload::SchedulingPolicy::FairShare;
  opts.directory = &dir;
  opts.pool.enabled = true;
  opts.pool.boot_seconds = 5.0;
  workload::WorkloadManager manager(platform, opts);

  storage::LayoutSpec lspec;
  lspec.total_bytes = MiB(64);
  lspec.num_files = 16;
  lspec.chunks_per_file = 2;
  lspec.unit_bytes = 64;
  storage::DataLayout layout = storage::build_layout(lspec);
  storage::assign_stores_by_fraction(layout, 0.5, platform.local_store_id(),
                                     platform.cloud_store_id());
  for (int i = 0; i < 2; ++i) {
    workload::JobSpec spec;
    spec.name = "j" + std::to_string(i);
    spec.tenant = i == 0 ? "alice" : "bob";
    spec.layout = layout;
    spec.options = slow_pool_options();
    manager.submit(std::move(spec), 0.0);
  }

  // Retire a cloud node both jobs compute on, mid-run.
  platform.sim().schedule(des::from_seconds(15.0), [&dir] {
    dir.begin_node_retirement(kCloudSite, 0);
  });
  const auto result = manager.run();

  // The drain vacated running jobs and the retirement completed — with
  // every already-processed chunk preserved (nothing re-executed).
  EXPECT_EQ(dir.node_state(kCloudSite, 0), ServiceState::Retired);
  std::uint32_t vacated = 0, reexecuted = 0;
  for (const auto& job : result.jobs) {
    vacated += job.run.lifecycle.nodes_vacated;
    reexecuted += job.run.lifecycle.chunks_reexecuted;
    EXPECT_EQ(job.run.total_jobs(), 32u) << job.name;  // all chunks processed
  }
  EXPECT_GT(vacated, 0u);
  EXPECT_EQ(reexecuted, 0u);
  EXPECT_GT(result.pool.cold_boots, 0u);
}

// --- randomized register/retire under load -----------------------------------

workload::WorkloadResult run_randomized(std::uint64_t seed) {
  PlatformSpec spec = PlatformSpec::paper_testbed(8, 8);
  cluster::NodeSpec late = spec.cloud().nodes.back();
  late.offline = true;
  spec.cloud().nodes.push_back(late);
  spec.cloud().nodes.push_back(late);
  Platform platform(spec);
  const std::uint32_t cloud_nodes =
      static_cast<std::uint32_t>(platform.nodes(kCloudSite).size());

  PlatformDirectory dir(platform);
  dir.bootstrap();
  workload::WorkloadOptions opts;
  opts.policy = workload::SchedulingPolicy::FairShare;
  opts.directory = &dir;
  opts.pool.enabled = true;
  opts.pool.boot_seconds = 5.0;
  opts.pool.idle_reap_seconds = 60.0;
  workload::WorkloadManager manager(platform, opts);

  storage::LayoutSpec lspec;
  lspec.total_bytes = MiB(96);
  lspec.num_files = 24;
  lspec.chunks_per_file = 2;
  lspec.unit_bytes = 64;
  storage::DataLayout layout = storage::build_layout(lspec);
  storage::assign_stores_by_fraction(layout, 0.5, platform.local_store_id(),
                                     platform.cloud_store_id());
  for (int i = 0; i < 4; ++i) {
    workload::JobSpec job;
    job.name = "r" + std::to_string(i);
    job.tenant = i % 2 == 0 ? "alice" : "bob";
    job.layout = layout;
    job.options = slow_pool_options();
    job.options.profile.bytes_per_second_per_core = KiB(128);
    manager.submit(std::move(job), i < 2 ? 0.0 : 20.0);
  }

  // Seeded mutation schedule: times and node picks are drawn up front; the
  // action at fire time depends only on the (deterministic) directory state.
  // Cloud node 0 is never touched so jobs always keep one cloud node.
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> when(5.0, 60.0);
  std::uniform_int_distribution<std::uint32_t> which(1, cloud_nodes - 1);
  for (int i = 0; i < 12; ++i) {
    const double at = when(rng);
    const std::uint32_t node = which(rng);
    platform.sim().schedule(des::from_seconds(at), [&dir, node] {
      switch (dir.node_state(kCloudSite, node)) {
        case ServiceState::Active:
          dir.begin_node_retirement(kCloudSite, node);
          break;
        case ServiceState::Absent:
        case ServiceState::Retired:
          dir.register_node(kCloudSite, node);
          break;
        case ServiceState::Draining:
          break;  // a cross-job drain is already in flight
      }
    });
  }
  return manager.run();
}

TEST(DirectoryIntegration, RandomizedRegisterRetireUnderLoadIsDeterministic) {
  const auto a = run_randomized(1234);
  const auto b = run_randomized(1234);

  // Same seed: the whole workload replays exactly.
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  std::uint32_t vacated = 0, reexecuted = 0;
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.jobs[i].finish_seconds, b.jobs[i].finish_seconds);
    EXPECT_EQ(a.jobs[i].run.total_jobs(), b.jobs[i].run.total_jobs());
    EXPECT_EQ(a.jobs[i].run.total_jobs(), 48u);  // every chunk processed
    vacated += a.jobs[i].run.lifecycle.nodes_vacated;
    reexecuted += a.jobs[i].run.lifecycle.chunks_reexecuted;
  }
  EXPECT_DOUBLE_EQ(a.platform_cost.total_usd(), b.platform_cost.total_usd());
  EXPECT_EQ(a.pool.cold_boots, b.pool.cold_boots);
  EXPECT_EQ(a.pool.warm_leases, b.pool.warm_leases);
  // The churn was real (drains vacated live slaves) and lost nothing.
  EXPECT_GT(vacated, 0u);
  EXPECT_EQ(reexecuted, 0u);
}

// --- composition: directory x qos x replication x lifecycle ------------------

TEST(DirectoryIntegration, ComposesWithQosAndReplicationUnderDrain) {
  Platform platform(PlatformSpec::paper_testbed(4, 4));
  PlatformDirectory dir(platform);
  dir.bootstrap();

  replica::ReplicaSet rs{apps::cross_site_replication()};

  qos::QosConfig qcfg;
  qcfg.tenant_weights = {{"batch", 1.0}, {"interactive", 3.0}};
  qos::StoreQos q{qcfg};

  workload::WorkloadOptions opts;
  opts.policy = workload::SchedulingPolicy::FairShare;
  opts.directory = &dir;
  opts.pool.enabled = true;
  opts.pool.boot_seconds = 5.0;
  workload::WorkloadManager manager(platform, opts);

  storage::LayoutSpec lspec;
  lspec.total_bytes = MiB(64);
  lspec.num_files = 16;
  lspec.chunks_per_file = 2;
  lspec.unit_bytes = 64;
  storage::DataLayout layout = storage::build_layout(lspec);
  storage::assign_stores_by_fraction(layout, 0.5, platform.local_store_id(),
                                     platform.cloud_store_id());
  for (int i = 0; i < 2; ++i) {
    workload::JobSpec spec;
    spec.name = i == 0 ? "scan" : "probe";
    spec.tenant = i == 0 ? "batch" : "interactive";
    spec.layout = layout;
    spec.options = slow_pool_options();
    spec.options.qos = &q;
    spec.options.replication = &rs;
    manager.submit(std::move(spec), 0.0);
  }
  platform.sim().schedule(des::from_seconds(15.0), [&dir] {
    dir.begin_node_retirement(kCloudSite, 0);
  });
  const auto result = manager.run();

  // Every chunk processed under the full stack; the drain lost nothing.
  std::uint32_t vacated = 0, reexecuted = 0;
  for (const auto& job : result.jobs) {
    EXPECT_EQ(job.run.total_jobs(), 32u) << job.name;
    vacated += job.run.lifecycle.nodes_vacated;
    reexecuted += job.run.lifecycle.chunks_reexecuted;
  }
  EXPECT_GT(vacated, 0u);
  EXPECT_EQ(reexecuted, 0u);
  EXPECT_EQ(dir.node_state(kCloudSite, 0), ServiceState::Retired);

  // QoS arbitration was live and per-tenant reports surfaced.
  ASSERT_NE(result.tenant("batch"), nullptr);
  ASSERT_NE(result.tenant("interactive"), nullptr);
  EXPECT_TRUE(result.tenant("batch")->qos.active);
  EXPECT_TRUE(result.tenant("interactive")->qos.active);
  EXPECT_GT(result.tenant("batch")->qos.store_requests, 0u);
  // Pool lease time attributed per tenant.
  EXPECT_GT(result.tenant("batch")->lease_seconds, 0.0);
  EXPECT_GT(result.tenant("interactive")->lease_seconds, 0.0);

  // Attribution still partitions the platform bill exactly.
  double attributed = 0;
  for (const auto& job : result.jobs) attributed += job.attributed_cost.total_usd();
  EXPECT_NEAR(attributed, result.platform_cost.total_usd(), 1e-9);
}

}  // namespace
}  // namespace cloudburst
