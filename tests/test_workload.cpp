// Multi-tenant workload manager tests: deterministic arrival traces, the
// core-slot arbiter disciplines, the byte-identity of a one-job FIFO
// workload against run_distributed, inter-job scheduling (FIFO / SJF /
// fair-share / priority with preemption), exact per-tenant cost
// attribution, and elastic bursting under concurrent jobs.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "apps/experiments.hpp"
#include "apps/scenarios.hpp"
#include "common/units.hpp"
#include "directory/platform_directory.hpp"
#include "middleware/runtime.hpp"
#include "trace/trace.hpp"
#include "workload/workload_manager.hpp"

namespace cloudburst::workload {
namespace {

using namespace cloudburst::units;
using cluster::kCloudSite;
using cluster::kLocalSite;
using cluster::Platform;
using cluster::PlatformSpec;

// --- arrival traces ----------------------------------------------------------

TEST(Arrivals, PoissonIsDeterministicAndMonotonic) {
  const auto a = ArrivalTrace::poisson(50, 2.0, 7);
  const auto b = ArrivalTrace::poisson(50, 2.0, 7);
  ASSERT_EQ(a.size(), 50u);
  EXPECT_EQ(a.times, b.times);
  for (std::size_t i = 1; i < a.size(); ++i) EXPECT_GE(a.at(i), a.at(i - 1));
  EXPECT_GT(a.at(0), 0.0);
  // A different seed draws a different trace.
  EXPECT_NE(a.times, ArrivalTrace::poisson(50, 2.0, 8).times);
  // Mean inter-arrival ~ 1/rate over 50 draws: loose 3x bounds.
  const double mean = a.times.back() / 50.0;
  EXPECT_GT(mean, 0.5 / 2.0 / 3.0);
  EXPECT_LT(mean, 3.0 / 2.0);
}

TEST(Arrivals, BurstyLaysOutBurstsAndGaps) {
  const auto t = ArrivalTrace::bursty(3, 2, 10.0, 0.5);
  ASSERT_EQ(t.size(), 6u);
  const std::vector<double> expect = {0.0, 0.5, 10.0, 10.5, 20.0, 20.5};
  EXPECT_EQ(t.times, expect);
}

TEST(Arrivals, ReplaySortsDefensively) {
  const auto t = ArrivalTrace::replay({3.0, 1.0, 2.0});
  const std::vector<double> expect = {1.0, 2.0, 3.0};
  EXPECT_EQ(t.times, expect);
}

// --- core-slot arbiter -------------------------------------------------------

TEST(SlotArbiter, FifoServesClaimsInArrivalOrder) {
  CoreSlotArbiter arb(CoreSlotArbiter::Discipline::Fifo);
  arb.register_job(1, {});
  arb.register_job(2, {});
  arb.register_job(3, {});
  EXPECT_TRUE(arb.acquire(0, 1, [] {}));  // free slot: granted synchronously
  std::vector<int> order;
  EXPECT_FALSE(arb.acquire(0, 2, [&] { order.push_back(2); }));
  EXPECT_FALSE(arb.acquire(0, 3, [&] { order.push_back(3); }));
  arb.release(0, 1, 1.0);  // hands to job 2
  arb.release(0, 2, 1.0);  // hands to job 3
  const std::vector<int> expect = {2, 3};
  EXPECT_EQ(order, expect);
}

TEST(SlotArbiter, WeightedFairPicksLeastServedTenant) {
  CoreSlotArbiter arb(CoreSlotArbiter::Discipline::WeightedFair);
  arb.register_job(1, {"alice", 1.0, 0});
  arb.register_job(2, {"alice", 1.0, 0});
  arb.register_job(3, {"bob", 1.0, 0});
  EXPECT_TRUE(arb.acquire(0, 1, [] {}));
  std::vector<int> order;
  EXPECT_FALSE(arb.acquire(0, 2, [&] { order.push_back(2); }));
  EXPECT_FALSE(arb.acquire(0, 3, [&] { order.push_back(3); }));
  // Job 1 charged alice 5s: bob's claim wins over alice's earlier one.
  arb.release(0, 1, 5.0);
  ASSERT_EQ(order.size(), 1u);
  EXPECT_EQ(order[0], 3);
  EXPECT_DOUBLE_EQ(arb.tenant_seconds("alice"), 5.0);
  EXPECT_DOUBLE_EQ(arb.tenant_service("alice"), 5.0);
}

TEST(SlotArbiter, WeightDividesChargedService) {
  CoreSlotArbiter arb(CoreSlotArbiter::Discipline::WeightedFair);
  arb.register_job(1, {"heavy", 4.0, 0});
  EXPECT_TRUE(arb.acquire(0, 1, [] {}));
  arb.release(0, 1, 8.0);
  EXPECT_DOUBLE_EQ(arb.tenant_seconds("heavy"), 8.0);
  EXPECT_DOUBLE_EQ(arb.tenant_service("heavy"), 2.0);  // 8s / weight 4
}

TEST(SlotArbiter, LateTenantEntersAtServiceFloor) {
  CoreSlotArbiter arb(CoreSlotArbiter::Discipline::WeightedFair);
  arb.register_job(1, {"old", 1.0, 0});
  EXPECT_TRUE(arb.acquire(0, 1, [] {}));
  arb.release(0, 1, 100.0);
  // A tenant registering now starts at the floor (min active service =
  // 100), not at zero — it does not get to monopolize to "catch up".
  arb.register_job(2, {"new", 1.0, 0});
  EXPECT_DOUBLE_EQ(arb.tenant_service("new"), 100.0);
}

TEST(SlotArbiter, PriorityWinsSlotAndReportsPreemption) {
  CoreSlotArbiter arb(CoreSlotArbiter::Discipline::Priority);
  arb.register_job(1, {"t", 1.0, 0});   // low priority
  arb.register_job(2, {"t", 1.0, 5});   // high priority
  std::vector<std::uint32_t> preempted;
  arb.on_preemption([&](net::EndpointId, std::uint32_t loser, std::uint32_t winner) {
    preempted.push_back(loser);
    EXPECT_EQ(winner, 2u);
  });
  EXPECT_TRUE(arb.acquire(0, 1, [] {}));
  bool high_ran = false;
  EXPECT_FALSE(arb.acquire(0, 2, [&] { high_ran = true; }));
  arb.release(0, 1, 1.0);  // chunk boundary: high priority takes the core
  EXPECT_TRUE(high_ran);
  // Job 1 re-claims the slot it last held and finds a higher-priority
  // holder: that is the chunk-granular preemption.
  EXPECT_FALSE(arb.acquire(0, 1, [] {}));
  ASSERT_EQ(preempted.size(), 1u);
  EXPECT_EQ(preempted[0], 1u);
}

TEST(SlotArbiter, ReleaseByNonHolderThrows) {
  CoreSlotArbiter arb(CoreSlotArbiter::Discipline::Fifo);
  arb.register_job(1, {});
  EXPECT_TRUE(arb.acquire(0, 1, [] {}));
  EXPECT_THROW(arb.release(0, 2, 1.0), std::logic_error);
  EXPECT_THROW(arb.release(1, 1, 1.0), std::logic_error);
}

TEST(SlotArbiter, ForgetDropsClaimsAndFreesHeldSlot) {
  CoreSlotArbiter arb(CoreSlotArbiter::Discipline::Fifo);
  arb.register_job(1, {});
  arb.register_job(2, {});
  arb.register_job(3, {});
  EXPECT_TRUE(arb.acquire(0, 1, [] {}));
  bool job2_ran = false, job3_ran = false;
  EXPECT_FALSE(arb.acquire(0, 2, [&] { job2_ran = true; }));
  EXPECT_FALSE(arb.acquire(0, 3, [&] { job3_ran = true; }));
  arb.forget(0, 2);  // job 2 died while queued
  arb.forget(0, 1);  // the holder died: slot passes over job 2 to job 3
  EXPECT_FALSE(job2_ran);
  EXPECT_TRUE(job3_ran);
}

// --- workload fixture --------------------------------------------------------

/// Small two-site platform + an 8-file layout that runs in milliseconds.
struct WorkloadRig {
  Platform platform{PlatformSpec::paper_testbed(4, 4)};
  storage::DataLayout layout;
  middleware::RunOptions options;

  WorkloadRig() {
    storage::LayoutSpec spec;
    spec.total_bytes = MiB(256);
    spec.num_files = 8;
    spec.chunks_per_file = 2;
    spec.unit_bytes = 64;
    layout = storage::build_layout(spec);
    storage::assign_stores_by_fraction(layout, 0.5, platform.local_store_id(),
                                       platform.cloud_store_id());
    options.profile.name = "wl";
    options.profile.unit_bytes = 64;
    options.profile.bytes_per_second_per_core = MBps(4);
    options.profile.robj_bytes = KiB(64);
  }

  JobSpec job(std::string name, std::string tenant = "default", int priority = 0) {
    JobSpec spec;
    spec.name = std::move(name);
    spec.tenant = std::move(tenant);
    spec.priority = priority;
    spec.layout = layout;
    spec.options = options;
    return spec;
  }
};

TEST(WorkloadManager, SubmitRejectsLayoutWithoutStores) {
  // build_layout leaves every file on kInvalidStore until stores are
  // assigned; such a job must be refused at submission, not run.
  WorkloadRig rig;
  WorkloadManager manager(rig.platform, WorkloadOptions{});
  JobSpec unplaced = rig.job("unplaced");
  storage::LayoutSpec spec;
  spec.total_bytes = MiB(64);
  spec.num_files = 2;
  spec.unit_bytes = 64;
  unplaced.layout = storage::build_layout(spec);
  EXPECT_THROW(manager.submit(std::move(unplaced), 0.0), std::invalid_argument);

  JobSpec far = rig.job("far");
  far.layout.move_file(3, static_cast<storage::StoreId>(rig.platform.store_count()));
  EXPECT_THROW(manager.submit(std::move(far), 0.0), std::invalid_argument);

  manager.submit(rig.job("placed"), 0.0);
  const auto result = manager.run();
  ASSERT_EQ(result.jobs.size(), 1u);
  EXPECT_EQ(result.jobs[0].run.total_jobs(), rig.layout.chunks().size());
}

// --- byte-identity of the solo path ------------------------------------------

TEST(WorkloadManager, SoloFifoJobMatchesRunDistributedExactly) {
  // Paper-scale run: the same spec/layout/options through run_distributed
  // and through a one-job FIFO workload must not move a single event.
  const auto app = apps::PaperApp::Knn;
  const auto options = apps::paper_run_options(app);

  Platform p1(PlatformSpec::paper_testbed(16, 16));
  const auto layout1 =
      apps::paper_layout(app, 0.5, p1.local_store_id(), p1.cloud_store_id());
  const auto baseline = middleware::run_distributed(p1, layout1, options);

  Platform p2(PlatformSpec::paper_testbed(16, 16));
  JobSpec spec;
  spec.name = "knn";
  spec.layout = apps::paper_layout(app, 0.5, p2.local_store_id(), p2.cloud_store_id());
  spec.options = options;
  WorkloadManager manager(p2, WorkloadOptions{});
  manager.submit(std::move(spec), 0.0);
  const auto workload = manager.run();

  ASSERT_EQ(workload.jobs.size(), 1u);
  const middleware::RunResult& run = workload.jobs[0].run;
  EXPECT_DOUBLE_EQ(run.total_time, baseline.total_time);
  EXPECT_DOUBLE_EQ(run.global_reduction_time, baseline.global_reduction_time);
  ASSERT_EQ(run.clusters.size(), baseline.clusters.size());
  for (std::size_t c = 0; c < run.clusters.size(); ++c) {
    EXPECT_DOUBLE_EQ(run.clusters[c].processing, baseline.clusters[c].processing);
    EXPECT_DOUBLE_EQ(run.clusters[c].retrieval, baseline.clusters[c].retrieval);
    EXPECT_DOUBLE_EQ(run.clusters[c].sync, baseline.clusters[c].sync);
    EXPECT_EQ(run.clusters[c].jobs_local, baseline.clusters[c].jobs_local);
    EXPECT_EQ(run.clusters[c].jobs_stolen, baseline.clusters[c].jobs_stolen);
  }
  ASSERT_EQ(run.nodes.size(), baseline.nodes.size());
  for (std::size_t n = 0; n < run.nodes.size(); ++n) {
    EXPECT_DOUBLE_EQ(run.nodes[n].processing, baseline.nodes[n].processing);
    EXPECT_DOUBLE_EQ(run.nodes[n].retrieval, baseline.nodes[n].retrieval);
    EXPECT_DOUBLE_EQ(run.nodes[n].wait, baseline.nodes[n].wait);
    EXPECT_DOUBLE_EQ(run.nodes[n].finish_time, baseline.nodes[n].finish_time);
    EXPECT_EQ(run.nodes[n].jobs, baseline.nodes[n].jobs);
  }
  EXPECT_EQ(run.store_requests, baseline.store_requests);
  EXPECT_EQ(run.s3_get_requests, baseline.s3_get_requests);
  ASSERT_EQ(run.clusters.size(), baseline.clusters.size());
  for (std::size_t c = 0; c < baseline.clusters.size(); ++c) {
    ASSERT_EQ(run.clusters[c].stores.size(), baseline.clusters[c].stores.size());
    for (std::size_t s = 0; s < baseline.clusters[c].stores.size(); ++s) {
      EXPECT_EQ(run.clusters[c].stores[s].bytes_fetched,
                baseline.clusters[c].stores[s].bytes_fetched);
    }
  }
  EXPECT_DOUBLE_EQ(workload.makespan, baseline.total_time);
  EXPECT_EQ(workload.preemptions, 0u);
  // Lifecycle subsystem off: no drains, no early rental ends on either path.
  EXPECT_EQ(run.lifecycle.drains_requested, 0u);
  EXPECT_EQ(run.lifecycle.nodes_crashed, 0u);
  for (const auto& rental : run.rentals) EXPECT_LT(rental.end, 0.0);
  for (const auto& rental : baseline.rentals) EXPECT_LT(rental.end, 0.0);
}

// --- admission policies ------------------------------------------------------

TEST(WorkloadManager, FifoRunsToCompletionInSubmissionOrder) {
  WorkloadRig rig;
  WorkloadManager manager(rig.platform, WorkloadOptions{});
  manager.submit(rig.job("first"), 0.0);
  manager.submit(rig.job("second"), 0.0);
  const auto result = manager.run();
  ASSERT_EQ(result.jobs.size(), 2u);
  // Second waits for first's completion: no overlap at all.
  EXPECT_DOUBLE_EQ(result.jobs[0].start_seconds, 0.0);
  EXPECT_DOUBLE_EQ(result.jobs[1].start_seconds, result.jobs[0].finish_seconds);
  EXPECT_GT(result.jobs[1].queue_seconds(), 0.0);
  EXPECT_DOUBLE_EQ(result.makespan, result.jobs[1].finish_seconds);
}

TEST(WorkloadManager, SecondWorkloadOnOnePlatformTimesItselfFromItsStart) {
  // A workload on a platform that already ran one reports the queue times,
  // latencies, makespan and bill of the same workload on a fresh platform:
  // submissions are delays from the manager's start, and so is the makespan.
  for (const bool pooled : {false, true}) {
    const auto run = [pooled](WorkloadRig& rig) {
      directory::PlatformDirectory dir(rig.platform);
      dir.bootstrap();
      rig.options.reduction_tree = !pooled;
      WorkloadManager manager(rig.platform,
                              pooled ? apps::failover_workload_options(dir) : WorkloadOptions{});
      manager.submit(rig.job("first"), 0.0);
      manager.submit(rig.job("second"), 0.5);
      return manager.run();
    };
    WorkloadRig fresh_rig;
    const WorkloadResult fresh = run(fresh_rig);
    WorkloadRig reused_rig;
    run(reused_rig);
    const WorkloadResult again = run(reused_rig);

    ASSERT_EQ(again.jobs.size(), fresh.jobs.size());
    for (std::size_t j = 0; j < fresh.jobs.size(); ++j) {
      EXPECT_NEAR(again.jobs[j].queue_seconds(), fresh.jobs[j].queue_seconds(), 1e-6)
          << "pooled=" << pooled << " job " << j;
      EXPECT_NEAR(again.jobs[j].latency_seconds(), fresh.jobs[j].latency_seconds(), 1e-6)
          << "pooled=" << pooled << " job " << j;
    }
    EXPECT_GT(fresh.makespan, 0.0);
    EXPECT_NEAR(again.makespan, fresh.makespan, 1e-6) << "pooled=" << pooled;
    EXPECT_NEAR(again.platform_cost.total_usd(), fresh.platform_cost.total_usd(), 1e-9)
        << "pooled=" << pooled;
  }
}

TEST(WorkloadManager, SjfStartsShortestEstimateFirst) {
  WorkloadRig rig;
  // A second layout four times the bytes: strictly longer estimate.
  storage::LayoutSpec big;
  big.total_bytes = MiB(1024);
  big.num_files = 8;
  big.chunks_per_file = 2;
  big.unit_bytes = 64;
  JobSpec long_job = rig.job("long");
  long_job.layout = storage::build_layout(big);
  storage::assign_stores_by_fraction(long_job.layout, 0.5, rig.platform.local_store_id(),
                                     rig.platform.cloud_store_id());

  WorkloadOptions opts;
  opts.policy = SchedulingPolicy::Sjf;
  WorkloadManager manager(rig.platform, opts);
  manager.submit(std::move(long_job), 0.0);       // submitted first...
  manager.submit(rig.job("short"), 0.0);          // ...but short wins the pick
  const auto result = manager.run();
  EXPECT_DOUBLE_EQ(result.job(2).start_seconds, 0.0);
  EXPECT_DOUBLE_EQ(result.job(1).start_seconds, result.job(2).finish_seconds);
}

TEST(WorkloadManager, FairShareOverlapsConcurrentJobs) {
  WorkloadRig rig;
  WorkloadOptions opts;
  opts.policy = SchedulingPolicy::FairShare;
  WorkloadManager manager(rig.platform, opts);
  manager.submit(rig.job("a", "alice"), 0.0);
  manager.submit(rig.job("b", "bob"), 0.0);
  const auto result = manager.run();
  // Both admitted immediately; the core slots time-share.
  EXPECT_DOUBLE_EQ(result.job(1).start_seconds, 0.0);
  EXPECT_DOUBLE_EQ(result.job(2).start_seconds, 0.0);
  ASSERT_NE(result.tenant("alice"), nullptr);
  ASSERT_NE(result.tenant("bob"), nullptr);
  const double alice = result.tenant("alice")->service_seconds;
  const double bob = result.tenant("bob")->service_seconds;
  EXPECT_GT(alice, 0.0);
  EXPECT_GT(bob, 0.0);
  // Equal weights, identical jobs: service within 2x of each other.
  EXPECT_LT(alice / bob, 2.0);
  EXPECT_GT(alice / bob, 0.5);
  // Sharing stretches each job but the pair beats running back to back.
  const double serial = result.job(1).run.total_time + result.job(2).run.total_time;
  EXPECT_LT(result.makespan, serial);
}

TEST(WorkloadManager, PriorityPreemptsLowPriorityAtChunkBoundaries) {
  WorkloadRig rig;
  trace::Tracer tracer;
  WorkloadOptions opts;
  opts.policy = SchedulingPolicy::Priority;
  opts.tracer = &tracer;
  WorkloadManager manager(rig.platform, opts);
  manager.submit(rig.job("batch", "batch-tenant", 0), 0.0);
  // A small urgent job arrives once the batch job holds every core. It must
  // win the contended slots (preempting the batch job chunk by chunk) and
  // finish long before the batch job despite arriving second.
  storage::LayoutSpec small;
  small.total_bytes = MiB(32);
  small.num_files = 4;
  small.chunks_per_file = 1;
  small.unit_bytes = 64;
  JobSpec urgent = rig.job("urgent", "urgent-tenant", 10);
  urgent.layout = storage::build_layout(small);
  storage::assign_stores_by_fraction(urgent.layout, 0.5, rig.platform.local_store_id(),
                                     rig.platform.cloud_store_id());
  manager.submit(std::move(urgent), 0.5);
  const auto result = manager.run();
  EXPECT_GT(result.preemptions, 0u);
  EXPECT_EQ(result.job(1).preemptions, result.preemptions);  // only batch loses cores
  EXPECT_EQ(result.job(2).preemptions, 0u);
  EXPECT_EQ(tracer.count(trace::EventKind::JobPreempted), result.preemptions);
  EXPECT_EQ(tracer.count(trace::EventKind::JobSubmitted), 2u);
  EXPECT_EQ(tracer.count(trace::EventKind::JobStarted), 2u);
  EXPECT_EQ(tracer.count(trace::EventKind::JobFinished), 2u);
  // The urgent job, despite arriving second, finishes first.
  EXPECT_LT(result.job(2).finish_seconds, result.job(1).finish_seconds);
}

TEST(WorkloadManager, MaxConcurrentCapsAdmission) {
  WorkloadRig rig;
  WorkloadOptions opts;
  opts.policy = SchedulingPolicy::FairShare;
  opts.max_concurrent = 1;
  WorkloadManager manager(rig.platform, opts);
  manager.submit(rig.job("a"), 0.0);
  manager.submit(rig.job("b"), 0.0);
  const auto result = manager.run();
  // Cap of one degenerates to run-to-completion.
  EXPECT_DOUBLE_EQ(result.job(2).start_seconds, result.job(1).finish_seconds);
}

TEST(WorkloadManager, DeadlinesDriveSloAccounting) {
  WorkloadRig rig;
  WorkloadManager manager(rig.platform, WorkloadOptions{});
  JobSpec relaxed = rig.job("relaxed");
  relaxed.deadline_seconds = 1e6;
  JobSpec strict = rig.job("strict");
  strict.deadline_seconds = 1e-3;  // FIFO queueing alone blows this
  manager.submit(std::move(relaxed), 0.0);
  manager.submit(std::move(strict), 0.0);
  const auto result = manager.run();
  EXPECT_TRUE(result.job(1).slo_met());
  EXPECT_FALSE(result.job(2).slo_met());
  EXPECT_DOUBLE_EQ(result.slo_hit_rate, 0.5);
  EXPECT_EQ(result.tenant("default")->slo_met, 1u);
}

// --- trace lanes -------------------------------------------------------------

TEST(WorkloadManager, GanttRendersPerJobLanes) {
  WorkloadRig rig;
  trace::Tracer tracer;
  WorkloadOptions opts;
  opts.policy = SchedulingPolicy::FairShare;
  opts.tracer = &tracer;
  WorkloadManager manager(rig.platform, opts);
  manager.submit(rig.job("alpha"), 0.0);
  manager.submit(rig.job("beta"), 1.0);
  manager.run();
  const std::string gantt = tracer.render_gantt(60);
  // Job lifecycle lanes ('J' running) plus per-job node lanes ("alpha/...").
  EXPECT_NE(gantt.find("alpha"), std::string::npos);
  EXPECT_NE(gantt.find("beta"), std::string::npos);
  EXPECT_NE(gantt.find('J'), std::string::npos);
  EXPECT_NE(gantt.find("alpha/"), std::string::npos);
}

// --- cost attribution --------------------------------------------------------

TEST(WorkloadManager, AttributedCostsSumExactlyToPlatformBill) {
  WorkloadRig rig;
  WorkloadOptions opts;
  opts.policy = SchedulingPolicy::FairShare;
  opts.tenant_weights = {{"alice", 2.0}, {"bob", 1.0}};
  WorkloadManager manager(rig.platform, opts);
  manager.submit(rig.job("a1", "alice"), 0.0);
  manager.submit(rig.job("b1", "bob"), 0.0);
  manager.submit(rig.job("a2", "alice"), 0.5);
  const auto result = manager.run();

  double inst = 0, req = 0, xfer = 0, stor = 0, hours = 0;
  std::uint64_t gets = 0;
  for (const auto& job : result.jobs) {
    inst += job.attributed_cost.instance_usd;
    req += job.attributed_cost.requests_usd;
    xfer += job.attributed_cost.transfer_usd;
    stor += job.attributed_cost.storage_usd;
    hours += job.attributed_cost.instance_hours;
    gets += job.attributed_cost.get_requests;
  }
  // Exact, component by component — not merely approximate.
  EXPECT_DOUBLE_EQ(inst, result.platform_cost.instance_usd);
  EXPECT_DOUBLE_EQ(req, result.platform_cost.requests_usd);
  EXPECT_DOUBLE_EQ(xfer, result.platform_cost.transfer_usd);
  EXPECT_DOUBLE_EQ(stor, result.platform_cost.storage_usd);
  EXPECT_DOUBLE_EQ(hours, result.platform_cost.instance_hours);
  EXPECT_EQ(gets, result.platform_cost.get_requests);
  EXPECT_NEAR(inst + req + xfer + stor, result.platform_cost.total_usd(), 1e-9);

  // Tenant rollups partition the same bill.
  double tenant_total = 0;
  for (const auto& t : result.tenants) tenant_total += t.attributed_cost.total_usd();
  EXPECT_NEAR(tenant_total, result.platform_cost.total_usd(), 1e-9);
  EXPECT_EQ(result.tenant("alice")->jobs, 2u);
  EXPECT_DOUBLE_EQ(result.tenant("alice")->weight, 2.0);

  // The platform GET count is the sum of true per-job request counts.
  std::uint64_t raw_gets = 0;
  for (const auto& job : result.jobs) raw_gets += job.raw_cost.get_requests;
  EXPECT_EQ(result.platform_cost.get_requests, raw_gets);
  EXPECT_GT(raw_gets, 0u);
}

// --- elastic bursting under concurrency --------------------------------------

TEST(WorkloadManager, ConcurrentElasticJobsBillSharedNodesOnce) {
  // Two tenants' elastic jobs on the same platform: both scale out onto the
  // same physical cloud nodes; the platform bill must carry each node once.
  Platform platform(PlatformSpec::paper_testbed(2, 8));
  storage::LayoutSpec lspec;
  lspec.total_bytes = MiB(512);
  lspec.num_files = 8;
  lspec.chunks_per_file = 3;
  lspec.unit_bytes = 64;
  storage::DataLayout layout = storage::build_layout(lspec);
  storage::assign_stores_by_fraction(layout, 0.0, platform.local_store_id(),
                                     platform.cloud_store_id());

  middleware::RunOptions options;
  options.profile.name = "elastic-wl";
  options.profile.unit_bytes = 64;
  options.profile.bytes_per_second_per_core = MBps(2);
  options.profile.robj_bytes = KiB(64);
  options.reduction_tree = false;
  options.elastic.enabled = true;
  options.elastic.deadline_seconds = 30.0;  // tight: forces activations
  options.elastic.initial_cloud_nodes = 1;
  options.elastic.check_interval_seconds = 2.0;
  options.elastic.boot_seconds = 5.0;
  options.elastic.activation_step = 2;

  WorkloadOptions opts;
  opts.policy = SchedulingPolicy::FairShare;
  WorkloadManager manager(platform, opts);
  for (int i = 0; i < 2; ++i) {
    JobSpec spec;
    spec.name = "el" + std::to_string(i);
    spec.tenant = i == 0 ? "alice" : "bob";
    spec.layout = layout;
    spec.options = options;
    manager.submit(std::move(spec), 0.0);
  }
  const auto result = manager.run();

  // The workload counter is the sum of the per-job counters (S3), and both
  // tenants' controllers actually fired.
  std::uint32_t per_job = 0;
  std::size_t instances = 0;
  double raw_hours = 0;
  for (const auto& job : result.jobs) {
    EXPECT_GT(job.run.elastic_activations, 0u);
    per_job += job.run.elastic_activations;
    instances += job.run.rentals.size();
    raw_hours += job.raw_cost.instance_hours;
  }
  EXPECT_EQ(result.elastic_activations, per_job);
  // Both jobs rented the same initial node (and likely the same boosts):
  // the deduped platform bill has strictly fewer instance-windows than the
  // two jobs' raw bills stacked, and never more than the cloud fleet.
  EXPECT_LT(result.platform_cost.instance_hours, raw_hours);
  EXPECT_GE(instances, result.jobs.size());  // every job billed its initial node
  EXPECT_GT(result.platform_cost.instance_hours, 0.0);
  // Attribution still sums exactly under dedup.
  double attributed = 0;
  for (const auto& job : result.jobs) attributed += job.attributed_cost.instance_usd;
  EXPECT_DOUBLE_EQ(attributed, result.platform_cost.instance_usd);
}

// --- scheduler seed threading ------------------------------------------------

TEST(WorkloadManager, RunSeedThreadsIntoRandomRemoteSelection) {
  const auto run_with_seed = [](std::uint64_t seed) {
    return apps::run_env(apps::Env::Hybrid5050, apps::PaperApp::Knn,
                         [seed](cluster::PlatformSpec&, middleware::RunOptions& options) {
                           options.policy.remote_selection =
                               middleware::RemoteSelection::Random;
                           options.random_seed = seed;
                         });
  };
  const auto a1 = run_with_seed(7);
  const auto a2 = run_with_seed(7);
  EXPECT_DOUBLE_EQ(a1.total_time, a2.total_time);  // same seed: same run
  // A different seed steals from different files: some node's trajectory
  // must move (compare full finish-time vectors, not one aggregate).
  const auto b = run_with_seed(1234569);
  bool any_difference = std::abs(a1.total_time - b.total_time) > 0.0;
  ASSERT_EQ(a1.nodes.size(), b.nodes.size());
  for (std::size_t i = 0; i < a1.nodes.size() && !any_difference; ++i) {
    any_difference = a1.nodes[i].finish_time != b.nodes[i].finish_time ||
                     a1.nodes[i].jobs != b.nodes[i].jobs;
  }
  EXPECT_TRUE(any_difference);
}

// --- manager misuse ----------------------------------------------------------

TEST(WorkloadManager, RejectsEmptyAndDoubleRuns) {
  WorkloadRig rig;
  WorkloadManager manager(rig.platform, WorkloadOptions{});
  EXPECT_THROW(manager.run(), std::invalid_argument);
  manager.submit(rig.job("only"), 0.0);
  manager.run();
  EXPECT_THROW(manager.run(), std::logic_error);
  EXPECT_THROW(manager.submit(rig.job("late"), 0.0), std::logic_error);
}

TEST(WorkloadManager, SubmitAllRequiresMatchingTraceLength) {
  WorkloadRig rig;
  WorkloadManager manager(rig.platform, WorkloadOptions{});
  std::vector<JobSpec> specs;
  specs.push_back(rig.job("a"));
  specs.push_back(rig.job("b"));
  EXPECT_THROW(manager.submit_all(std::move(specs), ArrivalTrace::poisson(3, 1.0, 1)),
               std::invalid_argument);
}

}  // namespace
}  // namespace cloudburst::workload
