// Chaos-plan tests: scripted WAN link faults, store outages, whole-site
// blackouts with head-driven work re-granting, the recovery invariants the
// ChaosAuditor enforces (exactly-once execution, honest bills, restored
// replica coverage, deterministic replay), the chaos-off byte-identity pin,
// seeded retry-backoff jitter determinism, and the in-flight flow teardown
// regression for dead endpoints.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <vector>

#include "apps/scenarios.hpp"
#include "chaos/chaos.hpp"
#include "common/units.hpp"
#include "directory/platform_directory.hpp"
#include "middleware/runtime.hpp"
#include "net/network.hpp"
#include "qos/store_qos.hpp"
#include "replica/replica_set.hpp"
#include "storage/data_layout.hpp"
#include "storage/retry.hpp"
#include "trace/trace.hpp"
#include "workload/workload_manager.hpp"

namespace cloudburst {
namespace {

using namespace cloudburst::units;
using chaos::ChaosEvent;
using chaos::ChaosPlan;
using cluster::kLocalSite;
using cluster::Platform;
using cluster::PlatformSpec;
using middleware::RunOptions;
using middleware::RunResult;
using storage::DataLayout;

/// Per-chunk execution counts of a marker run; a partial merge fails the test.
std::vector<std::uint32_t> executions(const RunResult& result, const DataLayout& layout) {
  const apps::MarkerCounts counts = apps::marker_counts(*result.robj, layout);
  EXPECT_EQ(counts.partial, 0u) << "a chunk's count is not a whole number of executions";
  return counts.executions;
}

// --- plan generation ---------------------------------------------------------

TEST(ChaosPlanGen, SeededPlansAreDeterministicAndRespectProtection) {
  chaos::RandomPlanOptions opts;
  opts.seed = 1234;
  opts.sites = 3;
  opts.site_outages = 4;
  opts.store_outages = 4;
  const ChaosPlan a = chaos::random_plan(opts);
  const ChaosPlan b = chaos::random_plan(opts);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
    EXPECT_EQ(a.events[i].site_a, b.events[i].site_a);
    EXPECT_DOUBLE_EQ(a.events[i].at_seconds, b.events[i].at_seconds);
  }
  for (const auto& ev : a.events) {
    if (ev.kind == ChaosEvent::Kind::SiteOutage ||
        ev.kind == ChaosEvent::Kind::StoreOutage) {
      EXPECT_NE(ev.site_a, opts.protected_site);
    }
    if (ev.kind == ChaosEvent::Kind::LinkFault) {
      EXPECT_NE(ev.site_a, ev.site_b);
    }
  }
  opts.seed = 99;
  const ChaosPlan c = chaos::random_plan(opts);
  bool differs = c.events.size() != a.events.size();
  for (std::size_t i = 0; !differs && i < a.events.size(); ++i) {
    differs = a.events[i].at_seconds != c.events[i].at_seconds;
  }
  EXPECT_TRUE(differs);

  chaos::RandomPlanOptions bad;
  bad.sites = 1;
  EXPECT_THROW(chaos::random_plan(bad), std::invalid_argument);
}

// --- validation --------------------------------------------------------------

TEST(ChaosValidate, RejectsBadPlans) {
  Platform platform(apps::east_west_spec(8, 4));
  storage::LayoutSpec lspec;
  lspec.total_bytes = MiB(12);
  lspec.num_files = 3;
  lspec.chunks_per_file = 2;
  lspec.unit_bytes = 64;
  const DataLayout layout = storage::build_layout(lspec);

  auto expect_reject = [&](const ChaosPlan& plan, bool tree = false) {
    RunOptions o;
    o.profile.unit_bytes = 64;
    o.reduction_tree = tree;
    o.chaos = &plan;
    EXPECT_THROW(middleware::validate_run(platform, layout, o), std::invalid_argument);
  };

  ChaosPlan any;
  any.events.push_back({});  // default LinkFault site 0 -> site 0
  expect_reject(any, /*tree=*/true);  // chaos requires direct mode
  expect_reject(any);                 // link fault needs two distinct sites

  ChaosPlan head_blackout;
  ChaosEvent outage;
  outage.kind = ChaosEvent::Kind::SiteOutage;
  outage.site_a = kLocalSite;
  head_blackout.events.push_back(outage);
  expect_reject(head_blackout);  // cannot black out the head's site

  ChaosPlan bad_factor;
  ChaosEvent fault;
  fault.kind = ChaosEvent::Kind::LinkFault;
  fault.site_a = 0;
  fault.site_b = 1;
  fault.factor = 1.5;
  bad_factor.events.push_back(fault);
  expect_reject(bad_factor);

  ChaosPlan bad_node;
  ChaosEvent crash;
  crash.kind = ChaosEvent::Kind::NodeCrash;
  crash.site_a = 1;
  crash.node_index = 99;
  bad_node.events.push_back(crash);
  expect_reject(bad_node);
}

// NaN fails every comparison, so a `factor < 0 || factor > 1` rule let it
// through and the network then ran the faulted link at NaN capacity.
TEST(ChaosValidate, RejectsNaNLinkFactor) {
  Platform platform(apps::east_west_spec(8, 4));
  storage::LayoutSpec lspec;
  lspec.total_bytes = MiB(12);
  lspec.num_files = 3;
  lspec.chunks_per_file = 2;
  lspec.unit_bytes = 64;
  DataLayout layout = storage::build_layout(lspec);
  storage::assign_stores_by_fraction(layout, 1.0, platform.store_of_cluster(0),
                                     platform.store_of_cluster(1));

  ChaosPlan plan;
  ChaosEvent fault;
  fault.kind = ChaosEvent::Kind::LinkFault;
  fault.site_a = 0;
  fault.site_b = 1;
  fault.factor = std::numeric_limits<double>::quiet_NaN();
  plan.events.push_back(fault);
  RunOptions o;
  o.profile.unit_bytes = 64;
  o.reduction_tree = false;
  o.chaos = &plan;
  EXPECT_THROW(middleware::validate_run(platform, layout, o), std::invalid_argument);

  plan.events.front().factor = 0.5;
  EXPECT_NO_THROW(middleware::validate_run(platform, layout, o));
}

// --- chaos-off byte identity -------------------------------------------------

TEST(ChaosOff, EmptyPlanIsByteIdenticalToNoPlan) {
  apps::MarkerData marker = apps::marker_data(60000, 6, 2);
  trace::Tracer base_trace;
  trace::Tracer empty_trace;

  RunOptions base = apps::marker_run_options(marker);
  base.tracer = &base_trace;
  {
    Platform platform(apps::east_west_spec(8, 4));
    apps::spread_evenly(marker.layout, platform);
    middleware::run_distributed(platform, marker.layout, base);
  }

  const ChaosPlan empty_plan;  // attached but empty: must change nothing
  RunOptions with_empty = apps::marker_run_options(marker);
  with_empty.tracer = &empty_trace;
  with_empty.chaos = &empty_plan;
  {
    Platform platform(apps::east_west_spec(8, 4));
    middleware::run_distributed(platform, marker.layout, with_empty);
  }

  const auto replay = chaos::audit_replay(base_trace.to_jsonl(), empty_trace.to_jsonl());
  EXPECT_TRUE(replay.ok) << replay.detail;
}

// --- retry-backoff jitter (satellite: de-synchronized retries) ---------------

TEST(RetryJitter, SeededJitterIsDeterministicAndDefaultsOff) {
  // Default policy carries no jitter: the field exists but is disengaged.
  EXPECT_EQ(storage::RetryPolicy{}.jitter_fraction, 0.0);

  // A flaky object store forces retry cycles to exhaust; with jitter each
  // re-opened cycle backs off by a seeded per-(node, chunk, cycle) factor.
  auto run_once = [](double jitter, trace::Tracer& tracer) {
    apps::MarkerData marker = apps::marker_data(60000, 6, 2);
    PlatformSpec spec = apps::east_west_spec(8, 4);
    spec.sites[1].store->fault.fail_probability = 0.6;
    spec.sites[1].store->fault.seed = 77;
    Platform platform(spec);
    storage::assign_stores_by_weights(marker.layout, {1.0, 2.0, 1.0},
                                      {platform.store_of_cluster(0),
                                       platform.store_of_cluster(1),
                                       platform.store_of_cluster(2)});
    RunOptions o = apps::marker_run_options(marker);
    o.retry.max_attempts = 1;  // every failure exhausts a cycle -> backoff
    o.retry.backoff_base_seconds = 0.05;
    o.retry.jitter_fraction = jitter;
    o.tracer = &tracer;
    const RunResult result = middleware::run_distributed(platform, marker.layout, o);
    EXPECT_GT(result.totals().store_faults, 0u);
    EXPECT_GT(result.totals().fetch_retries, 0u);
  };

  trace::Tracer jittered_a, jittered_b, plain;
  run_once(0.5, jittered_a);
  run_once(0.5, jittered_b);
  run_once(0.0, plain);

  // Same seed, same jitter -> bit-identical replay.
  const auto replay = chaos::audit_replay(jittered_a.to_jsonl(), jittered_b.to_jsonl());
  EXPECT_TRUE(replay.ok) << replay.detail;
  // Jitter actually perturbs the schedule relative to the lockstep default.
  EXPECT_NE(jittered_a.to_jsonl(), plain.to_jsonl());
}

// --- WAN link faults ---------------------------------------------------------

TEST(ChaosLinkFault, WindowStallsFlowsAndRunRecovers) {
  apps::MarkerData marker = apps::marker_data(600000, 6, 2);
  trace::Tracer clean_trace;
  RunOptions clean = apps::marker_run_options(marker);
  clean.tracer = &clean_trace;
  double clean_time = 0.0;
  {
    Platform platform(apps::east_west_spec(8, 4));
    apps::spread_evenly(marker.layout, platform);
    clean_time = middleware::run_distributed(platform, marker.layout, clean).total_time;
  }

  // Hard-cut the local<->east link from mid-run until past the clean finish:
  // in-flight flows stall (traffic delayed, not lost) — at minimum east's
  // end-of-run robj shipment to the head cannot cross until restoration, so
  // the makespan must inflate.
  ChaosPlan plan;
  ChaosEvent fault;
  fault.kind = ChaosEvent::Kind::LinkFault;
  fault.site_a = 0;
  fault.site_b = 1;
  fault.factor = 0.0;
  fault.at_seconds = 0.5 * clean_time;
  fault.duration_seconds = 1.0 * clean_time;
  plan.events.push_back(fault);

  trace::Tracer faulted_trace;
  RunOptions faulted = apps::marker_run_options(marker);
  faulted.tracer = &faulted_trace;
  faulted.chaos = &plan;
  Platform platform(apps::east_west_spec(8, 4));
  const RunResult result = middleware::run_distributed(platform, marker.layout, faulted);

  EXPECT_EQ(faulted_trace.count(trace::EventKind::LinkDown), 1u);
  EXPECT_EQ(faulted_trace.count(trace::EventKind::LinkRestored), 1u);
  EXPECT_GT(result.total_time, clean_time);  // the cut cost wall-clock time
  const auto once = chaos::audit_exactly_once(executions(result, marker.layout));
  EXPECT_TRUE(once.ok) << once.detail;
}

// --- whole-site blackout -----------------------------------------------------

TEST(ChaosSiteOutage, BlackoutLosesNoWorkAndReplaysBitIdentically) {
  // k = 2 cross-site replication: every chunk survives any single-site loss.
  ChaosPlan plan;
  ChaosEvent outage;
  outage.kind = ChaosEvent::Kind::SiteOutage;
  outage.site_a = 2;  // "west" goes dark mid-run...
  outage.at_seconds = 1.0;
  outage.duration_seconds = 8.0;  // ...and comes back later
  plan.events.push_back(outage);

  auto run_once = [&plan](trace::Tracer& tracer, std::vector<std::uint32_t>* counts,
                          bool check_coverage) {
    apps::MarkerData marker = apps::marker_data(600000, 6, 2);
    replica::ReplicaSet rs{apps::cross_site_replication()};
    Platform platform(apps::east_west_spec(8, 4));
    apps::spread_evenly(marker.layout, platform);
    RunOptions o = apps::failover_run_options(marker, &rs);
    o.chaos = &plan;
    o.tracer = &tracer;
    const RunResult result = middleware::run_distributed(platform, marker.layout, o);
    if (counts) *counts = executions(result, marker.layout);
    // Drive repair to quiescence post-run (the background actor stops with
    // the run): coverage must be restorable from the surviving copies.
    if (check_coverage) {
      for (int rounds = 0; rounds < 256; ++rounds) {
        const auto tasks = rs.plan_repairs(8, 1e9);
        if (tasks.empty()) break;
        for (const auto& t : tasks) rs.repair_done(t, true, 1e9);
      }
      const auto coverage = chaos::audit_coverage(rs, marker.layout);
      EXPECT_TRUE(coverage.ok) << coverage.detail;
    }
  };

  trace::Tracer first, second;
  std::vector<std::uint32_t> counts;
  run_once(first, &counts, /*check_coverage=*/true);

  // Invariant 1: exactly-once — the dead cluster's robj never merged, and
  // every chunk it had been granted was re-executed exactly once elsewhere.
  const auto once = chaos::audit_exactly_once(counts);
  EXPECT_TRUE(once.ok) << once.detail;

  // The blackout actually happened: slaves died, the store went dark, the
  // site recovered.
  EXPECT_EQ(first.count(trace::EventKind::SiteOutage), 1u);
  EXPECT_EQ(first.count(trace::EventKind::SiteRecovered), 1u);
  EXPECT_GT(first.count(trace::EventKind::SlaveFailed), 0u);
  EXPECT_EQ(first.count(trace::EventKind::StoreOffline), 1u);

  // Invariant 4: bit-identical replay under the same seed and plan.
  run_once(second, nullptr, /*check_coverage=*/false);
  const auto replay = chaos::audit_replay(first.to_jsonl(), second.to_jsonl());
  EXPECT_TRUE(replay.ok) << replay.detail;
}

TEST(ChaosSiteOutage, PermanentBlackoutStillCompletes) {
  // duration <= 0: the site never comes back; survivors finish the job.
  ChaosPlan plan;
  ChaosEvent outage;
  outage.kind = ChaosEvent::Kind::SiteOutage;
  outage.site_a = 1;
  outage.at_seconds = 1.0;
  outage.duration_seconds = 0.0;
  plan.events.push_back(outage);

  apps::MarkerData marker = apps::marker_data(600000, 6, 2);
  replica::ReplicaSet rs{apps::cross_site_replication()};
  Platform platform(apps::east_west_spec(8, 4));
  apps::spread_evenly(marker.layout, platform);
  trace::Tracer tracer;
  RunOptions o = apps::failover_run_options(marker, &rs);
  o.chaos = &plan;
  o.tracer = &tracer;
  const RunResult result = middleware::run_distributed(platform, marker.layout, o);

  const auto once = chaos::audit_exactly_once(executions(result, marker.layout));
  EXPECT_TRUE(once.ok) << once.detail;
  EXPECT_EQ(tracer.count(trace::EventKind::SiteOutage), 1u);
  EXPECT_EQ(tracer.count(trace::EventKind::SiteRecovered), 0u);
}

// --- pooled jobs take lifecycle entries like chaos node events --------------

TEST(PooledNodeEvents, LeasedDrainAndUnleasedCrashFinishExactlyOnce) {
  // The job leases cloud nodes 0 and 1 of 4: the drain on node 0 vacates a
  // leased node, the crash on node 3 names one the job never leased and
  // misses quietly.
  apps::MarkerData marker = apps::marker_data(48000, 4, 4);
  auto run = [&marker](std::vector<RunOptions::LifecycleEvent> events) {
    Platform platform(PlatformSpec::paper_testbed(16, 32));
    directory::PlatformDirectory dir(platform);
    dir.bootstrap();
    workload::WorkloadOptions wopts;
    wopts.directory = &dir;
    wopts.pool.enabled = true;
    wopts.pool.boot_seconds = 2.0;
    workload::WorkloadManager manager(platform, wopts);
    storage::assign_stores_by_fraction(marker.layout, 0.5, platform.local_store_id(),
                                       platform.cloud_store_id());
    workload::JobSpec spec;
    spec.name = "scan";
    spec.layout = marker.layout;
    spec.pool_nodes = 2;
    spec.options = apps::marker_run_options(marker);
    spec.options.lifecycle = std::move(events);
    manager.submit(std::move(spec), 0.0);
    return manager.run();
  };
  const auto clean = run({});
  using Kind = RunOptions::LifecycleEvent::Kind;
  const double at = 0.5 * clean.makespan;
  const auto result = run({{Kind::Drain, cluster::kCloudSite, 0, at},
                           {Kind::Crash, cluster::kCloudSite, 3, at}});

  ASSERT_EQ(result.jobs.size(), 1u);
  const RunResult& job = result.jobs[0].run;
  EXPECT_EQ(job.lifecycle.drains_requested, 1u);
  EXPECT_EQ(job.lifecycle.nodes_vacated, 1u);
  EXPECT_EQ(job.lifecycle.nodes_crashed, 0u);
  const auto once = chaos::audit_exactly_once(executions(job, marker.layout));
  EXPECT_TRUE(once.ok) << once.detail;
  const auto bills = chaos::audit_bills(result);
  EXPECT_TRUE(bills.ok) << bills.detail;
}

// --- flow teardown on endpoint death (regression) ----------------------------

TEST(NetTeardown, DeadEndpointFlowsSettleAndFreeTheirShare) {
  des::Simulator sim;
  net::Network net{sim};
  const net::SiteId sa = net.add_site("A");
  const net::SiteId sb = net.add_site("B");
  const net::LinkId link = net.add_link("ab", 1e6, 0);
  const net::EndpointId a1 = net.add_endpoint("a1", sa);
  const net::EndpointId a2 = net.add_endpoint("a2", sa);
  const net::EndpointId b1 = net.add_endpoint("b1", sb);
  const net::EndpointId b2 = net.add_endpoint("b2", sb);
  net.set_route_symmetric(sa, sb, {link});

  bool doomed_fired = false;
  double survivor_done = -1.0;
  net.start_flow(a1, b1, 1000000, 0, [&] { doomed_fired = true; });
  net.start_flow(b1, a2, 1000000, 0, [&] { doomed_fired = true; });
  net.start_flow(a2, b2, 1000000, 0,
                 [&] { survivor_done = des::to_seconds(sim.now()); });

  // Kill b1 shortly in: both of its flows (one as dst, one as src) must
  // leave the link's active list so the survivor gets the whole 1 MB/s.
  net.check_invariants();
  sim.schedule(des::from_seconds(0.1), [&] {
    net.check_invariants();
    EXPECT_EQ(net.cancel_flows_with_endpoint(b1), 2u);
    net.check_invariants();
  });
  sim.run();
  net.check_invariants();

  EXPECT_FALSE(doomed_fired);
  ASSERT_GT(survivor_done, 0.0);
  // 0.1 s of a three-way split (~33 KB moved) then full rate for the rest:
  // well under the 3 s a leaked share would cost.
  EXPECT_NEAR(survivor_done, 0.1 + (1e6 - 1e6 / 3 * 0.1) / 1e6, 0.05);
}

// --- auditor unit checks -----------------------------------------------------

TEST(ChaosAuditor, ExactlyOnceFlagsLossAndDoubleCount) {
  EXPECT_TRUE(chaos::audit_exactly_once({1, 1, 1}).ok);
  const auto lost = chaos::audit_exactly_once({1, 0, 1});
  EXPECT_FALSE(lost.ok);
  EXPECT_NE(lost.detail.find("chunk 1"), std::string::npos);
  const auto twice = chaos::audit_exactly_once({1, 1, 2});
  EXPECT_FALSE(twice.ok);
  EXPECT_NE(twice.detail.find("2 times"), std::string::npos);
}

TEST(MarkerOracle, CountsExecutionsAndReportsPartialMerges) {
  const apps::MarkerData marker = apps::marker_data(600, 3, 1);
  const auto& chunks = marker.layout.chunks();
  api::HashCountRobj robj;
  robj.add(chunks[0].id, 2.0 * static_cast<double>(chunks[0].units));  // ran twice
  robj.add(chunks[1].id, 0.5 * static_cast<double>(chunks[1].units));  // half merged
  robj.add(chunks[2].id, static_cast<double>(chunks[2].units));
  const apps::MarkerCounts counts = apps::marker_counts(robj, marker.layout);
  EXPECT_EQ(counts.executions, (std::vector<std::uint32_t>{2, 0, 1}));
  EXPECT_EQ(counts.partial, 1u);
}

TEST(ChaosAuditor, ReplayReportsFirstDivergingLine) {
  EXPECT_TRUE(chaos::audit_replay("a\nb\n", "a\nb\n").ok);
  const auto diff = chaos::audit_replay("a\nb\nc\n", "a\nB\nc\n");
  EXPECT_FALSE(diff.ok);
  EXPECT_NE(diff.detail.find("line 2"), std::string::npos);
}

}  // namespace
}  // namespace cloudburst
