// Chaos failover on perfbench chaos_failover's shape: a pooled two-tenant
// workload over three sites with k=2 cross-site replication, store QoS and a
// directory-backed elastic pool, faulted by seeded chaos plans.
//
//  * Two plans under which a site blackout stranded completed work. While
//    the dead site's master was undetected, its store stayed in the endgame
//    reservation; survivors asking then got an empty batch, were told
//    "exhausted" for good, and the reserved chunks stayed in the head's pool
//    (audit_exactly_once saw a chunk executed 0 times).
//  * A plan under which a survivor's cluster robj was still on the wire when
//    the head re-granted it a dead master's work. The survivor shipped a
//    second robj for it, the head counted both toward the robjs it expected,
//    and it ended the run before another master's robj merged.
//  * A blackout that cancels the flow carrying a cluster robj to the head.
//
// Under each plan, every job's final wordcount robj must also serialize to
// the same bytes as in the fault-free run: the exactly-once global
// reduction checked on the result itself, not only on the commit ledger.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apps/scenarios.hpp"
#include "chaos/chaos.hpp"
#include "common/serialize.hpp"
#include "directory/platform_directory.hpp"
#include "qos/store_qos.hpp"
#include "replica/replica_set.hpp"
#include "trace/trace.hpp"
#include "workload/workload_manager.hpp"

namespace cloudburst {
namespace {

using chaos::ChaosEvent;
using chaos::ChaosPlan;

/// perfbench chaos_failover's shape: the east/west platform at 32 cores a
/// site (4 local nodes, 16 per cloud site), 48 files of 2 chunks spread
/// evenly over the three stores, and marker data.
class FailoverRig {
 public:
  FailoverRig() : marker_(apps::marker_data(4'800'000, 48, 2)) {
    apps::spread_evenly(marker_.layout, cluster::Platform(spec()));
  }

  static cluster::PlatformSpec spec() {
    cluster::PlatformSpec spec = apps::east_west_spec(32, 32);
    for (cluster::ClusterId cloud : {1u, 2u}) spec.store(cloud).fabric_bandwidth = 0.0;
    return spec;
  }

  /// Two jobs under `plan` (null: no faults), traced into `tracer` if set.
  workload::WorkloadResult run(const ChaosPlan* plan, trace::Tracer* tracer = nullptr) const {
    cluster::Platform platform(spec());
    directory::PlatformDirectory dir(platform);
    dir.bootstrap();
    replica::ReplicaSet replicas{apps::cross_site_replication()};
    qos::QosConfig qcfg;
    qcfg.tenant_weights = {{"alice", 1.0}, {"bob", 2.0}};
    qos::StoreQos store_qos{qcfg};

    workload::WorkloadOptions wopts = apps::failover_workload_options(dir);
    wopts.tracer = tracer;
    workload::WorkloadManager manager(platform, wopts);

    for (std::size_t i = 0; i < 2; ++i) {
      workload::JobSpec spec;
      spec.name = i == 0 ? "scan" : "probe";
      spec.tenant = i == 0 ? "alice" : "bob";
      spec.layout = marker_.layout;
      spec.options = apps::failover_run_options(marker_, &replicas);
      spec.options.random_seed = 42 + i;
      spec.options.qos = &store_qos;
      spec.options.chaos = plan;
      manager.submit(std::move(spec), 0.0);
    }
    return manager.run();
  }

  /// Empty when every job ran each chunk exactly once and the bills
  /// partition the platform bill; otherwise the first failed audit.
  std::string audit(const workload::WorkloadResult& result) const {
    for (const auto& job : result.jobs) {
      if (job.rejected) return "job " + job.name + " rejected";
      if (!job.run.robj) return "job " + job.name + " has no reduction object";
      const auto once = chaos::audit_exactly_once(
          apps::marker_counts(*job.run.robj, marker_.layout).executions);
      if (!once.ok) return "job " + job.name + ": " + once.detail;
    }
    const auto bills = chaos::audit_bills(result);
    return bills.ok ? std::string{} : bills.detail;
  }

  /// Each job's final robj, serialized (empty for a job without one).
  static std::vector<std::vector<std::uint8_t>> robj_bytes(
      const workload::WorkloadResult& result) {
    std::vector<std::vector<std::uint8_t>> out;
    for (const auto& job : result.jobs) {
      BufferWriter writer;
      if (job.run.robj) job.run.robj->serialize(writer);
      out.push_back(writer.take());
    }
    return out;
  }

  /// Empty when every job's final robj equals the fault-free run's byte for
  /// byte; otherwise the first job that differs.
  std::string oracle(const workload::WorkloadResult& result) const {
    const auto want = robj_bytes(run(nullptr));
    const auto got = robj_bytes(result);
    if (got.size() != want.size()) return "job count differs from the fault-free run";
    for (std::size_t j = 0; j < got.size(); ++j) {
      if (got[j].empty() || got[j] != want[j]) {
        return "job " + result.jobs[j].name + " robj differs from the fault-free run";
      }
    }
    return "";
  }

 private:
  apps::MarkerData marker_;
};

ChaosEvent window(ChaosEvent::Kind kind, cluster::ClusterId a, double at, double duration) {
  ChaosEvent ev;
  ev.kind = kind;
  ev.site_a = a;
  ev.at_seconds = at;
  ev.duration_seconds = duration;
  return ev;
}

ChaosEvent link_fault(cluster::ClusterId a, cluster::ClusterId b, double at, double duration,
                      double factor) {
  ChaosEvent ev = window(ChaosEvent::Kind::LinkFault, a, at, duration);
  ev.site_b = b;
  ev.factor = factor;
  return ev;
}

ChaosEvent node_event(ChaosEvent::Kind kind, cluster::ClusterId site, std::uint32_t node,
                      double at, double notice = 120.0) {
  ChaosEvent ev = window(kind, site, at, 0.0);
  ev.node_index = node;
  ev.notice_seconds = notice;
  return ev;
}

constexpr cluster::ClusterId kLocal = 0, kEast = 1, kWest = 2;

// chaos_failover seed 3 plan 45 of the full fault mix, shrunk greedily to
// the four events that still lost chunk 73. No node event is needed: west
// blacks out while its store is reserved, and the survivors run dry before
// the head notices.
TEST(ChaosFailoverPin, Seed3Plan45ShrunkLosesNoWork) {
  const FailoverRig rig;
  ChaosPlan plan;
  plan.events = {
      link_fault(kWest, kLocal, 2.150, 1.511, 0.489),
      window(ChaosEvent::Kind::StoreOutage, kEast, 2.424, 1.822),
      link_fault(kWest, kLocal, 3.172, 1.834, 0.0),
      window(ChaosEvent::Kind::SiteOutage, kWest, 4.278, 1.058),
  };
  const workload::WorkloadResult result = rig.run(&plan);
  EXPECT_EQ(rig.audit(result), "");
  EXPECT_EQ(rig.oracle(result), "");
}

// chaos_failover seed 2 plan 14 of the full fault mix (lost chunk 81): node
// crash, drain and reclaim around a west blackout.
TEST(ChaosFailoverPin, Seed2Plan14LosesNoWork) {
  const FailoverRig rig;
  ChaosPlan plan;
  plan.events = {
      link_fault(kEast, kWest, 2.266, 1.410, 0.0),
      window(ChaosEvent::Kind::StoreOutage, kEast, 2.974, 1.474),
      node_event(ChaosEvent::Kind::NodeCrash, kWest, 3, 3.313),
      link_fault(kLocal, kWest, 3.832, 1.104, 0.0),
      window(ChaosEvent::Kind::SiteOutage, kWest, 4.575, 1.110),
      node_event(ChaosEvent::Kind::SpotReclaim, kEast, 0, 4.794, 28.365),
      node_event(ChaosEvent::Kind::NodeDrain, kEast, 2, 4.920),
  };
  const workload::WorkloadResult result = rig.run(&plan);
  EXPECT_EQ(rig.audit(result), "");
  EXPECT_EQ(rig.oracle(result), "");
}

// chaos_failover seed 42 plan 3 (perfbench's own mix: link faults and a
// site blackout). Each job's head must end the run after its last merge.
TEST(ChaosFailoverPin, Seed42Plan3FinishesAfterLastMerge) {
  const FailoverRig rig;
  ChaosPlan plan;
  plan.events = {
      link_fault(kEast, kWest, 3.649, 1.008, 0.058),
      link_fault(kEast, kLocal, 3.920, 1.542, 0.0),
      window(ChaosEvent::Kind::SiteOutage, kWest, 4.423, 1.493),
  };
  trace::Tracer tracer;
  const workload::WorkloadResult result = rig.run(&plan, &tracer);
  EXPECT_EQ(rig.audit(result), "");
  EXPECT_EQ(rig.oracle(result), "");
  for (const auto& job : result.jobs) {
    const std::string head = job.name + "/head";
    const trace::Event* last = nullptr;
    for (const auto& ev : tracer.events()) {
      if (ev.actor == head) last = &ev;
    }
    ASSERT_NE(last, nullptr) << head;
    EXPECT_STREQ(trace::to_string(last->kind), "RunEnd") << head << " acted after its run ended";
  }
}

// West blacks out 1 ms after its master shipped the cluster robj of the
// scan job to the head, while that MasterRobj is still in its 25 ms WAN
// latency: the flow carrying the robj is cancelled with the site's other
// flows and the robj never merges. The head re-grants west's work, and each
// job still runs every chunk exactly once.
TEST(ChaosFailoverPin, SiteOutageCancelsAnInFlightClusterRobj) {
  const FailoverRig rig;
  trace::Tracer clean;
  rig.run(nullptr, &clean);
  const std::string west_master = "scan/master-west";
  double shipped = -1.0;
  for (const auto& ev : clean.events()) {
    if (ev.actor == west_master && ev.kind == trace::EventKind::RobjSent) shipped = ev.t;
  }
  ASSERT_GT(shipped, 0.0) << west_master << " never shipped its cluster robj";

  ChaosPlan plan;
  plan.events = {window(ChaosEvent::Kind::SiteOutage, kWest, shipped + 0.001, 1.0)};
  trace::Tracer tracer;
  const workload::WorkloadResult result = rig.run(&plan, &tracer);
  double sent_before_outage = -1.0;
  const trace::Event* outage = nullptr;
  for (const auto& ev : tracer.events()) {
    if (ev.kind == trace::EventKind::SiteOutage && ev.actor == "scan/chaos") outage = &ev;
    if (!outage && ev.actor == west_master && ev.kind == trace::EventKind::RobjSent) {
      sent_before_outage = ev.t;
    }
  }
  ASSERT_NE(outage, nullptr);
  EXPECT_GT(outage->b, 0u) << "the outage cancelled no flow";
  EXPECT_GT(sent_before_outage, outage->t - 0.025) << "no cluster robj was on the wire";
  EXPECT_EQ(rig.audit(result), "");
  EXPECT_EQ(rig.oracle(result), "");
}

}  // namespace
}  // namespace cloudburst
