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

#include <cmath>
#include <string>
#include <vector>

#include "apps/wordcount.hpp"
#include "chaos/chaos.hpp"
#include "common/serialize.hpp"
#include "common/units.hpp"
#include "directory/platform_directory.hpp"
#include "engine/memory_dataset.hpp"
#include "qos/store_qos.hpp"
#include "replica/replica_set.hpp"
#include "storage/data_layout.hpp"
#include "trace/trace.hpp"
#include "workload/workload_manager.hpp"

namespace cloudburst {
namespace {

using namespace cloudburst::units;
using chaos::ChaosEvent;
using chaos::ChaosPlan;
using middleware::RunOptions;

/// perfbench chaos_failover's shape: 32 cores a site (4 local nodes, 16
/// per cloud site), 48 files of 2 chunks spread evenly over the three
/// stores, and a marker dataset whose every unit is its chunk's id.
class FailoverRig {
 public:
  FailoverRig()
      : layout_(storage::build_layout_for_units(4'800'000, sizeof(apps::WordRecord), 48, 2)),
        data_(marker_data(layout_)) {
    const cluster::Platform platform(spec());
    storage::assign_stores_by_weights(layout_, {1.0, 1.0, 1.0},
                                      {platform.store_of_cluster(0),
                                       platform.store_of_cluster(1),
                                       platform.store_of_cluster(2)});
  }

  cluster::PlatformSpec spec() const {
    cluster::PlatformSpec spec;
    spec.sites.push_back(cluster::PlatformSpec::paper_local_site(32));
    spec.sites.push_back(cluster::PlatformSpec::paper_cloud_site(32, "east"));
    spec.sites.push_back(cluster::PlatformSpec::paper_cloud_site(32, "west"));
    spec.wan_bandwidth = MBps(125);
    spec.wan_latency = des::from_seconds(ms(25));
    spec.set_wan(1, 2, MBps(60), des::from_seconds(ms(60)));
    for (cluster::ClusterId cloud : {1u, 2u}) spec.store(cloud).fabric_bandwidth = 0.0;
    return spec;
  }

  /// Two jobs under `plan` (null: no faults), traced into `tracer` if set.
  workload::WorkloadResult run(const ChaosPlan* plan, trace::Tracer* tracer = nullptr) const {
    cluster::Platform platform(spec());
    directory::PlatformDirectory dir(platform);
    dir.bootstrap();
    replica::ReplicationConfig rcfg;
    rcfg.replication_factor = 2;
    rcfg.placement = replica::PlacementPolicy::CrossSite;
    replica::ReplicaSet replicas{rcfg};
    qos::QosConfig qcfg;
    qcfg.tenant_weights = {{"alice", 1.0}, {"bob", 2.0}};
    qos::StoreQos store_qos{qcfg};

    workload::WorkloadOptions wopts;
    wopts.policy = workload::SchedulingPolicy::FairShare;
    wopts.directory = &dir;
    wopts.pool.enabled = true;
    wopts.pool.boot_seconds = 2.0;
    wopts.tracer = tracer;
    workload::WorkloadManager manager(platform, wopts);

    for (std::size_t i = 0; i < 2; ++i) {
      workload::JobSpec spec;
      spec.name = i == 0 ? "scan" : "probe";
      spec.tenant = i == 0 ? "alice" : "bob";
      spec.layout = layout_;
      RunOptions& o = spec.options;
      o.profile.name = "chaos-failover";
      o.profile.unit_bytes = sizeof(apps::WordRecord);
      o.profile.bytes_per_second_per_core = KiB(512);
      o.profile.per_job_overhead_seconds = 0.2;
      o.profile.robj_bytes = KiB(16);
      o.reduction_tree = false;
      o.random_seed = 42 + i;
      o.task = &task_;
      o.dataset = &data_;
      o.retry.max_attempts = 3;
      o.retry.backoff_base_seconds = 0.05;
      o.replication = &replicas;
      o.qos = &store_qos;
      o.chaos = plan;
      manager.submit(std::move(spec), 0.0);
    }
    return manager.run();
  }

  /// Per-chunk execution counts from a job's marker robj; a fractional
  /// residue (a partial double count) reads as a count of 0.
  std::vector<std::uint32_t> executions(const middleware::RunResult& run) const {
    std::vector<std::uint32_t> counts(layout_.chunks().size(), 0);
    if (!run.robj) return counts;
    const auto& got = dynamic_cast<const api::HashCountRobj&>(*run.robj);
    for (const auto& chunk : layout_.chunks()) {
      const double units = static_cast<double>(chunk.units);
      const auto count = static_cast<std::uint32_t>(got.get(chunk.id) / units + 0.5);
      if (std::fabs(count * units - got.get(chunk.id)) <= 1e-6) counts[chunk.id] = count;
    }
    return counts;
  }

  /// Empty when every job ran each chunk exactly once and the bills
  /// partition the platform bill; otherwise the first failed audit.
  std::string audit(const workload::WorkloadResult& result) const {
    for (const auto& job : result.jobs) {
      if (job.rejected) return "job " + job.name + " rejected";
      const auto once = chaos::audit_exactly_once(executions(job.run));
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
  static engine::MemoryDataset marker_data(const storage::DataLayout& layout) {
    std::vector<apps::WordRecord> records;
    for (const auto& chunk : layout.chunks()) {
      records.resize(records.size() + chunk.units, apps::WordRecord{chunk.id});
    }
    return engine::MemoryDataset::from_records(records);
  }

  storage::DataLayout layout_;
  engine::MemoryDataset data_;
  apps::WordCountTask task_;
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
