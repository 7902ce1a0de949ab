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
//
// On the same shape at 8 cores a site, three runs lose a whole cluster (its
// slaves all gone while it still has work): spot reclaims that empty a cloud
// site, a re-grant that reaches a cluster with no slaves left, and a run that
// loses every cluster. Then the seeded soak: random plans with every fault
// kind and random run options, each checked against the fault-free run's
// marker counts.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "apps/scenarios.hpp"
#include "cache/chunk_cache.hpp"
#include "chaos/chaos.hpp"
#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "common/units.hpp"
#include "directory/platform_directory.hpp"
#include "qos/store_qos.hpp"
#include "replica/replica_set.hpp"
#include "storage/data_layout.hpp"
#include "trace/trace.hpp"
#include "workload/workload_manager.hpp"

namespace cloudburst {
namespace {

using chaos::ChaosEvent;
using chaos::ChaosPlan;

/// What a run varies beyond its chaos plan. The defaults are
/// chaos_failover's: the elastic node pool, and no spot draws, standbys,
/// checkpoints or cache. The pool owns cloud-node lifetime, so a run with
/// spot draws or standbys turns it off.
struct Knobs {
  std::uint64_t seed = 42;  ///< job i runs seed + i
  bool pool = true;
  double spot_rate_per_hour = 0.0;
  double spot_notice_seconds = 120.0;
  std::uint32_t standbys = 0;
  double checkpoint_seconds = 0.0;
  bool cache = false;
  bool stealing = true;
  middleware::RemoteSelection remote = middleware::RemoteSelection::MinContention;
};

/// perfbench chaos_failover's shape: the east/west platform (at 32 cores a
/// site, 4 local nodes and 16 per cloud site), files of 2 chunks spread
/// evenly over the three stores, and marker data (by default 48 files of
/// 100,000 units a chunk).
class FailoverRig {
 public:
  explicit FailoverRig(unsigned local_cores = 32, unsigned cloud_cores = 32,
                       std::uint64_t units = 4'800'000, std::uint32_t files = 48)
      : local_cores_(local_cores), cloud_cores_(cloud_cores),
        marker_(apps::marker_data(units, files, 2)) {
    apps::spread_evenly(marker_.layout, cluster::Platform(spec()));
  }

  cluster::PlatformSpec spec() const {
    cluster::PlatformSpec spec = apps::east_west_spec(local_cores_, cloud_cores_);
    for (cluster::ClusterId cloud : {1u, 2u}) spec.store(cloud).fabric_bandwidth = 0.0;
    return spec;
  }

  /// Two jobs under `plan` (null: no faults), traced into `tracer` if set.
  workload::WorkloadResult run(const ChaosPlan* plan, trace::Tracer* tracer = nullptr,
                               const Knobs& knobs = {}) const {
    cluster::Platform platform(spec());
    directory::PlatformDirectory dir(platform);
    dir.bootstrap();
    replica::ReplicaSet replicas{apps::cross_site_replication()};
    qos::QosConfig qcfg;
    qcfg.tenant_weights = {{"alice", 1.0}, {"bob", 2.0}};
    qos::StoreQos store_qos{qcfg};
    cache::CacheConfig ccfg;
    ccfg.capacity_bytes = marker_.layout.chunks().front().bytes * 8;
    ccfg.prefetch.enabled = true;
    cache::CacheFleet fleet{ccfg};

    workload::WorkloadOptions wopts = apps::failover_workload_options(dir);
    wopts.tracer = tracer;
    wopts.pool.enabled = knobs.pool;
    workload::WorkloadManager manager(platform, wopts);

    for (std::size_t i = 0; i < 2; ++i) {
      workload::JobSpec spec;
      spec.name = i == 0 ? "scan" : "probe";
      spec.tenant = i == 0 ? "alice" : "bob";
      spec.layout = marker_.layout;
      spec.options = apps::failover_run_options(marker_, &replicas);
      spec.options.random_seed = knobs.seed + i;
      spec.options.qos = &store_qos;
      spec.options.chaos = plan;
      spec.options.spot.reclaim_rate_per_hour = knobs.spot_rate_per_hour;
      spec.options.spot.notice_seconds = knobs.spot_notice_seconds;
      spec.options.migration.standby_nodes = knobs.standbys;
      spec.options.migration.boot_seconds = 1.0;
      spec.options.checkpoint_interval_seconds = knobs.checkpoint_seconds;
      if (knobs.cache) spec.options.cache = &fleet;
      spec.options.policy.allow_stealing = knobs.stealing;
      spec.options.policy.remote_selection = knobs.remote;
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

  /// Each job's marker counts (empty for a job without a robj); a partial
  /// merge reads 0 for its chunk.
  std::vector<std::vector<std::uint32_t>> counts(const workload::WorkloadResult& result) const {
    std::vector<std::vector<std::uint32_t>> out;
    for (const auto& job : result.jobs) {
      out.push_back(job.run.robj ? apps::marker_counts(*job.run.robj, marker_.layout).executions
                                 : std::vector<std::uint32_t>{});
    }
    return out;
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
  unsigned local_cores_;
  unsigned cloud_cores_;
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

// --- a cluster that loses every slave -------------------------------------------

/// The failover shape at 8 cores a site (one local node, four per cloud
/// site) over 48 chunks of 40 KB: a fault-free run takes about 5 s.
FailoverRig small_rig(unsigned local_cores = 8) { return FailoverRig(local_cores, 8, 240'000, 24); }

/// The most nodes of one cloud site, in one job, that got a spot-reclaim
/// notice.
std::size_t most_reclaims_on_one_site(const trace::Tracer& tracer) {
  std::map<std::string, std::set<std::string>> noticed;  // "job/site" -> nodes
  for (const auto& ev : tracer.events()) {
    if (ev.kind != trace::EventKind::NodeDrainRequested || ev.b != 1) continue;
    noticed[ev.actor.substr(0, ev.actor.rfind("-node"))].insert(ev.actor);
  }
  std::size_t most = 0;
  for (const auto& [site, nodes] : noticed) most = std::max(most, nodes.size());
  return most;
}

// Seeded stochastic spot reclaims (2000 per node-hour, 0.5 s notice) take
// all four nodes of a cloud site from one job while it still has work. The
// cluster is lost: the head re-grants its uncommitted chunks. Before, the
// master threw "all slaves of a cluster vacated with work remaining".
TEST(ChaosFailoverPin, SpotReclaimsEmptyingACloudSiteLoseNoWork) {
  const FailoverRig rig = small_rig();
  Knobs knobs;
  knobs.seed = 2;
  knobs.pool = false;
  knobs.spot_rate_per_hour = 2000.0;
  knobs.spot_notice_seconds = 0.5;
  trace::Tracer tracer;
  const workload::WorkloadResult result = rig.run(nullptr, &tracer, knobs);
  EXPECT_EQ(most_reclaims_on_one_site(tracer), 4u);
  EXPECT_EQ(rig.audit(result), "");
  EXPECT_EQ(rig.counts(result), rig.counts(rig.run(nullptr)));
}

/// Whether the head re-granted work (a reopen grant) to a master after every
/// node of its site in that job was lost.
bool regranted_to_an_emptied_cluster(const trace::Tracer& tracer,
                                     const cluster::PlatformSpec& spec) {
  std::map<std::string, std::size_t> lost;  // "job/site" -> nodes lost so far
  std::set<std::string> seen;
  for (const auto& ev : tracer.events()) {
    const bool loss = ev.kind == trace::EventKind::NodeVacated ||
                      ev.kind == trace::EventKind::SlaveFailed ||
                      ev.kind == trace::EventKind::NodeReclaimed;
    if (loss && seen.insert(ev.actor).second) {
      ++lost[ev.actor.substr(0, ev.actor.rfind("-node"))];
    }
    if (ev.kind != trace::EventKind::BatchGranted || ev.b != 2) continue;
    const std::string job = ev.actor.substr(0, ev.actor.find('/'));
    const std::string site = ev.actor.substr(ev.actor.find("/master-") + 8);
    for (const auto& s : spec.sites) {
      if (s.name == site && lost[job + "/" + site] == s.cluster.nodes.size()) return true;
    }
  }
  return false;
}

// Soak draw 527: west blacks out and the head re-grants its work to east,
// whose slaves of the scan job all left earlier (drained, crashed or
// reclaimed) after it had committed. The grant finds no capacity and no
// same-site standby, so east is lost too and its share moves on to the local
// cluster. Before, the chunks sat in east's pool: the workload deadlocked
// (and with replication's repair actor ticking, never drained).
TEST(ChaosFailoverPin, RegrantToAClusterWithNoSlavesFinishes) {
  const FailoverRig rig = small_rig();
  ChaosPlan plan;
  plan.events = {
      window(ChaosEvent::Kind::StoreOutage, kWest, 1.411, 1.786),
      link_fault(kEast, kWest, 1.819, 1.606, 0.295),
      node_event(ChaosEvent::Kind::NodeDrain, kWest, 3, 2.851),
      node_event(ChaosEvent::Kind::NodeCrash, kEast, 2, 3.761),
      node_event(ChaosEvent::Kind::SpotReclaim, kEast, 0, 4.329, 67.005),
      window(ChaosEvent::Kind::SiteOutage, kWest, 4.835, 1.570),
      link_fault(kLocal, kWest, 4.852, 1.828, 0.420),
  };
  Knobs knobs;
  knobs.seed = 527;
  knobs.pool = false;
  knobs.spot_rate_per_hour = 800.0;
  knobs.spot_notice_seconds = 1.965;
  knobs.standbys = 2;
  knobs.checkpoint_seconds = 0.966;
  knobs.stealing = false;
  knobs.remote = middleware::RemoteSelection::CheapestReplica;
  trace::Tracer tracer;
  const workload::WorkloadResult result = rig.run(&plan, &tracer, knobs);
  EXPECT_TRUE(regranted_to_an_emptied_cluster(tracer, rig.spec()));
  EXPECT_EQ(rig.audit(result), "");
  EXPECT_EQ(rig.counts(result), rig.counts(rig.run(nullptr)));
}

// No local node, spot reclaims empty east and west blacks out for good:
// every cluster is lost. The head has nobody to re-grant to and says so.
// Before, east's master threw its own error first.
TEST(ChaosFailoverPin, LosingEveryClusterThrowsNoSurvivingCluster) {
  const FailoverRig rig = small_rig(/*local_cores=*/0);
  ChaosPlan plan;
  plan.events = {window(ChaosEvent::Kind::SiteOutage, kWest, 2.0, 0.0)};
  Knobs knobs;
  knobs.seed = 1;
  knobs.pool = false;
  knobs.spot_rate_per_hour = 2000.0;
  knobs.spot_notice_seconds = 0.5;
  try {
    rig.run(&plan, nullptr, knobs);
    FAIL() << "a run that lost every cluster finished";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("no surviving cluster"), std::string::npos) << e.what();
  }
}

// --- seeded soak --------------------------------------------------------------

/// One soak draw: a plan with every fault kind on the 8-core failover shape,
/// and the run options a draw varies.
struct SoakDraw {
  ChaosPlan plan;
  Knobs knobs;
};

SoakDraw soak_draw(std::uint64_t seed) {
  chaos::RandomPlanOptions po;
  po.seed = seed;
  po.sites = 3;
  po.nodes_per_site = 4;
  po.horizon_seconds = 5.0;  // the fault-free run's length
  po.max_window_seconds = 2.0;
  SoakDraw draw{chaos::random_plan(po), {}};
  Rng rng = Rng::substream(seed, 0x50a4);
  Knobs& k = draw.knobs;
  k.seed = seed;
  // Half the draws run spot reclaims and standbys, which need the pool off.
  if (rng.bernoulli(0.5)) {
    k.pool = false;
    const double rates[] = {0.0, 200.0, 800.0, 3200.0};
    k.spot_rate_per_hour = rates[rng.uniform_int(0, 3)];
    k.spot_notice_seconds = rng.uniform(0.0, 3.0);
    k.standbys = static_cast<std::uint32_t>(rng.uniform_int(0, 2));
  }
  if (rng.bernoulli(0.5)) k.checkpoint_seconds = rng.uniform(0.5, 2.0);
  k.cache = rng.bernoulli(0.5);
  k.stealing = rng.bernoulli(0.75);
  k.remote = static_cast<middleware::RemoteSelection>(rng.uniform_int(0, 3));
  return draw;
}

TEST(ChaosSoak, RandomPlansPreserveInvariantsUnderFullStack) {
  // Seeded draws on the failover workload. Every draw must terminate (the
  // ctest TIMEOUT is the watchdog), run each chunk exactly once, end with
  // the fault-free run's marker counts (a robj merged twice fails) and bill
  // honestly.
  constexpr std::uint64_t kDraws = 800;
  const FailoverRig rig = small_rig();
  const auto clean = rig.counts(rig.run(nullptr));
  for (std::uint64_t seed = 0; seed < kDraws; ++seed) {
    const SoakDraw draw = soak_draw(seed);
    try {
      const workload::WorkloadResult result = rig.run(&draw.plan, nullptr, draw.knobs);
      ASSERT_EQ(rig.audit(result), "") << "soak draw " << seed;
      ASSERT_EQ(rig.counts(result), clean) << "soak draw " << seed;
    } catch (const std::exception& e) {
      FAIL() << "soak draw " << seed << ": " << e.what();
    }
  }

  // The replicated + QoS'd + pooled workload over the paper testbed.
  using namespace cloudburst::units;  // MiB, KiB
  for (const std::uint64_t seed : {11u, 23u, 47u}) {
    chaos::RandomPlanOptions po;
    po.seed = seed * 7919;
    po.sites = 2;  // paper testbed: local + cloud
    po.nodes_per_site = 1;  // testbed local site has a single (multi-core) node
    po.horizon_seconds = 20.0;
    po.max_window_seconds = 8.0;
    po.link_faults = 2;
    po.store_outages = 1;
    po.node_crashes = 1;
    po.node_drains = 1;
    po.spot_reclaims = 1;
    po.site_outages = 1;
    const ChaosPlan plan = chaos::random_plan(po);

    cluster::Platform platform(cluster::PlatformSpec::paper_testbed(4, 4));
    directory::PlatformDirectory dir(platform);
    dir.bootstrap();

    replica::ReplicaSet rs{apps::cross_site_replication()};

    qos::QosConfig qcfg;
    qcfg.tenant_weights = {{"alice", 1.0}, {"bob", 2.0}};
    qos::StoreQos q{qcfg};

    workload::WorkloadManager manager(platform, apps::failover_workload_options(dir));

    storage::LayoutSpec lspec;
    lspec.total_bytes = MiB(32);
    lspec.num_files = 8;
    lspec.chunks_per_file = 2;
    lspec.unit_bytes = 64;
    storage::DataLayout layout = storage::build_layout(lspec);
    storage::assign_stores_by_fraction(layout, 0.5, platform.local_store_id(),
                                       platform.cloud_store_id());

    // Both jobs carry the same plan: platform-scoped faults (links, stores,
    // directory) are idempotent across jobs; actor-scoped faults (kills,
    // master evacuation) are per job. All jobs submit at t = 0 because chaos
    // times are relative to job construction.
    for (int i = 0; i < 2; ++i) {
      workload::JobSpec spec;
      spec.name = i == 0 ? "scan" : "probe";
      spec.tenant = i == 0 ? "alice" : "bob";
      spec.layout = layout;
      spec.options.profile.name = "chaos-soak";
      spec.options.profile.unit_bytes = 64;
      spec.options.profile.bytes_per_second_per_core = KiB(512);
      spec.options.profile.robj_bytes = KiB(32);
      spec.options.reduction_tree = false;
      spec.options.retry.max_attempts = 3;
      spec.options.retry.backoff_base_seconds = 0.05;
      spec.options.replication = &rs;
      spec.options.qos = &q;
      spec.options.chaos = &plan;
      manager.submit(std::move(spec), 0.0);
    }
    const auto result = manager.run();

    ASSERT_EQ(result.jobs.size(), 2u) << "seed " << seed;
    for (const auto& job : result.jobs) {
      // No completed work lost: every chunk was processed (faults may force
      // re-execution, never loss).
      EXPECT_GE(job.run.total_jobs(), 16u) << job.name << " seed " << seed;
    }
    const auto bills = chaos::audit_bills(result);
    EXPECT_TRUE(bills.ok) << bills.detail << " (seed " << seed << ")";
  }
}

}  // namespace
}  // namespace cloudburst
