// Node-lifecycle tests: graceful drain (zero completed work lost), spot
// reclamation (notice window, hard kill at the deadline, billing stops at
// reclaim), the stochastic per-node-hour reclaim model, checkpointed
// migration to standby replacements, validation of lifecycle option combos,
// and the interplay with the site cache / prefetcher and the store fault
// model.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <unordered_map>

#include "apps/datagen.hpp"
#include "apps/scenarios.hpp"
#include "apps/wordcount.hpp"
#include "cache/chunk_cache.hpp"
#include "chaos/chaos_plan.hpp"
#include "common/units.hpp"
#include "cost/cost_model.hpp"
#include "engine/gr_engine.hpp"
#include "middleware/job_execution.hpp"
#include "middleware/runtime.hpp"
#include "trace/trace.hpp"

namespace cloudburst::middleware {
namespace {

using namespace cloudburst::units;
using cluster::kCloudSite;
using cluster::kLocalSite;
using cluster::Platform;
using cluster::PlatformSpec;
using Kind = RunOptions::LifecycleEvent::Kind;

/// Real-execution wordcount rig (same data as the fault-tolerance tests):
/// any run, however nodes come and go, must reproduce the serial counts.
struct LifecycleRig {
  engine::MemoryDataset data;
  apps::WordCountTask task;
  std::unordered_map<std::uint64_t, double> reference;

  LifecycleRig() : data(make_data()) {
    for (std::size_t i = 0; i < data.units(); ++i) {
      apps::WordRecord w;
      std::memcpy(&w, data.unit(i), sizeof w);
      reference[w.word_id] += 1.0;
    }
  }

  static engine::MemoryDataset make_data() {
    apps::WordGenSpec spec;
    spec.count = 24000;
    spec.vocabulary = 97;
    spec.seed = 555;
    return apps::generate_words(spec);
  }

  RunOptions options() {
    RunOptions o;
    o.profile.name = "wordcount";
    o.profile.unit_bytes = data.unit_bytes();
    o.profile.bytes_per_second_per_core = MBps(0.05);
    o.profile.per_job_overhead_seconds = 0.5;  // long jobs => events land mid-run
    o.profile.robj_bytes = 0;
    o.reduction_tree = false;
    o.task = &task;
    o.dataset = &data;
    return o;
  }

  storage::DataLayout layout(const Platform& platform, std::uint32_t chunks_per_file,
                             double local_fraction) const {
    storage::DataLayout layout = storage::build_layout_for_units(
        data.units(), data.unit_bytes(), 6, chunks_per_file);
    storage::assign_stores_by_fraction(layout, local_fraction,
                                       platform.local_store_id(),
                                       platform.cloud_store_id());
    return layout;
  }

  RunResult run(const RunOptions& o, std::uint32_t chunks_per_file = 4,
                double local_fraction = 0.5) {
    Platform platform(PlatformSpec::paper_testbed(16, 16));
    return run_distributed(platform, layout(platform, chunks_per_file, local_fraction), o);
  }

  /// validate_run alone, on the platform and layout run() builds.
  void validate(const RunOptions& o) {
    Platform platform(PlatformSpec::paper_testbed(16, 16));
    validate_run(platform, layout(platform, 4, 0.5), o);
  }

  void expect_correct(const RunResult& result) {
    ASSERT_NE(result.robj, nullptr);
    const auto& got = dynamic_cast<const api::HashCountRobj&>(*result.robj);
    ASSERT_EQ(got.distinct_keys(), reference.size());
    for (const auto& [k, v] : reference) {
      EXPECT_DOUBLE_EQ(got.get(k), v) << "word " << k;
    }
  }
};

RunOptions::LifecycleEvent event(Kind kind, cluster::ClusterId site,
                                 std::uint32_t node, double at,
                                 double notice = 120.0) {
  RunOptions::LifecycleEvent ev;
  ev.kind = kind;
  ev.site = site;
  ev.node_index = node;
  ev.at_seconds = at;
  ev.notice_seconds = notice;
  return ev;
}

// --- validation (fail fast on bad combos) ------------------------------------

TEST(LifecycleValidation, RejectsTreeMode) {
  LifecycleRig rig;
  RunOptions o = rig.options();
  o.reduction_tree = true;
  o.lifecycle.push_back(event(Kind::Drain, kLocalSite, 0, 1.0));
  EXPECT_THROW(rig.run(o), std::invalid_argument);
}

TEST(LifecycleValidation, RejectsUnknownClusterAndNode) {
  LifecycleRig rig;
  RunOptions bad_site = rig.options();
  bad_site.lifecycle.push_back(event(Kind::Drain, 7, 0, 1.0));
  EXPECT_THROW(rig.run(bad_site), std::invalid_argument);

  RunOptions bad_node = rig.options();
  bad_node.lifecycle.push_back(event(Kind::Crash, kLocalSite, 99, 1.0));
  EXPECT_THROW(rig.run(bad_node), std::invalid_argument);
}

TEST(LifecycleValidation, RejectsNegativeTimes) {
  LifecycleRig rig;
  RunOptions past = rig.options();
  past.lifecycle.push_back(event(Kind::Drain, kLocalSite, 0, -1.0));
  EXPECT_THROW(rig.run(past), std::invalid_argument);

  RunOptions notice = rig.options();
  notice.lifecycle.push_back(event(Kind::SpotReclaim, kCloudSite, 0, 1.0, -5.0));
  EXPECT_THROW(rig.run(notice), std::invalid_argument);

  RunOptions rate = rig.options();
  rate.spot.reclaim_rate_per_hour = -1.0;
  EXPECT_THROW(rig.run(rate), std::invalid_argument);
}

TEST(LifecycleValidation, RejectsWipingOutACluster) {
  LifecycleRig rig;
  // 16 local cores == 2 nodes: one crash plus one drain covers both.
  RunOptions o = rig.options();
  o.lifecycle.push_back(event(Kind::Crash, kLocalSite, 0, 1.0));
  o.lifecycle.push_back(event(Kind::Drain, kLocalSite, 1, 2.0));
  EXPECT_THROW(rig.run(o), std::invalid_argument);
}

TEST(LifecycleValidation, RejectsBadMigrationCombos) {
  LifecycleRig rig;
  RunOptions elastic = rig.options();
  elastic.migration.standby_nodes = 1;
  elastic.elastic.enabled = true;
  elastic.elastic.initial_cloud_nodes = 2;
  EXPECT_THROW(rig.run(elastic), std::invalid_argument);

  RunOptions all_standby = rig.options();
  all_standby.migration.standby_nodes = 99;  // >= every cloud node
  EXPECT_THROW(rig.run(all_standby), std::invalid_argument);

  RunOptions static_run = rig.options();
  static_run.static_assignment = true;
  static_run.lifecycle.push_back(event(Kind::Drain, kLocalSite, 0, 1.0));
  EXPECT_THROW(rig.run(static_run), std::invalid_argument);
}

TEST(LifecycleValidation, RejectsStandbysHoldingBackACloudSite) {
  // Two cloud sites of two nodes each. Standbys are the last cloud slaves in
  // build order, so two of them would be all of "west": its master would
  // never ask for work and the head would wait for its robj forever.
  LifecycleRig rig;
  Platform platform(apps::east_west_spec(8, 4));
  ASSERT_EQ(platform.nodes(2).size(), 2u);
  storage::DataLayout layout =
      storage::build_layout_for_units(rig.data.units(), rig.data.unit_bytes(), 6, 4);
  storage::assign_stores_by_fraction(layout, 0.5, platform.store_of_cluster(0),
                                     platform.store_of_cluster(1));
  RunOptions o = rig.options();
  o.migration.standby_nodes = 2;
  EXPECT_THROW(validate_run(platform, layout, o), std::invalid_argument);

  o.migration.standby_nodes = 1;  // west keeps one active slave
  EXPECT_NO_THROW(validate_run(platform, layout, o));
  o.lifecycle.push_back(event(Kind::Crash, 2, 0, 1.0));
  rig.expect_correct(run_distributed(platform, layout, o));
}

// --- graceful drain: zero completed work lost --------------------------------

TEST(GracefulDrain, LosesZeroCompletedWork) {
  LifecycleRig rig;
  const auto clean = rig.run(rig.options());
  RunOptions o = rig.options();
  o.lifecycle.push_back(event(Kind::Drain, kLocalSite, 0, 0.3 * clean.total_time));
  const auto result = rig.run(o);
  rig.expect_correct(result);
  // The acceptance invariant: a drain with adequate notice re-executes
  // nothing — exactly 24 chunk executions, like the clean run.
  EXPECT_EQ(result.total_jobs(), 24u);
  EXPECT_EQ(result.lifecycle.drains_requested, 1u);
  EXPECT_EQ(result.lifecycle.nodes_vacated, 1u);
  EXPECT_EQ(result.lifecycle.nodes_reclaimed, 0u);
  EXPECT_EQ(result.lifecycle.chunks_reexecuted, 0u);
  EXPECT_EQ(result.lifecycle.bytes_reexecuted, 0u);
  // The survivors absorbed the drained node's share, so the run stretches.
  EXPECT_GE(result.total_time, clean.total_time - 1e-9);
}

TEST(GracefulDrain, EveryDrainPointStaysCorrectAndLossless) {
  LifecycleRig rig;
  const auto clean = rig.run(rig.options());
  for (double frac : {0.05, 0.5, 0.95}) {
    RunOptions o = rig.options();
    o.lifecycle.push_back(
        event(Kind::Drain, kCloudSite, 1, frac * clean.total_time));
    const auto result = rig.run(o);
    rig.expect_correct(result);
    EXPECT_EQ(result.total_jobs(), 24u) << "drain at " << frac;
    EXPECT_EQ(result.lifecycle.chunks_reexecuted, 0u) << "drain at " << frac;
  }
}

TEST(GracefulDrain, DrainAfterTheRunEndsIsInert) {
  LifecycleRig rig;
  const auto clean = rig.run(rig.options());
  RunOptions o = rig.options();
  o.lifecycle.push_back(
      event(Kind::Drain, kLocalSite, 0, clean.total_time + 100.0));
  const auto result = rig.run(o);
  rig.expect_correct(result);
  EXPECT_DOUBLE_EQ(result.total_time, clean.total_time);
  EXPECT_EQ(result.lifecycle.drains_requested, 0u);
}

// --- lifecycle entries and ChaosPlan node events are one mechanism -----------

/// The ChaosPlan node event that names the same node, time and notice as `ev`.
chaos::ChaosEvent as_chaos(const RunOptions::LifecycleEvent& ev) {
  chaos::ChaosEvent c;
  c.kind = ev.kind == Kind::Crash   ? chaos::ChaosEvent::Kind::NodeCrash
           : ev.kind == Kind::Drain ? chaos::ChaosEvent::Kind::NodeDrain
                                    : chaos::ChaosEvent::Kind::SpotReclaim;
  c.site_a = ev.site;
  c.node_index = ev.node_index;
  c.at_seconds = ev.at_seconds;
  c.notice_seconds = ev.notice_seconds;
  return c;
}

std::array<std::uint64_t, 10> stats_fields(const LifecycleStats& s) {
  return {s.drains_requested,  s.nodes_vacated,       s.nodes_reclaimed,
          s.nodes_crashed,     s.replacements_leased, s.chunks_returned,
          s.chunks_reexecuted, s.bytes_reexecuted,    s.checkpoint_flushes,
          s.checkpoint_bytes};
}

/// Runs `ev` once as a lifecycle entry and once as a ChaosPlan node event;
/// both runs must agree on every observable, down to the trace. Returns the
/// lifecycle run's stats.
LifecycleStats expect_same_run(LifecycleRig& rig, const RunOptions::LifecycleEvent& ev) {
  trace::Tracer lifecycle_trace;
  RunOptions via_lifecycle = rig.options();
  via_lifecycle.failure_detection_seconds = 0.2;
  via_lifecycle.tracer = &lifecycle_trace;
  via_lifecycle.lifecycle.push_back(ev);

  trace::Tracer chaos_trace;
  chaos::ChaosPlan plan;
  plan.events.push_back(as_chaos(ev));
  RunOptions via_chaos = rig.options();
  via_chaos.failure_detection_seconds = 0.2;
  via_chaos.tracer = &chaos_trace;
  via_chaos.chaos = &plan;

  const auto a = rig.run(via_lifecycle, 12);
  const auto b = rig.run(via_chaos, 12);
  rig.expect_correct(a);
  rig.expect_correct(b);
  EXPECT_EQ(a.total_time, b.total_time);
  EXPECT_EQ(a.total_jobs(), b.total_jobs());
  EXPECT_EQ(stats_fields(a.lifecycle), stats_fields(b.lifecycle));
  const auto& ea = lifecycle_trace.events();
  const auto& eb = chaos_trace.events();
  EXPECT_EQ(ea.size(), eb.size());
  for (std::size_t i = 0; i < std::min(ea.size(), eb.size()); ++i) {
    EXPECT_EQ(ea[i].t, eb[i].t) << "event " << i;
    EXPECT_EQ(ea[i].kind, eb[i].kind) << "event " << i;
    EXPECT_EQ(ea[i].actor, eb[i].actor) << "event " << i;
    EXPECT_EQ(ea[i].a, eb[i].a) << "event " << i;
    EXPECT_EQ(ea[i].b, eb[i].b) << "event " << i;
  }
  return a.lifecycle;
}

TEST(NodeEventEquivalence, CrashMatchesChaosNodeCrash) {
  LifecycleRig rig;
  const auto clean = rig.run(rig.options(), 12);
  const auto stats =
      expect_same_run(rig, event(Kind::Crash, kCloudSite, 1, 0.5 * clean.total_time));
  EXPECT_EQ(stats.nodes_crashed, 1u);
}

TEST(NodeEventEquivalence, DrainMatchesChaosNodeDrain) {
  LifecycleRig rig;
  const auto clean = rig.run(rig.options(), 12);
  const auto stats =
      expect_same_run(rig, event(Kind::Drain, kLocalSite, 0, 0.3 * clean.total_time));
  EXPECT_EQ(stats.nodes_vacated, 1u);
}

TEST(NodeEventEquivalence, SpotReclaimMatchesChaosSpotReclaim) {
  LifecycleRig rig;
  const auto clean = rig.run(rig.options(), 12);
  // A notice shorter than one chunk: the victim is hard-killed at the
  // deadline, so both the notice and the reclaim paths are compared.
  const auto stats = expect_same_run(
      rig, event(Kind::SpotReclaim, kCloudSite, 0, 0.5 * clean.total_time, 0.001));
  EXPECT_EQ(stats.drains_requested, 1u);
  EXPECT_EQ(stats.nodes_reclaimed, 1u);
}

TEST(NodeEventValidation, RejectsChaosNodeCrashWithElastic) {
  LifecycleRig rig;
  chaos::ChaosPlan plan;
  plan.events.push_back(as_chaos(event(Kind::Crash, kCloudSite, 0, 1.0)));
  RunOptions o = rig.options();
  o.chaos = &plan;
  o.elastic.enabled = true;
  o.elastic.deadline_seconds = 1.0;
  EXPECT_THROW(rig.validate(o), std::invalid_argument);
}

TEST(NodeEventValidation, RejectsChaosEventsNamingEverySiteNode) {
  LifecycleRig rig;
  // 16 local cores == 2 nodes: a chaos crash plus a chaos drain covers both.
  chaos::ChaosPlan plan;
  plan.events.push_back(as_chaos(event(Kind::Crash, kLocalSite, 0, 1.0)));
  plan.events.push_back(as_chaos(event(Kind::Drain, kLocalSite, 1, 2.0)));
  RunOptions o = rig.options();
  o.chaos = &plan;
  EXPECT_THROW(rig.validate(o), std::invalid_argument);

  // The victims of both sources count together.
  chaos::ChaosPlan one;
  one.events.push_back(as_chaos(event(Kind::Crash, kLocalSite, 0, 1.0)));
  RunOptions mixed = rig.options();
  mixed.chaos = &one;
  mixed.lifecycle.push_back(event(Kind::SpotReclaim, kLocalSite, 1, 2.0));
  EXPECT_THROW(rig.validate(mixed), std::invalid_argument);

  // Naming one node twice still leaves the other.
  mixed.lifecycle.back().node_index = 0;
  EXPECT_NO_THROW(rig.validate(mixed));
}

// --- spot reclamation --------------------------------------------------------

TEST(SpotReclaim, AdequateNoticeDrainsGracefully) {
  LifecycleRig rig;
  const auto clean = rig.run(rig.options());
  RunOptions o = rig.options();
  // Plenty of notice: the victim finishes its in-flight chunk and vacates
  // before the deadline, so no hard kill and no lost work.
  o.lifecycle.push_back(
      event(Kind::SpotReclaim, kCloudSite, 0, 0.4 * clean.total_time, 30.0));
  const auto result = rig.run(o);
  rig.expect_correct(result);
  EXPECT_EQ(result.total_jobs(), 24u);
  EXPECT_EQ(result.lifecycle.nodes_vacated, 1u);
  EXPECT_EQ(result.lifecycle.nodes_reclaimed, 0u);
  // The vacated cloud instance stopped billing before the run ended.
  bool ended_early = false;
  for (const auto& rental : result.rentals) {
    if (rental.end >= 0.0 && rental.end < result.total_time) ended_early = true;
  }
  EXPECT_TRUE(ended_early);
}

TEST(SpotReclaim, ZeroNoticeBehavesLikeACrash) {
  // 72 small chunks keep every node busy deep into the run, so the victim is
  // mid-work when the deadline lands.
  LifecycleRig rig;
  const auto clean = rig.run(rig.options(), 12);
  RunOptions o = rig.options();
  o.lifecycle.push_back(
      event(Kind::SpotReclaim, kCloudSite, 0, 0.5 * clean.total_time, 0.0));
  o.failure_detection_seconds = 0.2;
  const auto result = rig.run(o, 12);
  rig.expect_correct(result);
  EXPECT_EQ(result.lifecycle.nodes_reclaimed, 1u);
  EXPECT_EQ(result.lifecycle.nodes_vacated, 0u);
  // The victim's un-checkpointed work is re-executed on survivors.
  EXPECT_GT(result.total_jobs(), 72u);
  EXPECT_GT(result.lifecycle.bytes_reexecuted, 0u);
}

TEST(SpotReclaim, ReclaimStopsBillingAtTheDeadline) {
  LifecycleRig rig;
  const auto clean = rig.run(rig.options(), 12);
  const double at = 0.5 * clean.total_time;
  RunOptions o = rig.options();
  // A notice window far shorter than one chunk: the busy victim cannot vacate
  // in time and is hard-killed at the deadline, which is when billing stops.
  o.lifecycle.push_back(event(Kind::SpotReclaim, kCloudSite, 0, at, 0.001));
  o.failure_detection_seconds = 0.2;
  const auto result = rig.run(o, 12);
  rig.expect_correct(result);
  double reclaimed_end = -1.0;
  for (const auto& rental : result.rentals) {
    if (rental.end >= 0.0) reclaimed_end = rental.end;
  }
  // Billing ends at notice + deadline, not at the end of the run.
  EXPECT_NEAR(reclaimed_end, at + 0.001, 1e-9);
  EXPECT_LT(reclaimed_end, result.total_time);

  // And the cost model prices the shortened rental: the priced instance
  // hours drop below what billing-to-the-end would charge.
  cost::CostInputs inputs;
  inputs.run_seconds = result.total_time;
  inputs.cloud_instances = static_cast<std::uint32_t>(result.rentals.size());
  for (const auto& rental : result.rentals) {
    const double until = rental.end >= 0.0 ? rental.end : result.total_time;
    inputs.instance_seconds.push_back(until - rental.start);
  }
  double billed = 0.0;
  for (double s : inputs.instance_seconds) billed += s;
  const double to_end =
      result.total_time * static_cast<double>(result.rentals.size());
  EXPECT_LT(billed, to_end);
}

// --- the acceptance comparison: graceful beats crash -------------------------

TEST(SpotReclaim, GracefulReclaimBeatsCrashAtTheSameInstant) {
  // Cloud-heavy data placement puts the cloud cluster on the critical path,
  // so losing a cloud node's work actually moves the makespan (with the
  // default 50/50 split the cloud side has slack and hides the loss).
  LifecycleRig rig;
  const double local_fraction = 0.15;
  const auto clean = rig.run(rig.options(), 12, local_fraction);
  // Announce late in the run: a crash there throws away the victim's whole
  // uncheckpointed robj with no slack left to hide the re-execution, while a
  // drain with the same deadline hands everything over for free.
  const double notice = 1.0;  // covers an in-flight chunk
  const double announce = 0.8 * clean.total_time - notice;

  // Reclaim announced at T with W of warning vs. the same node crashing cold
  // at T+W: by the kill instant the graceful node has checkpointed and
  // handed back everything, the crashed one loses its whole robj.
  RunOptions graceful = rig.options();
  graceful.lifecycle.push_back(
      event(Kind::SpotReclaim, kCloudSite, 1, announce, notice));
  RunOptions crash = rig.options();
  crash.lifecycle.push_back(
      event(Kind::Crash, kCloudSite, 1, announce + notice));
  crash.failure_detection_seconds = 1.0;

  const auto g = rig.run(graceful, 12, local_fraction);
  const auto c = rig.run(crash, 12, local_fraction);
  rig.expect_correct(g);
  rig.expect_correct(c);
  EXPECT_LT(g.total_time, c.total_time);
  EXPECT_LT(g.lifecycle.bytes_reexecuted, c.lifecycle.bytes_reexecuted);
  EXPECT_EQ(g.lifecycle.bytes_reexecuted, 0u);
  EXPECT_EQ(g.total_jobs(), 72u);
  EXPECT_GT(c.total_jobs(), 72u);
}

// --- stochastic spot model ---------------------------------------------------

TEST(StochasticSpot, SameSeedSameOutcome) {
  LifecycleRig rig;
  RunOptions o = rig.options();
  o.spot.reclaim_rate_per_hour = 400.0;  // draws land inside a seconds-long run
  o.spot.notice_seconds = 30.0;          // generous: every reclaim drains
  o.random_seed = 99;
  o.migration.standby_nodes = 2;
  o.migration.boot_seconds = 0.5;
  const auto a = rig.run(o);
  const auto b = rig.run(o);
  rig.expect_correct(a);
  rig.expect_correct(b);
  EXPECT_GT(a.lifecycle.drains_requested, 0u);  // the rate actually fired
  EXPECT_DOUBLE_EQ(a.total_time, b.total_time);
  EXPECT_EQ(a.total_jobs(), b.total_jobs());
  EXPECT_EQ(a.lifecycle.drains_requested, b.lifecycle.drains_requested);
  EXPECT_EQ(a.lifecycle.nodes_vacated, b.lifecycle.nodes_vacated);
  EXPECT_EQ(a.lifecycle.replacements_leased, b.lifecycle.replacements_leased);
}

TEST(StochasticSpot, DrawsFromRunSeed) {
  LifecycleRig rig;
  RunOptions o = rig.options();
  o.spot.reclaim_rate_per_hour = 400.0;
  o.spot.notice_seconds = 30.0;
  o.migration.standby_nodes = 2;
  o.migration.boot_seconds = 0.5;
  o.random_seed = 1234;
  trace::Tracer ta, tb, tc;
  o.tracer = &ta;
  const auto a = rig.run(o);
  o.tracer = &tb;
  const auto b = rig.run(o);
  rig.expect_correct(a);
  EXPECT_EQ(ta.to_jsonl(), tb.to_jsonl());
  // Another run seed draws other reclaim times.
  o.random_seed = 99;
  o.tracer = &tc;
  const auto c = rig.run(o);
  rig.expect_correct(c);
  EXPECT_NE(ta.to_jsonl(), tc.to_jsonl());
}

// --- checkpointed migration --------------------------------------------------

TEST(Migration, ReplacementLeasedForACrashedCloudNode) {
  LifecycleRig rig;
  const auto clean = rig.run(rig.options());
  trace::Tracer tracer;
  RunOptions o = rig.options();
  o.tracer = &tracer;
  o.lifecycle.push_back(event(Kind::Crash, kCloudSite, 0, 0.4 * clean.total_time));
  o.failure_detection_seconds = 0.2;
  o.migration.standby_nodes = 1;
  o.migration.boot_seconds = 0.5;
  const auto result = rig.run(o);
  rig.expect_correct(result);
  EXPECT_EQ(result.lifecycle.replacements_leased, 1u);
  // The replacement bills from its boot, not from the start of the run.
  bool late_start = false;
  for (const auto& rental : result.rentals) {
    if (rental.start > 0.0) late_start = true;
  }
  EXPECT_TRUE(late_start);
  bool migrated_event = false;
  for (const auto& e : tracer.events()) {
    if (e.kind == trace::EventKind::JobMigrated) migrated_event = true;
  }
  EXPECT_TRUE(migrated_event);
}

TEST(Migration, DrainedNodeHandsOverToReplacement) {
  LifecycleRig rig;
  const auto clean = rig.run(rig.options());
  RunOptions o = rig.options();
  o.lifecycle.push_back(
      event(Kind::SpotReclaim, kCloudSite, 0, 0.3 * clean.total_time, 20.0));
  o.migration.standby_nodes = 1;
  o.migration.boot_seconds = 0.5;
  const auto result = rig.run(o);
  rig.expect_correct(result);
  EXPECT_EQ(result.lifecycle.nodes_vacated, 1u);
  EXPECT_EQ(result.lifecycle.replacements_leased, 1u);
  // Graceful handover: nothing re-executed even though the node left.
  EXPECT_EQ(result.total_jobs(), 24u);
}

TEST(Migration, NoLeaseWhenNoWorkRemains) {
  LifecycleRig rig;
  const auto clean = rig.run(rig.options());
  RunOptions o = rig.options();
  // Drain so late the cluster is already out of work by the vacate.
  o.lifecycle.push_back(
      event(Kind::Drain, kCloudSite, 0, 0.98 * clean.total_time));
  o.migration.standby_nodes = 1;
  const auto result = rig.run(o);
  rig.expect_correct(result);
  EXPECT_LE(result.lifecycle.replacements_leased, 1u);
}

// --- interplay: cache + prefetcher (satellite: node loss vs cache fleet) -----

TEST(LifecycleInterplay, DrainAndCrashWithPrefetchingCacheStayExact) {
  LifecycleRig rig;
  const auto clean = rig.run(rig.options());

  cache::CacheConfig cfg;
  cfg.capacity_bytes = GiB(16);
  cfg.prefetch.enabled = true;
  cfg.prefetch.depth = 4;
  cache::CacheFleet fleet(cfg);
  trace::Tracer tracer;

  RunOptions o = rig.options();
  o.cache = &fleet;
  o.tracer = &tracer;
  o.lifecycle.push_back(event(Kind::Drain, kCloudSite, 0, 0.3 * clean.total_time));
  o.lifecycle.push_back(event(Kind::Crash, kCloudSite, 1, 0.5 * clean.total_time));
  o.failure_detection_seconds = 0.2;
  o.migration.standby_nodes = 1;
  o.migration.boot_seconds = 0.5;

  const auto result = rig.run(o);
  rig.expect_correct(result);
  EXPECT_EQ(result.lifecycle.nodes_vacated, 1u);
  EXPECT_EQ(result.lifecycle.nodes_crashed, 1u);
  // No prefetch waiter leaked: every issued prefetch either delivered or was
  // counted wasted when the run settled (finish() ran inside collect()).
  EXPECT_GE(result.totals().prefetch_issued, result.totals().prefetch_wasted);
  // The drained/crashed nodes' prefetched chunks stay usable: cache-served
  // bytes appear even though their original requesters left the run.
  EXPECT_GT(result.totals().cache_hits + result.totals().cache_misses, 0u);
}

// --- interplay: store fault model (satellite: reclaim vs retry/hedging) ------

TEST(LifecycleInterplay, ReclaimDuringThrottleWindowWithRetryStaysExact) {
  LifecycleRig rig;
  const auto clean = rig.run(rig.options());

  PlatformSpec spec = PlatformSpec::paper_testbed(16, 16);
  storage::FaultProfile fault;
  fault.fail_probability = 0.25;  // high enough to engage across ~36 fetches
  fault.throttles.push_back({0.2 * clean.total_time, 0.8 * clean.total_time,
                             /*bandwidth_factor=*/0.25,
                             /*extra_fail_probability=*/0.25});
  spec.sites[kCloudSite].store->fault = fault;
  Platform platform(spec);

  storage::DataLayout layout = storage::build_layout_for_units(
      rig.data.units(), rig.data.unit_bytes(), 6, 12);
  storage::assign_stores_by_fraction(layout, 0.5, platform.local_store_id(),
                                     platform.cloud_store_id());

  RunOptions o = rig.options();
  o.retry.max_attempts = 4;
  o.retry.backoff_base_seconds = 0.05;
  o.retry.attempt_timeout_seconds = 5.0;
  o.retry.hedge_delay_seconds = 2.0;
  // Reclaim a cloud node mid-window: retried and hedged fetches are torn
  // down with it; the re-pooled chunks refetch through the same flaky store.
  o.lifecycle.push_back(
      event(Kind::SpotReclaim, kCloudSite, 2, 0.4 * clean.total_time, 1.0));
  o.failure_detection_seconds = 0.2;

  const auto result = run_distributed(platform, layout, o);
  rig.expect_correct(result);
  EXPECT_GT(result.totals().store_faults, 0u);  // the profile actually engaged
  // Conservation under teardown: wins never exceed hedges issued, and every
  // retried byte belongs to a counted retry.
  EXPECT_GE(result.totals().hedges_issued, result.totals().hedges_won);
  if (result.bytes_retried_total() > 0) {
    EXPECT_GT(result.totals().fetch_retries + result.totals().store_faults, 0u);
  }
}

// --- byte identity with the subsystem off ------------------------------------

TEST(LifecyclePin, DefaultOptionsMoveNothing) {
  LifecycleRig rig;
  const auto base = rig.run(rig.options());
  RunOptions o = rig.options();
  o.lifecycle.clear();                 // explicit defaults
  o.spot = RunOptions::SpotPolicy{};
  o.migration = RunOptions::MigrationPolicy{};
  const auto result = rig.run(o);
  EXPECT_DOUBLE_EQ(result.total_time, base.total_time);
  EXPECT_EQ(result.total_jobs(), base.total_jobs());
  for (const auto& rental : result.rentals) EXPECT_LT(rental.end, 0.0);
  EXPECT_EQ(result.lifecycle.drains_requested, 0u);
  EXPECT_EQ(result.lifecycle.checkpoint_flushes, 0u);
}

}  // namespace
}  // namespace cloudburst::middleware
