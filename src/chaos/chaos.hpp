// Chaos plan generation and the post-run recovery auditor.
//
// random_plan() draws a seeded ChaosPlan so soak tests can hammer a run with
// hundreds of distinct fault schedules while staying perfectly replayable —
// the same seed always yields the same plan, and the same (plan, run seed)
// pair always yields the same simulation.
//
// The ChaosAuditor half checks the invariants that define "recovered" after
// a chaosed run:
//  * exactly-once — every chunk of completed work was executed exactly once
//    at the head (no loss, no double count), even across site blackouts
//    whose uncommitted work was re-granted to survivors;
//  * honest bills — per-tenant attributed costs sum component-by-component
//    to the platform bill (nothing billed twice, nothing vanishes);
//  * coverage restored — background repair brought every chunk back to its
//    target replica count;
//  * deterministic replay — two runs with the same seed and plan produce
//    bit-identical traces.
// Each audit returns AuditResult{ok, detail} rather than asserting, so the
// bench binary and the test suite share one implementation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "chaos/chaos_plan.hpp"
#include "replica/replica_set.hpp"
#include "storage/data_layout.hpp"
#include "workload/workload.hpp"

namespace cloudburst::chaos {

/// Knobs for the seeded plan generator. Counts are exact: the plan contains
/// precisely the requested number of events of each kind (placed at random
/// times/targets), so a soak can dial the fault mix deterministically.
struct RandomPlanOptions {
  std::uint64_t seed = 0xc4a05;
  std::uint32_t sites = 3;            ///< platform site count (site 0 = local)
  std::uint32_t nodes_per_site = 2;
  double horizon_seconds = 120.0;     ///< faults start in [0, horizon)
  double max_window_seconds = 30.0;   ///< recoverable-window length in (0, max]

  std::uint32_t link_faults = 2;
  std::uint32_t store_outages = 1;
  std::uint32_t node_crashes = 1;
  std::uint32_t node_drains = 1;
  std::uint32_t spot_reclaims = 1;
  std::uint32_t site_outages = 1;

  /// Never black out / store-fault / crash / drain / reclaim on this site
  /// (the head's home site must survive — validate_run rejects blackouts of
  /// it, and it may be a single-node cluster whose only node no node event
  /// may name).
  cluster::ClusterId protected_site = 0;
};

/// Draw a plan from the options' seed. Deterministic; throws
/// std::invalid_argument when the options cannot be satisfied (fewer than
/// two sites, or every site protected).
ChaosPlan random_plan(const RandomPlanOptions& opts);

/// One audit's verdict: `ok` plus a human-readable reason on failure.
struct AuditResult {
  bool ok = true;
  std::string detail;
};

/// Exactly-once execution: `executions[c]` is how many times chunk c's work
/// landed in the final (head-merged) result — a counting reduction task
/// produces it. Fails on any count != 1.
AuditResult audit_exactly_once(const std::vector<std::uint32_t>& executions);

/// Honest billing: every job's attributed_cost sums component-by-component
/// to result.platform_cost (within floating-point tolerance), and no
/// rejected job carries a bill.
AuditResult audit_bills(const workload::WorkloadResult& result);

/// Replica coverage restored: every chunk holds at least target_copies()
/// live replicas (over the set's stores) once repair has run to quiescence.
AuditResult audit_coverage(const replica::ReplicaSet& replicas,
                           const storage::DataLayout& layout);

/// Deterministic replay: two serialized traces (to_jsonl) of the same
/// (seed, plan) run must be byte-identical; reports the first diverging
/// line on failure.
AuditResult audit_replay(const std::string& trace_a, const std::string& trace_b);

}  // namespace cloudburst::chaos
