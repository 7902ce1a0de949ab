// Multi-tenant workload types.
//
// The paper's middleware executes one Generalized-Reduction job per
// platform; a production deployment serves a *stream* of them — many
// tenants' jobs contending for the same clusters, stores, caches, and WAN
// links at once. This module defines the vocabulary: a JobSpec (what to
// run, for whom, how urgent), the inter-job scheduling policies layered
// above the per-job JobPool, and the per-job / per-tenant / whole-workload
// result records the manager aggregates.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cost/cost_model.hpp"
#include "middleware/run_context.hpp"
#include "middleware/run_result.hpp"
#include "storage/data_layout.hpp"
#include "workload/node_pool.hpp"

namespace cloudburst::workload {

/// Inter-job scheduling discipline — the layer *above* each job's JobPool.
enum class SchedulingPolicy : std::uint8_t {
  /// Run-to-completion in submission order. One job owns the platform at a
  /// time; run_distributed is a single-job FIFO workload.
  Fifo,
  /// Run-to-completion, shortest estimated job first (cost::planner's
  /// analytic estimate, computed at submission under this policy only).
  /// Also one job at a time.
  Sjf,
  /// All admitted jobs run concurrently; each node's core is time-shared at
  /// chunk granularity so every tenant's weighted service stays balanced.
  FairShare,
  /// All admitted jobs run concurrently; each core slot always goes to the
  /// highest-priority claimant. A job that loses the slot it just held to a
  /// more urgent job counts (and traces) a preemption.
  Priority,
};

const char* to_string(SchedulingPolicy policy);

/// One job in the workload: what to run, over which data, for which tenant.
struct JobSpec {
  std::string name;              ///< trace/report label; defaults to "job<id>"
  std::string tenant = "default";
  int priority = 0;              ///< SchedulingPolicy::Priority: higher wins
  /// Latency SLO relative to submission (0 = none); latency above it marks
  /// the job slo_met = false in its result.
  double deadline_seconds = 0.0;

  /// The job's own dataset layout (held by value — specs outlive the run).
  storage::DataLayout layout;
  /// Per-job run configuration. Caller-owned pointers inside (task, dataset,
  /// cache, tracer) must outlive the workload run; the manager overrides
  /// `tracer` with the workload tracer when one is attached.
  middleware::RunOptions options;

  /// Elastic node pool only: cloud nodes this job leases at start (0 = every
  /// leasable node). Ignored when WorkloadOptions::pool is disabled.
  std::size_t pool_nodes = 0;
};

/// Per-tenant admission quotas, enforced at submission time. 0 = unlimited
/// for each field. A submission that would exceed any limit is rejected (not
/// queued): its JobResult carries rejected = true and the reject reason.
struct TenantQuota {
  /// Max jobs a tenant may have admitted-but-unfinished at once.
  std::uint32_t max_concurrent_jobs = 0;
  /// Max summed dataset bytes across the tenant's in-flight jobs.
  std::uint64_t max_bytes_in_flight = 0;
  /// Max estimated cloud burn rate (USD/hour) across in-flight jobs: each
  /// job's share is its cloud-node count times the instance-hour price.
  double max_usd_per_hour = 0.0;
};

/// Why a submission was rejected (JobResult::reject_reason, and the `b`
/// payload of the JobRejected trace event).
enum class QuotaReject : std::uint8_t {
  None = 0,
  ConcurrentJobs = 1,
  BytesInFlight = 2,
  UsdPerHour = 3,
};

const char* to_string(QuotaReject reason);

struct WorkloadOptions {
  SchedulingPolicy policy = SchedulingPolicy::Fifo;

  /// FairShare: relative service weight per tenant (default 1.0). A tenant
  /// with weight 2 gets twice the core time of a weight-1 tenant while both
  /// have runnable jobs.
  std::map<std::string, double> tenant_weights;

  /// Concurrent-job cap for FairShare/Priority (0 = unlimited). Excess jobs
  /// queue and start as earlier ones finish.
  std::uint32_t max_concurrent = 0;

  /// Workload-level tracer: job lifecycle events, plus every job's actor
  /// events under a "name/" prefix (per-job Gantt lanes). Overrides each
  /// job's own RunOptions::tracer.
  trace::Tracer* tracer = nullptr;

  cost::CloudPricing pricing = cost::CloudPricing::aws_2011();

  /// Dynamic control plane: the service directory jobs resolve membership
  /// through (caller-owned, must outlive the manager). Cloud nodes that
  /// register mid-run join the pool; NodeDraining events trigger a cross-job
  /// drain that vacates every affected job before the node retires.
  directory::PlatformDirectory* directory = nullptr;

  /// Elastic node pool (requires `directory`): the manager leases cloud
  /// nodes to jobs instead of each job activating its own instances. Pooled
  /// jobs must not combine with per-job elastic/migration/spot options
  /// (validate_run enforces this) and need reduction_tree = false.
  PoolOptions pool;

  /// Admission quotas keyed by tenant (tenants without an entry are
  /// unlimited).
  std::map<std::string, TenantQuota> quotas;
};

/// One finished job, with the timing the tenant experienced.
struct JobResult {
  std::uint32_t id = 0;  ///< 1-based submission id (Message::job value)
  std::string name;
  std::string tenant;
  int priority = 0;
  double deadline_seconds = 0.0;

  /// Platform sim times: on a platform that ran before the workload's
  /// manager was built they include that earlier run.
  double submit_seconds = 0.0;
  double start_seconds = 0.0;
  double finish_seconds = 0.0;
  std::uint32_t preemptions = 0;

  /// Rejected at submission by an admission quota: never queued or run (run
  /// and cost reports stay zero; start = finish = submit; excluded from the
  /// latency percentiles and SLO rate).
  bool rejected = false;
  QuotaReject reject_reason = QuotaReject::None;

  middleware::RunResult run;  ///< this job's own timing decomposition
  /// What the job would cost billed alone (its own usage at list prices).
  cost::CostReport raw_cost;
  /// The job's share of the whole-platform bill. Attributed shares sum
  /// exactly to WorkloadResult::platform_cost, component by component.
  cost::CostReport attributed_cost;

  double queue_seconds() const { return start_seconds - submit_seconds; }
  double latency_seconds() const { return finish_seconds - submit_seconds; }
  bool slo_met() const {
    return deadline_seconds <= 0.0 || latency_seconds() <= deadline_seconds;
  }
};

/// Per-tenant rollup across the workload.
struct TenantReport {
  std::string tenant;
  double weight = 1.0;
  std::uint32_t jobs = 0;
  std::uint32_t slo_met = 0;
  std::uint32_t rejected = 0;    ///< submissions an admission quota refused
  double service_seconds = 0.0;  ///< core-seconds of processing consumed
  double lease_seconds = 0.0;    ///< node-pool lease time held by this tenant
  cost::CostReport attributed_cost;
  /// Store-QoS view of this tenant (zeros/inactive when no StoreQos was
  /// attached to the jobs' RunOptions): wait time, achieved bandwidth, and
  /// per-tenant cache hit/miss counts.
  qos::TenantQosReport qos;
};

struct WorkloadResult {
  std::vector<JobResult> jobs;      ///< submission order
  std::vector<TenantReport> tenants;  ///< sorted by tenant name

  /// The whole platform billed once: shared cloud nodes appear once even
  /// when several jobs' controllers activated them.
  cost::CostReport platform_cost;

  /// Last job finish, counted from the manager's start (the platform's sim
  /// time when the manager was built); the platform bill's run time.
  double makespan = 0.0;
  double p50_latency_seconds = 0.0;
  double p95_latency_seconds = 0.0;
  double slo_hit_rate = 1.0;  ///< fraction of admitted jobs meeting their deadline
  std::uint32_t preemptions = 0;
  std::uint32_t elastic_activations = 0;  ///< summed over all jobs

  /// Admission control: submissions refused by a tenant quota.
  std::uint32_t rejected_jobs = 0;
  /// Elastic node pool (zeros when WorkloadOptions::pool is disabled).
  NodePool::Stats pool;

  const JobResult& job(std::uint32_t id) const { return jobs.at(id - 1); }
  const TenantReport* tenant(const std::string& name) const {
    for (const auto& t : tenants) {
      if (t.tenant == name) return &t;
    }
    return nullptr;
  }
};

}  // namespace cloudburst::workload
