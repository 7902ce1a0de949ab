// Multi-tenant workload manager: concurrent jobs over one shared platform.
//
// Accepts a stream of JobSpecs (deterministic arrival times — see
// arrivals.hpp), multiplexes their actor trees over a single
// cluster::Platform inside one DES run, and aggregates per-job, per-tenant,
// and whole-platform results. Sits *above* the per-job JobPool: the head of
// each job still batches its own chunks; this layer decides which jobs run
// at all (admission: FIFO / SJF run-to-completion, FairShare / Priority
// concurrent) and, through a CoreSlotArbiter, which job's slave computes on
// each contended core (chunk-granular time sharing).
//
// Sharing rules:
//  * network links, stores, and retry machinery are shared by construction
//    (same Platform);
//  * concurrent jobs attaching the same cache::CacheFleet must describe the
//    same dataset (chunk ids key the cache); give unrelated jobs separate
//    fleets;
//  * cloud instances are billed once per physical node across all jobs that
//    rented it (elastic activations included) — the per-tenant attribution
//    then splits the real platform bill, component by component, exactly.
//
// Every run goes through this manager: middleware::run_distributed submits
// one job at delay 0 to a default (FIFO) manager and returns its RunResult.
// The manager owns the one Postman<Message> of the run; each JobExecution
// registers its actors there under its job id.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "cluster/platform.hpp"
#include "middleware/job_execution.hpp"
#include "net/messaging.hpp"
#include "workload/arrivals.hpp"
#include "workload/core_slot_arbiter.hpp"
#include "workload/node_pool.hpp"
#include "workload/workload.hpp"

namespace cloudburst::workload {

class WorkloadManager {
 public:
  WorkloadManager(cluster::Platform& platform, WorkloadOptions options);
  ~WorkloadManager();

  /// Queue `spec` for submission `at_seconds` after the manager's start (the
  /// platform's sim time when it was constructed). Validates the
  /// spec immediately (throws std::invalid_argument on a bad one). Returns
  /// the job id (1-based, in submit-call order). Call before run().
  std::uint32_t submit(JobSpec spec, double at_seconds);

  /// Submit specs[i] at trace.at(i); sizes must match.
  void submit_all(std::vector<JobSpec> specs, const ArrivalTrace& trace);

  /// Drain the simulation and aggregate. Throws if no job was submitted or
  /// any job failed to finish (a deadlocked workload).
  WorkloadResult run();

 private:
  struct Job {
    std::uint32_t id = 0;
    JobSpec spec;
    middleware::RunOptions effective;  ///< spec.options with the tracer override
    double submit_seconds = 0.0;
    double start_seconds = 0.0;
    double finish_seconds = 0.0;
    double estimate_seconds = 0.0;  ///< SJF ranking key (computed under SJF only)
    std::uint32_t preemptions = 0;
    bool started = false;
    bool finished = false;
    bool rejected = false;  ///< admission quota refused it; never queued
    QuotaReject reject_reason = QuotaReject::None;
    std::uint64_t bytes = 0;            ///< layout.total_bytes(), quota input
    double burn_usd_per_hour = 0.0;     ///< estimated cloud burn, quota input
    std::unique_ptr<middleware::JobExecution> exec;
  };

  /// One in-progress cross-job drain (directory NodeDraining -> node
  /// retirement once every affected job's slave has vacated).
  struct DrainState {
    cluster::ClusterId site = 0;
    std::uint32_t node_index = 0;
    bool assembling = false;  ///< begin_cross_job_drain is mid-loop
    std::set<std::uint32_t> waiting_jobs;
  };

  bool concurrent_policy() const {
    return options_.policy == SchedulingPolicy::FairShare ||
           options_.policy == SchedulingPolicy::Priority;
  }
  void on_submitted(Job& job);
  /// Start whatever the admission policy allows right now.
  void pump();
  void start_job(Job& job);
  void on_job_finished(Job& job);
  void record(trace::EventKind kind, const Job& job, std::uint64_t b = 0);
  WorkloadResult aggregate();

  /// Quota check at submission time; returns the violated limit (None = admit).
  QuotaReject admission_check(const Job& job) const;
  /// A slave of `job` vacated `ep` (pool lease release + drain settlement).
  void on_slave_vacated(Job& job, net::EndpointId ep);
  /// Directory NodeDraining: block pool leases, ask every running job to
  /// drain its slave on the node, retire the node once they all vacated.
  void begin_cross_job_drain(cluster::ClusterId site, std::uint32_t node_index);
  /// All waiting jobs vacated `ep`: complete the directory retirement.
  void settle_drain(net::EndpointId ep);
  double now_seconds() const;

  cluster::Platform& platform_;
  WorkloadOptions options_;
  net::Postman<middleware::Message> postman_;
  /// Sim time at construction: submissions are delays from it, and the
  /// makespan counts from it.
  double start_seconds_;
  std::unique_ptr<CoreSlotArbiter> arbiter_;  ///< concurrent policies only
  std::unique_ptr<NodePool> pool_;            ///< WorkloadOptions::pool.enabled

  std::vector<std::unique_ptr<Job>> jobs_;  ///< by id - 1; stable storage
  std::vector<std::uint32_t> queue_;        ///< submitted, not yet started (arrival order)
  std::uint32_t active_ = 0;
  bool pump_pending_ = false;  ///< a deferred pump event is already queued
  bool running_ = false;

  // --- dynamic control plane -----------------------------------------------
  directory::PlatformDirectory::WatchId directory_watch_ = 0;
  std::map<net::EndpointId, DrainState> drains_;
  /// Per-tenant in-flight usage the admission quotas meter.
  struct TenantUsage {
    std::uint32_t inflight_jobs = 0;
    std::uint64_t inflight_bytes = 0;
    double burn_usd_per_hour = 0.0;
  };
  std::map<std::string, TenantUsage> usage_;
};

}  // namespace cloudburst::workload
