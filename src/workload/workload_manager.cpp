#include "workload/workload_manager.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>

#include "cost/planner.hpp"

namespace cloudburst::workload {

const char* to_string(SchedulingPolicy policy) {
  switch (policy) {
    case SchedulingPolicy::Fifo: return "fifo";
    case SchedulingPolicy::Sjf: return "sjf";
    case SchedulingPolicy::FairShare: return "fair";
    case SchedulingPolicy::Priority: return "priority";
  }
  return "?";
}

const char* to_string(QuotaReject reason) {
  switch (reason) {
    case QuotaReject::None: return "none";
    case QuotaReject::ConcurrentJobs: return "concurrent-jobs";
    case QuotaReject::BytesInFlight: return "bytes-in-flight";
    case QuotaReject::UsdPerHour: return "usd-per-hour";
  }
  return "?";
}

namespace {

/// Split `total` across entries proportional to `raw`, exactly: every entry
/// gets total * raw/sum except the largest raw entry, which takes the
/// residual — so the shares sum to `total` to the last bit. With no usage
/// anywhere the largest (first) entry absorbs everything (normally zero).
std::vector<double> split_exact(double total, const std::vector<double>& raw) {
  std::vector<double> out(raw.size(), 0.0);
  if (raw.empty()) return out;
  std::size_t largest = 0;
  double sum = 0.0;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    sum += raw[i];
    if (raw[i] > raw[largest]) largest = i;
  }
  if (sum <= 0.0) {
    out[largest] = total;
    return out;
  }
  double accounted = 0.0;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    if (i == largest) continue;
    out[i] = total * (raw[i] / sum);
    accounted += out[i];
  }
  out[largest] = total - accounted;
  return out;
}

/// The rules a job must meet to run on pool leases (the manager's
/// constructor already requires the directory).
void validate_pooled(const middleware::RunOptions& options) {
  if (options.reduction_tree || options.static_assignment) {
    throw std::invalid_argument(
        "WorkloadManager: a pooled job needs reduction_tree = false and no static "
        "assignment (leased nodes boot and leave mid-run, so the master must track "
        "per-slave work)");
  }
  if (options.elastic.enabled || options.migration.standby_nodes > 0 ||
      options.spot.reclaim_rate_per_hour > 0.0) {
    throw std::invalid_argument(
        "WorkloadManager: the elastic node pool owns cloud-node lifetime — "
        "per-job elastic/migration/spot machinery is excluded");
  }
}

double percentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  // Nearest-rank on the already-sorted sample.
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(p * n));
  if (rank == 0) rank = 1;
  return sorted[std::min(rank, sorted.size()) - 1];
}

}  // namespace

WorkloadManager::WorkloadManager(cluster::Platform& platform, WorkloadOptions options)
    : platform_(platform), options_(std::move(options)),
      postman_(platform.network()), start_seconds_(now_seconds()) {
  if (options_.pool.enabled) {
    if (!options_.directory) {
      throw std::invalid_argument(
          "WorkloadManager: the elastic node pool requires a service directory");
    }
    pool_ = std::make_unique<NodePool>(platform_.sim(), options_.pool,
                                       options_.tracer);
    // Seed the pool with the cloud nodes the directory lists as Active now;
    // later registrations join through the change feed below.
    for (cluster::ClusterId c = 0; c < platform_.cluster_count(); ++c) {
      if (!platform_.is_cloud(c)) continue;
      const auto& nodes = platform_.nodes(c);
      for (std::uint32_t i = 0; i < nodes.size(); ++i) {
        if (options_.directory->node_state(c, i) == directory::ServiceState::Active) {
          pool_->add_node(nodes[i].endpoint, nodes[i].name);
        }
      }
    }
  }
  if (options_.directory) {
    directory_watch_ = options_.directory->watch(
        [this](const directory::DirectoryEvent& ev) {
          switch (ev.kind) {
            case directory::DirectoryEvent::Kind::NodeRegistered:
              // Capacity arrival: a cloud node joining the directory joins
              // the pool (Cold) and serves the next lease.
              if (pool_ && platform_.is_cloud(ev.site)) {
                const auto& nodes = platform_.nodes(ev.site);
                if (ev.node_index < nodes.size()) {
                  pool_->add_node(nodes[ev.node_index].endpoint,
                                  nodes[ev.node_index].name);
                }
              }
              break;
            case directory::DirectoryEvent::Kind::NodeDraining:
              begin_cross_job_drain(ev.site, ev.node_index);
              break;
            case directory::DirectoryEvent::Kind::NodeRetired:
              // Abrupt retirement (site blackout, hard decommission): no
              // drain preceded it, so close the node's pool billing window
              // right now and stop leasing it. A later re-registration
              // returns it to the pool Cold through the arrival case above.
              if (pool_) {
                const auto& nodes = platform_.nodes(ev.site);
                if (ev.node_index < nodes.size()) {
                  pool_->retire_node(nodes[ev.node_index].endpoint, ev.at_seconds);
                }
              }
              break;
            default:
              break;
          }
        });
  }
  if (concurrent_policy()) {
    arbiter_ = std::make_unique<CoreSlotArbiter>(
        options_.policy == SchedulingPolicy::FairShare
            ? CoreSlotArbiter::Discipline::WeightedFair
            : CoreSlotArbiter::Discipline::Priority);
    arbiter_->on_preemption([this](net::EndpointId, std::uint32_t loser,
                                   std::uint32_t winner) {
      Job& job = *jobs_.at(loser - 1);
      ++job.preemptions;
      record(trace::EventKind::JobPreempted, job, winner);
    });
  }
}

std::uint32_t WorkloadManager::submit(JobSpec spec, double at_seconds) {
  if (running_) {
    throw std::logic_error("WorkloadManager: submit after run() started");
  }
  if (at_seconds < 0.0) {
    throw std::invalid_argument("WorkloadManager: negative submission time");
  }

  auto job = std::make_unique<Job>();
  job->id = static_cast<std::uint32_t>(jobs_.size()) + 1;
  if (spec.name.empty()) spec.name = "job" + std::to_string(job->id);
  job->submit_seconds = now_seconds() + at_seconds;
  job->effective = spec.options;
  job->effective.tenant = spec.tenant;
  if (options_.tracer) job->effective.tracer = options_.tracer;
  if (options_.directory) job->effective.directory = options_.directory;
  middleware::validate_run(platform_, spec.layout, job->effective);
  if (pool_) validate_pooled(job->effective);
  job->spec = std::move(spec);
  if (options_.policy == SchedulingPolicy::Sjf) {
    job->estimate_seconds =
        cost::estimate_exec_seconds(platform_, job->spec.layout, job->spec.options);
  }
  job->bytes = job->spec.layout.total_bytes();
  // Estimated cloud burn while the job is in flight: the cloud nodes it can
  // occupy times the instance-hour price (pool jobs: their lease request).
  std::size_t cloud_nodes = 0;
  for (cluster::ClusterId c = 0; c < platform_.cluster_count(); ++c) {
    if (platform_.is_cloud(c)) cloud_nodes += platform_.nodes(c).size();
  }
  if (pool_ && job->spec.pool_nodes > 0) {
    cloud_nodes = std::min(cloud_nodes, job->spec.pool_nodes);
  }
  job->burn_usd_per_hour =
      static_cast<double>(cloud_nodes) * options_.pricing.instance_hour_usd;

  Job* raw = job.get();
  jobs_.push_back(std::move(job));
  platform_.sim().schedule(des::from_seconds(at_seconds),
                           [this, raw] { on_submitted(*raw); });
  return raw->id;
}

void WorkloadManager::submit_all(std::vector<JobSpec> specs, const ArrivalTrace& trace) {
  if (specs.size() != trace.size()) {
    throw std::invalid_argument("WorkloadManager: specs and arrival trace sizes differ");
  }
  for (std::size_t i = 0; i < specs.size(); ++i) {
    submit(std::move(specs[i]), trace.at(i));
  }
}

void WorkloadManager::record(trace::EventKind kind, const Job& job, std::uint64_t b) {
  if (!options_.tracer) return;
  options_.tracer->record(des::to_seconds(platform_.sim().now()), kind, job.spec.name,
                          job.id, b);
}

WorkloadManager::~WorkloadManager() {
  if (options_.directory && directory_watch_ != 0) {
    options_.directory->unwatch(directory_watch_);
  }
}

double WorkloadManager::now_seconds() const {
  return des::to_seconds(platform_.sim().now());
}

QuotaReject WorkloadManager::admission_check(const Job& job) const {
  const auto q = options_.quotas.find(job.spec.tenant);
  if (q == options_.quotas.end()) return QuotaReject::None;
  const TenantQuota& quota = q->second;
  TenantUsage usage;
  const auto u = usage_.find(job.spec.tenant);
  if (u != usage_.end()) usage = u->second;
  if (quota.max_concurrent_jobs != 0 &&
      usage.inflight_jobs + 1 > quota.max_concurrent_jobs) {
    return QuotaReject::ConcurrentJobs;
  }
  if (quota.max_bytes_in_flight != 0 &&
      usage.inflight_bytes + job.bytes > quota.max_bytes_in_flight) {
    return QuotaReject::BytesInFlight;
  }
  if (quota.max_usd_per_hour > 0.0 &&
      usage.burn_usd_per_hour + job.burn_usd_per_hour >
          quota.max_usd_per_hour * (1.0 + 1e-12)) {
    return QuotaReject::UsdPerHour;
  }
  return QuotaReject::None;
}

void WorkloadManager::on_submitted(Job& job) {
  // Admission control happens at submission time, against the tenant's
  // in-flight usage at this instant — a rejected job is never queued.
  const QuotaReject verdict = admission_check(job);
  if (verdict != QuotaReject::None) {
    job.rejected = true;
    job.reject_reason = verdict;
    job.start_seconds = job.submit_seconds;
    job.finish_seconds = job.submit_seconds;
    record(trace::EventKind::JobRejected, job,
           static_cast<std::uint64_t>(verdict));
    return;
  }
  TenantUsage& usage = usage_[job.spec.tenant];
  ++usage.inflight_jobs;
  usage.inflight_bytes += job.bytes;
  usage.burn_usd_per_hour += job.burn_usd_per_hour;

  queue_.push_back(job.id);
  record(trace::EventKind::JobSubmitted, job);
  // Pump from a follow-up event, not inline: submissions at the same instant
  // must all land in the queue before SJF/Priority compare them.
  if (!pump_pending_) {
    pump_pending_ = true;
    platform_.sim().schedule(des::SimDuration{0}, [this] {
      pump_pending_ = false;
      pump();
    });
  }
}

void WorkloadManager::pump() {
  if (queue_.empty()) return;
  if (!concurrent_policy()) {
    // Run-to-completion disciplines: at most one job owns the platform.
    if (active_ > 0) return;
    std::size_t pick = 0;
    if (options_.policy == SchedulingPolicy::Sjf) {
      for (std::size_t i = 1; i < queue_.size(); ++i) {
        if (jobs_[queue_[i] - 1]->estimate_seconds <
            jobs_[queue_[pick] - 1]->estimate_seconds) {
          pick = i;  // strict < keeps ties in arrival order
        }
      }
    }
    const std::uint32_t id = queue_[pick];
    queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(pick));
    start_job(*jobs_[id - 1]);
    return;
  }
  // Concurrent disciplines: admit until the cap (0 = everyone).
  while (!queue_.empty() &&
         (options_.max_concurrent == 0 || active_ < options_.max_concurrent)) {
    std::size_t pick = 0;
    if (options_.policy == SchedulingPolicy::Priority) {
      for (std::size_t i = 1; i < queue_.size(); ++i) {
        if (jobs_[queue_[i] - 1]->spec.priority >
            jobs_[queue_[pick] - 1]->spec.priority) {
          pick = i;  // strict > keeps ties in arrival order
        }
      }
    }
    const std::uint32_t id = queue_[pick];
    queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(pick));
    start_job(*jobs_[id - 1]);
  }
}

void WorkloadManager::start_job(Job& job) {
  job.started = true;
  job.start_seconds = des::to_seconds(platform_.sim().now());
  record(trace::EventKind::JobStarted, job);
  if (arbiter_) {
    CoreSlotArbiter::JobShare share;
    share.tenant = job.spec.tenant;
    share.priority = job.spec.priority;
    const auto w = options_.tenant_weights.find(job.spec.tenant);
    share.weight = w != options_.tenant_weights.end() ? w->second : 1.0;
    arbiter_->register_job(job.id, share);
  }
  std::optional<std::vector<middleware::PoolLease>> leases;
  if (pool_) {
    // Lease cloud nodes now, at start time: a warm node is ready immediately,
    // a cold one boots inside the lease, which the job's setup_pool() turns
    // into a deferred start.
    leases.emplace();
    for (const auto& lease : pool_->lease(job.id, job.spec.tenant, job.spec.pool_nodes,
                                          job.start_seconds)) {
      leases->push_back({lease.node, lease.ready_in_seconds});
    }
  }
  // A solo job keeps bare actor names so its trace (and everything downstream
  // of it) matches the paper runs exactly; concurrent jobs get "name/" lanes.
  std::string tag = jobs_.size() > 1 ? job.spec.name + "/" : std::string{};
  job.exec = std::make_unique<middleware::JobExecution>(
      platform_, job.spec.layout, job.effective, postman_, job.id, std::move(tag),
      arbiter_.get(), [this, &job] { on_job_finished(job); }, std::move(leases));
  job.exec->ctx().on_node_vacated = [this, &job](net::EndpointId ep) {
    on_slave_vacated(job, ep);
  };
  ++active_;
  job.exec->start();
}

void WorkloadManager::on_slave_vacated(Job& job, net::EndpointId ep) {
  if (pool_) pool_->release_node(job.id, ep, now_seconds());
  const auto it = drains_.find(ep);
  if (it == drains_.end()) return;
  it->second.waiting_jobs.erase(job.id);
  if (!it->second.assembling && it->second.waiting_jobs.empty()) settle_drain(ep);
}

void WorkloadManager::begin_cross_job_drain(cluster::ClusterId site,
                                            std::uint32_t node_index) {
  const auto& nodes = platform_.nodes(site);
  if (node_index >= nodes.size()) return;
  const net::EndpointId ep = nodes[node_index].endpoint;
  if (drains_.find(ep) != drains_.end()) return;  // already draining
  if (pool_) pool_->block_node(ep);  // no new leases while work drains off

  DrainState& drain = drains_[ep];
  drain.site = site;
  drain.node_index = node_index;
  drain.assembling = true;
  for (auto& jptr : jobs_) {
    Job& job = *jptr;
    if (!job.started || job.finished || !job.exec) continue;
    // Insert before asking: an idle slave vacates synchronously inside
    // drain_node, and its on_node_vacated must find the id to erase.
    drain.waiting_jobs.insert(job.id);
    if (!job.exec->drain_node(ep)) drain.waiting_jobs.erase(job.id);
  }
  drain.assembling = false;
  if (drain.waiting_jobs.empty()) settle_drain(ep);
}

void WorkloadManager::settle_drain(net::EndpointId ep) {
  const auto it = drains_.find(ep);
  if (it == drains_.end()) return;
  const DrainState drain = it->second;
  drains_.erase(it);
  if (pool_) pool_->retire_node(ep, now_seconds());
  if (options_.directory) {
    options_.directory->complete_node_retirement(drain.site, drain.node_index);
  }
}

void WorkloadManager::on_job_finished(Job& job) {
  job.finished = true;
  job.finish_seconds = des::to_seconds(platform_.sim().now());
  record(trace::EventKind::JobFinished, job);
  --active_;

  const auto usage = usage_.find(job.spec.tenant);
  if (usage != usage_.end()) {
    TenantUsage& u = usage->second;
    if (u.inflight_jobs > 0) --u.inflight_jobs;
    u.inflight_bytes -= std::min(u.inflight_bytes, job.bytes);
    u.burn_usd_per_hour = std::max(0.0, u.burn_usd_per_hour - job.burn_usd_per_hour);
  }
  if (pool_) pool_->release_job(job.id, job.finish_seconds);
  // A finished job can no longer vacate: drop it from every pending drain
  // (a tree-less job whose slaves idled out finishes without vacating them).
  std::vector<net::EndpointId> settled;
  for (auto& [ep, drain] : drains_) {
    drain.waiting_jobs.erase(job.id);
    if (!drain.assembling && drain.waiting_jobs.empty()) settled.push_back(ep);
  }
  for (const net::EndpointId ep : settled) settle_drain(ep);

  pump();
}

WorkloadResult WorkloadManager::run() {
  if (jobs_.empty()) {
    throw std::invalid_argument("WorkloadManager: no jobs submitted");
  }
  if (running_) {
    throw std::logic_error("WorkloadManager: run() called twice");
  }
  running_ = true;
  // The kernel pool lives for this run: joined however the run ends.
  const cluster::KernelPoolStop stop_kernels{platform_};
  platform_.sim().run();
  for (const auto& job : jobs_) {
    if (job->exec) job->exec->fence_kernels();
  }

  std::size_t unfinished = 0;
  for (const auto& job : jobs_) {
    if (!job->finished && !job->rejected) ++unfinished;
  }
  if (unfinished > 0) {
    throw std::runtime_error("WorkloadManager: " + std::to_string(unfinished) +
                             " job(s) never finished (workload deadlocked)");
  }
  return aggregate();
}

WorkloadResult WorkloadManager::aggregate() {
  WorkloadResult result;
  double last_finish = start_seconds_;  ///< absolute sim time

  // --- per-job results and raw (billed-alone) usage ---------------------------
  std::vector<cost::CostInputs> job_inputs;
  for (auto& jptr : jobs_) {
    Job& job = *jptr;
    JobResult r;
    r.id = job.id;
    r.name = job.spec.name;
    r.tenant = job.spec.tenant;
    r.priority = job.spec.priority;
    r.deadline_seconds = job.spec.deadline_seconds;
    r.submit_seconds = job.submit_seconds;
    r.start_seconds = job.start_seconds;
    r.finish_seconds = job.finish_seconds;
    r.preemptions = job.preemptions;
    if (job.rejected) {
      // Quota-rejected: never ran. Zero run/cost records, a zero CostInputs
      // placeholder keeps job_inputs parallel with result.jobs.
      r.rejected = true;
      r.reject_reason = job.reject_reason;
      job_inputs.emplace_back();
      result.jobs.push_back(std::move(r));
      ++result.rejected_jobs;
      continue;
    }
    r.run = job.exec->collect();
    job_inputs.push_back(cost::derive_run_inputs(r.run, platform_, job.spec.layout,
                                                 job.effective));
    if (pool_) {
      // Pooled jobs carry no per-job instance rentals (the pool owns the
      // billing windows); their raw instance usage is the lease time held.
      const double lease_seconds = pool_->job_lease_seconds(job.id);
      if (lease_seconds > 0.0) {
        job_inputs.back().instance_seconds.push_back(lease_seconds);
        job_inputs.back().cloud_instances = 1;
      }
    }
    r.raw_cost = cost::price(job_inputs.back(), options_.pricing);
    result.jobs.push_back(std::move(r));

    last_finish = std::max(last_finish, job.finish_seconds);
    result.preemptions += job.preemptions;
    result.elastic_activations += result.jobs.back().run.elastic_activations;
  }

  result.makespan = last_finish - start_seconds_;

  // --- the platform billed once ----------------------------------------------
  // Cloud nodes are physical: a node several jobs rented (including elastic
  // activations from different tenants) bills from its earliest rental to
  // the end of the workload, exactly once.
  std::map<net::EndpointId, double> rented_from;
  // Latest rental end per node; a rental no lifecycle event closed runs to
  // the workload's last finish, which then dominates every early end.
  std::map<net::EndpointId, double> rented_until;
  for (const JobResult& r : result.jobs) {
    for (const middleware::Rental& rental : r.run.rentals) {
      const double at = r.start_seconds + rental.start;
      const double end =
          rental.end >= 0.0 ? r.start_seconds + rental.end : last_finish;
      const auto it = rented_from.find(rental.node);
      if (it == rented_from.end()) {
        rented_from[rental.node] = at;
        rented_until[rental.node] = end;
      } else {
        it->second = std::min(it->second, at);
        rented_until[rental.node] = std::max(rented_until[rental.node], end);
      }
    }
  }
  cost::CostInputs platform_inputs;
  platform_inputs.run_seconds = result.makespan;
  platform_inputs.cloud_instances = static_cast<std::uint32_t>(rented_from.size());
  for (const auto& [ep, from] : rented_from) {
    platform_inputs.instance_seconds.push_back(
        std::max(0.0, rented_until.at(ep) - from));
  }
  if (pool_) {
    // Under the node pool the per-job rental lists above are empty by
    // construction; the pool's provisioning windows ARE the platform bill
    // (a window still open when the workload ends closes at its last finish).
    for (const auto& window : pool_->windows(last_finish)) {
      platform_inputs.instance_seconds.push_back(
          std::max(0.0, window.end - window.start));
    }
    platform_inputs.cloud_instances =
        static_cast<std::uint32_t>(platform_inputs.instance_seconds.size());
    result.pool = pool_->stats();
  }
  for (const cost::CostInputs& in : job_inputs) {
    platform_inputs.s3_get_requests += in.s3_get_requests;
    platform_inputs.bytes_out_of_cloud += in.bytes_out_of_cloud;
    platform_inputs.s3_resident_bytes += in.s3_resident_bytes;
  }
  result.platform_cost = cost::price(platform_inputs, options_.pricing);

  // --- exact per-job attribution ---------------------------------------------
  // Each platform cost component is split proportional to the jobs' raw
  // (billed-alone) component, residual to the largest consumer — so the
  // attributed reports sum to the platform bill component by component.
  const std::size_t n = result.jobs.size();
  std::vector<double> raw_inst(n), raw_req(n), raw_xfer(n), raw_stor(n);
  for (std::size_t i = 0; i < n; ++i) {
    raw_inst[i] = result.jobs[i].raw_cost.instance_usd;
    raw_req[i] = result.jobs[i].raw_cost.requests_usd;
    raw_xfer[i] = result.jobs[i].raw_cost.transfer_usd;
    raw_stor[i] = result.jobs[i].raw_cost.storage_usd;
  }
  const auto inst_usd = split_exact(result.platform_cost.instance_usd, raw_inst);
  const auto inst_hours = split_exact(result.platform_cost.instance_hours, raw_inst);
  const auto req_usd = split_exact(result.platform_cost.requests_usd, raw_req);
  const auto xfer_usd = split_exact(result.platform_cost.transfer_usd, raw_xfer);
  const auto xfer_gb = split_exact(result.platform_cost.transfer_out_gb, raw_xfer);
  const auto stor_usd = split_exact(result.platform_cost.storage_usd, raw_stor);
  const auto stor_gb = split_exact(result.platform_cost.storage_gb, raw_stor);
  for (std::size_t i = 0; i < n; ++i) {
    cost::CostReport& a = result.jobs[i].attributed_cost;
    a.instance_usd = inst_usd[i];
    a.instance_hours = inst_hours[i];
    a.requests_usd = req_usd[i];
    a.get_requests = result.jobs[i].raw_cost.get_requests;  // true per-job counts
    a.transfer_usd = xfer_usd[i];
    a.transfer_out_gb = xfer_gb[i];
    a.storage_usd = stor_usd[i];
    a.storage_gb = stor_gb[i];
  }

  // --- tenant rollup ----------------------------------------------------------
  std::map<std::string, TenantReport> tenants;
  for (const JobResult& r : result.jobs) {
    TenantReport& t = tenants[r.tenant];
    if (t.tenant.empty()) {
      t.tenant = r.tenant;
      const auto w = options_.tenant_weights.find(r.tenant);
      t.weight = w != options_.tenant_weights.end() ? w->second : 1.0;
    }
    if (r.rejected) {
      ++t.rejected;
      continue;
    }
    ++t.jobs;
    if (r.slo_met()) ++t.slo_met;
    t.attributed_cost += r.attributed_cost;
  }
  for (auto& [name, report] : tenants) {
    if (arbiter_) {
      report.service_seconds = arbiter_->tenant_seconds(name);
    } else {
      for (const JobResult& r : result.jobs) {
        if (r.tenant != name) continue;
        for (const auto& node : r.run.nodes) report.service_seconds += node.processing;
      }
    }
    // Store-QoS rollup: any of the tenant's jobs that carried a StoreQos
    // shares the same arbiter-wide per-tenant counters.
    for (const auto& job : jobs_) {
      if (job->spec.tenant == name && job->effective.qos) {
        report.qos = job->effective.qos->report(name);
        break;
      }
    }
    if (pool_) report.lease_seconds = pool_->tenant_lease_seconds(name);
    result.tenants.push_back(report);
  }

  // --- latency distribution ---------------------------------------------------
  std::vector<double> latencies;
  std::size_t slo_ok = 0;
  std::size_t admitted = 0;
  for (const JobResult& r : result.jobs) {
    if (r.rejected) continue;  // never ran: no latency, no SLO verdict
    ++admitted;
    latencies.push_back(r.latency_seconds());
    if (r.slo_met()) ++slo_ok;
  }
  std::sort(latencies.begin(), latencies.end());
  result.p50_latency_seconds = percentile(latencies, 0.50);
  result.p95_latency_seconds = percentile(latencies, 0.95);
  result.slo_hit_rate = admitted == 0 ? 1.0
                                      : static_cast<double>(slo_ok) /
                                            static_cast<double>(admitted);
  return result;
}

}  // namespace cloudburst::workload
