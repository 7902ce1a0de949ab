#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>

namespace perfbench {

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double peak_rss_mib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

// --- digest ------------------------------------------------------------------

void Digest::add(const middleware::RunResult& run) {
  add(run.total_time);
  add(run.global_reduction_time);
  for (const auto& c : run.clusters) {
    add(c.processing);
    add(c.retrieval);
    add(c.sync);
    add(c.idle_time);
    add(static_cast<std::uint64_t>(c.jobs_local) << 32 | c.jobs_stolen);
    add(static_cast<std::uint64_t>(c.cache_hits) << 32 | c.cache_misses);
    add(static_cast<std::uint64_t>(c.prefetch_issued) << 32 | c.prefetch_wasted);
    add(static_cast<std::uint64_t>(c.store_faults) << 32 | c.fetch_retries);
    add(static_cast<std::uint64_t>(c.hedges_issued) << 32 | c.hedges_won);
    add(static_cast<std::uint64_t>(c.qos_throttled));
    add(c.qos_wait_seconds);
  }
  for (std::uint64_t r : run.store_requests) add(r);
  add(run.s3_get_requests);
  add(run.bytes_retried_total());
  add(static_cast<std::uint64_t>(run.lifecycle.chunks_reexecuted));
  add(static_cast<std::uint64_t>(run.replica.replicas_repaired));
  add(run.replica.repair_bytes);
}

void Digest::add(const cost::CostReport& cost) {
  add(cost.instance_usd);
  add(cost.requests_usd);
  add(cost.transfer_usd);
  add(cost.storage_usd);
}

void Digest::add(const workload::WorkloadResult& result) {
  add(result.makespan);
  add(static_cast<std::uint64_t>(result.preemptions));
  add(static_cast<std::uint64_t>(result.rejected_jobs));
  add(static_cast<std::uint64_t>(result.pool.cold_boots));
  add(result.platform_cost);
  for (const auto& job : result.jobs) {
    add(job.start_seconds);
    add(job.finish_seconds);
    add(job.run);
    add(job.attributed_cost);
  }
}

// --- spans -------------------------------------------------------------------

int SpanLog::open(const char* name) {
  Span span;
  span.name = name;
  span.start = std::chrono::duration<double>(Clock::now() - origin_).count();
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.run = run_;
  spans_.push_back(span);
  const int index = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(index);
  return index;
}

void SpanLog::close(int index) {
  spans_[index].end = std::chrono::duration<double>(Clock::now() - origin_).count();
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

std::size_t SpanLog::count(const std::string& name) const {
  return static_cast<std::size_t>(std::count_if(
      spans_.begin(), spans_.end(), [&](const Span& s) { return name == s.name; }));
}

double SpanLog::total_seconds(const std::string& name) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (name == s.name) total += s.end - s.start;
  }
  return total;
}

double SpanLog::self_seconds(const std::string& name) const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].end - spans_[i].start;
  for (const Span& s : spans_) {
    if (s.parent >= 0) self[s.parent] -= s.end - s.start;
  }
  double total = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (name == spans_[i].name) total += self[i];
  }
  return total;
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (!out) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_s\":%.9f,\"end_s\":%.9f,"
                 "\"parent\":%d,\"run\":%u}\n",
                 i, s.name, s.start, s.end, s.parent, s.run);
  }
  return std::fclose(out) == 0;
}

// --- layer totals ------------------------------------------------------------

void LayerTotals::add_run(const middleware::RunResult& run) {
  for (const auto& c : run.clusters) {
    jobs_local += c.jobs_local;
    jobs_stolen += c.jobs_stolen;
    cache_hits += c.cache_hits;
    cache_misses += c.cache_misses;
    prefetch_issued += c.prefetch_issued;
    prefetch_wasted += c.prefetch_wasted;
    store_faults += c.store_faults;
    fetch_retries += c.fetch_retries;
    hedges_issued += c.hedges_issued;
    hedges_won += c.hedges_won;
    qos_throttled += c.qos_throttled;
    qos_wait_seconds += c.qos_wait_seconds;
  }
  bytes_retried += run.bytes_retried_total();
  replicas_repaired += run.replica.replicas_repaired;
  repair_bytes += run.replica.repair_bytes;
}

void LayerTotals::add_workload(const workload::WorkloadResult& result) {
  for (const auto& job : result.jobs) add_run(job.run);
  preemptions += result.preemptions;
  rejected += result.rejected_jobs;
  cold_boots += result.pool.cold_boots;
}

void LayerTotals::add_platform(cluster::Platform& platform) {
  for (storage::StoreId s = 0; s < platform.store_count(); ++s) {
    store_requests += platform.store(s).stats().requests;
    bytes_served += platform.store(s).stats().bytes_served;
  }
  const auto sites = static_cast<cluster::ClusterId>(platform.cluster_count());
  for (cluster::ClusterId a = 0; a < sites; ++a) {
    for (cluster::ClusterId b = a + 1; b < sites; ++b) {
      wan_bytes += platform.network().link(platform.wan_link(a, b)).bytes_carried;
    }
  }
  events += platform.sim().executed_events();
}

// --- probe -------------------------------------------------------------------

Probe::Probe(cluster::Platform& platform, LayerTotals& totals, double interval_seconds)
    : platform_(platform), totals_(totals), interval_(des::from_seconds(interval_seconds)) {
  platform_.sim().schedule(0, [this] { fire(); });
}

void Probe::fire() {
  // Probe firings are executed events too; add_platform() counts them and
  // they are taken back out when the totals are reported.
  ++totals_.probe_events;
  des::Simulator& sim = platform_.sim();
  const std::uint64_t pending = sim.pending_events();
  const std::uint64_t flows = platform_.network().active_flows();
  totals_.peak_pending = std::max(totals_.peak_pending, pending);
  totals_.peak_flows = std::max(totals_.peak_flows, flows);
  totals_.flow_sample_sum += static_cast<double>(flows);
  ++totals_.flow_samples;
  if (pending > 0) sim.schedule(interval_, [this] { fire(); });
}

// --- delegating task / robj --------------------------------------------------

api::RobjPtr TimedRobj::clone_empty() const {
  return std::make_unique<TimedRobj>(inner_->clone_empty(), spans_);
}

void TimedRobj::merge_from(const api::ReductionObject& other) {
  ScopedSpan span(spans_, "api.merge");
  inner_->merge_from(unwrap(other));
}

void TimedRobj::serialize(BufferWriter& out) const {
  ScopedSpan span(spans_, "api.serialize");
  inner_->serialize(out);
}

void TimedRobj::deserialize(BufferReader& in) {
  ScopedSpan span(spans_, "api.deserialize");
  inner_->deserialize(in);
}

api::RobjPtr TimedTask::create_robj() const {
  return std::make_unique<TimedRobj>(inner_.create_robj(), &ins_.spans);
}

void TimedTask::process(const std::byte* data, std::size_t unit_count,
                        api::ReductionObject& robj) const {
  ScopedSpan span(&ins_.spans, "apps.process");
  inner_.process(data, unit_count, static_cast<TimedRobj&>(robj).inner());
  ins_.totals.process_bytes += unit_count * inner_.unit_bytes();
}

void TimedTask::finalize(api::ReductionObject& robj) const {
  inner_.finalize(static_cast<TimedRobj&>(robj).inner());
}

const api::ReductionObject& unwrap(const api::ReductionObject& robj) {
  const auto* timed = dynamic_cast<const TimedRobj*>(&robj);
  return timed ? timed->inner() : robj;
}

}  // namespace perfbench
