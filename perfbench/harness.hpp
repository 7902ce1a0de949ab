// Shared pieces of the repository benchmark: timing, the model digest, the
// in-memory span log, per-layer totals, the DES probe, and the delegating
// task / reduction-object wrappers that time the apps and api layers from
// outside.
//
// Everything here observes the simulator through its public headers only;
// nothing in src/ knows the benchmark exists.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "api/generalized_reduction.hpp"
#include "cluster/platform.hpp"
#include "middleware/run_result.hpp"
#include "trace/trace.hpp"
#include "workload/workload.hpp"

namespace perfbench {

using namespace cloudburst;
using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Median of a non-empty sample (mean of the middle pair for even sizes).
double median(std::vector<double> values);

/// Peak resident set size of this process, in MiB.
double peak_rss_mib();

/// 64-bit FNV-1a digest of simulated statistics. Doubles are hashed by bit
/// pattern, so any change to a simulated result changes the digest.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  void add(const middleware::RunResult& run);
  void add(const cost::CostReport& cost);
  void add(const workload::WorkloadResult& result);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// In-memory span log: name, host start/end, parent span and run id. Spans
/// are kept until the benchmark ends and written out in one go.
class SpanLog {
 public:
  struct Span {
    const char* name;
    double start = 0.0;  ///< host seconds since the log was created
    double end = 0.0;
    int parent = -1;
    std::uint32_t run = 0;
  };

  int open(const char* name);
  void close(int index);
  /// Start a new run id; later spans carry it.
  void next_run() { ++run_; }

  std::size_t count(const std::string& name) const;
  double total_seconds(const std::string& name) const;
  /// Sum over spans named `name` of their duration minus their children's.
  double self_seconds(const std::string& name) const;
  bool write_jsonl(const std::string& path) const;

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::uint32_t run_ = 0;
};

/// RAII span; a null log makes it a no-op (the untraced path).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name)
      : log_(log), index_(log ? log->open(name) : -1) {}
  ~ScopedSpan() {
    if (log_) log_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int index_;
};

/// Per-layer work counts gathered from public accessors during a traced pass.
struct LayerTotals {
  // des
  std::uint64_t events = 0;        ///< executed, probe firings included
  std::uint64_t probe_events = 0;
  std::uint64_t peak_pending = 0;
  // net
  std::uint64_t peak_flows = 0;
  double flow_sample_sum = 0.0;
  std::uint64_t flow_samples = 0;
  double wan_bytes = 0.0;
  // storage
  std::uint64_t store_requests = 0;
  std::uint64_t store_faults = 0;
  std::uint64_t fetch_retries = 0;
  std::uint64_t hedges_issued = 0;
  std::uint64_t hedges_won = 0;
  std::uint64_t bytes_retried = 0;
  std::uint64_t bytes_served = 0;
  // cache
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t prefetch_issued = 0;
  std::uint64_t prefetch_wasted = 0;
  std::uint64_t cache_evictions = 0;
  // middleware
  std::uint64_t jobs_local = 0;
  std::uint64_t jobs_stolen = 0;
  // workload
  std::uint64_t preemptions = 0;
  std::uint64_t rejected = 0;
  std::uint64_t cold_boots = 0;
  // replica / qos
  std::uint64_t replicas_repaired = 0;
  std::uint64_t repair_bytes = 0;
  std::uint64_t qos_throttled = 0;
  double qos_wait_seconds = 0.0;
  // apps (bytes the timed task wrapper processed)
  std::uint64_t process_bytes = 0;

  void add_run(const middleware::RunResult& run);
  void add_workload(const workload::WorkloadResult& result);
  /// Store counters, WAN bytes and executed events of a finished platform.
  void add_platform(cluster::Platform& platform);
};

/// Instruments of the traced pass. The untraced pass passes nullptr.
struct Instruments {
  trace::Tracer tracer;
  SpanLog spans;
  LayerTotals totals;
};

/// Benchmark-owned DES probe: samples pending events and active flows every
/// `interval_seconds` of simulated time, and re-arms only while other events
/// are pending, so it never keeps a run alive.
class Probe {
 public:
  Probe(cluster::Platform& platform, LayerTotals& totals, double interval_seconds);
  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

 private:
  void fire();

  cluster::Platform& platform_;
  LayerTotals& totals_;
  des::SimDuration interval_;
};

/// Delegating reduction object: times merge_from / serialize / deserialize
/// as api.* spans and forwards everything to the wrapped object.
class TimedRobj final : public api::ReductionObject {
 public:
  TimedRobj(api::RobjPtr inner, SpanLog* spans) : inner_(std::move(inner)), spans_(spans) {}

  const api::ReductionObject& inner() const { return *inner_; }
  api::ReductionObject& inner() { return *inner_; }

  api::RobjPtr clone_empty() const override;
  void merge_from(const api::ReductionObject& other) override;
  std::uint64_t byte_size() const override { return inner_->byte_size(); }
  void serialize(BufferWriter& out) const override;
  void deserialize(BufferReader& in) override;

 private:
  api::RobjPtr inner_;
  SpanLog* spans_;
};

/// Delegating task: times process() as apps.process spans and hands out
/// TimedRobj-wrapped reduction objects.
class TimedTask final : public api::GRTask {
 public:
  TimedTask(const api::GRTask& inner, Instruments& ins) : inner_(inner), ins_(ins) {}

  std::string name() const override { return inner_.name(); }
  std::size_t unit_bytes() const override { return inner_.unit_bytes(); }
  api::RobjPtr create_robj() const override;
  void process(const std::byte* data, std::size_t unit_count,
               api::ReductionObject& robj) const override;
  void finalize(api::ReductionObject& robj) const override;

 private:
  const api::GRTask& inner_;
  Instruments& ins_;
};

/// The application's own reduction object behind a possible TimedRobj.
const api::ReductionObject& unwrap(const api::ReductionObject& robj);

}  // namespace perfbench
