// The benchmark's workloads. Each builds its inputs from the workload seed in
// setup(), then runs one fixed unit of work per pass() and checks its
// outputs. A pass is deterministic: the same seed gives the same model
// digest on every pass, traced or not.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "harness.hpp"

namespace perfbench {

struct PassOutput {
  std::uint64_t chunks = 0;     ///< simulated chunks completed, each counted once
  std::uint64_t attempted = 0;  ///< operations: runs, or jobs under a workload manager
  std::uint64_t failed = 0;
  std::uint64_t digest = 0;     ///< model digest of the pass's simulated statistics
  std::string failure;          ///< first failed check, for the log

  void fail(std::string why, std::uint64_t operations = 1) {
    failed += operations;
    if (failure.empty()) failure = std::move(why);
  }
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Build inputs: datasets, layouts, references, job specs. Throws on a
  /// configuration the simulator rejects. `spans` (null when untraced)
  /// receives a span per public entry call.
  virtual void setup(std::uint64_t seed, SpanLog* spans) = 0;
  /// One unit of work. `ins` is null on untraced passes.
  virtual PassOutput pass(Instruments* ins) = 0;
  /// Throughput of the setup's gr_run references (0 when there are none).
  virtual double gr_mb_per_s() const { return 0.0; }
};

/// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name);

/// Small real-execution workload for the traced run of workloads that run
/// no application kernel: it supplies the apps / api / engine timings there.
std::unique_ptr<Workload> make_kernel_side_workload();

/// One point of the fleet-size curve: perf_engine's canonical fleet shape
/// scaled to `nodes`, run untraced.
struct FleetPoint {
  std::uint64_t events = 0;
  double makespan = 0.0;
  double run_seconds = 0.0;  ///< host seconds of WorkloadManager::run
  PassOutput out;
};
FleetPoint run_fleet_point(std::size_t nodes, std::uint64_t seed, Instruments* ins = nullptr);

}  // namespace perfbench
