// Run orchestration: one complete cloud-bursting execution on a Platform.
//
// This is the public entry point of the middleware: given a platform
// (clusters + stores + network), a data layout (which files live where), and
// run options (application profile, scheduling policy, optionally a real
// task + dataset), it performs one complete cloud-bursting execution. It is
// a one-job FIFO workload: the spec goes to a workload::WorkloadManager
// with default options at t = 0 (from the platform's current time), the
// manager builds the actor tree and drains the simulator, and the job's
// RunResult comes back. Built into cb_workload, which owns the manager.
#pragma once

#include "cluster/platform.hpp"
#include "middleware/run_context.hpp"
#include "middleware/run_result.hpp"
#include "storage/data_layout.hpp"

namespace cloudburst::middleware {

/// Execute one distributed run. Throws std::invalid_argument on options the
/// platform cannot run, and std::runtime_error if the simulation drains
/// before the run completes.
RunResult run_distributed(cluster::Platform& platform, const storage::DataLayout& layout,
                          const RunOptions& options);

}  // namespace cloudburst::middleware
