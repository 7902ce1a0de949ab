#include "middleware/runtime.hpp"

#include <utility>

#include "workload/workload_manager.hpp"

namespace cloudburst::middleware {

RunResult run_distributed(cluster::Platform& platform, const storage::DataLayout& layout,
                          const RunOptions& options) {
  workload::JobSpec spec;
  spec.tenant = options.tenant;
  spec.layout = layout;
  spec.options = options;
  workload::WorkloadManager manager(platform, workload::WorkloadOptions{});
  manager.submit(std::move(spec), 0.0);
  return std::move(manager.run().jobs[0].run);
}

}  // namespace cloudburst::middleware
