#include "middleware/runtime.hpp"

#include <stdexcept>
#include <utility>

#include "middleware/job_execution.hpp"
#include "net/messaging.hpp"

namespace cloudburst::middleware {

RunResult run_distributed(cluster::Platform& platform, const storage::DataLayout& layout,
                          const RunOptions& options) {
  validate_run(platform, layout, options);

  // The kernel pool lives for this run: joined however the run ends.
  const cluster::KernelPoolStop stop_kernels{platform};
  net::Postman<Message> postman(platform.network());
  JobExecution job(platform, layout, options, postman,
                   [&postman](net::EndpointId ep,
                              std::function<void(net::EndpointId, Message)> handler) {
                     postman.register_mailbox(ep, std::move(handler));
                   });
  job.start();
  platform.sim().run();
  job.fence_kernels();

  if (!job.finished()) {
    throw std::runtime_error("run_distributed: simulation drained without completing the run");
  }
  return job.collect();
}

}  // namespace cloudburst::middleware
