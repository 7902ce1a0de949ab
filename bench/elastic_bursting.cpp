// Extension bench: elastic bursting under deadlines.
//
// The classic cloud-bursting operations story (Elastic Site, from the
// paper's related work): in-house capacity handles the base load; when a
// deadline is at risk, instances are booted on demand. This bench fixes a
// 16-core local cluster plus one warm cloud instance, sweeps the deadline,
// and reports how many instances the controller boots, whether the deadline
// is met, and what the run costs with billing from each activation.
#include "paper_common.hpp"

#include "cost/cost_model.hpp"
#include "middleware/runtime.hpp"

namespace {

using namespace cloudburst;

struct ElasticOutcome {
  middleware::RunResult result;
  cost::CostReport cost;
};

ElasticOutcome run_elastic(double deadline) {
  cluster::Platform platform(cluster::PlatformSpec::paper_testbed(16, 32));
  const storage::DataLayout layout = apps::paper_layout(
      apps::PaperApp::Knn, 1.0 / 3, platform.local_store_id(), platform.cloud_store_id());
  middleware::RunOptions options = apps::paper_run_options(apps::PaperApp::Knn);
  options.reduction_tree = false;
  options.elastic.enabled = true;
  options.elastic.deadline_seconds = deadline;
  options.elastic.initial_cloud_nodes = 1;
  options.elastic.check_interval_seconds = 2.0;
  options.elastic.boot_seconds = 15.0;
  options.elastic.activation_step = 2;

  ElasticOutcome out;
  out.result = middleware::run_distributed(platform, layout, options);
  out.cost = cost::price_run(out.result, platform, layout, options,
                             cost::CloudPricing::aws_2011());
  return out;
}

}  // namespace

int main() {
  using namespace cloudburst;

  AsciiTable table({"deadline", "exec time", "met?", "instances booted",
                    "instances total", "cost $"});
  for (double deadline : {1e9, 120.0, 60.0, 40.0, 25.0, 15.0}) {
    const auto out = run_elastic(deadline);
    table.add_row({deadline > 1e8 ? std::string("none")
                                  : AsciiTable::num(deadline, 0) + " s",
                   AsciiTable::num(out.result.total_time, 1),
                   out.result.total_time <= deadline ? "yes" : "no",
                   std::to_string(out.result.elastic_activations),
                   std::to_string(out.result.rentals.size()),
                   AsciiTable::num(out.cost.total_usd(), 3)});
  }
  std::printf("%s\n",
              table.render("Extension — elastic bursting (knn, 16 local cores + 1 warm "
                           "instance, boots 2 instances per decision, 15 s boot)")
                  .c_str());
  return 0;
}
