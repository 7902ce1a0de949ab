// cloudburst_sim — the configurable front end to the whole system.
//
// One binary that wires every knob together: pick an application and data
// split, size both clusters, tune the WAN and retrieval, flip scheduler
// policies, inject failures, enable elastic bursting — then get the
// execution report, the dollar cost, and (optionally) an ASCII Gantt chart
// of every node's fetch/process timeline.
//
//   ./cloudburst_sim app=knn local_fraction=0.33 local_cores=16 cloud_cores=16
//   ./cloudburst_sim app=pagerank wan_mbps=500 gantt=true
//   ./cloudburst_sim app=kmeans elastic_deadline=300 cloud_cores=32
//   ./cloudburst_sim app=knn fail_cloud_node=0 fail_at=5 tree=false
#include <cstdio>
#include <string>

#include "apps/experiments.hpp"
#include "common/config.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "cost/cost_model.hpp"
#include "middleware/runtime.hpp"
#include "trace/trace.hpp"

using namespace cloudburst;

namespace {

apps::PaperApp parse_app(const std::string& name) {
  if (name == "knn") return apps::PaperApp::Knn;
  if (name == "kmeans") return apps::PaperApp::Kmeans;
  if (name == "pagerank") return apps::PaperApp::PageRank;
  throw std::invalid_argument("unknown app (use knn|kmeans|pagerank): " + name);
}

}  // namespace

int main(int argc, char** argv) {
  const Config cfg = Config::from_args(argc, argv);

  const apps::PaperApp app = parse_app(cfg.get_string("app", "knn"));
  const double fraction = cfg.get_double("local_fraction", 1.0 / 3.0);
  const auto local_cores = static_cast<unsigned>(cfg.get_int("local_cores", 16));
  const auto cloud_cores = static_cast<unsigned>(cfg.get_int("cloud_cores", 16));

  cluster::PlatformSpec spec = cluster::PlatformSpec::paper_testbed(local_cores, cloud_cores);
  if (cfg.contains("wan_mbps")) spec.wan_bandwidth = units::mbps(cfg.get_double("wan_mbps", 0));
  if (cfg.contains("wan_latency_ms")) {
    spec.wan_latency = des::from_seconds(units::ms(cfg.get_double("wan_latency_ms", 25)));
  }
  if (cfg.contains("disk_mbps")) {
    spec.store(cluster::kLocalSite).front_bandwidth =
        units::MBps(cfg.get_double("disk_mbps", 0));
  }

  middleware::RunOptions options = apps::paper_run_options(app);
  options.retrieval_streams =
      static_cast<unsigned>(cfg.get_int("streams", options.retrieval_streams));
  options.pipeline_depth =
      static_cast<unsigned>(cfg.get_int("pipeline_depth", options.pipeline_depth));
  options.policy.allow_stealing = cfg.get_bool("stealing", true);
  options.policy.batch_size =
      static_cast<std::uint32_t>(cfg.get_int("batch_size", options.policy.batch_size));
  options.reduction_tree = cfg.get_bool("tree", true);
  if (cfg.contains("compression_ratio")) {
    options.profile.compression_ratio = cfg.get_double("compression_ratio", 1.0);
  }
  if (cfg.contains("robj_mib")) {
    options.profile.robj_bytes = units::MiB(
        static_cast<std::uint64_t>(cfg.get_int("robj_mib", 0)));
  }

  if (cfg.contains("fail_cloud_node")) {
    options.reduction_tree = false;
    options.lifecycle.push_back(
        {middleware::RunOptions::LifecycleEvent::Kind::Crash, cluster::kCloudSite,
         static_cast<std::uint32_t>(cfg.get_int("fail_cloud_node", 0)),
         cfg.get_double("fail_at", 5.0)});
  }
  if (cfg.contains("elastic_deadline")) {
    options.reduction_tree = false;
    options.elastic.enabled = true;
    options.elastic.deadline_seconds = cfg.get_double("elastic_deadline", 0);
    options.elastic.initial_cloud_nodes =
        static_cast<std::uint32_t>(cfg.get_int("elastic_initial", 1));
    options.elastic.boot_seconds = cfg.get_double("elastic_boot", 30.0);
  }

  trace::Tracer tracer;
  const bool want_gantt = cfg.get_bool("gantt", false);
  if (want_gantt) options.tracer = &tracer;

  cluster::Platform platform(spec);
  const storage::DataLayout layout = apps::paper_layout(
      app, fraction, platform.local_store_id(), platform.cloud_store_id());

  std::printf("cloudburst_sim: %s, %s local / %s S3, (%u, %u) cores, WAN %s\n",
              apps::to_string(app),
              units::format_bytes(layout.bytes_on(platform.local_store_id())).c_str(),
              units::format_bytes(layout.bytes_on(platform.cloud_store_id())).c_str(),
              local_cores, cloud_cores,
              units::format_bandwidth(spec.wan_bandwidth).c_str());

  const auto result = middleware::run_distributed(platform, layout, options);

  AsciiTable table({"side", "nodes", "processing", "retrieval", "sync", "jobs own",
                    "jobs stolen"});
  for (const auto& c : result.clusters) {
    if (c.nodes == 0) continue;
    table.add_row({c.name, std::to_string(c.nodes),
                   AsciiTable::num(c.processing, 2), AsciiTable::num(c.retrieval, 2),
                   AsciiTable::num(c.sync, 2), std::to_string(c.jobs_local),
                   std::to_string(c.jobs_stolen)});
  }
  std::printf("%s", table.render().c_str());
  std::printf("execution time: %.2f s; global reduction: %.3f s\n", result.total_time,
              result.global_reduction_time);
  if (result.elastic_activations > 0) {
    std::printf("elastic: booted %u instances\n", result.elastic_activations);
  }

  const auto cost = cost::price_run(result, platform, layout, options,
                                    cost::CloudPricing::aws_2011());
  std::printf("cost: %s\n", cost.to_string().c_str());

  if (want_gantt) {
    std::printf("\n%s", tracer.render_gantt(90).c_str());
    std::printf("  legend: f fetching, P processing, * both, . idle\n");
  }
  return 0;
}
