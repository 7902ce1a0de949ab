// Extension bench: failure recovery overhead.
//
// A slave crash loses its accumulated reduction object, so every chunk it
// was assigned since its last checkpoint is re-executed on the survivors.
// This bench sweeps the crash time across the run (knn, env-50/50 data,
// direct-reduction mode) and reports the re-executed work and the time
// overhead versus a failure-free run.
#include "paper_common.hpp"

#include "middleware/runtime.hpp"

namespace {

using namespace cloudburst;

using NodeEvent = middleware::RunOptions::LifecycleEvent;

/// A crash of cloud node 0 at `at_seconds`.
std::vector<NodeEvent> cloud_crash(double at_seconds) {
  return {{NodeEvent::Kind::Crash, cluster::kCloudSite, 0, at_seconds}};
}

middleware::RunResult run_knn(std::uint64_t seed, const std::vector<NodeEvent>& crashes,
                              double detection_seconds,
                              double checkpoint_interval = 0.0,
                              const storage::FaultProfile& cloud_fault = {},
                              const storage::RetryPolicy& retry = {}) {
  cluster::PlatformSpec spec = cluster::PlatformSpec::paper_testbed(16, 16);
  spec.sites[cluster::kCloudSite].store->fault = cloud_fault;
  cluster::Platform platform(spec);
  const storage::DataLayout layout =
      apps::paper_layout(apps::PaperApp::Knn, 0.5, platform.local_store_id(),
                         platform.cloud_store_id());
  middleware::RunOptions options = apps::paper_run_options(apps::PaperApp::Knn);
  options.reduction_tree = false;
  options.random_seed = seed;
  options.lifecycle = crashes;
  options.failure_detection_seconds = detection_seconds;
  options.checkpoint_interval_seconds = checkpoint_interval;
  options.retry = retry;
  return middleware::run_distributed(platform, layout, options);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cloudburst;

  const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
  const auto clean = run_knn(args.seed, {}, 1.0);
  AsciiTable table({"crash point", "detection", "exec time", "overhead",
                    "jobs assigned (96 unique)"});
  table.add_row({"none", "-", AsciiTable::num(clean.total_time, 2), "0.0%", "96"});
  const std::vector<double> crash_fracs =
      args.quick ? std::vector<double>{0.5} : std::vector<double>{0.1, 0.3, 0.5, 0.7, 0.9};
  const std::vector<double> detections =
      args.quick ? std::vector<double>{0.5} : std::vector<double>{0.5, 2.0};
  for (double frac : crash_fracs) {
    for (double detect : detections) {
      const auto result = run_knn(args.seed, cloud_crash(frac * clean.total_time), detect);
      table.add_row({AsciiTable::pct(frac, 0) + " of run",
                     AsciiTable::num(detect, 1) + " s",
                     AsciiTable::num(result.total_time, 2),
                     AsciiTable::pct(result.total_time / clean.total_time - 1.0, 1),
                     std::to_string(result.total_jobs())});
    }
  }
  std::printf("%s\n",
              table.render("Extension — slave-crash recovery (knn env-50/50, one "
                           "cloud instance dies; lost robj work is re-executed)")
                  .c_str());

  // Checkpoint-interval sweep: bounding the loss of a late crash.
  AsciiTable ckpt({"checkpoint interval", "exec time", "overhead",
                   "jobs assigned (96 unique)"});
  const std::vector<double> intervals =
      args.quick ? std::vector<double>{0.0, 2.0}
                 : std::vector<double>{0.0, 10.0, 5.0, 2.0, 1.0};
  for (double interval : intervals) {
    const auto result =
        run_knn(args.seed, cloud_crash(0.7 * clean.total_time), 1.0, interval);
    ckpt.add_row({interval == 0.0 ? std::string("off")
                                  : AsciiTable::num(interval, 0) + " s",
                  AsciiTable::num(result.total_time, 2),
                  AsciiTable::pct(result.total_time / clean.total_time - 1.0, 1),
                  std::to_string(result.total_jobs())});
  }
  std::printf("%s\n",
              ckpt.render("Extension — periodic robj checkpointing vs crash at 70% "
                          "of the run")
                  .c_str());

  // Compound incident: a cloud instance dies *inside* an S3 throttling window
  // (degraded per-connection bandwidth + elevated failure rate), so the
  // re-executed chunks refetch from a store that is itself misbehaving.
  storage::FaultProfile throttled;
  throttled.fail_probability = 0.02;
  throttled.throttles.push_back({/*begin=*/0.3 * clean.total_time,
                                 /*end=*/0.8 * clean.total_time,
                                 /*bandwidth_factor=*/0.25,
                                 /*fail_probability=*/0.08});
  storage::RetryPolicy retry;
  retry.max_attempts = 3;
  retry.backoff_base_seconds = 0.05;

  AsciiTable compound({"scenario", "exec time", "overhead", "faults", "retries",
                       "jobs assigned (96 unique)"});
  struct Scenario {
    const char* name;
    std::vector<NodeEvent> crashes;
    storage::FaultProfile fault;
  };
  const Scenario scenarios[] = {
      {"crash only", cloud_crash(0.5 * clean.total_time), {}},
      {"throttle window only", {}, throttled},
      {"crash inside window", cloud_crash(0.5 * clean.total_time), throttled},
  };
  for (const Scenario& s : scenarios) {
    const auto result = run_knn(args.seed, s.crashes, 1.0, 0.0, s.fault, retry);
    const auto totals = result.totals();
    compound.add_row({s.name, AsciiTable::num(result.total_time, 2),
                      AsciiTable::pct(result.total_time / clean.total_time - 1.0, 1),
                      std::to_string(totals.store_faults),
                      std::to_string(totals.fetch_retries),
                      std::to_string(result.total_jobs())});
  }
  std::printf("%s\n",
              compound.render("Extension — slave crash overlapping an S3 throttling "
                              "window (30-80% of the run, 4x slower GETs, +8% "
                              "failure rate; 3-attempt retry)")
                  .c_str());
  return 0;
}
