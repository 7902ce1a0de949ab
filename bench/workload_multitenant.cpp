// Multi-tenant workload: arrival pattern x inter-job scheduling policy.
//
// Two tenants share one hybrid platform: "interactive" submits small jobs
// with a latency SLO (weight 4, high priority), "batch" submits 4x-larger
// jobs with no deadline (weight 1). The sweep crosses arrival shapes —
// steady Poisson vs synchronized bursts — with the four inter-job policies
// (FIFO / SJF run-to-completion, weighted fair share / priority with
// chunk-granular preemption) and reports what each tenant experienced:
// p50/p95 job latency, SLO hit rate, preemptions, and the tenant's share of
// the single whole-platform bill (attributed shares sum exactly to it).
//
// The headline: under bursty arrivals, FIFO head-of-line blocking wrecks
// the interactive tenant's p95 while fair share keeps it low by time-sharing
// cores at chunk granularity.
//
// Flags: --seed=N (arrival trace seed), --quick (CI smoke subset).
#include "paper_common.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/units.hpp"
#include "workload/workload_manager.hpp"

namespace {

using namespace cloudburst;
using namespace cloudburst::units;

struct Scenario {
  const char* name;
  workload::ArrivalTrace trace;
};

storage::DataLayout make_layout(std::uint64_t bytes, const cluster::Platform& platform) {
  storage::LayoutSpec spec;
  spec.total_bytes = bytes;
  spec.num_files = 8;
  spec.chunks_per_file = 2;
  spec.unit_bytes = 64;
  storage::DataLayout layout = storage::build_layout(spec);
  storage::assign_stores_by_fraction(layout, 0.5, platform.local_store_id(),
                                     platform.cloud_store_id());
  return layout;
}

workload::WorkloadResult run_workload(workload::SchedulingPolicy policy,
                                      const workload::ArrivalTrace& trace,
                                      std::size_t jobs, std::uint64_t seed) {
  cluster::Platform platform(cluster::PlatformSpec::paper_testbed(8, 8));

  middleware::RunOptions options;
  options.profile.name = "workload";
  options.profile.unit_bytes = 64;
  options.profile.bytes_per_second_per_core = MBps(4);
  options.profile.robj_bytes = KiB(64);
  options.random_seed = seed;

  workload::WorkloadOptions wopts;
  wopts.policy = policy;
  wopts.tenant_weights = {{"interactive", 4.0}, {"batch", 1.0}};

  workload::WorkloadManager manager(platform, wopts);
  for (std::size_t i = 0; i < jobs; ++i) {
    workload::JobSpec spec;
    const bool interactive = i % 2 == 0;
    spec.tenant = interactive ? "interactive" : "batch";
    spec.name = spec.tenant[0] + std::to_string(i + 1);
    spec.priority = interactive ? 10 : 0;
    spec.deadline_seconds = interactive ? 60.0 : 0.0;
    spec.layout = make_layout(interactive ? MiB(128) : MiB(512), platform);
    spec.options = options;
    manager.submit(std::move(spec), trace.at(i));
  }
  return manager.run();
}

/// Nearest-rank p95 of one tenant's job latencies.
double tenant_p95(const workload::WorkloadResult& result, const std::string& tenant) {
  std::vector<double> latencies;
  for (const auto& job : result.jobs) {
    if (job.tenant == tenant) latencies.push_back(job.latency_seconds());
  }
  if (latencies.empty()) return 0.0;
  std::sort(latencies.begin(), latencies.end());
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(0.95 * static_cast<double>(latencies.size())));
  if (rank == 0) rank = 1;
  return latencies[std::min(rank, latencies.size()) - 1];
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cloudburst;

  const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
  const std::size_t jobs = args.quick ? 6 : 12;

  // Bursts of six jobs half a second apart (three interactive interleaved
  // with three batch): the head-of-line-blocking stress case for FIFO.
  const Scenario scenarios[] = {
      {"poisson", workload::ArrivalTrace::poisson(jobs, 0.05, args.seed)},
      {"bursty", workload::ArrivalTrace::bursty((jobs + 5) / 6, 6, 400.0, 0.5)},
  };
  const workload::SchedulingPolicy policies[] = {
      workload::SchedulingPolicy::Fifo, workload::SchedulingPolicy::Sjf,
      workload::SchedulingPolicy::FairShare, workload::SchedulingPolicy::Priority};

  double fifo_bursty_p95 = 0.0, fair_bursty_p95 = 0.0;

  AsciiTable table({"arrivals", "policy", "makespan", "p50 lat", "p95 lat", "int p95",
                    "SLO rate", "preempts", "interactive $", "batch $", "platform $"});
  for (const Scenario& scenario : scenarios) {
    for (workload::SchedulingPolicy policy : policies) {
      const auto result = run_workload(policy, scenario.trace, jobs, args.seed);
      bench::require_bills("workload_multitenant", result);

      // Per-tenant attribution must partition the platform bill exactly.
      double attributed = 0.0;
      for (const auto& job : result.jobs) {
        attributed += job.attributed_cost.instance_usd + job.attributed_cost.requests_usd +
                      job.attributed_cost.transfer_usd + job.attributed_cost.storage_usd;
      }
      const double platform_usd = result.platform_cost.total_usd();
      if (std::abs(attributed - platform_usd) > 1e-9) {
        std::fprintf(stderr, "attribution mismatch: %.12f vs %.12f\n", attributed,
                     platform_usd);
        return 1;
      }

      const double int_p95 = tenant_p95(result, "interactive");
      if (std::string(scenario.name) == "bursty") {
        if (policy == workload::SchedulingPolicy::Fifo) fifo_bursty_p95 = int_p95;
        if (policy == workload::SchedulingPolicy::FairShare) fair_bursty_p95 = int_p95;
      }
      const auto* interactive = result.tenant("interactive");
      const auto* batch = result.tenant("batch");
      table.add_row({scenario.name, workload::to_string(policy),
                     AsciiTable::num(result.makespan, 1),
                     AsciiTable::num(result.p50_latency_seconds, 1),
                     AsciiTable::num(result.p95_latency_seconds, 1),
                     AsciiTable::num(int_p95, 1),
                     AsciiTable::pct(result.slo_hit_rate, 0),
                     std::to_string(result.preemptions),
                     AsciiTable::num(interactive ? interactive->attributed_cost.total_usd() : 0.0, 4),
                     AsciiTable::num(batch ? batch->attributed_cost.total_usd() : 0.0, 4),
                     AsciiTable::num(platform_usd, 4)});
    }
    table.add_separator();
  }
  std::printf("%s\n", table.render("Multi-tenant workload — arrival pattern x "
                                   "inter-job policy (interactive: small jobs, 60 s "
                                   "SLO, weight 4; batch: 4x jobs, weight 1)")
                          .c_str());
  std::printf(
      "finding: bursty interactive p95 = %.1f s under FIFO vs %.1f s under fair "
      "share (%.1fx):\nrun-to-completion queueing behind 4x batch jobs dominates "
      "the interactive tail;\nchunk-granular fair sharing admits everyone and the "
      "interactive tenant's weight\nkeeps its jobs fast. Every row's per-tenant "
      "dollars sum exactly to the single\nplatform bill.\n",
      fifo_bursty_p95, fair_bursty_p95,
      fair_bursty_p95 > 0.0 ? fifo_bursty_p95 / fair_bursty_p95 : 0.0);
  return fair_bursty_p95 < fifo_bursty_p95 ? 0 : 1;
}
