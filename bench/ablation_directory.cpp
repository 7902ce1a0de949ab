// Ablation: dynamic control plane — shared node pool vs per-job elastic
// controllers, and mid-run capacity arrival / retirement.
//
// Two scenarios:
//
//   A. Bursty multi-tenant arrival — two tenants submit two bursts of jobs
//      with a long quiet gap between them. The baseline gives every job its
//      own elastic controller (one warm instance, boots the rest on demand);
//      the pool arm routes the same jobs through the WorkloadManager's
//      shared node pool (directory-backed, lease-granular billing, idle
//      reap). The pool must strictly beat the per-job controllers on BOTH
//      boot-window idle time (warm nodes are re-leased, not re-booted) and
//      dollars (idle reap stops billing across the gap; per-minute quanta
//      meter the lease windows).
//
//   B. Mid-run capacity arrival and retirement — a platform with two
//      offline cloud nodes runs a concurrent pooled workload; mid-run a
//      node is drained *across jobs* (directory begin_node_retirement) and
//      the offline capacity registers and serves later jobs. Every job must
//      finish, the retirement must complete, the late capacity must get
//      leases, and the cross-job drain must lose zero completed work
//      (no chunk is re-executed).
//
// Emits BENCH_directory.json and exits non-zero when a self-check fails or a
// workload's per-job bills do not sum to its platform bill.
#include "paper_common.hpp"

#include <cinttypes>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "cost/pricing.hpp"
#include "directory/platform_directory.hpp"
#include "storage/data_layout.hpp"
#include "trace/trace.hpp"
#include "workload/workload_manager.hpp"

namespace {

using namespace cloudburst;
using namespace cloudburst::units;

middleware::RunOptions burst_job_options(std::uint64_t seed) {
  middleware::RunOptions options;
  options.profile.name = "directory";
  options.profile.unit_bytes = 64;
  options.profile.bytes_per_second_per_core = MBps(1);  // compute-bound
  options.profile.robj_bytes = KiB(64);
  options.random_seed = seed;
  options.reduction_tree = false;  // both pool and elastic modes require it
  return options;
}

storage::DataLayout burst_layout(cluster::Platform& platform, bool quick) {
  storage::LayoutSpec spec;
  spec.total_bytes = quick ? MiB(96) : MiB(384);
  spec.num_files = quick ? 12 : 48;
  spec.chunks_per_file = 2;
  spec.unit_bytes = 64;
  storage::DataLayout layout = storage::build_layout(spec);
  storage::assign_stores_by_fraction(layout, 0.5, platform.local_store_id(),
                                     platform.cloud_store_id());
  return layout;
}

// --- scenario A: bursty multi-tenant arrival ---------------------------------

struct BurstOutcome {
  double boot_wait_seconds = 0.0;  ///< node-seconds rented but still booting
  double platform_usd = 0.0;
  double makespan = 0.0;
  std::uint32_t activations = 0;  ///< baseline: per-job controller boots
  workload::NodePool::Stats pool;
};

std::vector<double> burst_arrivals(bool quick) {
  // Two bursts of three jobs, a long quiet gap between them: the shape that
  // punishes controllers which re-boot (and keep billing) per job.
  const double gap = quick ? 1200.0 : 2400.0;
  workload::ArrivalTrace trace = workload::ArrivalTrace::bursty(
      /*bursts=*/2, /*jobs_per_burst=*/3, /*burst_gap_seconds=*/gap,
      /*intra_gap_seconds=*/2.0);
  return trace.times;
}

BurstOutcome run_burst(bool pooled, bool quick, std::uint64_t seed) {
  cluster::Platform platform(cluster::PlatformSpec::paper_testbed(8, 8));
  const storage::DataLayout layout = burst_layout(platform, quick);
  const std::size_t cloud_nodes = platform.nodes(cluster::kCloudSite).size();
  const double boot_seconds = 60.0;

  directory::PlatformDirectory dir(platform);
  if (pooled) dir.bootstrap();

  trace::Tracer tracer;
  workload::WorkloadOptions wopts;
  wopts.policy = workload::SchedulingPolicy::Fifo;
  wopts.tracer = &tracer;
  // Lease-granular billing for both arms: per-minute quanta, 2011 rates.
  wopts.pricing = cost::CloudPricing::aws_2011_per_minute();
  if (pooled) {
    wopts.directory = &dir;
    wopts.pool.enabled = true;
    wopts.pool.boot_seconds = boot_seconds;
    wopts.pool.idle_reap_seconds = 120.0;
  }
  workload::WorkloadManager manager(platform, wopts);

  const std::vector<double> arrivals = burst_arrivals(quick);
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    workload::JobSpec job;
    job.name = "j";
    job.name += std::to_string(i + 1);
    job.tenant = i % 2 == 0 ? "analytics" : "reports";
    job.layout = layout;
    job.options = burst_job_options(seed + i);
    if (!pooled) {
      // Per-job controller: one warm instance, boots the rest on demand.
      job.options.elastic.enabled = true;
      job.options.elastic.deadline_seconds = 1.0;  // always behind: burst now
      job.options.elastic.initial_cloud_nodes = 1;
      job.options.elastic.check_interval_seconds = 5.0;
      job.options.elastic.boot_seconds = boot_seconds;
      job.options.elastic.activation_step =
          static_cast<std::uint32_t>(cloud_nodes);
    }
    manager.submit(std::move(job), arrivals[i]);
  }
  const workload::WorkloadResult result = manager.run();
  bench::require_bills("ablation_directory", result);

  BurstOutcome out;
  out.platform_usd = result.platform_cost.total_usd();
  out.makespan = result.makespan;
  out.activations = result.elastic_activations;
  out.pool = result.pool;
  // Boot-window idle time: rented-but-booting node-seconds. The pool reports
  // it per lease; a per-job controller pays one boot window per activation.
  out.boot_wait_seconds =
      pooled ? result.pool.boot_wait_seconds
             : static_cast<double>(result.elastic_activations) * boot_seconds;
  return out;
}

// --- scenario B: capacity arrival + cross-job retirement ---------------------

struct DynamicOutcome {
  bool completed = false;        ///< every job finished
  bool retired = false;          ///< the drained node left the directory
  std::uint32_t jobs = 0;
  std::uint32_t chunks_reexecuted = 0;
  std::uint64_t bytes_reexecuted = 0;
  std::uint32_t nodes_vacated = 0;
  std::uint64_t new_node_leases = 0;  ///< leases granted on late capacity
  double makespan = 0.0;
};

DynamicOutcome run_dynamic(bool quick, std::uint64_t seed) {
  cluster::PlatformSpec spec = cluster::PlatformSpec::paper_testbed(8, 8);
  // Two extra cloud nodes exist in the fabric but are offline at bootstrap —
  // they join the platform mid-run through the directory.
  cluster::NodeSpec late = spec.cloud().nodes.back();
  late.offline = true;
  spec.cloud().nodes.push_back(late);
  spec.cloud().nodes.push_back(late);
  cluster::Platform platform(spec);
  const auto& cloud = platform.nodes(cluster::kCloudSite);
  const std::uint32_t first_late =
      static_cast<std::uint32_t>(cloud.size()) - 2;

  directory::PlatformDirectory dir(platform);
  trace::Tracer tracer;
  dir.set_tracer(&tracer);
  dir.bootstrap();

  workload::WorkloadOptions wopts;
  wopts.policy = workload::SchedulingPolicy::FairShare;
  wopts.tracer = &tracer;
  wopts.pricing = cost::CloudPricing::aws_2011_per_minute();
  wopts.directory = &dir;
  wopts.pool.enabled = true;
  wopts.pool.boot_seconds = 30.0;
  workload::WorkloadManager manager(platform, wopts);

  // Fixed size in both modes (the scenario is fast either way); slow cores
  // so the first wave is still computing when the t=45 s drain lands.
  storage::LayoutSpec lspec;
  lspec.total_bytes = MiB(96);
  lspec.num_files = 24;
  lspec.chunks_per_file = 2;
  lspec.unit_bytes = 64;
  storage::DataLayout layout = storage::build_layout(lspec);
  storage::assign_stores_by_fraction(layout, 0.5, platform.local_store_id(),
                                     platform.cloud_store_id());
  (void)quick;
  const double second_wave = 120.0;
  for (std::size_t i = 0; i < 4; ++i) {
    workload::JobSpec job;
    job.name = "d";
    job.name += std::to_string(i + 1);
    job.tenant = i % 2 == 0 ? "analytics" : "reports";
    job.layout = layout;
    job.options = burst_job_options(seed + 100 + i);
    job.options.profile.bytes_per_second_per_core = KiB(128);
    manager.submit(std::move(job), i < 2 ? 0.0 : second_wave);
  }

  // t=45 s: retire a node the first-wave jobs are computing on. The manager
  // drains it across both jobs; the drain must lose no completed work.
  platform.sim().schedule(des::from_seconds(45.0), [&dir] {
    dir.begin_node_retirement(cluster::kCloudSite, 0);
  });
  // t=90 s: the offline capacity arrives; second-wave jobs lease it.
  platform.sim().schedule(des::from_seconds(90.0), [&dir, first_late] {
    dir.register_node(cluster::kCloudSite, first_late);
    dir.register_node(cluster::kCloudSite, first_late + 1);
  });

  const workload::WorkloadResult result = manager.run();
  bench::require_bills("ablation_directory", result);

  DynamicOutcome out;
  out.completed = true;  // run() throws on a deadlocked workload
  out.jobs = static_cast<std::uint32_t>(result.jobs.size());
  out.makespan = result.makespan;
  out.retired = dir.node_state(cluster::kCloudSite, 0) ==
                directory::ServiceState::Retired;
  for (const auto& job : result.jobs) {
    out.chunks_reexecuted += job.run.lifecycle.chunks_reexecuted;
    out.bytes_reexecuted += job.run.lifecycle.bytes_reexecuted;
    out.nodes_vacated += job.run.lifecycle.nodes_vacated;
  }
  for (const auto& e : tracer.events()) {
    if (e.kind != trace::EventKind::LeaseGranted) continue;
    if (e.actor == cloud[first_late].name || e.actor == cloud[first_late + 1].name) {
      ++out.new_node_leases;
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);

  const BurstOutcome baseline = run_burst(/*pooled=*/false, args.quick, args.seed);
  const BurstOutcome pooled = run_burst(/*pooled=*/true, args.quick, args.seed);
  const DynamicOutcome dynamic = run_dynamic(args.quick, args.seed);

  const double wait_saving =
      baseline.boot_wait_seconds > 0.0
          ? 1.0 - pooled.boot_wait_seconds / baseline.boot_wait_seconds
          : 0.0;
  const double usd_saving = baseline.platform_usd > 0.0
                                ? 1.0 - pooled.platform_usd / baseline.platform_usd
                                : 0.0;

  AsciiTable table({"config", "boot wait s", "platform $", "makespan",
                    "cold boots", "warm leases", "reaps"});
  table.add_row({"A: per-job controllers",
                 AsciiTable::num(baseline.boot_wait_seconds, 0),
                 AsciiTable::num(baseline.platform_usd, 3),
                 AsciiTable::num(baseline.makespan, 1),
                 std::to_string(baseline.activations), "-", "-"});
  table.add_row({"A: shared node pool",
                 AsciiTable::num(pooled.boot_wait_seconds, 0),
                 AsciiTable::num(pooled.platform_usd, 3),
                 AsciiTable::num(pooled.makespan, 1),
                 std::to_string(pooled.pool.cold_boots),
                 std::to_string(pooled.pool.warm_leases),
                 std::to_string(pooled.pool.reaps)});
  table.add_row({"B: arrive+retire mid-run", "-", "-",
                 AsciiTable::num(dynamic.makespan, 1), "-",
                 std::to_string(dynamic.new_node_leases),
                 std::to_string(dynamic.nodes_vacated)});
  std::printf("%s\n",
              table.render("Ablation — dynamic control plane (A: shared pool vs "
                           "per-job elastic controllers under bursty arrival; "
                           "B: mid-run capacity arrival + cross-job retirement)")
                  .c_str());

  const char* out_path = "BENCH_directory.json";
  if (std::FILE* out = std::fopen(out_path, "w")) {
    std::fprintf(
        out,
        "{\n"
        "  \"bench\": \"ablation_directory\",\n"
        "  \"mode\": \"%s\",\n"
        "  \"seed\": %" PRIu64 ",\n"
        "  \"burst\": {\n"
        "    \"baseline\": {\"boot_wait_seconds\": %.1f, \"platform_usd\": %.4f,\n"
        "      \"makespan\": %.3f, \"activations\": %u},\n"
        "    \"pool\": {\"boot_wait_seconds\": %.1f, \"platform_usd\": %.4f,\n"
        "      \"makespan\": %.3f, \"cold_boots\": %u, \"warm_leases\": %u,\n"
        "      \"reaps\": %u},\n"
        "    \"savings\": {\"boot_wait_fraction\": %.4f, \"usd_fraction\": %.4f}\n"
        "  },\n"
        "  \"dynamic\": {\"jobs\": %u, \"chunks_reexecuted\": %u,\n"
        "    \"bytes_reexecuted\": %" PRIu64 ", \"nodes_vacated\": %u,\n"
        "    \"new_node_leases\": %" PRIu64 ", \"retired\": %s,\n"
        "    \"makespan\": %.3f}\n"
        "}\n",
        args.quick ? "quick" : "full", args.seed, baseline.boot_wait_seconds,
        baseline.platform_usd, baseline.makespan, baseline.activations,
        pooled.boot_wait_seconds, pooled.platform_usd, pooled.makespan,
        pooled.pool.cold_boots, pooled.pool.warm_leases, pooled.pool.reaps,
        wait_saving, usd_saving, dynamic.jobs, dynamic.chunks_reexecuted,
        dynamic.bytes_reexecuted, dynamic.nodes_vacated,
        dynamic.new_node_leases, dynamic.retired ? "true" : "false",
        dynamic.makespan);
    std::fclose(out);
    std::printf("wrote %s\n", out_path);
  } else {
    std::fprintf(stderr, "ablation_directory: cannot write %s\n", out_path);
    return 1;
  }

  // Self-check A: the shared pool must strictly beat per-job controllers on
  // boot-window idle time AND dollars, and must actually have shared (warm
  // leases) and reaped (idle gap) to do it.
  if (pooled.boot_wait_seconds >= baseline.boot_wait_seconds) {
    std::fprintf(stderr,
                 "ablation_directory: pool boot wait %.0f s did not beat "
                 "per-job controllers (%.0f s)\n",
                 pooled.boot_wait_seconds, baseline.boot_wait_seconds);
    return 1;
  }
  if (pooled.platform_usd >= baseline.platform_usd) {
    std::fprintf(stderr,
                 "ablation_directory: pool cost $%.4f did not beat per-job "
                 "controllers ($%.4f)\n",
                 pooled.platform_usd, baseline.platform_usd);
    return 1;
  }
  if (pooled.pool.warm_leases == 0) {
    std::fprintf(stderr, "ablation_directory: pool never re-leased a warm node\n");
    return 1;
  }
  if (pooled.pool.reaps == 0) {
    std::fprintf(stderr, "ablation_directory: pool never reaped an idle node\n");
    return 1;
  }

  // Self-check B: the mid-run scenario must complete with the retirement
  // settled, the late capacity actually leased, and zero completed work lost.
  if (!dynamic.completed || dynamic.jobs != 4) {
    std::fprintf(stderr, "ablation_directory: dynamic scenario did not finish\n");
    return 1;
  }
  if (!dynamic.retired) {
    std::fprintf(stderr,
                 "ablation_directory: cross-job drain never completed the "
                 "node retirement\n");
    return 1;
  }
  if (dynamic.nodes_vacated == 0) {
    std::fprintf(stderr, "ablation_directory: no job vacated the drained node\n");
    return 1;
  }
  if (dynamic.chunks_reexecuted != 0 || dynamic.bytes_reexecuted != 0) {
    std::fprintf(stderr,
                 "ablation_directory: cross-job drain lost completed work "
                 "(%u chunks / %" PRIu64 " bytes re-executed)\n",
                 dynamic.chunks_reexecuted, dynamic.bytes_reexecuted);
    return 1;
  }
  if (dynamic.new_node_leases == 0) {
    std::fprintf(stderr,
                 "ablation_directory: mid-run registered capacity was never "
                 "leased\n");
    return 1;
  }
  return 0;
}
