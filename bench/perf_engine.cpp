// Engine performance benchmark: the canonical large-fleet workload.
//
// Every other bench reproduces a paper artifact; this one measures the
// simulator itself. It runs one canonical workload — a 500-node three-site
// fleet (local + two cloud providers), 50 multi-tenant jobs totalling 100k
// chunks, with the site caches, store-fault/retry machinery, and node
// lifecycle (periodic checkpoints + stochastic spot reclamation) all
// enabled — and reports the DES kernel's throughput: executed events per
// wall-clock second, total wall time, and peak RSS, plus the DES churn:
// events scheduled and cancelled, and schedules per executed event.
//
// The run itself is fully deterministic (same seed => same simulated
// makespan and event count); only the wall-clock side varies with the host.
// It also reports the flow solver's deterministic work counters
// (net::Network::stats(): solves, flows and flow classes per solve,
// water-filling rounds, re-rated flows, replayed settle steps). Results are
// emitted to BENCH_engine.json for the CI regression gate
// (tools/check_bench_regression.py compares events/sec against the
// committed baseline in bench/baselines/); CI also diffs the event and
// solver-counter rows of the quick run against
// bench/golden/perf_engine_counts_quick.txt.
//
// Flags: --seed=N, --quick (40-node smoke fleet for CI; same code paths).
#include "paper_common.hpp"

#include <sys/resource.h>

#include <chrono>
#include <cinttypes>

#include "cache/chunk_cache.hpp"
#include "common/units.hpp"
#include "workload/workload_manager.hpp"

namespace {

using namespace cloudburst;
using namespace cloudburst::units;

struct FleetConfig {
  bool quick = false;
  std::uint64_t seed = 42;

  // Full: 100 local nodes (8 cores) + 2x200 cloud nodes (2 cores) = 500
  // nodes; 50 jobs x 2000 chunks = 100k chunks. Quick: a 40-node / 8-job /
  // 16k-chunk smoke version of the same shape.
  unsigned local_cores() const { return quick ? 64 : 800; }
  unsigned cloud_cores() const { return quick ? 32 : 400; }  // per provider
  std::size_t jobs() const { return quick ? 8 : 50; }
  std::uint64_t files_per_job() const { return quick ? 40 : 40; }
  std::uint64_t chunks_per_file() const { return quick ? 50 : 50; }
  std::uint64_t chunks_per_job() const { return files_per_job() * chunks_per_file(); }
};

cluster::PlatformSpec fleet_spec(const FleetConfig& cfg) {
  cluster::PlatformSpec spec;
  spec.sites.push_back(cluster::PlatformSpec::paper_local_site(cfg.local_cores()));
  spec.sites.push_back(cluster::PlatformSpec::paper_cloud_site(cfg.cloud_cores(), "cloudA"));
  spec.sites.push_back(cluster::PlatformSpec::paper_cloud_site(cfg.cloud_cores(), "cloudB"));
  spec.wan_bandwidth = MBps(125);
  spec.wan_latency = des::from_seconds(ms(25));
  spec.set_wan(1, 2, MBps(80), des::from_seconds(ms(40)));
  spec.node_speed_jitter = 0.03;

  // Both object stores run degraded: a low background GET failure rate plus
  // an early throttling storm, so the retry/backoff/hedge paths stay hot.
  for (cluster::ClusterId provider : {1u, 2u}) {
    storage::FaultProfile& fault = spec.store(provider).fault;
    fault.fail_probability = 0.01;
    fault.throttles.push_back({5.0, 20.0, 0.5, 0.05});
    fault.seed = cfg.seed ^ (0xfa017u + provider);
  }
  return spec;
}

storage::DataLayout job_layout(const FleetConfig& cfg, const cluster::Platform& platform) {
  storage::LayoutSpec spec;
  spec.num_files = cfg.files_per_job();
  spec.chunks_per_file = cfg.chunks_per_file();
  spec.unit_bytes = 64;
  spec.total_bytes = cfg.chunks_per_job() * KiB(256);
  storage::DataLayout layout = storage::build_layout(spec);
  assign_stores_by_weights(layout, {0.2, 0.4, 0.4},
                           {platform.store_of_cluster(0), platform.store_of_cluster(1),
                            platform.store_of_cluster(2)});
  return layout;
}

middleware::RunOptions job_options(const FleetConfig& cfg, std::size_t job_index,
                                   cache::CacheFleet* fleet) {
  middleware::RunOptions o;
  o.profile.name = "perf";
  o.profile.unit_bytes = 64;
  o.profile.bytes_per_second_per_core = MBps(8);
  o.profile.robj_bytes = KiB(64);
  o.random_seed = cfg.seed + job_index;
  o.retrieval_streams = 4;
  o.cache = fleet;

  // Store-fault client side: bounded retries with a timeout and a late
  // hedge, so degraded GETs spawn the full retry event machinery.
  o.retry.max_attempts = 3;
  o.retry.backoff_base_seconds = 0.05;
  o.retry.attempt_timeout_seconds = 20.0;
  o.retry.hedge_delay_seconds = 10.0;
  o.retry.seed = cfg.seed ^ 0xbac0ff;

  // Node lifecycle: direct reduction with periodic checkpoints, stochastic
  // spot reclamation on the cloud fleets, and a scheduled drain / reclaim
  // on a few jobs for the deterministic flavor of node loss.
  o.reduction_tree = false;
  o.checkpoint_interval_seconds = 2.0;
  o.spot.reclaim_rate_per_hour = 1.0;
  o.spot.notice_seconds = 5.0;
  if (job_index % 10 == 3) {
    middleware::RunOptions::LifecycleEvent ev;
    ev.kind = middleware::RunOptions::LifecycleEvent::Kind::Drain;
    ev.site = 1;
    ev.node_index = static_cast<std::uint32_t>(job_index % 5);
    ev.at_seconds = 2.0;
    o.lifecycle.push_back(ev);
  }
  if (job_index % 10 == 7) {
    middleware::RunOptions::LifecycleEvent ev;
    ev.kind = middleware::RunOptions::LifecycleEvent::Kind::SpotReclaim;
    ev.site = 2;
    ev.node_index = static_cast<std::uint32_t>(job_index % 5);
    ev.at_seconds = 1.5;
    ev.notice_seconds = 3.0;
    o.lifecycle.push_back(ev);
  }
  return o;
}

std::uint64_t peak_rss_bytes() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  // Linux reports ru_maxrss in KiB.
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cloudburst;

  const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
  FleetConfig cfg;
  cfg.quick = args.quick;
  cfg.seed = args.seed;

  cluster::Platform platform(fleet_spec(cfg));

  // One shared cache fleet: every job describes the same dataset, so chunk
  // ids key the same contents and cross-job hits are real.
  cache::CacheConfig cache_config;
  cache_config.capacity_bytes = GiB(2);
  cache_config.policy = cache::EvictionPolicy::Lru;
  cache_config.prefetch.enabled = true;
  cache_config.prefetch.depth = 2;
  cache::CacheFleet fleet(cache_config);

  workload::WorkloadOptions wopts;
  wopts.policy = workload::SchedulingPolicy::FairShare;
  wopts.tenant_weights = {{"interactive", 4.0}, {"batch", 1.0}};
  wopts.max_concurrent = cfg.quick ? 4 : 6;

  const storage::DataLayout layout = job_layout(cfg, platform);
  const workload::ArrivalTrace arrivals =
      workload::ArrivalTrace::poisson(cfg.jobs(), 0.5, cfg.seed);

  workload::WorkloadManager manager(platform, wopts);
  for (std::size_t i = 0; i < cfg.jobs(); ++i) {
    workload::JobSpec spec;
    spec.tenant = i % 2 == 0 ? "interactive" : "batch";
    spec.name = spec.tenant[0] + std::to_string(i + 1);
    spec.layout = layout;
    spec.options = job_options(cfg, i, &fleet);
    manager.submit(std::move(spec), arrivals.at(i));
  }

  const auto wall_start = std::chrono::steady_clock::now();
  const workload::WorkloadResult result = manager.run();
  const auto wall_end = std::chrono::steady_clock::now();

  const double wall_seconds =
      std::chrono::duration<double>(wall_end - wall_start).count();
  const std::uint64_t events = platform.sim().executed_events();
  const std::uint64_t scheduled = platform.sim().scheduled_events();
  const std::uint64_t cancelled = platform.sim().cancelled_events();
  const double schedules_per_event =
      events > 0 ? static_cast<double>(scheduled) / static_cast<double>(events) : 0.0;
  const double events_per_sec =
      wall_seconds > 0.0 ? static_cast<double>(events) / wall_seconds : 0.0;
  const std::uint64_t rss = peak_rss_bytes();
  const std::uint64_t total_chunks = cfg.chunks_per_job() * cfg.jobs();
  const std::size_t nodes = platform.total_nodes();
  const net::Network::Stats& solver = platform.network().stats();
  const auto per_solve = [&solver](std::uint64_t total) {
    return solver.solves > 0
               ? static_cast<double>(total) / static_cast<double>(solver.solves)
               : 0.0;
  };

  std::uint32_t reclaimed = 0, vacated = 0, checkpoints = 0;
  for (const auto& job : result.jobs) {
    reclaimed += job.run.lifecycle.nodes_reclaimed;
    vacated += job.run.lifecycle.nodes_vacated;
    checkpoints += job.run.lifecycle.checkpoint_flushes;
  }

  AsciiTable table({"metric", "value"});
  table.add_row({"mode", cfg.quick ? "quick" : "full"});
  table.add_row({"fleet nodes", std::to_string(nodes)});
  table.add_row({"jobs", std::to_string(cfg.jobs())});
  table.add_row({"chunks (total)", std::to_string(total_chunks)});
  table.add_row({"cache hits", std::to_string(fleet.hits())});
  table.add_row({"nodes vacated/reclaimed", std::to_string(vacated) + "/" +
                                                std::to_string(reclaimed)});
  table.add_row({"checkpoints flushed", std::to_string(checkpoints)});
  table.add_row({"sim makespan", AsciiTable::num(result.makespan, 1) + " s"});
  table.add_row({"executed events", std::to_string(events)});
  table.add_row({"scheduled / cancelled events",
                 std::to_string(scheduled) + " / " + std::to_string(cancelled)});
  table.add_row({"schedules per event", AsciiTable::num(schedules_per_event, 3)});
  table.add_row({"net solves", std::to_string(solver.solves)});
  table.add_row({"net flows / classes per solve",
                 AsciiTable::num(per_solve(solver.component_flows), 2) + " / " +
                     AsciiTable::num(per_solve(solver.component_classes), 2)});
  table.add_row({"net filling rounds", std::to_string(solver.filling_rounds)});
  table.add_row({"net re-rated flows", std::to_string(solver.rerated_flows)});
  table.add_row({"net replayed settle steps", std::to_string(solver.replayed_steps)});
  table.add_row({"wall clock", AsciiTable::num(wall_seconds, 2) + " s"});
  table.add_row({"events/sec", AsciiTable::num(events_per_sec, 0)});
  table.add_row({"peak RSS", units::format_bytes(rss)});
  std::printf("%s\n", table.render("Engine performance — canonical fleet workload "
                                   "(DES kernel throughput)")
                          .c_str());

  const char* out_path = "BENCH_engine.json";
  if (std::FILE* out = std::fopen(out_path, "w")) {
    std::fprintf(out,
                 "{\n"
                 "  \"bench\": \"perf_engine\",\n"
                 "  \"mode\": \"%s\",\n"
                 "  \"seed\": %" PRIu64 ",\n"
                 "  \"fleet_nodes\": %zu,\n"
                 "  \"jobs\": %zu,\n"
                 "  \"chunks_total\": %" PRIu64 ",\n"
                 "  \"sim_makespan_seconds\": %.6f,\n"
                 "  \"executed_events\": %" PRIu64 ",\n"
                 "  \"scheduled_events\": %" PRIu64 ",\n"
                 "  \"cancelled_events\": %" PRIu64 ",\n"
                 "  \"schedules_per_event\": %.6f,\n"
                 "  \"net_solves\": %" PRIu64 ",\n"
                 "  \"net_component_flows\": %" PRIu64 ",\n"
                 "  \"net_component_classes\": %" PRIu64 ",\n"
                 "  \"net_filling_rounds\": %" PRIu64 ",\n"
                 "  \"net_rerated_flows\": %" PRIu64 ",\n"
                 "  \"net_replayed_steps\": %" PRIu64 ",\n"
                 "  \"wall_seconds\": %.6f,\n"
                 "  \"events_per_sec\": %.1f,\n"
                 "  \"peak_rss_bytes\": %" PRIu64 "\n"
                 "}\n",
                 cfg.quick ? "quick" : "full", cfg.seed, nodes, cfg.jobs(),
                 total_chunks, result.makespan, events, scheduled, cancelled,
                 schedules_per_event, solver.solves, solver.component_flows,
                 solver.component_classes, solver.filling_rounds, solver.rerated_flows,
                 solver.replayed_steps, wall_seconds,
                 events_per_sec, rss);
    std::fclose(out);
    std::printf("wrote %s\n", out_path);
  } else {
    std::fprintf(stderr, "perf_engine: cannot write %s\n", out_path);
    return 1;
  }

  // Self-check: the canonical workload must actually exercise the machinery
  // it claims to (cache, faults, lifecycle) — a silent config regression
  // would turn this into a trivial benchmark.
  if (fleet.hits() == 0) {
    std::fprintf(stderr, "perf_engine: cache never hit — config regression?\n");
    return 1;
  }
  if (events == 0 || result.jobs.size() != cfg.jobs()) {
    std::fprintf(stderr, "perf_engine: workload did not complete\n");
    return 1;
  }
  return 0;
}
