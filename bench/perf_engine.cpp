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
// The fleet is apps::make_fleet (src/apps/scenarios.hpp). It exits non-zero
// when the workload does not exercise its machinery or the per-job bills do
// not sum to the platform bill.
//
// Flags: --seed=N, --quick (40-node smoke fleet for CI; same code paths).
#include "paper_common.hpp"

#include <sys/resource.h>

#include <chrono>
#include <cinttypes>

#include "apps/scenarios.hpp"
#include "common/units.hpp"
#include "workload/workload_manager.hpp"

namespace {

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
  // Full: 100 local nodes (8 cores) + 2x200 cloud nodes (2 cores) = 500
  // nodes; 50 jobs x 2000 chunks = 100k chunks. Quick: a 40-node / 8-job /
  // 16k-chunk smoke version of the same shape.
  apps::FleetParams params;
  if (args.quick) {
    params.nodes = 40;
    params.jobs = 8;
    params.max_concurrent = 4;
  }
  params.fault_seed = args.seed;
  params.arrival_seed = args.seed;
  const apps::Fleet scenario = apps::make_fleet(params);

  cluster::Platform platform(scenario.spec);
  // One shared cache fleet: every job describes the same dataset, so chunk
  // ids key the same contents and cross-job hits are real.
  cache::CacheFleet fleet(scenario.cache_config);
  workload::WorkloadManager manager(platform, scenario.options);
  manager.submit_all(scenario.jobs(platform, &fleet), scenario.arrivals);

  const auto wall_start = std::chrono::steady_clock::now();
  const workload::WorkloadResult result = manager.run();
  const auto wall_end = std::chrono::steady_clock::now();
  bench::require_bills("perf_engine", result);

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
  const std::uint64_t total_chunks = scenario.chunks_per_job * params.jobs;
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
  table.add_row({"mode", args.quick ? "quick" : "full"});
  table.add_row({"fleet nodes", std::to_string(nodes)});
  table.add_row({"jobs", std::to_string(params.jobs)});
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
                 args.quick ? "quick" : "full", args.seed, nodes, params.jobs,
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
  if (events == 0 || result.jobs.size() != params.jobs) {
    std::fprintf(stderr, "perf_engine: workload did not complete\n");
    return 1;
  }
  return 0;
}
