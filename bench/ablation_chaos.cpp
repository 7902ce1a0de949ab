// Ablation: region failover under a scripted chaos plan.
//
// The east/west platform (the paper's local cluster plus two cloud regions)
// runs a marker-dataset job through the WorkloadManager's elastic pool while
// a ChaosPlan blacks out the "west" region mid-run — slaves killed, store
// dark, in-flight flows cancelled, directory retirement, master evacuated.
// Three arms:
//
//   clean       — no chaos, no replication: the reference makespan.
//   replicated  — k=2 cross-site replication + retry: the blackout must cost
//                 only a bounded makespan inflation, lose zero completed
//                 work (exactly-once at the head), keep per-tenant bills
//                 summing exactly to the platform bill, and leave replica
//                 coverage restorable by repair.
//   baseline    — the same blackout without replication: the west-resident
//                 third of the data is unreachable until the site recovers,
//                 so the run demonstrably degrades (makespan stretches to
//                 the outage window's end).
//
// The marker dataset tags every unit with its chunk id, so the head's final
// reduction object *is* the per-chunk execution count — chaos::audit_*
// consumes it directly. Emits BENCH_chaos.json and exits non-zero when a
// self-check fails.
#include "paper_common.hpp"

#include <cinttypes>
#include <cstdint>
#include <string>

#include "apps/scenarios.hpp"
#include "chaos/chaos.hpp"
#include "directory/platform_directory.hpp"
#include "replica/replica_set.hpp"
#include "trace/trace.hpp"
#include "workload/workload_manager.hpp"

namespace {

using namespace cloudburst;

struct ArmOutcome {
  double makespan = 0.0;
  std::uint32_t lost_chunks = 0;       ///< executed 0 times: completed work lost
  std::uint32_t duplicated_chunks = 0; ///< executed > 1 times (or partial merge)
  std::uint32_t chunks_reexecuted = 0;
  std::uint32_t replicas_lost = 0;
  std::uint32_t replicas_repaired = 0;
  std::uint32_t slaves_failed = 0;
  std::uint32_t site_outages = 0;
  std::uint32_t site_recoveries = 0;
  bool coverage_ok = true;
  std::string detail;
};

/// One pooled workload run over the east/west platform. The chaos plan and
/// replication are the only knobs; everything else (data, seed, pool) is
/// shared so the arms differ by exactly one design decision.
ArmOutcome run_arm(apps::MarkerData& marker, bool replicated, const chaos::ChaosPlan* plan,
                   std::uint64_t seed) {
  cluster::Platform platform(apps::east_west_spec(8, 4));
  apps::spread_evenly(marker.layout, platform);
  directory::PlatformDirectory dir(platform);
  dir.bootstrap();
  replica::ReplicaSet rs{apps::cross_site_replication()};

  trace::Tracer tracer;
  workload::WorkloadOptions wopts = apps::failover_workload_options(dir);
  wopts.tracer = &tracer;
  workload::WorkloadManager manager(platform, wopts);

  workload::JobSpec spec;
  spec.name = "failover";
  spec.tenant = "acme";
  spec.layout = marker.layout;
  spec.options = apps::failover_run_options(marker, replicated ? &rs : nullptr);
  spec.options.random_seed = seed;
  spec.options.chaos = plan;
  manager.submit(std::move(spec), 0.0);
  const workload::WorkloadResult result = manager.run();
  bench::require_bills("ablation_chaos", result);

  ArmOutcome out;
  out.makespan = result.makespan;
  const middleware::RunResult& run = result.jobs.front().run;
  out.chunks_reexecuted = run.lifecycle.chunks_reexecuted;
  out.replicas_lost = run.replica.replicas_lost;
  out.replicas_repaired = run.replica.replicas_repaired;
  out.slaves_failed =
      static_cast<std::uint32_t>(tracer.count(trace::EventKind::SlaveFailed));
  out.site_outages =
      static_cast<std::uint32_t>(tracer.count(trace::EventKind::SiteOutage));
  out.site_recoveries =
      static_cast<std::uint32_t>(tracer.count(trace::EventKind::SiteRecovered));

  // Exactly-once: the marker robj divides back into per-chunk counts. A
  // partial merge reads 0 there but counts as a duplicate here.
  const apps::MarkerCounts counts = apps::marker_counts(*run.robj, marker.layout);
  for (const std::uint32_t n : counts.executions) {
    if (n == 0) ++out.lost_chunks;
    if (n > 1) ++out.duplicated_chunks;
  }
  out.lost_chunks -= counts.partial;
  out.duplicated_chunks += counts.partial;

  // Drive repair to quiescence post-run (the background actor stops with the
  // run): coverage must be restorable from the surviving copies.
  if (replicated) {
    for (int rounds = 0; rounds < 256; ++rounds) {
      const auto tasks = rs.plan_repairs(8, 1e9);
      if (tasks.empty()) break;
      for (const auto& t : tasks) rs.repair_done(t, true, 1e9);
    }
    const auto coverage = chaos::audit_coverage(rs, marker.layout);
    out.coverage_ok = coverage.ok;
    if (!coverage.ok) out.detail = coverage.detail;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);

  apps::MarkerData marker = args.quick ? apps::marker_data(600000, 6, 2)
                                       : apps::marker_data(2400000, 12, 2);

  // Reference run: no chaos, no replication.
  const ArmOutcome clean = run_arm(marker, false, nullptr, args.seed);

  // Blackout window: opens mid-run — after the pool boot window, while the
  // west slaves hold in-progress work — and outlasts the clean finish, so a
  // run that must wait for the region to return pays for the whole window.
  chaos::ChaosPlan plan;
  chaos::ChaosEvent outage;
  outage.kind = chaos::ChaosEvent::Kind::SiteOutage;
  outage.site_a = 2;  // "west" goes dark
  outage.at_seconds = 0.65 * clean.makespan;
  outage.duration_seconds = 2.0 * clean.makespan;
  plan.events.push_back(outage);

  const ArmOutcome repl = run_arm(marker, true, &plan, args.seed);
  const ArmOutcome base = run_arm(marker, false, &plan, args.seed);

  const double repl_inflation = repl.makespan / clean.makespan - 1.0;
  const double base_inflation = base.makespan / clean.makespan - 1.0;
  const double gain = base.makespan / repl.makespan;

  cloudburst::AsciiTable table({"arm", "makespan", "inflation", "lost", "dup",
                                "re-exec", "repl lost", "repaired",
                                "slaves failed"});
  const auto row = [&table](const char* name, const ArmOutcome& arm,
                            double inflation) {
    table.add_row({name, cloudburst::AsciiTable::num(arm.makespan, 3),
                   cloudburst::AsciiTable::pct(inflation, 1),
                   std::to_string(arm.lost_chunks),
                   std::to_string(arm.duplicated_chunks),
                   std::to_string(arm.chunks_reexecuted),
                   std::to_string(arm.replicas_lost),
                   std::to_string(arm.replicas_repaired),
                   std::to_string(arm.slaves_failed)});
  };
  row("clean", clean, 0.0);
  row("replicated k=2", repl, repl_inflation);
  row("no replication", base, base_inflation);
  std::printf("%s\n",
              table.render("Region failover — single-site blackout mid-run "
                           "(pooled workload, three sites)")
                  .c_str());
  std::printf("replication gain: %.2fx faster than the no-replication arm\n\n",
              gain);

  const char* out_path = "BENCH_chaos.json";
  if (std::FILE* out = std::fopen(out_path, "w")) {
    std::fprintf(
        out,
        "{\n"
        "  \"bench\": \"ablation_chaos\",\n"
        "  \"mode\": \"%s\",\n"
        "  \"seed\": %" PRIu64 ",\n"
        "  \"failover\": {\n"
        "    \"clean\": {\"makespan\": %.3f},\n"
        "    \"replicated\": {\"makespan\": %.3f, \"inflation\": %.4f,\n"
        "      \"lost_chunks\": %u, \"duplicated_chunks\": %u,\n"
        "      \"chunks_reexecuted\": %u, \"replicas_lost\": %u,\n"
        "      \"replicas_repaired\": %u, \"slaves_failed\": %u},\n"
        "    \"baseline\": {\"makespan\": %.3f, \"inflation\": %.4f,\n"
        "      \"lost_chunks\": %u},\n"
        "    \"replication_gain\": %.4f\n"
        "  }\n"
        "}\n",
        args.quick ? "quick" : "full", args.seed, clean.makespan, repl.makespan,
        repl_inflation, repl.lost_chunks, repl.duplicated_chunks,
        repl.chunks_reexecuted, repl.replicas_lost, repl.replicas_repaired,
        repl.slaves_failed, base.makespan, base_inflation, base.lost_chunks,
        gain);
    std::fclose(out);
    std::printf("wrote %s\n", out_path);
  } else {
    std::fprintf(stderr, "ablation_chaos: cannot write %s\n", out_path);
    return 1;
  }

  // --- self-checks: the recovery invariants this ablation exists to pin ----
  if (repl.site_outages != 1 || repl.slaves_failed == 0) {
    std::fprintf(stderr,
                 "ablation_chaos: blackout did not land (outages=%u, "
                 "slaves_failed=%u)\n",
                 repl.site_outages, repl.slaves_failed);
    return 1;
  }
  if (repl.lost_chunks != 0 || repl.duplicated_chunks != 0) {
    std::fprintf(stderr,
                 "ablation_chaos: replicated arm lost %u chunks / double-"
                 "counted %u — exactly-once violated\n",
                 repl.lost_chunks, repl.duplicated_chunks);
    return 1;
  }
  if (base.lost_chunks != 0 || base.duplicated_chunks != 0) {
    std::fprintf(stderr,
                 "ablation_chaos: baseline arm lost %u chunks / double-"
                 "counted %u — recovery must delay work, never drop it\n",
                 base.lost_chunks, base.duplicated_chunks);
    return 1;
  }
  if (!repl.coverage_ok) {
    std::fprintf(stderr, "ablation_chaos: repair left coverage holes: %s\n",
                 repl.detail.c_str());
    return 1;
  }
  // Bounded inflation: with every chunk replicated off-site, losing one
  // region must cost well under a 2x slowdown...
  if (repl.makespan >= 2.0 * clean.makespan) {
    std::fprintf(stderr,
                 "ablation_chaos: replicated makespan %.3f vs clean %.3f — "
                 "inflation not bounded\n",
                 repl.makespan, clean.makespan);
    return 1;
  }
  // ...while the unreplicated arm must visibly pay for the outage window.
  if (base.makespan <= 1.2 * repl.makespan) {
    std::fprintf(stderr,
                 "ablation_chaos: baseline makespan %.3f does not degrade vs "
                 "replicated %.3f — the ablation shows nothing\n",
                 base.makespan, repl.makespan);
    return 1;
  }
  return 0;
}
