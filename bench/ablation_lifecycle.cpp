// Extension bench: node lifecycle — graceful drain vs spot reclaim vs crash.
//
// A spot reclamation arrives with a notice window; inside it the victim stops
// claiming pool chunks, finishes in-flight work, flushes a final delta-robj
// checkpoint to its master and vacates, so completed work survives the
// instance. This bench sweeps the notice window, the periodic checkpoint
// interval and the stochastic per-node-hour reclaim rate (knn, cloud-heavy
// 15/85 data split so the cloud cluster sits on the critical path; at
// 400/h the reclaims outrun the two standbys, the cloud cluster is lost and
// the head re-grants its work to the local cluster), then
// self-checks the headline claim: a reclaim with adequate notice strictly
// beats a no-notice crash at the same kill instant on both makespan and
// wasted (re-executed) work. Exits non-zero if the claim does not hold.
#include "paper_common.hpp"

#include "middleware/runtime.hpp"

namespace {

using namespace cloudburst;
using Kind = middleware::RunOptions::LifecycleEvent::Kind;

// Most of the dataset lives in the cloud store: with the paper's 50/50 split
// the cloud side has slack and node loss hides inside it; at 15/85 the cloud
// cluster is the critical path and lifecycle effects move the makespan.
constexpr double kLocalFraction = 0.15;

middleware::RunOptions::LifecycleEvent lifecycle_event(Kind kind,
                                                       std::uint32_t node,
                                                       double at,
                                                       double notice) {
  middleware::RunOptions::LifecycleEvent ev;
  ev.kind = kind;
  ev.site = cluster::kCloudSite;
  ev.node_index = node;
  ev.at_seconds = at;
  ev.notice_seconds = notice;
  return ev;
}

middleware::RunResult run_knn(const middleware::RunOptions& base) {
  cluster::Platform platform(cluster::PlatformSpec::paper_testbed(16, 16));
  const storage::DataLayout layout =
      apps::paper_layout(apps::PaperApp::Knn, kLocalFraction,
                         platform.local_store_id(), platform.cloud_store_id());
  return middleware::run_distributed(platform, layout, base);
}

middleware::RunOptions base_options(std::uint64_t seed) {
  middleware::RunOptions options = apps::paper_run_options(apps::PaperApp::Knn);
  options.reduction_tree = false;  // lifecycle requires direct reduction
  options.random_seed = seed;
  return options;
}

std::string wasted_kb(const middleware::RunResult& r) {
  return AsciiTable::num(
      static_cast<double>(r.lifecycle.bytes_reexecuted) / 1024.0, 1);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cloudburst;

  const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
  const auto clean = run_knn(base_options(args.seed));

  // --- notice-window sweep: how much warning turns a kill into a handover --
  const std::vector<double> notices =
      args.quick ? std::vector<double>{0.0, 2.0}
                 : std::vector<double>{0.0, 0.25, 0.5, 1.0, 2.0, 10.0};
  AsciiTable notice_table({"notice", "exec time", "overhead", "vacated",
                           "reclaimed", "wasted work (KiB)"});
  notice_table.add_row({"no event", AsciiTable::num(clean.total_time, 2),
                        "0.0%", "0", "0", "0.0"});
  for (double notice : notices) {
    middleware::RunOptions o = base_options(args.seed);
    o.lifecycle.push_back(lifecycle_event(
        Kind::SpotReclaim, 1, 0.6 * clean.total_time, notice));
    o.failure_detection_seconds = 1.0;
    const auto r = run_knn(o);
    notice_table.add_row(
        {AsciiTable::num(notice, 2) + " s", AsciiTable::num(r.total_time, 2),
         AsciiTable::pct(r.total_time / clean.total_time - 1.0, 1),
         std::to_string(r.lifecycle.nodes_vacated),
         std::to_string(r.lifecycle.nodes_reclaimed), wasted_kb(r)});
  }
  std::printf("%s\n",
              notice_table
                  .render("Extension — spot reclaim notice window (knn "
                          "env-15/85, one cloud instance reclaimed at 60% of "
                          "the run)")
                  .c_str());

  // --- checkpoint-interval sweep under a zero-notice reclaim ---------------
  const std::vector<double> intervals =
      args.quick ? std::vector<double>{0.0, 0.25}
                 : std::vector<double>{0.0, 0.5, 0.25, 0.1};
  AsciiTable ckpt_table({"checkpoint interval", "exec time", "overhead",
                         "wasted work (KiB)"});
  for (double frac : intervals) {
    middleware::RunOptions o = base_options(args.seed);
    o.checkpoint_interval_seconds = frac * clean.total_time;
    o.lifecycle.push_back(
        lifecycle_event(Kind::SpotReclaim, 1, 0.7 * clean.total_time, 0.0));
    o.failure_detection_seconds = 1.0;
    const auto r = run_knn(o);
    ckpt_table.add_row(
        {frac == 0.0 ? std::string("off")
                     : AsciiTable::num(frac * clean.total_time, 2) + " s",
         AsciiTable::num(r.total_time, 2),
         AsciiTable::pct(r.total_time / clean.total_time - 1.0, 1),
         wasted_kb(r)});
  }
  std::printf("%s\n",
              ckpt_table
                  .render("Extension — periodic checkpointing vs a "
                          "zero-notice reclaim at 70% of the run")
                  .c_str());

  // --- stochastic reclaim-rate sweep with standby migration ----------------
  const std::vector<double> rates =
      args.quick ? std::vector<double>{0.0, 25.0, 400.0}
                 : std::vector<double>{0.0, 25.0, 50.0, 100.0, 200.0, 400.0};
  AsciiTable spot_table({"reclaim rate", "exec time", "overhead", "drains",
                         "replacements", "wasted work (KiB)"});
  for (double rate : rates) {
    middleware::RunOptions o = base_options(args.seed);
    o.spot.reclaim_rate_per_hour = rate;
    o.spot.notice_seconds = 5.0;
    o.migration.standby_nodes = 2;
    o.migration.boot_seconds = 1.0;
    o.failure_detection_seconds = 1.0;
    const auto r = run_knn(o);
    spot_table.add_row(
        {AsciiTable::num(rate, 0) + "/h", AsciiTable::num(r.total_time, 2),
         AsciiTable::pct(r.total_time / clean.total_time - 1.0, 1),
         std::to_string(r.lifecycle.drains_requested),
         std::to_string(r.lifecycle.replacements_leased), wasted_kb(r)});
  }
  std::printf("%s\n",
              spot_table
                  .render("Extension — stochastic spot reclamation with 2 "
                          "standby replacements (5 s notice, seeded; the 0/h "
                          "row is the cost of just holding the standbys back)")
                  .c_str());

  // --- self-check: graceful reclaim beats a crash at the same kill instant -
  const double notice = 1.0;
  const double announce = 0.8 * clean.total_time - notice;

  middleware::RunOptions graceful = base_options(args.seed);
  graceful.lifecycle.push_back(
      lifecycle_event(Kind::SpotReclaim, 1, announce, notice));
  const auto g = run_knn(graceful);

  middleware::RunOptions crash = base_options(args.seed);
  crash.lifecycle.push_back(
      lifecycle_event(Kind::Crash, 1, announce + notice, 0.0));
  crash.failure_detection_seconds = 1.0;
  const auto c = run_knn(crash);

  AsciiTable duel({"scenario", "exec time", "overhead", "wasted work (KiB)",
                   "jobs assigned"});
  duel.add_row({"reclaim, 1 s notice", AsciiTable::num(g.total_time, 2),
                AsciiTable::pct(g.total_time / clean.total_time - 1.0, 1),
                wasted_kb(g), std::to_string(g.total_jobs())});
  duel.add_row({"crash at the deadline", AsciiTable::num(c.total_time, 2),
                AsciiTable::pct(c.total_time / clean.total_time - 1.0, 1),
                wasted_kb(c), std::to_string(c.total_jobs())});
  std::printf("%s\n",
              duel.render("Extension — same kill instant, with and without "
                          "notice (the graceful row must win both columns)")
                  .c_str());

  if (g.total_time >= c.total_time) {
    std::fprintf(stderr,
                 "SELF-CHECK FAILED: graceful reclaim makespan %.4f does not "
                 "beat crash makespan %.4f\n",
                 g.total_time, c.total_time);
    return 1;
  }
  if (g.lifecycle.bytes_reexecuted >= c.lifecycle.bytes_reexecuted) {
    std::fprintf(stderr,
                 "SELF-CHECK FAILED: graceful wasted bytes %llu not below "
                 "crash wasted bytes %llu\n",
                 static_cast<unsigned long long>(g.lifecycle.bytes_reexecuted),
                 static_cast<unsigned long long>(c.lifecycle.bytes_reexecuted));
    return 1;
  }
  std::printf("self-check passed: graceful reclaim beats the same-instant "
              "crash on makespan (%.2f s vs %.2f s) and wasted work (%llu B "
              "vs %llu B)\n",
              g.total_time, c.total_time,
              static_cast<unsigned long long>(g.lifecycle.bytes_reexecuted),
              static_cast<unsigned long long>(c.lifecycle.bytes_reexecuted));
  return 0;
}
