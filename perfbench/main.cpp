// Repository benchmark: command-line entry point.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans PATH]
//
// One caller in a closed loop: each pass starts after the previous one
// returns. With --trace 0 it sets the workload up several times (setup_s is
// the median), runs one warm-up pass, then repeats passes for S seconds and
// reports the end-to-end metrics. With --trace 1 it runs the same seed with
// the tracer, probe, task wrappers and spans attached, plus the layer
// microbenchmarks and the fleet-size curve, and reports the per-layer metrics. The
// last stdout line is one JSON object: correct, attempted, failed, metrics.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "harness.hpp"
#include "layers.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

/// Set-ups between passes: at most kSetupsPerGap after each pass, paced so
/// they take at most kSetupShare of the measured time; kMinSetups in all.
constexpr int kSetupsPerGap = 8;
constexpr double kSetupShare = 0.2;
constexpr std::size_t kMinSetups = 5;
constexpr std::size_t kFleetCurve[] = {50, 125, 250, 500};
/// perf_engine's baseline model numbers for its 500-node fleet at seed 42.
constexpr std::uint64_t kAnchorEvents = 1561970;
constexpr const char* kAnchorMakespan = "106.088869";

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string spans_path;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--spans PATH]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
      if (!have_seed) usage("bad --seed");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || args.seconds <= 0.0) usage("bad --seconds");
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) usage("bad --trace");
      args.trace = value[0] == '1';
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty() || !have_seed || args.seconds <= 0.0) usage("missing flags");
  return args;
}

/// Metrics in print order.
class Report {
 public:
  void add(const std::string& name, double value, const char* unit) {
    metrics_.push_back({name, value, unit});
  }
  void print(bool correct, std::uint64_t attempted, std::uint64_t failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
                ", \"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                  metrics_[i].name.c_str(), metrics_[i].value, metrics_[i].unit);
    }
    std::printf("}}\n");
  }

 private:
  struct Metric {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Metric> metrics_;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Running tally of operations and the model digest across passes.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t digest = 0;
  bool have_digest = false;

  /// Count a pass's operations; `same_model` passes must also repeat the
  /// digest of the first one.
  void add(const PassOutput& out, const char* label, bool same_model = true) {
    attempted += out.attempted;
    failed += out.failed;
    if (!out.failure.empty()) std::fprintf(stderr, "%s: %s\n", label, out.failure.c_str());
    if (!same_model) return;
    if (!have_digest) {
      digest = out.digest;
      have_digest = true;
    } else if (out.digest != digest) {
      ++failed;
      std::fprintf(stderr, "%s: model digest %016" PRIx64 " differs from %016" PRIx64 "\n",
                   label, out.digest, digest);
    }
  }
};

int run_untraced(const Args& args) {
  // Set-up time drifts with the host's state, so extra set-ups are spread
  // over the timed region, between passes, on scratch workloads that are
  // dropped at once; setup_s is the median of all of them.
  std::vector<double> setup_times;
  const auto timed_setup = [&] {
    auto workload = make_workload(args.workload);
    const auto start = Clock::now();
    workload->setup(args.seed, nullptr);
    setup_times.push_back(seconds_since(start));
    return workload;
  };
  double extra_setup_seconds = 0.0;
  const auto extra_setups = [&](double region_seconds, int at_most) {
    for (int i = 0; i < at_most && extra_setup_seconds <= kSetupShare * region_seconds; ++i) {
      timed_setup();
      extra_setup_seconds += setup_times.back();
    }
  };

  const std::unique_ptr<Workload> workload = timed_setup();
  Tally tally;
  tally.add(workload->pass(nullptr), "warm-up pass");

  std::vector<double> walls;
  std::vector<double> rates;
  double measured = 0.0;
  const auto region = Clock::now();
  while (walls.size() < 3 || measured < args.seconds) {
    const auto start = Clock::now();
    const PassOutput out = workload->pass(nullptr);
    const double wall = seconds_since(start);
    tally.add(out, "timed pass");
    walls.push_back(wall);
    rates.push_back(static_cast<double>(out.chunks) / wall);
    measured += wall;
    extra_setups(measured, kSetupsPerGap);
  }
  while (setup_times.size() < kMinSetups) extra_setups(1e9, 1);

  std::printf("passes=%zu setups=%zu region_s=%.3f\n", walls.size(), setup_times.size(),
              seconds_since(region));
  std::printf("model_digest=%016" PRIx64 "\n", tally.digest);
  Report report;
  report.add("setup_s", median(setup_times), "s");
  report.add("wall_s", median(walls), "s");
  report.add("chunks_per_s", median(rates), "1/s");
  report.add("peak_rss_mib", peak_rss_mib(), "MiB");
  report.print(tally.failed == 0, tally.attempted, tally.failed);
  return 0;
}

int run_traced(const Args& args) {
  Instruments ins;
  auto workload = make_workload(args.workload);
  workload->setup(args.seed, &ins.spans);

  // Untraced passes of the same seed, after a warm-up pass: the reference
  // digest and wall time that the traced pass is compared against.
  Tally tally;
  tally.add(workload->pass(nullptr), "warm-up pass");
  std::vector<double> untraced;
  for (int i = 0; i < 2; ++i) {
    const auto start = Clock::now();
    const PassOutput out = workload->pass(nullptr);
    untraced.push_back(seconds_since(start));
    tally.add(out, "untraced pass");
  }
  const auto traced_start = Clock::now();
  const PassOutput traced = workload->pass(&ins);
  const double traced_wall = seconds_since(traced_start);
  tally.add(traced, "traced pass");
  const double untraced_wall = median(untraced);

  // Layers this workload does not drive get their host timings from side
  // runs, kept apart from the workload's own totals.
  Instruments side;
  const bool own_kernels = ins.spans.count("apps.process") > 0;
  const bool own_submit = ins.spans.count("workload.submit") > 0;
  double gr_mb_per_s = workload->gr_mb_per_s();
  if (!own_kernels || gr_mb_per_s == 0.0) {
    auto kernels = make_kernel_side_workload();
    kernels->setup(args.seed, nullptr);
    if (gr_mb_per_s == 0.0) gr_mb_per_s = kernels->gr_mb_per_s();
    if (!own_kernels) tally.add(kernels->pass(&side), "kernel side run", false);
  }
  if (!own_submit) {
    tally.add(run_fleet_point(50, args.seed, &side).out, "submit side run", false);
  }
  const Instruments& kernel_src = own_kernels ? ins : side;
  const Instruments& submit_src = own_submit ? ins : side;

  // Fleet-size curve on perf_engine's canonical seed; its 500-node point is
  // the anchor against perf_engine's baseline model numbers.
  Report report;
  for (std::size_t nodes : kFleetCurve) {
    const FleetPoint point = run_fleet_point(nodes, 42);
    tally.add(point.out, "fleet curve", false);
    const std::string n = ".n" + std::to_string(nodes);
    report.add("fleet.us_per_chunk" + n, 1e6 * ratio(point.run_seconds, point.out.chunks), "us");
    report.add("fleet.ns_per_event" + n, 1e9 * ratio(point.run_seconds, point.events), "ns");
    if (nodes == 500) {
      char makespan[32];
      std::snprintf(makespan, sizeof makespan, "%.6f", point.makespan);
      if (point.events != kAnchorEvents || std::string(makespan) != kAnchorMakespan) {
        ++tally.failed;
        std::fprintf(stderr, "fleet anchor drifted: %" PRIu64 " events, makespan %s\n",
                     point.events, makespan);
      }
    }
  }

  const LayerTotals& t = ins.totals;
  const double events = static_cast<double>(t.events - t.probe_events);
  const double chunks = static_cast<double>(traced.chunks);
  std::uint64_t flows_cancelled = 0;
  for (const auto& ev : ins.tracer.events()) {
    if (ev.kind == trace::EventKind::SiteOutage) flows_cancelled += ev.b;
  }
  const double process_s = kernel_src.spans.total_seconds("apps.process");

  report.add("des.events", events, "count");
  report.add("des.events_per_chunk", ratio(events, chunks), "1/chunk");
  report.add("des.peak_pending", static_cast<double>(t.peak_pending), "count");
  report.add("des.ns_per_event", 1e9 * ratio(untraced_wall, events), "ns");
  report.add("des.op_ns.q1k", des_ns_per_op(1000, args.seed), "ns");
  report.add("des.op_ns.q100k", des_ns_per_op(100000, args.seed), "ns");
  report.add("net.peak_active_flows", static_cast<double>(t.peak_flows), "count");
  report.add("net.mean_active_flows", ratio(t.flow_sample_sum, t.flow_samples), "count");
  report.add("net.wan_bytes", t.wan_bytes, "B");
  report.add("net.churn_us.c4", net_us_per_churn(4, args.seed), "us");
  report.add("net.churn_us.c64", net_us_per_churn(64, args.seed), "us");
  report.add("net.churn_us.c2048", net_us_per_churn(2048, args.seed), "us");
  report.add("storage.requests", static_cast<double>(t.store_requests), "count");
  report.add("storage.faults", static_cast<double>(t.store_faults), "count");
  report.add("storage.retries", static_cast<double>(t.fetch_retries), "count");
  report.add("storage.hedge_win_ratio", ratio(t.hedges_won, t.hedges_issued), "ratio");
  report.add("storage.retried_bytes_ratio", ratio(t.bytes_retried, t.bytes_served), "ratio");
  report.add("cache.hit_ratio", ratio(t.cache_hits, t.cache_hits + t.cache_misses), "ratio");
  report.add("cache.prefetch_useful_ratio",
             t.prefetch_issued ? 1.0 - ratio(t.prefetch_wasted, t.prefetch_issued) : 0.0,
             "ratio");
  report.add("cache.evictions", static_cast<double>(t.cache_evictions), "count");
  report.add("cluster.build_us",
             1e6 * ratio(ins.spans.total_seconds("cluster.build"),
                         ins.spans.count("cluster.build")),
             "us");
  report.add("middleware.run_self_ms",
             1e3 * (ins.spans.self_seconds("middleware.run") +
                    ins.spans.self_seconds("workload.run")),
             "ms");
  report.add("middleware.stolen_ratio", ratio(t.jobs_stolen, t.jobs_local + t.jobs_stolen),
             "ratio");
  report.add("middleware.batches",
             static_cast<double>(ins.tracer.count(trace::EventKind::BatchGranted)), "count");
  report.add("middleware.robj_msgs",
             static_cast<double>(ins.tracer.count(trace::EventKind::RobjSent)), "count");
  report.add("workload.submit_us",
             1e6 * ratio(submit_src.spans.total_seconds("workload.submit"),
                         submit_src.spans.count("workload.submit")),
             "us");
  report.add("workload.preemptions", static_cast<double>(t.preemptions), "count");
  report.add("workload.rejected", static_cast<double>(t.rejected), "count");
  report.add("apps.process_s", process_s, "s");
  report.add("apps.process_mb_per_s",
             ratio(static_cast<double>(kernel_src.totals.process_bytes) / 1e6, process_s),
             "MB/s");
  report.add("api.merge_ms", 1e3 * kernel_src.spans.total_seconds("api.merge"), "ms");
  report.add("api.serialize_ms", 1e3 * kernel_src.spans.total_seconds("api.serialize"), "ms");
  report.add("api.deserialize_ms", 1e3 * kernel_src.spans.total_seconds("api.deserialize"),
             "ms");
  report.add("engine.gr_mb_per_s", gr_mb_per_s, "MB/s");
  report.add("replica.repaired", static_cast<double>(t.replicas_repaired), "count");
  report.add("replica.repair_bytes", static_cast<double>(t.repair_bytes), "B");
  report.add("qos.throttled", static_cast<double>(t.qos_throttled), "count");
  report.add("qos.wait_s", t.qos_wait_seconds, "sim_s");
  report.add("directory.cold_boots", static_cast<double>(t.cold_boots), "count");
  report.add("chaos.flows_cancelled", static_cast<double>(flows_cancelled), "count");
  report.add("trace.events", static_cast<double>(ins.tracer.events().size()), "count");
  report.add("trace.overhead_ratio", traced_wall / untraced_wall - 1.0, "ratio");
  report.add("error_rate", ratio(tally.failed, tally.attempted), "ratio");

  if (!args.spans_path.empty() && !ins.spans.write_jsonl(args.spans_path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", args.spans_path.c_str());
  }
  std::printf("model_digest=%016" PRIx64 "\n", tally.digest);
  report.print(tally.failed == 0, tally.attempted, tally.failed);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  if (!make_workload(args.workload)) usage(("unknown workload " + args.workload).c_str());
  std::printf("perfbench workload=%s seed=%" PRIu64 " trace=%d\n", args.workload.c_str(),
              args.seed, args.trace ? 1 : 0);
  try {
    return args.trace ? run_traced(args) : run_untraced(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
