// Ablation: per-tenant store QoS — weighted-fair arbitration vs unmanaged.
//
// Two scenarios on one shared store:
//
//   A. Share split — two continuously-backlogged tenants with 3:1 weights
//      drive the arbiter directly (closed loop, one outstanding request
//      each); achieved bandwidth must split within 10% of 3:1 while the
//      paced link stays fully used (work conservation).
//
//   B. Interactive latency — a batch scan saturates the cloud store (its
//      front end narrowed so demand genuinely exceeds capacity) while a
//      small interactive job reads the same store through a FairShare
//      workload. Unmanaged, every batch transfer contends with the
//      interactive fetch on the wire and its p95 retrieval collapses; with
//      a StoreQos (interactive weight 3, batch 1) the arbiter paces batch
//      releases and the interactive p95 must come out strictly better.
//
// Emits BENCH_qos.json and exits non-zero when either self-check fails or a
// workload's per-job bills do not sum to its platform bill.
#include "paper_common.hpp"

#include <algorithm>
#include <cinttypes>
#include <map>
#include <utility>
#include <vector>

#include "common/units.hpp"
#include "des/simulator.hpp"
#include "middleware/runtime.hpp"
#include "qos/store_qos.hpp"
#include "trace/trace.hpp"
#include "workload/workload_manager.hpp"

namespace {

using namespace cloudburst;
using namespace cloudburst::units;

// --- scenario A: share split under saturation --------------------------------

struct ShareOutcome {
  double heavy_bps = 0.0;
  double light_bps = 0.0;
  double ratio = 0.0;
  double link_utilization = 0.0;  ///< sum of shares over the paced rate
};

/// Closed-loop tenant: keeps one request outstanding until `until` seconds.
struct Loader {
  qos::StoreQos& q;
  des::Simulator& sim;
  qos::TenantId tenant;
  std::uint64_t bytes;
  double until;

  void pump() {
    q.submit(0, tenant, bytes, [this](double) {
      if (des::to_seconds(sim.now()) < until) pump();
    });
  }
};

ShareOutcome run_share_split(double capacity, double horizon) {
  qos::QosConfig cfg;
  cfg.tenant_weights = {{"heavy", 3.0}, {"light", 1.0}};
  qos::StoreQos q{cfg};
  des::Simulator sim;
  q.bind(sim, {capacity});

  Loader heavy{q, sim, q.tenant_id("heavy"), 1'000'000, horizon};
  Loader light{q, sim, q.tenant_id("light"), 1'000'000, horizon};
  heavy.pump();
  light.pump();
  sim.run();

  ShareOutcome out;
  const auto* h = q.store_stats(heavy.tenant, 0);
  const auto* l = q.store_stats(light.tenant, 0);
  const double elapsed = des::to_seconds(sim.now());
  if (!h || !l || elapsed <= 0.0) return out;
  out.heavy_bps = static_cast<double>(h->bytes) / elapsed;
  out.light_bps = static_cast<double>(l->bytes) / elapsed;
  out.ratio = out.light_bps > 0.0 ? out.heavy_bps / out.light_bps : 0.0;
  out.link_utilization =
      (out.heavy_bps + out.light_bps) / (cfg.pacing_factor * capacity);
  return out;
}

// --- scenario B: interactive p95 under a batch scan --------------------------

struct LatencyOutcome {
  double interactive_p95 = 0.0;
  double interactive_mean = 0.0;
  std::size_t interactive_fetches = 0;
  double batch_bps = 0.0;       ///< batch tenant bytes over its job span
  double makespan = 0.0;
  std::uint32_t throttled = 0;  ///< QosThrottled events (0 unmanaged)
};

/// Retrieval durations of the interactive job: FetchStart/FetchEnd pairs
/// under the "probe/" actor prefix the workload tracer assigns it.
std::vector<double> interactive_fetch_seconds(const trace::Tracer& tracer) {
  std::map<std::pair<std::string, std::uint64_t>, double> open;
  std::vector<double> durations;
  for (const auto& e : tracer.events()) {
    if (e.actor.rfind("probe/", 0) != 0) continue;
    if (e.kind == trace::EventKind::FetchStart) {
      open[{e.actor, e.a}] = e.t;
    } else if (e.kind == trace::EventKind::FetchEnd) {
      const auto it = open.find({e.actor, e.a});
      if (it == open.end()) continue;
      durations.push_back(e.t - it->second);
      open.erase(it);
    }
  }
  return durations;
}

LatencyOutcome run_contended_workload(bool managed, bool quick, std::uint64_t seed) {
  // Narrow the cloud store's front end so the batch scan's demand (many
  // slaves x 8 range GETs x 25 MB/s each) genuinely exceeds it.
  cluster::PlatformSpec spec = cluster::PlatformSpec::paper_testbed(8, 16);
  spec.sites[cluster::kCloudSite].store->front_bandwidth = MBps(250);
  cluster::Platform platform(spec);

  // 4 MiB batch chunks: the arbiter's non-preemptible release slots stay
  // short, so a queued interactive request never waits long for the wire.
  const std::uint64_t scale = quick ? 1 : 4;
  storage::LayoutSpec batch_spec;
  batch_spec.total_bytes = scale * MiB(256);
  batch_spec.num_files = static_cast<std::size_t>(scale) * 32;
  batch_spec.chunks_per_file = 2;
  batch_spec.unit_bytes = 64;
  storage::DataLayout batch_layout = storage::build_layout(batch_spec);
  // Everything on the cloud store: the scan hammers one access link.
  storage::assign_stores_by_fraction(batch_layout, 0.0, platform.local_store_id(),
                                     platform.cloud_store_id());

  storage::LayoutSpec probe_spec;
  probe_spec.total_bytes = MiB(32);
  probe_spec.num_files = 16;
  probe_spec.chunks_per_file = 1;
  probe_spec.unit_bytes = 64;
  storage::DataLayout probe_layout = storage::build_layout(probe_spec);
  storage::assign_stores_by_fraction(probe_layout, 0.0, platform.local_store_id(),
                                     platform.cloud_store_id());

  middleware::RunOptions options;
  options.profile.name = "qos";
  options.profile.unit_bytes = 64;
  options.profile.bytes_per_second_per_core = GiBps(1);  // retrieval-bound
  options.profile.robj_bytes = KiB(64);
  options.random_seed = seed;

  qos::QosConfig qcfg;
  qcfg.tenant_weights = {{"interactive", 3.0}, {"batch", 1.0}};
  qos::StoreQos q{qcfg};

  trace::Tracer tracer;
  workload::WorkloadOptions wopts;
  wopts.policy = workload::SchedulingPolicy::FairShare;
  wopts.tracer = &tracer;
  workload::WorkloadManager manager(platform, wopts);

  workload::JobSpec scan;
  scan.name = "scan";
  scan.tenant = "batch";
  scan.layout = batch_layout;
  scan.options = options;
  if (managed) scan.options.qos = &q;
  manager.submit(std::move(scan), 0.0);

  workload::JobSpec probe;
  probe.name = "probe";
  probe.tenant = "interactive";
  probe.layout = probe_layout;
  probe.options = options;
  if (managed) probe.options.qos = &q;
  manager.submit(std::move(probe), 0.0);

  const auto result = manager.run();
  bench::require_bills("ablation_qos", result);

  LatencyOutcome out;
  out.makespan = result.makespan;
  auto durations = interactive_fetch_seconds(tracer);
  out.interactive_fetches = durations.size();
  if (!durations.empty()) {
    std::sort(durations.begin(), durations.end());
    double sum = 0.0;
    for (const double d : durations) sum += d;
    out.interactive_mean = sum / static_cast<double>(durations.size());
    out.interactive_p95 = durations[std::min(
        durations.size() - 1,
        static_cast<std::size_t>(0.95 * static_cast<double>(durations.size())))];
  }
  const auto& scan_job = result.jobs[0];
  const double scan_span = scan_job.finish_seconds - scan_job.start_seconds;
  if (scan_span > 0.0) {
    out.batch_bps = static_cast<double>(batch_spec.total_bytes) / scan_span;
  }
  out.throttled = static_cast<std::uint32_t>(
      tracer.count(trace::EventKind::QosThrottled));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);

  // Scenario A: 3:1 split on a saturated 250 MB/s link.
  const double capacity = MBps(250);
  const ShareOutcome share = run_share_split(capacity, args.quick ? 10.0 : 30.0);

  // Scenario B: unmanaged vs managed interactive latency.
  const LatencyOutcome unmanaged =
      run_contended_workload(/*managed=*/false, args.quick, args.seed);
  const LatencyOutcome managed =
      run_contended_workload(/*managed=*/true, args.quick, args.seed);

  AsciiTable table({"config", "heavy MB/s", "light MB/s", "ratio", "link use",
                    "probe p95", "probe mean", "scan MB/s", "throttled"});
  table.add_row({"A: weighted-fair 3:1", AsciiTable::num(share.heavy_bps / 1e6, 1),
                 AsciiTable::num(share.light_bps / 1e6, 1),
                 AsciiTable::num(share.ratio, 2),
                 AsciiTable::num(share.link_utilization, 3), "-", "-", "-", "-"});
  table.add_row({"B: unmanaged", "-", "-", "-", "-",
                 AsciiTable::num(unmanaged.interactive_p95, 3),
                 AsciiTable::num(unmanaged.interactive_mean, 3),
                 AsciiTable::num(unmanaged.batch_bps / 1e6, 1),
                 std::to_string(unmanaged.throttled)});
  table.add_row({"B: qos 3:1", "-", "-", "-", "-",
                 AsciiTable::num(managed.interactive_p95, 3),
                 AsciiTable::num(managed.interactive_mean, 3),
                 AsciiTable::num(managed.batch_bps / 1e6, 1),
                 std::to_string(managed.throttled)});
  std::printf("%s\n",
              table.render("Ablation — store QoS (A: 3:1 share split on a saturated "
                           "link; B: interactive p95 vs an unmanaged batch scan)")
                  .c_str());

  const char* out_path = "BENCH_qos.json";
  if (std::FILE* out = std::fopen(out_path, "w")) {
    std::fprintf(
        out,
        "{\n"
        "  \"bench\": \"ablation_qos\",\n"
        "  \"mode\": \"%s\",\n"
        "  \"seed\": %" PRIu64 ",\n"
        "  \"share_split\": {\"capacity_bps\": %.0f, \"heavy_bps\": %.0f,\n"
        "    \"light_bps\": %.0f, \"ratio\": %.4f, \"link_utilization\": %.4f},\n"
        "  \"interactive\": {\n"
        "    \"unmanaged\": {\"p95_seconds\": %.6f, \"mean_seconds\": %.6f,\n"
        "      \"fetches\": %zu, \"batch_bps\": %.0f, \"makespan\": %.3f,\n"
        "      \"throttled\": %u},\n"
        "    \"qos\": {\"p95_seconds\": %.6f, \"mean_seconds\": %.6f,\n"
        "      \"fetches\": %zu, \"batch_bps\": %.0f, \"makespan\": %.3f,\n"
        "      \"throttled\": %u}\n"
        "  }\n"
        "}\n",
        args.quick ? "quick" : "full", args.seed, capacity, share.heavy_bps,
        share.light_bps, share.ratio, share.link_utilization,
        unmanaged.interactive_p95, unmanaged.interactive_mean,
        unmanaged.interactive_fetches, unmanaged.batch_bps, unmanaged.makespan,
        unmanaged.throttled, managed.interactive_p95, managed.interactive_mean,
        managed.interactive_fetches, managed.batch_bps, managed.makespan,
        managed.throttled);
    std::fclose(out);
    std::printf("wrote %s\n", out_path);
  } else {
    std::fprintf(stderr, "ablation_qos: cannot write %s\n", out_path);
    return 1;
  }

  // Self-check A: achieved bandwidth within 10% of the 3:1 weights, and the
  // arbiter wasted no link time while both tenants were backlogged.
  if (share.ratio < 2.7 || share.ratio > 3.3) {
    std::fprintf(stderr,
                 "ablation_qos: share split %.3f is not within 10%% of 3:1\n",
                 share.ratio);
    return 1;
  }
  if (share.link_utilization < 0.9) {
    std::fprintf(stderr,
                 "ablation_qos: paced link only %.1f%% used under full backlog\n",
                 100.0 * share.link_utilization);
    return 1;
  }

  // Self-check B: weighted-fair arbitration must keep the interactive
  // tenant's p95 strictly better than the unmanaged collapse, and the
  // arbiter must actually have throttled someone to do it.
  if (unmanaged.interactive_fetches == 0 || managed.interactive_fetches == 0) {
    std::fprintf(stderr, "ablation_qos: interactive job did no store fetches\n");
    return 1;
  }
  if (managed.interactive_p95 >= unmanaged.interactive_p95) {
    std::fprintf(stderr,
                 "ablation_qos: qos interactive p95 (%.3f s) did not beat "
                 "unmanaged (%.3f s)\n",
                 managed.interactive_p95, unmanaged.interactive_p95);
    return 1;
  }
  if (managed.throttled == 0) {
    std::fprintf(stderr, "ablation_qos: qos run never throttled anything\n");
    return 1;
  }
  return 0;
}
