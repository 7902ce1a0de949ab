#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "apps/datagen.hpp"
#include "apps/experiments.hpp"
#include "apps/kmeans.hpp"
#include "apps/knn.hpp"
#include "apps/pagerank.hpp"
#include "apps/wordcount.hpp"
#include "cache/chunk_cache.hpp"
#include "chaos/chaos.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "directory/platform_directory.hpp"
#include "engine/gr_engine.hpp"
#include "middleware/runtime.hpp"
#include "qos/store_qos.hpp"
#include "replica/replica_set.hpp"
#include "storage/data_layout.hpp"
#include "workload/workload_manager.hpp"

namespace perfbench {
namespace {

using namespace cloudburst::units;

/// Simulated seconds between DES probe samples.
constexpr double kProbeInterval = 0.25;

std::uint64_t derive(std::uint64_t seed, std::uint64_t salt) {
  SplitMix64 mix(seed ^ (salt * 0x9e3779b97f4a7c15ull));
  return mix.next();
}

/// Platform construction, timed as a cluster.build span when traced.
std::unique_ptr<cluster::Platform> build_platform(const cluster::PlatformSpec& spec,
                                                  Instruments* ins) {
  if (ins) ins->spans.next_run();
  ScopedSpan span(ins ? &ins->spans : nullptr, "cluster.build");
  return std::make_unique<cluster::Platform>(spec);
}

/// One middleware::run_distributed call; traced, it carries the tracer and
/// the probe and feeds the per-layer totals.
middleware::RunResult run_one(const cluster::PlatformSpec& spec,
                              const storage::DataLayout& layout,
                              middleware::RunOptions options, Instruments* ins) {
  auto platform = build_platform(spec, ins);
  if (!ins) return middleware::run_distributed(*platform, layout, options);
  options.tracer = &ins->tracer;
  Probe probe(*platform, ins->totals, kProbeInterval);
  middleware::RunResult result;
  {
    ScopedSpan span(&ins->spans, "middleware.run");
    result = middleware::run_distributed(*platform, layout, options);
  }
  ins->totals.add_platform(*platform);
  ins->totals.add_run(result);
  return result;
}

/// Submit every spec, then run the workload; submit and run are timed as
/// spans when traced. The probe rides along on traced runs.
workload::WorkloadResult run_manager(cluster::Platform& platform,
                                     workload::WorkloadOptions wopts,
                                     const std::vector<workload::JobSpec>& specs,
                                     const std::vector<double>& arrivals,
                                     Instruments* ins, double* run_seconds = nullptr) {
  SpanLog* spans = ins ? &ins->spans : nullptr;
  if (ins) wopts.tracer = &ins->tracer;
  workload::WorkloadManager manager(platform, wopts);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    ScopedSpan span(spans, "workload.submit");
    manager.submit(specs[i], arrivals[i]);
  }
  std::unique_ptr<Probe> probe;
  if (ins) probe = std::make_unique<Probe>(platform, ins->totals, kProbeInterval);
  const auto start = Clock::now();
  workload::WorkloadResult result;
  {
    ScopedSpan span(spans, "workload.run");
    result = manager.run();
  }
  if (run_seconds) *run_seconds = seconds_since(start);
  if (ins) {
    ins->totals.add_platform(platform);
    ins->totals.add_workload(result);
  }
  return result;
}

/// Per-job completion checks shared by the workload-manager workloads.
void check_jobs(const workload::WorkloadResult& result, std::size_t submitted,
                std::uint64_t chunks_per_job, PassOutput& out) {
  out.attempted += submitted;
  if (result.jobs.size() != submitted) {
    out.fail("workload returned " + std::to_string(result.jobs.size()) + " of " +
                 std::to_string(submitted) + " jobs",
             submitted);
    return;
  }
  for (const auto& job : result.jobs) {
    if (job.rejected) {
      out.fail("job " + job.name + " rejected");
    } else if (job.run.total_jobs() < chunks_per_job) {
      out.fail("job " + job.name + " processed " + std::to_string(job.run.total_jobs()) +
               " of " + std::to_string(chunks_per_job) + " chunks");
    } else {
      out.chunks += chunks_per_job;
    }
  }
  const auto bills = chaos::audit_bills(result);
  if (!bills.ok) out.fail("bills: " + bills.detail);
}

// --- fleet_burst ---------------------------------------------------------------
//
// perf_engine's canonical fleet (three sites, fair-share tenants, cache and
// prefetch, degraded stores with retries and hedges, checkpoints, spot
// reclaim and drain), scaled linearly from its 500-node shape.

class FleetRig {
 public:
  FleetRig(std::size_t nodes, std::uint64_t seed, SpanLog* spans) : seed_(seed) {
    // 500 nodes: 100 local 8-core nodes, 2 x 200 cloud 2-core nodes, 50 jobs.
    local_cores_ = static_cast<unsigned>(nodes * 8 / 5);
    cloud_cores_ = static_cast<unsigned>(nodes * 4 / 5);
    jobs_ = std::max<std::size_t>(1, nodes / 10);
    spec_ = fleet_spec();

    cluster::Platform platform(spec_);
    storage::LayoutSpec lspec;
    lspec.num_files = kFilesPerJob;
    lspec.chunks_per_file = kChunksPerFile;
    lspec.unit_bytes = 64;
    lspec.total_bytes = chunks_per_job() * KiB(256);
    storage::DataLayout layout;
    {
      ScopedSpan span(spans, "storage.build_layout");
      layout = storage::build_layout(lspec);
    }
    storage::assign_stores_by_weights(layout, {0.2, 0.4, 0.4},
                                      {platform.store_of_cluster(0),
                                       platform.store_of_cluster(1),
                                       platform.store_of_cluster(2)});
    // Arrivals follow perf_engine's canonical trace whatever the seed: they
    // set how many jobs overlap, which dominates host cost, so seeds vary
    // faults, retries, reclaims and scheduling but not the load shape.
    const auto trace = workload::ArrivalTrace::poisson(jobs_, 0.5, kArrivalSeed);
    for (std::size_t i = 0; i < jobs_; ++i) {
      workload::JobSpec spec;
      spec.tenant = i % 2 == 0 ? "interactive" : "batch";
      spec.name = spec.tenant[0] + std::to_string(i + 1);
      spec.layout = layout;
      spec.options = job_options(i);
      specs_.push_back(std::move(spec));
      arrivals_.push_back(trace.at(i));
    }
    // Validate every spec against a real manager (submit throws on a bad one).
    workload::WorkloadManager manager(platform, options());
    for (std::size_t i = 0; i < jobs_; ++i) manager.submit(specs_[i], arrivals_[i]);
  }

  std::uint64_t chunks_per_job() const { return kFilesPerJob * kChunksPerFile; }

  FleetPoint run(Instruments* ins) {
    FleetPoint point;
    try {
      auto platform = build_platform(spec_, ins);
      cache::CacheConfig cache_config;
      cache_config.capacity_bytes = GiB(2);
      cache_config.policy = cache::EvictionPolicy::Lru;
      cache_config.prefetch.enabled = true;
      cache_config.prefetch.depth = 2;
      cache::CacheFleet fleet(cache_config);
      std::vector<workload::JobSpec> specs = specs_;
      for (auto& spec : specs) spec.options.cache = &fleet;

      const workload::WorkloadResult result =
          run_manager(*platform, options(), specs, arrivals_, ins, &point.run_seconds);
      point.events = platform->sim().executed_events();
      point.makespan = result.makespan;
      check_jobs(result, jobs_, chunks_per_job(), point.out);
      if (fleet.hits() == 0) point.out.fail("cache never hit");
      if (ins) {
        for (cluster::ClusterId s = 0; s < platform->cluster_count(); ++s) {
          ins->totals.cache_evictions += fleet.site(s).evictions();
        }
      }
      Digest digest;
      digest.add(result);
      digest.add(fleet.hits());
      digest.add(fleet.misses());
      point.out.digest = digest.value();
    } catch (const std::exception& e) {
      point.out.attempted = jobs_;
      point.out.fail(std::string("fleet run threw: ") + e.what(), jobs_);
    }
    return point;
  }

 private:
  static constexpr std::uint64_t kArrivalSeed = 42;
  static constexpr std::uint64_t kFilesPerJob = 40;
  static constexpr std::uint64_t kChunksPerFile = 50;

  cluster::PlatformSpec fleet_spec() const {
    cluster::PlatformSpec spec;
    spec.sites.push_back(cluster::PlatformSpec::paper_local_site(local_cores_));
    spec.sites.push_back(cluster::PlatformSpec::paper_cloud_site(cloud_cores_, "cloudA"));
    spec.sites.push_back(cluster::PlatformSpec::paper_cloud_site(cloud_cores_, "cloudB"));
    spec.wan_bandwidth = MBps(125);
    spec.wan_latency = des::from_seconds(ms(25));
    spec.set_wan(1, 2, MBps(80), des::from_seconds(ms(40)));
    spec.node_speed_jitter = 0.03;
    for (cluster::ClusterId provider : {1u, 2u}) {
      storage::FaultProfile& fault = spec.store(provider).fault;
      fault.fail_probability = 0.01;
      fault.throttles.push_back({5.0, 20.0, 0.5, 0.05});
      fault.seed = seed_ ^ (0xfa017u + provider);
    }
    return spec;
  }

  middleware::RunOptions job_options(std::size_t job_index) const {
    middleware::RunOptions o;
    o.profile.name = "perf";
    o.profile.unit_bytes = 64;
    o.profile.bytes_per_second_per_core = MBps(8);
    o.profile.robj_bytes = KiB(64);
    o.random_seed = seed_ + job_index;
    o.retrieval_streams = 4;
    o.retry.max_attempts = 3;
    o.retry.backoff_base_seconds = 0.05;
    o.retry.attempt_timeout_seconds = 20.0;
    o.retry.hedge_delay_seconds = 10.0;
    o.retry.seed = seed_ ^ 0xbac0ff;
    o.reduction_tree = false;
    o.checkpoint_interval_seconds = 2.0;
    o.spot.reclaim_rate_per_hour = 1.0;
    o.spot.notice_seconds = 5.0;
    using Event = middleware::RunOptions::LifecycleEvent;
    if (job_index % 10 == 3) {
      Event ev;
      ev.kind = Event::Kind::Drain;
      ev.site = 1;
      ev.node_index = static_cast<std::uint32_t>(job_index % 5);
      ev.at_seconds = 2.0;
      o.lifecycle.push_back(ev);
    }
    if (job_index % 10 == 7) {
      Event ev;
      ev.kind = Event::Kind::SpotReclaim;
      ev.site = 2;
      ev.node_index = static_cast<std::uint32_t>(job_index % 5);
      ev.at_seconds = 1.5;
      ev.notice_seconds = 3.0;
      o.lifecycle.push_back(ev);
    }
    return o;
  }

  workload::WorkloadOptions options() const {
    workload::WorkloadOptions wopts;
    wopts.policy = workload::SchedulingPolicy::FairShare;
    wopts.tenant_weights = {{"interactive", 4.0}, {"batch", 1.0}};
    wopts.max_concurrent = 6;
    return wopts;
  }

  std::uint64_t seed_;
  unsigned local_cores_ = 0;
  unsigned cloud_cores_ = 0;
  std::size_t jobs_ = 0;
  cluster::PlatformSpec spec_;
  std::vector<workload::JobSpec> specs_;
  std::vector<double> arrivals_;
};

class FleetBurst final : public Workload {
 public:
  void setup(std::uint64_t seed, SpanLog* spans) override {
    rig_ = std::make_unique<FleetRig>(kNodes, seed, spans);
  }
  PassOutput pass(Instruments* ins) override { return rig_->run(ins).out; }

 private:
  static constexpr std::size_t kNodes = 250;
  std::unique_ptr<FleetRig> rig_;
};

// --- paper_sweep ---------------------------------------------------------------
//
// The paper's Figure 3 grid (3 apps x 5 environments) and Figure 4 grid
// (3 apps x 4 core counts). Pass 0 is the paper configuration; the other
// passes draw jitter and scheduler seeds from the workload seed.

class PaperSweep final : public Workload {
 public:
  void setup(std::uint64_t seed, SpanLog* spans) override {
    const apps::PaperApp all_apps[] = {apps::PaperApp::Knn, apps::PaperApp::Kmeans,
                                       apps::PaperApp::PageRank};
    for (std::size_t p = 0; p < kPasses; ++p) {
      for (apps::PaperApp app : all_apps) {
        for (apps::Env env : apps::kAllEnvs) {
          const apps::EnvConfig config = apps::env_config(env, app);
          add_run(p, seed, spans, app, config.local_data_fraction, config.local_cores,
                  config.cloud_cores);
        }
        for (unsigned cores : kScaleCores) add_run(p, seed, spans, app, 0.0, cores, cores);
      }
    }
  }

  PassOutput pass(Instruments* ins) override {
    PassOutput out;
    Digest digest;
    std::vector<double> canonical;
    for (std::size_t i = 0; i < runs_.size(); ++i) {
      const Run& run = runs_[i];
      ++out.attempted;
      try {
        const middleware::RunResult result =
            run_one(run.spec, layouts_[run.layout], run.options, ins);
        if (result.total_jobs() != kChunks) {
          out.fail("paper run " + std::to_string(i) + " processed " +
                   std::to_string(result.total_jobs()) + " chunks");
        } else {
          out.chunks += kChunks;
        }
        digest.add(result);
        if (i < kRunsPerPass) canonical.push_back(result.total_time);
      } catch (const std::exception& e) {
        out.fail("paper run " + std::to_string(i) + " threw: " + e.what());
        canonical.push_back(0.0);
      }
    }
    check_headline(canonical, out);
    out.digest = digest.value();
    return out;
  }

 private:
  static constexpr std::size_t kPasses = 4;
  static constexpr unsigned kScaleCores[] = {4, 8, 16, 32};
  static constexpr std::size_t kEnvs = 5;
  static constexpr std::size_t kRunsPerApp = kEnvs + 4;
  static constexpr std::size_t kRunsPerPass = 3 * kRunsPerApp;
  static constexpr std::uint32_t kChunks = 96;

  struct Run {
    cluster::PlatformSpec spec;
    middleware::RunOptions options;
    std::size_t layout = 0;
  };

  void add_run(std::size_t pass, std::uint64_t seed, SpanLog* spans, apps::PaperApp app,
               double local_fraction, unsigned local_cores, unsigned cloud_cores) {
    Run run;
    run.spec = cluster::PlatformSpec::paper_testbed(local_cores, cloud_cores);
    run.options = apps::paper_run_options(app);
    if (pass > 0) {
      const std::uint64_t salt = pass * 1000 + runs_.size();
      run.spec.jitter_seed = derive(seed, salt);
      run.options.random_seed = derive(seed, salt + 1);
    } else {
      // The data organizer's index for this app and data split.
      cluster::Platform platform(run.spec);
      storage::LayoutSpec lspec;
      lspec.total_bytes = GiB(12);
      lspec.num_files = 32;
      lspec.chunks_per_file = 3;
      lspec.unit_bytes = apps::paper_profile(app).unit_bytes;
      lspec.file_prefix = apps::to_string(app);
      storage::DataLayout layout;
      {
        ScopedSpan span(spans, "storage.build_layout");
        layout = storage::build_layout(lspec);
      }
      storage::assign_stores_by_fraction(layout, local_fraction, platform.local_store_id(),
                                         platform.cloud_store_id());
      layouts_.push_back(std::move(layout));
    }
    run.layout = runs_.size() % kRunsPerPass;
    runs_.push_back(std::move(run));
  }

  /// EXPERIMENTS.md headline: 21.5 % average hybrid slowdown and 85.0 %
  /// scaling efficiency per core doubling, to the printed rounding.
  static void check_headline(const std::vector<double>& t, PassOutput& out) {
    double slowdown = 0.0;
    double efficiency = 0.0;
    for (std::size_t a = 0; a < 3; ++a) {
      const double* app = t.data() + a * kRunsPerApp;
      for (std::size_t e = 2; e < kEnvs; ++e) slowdown += app[e] / app[0] - 1.0;
      for (std::size_t c = kEnvs + 1; c < kRunsPerApp; ++c) {
        efficiency += app[c - 1] / (2.0 * app[c]);
      }
    }
    char got[64];
    std::snprintf(got, sizeof got, "%.1f %.1f", 100.0 * slowdown / 9.0,
                  100.0 * efficiency / 9.0);
    if (std::string(got) != "21.5 85.0") {
      out.fail(std::string("headline numbers drifted: ") + got + " (expected 21.5 85.0)");
    }
  }

  std::vector<storage::DataLayout> layouts_;
  std::vector<Run> runs_;
};

// --- real_reduction ------------------------------------------------------------
//
// run_distributed with a real task and dataset for knn, kmeans and pagerank;
// each distributed robj is checked against a gr_run reference.

class RealReduction final : public Workload {
 public:
  struct Size {
    std::size_t points;
    std::uint32_t pages;
    std::uint64_t edges;
    std::uint32_t files;
    std::uint32_t chunks_per_file;
  };
  explicit RealReduction(Size size) : size_(size) {}

  void setup(std::uint64_t seed, SpanLog* spans) override {
    apps::PointGenSpec pspec;
    pspec.count = size_.points;
    pspec.dim = 8;
    pspec.seed = derive(seed, 1);
    {
      ScopedSpan span(spans, "apps.datagen");
      points_.emplace(apps::generate_points(pspec));
    }
    Rng rng(derive(seed, 2));
    std::vector<float> query(pspec.dim);
    for (float& q : query) q = static_cast<float>(rng.uniform(-10.0, 10.0));
    knn_.emplace(kNeighbors, query);
    auto centroids = apps::mixture_centers(pspec);
    for (auto& c : centroids) {
      for (float& x : c) x += static_cast<float>(rng.uniform(-1.0, 1.0));
    }
    kmeans_.emplace(centroids);

    apps::GraphGenSpec gspec;
    gspec.pages = size_.pages;
    gspec.edges = size_.edges;
    gspec.seed = derive(seed, 3);
    {
      ScopedSpan span(spans, "apps.datagen");
      edges_.emplace(apps::generate_edges(gspec));
    }
    pagerank_.emplace(std::vector<double>(size_.pages, 1.0 / size_.pages),
                      apps::out_degrees(*edges_, size_.pages));

    // gr_run references, with at most nproc (and at most 4) threads.
    engine::GrEngineOptions gr;
    gr.threads = std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
    const auto start = Clock::now();
    const auto reference = [&](const api::GRTask& task, const engine::MemoryDataset& data) {
      ScopedSpan span(spans, "engine.gr_run");
      return engine::gr_run(task, data, gr);
    };
    knn_ref_ = apps::KnnTask::neighbors(*reference(*knn_, *points_));
    kmeans_ref_ = kmeans_->centroids_from(*reference(*kmeans_, *points_));
    pagerank_ref_ = pagerank_->ranks_from(*reference(*pagerank_, *edges_));
    const double bytes = 2.0 * points_->size_bytes() + edges_->size_bytes();
    gr_mb_per_s_ = bytes / 1e6 / seconds_since(start);

    const cluster::Platform platform(spec());
    for (const engine::MemoryDataset* data : {&*points_, &*points_, &*edges_}) {
      ScopedSpan span(spans, "storage.build_layout");
      storage::DataLayout layout = storage::build_layout_for_units(
          data->units(), data->unit_bytes(), size_.files, size_.chunks_per_file);
      storage::assign_stores_by_fraction(layout, 0.5, platform.local_store_id(),
                                         platform.cloud_store_id());
      layouts_.push_back(std::move(layout));
    }
  }

  double gr_mb_per_s() const override { return gr_mb_per_s_; }

  PassOutput pass(Instruments* ins) override {
    PassOutput out;
    Digest digest;
    const api::GRTask* tasks[] = {&*knn_, &*kmeans_, &*pagerank_};
    const engine::MemoryDataset* data[] = {&*points_, &*points_, &*edges_};
    for (std::size_t app = 0; app < 3; ++app) {
      ++out.attempted;
      try {
        std::optional<TimedTask> timed;
        if (ins) timed.emplace(*tasks[app], *ins);
        middleware::RunOptions options;
        options.profile.name = tasks[app]->name();
        options.profile.unit_bytes = data[app]->unit_bytes();
        options.profile.bytes_per_second_per_core = MBps(30);
        options.profile.robj_bytes = 0;  // charge the real serialized size
        options.task = timed ? &*timed : tasks[app];
        options.dataset = data[app];
        const middleware::RunResult result = run_one(spec(), layouts_[app], options, ins);
        digest.add(result);
        const std::string problem = check(app, unwrap(*result.robj));
        if (!problem.empty()) {
          out.fail(problem);
        } else {
          out.chunks += layouts_[app].chunks().size();
        }
      } catch (const std::exception& e) {
        out.fail(tasks[app]->name() + " run threw: " + e.what());
      }
    }
    out.digest = digest.value();
    return out;
  }

 private:
  static constexpr std::size_t kNeighbors = 64;
  /// Tolerance for the floating-point sums, whose merge order differs
  /// between gr_run and the distributed reduction.
  static constexpr double kRelTol = 1e-9;

  static cluster::PlatformSpec spec() { return cluster::PlatformSpec::paper_testbed(16, 16); }

  static bool close(double got, double want) {
    return std::fabs(got - want) <= kRelTol * std::max(std::fabs(want), 1e-300);
  }

  std::string check(std::size_t app, const api::ReductionObject& robj) const {
    if (app == 0) {
      return apps::KnnTask::neighbors(robj) == knn_ref_ ? "" : "knn neighbors differ";
    }
    if (app == 1) {
      const auto got = kmeans_->centroids_from(robj);
      for (std::size_t c = 0; c < got.size(); ++c) {
        for (std::size_t d = 0; d < got[c].size(); ++d) {
          if (!close(got[c][d], kmeans_ref_[c][d])) return "kmeans centroid differs";
        }
      }
      return "";
    }
    const auto got = pagerank_->ranks_from(robj);
    for (std::size_t p = 0; p < got.size(); ++p) {
      if (!close(got[p], pagerank_ref_[p])) return "pagerank rank differs";
    }
    return "";
  }

  Size size_;
  std::optional<engine::MemoryDataset> points_;
  std::optional<engine::MemoryDataset> edges_;
  std::optional<apps::KnnTask> knn_;
  std::optional<apps::KmeansTask> kmeans_;
  std::optional<apps::PageRankTask> pagerank_;
  std::vector<api::TopKMinRobj::Entry> knn_ref_;
  std::vector<std::vector<double>> kmeans_ref_;
  std::vector<double> pagerank_ref_;
  std::vector<storage::DataLayout> layouts_;
  double gr_mb_per_s_ = 0.0;
};

// --- chaos_failover ------------------------------------------------------------
//
// ablation_chaos's region-failover shape, scaled up: a pooled two-tenant
// workload over three sites with k=2 cross-site replication, store QoS, a
// directory-backed elastic pool and seeded random chaos plans. A marker
// dataset makes each job's robj its per-chunk execution count. A pass runs
// several plans: one plan's cost swings with where its faults land, their
// sum much less.

class ChaosFailover final : public Workload {
 public:
  void setup(std::uint64_t seed, SpanLog* spans) override {
    {
      ScopedSpan span(spans, "storage.build_layout");
      layout_ = storage::build_layout_for_units(kUnits, sizeof(apps::WordRecord), kFiles, 2);
    }
    std::vector<apps::WordRecord> records;
    records.reserve(kUnits);
    for (const auto& chunk : layout_.chunks()) {
      for (std::uint64_t u = 0; u < chunk.units; ++u) records.push_back(apps::WordRecord{chunk.id});
    }
    data_.emplace(engine::MemoryDataset::from_records(records));
    const cluster::Platform platform(spec());
    storage::assign_stores_by_weights(layout_, {1.0, 1.0, 1.0},
                                      {platform.store_of_cluster(0),
                                       platform.store_of_cluster(1),
                                       platform.store_of_cluster(2)});

    // A clean run sizes the fault horizon to the workload's makespan.
    PassOutput clean;
    Digest unused;
    const double clean_makespan = run(nullptr, nullptr, clean, unused);
    if (clean.failed > 0) throw std::runtime_error("chaos_failover clean run: " + clean.failure);

    chaos::RandomPlanOptions po;
    po.sites = 3;
    po.nodes_per_site = 4;
    po.horizon_seconds = 0.7 * (clean_makespan - kBootSeconds);
    po.max_window_seconds = 0.3 * clean_makespan;
    // Two WAN link faults and one site blackout. Store outages and node
    // events compose into lost work in the simulator today (see README.md),
    // and every operation of a benchmark workload must succeed.
    po.link_faults = 2;
    po.site_outages = 1;
    po.store_outages = 0;
    po.node_crashes = 0;
    po.node_drains = 0;
    po.spot_reclaims = 0;
    for (std::uint64_t i = 0; i < kPlans; ++i) {
      po.seed = derive(seed, 4 + i);
      ScopedSpan span(spans, "chaos.random_plan");
      chaos::ChaosPlan plan = chaos::random_plan(po);
      // Faults land after the pool's boot window, while slaves hold work.
      for (auto& ev : plan.events) ev.at_seconds += kBootSeconds;
      plans_.push_back(std::move(plan));
    }
  }

  PassOutput pass(Instruments* ins) override {
    PassOutput out;
    Digest digest;
    for (const chaos::ChaosPlan& plan : plans_) run(&plan, ins, out, digest);
    out.digest = digest.value();
    return out;
  }

 private:
  static constexpr std::uint64_t kUnits = 4800000;
  static constexpr std::uint32_t kFiles = 48;
  static constexpr double kBootSeconds = 2.0;
  static constexpr std::uint64_t kPlans = 8;

  static cluster::PlatformSpec spec() {
    cluster::PlatformSpec spec;
    spec.sites.push_back(cluster::PlatformSpec::paper_local_site(32));
    spec.sites.push_back(cluster::PlatformSpec::paper_cloud_site(32, "east"));
    spec.sites.push_back(cluster::PlatformSpec::paper_cloud_site(32, "west"));
    spec.wan_bandwidth = MBps(125);
    spec.wan_latency = des::from_seconds(ms(25));
    spec.set_wan(1, 2, MBps(60), des::from_seconds(ms(60)));
    // Both cloud stores sit on their own site's fabric. The simulator builds
    // no route between two fabric-attached store sites, and replica repair
    // from one cloud store to the other would need one.
    for (cluster::ClusterId cloud : {1u, 2u}) spec.store(cloud).fabric_bandwidth = 0.0;
    return spec;
  }

  /// One workload run under `plan` (null: no faults); returns its makespan.
  double run(const chaos::ChaosPlan* plan, Instruments* ins, PassOutput& out, Digest& digest) {
    const std::size_t jobs = 2;
    try {
      apps::WordCountTask task;
      std::optional<TimedTask> timed;
      if (ins) timed.emplace(task, *ins);

      auto platform = build_platform(spec(), ins);
      directory::PlatformDirectory dir(*platform);
      dir.bootstrap();
      replica::ReplicationConfig rcfg;
      rcfg.replication_factor = 2;
      rcfg.placement = replica::PlacementPolicy::CrossSite;
      replica::ReplicaSet replicas{rcfg};
      qos::QosConfig qcfg;
      qcfg.tenant_weights = {{"alice", 1.0}, {"bob", 2.0}};
      qos::StoreQos store_qos{qcfg};

      workload::WorkloadOptions wopts;
      wopts.policy = workload::SchedulingPolicy::FairShare;
      wopts.directory = &dir;
      wopts.pool.enabled = true;
      wopts.pool.boot_seconds = kBootSeconds;

      std::vector<workload::JobSpec> specs;
      for (std::size_t i = 0; i < jobs; ++i) {
        workload::JobSpec spec;
        spec.name = i == 0 ? "scan" : "probe";
        spec.tenant = i == 0 ? "alice" : "bob";
        spec.layout = layout_;
        middleware::RunOptions& o = spec.options;
        o.profile.name = "chaos-failover";
        o.profile.unit_bytes = sizeof(apps::WordRecord);
        o.profile.bytes_per_second_per_core = KiB(512);
        o.profile.per_job_overhead_seconds = 0.2;
        o.profile.robj_bytes = KiB(16);
        o.reduction_tree = false;
        o.random_seed = 42 + i;
        o.task = timed ? static_cast<const api::GRTask*>(&*timed) : &task;
        o.dataset = &*data_;
        o.retry.max_attempts = 3;
        o.retry.backoff_base_seconds = 0.05;
        o.replication = &replicas;
        o.qos = &store_qos;
        o.chaos = plan;
        specs.push_back(std::move(spec));
      }
      const workload::WorkloadResult result =
          run_manager(*platform, wopts, specs, std::vector<double>(jobs, 0.0), ins);
      check_jobs(result, jobs, layout_.chunks().size(), out);
      for (const auto& job : result.jobs) {
        const auto once = job.run.robj
                              ? chaos::audit_exactly_once(executions(unwrap(*job.run.robj)))
                              : chaos::AuditResult{false, "no reduction object"};
        if (!once.ok) out.fail("job " + job.name + " exactly-once: " + once.detail);
      }
      digest.add(result);
      return result.makespan;
    } catch (const std::exception& e) {
      out.attempted += jobs;
      out.fail(std::string("chaos run threw: ") + e.what(), jobs);
      return 0.0;
    }
  }

  /// Per-chunk execution counts from a marker robj; a fractional residue
  /// (a partial double count) reads as a count of 0.
  std::vector<std::uint32_t> executions(const api::ReductionObject& robj) const {
    const auto& got = dynamic_cast<const api::HashCountRobj&>(robj);
    std::vector<std::uint32_t> counts(layout_.chunks().size(), 0);
    for (const auto& chunk : layout_.chunks()) {
      const double units = static_cast<double>(chunk.units);
      const auto count = static_cast<std::uint32_t>(got.get(chunk.id) / units + 0.5);
      if (std::fabs(count * units - got.get(chunk.id)) <= 1e-6) counts[chunk.id] = count;
    }
    return counts;
  }

  storage::DataLayout layout_;
  std::optional<engine::MemoryDataset> data_;
  std::vector<chaos::ChaosPlan> plans_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "fleet_burst") return std::make_unique<FleetBurst>();
  if (name == "paper_sweep") return std::make_unique<PaperSweep>();
  if (name == "real_reduction") {
    return std::make_unique<RealReduction>(RealReduction::Size{1000000, 500000, 4000000, 8, 4});
  }
  if (name == "chaos_failover") return std::make_unique<ChaosFailover>();
  return nullptr;
}

std::unique_ptr<Workload> make_kernel_side_workload() {
  return std::make_unique<RealReduction>(RealReduction::Size{50000, 5000, 100000, 4, 2});
}

FleetPoint run_fleet_point(std::size_t nodes, std::uint64_t seed, Instruments* ins) {
  FleetRig rig(nodes, seed, ins ? &ins->spans : nullptr);
  return rig.run(ins);
}

}  // namespace perfbench
