// Integration tests for the full middleware: head/master/slave protocol on a
// simulated platform. Verifies every job processed exactly once, timing
// decomposition consistency, work stealing and its ablations, and — via the
// real-execution hook — that the distributed run computes bit-identical
// results to a serial run of the same kernel. The KernelLaneErrors tests
// check that a kernel exception thrown on a worker thread surfaces from
// run_distributed and WorkloadManager::run, even when the slave that threw
// is crashed before it ships its robj.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <functional>
#include <stdexcept>

#include "apps/datagen.hpp"
#include "apps/knn.hpp"
#include "apps/pagerank.hpp"
#include "apps/experiments.hpp"
#include "apps/wordcount.hpp"
#include "chaos/chaos_plan.hpp"
#include "common/units.hpp"
#include "directory/platform_directory.hpp"
#include "engine/gr_engine.hpp"
#include "middleware/job_execution.hpp"
#include "middleware/runtime.hpp"
#include "trace/trace.hpp"
#include "workload/workload_manager.hpp"

namespace cloudburst::middleware {
namespace {

using namespace cloudburst::units;
using apps::PaperApp;
using cluster::kCloudSite;
using cluster::kLocalSite;
using cluster::Platform;
using cluster::PlatformSpec;

/// Small platform + layout + options for fast protocol tests.
struct Rig {
  PlatformSpec spec;
  RunOptions options;
  double local_fraction;
  std::uint32_t files, chunks_per_file;
  std::uint64_t total_bytes;

  Rig() {
    spec = PlatformSpec::paper_testbed(16, 16);
    options.profile.name = "test";
    options.profile.unit_bytes = 64;
    options.profile.bytes_per_second_per_core = MBps(50);
    options.profile.robj_bytes = KiB(64);
    local_fraction = 0.5;
    files = 8;
    chunks_per_file = 3;
    total_bytes = MiB(1536);
  }

  storage::DataLayout layout(const Platform& platform) const {
    storage::LayoutSpec lspec;
    lspec.total_bytes = total_bytes;
    lspec.num_files = files;
    lspec.chunks_per_file = chunks_per_file;
    lspec.unit_bytes = options.profile.unit_bytes;
    storage::DataLayout layout = storage::build_layout(lspec);
    storage::assign_stores_by_fraction(layout, local_fraction, platform.local_store_id(),
                                       platform.cloud_store_id());
    return layout;
  }

  RunResult run() {
    Platform platform(spec);
    return run_distributed(platform, layout(platform), options);
  }

  void validate() {
    Platform platform(spec);
    validate_run(platform, layout(platform), options);
  }
};

TEST(Runtime, AllJobsProcessedExactlyOnce) {
  Rig rig;
  const auto result = rig.run();
  EXPECT_EQ(result.total_jobs(), 24u);
  std::uint32_t node_jobs = 0;
  for (const auto& n : result.nodes) node_jobs += n.jobs;
  EXPECT_EQ(node_jobs, 24u);
}

TEST(Runtime, CompletesWithPositiveTime) {
  Rig rig;
  const auto result = rig.run();
  EXPECT_GT(result.total_time, 0.0);
  EXPECT_GE(result.global_reduction_time, 0.0);
}

TEST(Runtime, DeterministicAcrossRuns) {
  Rig a, b;
  const auto ra = a.run();
  const auto rb = b.run();
  EXPECT_DOUBLE_EQ(ra.total_time, rb.total_time);
  ASSERT_EQ(ra.nodes.size(), rb.nodes.size());
  for (std::size_t i = 0; i < ra.nodes.size(); ++i) {
    EXPECT_DOUBLE_EQ(ra.nodes[i].processing, rb.nodes[i].processing);
    EXPECT_DOUBLE_EQ(ra.nodes[i].retrieval, rb.nodes[i].retrieval);
    EXPECT_EQ(ra.nodes[i].jobs, rb.nodes[i].jobs);
  }
}

TEST(Runtime, NodeTimesAreConsistent) {
  Rig rig;
  const auto result = rig.run();
  for (const auto& n : result.nodes) {
    EXPECT_GT(n.processing, 0.0) << n.name;
    EXPECT_GT(n.retrieval, 0.0) << n.name;
    EXPECT_GE(n.wait, 0.0) << n.name;
    EXPECT_LE(n.finish_time, result.total_time) << n.name;
    // With pipeline depth 1 a node cannot be busier than elapsed time.
    EXPECT_LE(n.processing + n.retrieval, n.finish_time + 1e-9) << n.name;
  }
}

TEST(Runtime, ClusterAggregatesMatchNodes) {
  Rig rig;
  const auto result = rig.run();
  for (cluster::ClusterId side : {kLocalSite, kCloudSite}) {
    const auto& c = result.side(side);
    double proc = 0;
    std::uint32_t count = 0;
    for (const auto& n : result.nodes) {
      if (n.cluster != side) continue;
      proc += n.processing;
      ++count;
    }
    ASSERT_EQ(c.nodes, count);
    EXPECT_NEAR(c.processing, proc / count, 1e-9);
  }
}

TEST(Runtime, IdleTimesComplementary) {
  Rig rig;
  const auto result = rig.run();
  const auto& local = result.side(kLocalSite);
  const auto& cloud = result.side(kCloudSite);
  // At least one side has zero idle (the later finisher).
  EXPECT_NEAR(std::min(local.idle_time, cloud.idle_time), 0.0, 1e-9);
  EXPECT_NEAR(std::abs(local.proc_end_time - cloud.proc_end_time),
              std::max(local.idle_time, cloud.idle_time), 1e-9);
}

TEST(Runtime, SingleClusterRunWorks) {
  Rig rig;
  rig.spec = PlatformSpec::paper_testbed(32, 0);
  rig.local_fraction = 1.0;
  const auto result = rig.run();
  EXPECT_EQ(result.total_jobs(), 24u);
  EXPECT_EQ(result.side(kCloudSite).nodes, 0u);
  EXPECT_EQ(result.side(kLocalSite).jobs_stolen, 0u);
}

TEST(Runtime, CloudOnlyRunWorks) {
  Rig rig;
  rig.spec = PlatformSpec::paper_testbed(0, 32);
  rig.local_fraction = 0.0;
  const auto result = rig.run();
  EXPECT_EQ(result.total_jobs(), 24u);
  EXPECT_EQ(result.side(kLocalSite).nodes, 0u);
  // All data on S3 == the cloud's own store: nothing counts as stolen.
  EXPECT_EQ(result.side(kCloudSite).jobs_stolen, 0u);
}

TEST(Runtime, SkewedDataCausesStealing) {
  Rig rig;
  rig.local_fraction = 1.0 / 8;  // 1 of 8 files local
  const auto result = rig.run();
  const auto& local = result.side(kLocalSite);
  EXPECT_GT(local.jobs_stolen, 0u) << "local cluster should steal S3 jobs";
  EXPECT_EQ(local.jobs_local, 3u);  // its single file's chunks
}

TEST(Runtime, StealingDisabledPartitionsWork) {
  Rig rig;
  rig.options.policy.allow_stealing = false;
  rig.local_fraction = 1.0 / 8;
  const auto result = rig.run();
  // Everything still gets processed (each side handles its own store)...
  EXPECT_EQ(result.total_jobs(), 24u);
  const auto& local = result.side(kLocalSite);
  const auto& cloud = result.side(kCloudSite);
  EXPECT_EQ(local.jobs_stolen + cloud.jobs_stolen, 0u);
  EXPECT_EQ(local.jobs_local, 3u);
  EXPECT_EQ(cloud.jobs_local, 21u);
}

TEST(Runtime, StealingImprovesSkewedRuntime) {
  Rig with, without;
  with.local_fraction = without.local_fraction = 1.0 / 8;
  without.options.policy.allow_stealing = false;
  EXPECT_LT(with.run().total_time, without.run().total_time);
}

TEST(Runtime, MoreCoresRunFaster) {
  Rig small, large;
  small.spec = PlatformSpec::paper_testbed(8, 8);
  large.spec = PlatformSpec::paper_testbed(32, 32);
  EXPECT_LT(large.run().total_time, small.run().total_time);
}

TEST(Runtime, LargerRobjRaisesSync) {
  Rig small, large;
  small.options.profile.robj_bytes = KiB(8);
  large.options.profile.robj_bytes = MiB(256);
  const auto rs = small.run();
  const auto rl = large.run();
  const double sync_small = rs.side(kLocalSite).sync + rs.side(kCloudSite).sync;
  const double sync_large = rl.side(kLocalSite).sync + rl.side(kCloudSite).sync;
  EXPECT_GT(sync_large, sync_small * 1.5);
}

TEST(Runtime, PipelineDepthOverlapsRetrieval) {
  // Single node so prefetching's overlap benefit is isolated from its
  // job-hoarding cost (with many nodes and few jobs, hoarding can win).
  Rig serial, pipelined;
  serial.spec = PlatformSpec::paper_testbed(8, 0);
  serial.local_fraction = 1.0;
  pipelined.spec = PlatformSpec::paper_testbed(8, 0);
  pipelined.local_fraction = 1.0;
  pipelined.options.pipeline_depth = 2;
  EXPECT_LT(pipelined.run().total_time, 0.8 * serial.run().total_time);
}

TEST(Runtime, RejectsInvalidSetups) {
  Rig rig;
  Platform platform(rig.spec);
  storage::DataLayout empty;
  EXPECT_THROW(run_distributed(platform, empty, rig.options), std::invalid_argument);

  // task without dataset
  Rig rig2;
  apps::WordCountTask task;
  rig2.options.task = &task;
  EXPECT_THROW(rig2.run(), std::invalid_argument);
}

TEST(Runtime, ValidateRunRejectsLayoutWithoutStores) {
  Rig rig;
  Platform platform(rig.spec);
  storage::DataLayout layout = rig.layout(platform);
  EXPECT_NO_THROW(validate_run(platform, layout, rig.options));
  layout.move_file(1, storage::kInvalidStore);
  EXPECT_THROW(validate_run(platform, layout, rig.options), std::invalid_argument);
  layout.move_file(1, static_cast<storage::StoreId>(platform.store_count()));
  EXPECT_THROW(validate_run(platform, layout, rig.options), std::invalid_argument);
}

TEST(Runtime, RejectsPlatformWithoutNodes) {
  Rig rig;
  rig.spec = PlatformSpec::paper_testbed(0, 0);
  EXPECT_THROW(rig.run(), std::invalid_argument);
}

TEST(Runtime, StaticAssignmentProcessesEverythingWithoutStealing) {
  Rig rig;
  rig.options.static_assignment = true;
  rig.local_fraction = 1.0 / 8;  // skew that pooling would steal across
  const auto result = rig.run();
  EXPECT_EQ(result.total_jobs(), 24u);
  EXPECT_EQ(result.side(kLocalSite).jobs_stolen, 0u);
  EXPECT_EQ(result.side(kCloudSite).jobs_stolen, 0u);
  EXPECT_EQ(result.side(kLocalSite).jobs_local, 3u);
  EXPECT_EQ(result.side(kCloudSite).jobs_local, 21u);
}

TEST(Runtime, StaticAssignmentLosesUnderSkew) {
  // Compute-bound profile: stealing is pure win (fetch cost negligible), so
  // the pooling advantage under data skew is unambiguous.
  Rig pooled, fixed;
  pooled.local_fraction = fixed.local_fraction = 1.0 / 8;
  pooled.options.profile.bytes_per_second_per_core = MBps(2);
  pooled.options.policy.steal_reserve = 0;
  fixed.options = pooled.options;
  fixed.options.static_assignment = true;
  EXPECT_LT(pooled.run().total_time, 0.8 * fixed.run().total_time);
}

TEST(Runtime, StaticAssignmentSingleClusterTakesEverything) {
  Rig rig;
  rig.spec = PlatformSpec::paper_testbed(32, 0);
  rig.local_fraction = 0.5;  // half the data on S3, but no cloud cluster
  rig.options.static_assignment = true;
  const auto result = rig.run();
  EXPECT_EQ(result.total_jobs(), 24u);
}

TEST(Runtime, StaticAssignmentExcludesFailuresAndElastic) {
  Rig rig;
  rig.options.static_assignment = true;
  rig.options.reduction_tree = false;
  rig.options.lifecycle.push_back(
      {RunOptions::LifecycleEvent::Kind::Crash, kCloudSite, 0, 1.0});
  EXPECT_THROW(rig.run(), std::invalid_argument);

  Rig rig2;
  rig2.options.static_assignment = true;
  rig2.options.reduction_tree = false;
  rig2.options.elastic.enabled = true;
  rig2.options.elastic.deadline_seconds = 1.0;
  EXPECT_THROW(rig2.run(), std::invalid_argument);
}

TEST(Runtime, ValidateRunRejectsStaticAssignmentWithElastic) {
  // Rejected up front, so a workload refuses the job at submission instead of
  // aborting mid-run when the job starts.
  Rig rig;
  rig.options.static_assignment = true;
  rig.options.reduction_tree = false;
  rig.options.elastic.enabled = true;
  rig.options.elastic.deadline_seconds = 1.0;
  EXPECT_THROW(rig.validate(), std::invalid_argument);
}

TEST(Runtime, ValidateRunTreeAndStaticModesExcludeWorkTrackingFeatures) {
  // Each feature below needs the master to track per-slave work: it is
  // accepted in direct mode, rejected under the reduction tree, and rejected
  // under static assignment — except checkpointing, which composes with a
  // static plan.
  Rig rig;
  Platform platform(rig.spec);
  const storage::DataLayout layout = rig.layout(platform);
  chaos::ChaosPlan link_fault;
  chaos::ChaosEvent fault;
  fault.kind = chaos::ChaosEvent::Kind::LinkFault;
  fault.site_a = kLocalSite;
  fault.site_b = kCloudSite;
  fault.at_seconds = 1.0;
  fault.duration_seconds = 1.0;
  fault.factor = 0.5;
  link_fault.events.push_back(fault);

  struct Feature {
    const char* name;
    std::function<void(RunOptions&)> enable;
    bool composes_with_static;
  };
  const Feature features[] = {
      {"checkpoint", [](RunOptions& o) { o.checkpoint_interval_seconds = 1.0; }, true},
      {"elastic",
       [](RunOptions& o) {
         o.elastic.enabled = true;
         o.elastic.deadline_seconds = 1.0;
       },
       false},
      {"node event",
       [](RunOptions& o) {
         o.lifecycle.push_back({RunOptions::LifecycleEvent::Kind::Crash, kCloudSite, 0, 1.0});
       },
       false},
      {"spot", [](RunOptions& o) { o.spot.reclaim_rate_per_hour = 1.0; }, false},
      {"migration", [](RunOptions& o) { o.migration.standby_nodes = 1; }, false},
      {"chaos", [&link_fault](RunOptions& o) { o.chaos = &link_fault; }, false},
  };
  for (const Feature& f : features) {
    RunOptions direct = rig.options;
    direct.reduction_tree = false;
    f.enable(direct);
    EXPECT_NO_THROW(validate_run(platform, layout, direct)) << f.name;

    RunOptions tree = direct;
    tree.reduction_tree = true;
    EXPECT_THROW(validate_run(platform, layout, tree), std::invalid_argument) << f.name;

    RunOptions fixed = direct;
    fixed.static_assignment = true;
    if (f.composes_with_static) {
      EXPECT_NO_THROW(validate_run(platform, layout, fixed)) << f.name;
    } else {
      EXPECT_THROW(validate_run(platform, layout, fixed), std::invalid_argument) << f.name;
    }
  }

  // An empty chaos plan injects nothing, so the tree may keep it.
  const chaos::ChaosPlan empty;
  RunOptions tree = rig.options;
  tree.reduction_tree = true;
  tree.chaos = &empty;
  EXPECT_NO_THROW(validate_run(platform, layout, tree));
}

// --- retry policy rules ------------------------------------------------------
// Each retry delay reaches des::from_seconds, so validate_run turns away a
// policy that would hand it a NaN, an infinity or a negative value.

TEST(Runtime, ValidateRunRejectsRetryWithoutAttempts) {
  Rig rig;
  rig.options.retry.max_attempts = 0;
  EXPECT_THROW(rig.validate(), std::invalid_argument);
  rig.options.retry.max_attempts = 1;
  EXPECT_NO_THROW(rig.validate());
}

TEST(Runtime, ValidateRunRejectsRetryBackoffBaseBelowOneMillisecond) {
  for (const double base : {0.0, 5e-4, -1.0, std::nan(""), HUGE_VAL}) {
    Rig rig;
    rig.options.retry.backoff_base_seconds = base;
    EXPECT_THROW(rig.validate(), std::invalid_argument) << base;
  }
  Rig rig;
  rig.options.retry.backoff_base_seconds = 1e-3;
  EXPECT_NO_THROW(rig.validate());
}

TEST(Runtime, ValidateRunRejectsRetryBackoffMultiplierNotPositive) {
  for (const double multiplier : {0.0, -2.0, std::nan(""), HUGE_VAL}) {
    Rig rig;
    rig.options.retry.backoff_multiplier = multiplier;
    EXPECT_THROW(rig.validate(), std::invalid_argument) << multiplier;
  }
  Rig rig;
  rig.options.retry.backoff_multiplier = 0.5;  // a shrinking backoff is allowed
  EXPECT_NO_THROW(rig.validate());
}

TEST(Runtime, ValidateRunRejectsRetryBackoffMaxBelowBase) {
  for (const double cap : {0.01, std::nan(""), HUGE_VAL}) {
    Rig rig;
    rig.options.retry.backoff_base_seconds = 0.05;
    rig.options.retry.backoff_max_seconds = cap;
    EXPECT_THROW(rig.validate(), std::invalid_argument) << cap;
  }
  Rig rig;
  rig.options.retry.backoff_base_seconds = 0.05;
  rig.options.retry.backoff_max_seconds = 0.05;
  EXPECT_NO_THROW(rig.validate());
}

TEST(Runtime, ValidateRunRejectsRetryJitterOutsideUnitInterval) {
  for (const double jitter : {-0.1, 1.5, std::nan("")}) {
    Rig rig;
    rig.options.retry.jitter_fraction = jitter;
    EXPECT_THROW(rig.validate(), std::invalid_argument) << jitter;
  }
  for (const double jitter : {0.0, 1.0}) {
    Rig rig;
    rig.options.retry.jitter_fraction = jitter;
    EXPECT_NO_THROW(rig.validate()) << jitter;
  }
}

TEST(Runtime, ValidateRunRejectsNegativeOrNonFiniteRetryTimeoutAndHedge) {
  for (const double bad : {-1.0, std::nan(""), HUGE_VAL}) {
    Rig timeout;
    timeout.options.retry.attempt_timeout_seconds = bad;
    EXPECT_THROW(timeout.validate(), std::invalid_argument) << bad;
    Rig hedge;
    hedge.options.retry.hedge_delay_seconds = bad;
    EXPECT_THROW(hedge.validate(), std::invalid_argument) << bad;
  }
}

// --- timing rules ------------------------------------------------------------
// A negative delay throws from Simulator::schedule mid-run and a NaN or an
// infinity reaches des::from_seconds, so validate_run turns them away first.

/// validate_run on a direct-mode Rig after `set` writes `value` into its options.
void validate_direct(void (*set)(RunOptions&, double), double value) {
  Rig rig;
  rig.options.reduction_tree = false;
  set(rig.options, value);
  rig.validate();
}

/// Every value in `bad` is turned away; `good` passes.
void expect_rejects(void (*set)(RunOptions&, double), std::initializer_list<double> bad,
                    double good) {
  for (const double value : bad) {
    EXPECT_THROW(validate_direct(set, value), std::invalid_argument) << value;
  }
  EXPECT_NO_THROW(validate_direct(set, good)) << good;
}

TEST(Runtime, ValidateRunRejectsNegativeOrNonFiniteFailureDetection) {
  expect_rejects([](RunOptions& o, double v) { o.failure_detection_seconds = v; },
                 {-1.0, std::nan(""), HUGE_VAL}, 0.0);
}

TEST(Runtime, ValidateRunRejectsNegativeOrNonFiniteCheckpointInterval) {
  expect_rejects([](RunOptions& o, double v) { o.checkpoint_interval_seconds = v; },
                 {-1.0, std::nan(""), HUGE_VAL}, 2.0);
}

TEST(Runtime, ValidateRunRejectsNegativeOrNonFiniteElasticBootTime) {
  expect_rejects(
      [](RunOptions& o, double v) {
        o.elastic.enabled = true;
        o.elastic.boot_seconds = v;
      },
      {-1.0, std::nan(""), HUGE_VAL}, 0.0);
}

TEST(Runtime, ValidateRunRejectsNonFiniteElasticCheckInterval) {
  expect_rejects(
      [](RunOptions& o, double v) {
        o.elastic.enabled = true;
        o.elastic.check_interval_seconds = v;
      },
      {std::nan(""), HUGE_VAL}, 5.0);
}

TEST(Runtime, ValidateRunRejectsNonFiniteMigrationBootTime) {
  expect_rejects(
      [](RunOptions& o, double v) {
        o.migration.standby_nodes = 1;
        o.migration.boot_seconds = v;
      },
      {std::nan(""), HUGE_VAL}, 60.0);
}

TEST(Runtime, ValidateRunRejectsNonFiniteSpotReclaimRate) {
  expect_rejects([](RunOptions& o, double v) { o.spot.reclaim_rate_per_hour = v; },
                 {std::nan(""), HUGE_VAL}, 1.0);
}

TEST(Runtime, SecondRunOnTheSamePlatformTimesItselfFromItsOwnStart) {
  // docs/API.md's cold/warm cache example: two runs back to back on one
  // Platform. The second starts where the first drained, reads the chunks
  // the first cached, and its total_time counts from its own start.
  Rig rig;
  Platform platform(rig.spec);
  const storage::DataLayout layout = rig.layout(platform);
  cache::CacheConfig cfg;
  cfg.capacity_bytes = GiB(16);
  cache::CacheFleet fleet(cfg);
  rig.options.cache = &fleet;

  const RunResult cold = run_distributed(platform, layout, rig.options);
  const double cold_drained = des::to_seconds(platform.sim().now());
  const RunResult warm = run_distributed(platform, layout, rig.options);
  const double warm_drained = des::to_seconds(platform.sim().now());

  EXPECT_EQ(cold.total_jobs(), 24u);
  EXPECT_EQ(warm.total_jobs(), 24u);
  EXPECT_GE(cold_drained, cold.total_time);
  EXPECT_GT(warm.totals().cache_hits, cold.totals().cache_hits);
  EXPECT_GT(warm.total_time, 0.0);
  EXPECT_LE(warm.total_time, warm_drained - cold_drained);
}

TEST(Runtime, StaticAssignmentRealExecutionCorrect) {
  apps::WordGenSpec wspec;
  wspec.count = 12000;
  wspec.vocabulary = 37;
  wspec.seed = 31;
  const auto data = apps::generate_words(wspec);
  apps::WordCountTask task;
  const auto ref = engine::gr_run(task, data, engine::GrEngineOptions{});
  const auto& ref_counts = dynamic_cast<const api::HashCountRobj&>(*ref);

  Platform platform(PlatformSpec::paper_testbed(16, 16));
  storage::DataLayout layout =
      storage::build_layout_for_units(data.units(), data.unit_bytes(), 4, 3);
  storage::assign_stores_by_fraction(layout, 0.5, platform.local_store_id(),
                                     platform.cloud_store_id());
  RunOptions options;
  options.profile.unit_bytes = data.unit_bytes();
  options.profile.bytes_per_second_per_core = MBps(10);
  options.profile.robj_bytes = 0;
  options.static_assignment = true;
  options.task = &task;
  options.dataset = &data;
  const auto result = run_distributed(platform, layout, options);
  ASSERT_NE(result.robj, nullptr);
  const auto& got = dynamic_cast<const api::HashCountRobj&>(*result.robj);
  ASSERT_EQ(got.distinct_keys(), ref_counts.distinct_keys());
  for (const auto& [k, v] : ref_counts.counts()) EXPECT_DOUBLE_EQ(got.get(k), v);
}

// --- real execution through the simulated distributed system -------------------

TEST(RuntimeRealExecution, WordcountMatchesSerialEngine) {
  apps::WordGenSpec wspec;
  wspec.count = 24000;
  wspec.vocabulary = 101;
  wspec.seed = 77;
  const auto data = apps::generate_words(wspec);
  apps::WordCountTask task;

  // Serial reference through the shared-memory engine.
  engine::GrEngineOptions gr_options;
  gr_options.threads = 1;
  const auto ref = engine::gr_run(task, data, gr_options);
  const auto& ref_counts = dynamic_cast<const api::HashCountRobj&>(*ref);

  // Distributed: layout whose units tile the dataset exactly.
  Platform platform(PlatformSpec::paper_testbed(16, 16));
  storage::DataLayout layout =
      storage::build_layout_for_units(data.units(), data.unit_bytes(), 6, 4);
  storage::assign_stores_by_fraction(layout, 0.5, platform.local_store_id(),
                                     platform.cloud_store_id());

  RunOptions options;
  options.profile.unit_bytes = data.unit_bytes();
  options.profile.bytes_per_second_per_core = MBps(10);
  options.profile.robj_bytes = 0;  // charge actual serialized size
  options.task = &task;
  options.dataset = &data;

  const auto result = run_distributed(platform, layout, options);
  ASSERT_NE(result.robj, nullptr);
  const auto& got = dynamic_cast<const api::HashCountRobj&>(*result.robj);
  ASSERT_EQ(got.distinct_keys(), ref_counts.distinct_keys());
  for (const auto& [k, v] : ref_counts.counts()) {
    EXPECT_DOUBLE_EQ(got.get(k), v) << "word " << k;
  }
}

TEST(RuntimeRealExecution, RejectsMismatchedTiling) {
  apps::WordGenSpec wspec;
  wspec.count = 1000;
  const auto data = apps::generate_words(wspec);
  apps::WordCountTask task;

  Platform platform(PlatformSpec::paper_testbed(8, 8));
  storage::LayoutSpec lspec;
  lspec.total_bytes = data.size_bytes() + 800;  // layout larger than dataset
  lspec.num_files = 2;
  lspec.chunks_per_file = 2;
  lspec.unit_bytes = 8;
  storage::DataLayout layout = storage::build_layout(lspec);
  storage::assign_stores_by_fraction(layout, 1.0, platform.local_store_id(),
                                     platform.cloud_store_id());

  RunOptions options;
  options.profile.unit_bytes = 8;
  options.profile.bytes_per_second_per_core = MBps(10);
  options.task = &task;
  options.dataset = &data;
  EXPECT_THROW(run_distributed(platform, layout, options), std::invalid_argument);
}

class RealExecSweep : public ::testing::TestWithParam<std::tuple<double, unsigned, unsigned>> {};

TEST_P(RealExecSweep, DistributedWordcountInvariantAcrossTopologies) {
  const auto [fraction, local_cores, cloud_cores] = GetParam();
  apps::WordGenSpec wspec;
  wspec.count = 12000;
  wspec.vocabulary = 53;
  wspec.seed = 123;
  const auto data = apps::generate_words(wspec);
  apps::WordCountTask task;

  engine::GrEngineOptions gr_options;
  const auto ref = engine::gr_run(task, data, gr_options);
  const auto& ref_counts = dynamic_cast<const api::HashCountRobj&>(*ref);

  Platform platform(PlatformSpec::paper_testbed(local_cores, cloud_cores));
  storage::DataLayout layout =
      storage::build_layout_for_units(data.units(), data.unit_bytes(), 4, 3);
  storage::assign_stores_by_fraction(layout, fraction, platform.local_store_id(),
                                     platform.cloud_store_id());

  RunOptions options;
  options.profile.unit_bytes = data.unit_bytes();
  options.profile.bytes_per_second_per_core = MBps(20);
  options.profile.robj_bytes = 0;
  options.task = &task;
  options.dataset = &data;

  const auto result = run_distributed(platform, layout, options);
  ASSERT_NE(result.robj, nullptr);
  const auto& got = dynamic_cast<const api::HashCountRobj&>(*result.robj);
  ASSERT_EQ(got.distinct_keys(), ref_counts.distinct_keys());
  for (const auto& [k, v] : ref_counts.counts()) EXPECT_DOUBLE_EQ(got.get(k), v);
}

TEST(RuntimeRealExecution, KnnMatchesSharedMemoryEngine) {
  apps::PointGenSpec gen;
  gen.count = 12000;
  gen.dim = 5;
  gen.seed = 21;
  const auto data = apps::generate_points(gen);
  apps::KnnTask task(50, std::vector<float>(5, 1.0f));

  engine::GrEngineOptions gr_options;
  gr_options.threads = 3;
  const auto serial = apps::KnnTask::neighbors(*engine::gr_run(task, data, gr_options));

  Platform platform(PlatformSpec::paper_testbed(16, 16));
  storage::DataLayout layout =
      storage::build_layout_for_units(data.units(), data.unit_bytes(), 5, 3);
  storage::assign_stores_by_fraction(layout, 1.0 / 3, platform.local_store_id(),
                                     platform.cloud_store_id());
  RunOptions options;
  options.profile.unit_bytes = data.unit_bytes();
  options.profile.bytes_per_second_per_core = MBps(30);
  options.profile.robj_bytes = 0;
  options.task = &task;
  options.dataset = &data;
  const auto result = run_distributed(platform, layout, options);
  ASSERT_NE(result.robj, nullptr);
  EXPECT_EQ(apps::KnnTask::neighbors(*result.robj), serial);
}

TEST(RuntimeRealExecution, PagerankIterationMatchesSharedMemoryEngine) {
  apps::GraphGenSpec gen;
  gen.pages = 2000;
  gen.edges = 30000;
  gen.seed = 9;
  const auto edges = apps::generate_edges(gen);
  const auto degrees = apps::out_degrees(edges, gen.pages);
  std::vector<double> ranks(gen.pages, 1.0 / gen.pages);
  apps::PageRankTask task(ranks, degrees);

  engine::GrEngineOptions gr_options;
  gr_options.threads = 4;
  const auto serial = task.ranks_from(*engine::gr_run(task, edges, gr_options));

  // Large real robj (2000 doubles) exercises the serialize/merge path up the
  // binomial tree and across the simulated WAN.
  Platform platform(PlatformSpec::paper_testbed(16, 16));
  storage::DataLayout layout =
      storage::build_layout_for_units(edges.units(), edges.unit_bytes(), 6, 2);
  storage::assign_stores_by_fraction(layout, 0.5, platform.local_store_id(),
                                     platform.cloud_store_id());
  RunOptions options;
  options.profile.unit_bytes = edges.unit_bytes();
  options.profile.bytes_per_second_per_core = MBps(30);
  options.profile.robj_bytes = 0;
  options.task = &task;
  options.dataset = &edges;
  const auto result = run_distributed(platform, layout, options);
  ASSERT_NE(result.robj, nullptr);
  const auto distributed = task.ranks_from(*result.robj);
  ASSERT_EQ(distributed.size(), serial.size());
  for (std::size_t p = 0; p < serial.size(); ++p) {
    EXPECT_NEAR(distributed[p], serial[p], 1e-12) << "page " << p;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, RealExecSweep,
    ::testing::Values(std::make_tuple(0.0, 16u, 16u), std::make_tuple(0.5, 16u, 16u),
                      std::make_tuple(1.0, 16u, 16u), std::make_tuple(0.25, 8u, 24u),
                      std::make_tuple(0.75, 32u, 0u), std::make_tuple(0.0, 0u, 32u),
                      std::make_tuple(1.0 / 3, 8u, 8u)));

// --- kernel lane errors ----------------------------------------------------------

/// Wordcount that opts in to lanes and throws std::out_of_range from one
/// process() call: the `nth` call (1-based, counted over every thread) or,
/// when `trigger` is set, a call on the unit run starting there into a robj
/// that holds no word yet (the chunk is its slave's first). Which thread
/// makes which call varies; which slave makes which call does not.
class FaultyKernel final : public api::GRTask {
 public:
  explicit FaultyKernel(std::uint64_t nth, const std::byte* trigger = nullptr)
      : nth_(nth), trigger_(trigger) {}

  std::string name() const override { return "faulty-wordcount"; }
  std::size_t unit_bytes() const override { return inner_.unit_bytes(); }
  api::RobjPtr create_robj() const override { return inner_.create_robj(); }
  void process(const std::byte* data, std::size_t unit_count,
               api::ReductionObject& robj) const override {
    const std::uint64_t call = calls_.fetch_add(1) + 1;
    const bool fresh = dynamic_cast<const api::HashCountRobj&>(robj).distinct_keys() == 0;
    const bool fire = trigger_ ? data == trigger_ && fresh : call == nth_;
    if (fire) throw std::out_of_range("faulty kernel");
    inner_.process(data, unit_count, robj);
  }
  bool concurrent_process() const override { return true; }

 private:
  apps::WordCountTask inner_;
  std::uint64_t nth_;
  const std::byte* trigger_;
  mutable std::atomic<std::uint64_t> calls_{0};
};

/// 24 chunks of words on a 16+16-core testbed, about 10 s of processing.
struct LaneErrorRig {
  engine::MemoryDataset words = apps::generate_words({40000, 2000, 1.05, 5});
  PlatformSpec spec = PlatformSpec::paper_testbed(16, 16);
  storage::DataLayout layout = make_layout();

  storage::DataLayout make_layout() const {
    const Platform platform(spec);
    storage::DataLayout l =
        storage::build_layout_for_units(words.units(), words.unit_bytes(), 6, 4);
    storage::assign_stores_by_fraction(l, 0.5, platform.local_store_id(),
                                       platform.cloud_store_id());
    return l;
  }

  RunOptions options(const api::GRTask& task, bool tree) const {
    RunOptions o;
    o.profile.name = "lane-errors";
    o.profile.unit_bytes = words.unit_bytes();
    o.profile.bytes_per_second_per_core = static_cast<double>(words.size_bytes()) / 320.0;
    o.task = &task;
    o.dataset = &words;
    o.reduction_tree = tree;
    return o;
  }

  RunResult run(const RunOptions& o) const {
    Platform platform(spec);
    return run_distributed(platform, layout, o);
  }

  workload::WorkloadResult run_workload(const RunOptions& o, std::size_t jobs) const {
    Platform platform(spec);
    workload::WorkloadManager manager(platform, {});
    for (std::size_t j = 0; j < jobs; ++j) {
      workload::JobSpec job;
      job.name = "job" + std::to_string(j);
      job.layout = layout;
      job.options = o;
      manager.submit(std::move(job), 0.0);
    }
    return manager.run();
  }

  /// First unit of chunk `id`.
  const std::byte* chunk_data(storage::ChunkId id) const {
    std::uint64_t offset = 0;
    for (const auto& chunk : layout.chunks()) {
      if (chunk.id == id) break;
      offset += chunk.units;
    }
    return words.unit(offset);
  }

  /// A plan that crashes the node of the first chunk `tracer` saw processed,
  /// just after that chunk; `trigger` is set to the chunk's first unit. In
  /// direct mode without checkpoints the node would ship its robj only at
  /// the final commit, so it dies before it ships.
  chaos::ChaosPlan crash_first_processor(const trace::Tracer& tracer,
                                         const std::byte*& trigger) const {
    const Platform platform(spec);
    for (const trace::Event& ev : tracer.events()) {
      if (ev.kind != trace::EventKind::ProcessEnd) continue;
      trigger = chunk_data(static_cast<storage::ChunkId>(ev.a));
      for (cluster::ClusterId site = 0; site < platform.cluster_count(); ++site) {
        const auto& nodes = platform.nodes(site);
        for (std::uint32_t i = 0; i < nodes.size(); ++i) {
          if (nodes[i].name != ev.actor) continue;
          chaos::ChaosEvent crash;
          crash.kind = chaos::ChaosEvent::Kind::NodeCrash;
          crash.site_a = site;
          crash.node_index = i;
          crash.at_seconds = ev.t + 1e-3;
          chaos::ChaosPlan plan;
          plan.events.push_back(crash);
          return plan;
        }
      }
    }
    throw std::logic_error("no processed chunk in the trace");
  }
};

TEST(KernelLaneErrors, NthCallThrowsFromRunDistributed) {
  const LaneErrorRig rig;
  for (const bool tree : {true, false}) {
    for (const std::uint64_t nth : {1u, 7u, 24u}) {
      const FaultyKernel task(nth);
      EXPECT_THROW(rig.run(rig.options(task, tree)), std::out_of_range)
          << "tree=" << tree << " nth=" << nth;
    }
  }
}

TEST(KernelLaneErrors, NthCallThrowsFromWorkloadRun) {
  const LaneErrorRig rig;
  for (const std::uint64_t nth : {1u, 30u, 48u}) {
    const FaultyKernel task(nth);
    EXPECT_THROW(rig.run_workload(rig.options(task, false), 2), std::out_of_range)
        << "nth=" << nth;
  }
}

TEST(KernelLaneErrors, CrashedSlaveSurfacesErrorAtRunEnd) {
  const LaneErrorRig rig;
  trace::Tracer tracer;
  const FaultyKernel clean(0);
  RunOptions o = rig.options(clean, false);
  o.tracer = &tracer;
  rig.run(o);
  const std::byte* trigger = nullptr;
  const chaos::ChaosPlan plan = rig.crash_first_processor(tracer, trigger);

  // Without the fault the plan crashes one node and the run re-executes its
  // work on the survivors.
  const FaultyKernel sound(0);
  RunOptions crashed = rig.options(sound, false);
  crashed.chaos = &plan;
  const RunResult result = rig.run(crashed);
  EXPECT_EQ(result.lifecycle.nodes_crashed, 1u);
  EXPECT_GT(result.lifecycle.chunks_reexecuted, 0u);

  // The crashed node's kernel throws on its first chunk; the survivor that
  // re-executes that chunk folds it into a robj that already holds words,
  // so it does not throw. Nothing fences a dead slave's lane mid-run: the
  // error must surface at run end.
  const FaultyKernel faulty(0, trigger);
  RunOptions o2 = rig.options(faulty, false);
  o2.chaos = &plan;
  EXPECT_THROW(rig.run(o2), std::out_of_range);
}

TEST(KernelLaneErrors, CrashedSlaveSurfacesErrorFromWorkloadRun) {
  const LaneErrorRig rig;
  trace::Tracer tracer;
  const FaultyKernel clean(0);
  RunOptions o = rig.options(clean, false);
  o.tracer = &tracer;
  rig.run_workload(o, 1);
  const std::byte* trigger = nullptr;
  const chaos::ChaosPlan plan = rig.crash_first_processor(tracer, trigger);

  const FaultyKernel sound(0);
  RunOptions crashed = rig.options(sound, false);
  crashed.chaos = &plan;
  const workload::WorkloadResult result = rig.run_workload(crashed, 1);
  ASSERT_EQ(result.jobs.size(), 1u);
  EXPECT_EQ(result.jobs[0].run.lifecycle.nodes_crashed, 1u);

  const FaultyKernel faulty(0, trigger);
  RunOptions o2 = rig.options(faulty, false);
  o2.chaos = &plan;
  EXPECT_THROW(rig.run_workload(o2, 1), std::out_of_range);
}

}  // namespace
}  // namespace cloudburst::middleware
