// Fault-tolerance tests: slave crashes, heartbeat-delayed detection,
// reduction-object loss semantics (the dead node's un-checkpointed work is
// re-executed on survivors), and the direct (two-phase commit) reduction
// mode that enables all of it.
#include <gtest/gtest.h>

#include "apps/datagen.hpp"
#include "apps/wordcount.hpp"
#include "common/units.hpp"
#include "engine/gr_engine.hpp"
#include "middleware/runtime.hpp"

namespace cloudburst::middleware {
namespace {

using namespace cloudburst::units;
using cluster::kCloudSite;
using cluster::kLocalSite;
using cluster::Platform;
using cluster::PlatformSpec;
using Kind = RunOptions::LifecycleEvent::Kind;

/// Real-execution wordcount rig: any run must reproduce the serial counts.
struct FaultRig {
  engine::MemoryDataset data;
  apps::WordCountTask task;
  std::unordered_map<std::uint64_t, double> reference;

  FaultRig() : data(make_data()) {
    for (std::size_t i = 0; i < data.units(); ++i) {
      apps::WordRecord w;
      std::memcpy(&w, data.unit(i), sizeof w);
      reference[w.word_id] += 1.0;
    }
  }

  static engine::MemoryDataset make_data() {
    apps::WordGenSpec spec;
    spec.count = 24000;
    spec.vocabulary = 97;
    spec.seed = 555;
    return apps::generate_words(spec);
  }

  RunOptions options() {
    RunOptions o;
    o.profile.name = "wordcount";
    o.profile.unit_bytes = data.unit_bytes();
    o.profile.bytes_per_second_per_core = MBps(0.05);
    o.profile.per_job_overhead_seconds = 0.5;  // long jobs => crashes land mid-run
    o.profile.robj_bytes = 0;
    o.reduction_tree = false;
    o.task = &task;
    o.dataset = &data;
    return o;
  }

  RunResult run(const RunOptions& o, unsigned local_cores = 16,
                unsigned cloud_cores = 16, std::uint32_t chunks_per_file = 4) {
    Platform platform(PlatformSpec::paper_testbed(local_cores, cloud_cores));
    storage::DataLayout layout = storage::build_layout_for_units(
        data.units(), data.unit_bytes(), 6, chunks_per_file);
    storage::assign_stores_by_fraction(layout, 0.5, platform.local_store_id(),
                                       platform.cloud_store_id());
    return run_distributed(platform, layout, o);
  }

  void expect_correct(const RunResult& result) {
    ASSERT_NE(result.robj, nullptr);
    const auto& got = dynamic_cast<const api::HashCountRobj&>(*result.robj);
    ASSERT_EQ(got.distinct_keys(), reference.size());
    for (const auto& [k, v] : reference) {
      EXPECT_DOUBLE_EQ(got.get(k), v) << "word " << k;
    }
  }
};

TEST(DirectReduction, NoFailuresStillCorrect) {
  FaultRig rig;
  const auto result = rig.run(rig.options());
  rig.expect_correct(result);
  EXPECT_EQ(result.total_jobs(), 24u);
}

TEST(DirectReduction, MatchesTreeReductionResult) {
  FaultRig rig;
  RunOptions direct = rig.options();
  RunOptions tree = rig.options();
  tree.reduction_tree = true;
  rig.expect_correct(rig.run(direct));
  rig.expect_correct(rig.run(tree));
}

TEST(FaultTolerance, SingleCrashMidRunStillExactlyCorrect) {
  FaultRig rig;
  const auto clean = rig.run(rig.options());
  RunOptions o = rig.options();
  // Kill a local node mid-run: its accumulated robj (several chunks of
  // work) is lost and must be re-executed elsewhere.
  o.lifecycle.push_back({Kind::Crash, kLocalSite, 0, 0.5 * clean.total_time});
  o.failure_detection_seconds = 0.2;
  const auto result = rig.run(o);
  rig.expect_correct(result);
  // Re-execution means more assignments than chunks.
  EXPECT_GT(result.total_jobs(), 24u);
}

TEST(FaultTolerance, CrashBeforeAnyWorkIsHarmless) {
  FaultRig rig;
  RunOptions o = rig.options();
  o.lifecycle.push_back({Kind::Crash, kCloudSite, 2, /*at_seconds=*/0.001});
  o.failure_detection_seconds = 0.01;
  rig.expect_correct(rig.run(o));
}

TEST(FaultTolerance, CrashNearEndOfRunStillCorrect) {
  FaultRig rig;
  // Find the failure-free duration first, then kill someone at ~90% of it.
  const auto clean = rig.run(rig.options());
  RunOptions o = rig.options();
  o.lifecycle.push_back({Kind::Crash, kLocalSite, 1, 0.9 * clean.total_time});
  o.failure_detection_seconds = 0.2;
  const auto result = rig.run(o);
  rig.expect_correct(result);
  EXPECT_GT(result.total_time, clean.total_time);  // recovery costs time
}

TEST(FaultTolerance, MultipleCrashesAcrossClusters) {
  FaultRig rig;
  const auto clean = rig.run(rig.options());
  RunOptions o = rig.options();
  o.lifecycle.push_back({Kind::Crash, kLocalSite, 0, 0.3 * clean.total_time});
  o.lifecycle.push_back({Kind::Crash, kCloudSite, 3, 0.5 * clean.total_time});
  o.lifecycle.push_back({Kind::Crash, kCloudSite, 5, 0.8 * clean.total_time});
  o.failure_detection_seconds = 0.2;
  const auto result = rig.run(o);
  rig.expect_correct(result);
}

TEST(FaultTolerance, DetectionDelayDelaysRecovery) {
  FaultRig rig;
  const auto clean = rig.run(rig.options());
  RunOptions fast = rig.options();
  fast.lifecycle.push_back({Kind::Crash, kLocalSite, 0, 0.5 * clean.total_time});
  fast.failure_detection_seconds = 0.2;
  RunOptions slow = fast;
  slow.failure_detection_seconds = 5.0 + clean.total_time;
  const auto fast_result = rig.run(fast);
  const auto slow_result = rig.run(slow);
  rig.expect_correct(fast_result);
  rig.expect_correct(slow_result);
  EXPECT_LT(fast_result.total_time, slow_result.total_time);
}

TEST(FaultTolerance, RejectsTreeModeWithFailures) {
  FaultRig rig;
  RunOptions o = rig.options();
  o.reduction_tree = true;
  o.lifecycle.push_back({Kind::Crash, kLocalSite, 0, 1.0});
  EXPECT_THROW(rig.run(o), std::invalid_argument);
}

TEST(FaultTolerance, RejectsUnknownNode) {
  FaultRig rig;
  RunOptions o = rig.options();
  o.lifecycle.push_back({Kind::Crash, kLocalSite, 99, 1.0});
  EXPECT_THROW(rig.run(o), std::invalid_argument);
}

TEST(FaultTolerance, RejectsWipingOutACluster) {
  FaultRig rig;
  RunOptions o = rig.options();
  o.lifecycle.push_back({Kind::Crash, kLocalSite, 0, 1.0});
  o.lifecycle.push_back({Kind::Crash, kLocalSite, 1, 2.0});
  // 16 local cores == 2 nodes: killing both leaves no live slave.
  EXPECT_THROW(rig.run(o), std::invalid_argument);
}

TEST(Checkpointing, WithoutFailuresResultUnchanged) {
  FaultRig rig;
  RunOptions o = rig.options();
  o.checkpoint_interval_seconds = 3.0;
  const auto result = rig.run(o);
  rig.expect_correct(result);
  EXPECT_EQ(result.total_jobs(), 24u);  // no re-execution
}

TEST(Checkpointing, BoundsWorkLostToACrash) {
  // 72 small jobs so the victim accumulates plenty of done work mid-run.
  FaultRig rig;
  const auto clean = rig.run(rig.options(), 16, 16, 12);

  // Crash mid-processing: without checkpointing everything the victim
  // processed is re-executed; with frequent checkpoints only the last
  // interval's work is.
  RunOptions no_ckpt = rig.options();
  no_ckpt.lifecycle.push_back({Kind::Crash, kCloudSite, 0, 0.5 * clean.total_time});
  no_ckpt.failure_detection_seconds = 0.2;
  RunOptions ckpt = no_ckpt;
  ckpt.checkpoint_interval_seconds = 1.0;

  const auto lossy = rig.run(no_ckpt, 16, 16, 12);
  const auto protected_run = rig.run(ckpt, 16, 16, 12);
  rig.expect_correct(lossy);
  rig.expect_correct(protected_run);

  const auto reexec = [](const RunResult& r) { return r.total_jobs() - 72u; };
  EXPECT_GT(reexec(lossy), reexec(protected_run));
  EXPECT_LE(protected_run.total_time, lossy.total_time + 1e-9);
}

TEST(Checkpointing, CorrectAcrossIntervals) {
  FaultRig rig;
  const auto clean = rig.run(rig.options());
  for (double interval : {0.5, 1.5, 4.0}) {
    RunOptions o = rig.options();
    o.checkpoint_interval_seconds = interval;
    o.lifecycle.push_back({Kind::Crash, kLocalSite, 0, 0.6 * clean.total_time});
    o.failure_detection_seconds = 0.2;
    rig.expect_correct(rig.run(o));
  }
}

TEST(Checkpointing, RejectsTreeMode) {
  FaultRig rig;
  RunOptions o = rig.options();
  o.reduction_tree = true;
  o.checkpoint_interval_seconds = 1.0;
  EXPECT_THROW(rig.run(o), std::invalid_argument);
}

class CrashTimeSweep : public ::testing::TestWithParam<double> {};

TEST_P(CrashTimeSweep, CorrectAtAnyCrashPoint) {
  FaultRig rig;
  const auto clean = rig.run(rig.options());
  RunOptions o = rig.options();
  o.lifecycle.push_back({Kind::Crash, kCloudSite, 1, GetParam() * clean.total_time});
  rig.expect_correct(rig.run(o));
}

INSTANTIATE_TEST_SUITE_P(CrashPoints, CrashTimeSweep,
                         ::testing::Values(0.05, 0.25, 0.5, 0.75, 0.95));

}  // namespace
}  // namespace cloudburst::middleware
