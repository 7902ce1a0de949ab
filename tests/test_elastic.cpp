// Tests for elastic bursting: deadline-driven activation of dormant cloud
// instances, boot latency, billing from activation, and correctness of real
// execution with mid-run scale-out.
#include <gtest/gtest.h>

#include "apps/datagen.hpp"
#include "apps/wordcount.hpp"
#include "common/units.hpp"
#include "cost/cost_model.hpp"
#include "middleware/runtime.hpp"

namespace cloudburst::middleware {
namespace {

using namespace cloudburst::units;
using cluster::kCloudSite;
using cluster::kLocalSite;
using cluster::Platform;
using cluster::PlatformSpec;

/// Rig: small local cluster, large dormant cloud pool, slow jobs.
struct ElasticRig {
  storage::DataLayout layout;
  RunOptions options;

  ElasticRig() {
    storage::LayoutSpec spec;
    spec.total_bytes = MiB(1536);
    spec.num_files = 8;
    spec.chunks_per_file = 3;
    spec.unit_bytes = 64;
    layout = storage::build_layout(spec);
    storage::assign_stores_by_fraction(layout, 0.0, 0, 1);  // all data in S3

    options.profile.name = "elastic-test";
    options.profile.unit_bytes = 64;
    options.profile.bytes_per_second_per_core = MBps(2);
    options.profile.robj_bytes = KiB(64);
    options.reduction_tree = false;
    options.elastic.enabled = true;
    options.elastic.initial_cloud_nodes = 1;
    options.elastic.check_interval_seconds = 2.0;
    options.elastic.boot_seconds = 10.0;
    options.elastic.activation_step = 2;
  }

  RunResult run(double deadline, unsigned local_cores = 8, unsigned cloud_cores = 16) {
    options.elastic.deadline_seconds = deadline;
    Platform platform(PlatformSpec::paper_testbed(local_cores, cloud_cores));
    return run_distributed(platform, layout, options);
  }
};

TEST(Elastic, LooseDeadlineBootsNothing) {
  ElasticRig rig;
  const auto result = rig.run(/*deadline=*/1e6);
  // One initial cloud instance must be enough for an infinite deadline.
  EXPECT_EQ(result.elastic_activations, 0u);
  EXPECT_EQ(result.rentals.size(), 1u);
}

TEST(Elastic, TightDeadlineScalesOut) {
  ElasticRig rig;
  const auto loose = rig.run(1e6);
  const auto tight = rig.run(0.3 * loose.total_time);
  EXPECT_GT(tight.elastic_activations, 0u);
  EXPECT_LT(tight.total_time, loose.total_time);
  EXPECT_EQ(tight.rentals.size(), 1u + tight.elastic_activations);
}

TEST(Elastic, TighterDeadlineBootsMore) {
  ElasticRig rig;
  const auto loose = rig.run(1e6);
  const auto medium = rig.run(0.6 * loose.total_time);
  const auto tight = rig.run(0.2 * loose.total_time);
  EXPECT_GE(tight.elastic_activations, medium.elastic_activations);
  EXPECT_LE(tight.total_time, medium.total_time + 1e-9);
}

TEST(Elastic, ActivationsRespectBootDelay) {
  ElasticRig rig;
  rig.options.elastic.boot_seconds = 25.0;
  const auto result = rig.run(1.0);  // impossible deadline: scale hard
  EXPECT_GT(result.elastic_activations, 0u);
  for (std::size_t i = 1; i < result.rentals.size(); ++i) {
    const double start = result.rentals[i].start;
    if (start > 0.0) {
      // Booted instances come up no earlier than interval + boot.
      EXPECT_GE(start, rig.options.elastic.check_interval_seconds +
                           rig.options.elastic.boot_seconds - 1e-9);
    }
  }
}

TEST(Elastic, BillingStartsAtActivation) {
  ElasticRig rig;
  const auto loose = rig.run(1e6);
  const auto tight = rig.run(0.3 * loose.total_time);
  // Price both with per-instance durations: the late instances are billed
  // less than run-length hours would imply... at this scale everything is
  // under an hour, so billed hours == instance count.
  cost::CostInputs inputs;
  inputs.run_seconds = tight.total_time;
  inputs.cloud_instances = static_cast<std::uint32_t>(tight.rentals.size());
  for (const Rental& rental : tight.rentals) {
    inputs.instance_seconds.push_back(tight.total_time - rental.start);
  }
  const auto report = cost::price(inputs, cost::CloudPricing::aws_2011());
  EXPECT_DOUBLE_EQ(report.instance_hours,
                   static_cast<double>(tight.rentals.size()));
}

TEST(Elastic, RealExecutionStaysCorrectUnderScaleOut) {
  apps::WordGenSpec wspec;
  wspec.count = 24000;
  wspec.vocabulary = 61;
  wspec.seed = 99;
  const auto data = apps::generate_words(wspec);
  apps::WordCountTask task;

  std::unordered_map<std::uint64_t, double> ref;
  for (std::size_t i = 0; i < data.units(); ++i) {
    apps::WordRecord w;
    std::memcpy(&w, data.unit(i), sizeof w);
    ref[w.word_id] += 1.0;
  }

  Platform platform(PlatformSpec::paper_testbed(8, 16));
  storage::DataLayout layout =
      storage::build_layout_for_units(data.units(), data.unit_bytes(), 6, 4);
  storage::assign_stores_by_fraction(layout, 0.0, platform.local_store_id(),
                                     platform.cloud_store_id());

  RunOptions options;
  options.profile.unit_bytes = data.unit_bytes();
  options.profile.bytes_per_second_per_core = MBps(0.05);
  options.profile.per_job_overhead_seconds = 0.5;
  options.profile.robj_bytes = 0;
  options.reduction_tree = false;
  options.task = &task;
  options.dataset = &data;
  options.elastic.enabled = true;
  options.elastic.initial_cloud_nodes = 1;
  options.elastic.deadline_seconds = 0.5;  // unreachable: scale all the way out
  options.elastic.check_interval_seconds = 0.5;
  options.elastic.boot_seconds = 1.0;
  options.elastic.activation_step = 3;

  const auto result = run_distributed(platform, layout, options);
  EXPECT_GT(result.elastic_activations, 0u);
  ASSERT_NE(result.robj, nullptr);
  const auto& got = dynamic_cast<const api::HashCountRobj&>(*result.robj);
  ASSERT_EQ(got.distinct_keys(), ref.size());
  for (const auto& [k, v] : ref) EXPECT_DOUBLE_EQ(got.get(k), v);
}

TEST(Elastic, RejectsInvalidConfigs) {
  ElasticRig rig;
  rig.options.reduction_tree = true;
  EXPECT_THROW(rig.run(100.0), std::invalid_argument);

  ElasticRig rig2;
  rig2.options.elastic.initial_cloud_nodes = 0;
  EXPECT_THROW(rig2.run(100.0), std::invalid_argument);

  ElasticRig rig3;
  rig3.options.elastic.check_interval_seconds = 0.0;
  EXPECT_THROW(rig3.run(100.0), std::invalid_argument);
}

}  // namespace
}  // namespace cloudburst::middleware
