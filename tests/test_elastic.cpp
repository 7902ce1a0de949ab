// Tests for elastic bursting: deadline-driven activation of dormant cloud
// instances, boot latency, billing from activation, correctness of real
// execution with mid-run scale-out, an elastic job whose cloud nodes the
// service directory retires mid-run, and one whose cloud site blacks out.
#include <gtest/gtest.h>

#include "apps/datagen.hpp"
#include "chaos/chaos_plan.hpp"
#include "apps/wordcount.hpp"
#include "common/units.hpp"
#include "cost/cost_model.hpp"
#include "directory/platform_directory.hpp"
#include "middleware/runtime.hpp"
#include "trace/trace.hpp"
#include "workload/workload_manager.hpp"

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

TEST(Elastic, CloudSiteOutageLeavesNoHeldNodeToActivate) {
  // An impossible deadline keeps the controller activating held nodes every
  // check. The blackout at 5 s kills the cloud site's held nodes along with
  // the running ones; none of them may be activated (and billed) afterwards.
  constexpr double kOutageAt = 5.0;
  chaos::ChaosPlan plan;
  chaos::ChaosEvent outage;
  outage.kind = chaos::ChaosEvent::Kind::SiteOutage;
  outage.site_a = kCloudSite;
  outage.at_seconds = kOutageAt;
  outage.duration_seconds = 20.0;
  plan.events.push_back(outage);

  ElasticRig rig;
  rig.options.elastic.activation_step = 1;
  rig.options.chaos = &plan;
  const auto result = rig.run(/*deadline=*/1.0);
  // Every chunk ran; one may have run twice (granted to the dead site).
  EXPECT_GE(result.total_jobs(), 24u);
  EXPECT_GT(result.elastic_activations, 0u);
  EXPECT_EQ(result.rentals.size(), 1u + result.elastic_activations);
  for (const Rental& rental : result.rentals) {
    // A rental starts when its instance is up: activation time plus boot.
    EXPECT_LT(rental.start - rig.options.elastic.boot_seconds, kOutageAt)
        << "node " << rental.node << " rented from " << rental.start;
  }
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

// --- directory retirement under an elastic job ------------------------------

/// One elastic job run as a workload over a service directory (no pool) on
/// one local node and four cloud nodes; cloud node `node` is retired through
/// the directory at `retire_at` seconds (a negative time retires nothing).
struct RetiredElasticRun {
  Platform platform{PlatformSpec::paper_testbed(2, 8)};
  trace::Tracer tracer;
  workload::JobResult job;

  RetiredElasticRun(double deadline, std::uint32_t node, double retire_at) {
    directory::PlatformDirectory dir(platform);
    dir.bootstrap();
    workload::WorkloadOptions wopts;
    wopts.directory = &dir;
    wopts.tracer = &tracer;
    workload::WorkloadManager manager(platform, wopts);
    ElasticRig rig;
    rig.options.elastic.deadline_seconds = deadline;
    workload::JobSpec spec;
    spec.name = "elastic";
    spec.layout = rig.layout;
    spec.options = rig.options;
    manager.submit(std::move(spec), 0.0);
    if (retire_at >= 0.0) {
      platform.sim().schedule(des::from_seconds(retire_at), [&dir, node] {
        dir.begin_node_retirement(kCloudSite, node);
      });
    }
    job = std::move(manager.run().jobs.at(0));
  }

  net::EndpointId cloud_endpoint(std::uint32_t node) const {
    return platform.nodes(kCloudSite).at(node).endpoint;
  }
};

TEST(ElasticRetirement, RetiredHeldNodeIsNeverActivatedOrBilled) {
  // Node 3 is held back (one initial cloud node) when the directory retires
  // it at 1 s; the 30 s deadline later activates the remaining held nodes.
  RetiredElasticRun run(/*deadline=*/30.0, /*node=*/3, /*retire_at=*/1.0);
  const net::EndpointId retired = run.cloud_endpoint(3);
  const std::string retired_name = run.platform.nodes(kCloudSite)[3].name;
  EXPECT_EQ(run.job.run.total_jobs(), 24u);
  EXPECT_GT(run.job.run.elastic_activations, 0u);
  EXPECT_LE(run.job.run.elastic_activations, 2u);  // only nodes 1 and 2 remain
  for (const Rental& rental : run.job.run.rentals) {
    EXPECT_NE(rental.node, retired) << "retired node billed from " << rental.start;
  }
  for (const trace::Event& e : run.tracer.events()) {
    if (e.kind != trace::EventKind::InstanceActivated) continue;
    EXPECT_EQ(e.actor.find(retired_name), std::string::npos) << e.actor;
  }
}

TEST(ElasticRetirement, DrainedLastCloudNodeIsReplacedFromTheReserve) {
  // A loose deadline never scales out, so when the directory retires the
  // only running cloud node the site's remaining chunks need a held node.
  const RetiredElasticRun undisturbed(/*deadline=*/1e6, 0, /*retire_at=*/-1.0);
  const RetiredElasticRun drained(/*deadline=*/1e6, /*node=*/0, /*retire_at=*/20.0);
  EXPECT_EQ(drained.job.run.total_jobs(), 24u);
  EXPECT_EQ(drained.job.run.lifecycle.nodes_vacated, 1u);
  EXPECT_LT(drained.job.finish_seconds, 3.0 * undisturbed.job.finish_seconds);
}

}  // namespace
}  // namespace cloudburst::middleware
