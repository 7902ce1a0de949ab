// N-site topology tests: an explicit two-site SiteSpec platform reproduces
// the paper-testbed numbers exactly, three-site runs complete with a correct
// global reduction and per-site decomposition, and the JobPool handles three
// stores (locality, stealing across two remote stores, per-store endgame
// reserves, min-contention).
#include <gtest/gtest.h>

#include "apps/datagen.hpp"
#include "apps/experiments.hpp"
#include "apps/scenarios.hpp"
#include "apps/wordcount.hpp"
#include "common/units.hpp"
#include "engine/gr_engine.hpp"
#include "middleware/runtime.hpp"
#include "middleware/scheduler.hpp"

namespace cloudburst::middleware {
namespace {

using namespace cloudburst::units;
using apps::PaperApp;
using cluster::Platform;
using cluster::PlatformSpec;
using cluster::SiteSpec;
using cluster::StoreSpec;
using storage::DataLayout;
using storage::StoreId;

RunResult run_paper_app(PaperApp app, const PlatformSpec& spec) {
  Platform platform(spec);
  const DataLayout layout = apps::paper_layout(app, 1.0 / 3.0, platform.local_store_id(),
                                               platform.cloud_store_id());
  return run_distributed(platform, layout, apps::paper_run_options(app));
}

// --- two-site SiteSpec platform == paper_testbed -----------------------------

TEST(NSitePlatform, ExplicitTwoSiteSpecMatchesPaperTestbed) {
  for (PaperApp app : {PaperApp::Knn, PaperApp::Kmeans, PaperApp::PageRank}) {
    PlatformSpec explicit_spec;
    explicit_spec.sites.push_back(PlatformSpec::paper_local_site(16));
    explicit_spec.sites.push_back(PlatformSpec::paper_cloud_site(16));
    explicit_spec.wan_bandwidth = MBps(125);
    explicit_spec.wan_latency = des::from_seconds(ms(25));
    explicit_spec.node_speed_jitter = 0.03;

    const RunResult a = run_paper_app(app, PlatformSpec::paper_testbed(16, 16));
    const RunResult b = run_paper_app(app, explicit_spec);

    EXPECT_DOUBLE_EQ(a.total_time, b.total_time) << apps::to_string(app);
    EXPECT_DOUBLE_EQ(a.global_reduction_time, b.global_reduction_time);
    ASSERT_EQ(a.clusters.size(), b.clusters.size());
    for (std::size_t s = 0; s < a.clusters.size(); ++s) {
      EXPECT_DOUBLE_EQ(a.clusters[s].processing, b.clusters[s].processing);
      EXPECT_DOUBLE_EQ(a.clusters[s].retrieval, b.clusters[s].retrieval);
      EXPECT_DOUBLE_EQ(a.clusters[s].sync, b.clusters[s].sync);
      EXPECT_EQ(a.clusters[s].jobs_local, b.clusters[s].jobs_local);
      EXPECT_EQ(a.clusters[s].jobs_stolen, b.clusters[s].jobs_stolen);
      EXPECT_EQ(a.clusters[s].bytes_stolen, b.clusters[s].bytes_stolen);
    }
  }
}

// --- three-site runs --------------------------------------------------------

DataLayout three_way_layout(Platform& platform, std::uint64_t total_bytes,
                            std::uint32_t files, std::uint32_t chunks_per_file) {
  storage::LayoutSpec lspec;
  lspec.total_bytes = total_bytes;
  lspec.num_files = files;
  lspec.chunks_per_file = chunks_per_file;
  lspec.unit_bytes = 64;
  DataLayout layout = storage::build_layout(lspec);
  apps::spread_evenly(layout, platform);
  return layout;
}

RunOptions three_site_options() {
  RunOptions options;
  options.profile.name = "nsite";
  options.profile.unit_bytes = 64;
  options.profile.bytes_per_second_per_core = MBps(50);
  options.profile.robj_bytes = KiB(64);
  return options;
}

TEST(NSiteRun, ThreeSitesCompleteWithPerSiteDecomposition) {
  Platform platform(apps::east_west_spec(16, 8));
  ASSERT_EQ(platform.cluster_count(), 3u);
  ASSERT_EQ(platform.store_count(), 3u);
  const DataLayout layout = three_way_layout(platform, MiB(1536), 12, 3);
  const RunResult result = run_distributed(platform, layout, three_site_options());

  EXPECT_GT(result.total_time, 0.0);
  EXPECT_EQ(result.total_jobs(), 36u);
  ASSERT_EQ(result.clusters.size(), 3u);
  EXPECT_EQ(result.clusters[0].name, "local");
  EXPECT_EQ(result.clusters[1].name, "east");
  EXPECT_EQ(result.clusters[2].name, "west");
  double min_idle = 1e300;
  for (const auto& c : result.clusters) {
    EXPECT_GT(c.nodes, 0u);
    EXPECT_GT(c.processing, 0.0) << c.name;
    EXPECT_GT(c.retrieval, 0.0) << c.name;
    EXPECT_GE(c.sync, 0.0) << c.name;
    EXPECT_GE(c.idle_time, 0.0) << c.name;
    min_idle = std::min(min_idle, c.idle_time);
  }
  // The last site to finish processing waits for nobody.
  EXPECT_NEAR(min_idle, 0.0, 1e-9);
}

TEST(NSiteRun, BytesFromStoreMatrixAccountsEveryByte) {
  Platform platform(apps::east_west_spec(16, 8));
  const DataLayout layout = three_way_layout(platform, MiB(1536), 12, 3);
  const RunResult result = run_distributed(platform, layout, three_site_options());

  ASSERT_EQ(result.clusters.size(), 3u);
  std::uint64_t matrix_total = 0;
  for (StoreId s = 0; s < 3; ++s) {
    std::uint64_t column = 0;
    for (std::size_t c = 0; c < 3; ++c) {
      ASSERT_EQ(result.clusters[c].stores.size(), 3u);
      column += result.clusters[c].stores[s].bytes_fetched;
    }
    // Every store's bytes were fetched exactly once, by someone.
    EXPECT_EQ(column, layout.bytes_on(s)) << "store " << s;
    matrix_total += column;
  }
  EXPECT_EQ(matrix_total, layout.total_bytes());

  // The per-cluster local/stolen split is the matrix diagonal vs the rest.
  for (std::size_t c = 0; c < 3; ++c) {
    const StoreId own = platform.store_of_cluster(static_cast<cluster::ClusterId>(c));
    std::uint64_t stolen = 0;
    for (StoreId s = 0; s < 3; ++s) {
      if (s != own) stolen += result.clusters[c].stores[s].bytes_fetched;
    }
    EXPECT_EQ(result.clusters[c].bytes_local, result.clusters[c].stores[own].bytes_fetched);
    EXPECT_EQ(result.clusters[c].bytes_stolen, stolen);
  }
}

TEST(NSiteRun, ThreeSiteGlobalReductionMatchesSerialEngine) {
  apps::WordGenSpec wspec;
  wspec.count = 24000;
  wspec.vocabulary = 101;
  wspec.seed = 7;
  const auto data = apps::generate_words(wspec);
  apps::WordCountTask task;
  const auto ref = engine::gr_run(task, data, engine::GrEngineOptions{});
  const auto& ref_counts = dynamic_cast<const api::HashCountRobj&>(*ref);

  Platform platform(apps::east_west_spec(16, 8));
  DataLayout layout = storage::build_layout_for_units(data.units(), data.unit_bytes(), 6, 4);
  apps::spread_evenly(layout, platform);

  RunOptions options;
  options.profile.unit_bytes = data.unit_bytes();
  options.profile.bytes_per_second_per_core = MBps(10);
  options.profile.robj_bytes = 0;
  options.task = &task;
  options.dataset = &data;
  const RunResult result = run_distributed(platform, layout, options);

  ASSERT_NE(result.robj, nullptr);
  const auto& got = dynamic_cast<const api::HashCountRobj&>(*result.robj);
  ASSERT_EQ(got.distinct_keys(), ref_counts.distinct_keys());
  for (const auto& [k, v] : ref_counts.counts()) EXPECT_DOUBLE_EQ(got.get(k), v);
}

TEST(NSiteRun, ComputeOnlySiteReadsItsAffinityStore) {
  PlatformSpec spec;
  spec.sites.push_back(PlatformSpec::paper_local_site(8));
  spec.sites.push_back(PlatformSpec::paper_cloud_site(8, "cloud"));
  // Burst capacity without storage: reads the cloud store over the WAN.
  SiteSpec burst;
  burst.name = "burst";
  burst.cluster = cluster::ClusterSpec::uniform("burst", 4, cluster::NodeSpec{2, 0.73},
                                                MBps(160), des::from_seconds(us(200)));
  burst.cloud_billed = true;
  burst.affinity = 1;
  spec.sites.push_back(burst);
  spec.wan_bandwidth = MBps(125);
  spec.wan_latency = des::from_seconds(ms(25));

  Platform platform(spec);
  ASSERT_EQ(platform.cluster_count(), 3u);
  ASSERT_EQ(platform.store_count(), 2u);
  EXPECT_EQ(platform.store_of_cluster(2), platform.store_of_cluster(1));

  storage::LayoutSpec lspec;
  lspec.total_bytes = MiB(1024);
  lspec.num_files = 8;
  lspec.chunks_per_file = 3;
  lspec.unit_bytes = 64;
  DataLayout layout = storage::build_layout(lspec);
  storage::assign_stores_by_fraction(layout, 0.5, platform.store_of_cluster(0),
                                     platform.store_of_cluster(1));

  const RunResult result = run_distributed(platform, layout, three_site_options());
  EXPECT_EQ(result.total_jobs(), 24u);
  // The burst site's "local" jobs are the ones served from its affinity store.
  const auto& burst_result = result.clusters[2];
  EXPECT_GT(burst_result.jobs_local + burst_result.jobs_stolen, 0u);
  EXPECT_EQ(burst_result.bytes_local, burst_result.stores[1].bytes_fetched);
}

TEST(NSiteRun, ThreeSiteFailureRecovers) {
  Platform clean_platform(apps::east_west_spec(16, 8));
  const DataLayout layout = three_way_layout(clean_platform, MiB(1536), 12, 3);
  RunOptions options = three_site_options();
  options.reduction_tree = false;
  const RunResult clean = run_distributed(clean_platform, layout, options);

  Platform platform(apps::east_west_spec(16, 8));
  options.lifecycle.push_back(
      {RunOptions::LifecycleEvent::Kind::Crash, 2, 1, 0.4 * clean.total_time});
  const RunResult result = run_distributed(platform, layout, options);
  // Re-executed jobs of the dead slave are accounted again.
  EXPECT_GE(result.total_jobs(), 36u);
  EXPECT_GE(result.total_time, clean.total_time);
}

// --- three-store JobPool ----------------------------------------------------

/// One file per store entry: files[i] holds `chunks` chunks on store i % 3.
DataLayout make_three_store_layout(std::uint32_t files_per_store, std::uint32_t chunks) {
  storage::LayoutSpec spec;
  spec.num_files = 3 * files_per_store;
  spec.chunks_per_file = chunks;
  spec.total_bytes = static_cast<std::uint64_t>(spec.num_files) * chunks * MiB(1);
  spec.unit_bytes = 64;
  DataLayout layout = storage::build_layout(spec);
  for (const auto& f : layout.files()) {
    layout.move_file(f.id, f.id / files_per_store);  // contiguous thirds
  }
  return layout;
}

TEST(JobPoolThreeStores, LocalityServesOwnStoreFirst) {
  const auto layout = make_three_store_layout(2, 3);
  JobPool pool(layout, SchedulerPolicy{});
  for (StoreId preferred : {0u, 1u, 2u}) {
    const auto batch = pool.take_batch(preferred, 3);
    ASSERT_EQ(batch.size(), 3u);
    for (auto c : batch) EXPECT_EQ(layout.store_of(c), preferred);
  }
}

TEST(JobPoolThreeStores, StealsFromBothRemoteStoresWhenDrained) {
  const auto layout = make_three_store_layout(1, 2);  // 2 jobs per store
  SchedulerPolicy policy;
  policy.steal_batch_size = 8;
  policy.steal_reserve = 0;
  JobPool pool(layout, policy);
  ASSERT_EQ(pool.take_batch(0, 2).size(), 2u);  // drain our own store
  const auto stolen = pool.take_batch(0, 4);
  ASSERT_EQ(stolen.size(), 4u);
  std::uint32_t from_store1 = 0, from_store2 = 0;
  for (auto c : stolen) {
    if (layout.store_of(c) == 1) ++from_store1;
    if (layout.store_of(c) == 2) ++from_store2;
  }
  EXPECT_EQ(from_store1, 2u);
  EXPECT_EQ(from_store2, 2u);
}

TEST(JobPoolThreeStores, PerStoreReserveWithholdsOnlyReservedStores) {
  SchedulerPolicy policy;
  policy.steal_batch_size = 8;
  policy.steal_reserve = 2;

  // Store 0 is empty for the requester; stores 1 and 2 hold 3 jobs each.
  const auto layout = make_three_store_layout(1, 3);
  {
    JobPool pool(layout, policy);
    ASSERT_EQ(pool.take_batch(0, 3).size(), 3u);
    // Both remote owners still active: each store keeps its last 2 jobs.
    EXPECT_EQ(pool.take_batch(0, 8, std::vector<StoreId>{1, 2}).size(), 2u);
  }
  {
    JobPool pool(layout, policy);
    ASSERT_EQ(pool.take_batch(0, 3).size(), 3u);
    // Only store 1's owner is active: store 2 is fully stealable.
    EXPECT_EQ(pool.take_batch(0, 8, std::vector<StoreId>{1}).size(), 4u);
  }
  {
    JobPool pool(layout, policy);
    ASSERT_EQ(pool.take_batch(0, 3).size(), 3u);
    // Nobody else is active: everything is stealable.
    EXPECT_EQ(pool.take_batch(0, 8, std::vector<StoreId>{}).size(), 6u);
  }
}

TEST(JobPoolThreeStores, MinContentionPrefersIdleRemoteStore) {
  const auto layout = make_three_store_layout(1, 4);
  SchedulerPolicy policy;
  policy.steal_reserve = 0;
  JobPool pool(layout, policy);
  // Cluster 1 starts reading its own file; its readers count goes up.
  ASSERT_EQ(pool.take_batch(1, 2).size(), 2u);
  // Cluster 0 has nothing local left after draining its store...
  ASSERT_EQ(pool.take_batch(0, 4).size(), 4u);
  // ...and now steals: the untouched store-2 file has fewer readers.
  const auto stolen = pool.take_batch(0, 1);
  ASSERT_EQ(stolen.size(), 1u);
  EXPECT_EQ(layout.store_of(stolen[0]), 2u);
}

}  // namespace
}  // namespace cloudburst::middleware
