// Tests for the site-local chunk cache and predictive prefetcher: policy
// mechanics (eviction order, capacity accounting, admission), and the full
// middleware integration (warm iterative runs beat cold ones, results stay
// byte-identical, prefetches never duplicate a transfer, costs drop).
#include <gtest/gtest.h>

#include <set>

#include "apps/datagen.hpp"
#include "apps/experiments.hpp"
#include "apps/kmeans.hpp"
#include "cache/chunk_cache.hpp"
#include "common/units.hpp"
#include "cost/cost_model.hpp"
#include "middleware/iterative.hpp"
#include "middleware/runtime.hpp"
#include "trace/trace.hpp"

namespace cloudburst {
namespace {

using namespace cloudburst::units;
using cache::CacheConfig;
using cache::CacheFleet;
using cache::ChunkCache;
using cache::EvictionPolicy;
using cluster::PlatformSpec;

CacheConfig three_slot_config(EvictionPolicy policy) {
  CacheConfig cfg;
  cfg.capacity_bytes = 300;
  cfg.policy = policy;
  return cfg;
}

TEST(ChunkCache, LruEvictsLeastRecentlyUsed) {
  const CacheConfig cfg = three_slot_config(EvictionPolicy::Lru);
  ChunkCache cache(cfg);
  EXPECT_TRUE(cache.insert(0, 100).admitted);
  EXPECT_TRUE(cache.insert(1, 100).admitted);
  EXPECT_TRUE(cache.insert(2, 100).admitted);
  EXPECT_TRUE(cache.hit(0));  // 1 is now the least recently used
  const auto result = cache.insert(3, 100);
  ASSERT_EQ(result.evicted.size(), 1u);
  EXPECT_EQ(result.evicted[0].first, 1u);
  EXPECT_TRUE(cache.contains(0));
  EXPECT_FALSE(cache.contains(1));
  EXPECT_TRUE(cache.contains(3));
}

TEST(ChunkCache, LfuEvictsLeastFrequentlyUsed) {
  const CacheConfig cfg = three_slot_config(EvictionPolicy::Lfu);
  ChunkCache cache(cfg);
  cache.insert(0, 100);
  cache.insert(1, 100);
  cache.insert(2, 100);
  cache.hit(0);
  cache.hit(0);
  cache.hit(2);
  cache.hit(1);
  cache.hit(1);  // frequencies: 0 -> 3, 1 -> 3, 2 -> 2
  const auto result = cache.insert(3, 100);
  ASSERT_EQ(result.evicted.size(), 1u);
  EXPECT_EQ(result.evicted[0].first, 2u);
}

TEST(ChunkCache, LfuBreaksTiesByRecency) {
  const CacheConfig cfg = three_slot_config(EvictionPolicy::Lfu);
  ChunkCache cache(cfg);
  cache.insert(0, 100);
  cache.insert(1, 100);
  cache.insert(2, 100);  // all freq 1; 0 is the stalest
  const auto result = cache.insert(3, 100);
  ASSERT_EQ(result.evicted.size(), 1u);
  EXPECT_EQ(result.evicted[0].first, 0u);
}

TEST(ChunkCache, FifoIgnoresUseOrder) {
  const CacheConfig cfg = three_slot_config(EvictionPolicy::Fifo);
  ChunkCache cache(cfg);
  cache.insert(0, 100);
  cache.insert(1, 100);
  cache.insert(2, 100);
  cache.hit(0);
  cache.hit(0);  // heavy reuse must not save the oldest insertion
  const auto result = cache.insert(3, 100);
  ASSERT_EQ(result.evicted.size(), 1u);
  EXPECT_EQ(result.evicted[0].first, 0u);
}

TEST(ChunkCache, CapacityAccountingIsExact) {
  CacheConfig cfg;
  cfg.capacity_bytes = 1000;
  ChunkCache cache(cfg);
  cache.insert(0, 400);
  cache.insert(1, 300);
  EXPECT_EQ(cache.bytes_used(), 700u);
  EXPECT_EQ(cache.size(), 2u);

  // 500 does not fit next to 700: evict (LRU -> chunk 0) until it does.
  const auto result = cache.insert(2, 500);
  EXPECT_TRUE(result.admitted);
  ASSERT_EQ(result.evicted.size(), 1u);
  EXPECT_EQ(result.evicted[0], (std::pair<storage::ChunkId, std::uint64_t>{0, 400}));
  EXPECT_EQ(cache.bytes_used(), 800u);

  EXPECT_TRUE(cache.erase(1));
  EXPECT_FALSE(cache.erase(1));
  EXPECT_EQ(cache.bytes_used(), 500u);
  cache.clear();
  EXPECT_EQ(cache.bytes_used(), 0u);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.evictions(), 1u);  // lifetime counters survive clear()
}

TEST(ChunkCache, AdmissionFilterRejectsOversizedChunks) {
  CacheConfig cfg;
  cfg.capacity_bytes = 1000;
  cfg.admit_max_fraction = 0.5;
  ChunkCache cache(cfg);
  cache.insert(0, 400);
  // 600 > 50% of capacity: rejected outright, nothing evicted.
  const auto result = cache.insert(1, 600);
  EXPECT_FALSE(result.admitted);
  EXPECT_TRUE(result.evicted.empty());
  EXPECT_TRUE(cache.contains(0));
  EXPECT_EQ(cache.bytes_used(), 400u);
  // At the boundary it still fits.
  EXPECT_TRUE(cache.insert(2, 500).admitted);
}

TEST(ChunkCache, ZeroCapacityNeverAdmits) {
  CacheConfig cfg;  // capacity_bytes == 0
  ChunkCache cache(cfg);
  EXPECT_FALSE(cache.insert(0, 1).admitted);
  EXPECT_FALSE(cache.hit(0));
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(ChunkCache, ReinsertRefreshesWithoutEviction) {
  const CacheConfig cfg = three_slot_config(EvictionPolicy::Lru);
  ChunkCache cache(cfg);
  cache.insert(0, 100);
  cache.insert(1, 100);
  cache.insert(2, 100);
  // Re-inserting a resident chunk only renews its recency...
  const auto refreshed = cache.insert(0, 100);
  EXPECT_TRUE(refreshed.admitted);
  EXPECT_TRUE(refreshed.evicted.empty());
  EXPECT_EQ(cache.bytes_used(), 300u);
  // ...so the next eviction victim is chunk 1, not chunk 0.
  const auto result = cache.insert(3, 100);
  ASSERT_EQ(result.evicted.size(), 1u);
  EXPECT_EQ(result.evicted[0].first, 1u);
}

TEST(CacheFleet, SitesAreIndependent) {
  CacheConfig cfg;
  cfg.capacity_bytes = 200;
  CacheFleet fleet(cfg);
  fleet.site(0).insert(7, 100);
  EXPECT_TRUE(fleet.site(0).contains(7));
  EXPECT_FALSE(fleet.site(1).contains(7));
  fleet.site(1).insert(7, 100);
  fleet.site(0).hit(7);
  EXPECT_EQ(fleet.hits(), 1u);
  fleet.clear();
  EXPECT_FALSE(fleet.site(0).contains(7));
  EXPECT_EQ(fleet.hits(), 1u);  // lifetime counters survive
}

// --- middleware integration --------------------------------------------------

middleware::IterativeRequest cloud_kmeans_request(const storage::DataLayout& layout,
                                                  std::size_t iterations) {
  middleware::IterativeRequest request;
  request.platform_spec = PlatformSpec::paper_testbed(0, 44);  // env-cloud kmeans
  request.layout = &layout;
  request.options = apps::paper_run_options(apps::PaperApp::Kmeans);
  request.iterations = iterations;
  return request;
}

// The ISSUE's acceptance number: 10-iteration k-means on the paper testbed,
// >= 2x lower total remote-retrieval time with the cache on.
TEST(CacheIntegration, WarmIterativeKmeansHalvesRetrievalTime) {
  const auto layout = apps::paper_layout(apps::PaperApp::Kmeans, 0.0, 0, 1);
  auto request = cloud_kmeans_request(layout, 10);
  const auto cold = run_iterative(request);

  CacheConfig cfg;
  cfg.capacity_bytes = GiB(16);  // the whole 12 GB dataset fits
  CacheFleet fleet(cfg);
  request.options.cache = &fleet;
  const auto warm = run_iterative(request);

  EXPECT_GE(cold.total_retrieval_seconds(), 2.0 * warm.total_retrieval_seconds());
  EXPECT_LT(warm.total_seconds, cold.total_seconds);
  // Only pass 0 misses: 9 of 10 passes are pure hits.
  EXPECT_GT(warm.cache_hit_rate(), 0.85);
  EXPECT_EQ(cold.cache_hit_rate(), 0.0);
  EXPECT_LT(warm.s3_get_requests(), cold.s3_get_requests() / 2);
}

TEST(CacheIntegration, EvictionsHappenWhenTheWorkingSetExceedsCapacity) {
  const auto layout = apps::paper_layout(apps::PaperApp::Kmeans, 0.0, 0, 1);
  auto request = cloud_kmeans_request(layout, 2);

  CacheConfig cfg;
  cfg.capacity_bytes = GiB(2);  // far below the 12 GB working set
  CacheFleet fleet(cfg);
  request.options.cache = &fleet;
  const auto result = run_iterative(request);
  EXPECT_GT(fleet.site(1).evictions(), 0u);
  // A thrashing cache must still help less than a fitting one, not hurt.
  EXPECT_LT(result.cache_hit_rate(), 0.5);
}

TEST(CacheIntegration, AttachedButEmptyFleetIsTimeIdentical) {
  // A fleet with zero capacity exercises every cache code path (lookup, miss
  // accounting, rejected admission) but must not change the simulation by a
  // single event: this is the paper-fidelity guarantee in executable form.
  const auto baseline = apps::run_env(apps::Env::Cloud, apps::PaperApp::Kmeans);

  CacheFleet fleet{CacheConfig{}};  // capacity 0
  const auto with_fleet = apps::run_env(
      apps::Env::Cloud, apps::PaperApp::Kmeans,
      [&fleet](cluster::PlatformSpec&, middleware::RunOptions& options) {
        options.cache = &fleet;
      });

  EXPECT_DOUBLE_EQ(with_fleet.total_time, baseline.total_time);
  EXPECT_EQ(with_fleet.totals().cache_hits, 0u);
  EXPECT_EQ(with_fleet.totals().cache_misses, with_fleet.total_jobs());
  EXPECT_EQ(with_fleet.s3_get_requests, baseline.s3_get_requests);
  ASSERT_EQ(with_fleet.clusters.size(), baseline.clusters.size());
  for (std::size_t c = 0; c < baseline.clusters.size(); ++c) {
    EXPECT_DOUBLE_EQ(with_fleet.clusters[c].retrieval, baseline.clusters[c].retrieval);
    EXPECT_DOUBLE_EQ(with_fleet.clusters[c].processing,
                     baseline.clusters[c].processing);
  }
}

TEST(CacheIntegration, PrefetchNeverFetchesAChunkTwice) {
  const auto layout = apps::paper_layout(apps::PaperApp::Kmeans, 0.0, 0, 1);
  auto options = apps::paper_run_options(apps::PaperApp::Kmeans);

  CacheConfig cfg;
  cfg.capacity_bytes = GiB(16);
  cfg.prefetch.enabled = true;
  cfg.prefetch.depth = 4;
  CacheFleet fleet(cfg);
  options.cache = &fleet;
  trace::Tracer tracer;
  options.tracer = &tracer;

  cluster::Platform platform(PlatformSpec::paper_testbed(0, 44));
  const auto result = run_distributed(platform, layout, options);

  EXPECT_GT(result.totals().prefetch_issued, 0u);
  // No chunk is ever prefetched twice...
  std::set<std::uint64_t> issued;
  for (const auto& e : tracer.events()) {
    if (e.kind == trace::EventKind::PrefetchIssued) {
      EXPECT_TRUE(issued.insert(e.a).second) << "chunk " << e.a << " prefetched twice";
    }
  }
  EXPECT_EQ(issued.size(), result.totals().prefetch_issued);
  // ...and every physical store request is either a slave miss or a prefetch:
  // joins and hits never reach the store, so nothing is transferred twice.
  std::uint64_t store_requests = 0;
  for (const auto r : result.store_requests) store_requests += r;
  EXPECT_EQ(store_requests, result.totals().cache_misses + result.totals().prefetch_issued);
  EXPECT_EQ(result.totals().cache_hits + result.totals().cache_misses,
            static_cast<std::uint32_t>(layout.chunks().size()));
}

TEST(CacheIntegration, RealKmeansResultsAreByteIdenticalCacheOnOrOff) {
  apps::PointGenSpec gen;
  gen.count = 24000;
  gen.dim = 3;
  gen.mixture_components = 3;
  gen.component_spread = 12.0;
  gen.noise_sigma = 0.7;
  gen.seed = 99;
  const auto data = apps::generate_points(gen);

  storage::DataLayout layout =
      storage::build_layout_for_units(data.units(), data.unit_bytes(), 6, 2);
  storage::assign_stores_by_fraction(layout, 0.5, 0, 1);

  const auto run_with = [&](CacheFleet* fleet) {
    std::vector<std::vector<float>> centroids = apps::mixture_centers(gen);
    for (auto& c : centroids) {
      for (auto& v : c) v += 3.0f;
    }
    std::vector<std::unique_ptr<apps::KmeansTask>> tasks;
    tasks.push_back(std::make_unique<apps::KmeansTask>(centroids));

    middleware::IterativeRequest request;
    request.platform_spec = PlatformSpec::paper_testbed(16, 16);
    request.layout = &layout;
    request.options.profile.unit_bytes = data.unit_bytes();
    request.options.profile.bytes_per_second_per_core = MBps(2);
    request.options.profile.robj_bytes = KiB(8);
    request.options.task = tasks.back().get();
    request.options.dataset = &data;
    request.options.cache = fleet;
    request.iterations = 3;
    request.next_task = [&tasks](std::size_t, const api::ReductionObject* robj)
        -> const api::GRTask* {
      const auto next = tasks.back()->centroids_from(*robj);
      std::vector<std::vector<float>> as_float(next.size());
      for (std::size_t c = 0; c < next.size(); ++c) {
        as_float[c].assign(next[c].begin(), next[c].end());
      }
      tasks.push_back(std::make_unique<apps::KmeansTask>(as_float));
      return tasks.back().get();
    };
    auto result = run_iterative(std::move(request));
    BufferWriter writer;
    result.final_robj->serialize(writer);
    return std::make_pair(std::move(result), writer.take());
  };

  const auto [cold, cold_bytes] = run_with(nullptr);

  CacheConfig cfg;
  cfg.capacity_bytes = GiB(16);
  cfg.prefetch.enabled = true;
  CacheFleet fleet(cfg);
  const auto [warm, warm_bytes] = run_with(&fleet);

  // The cache changes *when* chunks arrive, never *what* is computed.
  EXPECT_EQ(cold_bytes, warm_bytes);
  EXPECT_GT(warm.cache_hit_rate(), 0.0);
  EXPECT_LT(warm.total_retrieval_seconds(), cold.total_retrieval_seconds());
}

TEST(CacheIntegration, WarmRunCutsGetRequestsAndEgressCost) {
  // Strong local compute + data mostly in S3: the local cluster must pull
  // S3 chunks across the WAN, so both egress bytes and GET requests are on
  // the bill. A second (warm) run on the same fleet must cut both.
  const auto layout = apps::paper_layout(apps::PaperApp::Kmeans, 0.2, 0, 1);
  const auto spec = PlatformSpec::paper_testbed(32, 8);
  auto options = apps::paper_run_options(apps::PaperApp::Kmeans);

  CacheConfig cfg;
  cfg.capacity_bytes = GiB(16);
  CacheFleet fleet(cfg);
  options.cache = &fleet;

  const auto pricing = cost::CloudPricing::aws_2011();
  cluster::Platform p1(spec);
  const auto r1 = run_distributed(p1, layout, options);
  const auto cost1 = cost::price_run(r1, p1, layout, options, pricing);

  cluster::Platform p2(spec);
  const auto r2 = run_distributed(p2, layout, options);
  const auto cost2 = cost::price_run(r2, p2, layout, options, pricing);

  // Dynamic scheduling may hand a chunk to a site that never cached it, so
  // the warm rate is high but not necessarily 1.0.
  EXPECT_GT(r2.cache_hit_rate(), 0.5);
  EXPECT_LT(r2.s3_get_requests, r1.s3_get_requests);
  EXPECT_LT(cost2.requests_usd, cost1.requests_usd);
  EXPECT_LT(cost2.transfer_usd, cost1.transfer_usd);
  EXPECT_LT(cost2.total_usd(), cost1.total_usd());
}

}  // namespace
}  // namespace cloudburst
