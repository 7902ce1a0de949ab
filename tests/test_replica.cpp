// Replication tests: deterministic k-way placement per policy, the route
// oracle (WAN cost, suspect / throttle / fail-probability penalties, tie
// breaks), replica health transitions (mark_lost / note_fetch_ok), repair
// planning and settlement, hot-chunk promotion, the default-off byte-identity
// guarantee, the end-to-end acceptance run (k = 2 cross-site strictly beats
// k = 1 on remote-read p95 under cloud store faults), composition with cache
// + faults + lifecycle in one run, and exact two-tenant cost attribution with
// replica storage and repair egress on the bill.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "apps/experiments.hpp"
#include "apps/scenarios.hpp"
#include "cache/chunk_cache.hpp"
#include "common/units.hpp"
#include "middleware/job_execution.hpp"
#include "middleware/runtime.hpp"
#include "replica/repair.hpp"
#include "replica/replica_set.hpp"
#include "storage/retry.hpp"
#include "trace/trace.hpp"
#include "workload/workload_manager.hpp"

namespace cloudburst {
namespace {

using namespace cloudburst::units;
using cluster::kCloudSite;
using cluster::kLocalSite;
using cluster::Platform;
using cluster::PlatformSpec;
using replica::PlacementPolicy;
using replica::ReplicaSet;
using replica::ReplicationConfig;
using storage::StoreId;

storage::DataLayout three_way_layout(Platform& platform) {
  storage::LayoutSpec lspec;
  lspec.total_bytes = MiB(96);
  lspec.num_files = 6;
  lspec.chunks_per_file = 2;
  lspec.unit_bytes = 64;
  storage::DataLayout layout = storage::build_layout(lspec);
  apps::spread_evenly(layout, platform);
  return layout;
}

// --- config validation -------------------------------------------------------

TEST(ReplicaSet, RejectsDegenerateConfig) {
  ReplicationConfig zero;
  zero.replication_factor = 0;
  EXPECT_THROW(ReplicaSet{zero}, std::invalid_argument);
  ReplicationConfig interval;
  interval.repair_interval_seconds = 0.0;
  EXPECT_THROW(ReplicaSet{interval}, std::invalid_argument);
}

TEST(ReplicaSet, AttachRejectsGeometryChange) {
  Platform p(apps::east_west_spec(8, 8));
  const auto layout = three_way_layout(p);
  ReplicaSet rs;
  rs.attach(layout, p);
  EXPECT_TRUE(rs.built());
  rs.attach(layout, p);  // same geometry: re-points, no rebuild

  Platform two_sites(PlatformSpec::paper_testbed(4, 4));
  storage::DataLayout other =
      apps::paper_layout(apps::PaperApp::Knn, 0.5, two_sites.local_store_id(),
                         two_sites.cloud_store_id());
  EXPECT_THROW(rs.attach(other, two_sites), std::invalid_argument);
}

// --- placement ---------------------------------------------------------------

TEST(ReplicaPlacement, CrossSiteSpreadIsDeterministicAndDistinct) {
  Platform p(apps::east_west_spec(8, 8));
  const auto layout = three_way_layout(p);
  ReplicationConfig cfg;
  cfg.replication_factor = 3;
  cfg.placement = PlacementPolicy::CrossSite;

  ReplicaSet a{cfg}, b{cfg};
  a.attach(layout, p);
  b.attach(layout, p);
  EXPECT_EQ(a.initial_extras(), b.initial_extras());  // bit-reproducible

  // Every chunk ends with one live copy on each of the three stores, all
  // distinct (k = 3 on 3 stores covers the platform).
  for (const auto& chunk : layout.chunks()) {
    std::set<StoreId> holders;
    for (StoreId s = 0; s < p.store_count(); ++s) {
      if (a.is_live(chunk.id, s)) holders.insert(s);
    }
    EXPECT_EQ(holders.size(), 3u) << "chunk " << chunk.id;
  }
  // 2 extra copies per chunk were created.
  EXPECT_EQ(a.replicas_created(), 2 * layout.chunks().size());
  EXPECT_EQ(a.initial_extras().size(), 2 * layout.chunks().size());
}

TEST(ReplicaPlacement, ReplicationFactorClampsToStoreCount) {
  Platform p(PlatformSpec::paper_testbed(4, 4));  // two stores
  auto layout = apps::paper_layout(apps::PaperApp::Knn, 0.5, p.local_store_id(),
                                   p.cloud_store_id());
  ReplicationConfig cfg;
  cfg.replication_factor = 5;
  ReplicaSet rs{cfg};
  rs.attach(layout, p);
  // k clamps to 2: exactly one extra copy per chunk.
  EXPECT_EQ(rs.initial_extras().size(), layout.chunks().size());
}

TEST(ReplicaPlacement, SameSitePlacesOnCheapestWanNeighbors) {
  Platform p(apps::east_west_spec(8, 8));
  const auto layout = three_way_layout(p);
  ReplicationConfig cfg;
  cfg.replication_factor = 2;
  cfg.placement = PlacementPolicy::SameSite;
  ReplicaSet rs{cfg};
  rs.attach(layout, p);

  // east <-> west is the slow edge (60 MB/s, 60 ms): a chunk whose primary
  // sits on east must place its extra copy on local (fast edge), never west.
  const StoreId east = p.store_of_cluster(1);
  const StoreId west = p.store_of_cluster(2);
  const StoreId local = p.store_of_cluster(0);
  for (const auto& [chunk, dst] : rs.initial_extras()) {
    if (layout.store_of(chunk) == east) {
      EXPECT_EQ(dst, local) << "chunk " << chunk;
      EXPECT_NE(dst, west);
    }
  }
}

TEST(ReplicaPlacement, HotChunkStartsBareAndEarnsCopiesFromHits) {
  Platform p(apps::east_west_spec(8, 8));
  const auto layout = three_way_layout(p);
  ReplicationConfig cfg;
  cfg.replication_factor = 2;
  cfg.placement = PlacementPolicy::HotChunk;
  cfg.hot_threshold = 2;
  ReplicaSet rs{cfg};
  rs.attach(layout, p);

  EXPECT_TRUE(rs.initial_extras().empty());  // no copies paid up front
  EXPECT_EQ(rs.target_copies(0), 1u);
  EXPECT_TRUE(rs.plan_repairs(8, 0.0).empty());  // nothing under-replicated

  rs.record_hit(0);
  EXPECT_EQ(rs.target_copies(0), 1u);  // one hit: below the threshold
  rs.record_hit(0);
  EXPECT_EQ(rs.target_copies(0), 2u);  // promoted

  // The repair planner now owes chunk 0 its second copy.
  const auto tasks = rs.plan_repairs(8, 0.0);
  ASSERT_EQ(tasks.size(), 1u);
  EXPECT_EQ(tasks[0].chunk, 0u);
  EXPECT_EQ(tasks[0].src, layout.store_of(0));
  rs.repair_done(tasks[0], /*ok=*/true, 0.0);
  EXPECT_TRUE(rs.is_live(0, tasks[0].dst));
  EXPECT_EQ(rs.replicas_repaired(), 1u);
}

TEST(ReplicaPlacement, HotChunkFallsBackToFetchCountHeatWithoutACache) {
  Platform p(apps::east_west_spec(8, 8));
  const auto layout = three_way_layout(p);
  ReplicationConfig cfg;
  cfg.replication_factor = 2;
  cfg.placement = PlacementPolicy::HotChunk;
  cfg.hot_threshold = 2;
  ReplicaSet rs{cfg};
  rs.attach(layout, p);

  // Default heat source is cache hits: demand fetches are not heat, so the
  // old silent-degradation bug (no cache -> no promotions, ever) would
  // reproduce here if fetches counted for the wrong source.
  EXPECT_EQ(rs.heat_source(), replica::HeatSource::CacheHits);
  rs.record_fetch(0);
  rs.record_fetch(0);
  EXPECT_EQ(rs.target_copies(0), 1u);

  // Cacheless runs switch the source: now only fetches count.
  rs.set_heat_source(replica::HeatSource::FetchCounts);
  rs.record_hit(1);
  rs.record_hit(1);
  EXPECT_EQ(rs.target_copies(1), 1u);
  rs.record_fetch(1);
  rs.record_fetch(1);
  EXPECT_EQ(rs.target_copies(1), 2u);  // promoted from demand fetches
}

// The end-to-end regression for the silent HotChunk degradation: with no
// CacheFleet attached the middleware selects fetch-count heat, so promotions
// (and the repair transfers that realize them) still happen.
TEST(ReplicaAcceptance, HotChunkPromotesFromDemandFetchesWhenNoCacheRuns) {
  ReplicationConfig cfg;
  cfg.replication_factor = 2;
  cfg.placement = PlacementPolicy::HotChunk;
  cfg.hot_threshold = 1;  // one demand fetch is enough to earn a copy
  ReplicaSet rs{cfg};
  const auto result = apps::run_env(
      apps::Env::Hybrid5050, apps::PaperApp::Knn,
      [&](cluster::PlatformSpec&, middleware::RunOptions& options) {
        options.replication = &rs;
      });
  EXPECT_EQ(rs.heat_source(), replica::HeatSource::FetchCounts);
  EXPECT_EQ(result.total_jobs(), 96u);
  EXPECT_GT(result.replica.replicas_repaired, 0u);

  // With a cache attached the source stays cache hits, as before.
  cache::CacheConfig ccfg;
  ccfg.capacity_bytes = GiB(4);
  cache::CacheFleet fleet(ccfg);
  ReplicaSet rs2{cfg};
  apps::run_env(apps::Env::Hybrid5050, apps::PaperApp::Knn,
                [&](cluster::PlatformSpec&, middleware::RunOptions& options) {
                  options.replication = &rs2;
                  options.cache = &fleet;
                });
  EXPECT_EQ(rs2.heat_source(), replica::HeatSource::CacheHits);
}

// --- route oracle ------------------------------------------------------------

// Equal-cost replicas must split read load instead of piling onto the lowest
// store id (the old tie-break). The outstanding-routed-bytes signal makes
// successive resolves alternate between the two copies.
TEST(ReplicaRouting, EqualCostTiesSplitLoadAcrossReplicas) {
  PlatformSpec spec = apps::east_west_spec(8, 8);
  // East <-> west is cheap, so CrossSite replicates east's chunks to west;
  // site 0 then reads both copies at identical (default) WAN cost.
  spec.set_wan(1, 2, MBps(500), des::from_seconds(ms(5)));
  Platform p(spec);

  storage::LayoutSpec lspec;
  lspec.total_bytes = MiB(96);
  lspec.num_files = 6;
  lspec.chunks_per_file = 2;
  lspec.unit_bytes = 64;
  storage::DataLayout layout = storage::build_layout(lspec);
  const StoreId east = p.store_of_cluster(1);
  const StoreId west = p.store_of_cluster(2);
  storage::assign_stores_by_fraction(layout, 1.0, east, west);

  ReplicationConfig cfg;
  cfg.replication_factor = 2;
  cfg.placement = PlacementPolicy::CrossSite;
  ReplicaSet rs{cfg};
  rs.attach(layout, p);
  // CrossSite fans copies round-robin: even chunks replicate east -> west
  // (both remote and equidistant from site 0), odd ones east -> local.
  std::vector<storage::ChunkId> tied;
  for (const auto& chunk : layout.chunks()) {
    if (rs.is_live(chunk.id, east) && rs.is_live(chunk.id, west)) {
      tied.push_back(chunk.id);
    }
  }
  ASSERT_GE(tied.size(), 6u);

  // One resolve per tied chunk from the equidistant reader: the split must
  // come out near 50/50, not 100% on the lower store id.
  std::map<StoreId, unsigned> counts;
  std::vector<StoreId> sequence;
  for (const storage::ChunkId chunk : tied) {
    const StoreId s = rs.resolve(chunk, /*reader_site=*/0, 0.0);
    ++counts[s];
    sequence.push_back(s);
  }
  const double n = static_cast<double>(tied.size());
  EXPECT_GE(counts[east], static_cast<unsigned>(0.4 * n));
  EXPECT_GE(counts[west], static_cast<unsigned>(0.4 * n));

  // Deterministic: an identical set resolves the identical sequence.
  ReplicaSet again{cfg};
  again.attach(layout, p);
  std::vector<StoreId> sequence2;
  for (const storage::ChunkId chunk : tied) {
    sequence2.push_back(again.resolve(chunk, 0, 0.0));
  }
  EXPECT_EQ(sequence, sequence2);
}

TEST(ReplicaRouting, ResolveChargesRoutedBytesUntilSettled) {
  PlatformSpec spec = apps::east_west_spec(8, 8);
  spec.set_wan(1, 2, MBps(500), des::from_seconds(ms(5)));
  Platform p(spec);

  storage::LayoutSpec lspec;
  lspec.total_bytes = MiB(96);
  lspec.num_files = 6;
  lspec.chunks_per_file = 2;
  lspec.unit_bytes = 64;
  storage::DataLayout layout = storage::build_layout(lspec);
  storage::assign_stores_by_fraction(layout, 1.0, p.store_of_cluster(1),
                                     p.store_of_cluster(2));
  ReplicationConfig cfg;
  cfg.replication_factor = 2;
  cfg.placement = PlacementPolicy::CrossSite;
  ReplicaSet rs{cfg};
  rs.attach(layout, p);

  const std::uint64_t bytes = layout.chunk(0).bytes;
  const StoreId first = rs.resolve(0, 0, 0.0);
  EXPECT_EQ(rs.routed_bytes(first), bytes);
  // The charge is live, so the same chunk re-routes to the other copy.
  const StoreId second = rs.resolve(0, 0, 0.0);
  EXPECT_NE(second, first);
  // Settling clears the charge without touching replica health.
  rs.settle_route(0, first);
  rs.settle_route(0, second);
  EXPECT_EQ(rs.routed_bytes(first), 0u);
  EXPECT_EQ(rs.routed_bytes(second), 0u);
  EXPECT_TRUE(rs.is_live(0, first));
  EXPECT_TRUE(rs.is_live(0, second));
}

TEST(ReplicaRouting, ResolvePrefersOwnSiteThenFailsOverAndRevives) {
  Platform p(apps::east_west_spec(8, 8));
  const auto layout = three_way_layout(p);
  ReplicationConfig cfg;
  cfg.replication_factor = 3;
  ReplicaSet rs{cfg};
  rs.attach(layout, p);

  const storage::ChunkId chunk = 0;
  const StoreId local = p.store_of_cluster(0);
  // All three stores hold the chunk: a local reader reads its own store.
  EXPECT_EQ(rs.resolve(chunk, /*reader_site=*/0, 0.0), local);

  // The local copy fails: route moves to the cheapest surviving replica and
  // the transition reports exactly once.
  EXPECT_TRUE(rs.mark_lost(chunk, local, 0.0));
  EXPECT_FALSE(rs.mark_lost(chunk, local, 0.0));  // already lost
  EXPECT_EQ(rs.replicas_lost(), 1u);
  const StoreId failover = rs.resolve(chunk, 0, 0.0);
  EXPECT_NE(failover, local);
  EXPECT_TRUE(rs.is_live(chunk, failover));

  // A later successful GET against the store revives the copy; once the
  // suspect penalty lapses the local store wins again.
  rs.note_fetch_ok(chunk, local);
  EXPECT_TRUE(rs.is_live(chunk, local));
  EXPECT_EQ(rs.resolve(chunk, 0, rs.config().suspect_seconds + 1.0), local);
}

TEST(ReplicaRouting, AllCopiesLostFallsBackToPrimary) {
  Platform p(apps::east_west_spec(8, 8));
  const auto layout = three_way_layout(p);
  ReplicationConfig cfg;
  cfg.replication_factor = 3;
  ReplicaSet rs{cfg};
  rs.attach(layout, p);
  const StoreId primary = layout.store_of(0);
  for (StoreId s = 0; s < p.store_count(); ++s) rs.mark_lost(0, s, 0.0);
  // Nothing is live: the caller's retry loop gets the primary back.
  EXPECT_EQ(rs.resolve(0, 0, 0.0), primary);
}

TEST(ReplicaRouting, SuspectPenaltyExpiresAfterConfiguredWindow) {
  Platform p(apps::east_west_spec(8, 8));
  const auto layout = three_way_layout(p);
  ReplicationConfig cfg;
  cfg.replication_factor = 3;
  cfg.suspect_seconds = 50.0;
  ReplicaSet rs{cfg};
  rs.attach(layout, p);

  const StoreId local = p.store_of_cluster(0);
  rs.mark_store_suspect(local, /*now=*/10.0);
  // Inside the window the reader routes around its own store...
  EXPECT_NE(rs.resolve(0, 0, 30.0), local);
  // ...and returns home once the suspicion lapses (60.0 = 10.0 + 50.0).
  EXPECT_EQ(rs.resolve(0, 0, 60.0), local);

  // mark_site_suspect resolves the site's affinity store.
  rs.mark_site_suspect(0, 100.0);
  EXPECT_NE(rs.resolve(0, 0, 120.0), local);
}

TEST(ReplicaRouting, ThrottleWindowSteersReadsSharingTheStoreConvention) {
  // The route oracle must treat a throttle window exactly as the store does:
  // half-open [begin, end). At t = begin the throttled store is penalized;
  // at t = end it is clean again.
  PlatformSpec spec = apps::east_west_spec(8, 8);
  auto& fault = spec.sites[0].store->fault;
  fault.throttles.push_back({/*begin=*/100.0, /*end=*/200.0,
                             /*bandwidth_factor=*/0.05, /*fail=*/0.5});
  Platform p(spec);
  const auto layout = three_way_layout(p);
  ReplicationConfig cfg;
  cfg.replication_factor = 3;
  ReplicaSet rs{cfg};
  rs.attach(layout, p);

  const StoreId local = p.store_of_cluster(0);
  EXPECT_EQ(rs.resolve(0, 0, 99.0), local);    // before the window
  EXPECT_NE(rs.resolve(0, 0, 100.0), local);   // t == begin: inside
  EXPECT_NE(rs.resolve(0, 0, 199.0), local);   // still inside
  EXPECT_EQ(rs.resolve(0, 0, 200.0), local);   // t == end: outside
}

// --- repair planning ---------------------------------------------------------

TEST(ReplicaRepair, PlansFromHealthiestSourceAndSettlesAccounting) {
  Platform p(apps::east_west_spec(8, 8));
  const auto layout = three_way_layout(p);
  ReplicationConfig cfg;
  cfg.replication_factor = 2;
  cfg.placement = PlacementPolicy::CrossSite;
  ReplicaSet rs{cfg};
  rs.attach(layout, p);

  const auto before = rs.extra_bytes_per_store();

  // Kill chunk 0's extra copy.
  const auto& extras = rs.initial_extras();
  const auto it = std::find_if(extras.begin(), extras.end(),
                               [](const auto& e) { return e.first == 0; });
  ASSERT_NE(it, extras.end());
  const StoreId lost_store = it->second;
  ASSERT_TRUE(rs.mark_lost(0, lost_store, 0.0));
  // Lost bytes leave the storage bill immediately.
  const auto after_loss = rs.extra_bytes_per_store();
  EXPECT_EQ(after_loss[lost_store] + layout.chunk(0).bytes, before[lost_store]);

  // Planner: one task for chunk 0, sourced from the surviving primary; the
  // suspect store is not chosen as a destination, and the chunk stays
  // pending (no duplicate plan) until the transfer settles.
  auto tasks = rs.plan_repairs(8, 0.0);
  ASSERT_EQ(tasks.size(), 1u);
  EXPECT_EQ(tasks[0].chunk, 0u);
  EXPECT_EQ(tasks[0].src, layout.store_of(0));
  EXPECT_NE(tasks[0].dst, lost_store);  // lost store is suspect right now
  EXPECT_TRUE(rs.plan_repairs(8, 0.0).empty());

  // A failed transfer releases the pending mark and suspects the source.
  rs.repair_done(tasks[0], /*ok=*/false, 0.0);
  EXPECT_EQ(rs.replicas_repaired(), 0u);
  auto retry = rs.plan_repairs(8, 0.0);
  ASSERT_EQ(retry.size(), 1u);
  rs.repair_done(retry[0], /*ok=*/true, 0.0);
  EXPECT_EQ(rs.replicas_repaired(), 1u);
  EXPECT_TRUE(rs.is_live(0, retry[0].dst));
  // The repaired copy is back on the bill.
  std::uint64_t total_before = 0, total_after = 0;
  for (const auto b : before) total_before += b;
  for (const auto b : rs.extra_bytes_per_store()) total_after += b;
  EXPECT_EQ(total_before, total_after);
}

TEST(ReplicaRepair, ActorRunsTransfersUnderConcurrencyCap) {
  Platform p(apps::east_west_spec(8, 8));
  const auto layout = three_way_layout(p);
  ReplicationConfig cfg;
  cfg.replication_factor = 2;
  cfg.repair_interval_seconds = 1.0;
  cfg.repair_concurrency = 2;
  cfg.suspect_seconds = 0.5;  // lapse fast so destinations become eligible
  ReplicaSet rs{cfg};
  rs.attach(layout, p);

  // Lose every extra copy: 12 chunks under-replicated at once.
  for (const auto& [chunk, store] : rs.initial_extras()) {
    rs.mark_lost(chunk, store, 0.0);
  }

  const std::uint32_t losses = rs.replicas_lost();
  ASSERT_GT(losses, 0u);

  double now = 0.0;
  std::vector<std::pair<double, std::function<void()>>> queue;
  unsigned peak_inflight = 0, inflight = 0;
  bool stopped = false;
  replica::RepairActor::Env env;
  env.now = [&] { return now; };
  env.schedule = [&](double delay, std::function<void()> fn) {
    queue.emplace_back(now + delay, std::move(fn));
  };
  env.stopped = [&] { return stopped; };
  env.transfer = [&](const ReplicaSet::RepairTask&, std::function<void(bool)> done) {
    ++inflight;
    peak_inflight = std::max(peak_inflight, inflight);
    queue.emplace_back(now + 0.3, [&inflight, done = std::move(done)] {
      --inflight;
      done(true);
    });
  };
  replica::RepairActor actor(rs, std::move(env));
  actor.start();
  // Hand-cranked DES: pop the earliest event until the queue drains. The
  // tick loop only terminates via stopped(), exactly like a real run — flip
  // it once every lost copy has been re-created.
  while (!queue.empty()) {
    const auto it = std::min_element(
        queue.begin(), queue.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    now = it->first;
    auto fn = std::move(it->second);
    queue.erase(it);
    fn();
    if (rs.replicas_repaired() == losses) stopped = true;
    ASSERT_LT(now, 1000.0) << "repair did not converge";
  }
  EXPECT_EQ(rs.replicas_repaired(), losses);
  EXPECT_LE(peak_inflight, 2u);
  EXPECT_EQ(actor.transfers_started(), rs.replicas_repaired());
  for (const auto& chunk : layout.chunks()) {
    unsigned live = 0;
    for (StoreId s = 0; s < p.store_count(); ++s) live += rs.is_live(chunk.id, s);
    EXPECT_EQ(live, 2u) << "chunk " << chunk.id;
  }
}

// Regression: two cloud sites whose stores both sit behind their provider's
// fabric (paper_cloud_site) had no route between the stores, so a repair
// from one cloud store to the other threw "no route from site east-store to
// west-store". The repair now crosses the two providers' WAN link.
TEST(ReplicaRepair, CrossCloudRepairBetweenFabricStoresCompletes) {
  PlatformSpec spec;
  spec.sites.push_back(PlatformSpec::paper_cloud_site(8, "east"));
  spec.sites.push_back(PlatformSpec::paper_cloud_site(8, "west"));
  spec.wan_bandwidth = MBps(60);
  spec.wan_latency = des::from_seconds(ms(60));
  Platform p(spec);
  ASSERT_GT(p.spec().store(0).fabric_bandwidth, 0.0);
  ASSERT_GT(p.spec().store(1).fabric_bandwidth, 0.0);

  storage::LayoutSpec lspec;
  lspec.total_bytes = MiB(32);
  lspec.num_files = 2;
  lspec.chunks_per_file = 2;
  lspec.unit_bytes = 64;
  storage::DataLayout layout = storage::build_layout(lspec);
  const StoreId east = p.store_of_cluster(0);
  const StoreId west = p.store_of_cluster(1);
  storage::assign_stores_by_weights(layout, {1.0, 0.0}, {east, west});

  ReplicationConfig cfg;
  cfg.replication_factor = 2;
  cfg.placement = PlacementPolicy::CrossSite;
  cfg.repair_interval_seconds = 0.5;
  cfg.suspect_seconds = 0.25;
  ReplicaSet rs{cfg};
  rs.attach(layout, p);
  // Every extra copy sits on the west store; lose them all.
  for (const auto& [chunk, store] : rs.initial_extras()) {
    ASSERT_EQ(store, west);
    rs.mark_lost(chunk, store, 0.0);
  }
  const std::uint32_t losses = rs.replicas_lost();
  ASSERT_EQ(losses, layout.chunks().size());

  bool stopped = false;
  std::uint64_t moved = 0;
  replica::RepairActor::Env env;
  env.now = [&] { return des::to_seconds(p.sim().now()); };
  env.schedule = [&](double delay, std::function<void()> fn) {
    p.sim().schedule(des::from_seconds(delay), std::move(fn));
  };
  env.stopped = [&] { return stopped; };
  env.transfer = [&](const ReplicaSet::RepairTask& task, std::function<void(bool)> done) {
    EXPECT_EQ(task.src, east);
    EXPECT_EQ(task.dst, west);
    storage::fetch_with_retry(p.sim(), p.store(task.src), p.store(task.dst).endpoint(),
                              layout.chunk(task.chunk), 4, storage::RetryPolicy{}, {},
                              [&, done = std::move(done)](const storage::FetchResult& r) {
                                moved += r.bytes_moved;
                                done(r.ok);
                                if (rs.replicas_repaired() == losses) stopped = true;
                              });
  };
  replica::RepairActor actor(rs, std::move(env));
  actor.start();
  p.sim().run();

  EXPECT_EQ(rs.replicas_repaired(), losses);
  EXPECT_EQ(moved, lspec.total_bytes);
  for (const auto& chunk : layout.chunks()) EXPECT_TRUE(rs.is_live(chunk.id, west));
  // The copies crossed the providers' WAN link, not some other path.
  const net::Network& net = p.network();
  const auto path = net.path(p.store(east).endpoint(), p.store(west).endpoint());
  EXPECT_NE(std::find_if(path.begin(), path.end(),
                         [&](net::LinkId l) { return net.link(l).name == "wan"; }),
            path.end());
}

// --- middleware integration --------------------------------------------------

TEST(ReplicaIntegration, CheapestReplicaSelectionRequiresReplicationAttached) {
  Platform p(PlatformSpec::paper_testbed(4, 4));
  auto layout = apps::paper_layout(apps::PaperApp::Knn, 0.5, p.local_store_id(),
                                   p.cloud_store_id());
  middleware::RunOptions options = apps::paper_run_options(apps::PaperApp::Knn);
  options.policy.remote_selection = middleware::RemoteSelection::CheapestReplica;
  EXPECT_THROW(middleware::validate_run(p, layout, options), std::invalid_argument);
}

/// p95 of remote-read durations from the trace: a read is remote when the
/// FetchStart store differs from the reading site's affinity store. Actors
/// map to sites by the paper-testbed node-name prefix ("local-*"/"cloud-*").
double remote_read_p95(const trace::Tracer& tracer, StoreId local_store,
                       StoreId cloud_store) {
  std::map<std::pair<std::string, std::uint64_t>, std::pair<double, bool>> open;
  std::vector<double> remote;
  for (const auto& e : tracer.events()) {
    if (e.kind == trace::EventKind::FetchStart) {
      const StoreId affinity =
          e.actor.rfind("local", 0) == 0 ? local_store : cloud_store;
      open[{e.actor, e.a}] = {e.t, e.b != affinity};
    } else if (e.kind == trace::EventKind::FetchEnd) {
      const auto it = open.find({e.actor, e.a});
      if (it == open.end()) continue;
      if (it->second.second) remote.push_back(e.t - it->second.first);
      open.erase(it);
    }
  }
  if (remote.empty()) return 0.0;
  std::sort(remote.begin(), remote.end());
  const std::size_t idx =
      std::min(remote.size() - 1,
               static_cast<std::size_t>(0.95 * static_cast<double>(remote.size())));
  return remote[idx];
}

/// The ablation_faults store-fault scenario on the WAN-heavy environment:
/// knn on env-17/83 (the local side exhausts its 17% share and steals cloud
/// chunks across the WAN) with the cloud store failing 5% of GETs (plus
/// hangs) under the standard retry policy. env-50/50 would be useless here:
/// each side owns exactly its share, nothing ever crosses the WAN.
middleware::RunResult run_faulty_knn(trace::Tracer& tracer, ReplicaSet* replication) {
  return apps::run_env(
      apps::Env::Hybrid1783, apps::PaperApp::Knn,
      [&tracer, replication](cluster::PlatformSpec& spec,
                             middleware::RunOptions& options) {
        auto& fault = spec.sites[kCloudSite].store->fault;
        fault.fail_probability = 0.05;
        fault.hang_probability = 0.0125;
        fault.hang_seconds = 120.0;
        options.retry.max_attempts = 3;
        options.retry.backoff_base_seconds = 0.05;
        options.retry.attempt_timeout_seconds = 30.0;
        options.tracer = &tracer;
        options.replication = replication;
      });
}

// The headline acceptance criterion: under cloud store faults, k = 2
// cross-site replication strictly improves the remote-read p95 over k = 1
// (which has no alternative copy to fail over to).
TEST(ReplicaAcceptance, K2CrossSiteBeatsK1OnRemoteReadP95UnderStoreFaults) {
  ReplicationConfig k1;
  k1.replication_factor = 1;
  ReplicaSet rs1{k1};
  trace::Tracer t1;
  const auto r1 = run_faulty_knn(t1, &rs1);

  ReplicationConfig k2;
  k2.replication_factor = 2;
  k2.placement = PlacementPolicy::CrossSite;
  ReplicaSet rs2{k2};
  trace::Tracer t2;
  const auto r2 = run_faulty_knn(t2, &rs2);

  // Both complete all 96 jobs exactly once.
  EXPECT_EQ(r1.total_jobs(), 96u);
  EXPECT_EQ(r2.total_jobs(), 96u);

  // Paper testbed: local store is id 0, cloud store id 1.
  const double p95_k1 = remote_read_p95(t1, 0, 1);
  const double p95_k2 = remote_read_p95(t2, 0, 1);
  EXPECT_GT(p95_k1, 0.0);  // k = 1 did remote reads against the faulty store
  EXPECT_LT(p95_k2, p95_k1);

  // k = 1 placed no extra copies; k = 2 placed one per chunk and bills them.
  EXPECT_EQ(r1.replica.replicas_created, 0u);
  EXPECT_EQ(r2.replica.replicas_created, 96u);
  std::uint64_t extra = 0;
  for (const auto b : r2.replica.extra_replica_bytes) extra += b;
  EXPECT_GT(extra, 0u);
}

TEST(ReplicaAcceptance, FailoverMarksLossesAndRepairActorRestoresCopies) {
  ReplicationConfig cfg;
  cfg.replication_factor = 2;
  cfg.placement = PlacementPolicy::CrossSite;
  cfg.repair_interval_seconds = 0.5;
  cfg.suspect_seconds = 5.0;
  ReplicaSet rs{cfg};
  trace::Tracer tracer;
  // No client-side retry: the first failed GET writes the copy off, so the
  // failover + repair machinery (not the retry loop) carries the run. The
  // fail rate stays below the point where the route oracle would abandon the
  // store pre-emptively — readers keep using it and keep tripping faults.
  const auto result = apps::run_env(
      apps::Env::Hybrid5050, apps::PaperApp::Knn,
      [&](cluster::PlatformSpec& spec, middleware::RunOptions& options) {
        spec.sites[kCloudSite].store->fault.fail_probability = 0.08;
        options.tracer = &tracer;
        options.replication = &rs;
      });
  EXPECT_EQ(result.total_jobs(), 96u);

  // The faulty store lost copies; the repair actor re-replicated them and
  // billed the transfer bytes. Trace counters match the result counters.
  EXPECT_GT(result.replica.replicas_lost, 0u);
  EXPECT_GT(result.replica.replicas_repaired, 0u);
  EXPECT_GT(result.replica.repair_bytes, 0u);
  EXPECT_EQ(tracer.count(trace::EventKind::ReplicaCreated),
            result.replica.replicas_created);
  EXPECT_EQ(tracer.count(trace::EventKind::ReplicaLost),
            result.replica.replicas_lost);
  EXPECT_EQ(tracer.count(trace::EventKind::ReplicaRepaired),
            result.replica.replicas_repaired);
  // Replica marks render in the gantt ('+' created / '~' lost / 'r' repaired).
  const std::string gantt = tracer.render_gantt(80);
  EXPECT_NE(gantt.find('r'), std::string::npos);
}

// Everything at once: site caches with prefetch, cloud store faults, a node
// lifecycle drain, k = 2 replication with the replica-aware scheduler — the
// run still processes every chunk exactly once.
TEST(ReplicaAcceptance, ComposesWithCacheFaultsAndLifecycleInOneRun) {
  cache::CacheConfig ccfg;
  ccfg.capacity_bytes = GiB(4);
  ccfg.prefetch.enabled = true;
  ccfg.prefetch.depth = 4;
  cache::CacheFleet fleet(ccfg);

  ReplicationConfig rcfg;
  rcfg.replication_factor = 2;
  rcfg.placement = PlacementPolicy::CrossSite;
  ReplicaSet rs{rcfg};

  trace::Tracer tracer;
  const auto result = apps::run_env(
      apps::Env::Hybrid5050, apps::PaperApp::Knn,
      [&](cluster::PlatformSpec& spec, middleware::RunOptions& options) {
        spec.sites[kCloudSite].store->fault.fail_probability = 0.05;
        options.retry.max_attempts = 3;
        options.retry.backoff_base_seconds = 0.05;
        options.cache = &fleet;
        options.replication = &rs;
        options.policy.remote_selection = middleware::RemoteSelection::CheapestReplica;
        options.reduction_tree = false;  // lifecycle needs tracked work
        options.lifecycle.push_back(
            {middleware::RunOptions::LifecycleEvent::Kind::Drain, kCloudSite, 1, 2.0});
        options.tracer = &tracer;
      });

  // Exactly-once effective processing across all axes.
  std::map<std::uint64_t, unsigned> processed;
  for (const auto& e : tracer.events()) {
    if (e.kind == trace::EventKind::ProcessEnd) ++processed[e.a];
  }
  EXPECT_EQ(processed.size(), 96u);
  for (const auto& [chunk, count] : processed) {
    EXPECT_EQ(count, 1u) << "chunk " << chunk << " processed more than once";
  }
  EXPECT_EQ(result.lifecycle.drains_requested, 1u);
  EXPECT_EQ(result.replica.replicas_created, 96u);
}

// --- cost attribution --------------------------------------------------------

TEST(ReplicaCost, TwoTenantBillsSumExactlyAndCarryReplicaStorage) {
  const auto run_workload = [](ReplicaSet* rs) {
    Platform platform(PlatformSpec::paper_testbed(4, 4));
    storage::LayoutSpec lspec;
    lspec.total_bytes = MiB(256);
    lspec.num_files = 8;
    lspec.chunks_per_file = 2;
    lspec.unit_bytes = 64;
    storage::DataLayout layout = storage::build_layout(lspec);
    storage::assign_stores_by_fraction(layout, 0.5, platform.local_store_id(),
                                       platform.cloud_store_id());
    middleware::RunOptions options;
    options.profile.name = "wl";
    options.profile.unit_bytes = 64;
    options.profile.bytes_per_second_per_core = MBps(4);
    options.profile.robj_bytes = KiB(64);
    options.replication = rs;

    workload::WorkloadOptions opts;
    opts.policy = workload::SchedulingPolicy::FairShare;
    workload::WorkloadManager manager(platform, opts);
    for (int i = 0; i < 2; ++i) {
      workload::JobSpec spec;
      spec.name = i == 0 ? "a" : "b";
      spec.tenant = i == 0 ? "alice" : "bob";
      spec.layout = layout;
      spec.options = options;
      manager.submit(std::move(spec), 0.0);
    }
    return manager.run();
  };

  ReplicationConfig cfg;
  cfg.replication_factor = 2;
  cfg.placement = PlacementPolicy::CrossSite;
  ReplicaSet rs{cfg};
  const auto with = run_workload(&rs);
  const auto without = run_workload(nullptr);

  // Per-tenant attribution still partitions the platform bill exactly,
  // component by component, with replica storage and repair egress included.
  double inst = 0, req = 0, xfer = 0, stor = 0;
  for (const auto& job : with.jobs) {
    inst += job.attributed_cost.instance_usd;
    req += job.attributed_cost.requests_usd;
    xfer += job.attributed_cost.transfer_usd;
    stor += job.attributed_cost.storage_usd;
  }
  EXPECT_DOUBLE_EQ(inst, with.platform_cost.instance_usd);
  EXPECT_DOUBLE_EQ(req, with.platform_cost.requests_usd);
  EXPECT_DOUBLE_EQ(xfer, with.platform_cost.transfer_usd);
  EXPECT_DOUBLE_EQ(stor, with.platform_cost.storage_usd);
  double tenant_total = 0;
  for (const auto& t : with.tenants) tenant_total += t.attributed_cost.total_usd();
  EXPECT_NEAR(tenant_total, with.platform_cost.total_usd(), 1e-9);

  // The replicated workload's storage bill strictly exceeds the unreplicated
  // one: the cloud store now also holds copies of the local chunks.
  EXPECT_GT(with.platform_cost.storage_usd, without.platform_cost.storage_usd);
  std::uint32_t created = 0;
  for (const auto& job : with.jobs) created += job.run.replica.replicas_created;
  EXPECT_GT(created, 0u);
}

}  // namespace
}  // namespace cloudburst
