// Fault-model tests: Store fault injection (failures, throttling
// windows, hung GETs) on either kind of store, fault-profile validation,
// the fetch_with_retry resilience loop (backoff,
// timeout, hedging), the byte-identity pin of fault-free paper runs, the
// end-to-end acceptance run (faulty store + retry policy), prefetcher
// regression tests for the cache-failure interplay bugs, and the
// combined-axes (cache + crash + throttle + retry) conservation tests.
#include <gtest/gtest.h>

#include <cstring>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "apps/datagen.hpp"
#include "apps/experiments.hpp"
#include "apps/wordcount.hpp"
#include "cache/chunk_cache.hpp"
#include "cache/prefetcher.hpp"
#include "common/units.hpp"
#include "middleware/runtime.hpp"
#include "storage/store.hpp"
#include "storage/retry.hpp"
#include "trace/trace.hpp"

namespace cloudburst {
namespace {

using namespace cloudburst::units;
using cluster::kCloudSite;
using cluster::kLocalSite;
using des::from_seconds;
using des::Simulator;
using storage::ChunkInfo;
using storage::FetchResult;
using storage::Store;

/// A site with one reader endpoint and one store endpoint behind a fat link.
struct FaultStoreRig {
  Simulator sim;
  net::Network net{sim};
  net::EndpointId reader, store_ep;

  explicit FaultStoreRig(double front_bw) {
    const auto site = net.add_site("site");
    const auto front = net.add_link("front", front_bw, 0);
    store_ep = net.add_endpoint("store", site);
    net.set_access_path(store_ep, {front});
    reader = net.add_endpoint("reader", site);
  }
};

ChunkInfo make_chunk(storage::ChunkId id, std::uint64_t bytes) {
  ChunkInfo c;
  c.id = id;
  c.file = 0;
  c.index_in_file = static_cast<std::uint32_t>(id);
  c.bytes = bytes;
  c.units = bytes;
  return c;
}

// --- Store fault injection --------------------------------------------------

TEST(ObjectStoreFaults, DisabledProfileNeverFails) {
  FaultStoreRig rig(1e9);
  Store store(1, rig.sim, rig.net, rig.store_ep, Store::Params{});
  unsigned ok = 0;
  for (storage::ChunkId id = 0; id < 20; ++id) {
    store.fetch(rig.reader, make_chunk(id, 1000), 2, [&](const FetchResult& r) {
      ok += r.ok && r.bytes_moved == 1000;
    });
  }
  rig.sim.run();
  EXPECT_EQ(ok, 20u);
  EXPECT_EQ(store.stats().faults, 0u);
  EXPECT_EQ(store.stats().hung, 0u);
  EXPECT_EQ(store.stats().throttled, 0u);
}

TEST(ObjectStoreFaults, FailProbabilityInjectsPartialAborts) {
  storage::FaultProfile fault;
  fault.fail_probability = 0.5;

  const auto run_sequence = [&fault] {
    FaultStoreRig rig(1e9);
    Store store(1, rig.sim, rig.net, rig.store_ep, Store::Params{.fault = fault});
    std::vector<FetchResult> results;
    for (storage::ChunkId id = 0; id < 200; ++id) {
      store.fetch(rig.reader, make_chunk(id, 1'000'000), 4,
                  [&](const FetchResult& r) { results.push_back(r); });
      rig.sim.run();
    }
    return std::make_pair(results, store.stats());
  };

  const auto [results, stats] = run_sequence();
  unsigned failures = 0;
  for (const auto& r : results) {
    if (r.ok) {
      EXPECT_EQ(r.bytes_moved, 1'000'000u);
    } else {
      ++failures;
      // A failed GET aborts after a strict partial transfer.
      EXPECT_LT(r.bytes_moved, 1'000'000u);
    }
  }
  EXPECT_GT(failures, 50u);        // p = 0.5 over 200 draws
  EXPECT_LT(failures, 150u);
  EXPECT_EQ(failures, stats.faults);

  // Deterministic: the same profile replays the same fault sequence.
  const auto [replay, replay_stats] = run_sequence();
  ASSERT_EQ(replay.size(), results.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(replay[i].ok, results[i].ok);
    EXPECT_EQ(replay[i].bytes_moved, results[i].bytes_moved);
  }
  EXPECT_EQ(replay_stats.faults, stats.faults);
}

TEST(ObjectStoreFaults, ThrottleWindowDegradesBandwidth) {
  storage::FaultProfile fault;
  fault.throttles.push_back({/*begin=*/0.0, /*end=*/10.0,
                             /*bandwidth_factor=*/0.25, /*fail=*/0.0});
  FaultStoreRig rig(1e9);
  Store store(1, rig.sim, rig.net, rig.store_ep,
              Store::Params{.per_stream_bandwidth = 1e6, .fault = fault});

  double in_window = -1, after_window = -1;
  store.fetch(rig.reader, make_chunk(0, 1'000'000), 1, [&](const FetchResult& r) {
    EXPECT_TRUE(r.ok);
    in_window = des::to_seconds(rig.sim.now());
  });
  rig.sim.run();
  EXPECT_NEAR(in_window, 4.0, 1e-6);  // 1 MB at 0.25 MB/s
  EXPECT_EQ(store.stats().throttled, 1u);

  rig.sim.schedule(from_seconds(20.0 - in_window), [&] {
    store.fetch(rig.reader, make_chunk(1, 1'000'000), 1, [&](const FetchResult&) {
      after_window = des::to_seconds(rig.sim.now());
    });
  });
  rig.sim.run();
  EXPECT_NEAR(after_window - 20.0, 1.0, 1e-6);  // full 1 MB/s again
  EXPECT_EQ(store.stats().throttled, 1u);       // second GET was outside
}

// The window is half-open [begin, end): a GET issued exactly at the begin
// tick is throttled, one issued exactly at the end tick runs at full speed.
// Schedulers and replica route oracles align decisions to these edges, so the
// convention is pinned here (and documented on FaultProfile::Throttle).
TEST(ObjectStoreFaults, ThrottleWindowBoundaryIsHalfOpen) {
  storage::FaultProfile fault;
  fault.throttles.push_back({/*begin=*/5.0, /*end=*/10.0,
                             /*bandwidth_factor=*/0.25, /*fail=*/0.0});
  FaultStoreRig rig(1e9);
  Store store(1, rig.sim, rig.net, rig.store_ep,
              Store::Params{.per_stream_bandwidth = 1e6, .fault = fault});

  double at_begin = -1;
  rig.sim.schedule(from_seconds(5.0), [&] {
    store.fetch(rig.reader, make_chunk(0, 1'000'000), 1, [&](const FetchResult& r) {
      EXPECT_TRUE(r.ok);
      at_begin = des::to_seconds(rig.sim.now());
    });
  });
  rig.sim.run();
  EXPECT_NEAR(at_begin - 5.0, 4.0, 1e-6);  // t == begin: inside, 0.25 MB/s
  EXPECT_EQ(store.stats().throttled, 1u);

  double at_end = -1;
  rig.sim.schedule(from_seconds(10.0 - des::to_seconds(rig.sim.now())), [&] {
    store.fetch(rig.reader, make_chunk(1, 1'000'000), 1, [&](const FetchResult& r) {
      EXPECT_TRUE(r.ok);
      at_end = des::to_seconds(rig.sim.now());
    });
  });
  rig.sim.run();
  EXPECT_NEAR(at_end - 10.0, 1.0, 1e-6);  // t == end: outside, full 1 MB/s
  EXPECT_EQ(store.stats().throttled, 1u);  // the end-tick GET was not counted
}

TEST(ObjectStoreFaults, HungGetBalloonsLatency) {
  storage::FaultProfile fault;
  fault.hang_probability = 1.0;
  fault.hang_seconds = 30.0;
  FaultStoreRig rig(1e9);
  Store store(1, rig.sim, rig.net, rig.store_ep,
              Store::Params{.request_latency = from_seconds(0.1), .fault = fault});
  double done = -1;
  store.fetch(rig.reader, make_chunk(0, 1000), 1,
              [&](const FetchResult& r) {
                EXPECT_TRUE(r.ok);
                done = des::to_seconds(rig.sim.now());
              });
  rig.sim.run();
  EXPECT_GE(done, 30.0);
  EXPECT_EQ(store.stats().hung, 1u);
}

TEST(StoreFaults, DiskFaultProfileFailsGets) {
  // The platform hands a disk its StoreSpec::fault like any store, so the
  // disk fails GETs exactly as ReplicaSet's route oracle assumes it does.
  auto spec = cluster::PlatformSpec::paper_testbed(8, 8);
  ASSERT_EQ(spec.sites[kLocalSite].store->kind, cluster::StoreSpec::Kind::Disk);
  spec.sites[kLocalSite].store->fault.fail_probability = 1.0;
  cluster::Platform platform(spec);
  auto& disk = platform.store(platform.local_store_id());
  unsigned failed = 0;
  for (storage::ChunkId id = 0; id < 4; ++id) {
    disk.fetch(platform.nodes(kLocalSite)[0].endpoint, make_chunk(id, 1'000'000), 1,
               [&](const FetchResult& r) {
                 EXPECT_LT(r.bytes_moved, 1'000'000u);
                 failed += !r.ok;
               });
  }
  platform.sim().run();
  EXPECT_EQ(failed, 4u);
  EXPECT_EQ(disk.stats().faults, 4u);
}

// --- fault-profile validation -------------------------------------------------

/// Constructing a store with `fault` must throw std::invalid_argument.
void expect_rejected(const storage::FaultProfile& fault) {
  FaultStoreRig rig(1e9);
  EXPECT_THROW(Store(1, rig.sim, rig.net, rig.store_ep, Store::Params{.fault = fault}),
               std::invalid_argument);
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(StoreFaultProfile, RejectsBadFailProbability) {
  for (double p : {-0.1, 1.5, kNaN, kInf}) {
    storage::FaultProfile fault;
    fault.fail_probability = p;
    expect_rejected(fault);
  }
}

TEST(StoreFaultProfile, RejectsBadHangProbability) {
  for (double p : {-0.1, 1.5, kNaN, kInf}) {
    storage::FaultProfile fault;
    fault.hang_probability = p;
    fault.hang_seconds = 10.0;
    expect_rejected(fault);
  }
}

TEST(StoreFaultProfile, RejectsBadThrottleFailProbability) {
  for (double p : {-0.1, 1.5, kNaN, kInf}) {
    storage::FaultProfile fault;
    fault.throttles.push_back({0.0, 10.0, 0.5, p});
    expect_rejected(fault);
  }
}

TEST(StoreFaultProfile, RejectsBadHangSeconds) {
  for (double h : {-1.0, kNaN, kInf}) {
    storage::FaultProfile fault;
    fault.hang_probability = 0.5;
    fault.hang_seconds = h;
    expect_rejected(fault);
  }
}

TEST(StoreFaultProfile, RejectsInvertedThrottleWindow) {
  storage::FaultProfile fault;
  fault.throttles.push_back({10.0, 5.0, 0.5, 0.0});
  expect_rejected(fault);

  // An empty window (end == begin) is valid: it never throttles.
  storage::FaultProfile empty;
  empty.throttles.push_back({5.0, 5.0, 0.5, 0.0});
  FaultStoreRig rig(1e9);
  EXPECT_NO_THROW(Store(1, rig.sim, rig.net, rig.store_ep, Store::Params{.fault = empty}));
}

TEST(StoreFaultProfile, RejectsBadBandwidthFactor) {
  // A factor of 0 would read as an uncapped GET (a rate cap of 0 means
  // unlimited); NaN or a negative factor would throw mid-run from the network.
  for (double f : {0.0, -0.5, kNaN, kInf}) {
    storage::FaultProfile fault;
    fault.throttles.push_back({0.0, 10.0, f, 0.0});
    expect_rejected(fault);
  }
}

TEST(StoreFaultProfile, PlatformRejectsBadProfileOnEitherKindOfStore) {
  for (cluster::ClusterId site : {kLocalSite, kCloudSite}) {
    auto spec = cluster::PlatformSpec::paper_testbed(8, 8);
    spec.sites[site].store->fault.throttles.push_back({0.0, 10.0, 0.0, 0.0});
    EXPECT_THROW(cluster::Platform{spec}, std::invalid_argument);
  }
}

// --- fetch_with_retry --------------------------------------------------------

struct HookCounts {
  unsigned faults = 0, backoffs = 0, hedges = 0, hedge_wins = 0;
  std::uint64_t wasted = 0;
  std::vector<double> delays;

  storage::RetryHooks hooks() {
    storage::RetryHooks h;
    h.on_fault = [this](unsigned, const FetchResult&) { ++faults; };
    h.on_backoff = [this](unsigned, double d) {
      ++backoffs;
      delays.push_back(d);
    };
    h.on_hedge = [this](unsigned) { ++hedges; };
    h.on_hedge_win = [this](unsigned) { ++hedge_wins; };
    h.on_wasted = [this](std::uint64_t b) { wasted += b; };
    return h;
  }
};

TEST(FetchWithRetry, RetriesUntilSuccess) {
  storage::FaultProfile fault;
  fault.fail_probability = 0.5;
  FaultStoreRig rig(1e9);
  Store store(1, rig.sim, rig.net, rig.store_ep, Store::Params{.fault = fault});
  storage::RetryPolicy policy;
  policy.max_attempts = 10;
  policy.backoff_base_seconds = 0.01;

  HookCounts counts;
  unsigned ok = 0, calls = 0;
  for (storage::ChunkId id = 0; id < 20; ++id) {
    storage::fetch_with_retry(rig.sim, store, rig.reader, make_chunk(id, 100'000), 2,
                              policy, counts.hooks(), [&](const FetchResult& r) {
                                ++calls;
                                ok += r.ok;
                              });
    rig.sim.run();
  }
  EXPECT_EQ(calls, 20u);  // done fires exactly once per fetch
  EXPECT_EQ(ok, 20u);     // p = 0.5^10 of exhausting: effectively never
  EXPECT_GT(counts.faults, 0u);
  EXPECT_EQ(counts.backoffs, counts.faults);  // every failure retried
  EXPECT_EQ(counts.faults, store.stats().faults);
  EXPECT_GT(counts.wasted, 0u);  // failed partials billed
}

TEST(FetchWithRetry, ExhaustionReportsFailureWithExponentialBackoff) {
  storage::FaultProfile fault;
  fault.fail_probability = 1.0;  // every GET fails
  FaultStoreRig rig(1e9);
  Store store(1, rig.sim, rig.net, rig.store_ep, Store::Params{.fault = fault});
  storage::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.backoff_base_seconds = 0.5;
  policy.backoff_multiplier = 2.0;
  policy.jitter_fraction = 0.0;

  HookCounts counts;
  bool done_ok = true;
  unsigned calls = 0;
  storage::fetch_with_retry(rig.sim, store, rig.reader, make_chunk(0, 1000), 1, policy,
                            counts.hooks(), [&](const FetchResult& r) {
                              ++calls;
                              done_ok = r.ok;
                            });
  rig.sim.run();
  EXPECT_EQ(calls, 1u);
  EXPECT_FALSE(done_ok);
  EXPECT_EQ(counts.faults, 3u);
  ASSERT_EQ(counts.delays.size(), 2u);
  EXPECT_DOUBLE_EQ(counts.delays[0], 0.5);  // before attempt 2
  EXPECT_DOUBLE_EQ(counts.delays[1], 1.0);  // before attempt 3: base * 2
}

TEST(FetchWithRetry, TimeoutAbandonsHungGets) {
  storage::FaultProfile fault;
  fault.hang_probability = 1.0;
  fault.hang_seconds = 1000.0;
  FaultStoreRig rig(1e9);
  Store store(1, rig.sim, rig.net, rig.store_ep, Store::Params{.fault = fault});
  storage::RetryPolicy policy;
  policy.max_attempts = 2;
  policy.backoff_base_seconds = 0.5;
  policy.jitter_fraction = 0.0;
  policy.attempt_timeout_seconds = 1.0;

  HookCounts counts;
  double done_at = -1;
  bool done_ok = true;
  storage::fetch_with_retry(rig.sim, store, rig.reader, make_chunk(0, 4000), 1, policy,
                            counts.hooks(), [&](const FetchResult& r) {
                              done_ok = r.ok;
                              done_at = des::to_seconds(rig.sim.now());
                            });
  rig.sim.run();
  // Both attempts hang and are timed out: t = 1.0 + 0.5 backoff + 1.0.
  EXPECT_FALSE(done_ok);
  EXPECT_NEAR(done_at, 2.5, 1e-9);
  EXPECT_EQ(counts.faults, 2u);
  // The abandoned GETs still drain; their bytes report as wasted.
  EXPECT_EQ(counts.wasted, 8000u);
}

TEST(FetchWithRetry, HedgingRescuesTailLatency) {
  storage::FaultProfile fault;
  fault.hang_probability = 0.4;
  fault.hang_seconds = 100.0;
  FaultStoreRig rig(1e9);
  Store store(1, rig.sim, rig.net, rig.store_ep, Store::Params{.fault = fault});
  storage::RetryPolicy policy;
  policy.hedge_delay_seconds = 0.5;

  HookCounts counts;
  unsigned ok = 0;
  for (storage::ChunkId id = 0; id < 30; ++id) {
    storage::fetch_with_retry(rig.sim, store, rig.reader, make_chunk(id, 1000), 1,
                              policy, counts.hooks(),
                              [&](const FetchResult& r) { ok += r.ok; });
    rig.sim.run();
  }
  EXPECT_EQ(ok, 30u);
  EXPECT_GT(counts.hedges, 0u);      // hung primaries triggered hedges
  EXPECT_GT(counts.hedge_wins, 0u);  // and some hedges delivered first
  EXPECT_GT(counts.wasted, 0u);      // the losing legs' bytes
}

// --- byte-identity pin -------------------------------------------------------

// Golden numbers captured from the previous commit (fault-free model): the
// default FaultProfile + default RetryPolicy must not move a single event.
TEST(PaperFidelity, DefaultFaultModelKeepsPaperRunsByteIdentical) {
  struct Golden {
    apps::PaperApp app;
    double total, side0_retrieval, side1_retrieval;
  };
  const Golden golden[] = {
      {apps::PaperApp::Knn, 15.336687508000001, 8.2415436799999995,
       5.4063647999999986},
      {apps::PaperApp::Kmeans, 393.42430110600003, 7.7141972000000134,
       4.4149525934545437},
      {apps::PaperApp::PageRank, 21.640284884, 8.2415436799999977,
       5.4063647999999986},
  };
  for (const auto& g : golden) {
    const auto result = apps::run_env(
        apps::Env::Hybrid5050, g.app,
        [](cluster::PlatformSpec&, middleware::RunOptions& options) {
          options.retry = storage::RetryPolicy{};  // explicit default: disengaged
        });
    EXPECT_DOUBLE_EQ(result.total_time, g.total) << apps::to_string(g.app);
    EXPECT_DOUBLE_EQ(result.side(kLocalSite).retrieval, g.side0_retrieval)
        << apps::to_string(g.app);
    EXPECT_DOUBLE_EQ(result.side(kCloudSite).retrieval, g.side1_retrieval)
        << apps::to_string(g.app);
    EXPECT_EQ(result.totals().store_faults, 0u);
    EXPECT_EQ(result.totals().fetch_retries, 0u);
    EXPECT_EQ(result.bytes_retried_total(), 0u);
    // The node-lifecycle subsystem must stay inert by default: no drains, no
    // reclaims, no early billing ends, not a single event moved.
    EXPECT_EQ(result.lifecycle.drains_requested, 0u);
    EXPECT_EQ(result.lifecycle.nodes_vacated, 0u);
    EXPECT_EQ(result.lifecycle.nodes_reclaimed, 0u);
    EXPECT_EQ(result.lifecycle.nodes_crashed, 0u);
    EXPECT_EQ(result.lifecycle.replacements_leased, 0u);
    for (const auto& rental : result.rentals) EXPECT_LT(rental.end, 0.0);
    // Replication defaults off (RunOptions::replication == nullptr): no
    // copies created, lost, or repaired, and no replica storage billed.
    EXPECT_EQ(result.replica.replicas_created, 0u);
    EXPECT_EQ(result.replica.replicas_lost, 0u);
    EXPECT_EQ(result.replica.replicas_repaired, 0u);
    EXPECT_EQ(result.replica.repair_bytes, 0u);
    EXPECT_TRUE(result.replica.extra_replica_bytes.empty());
  }
}

// --- end-to-end acceptance ---------------------------------------------------

TEST(FaultAcceptance, FaultyKnnWithRetryCompletesExactlyOnce) {
  trace::Tracer tracer;
  const auto result = apps::run_env(
      apps::Env::Hybrid5050, apps::PaperApp::Knn,
      [&tracer](cluster::PlatformSpec& spec, middleware::RunOptions& options) {
        spec.sites[kCloudSite].store->fault.fail_probability = 0.05;
        options.retry.max_attempts = 3;
        options.retry.backoff_base_seconds = 0.05;
        options.tracer = &tracer;
      });

  // The run completes with every chunk processed exactly once.
  EXPECT_EQ(result.total_jobs(), 96u);
  std::map<std::uint64_t, unsigned> processed;
  unsigned trace_faults = 0, trace_backoffs = 0;
  for (const auto& e : tracer.events()) {
    if (e.kind == trace::EventKind::ProcessEnd) ++processed[e.a];
    if (e.kind == trace::EventKind::StoreFault) ++trace_faults;
    if (e.kind == trace::EventKind::RetryBackoff) ++trace_backoffs;
  }
  EXPECT_EQ(processed.size(), 96u);
  for (const auto& [chunk, count] : processed) {
    EXPECT_EQ(count, 1u) << "chunk " << chunk << " processed more than once";
  }

  // Nonzero fault/retry counters, consistent between RunResult and trace.
  EXPECT_GT(result.totals().store_faults, 0u);
  EXPECT_GT(result.totals().fetch_retries, 0u);
  EXPECT_EQ(result.totals().store_faults, trace_faults);
  EXPECT_EQ(result.totals().fetch_retries, trace_backoffs);
  EXPECT_GT(result.bytes_retried_total(), 0u);  // partial GETs billed
}

// --- prefetcher regressions (cache-failure interplay) ------------------------

/// Drives a Prefetcher with a hand-cranked fetch hook: every issued GET is
/// parked until the test completes it.
struct PrefetchRig {
  cache::CacheConfig cfg;
  cache::ChunkCache cache;
  std::vector<std::pair<storage::ChunkId, std::function<void(bool)>>> pending;
  unsigned aborts = 0;
  cache::Prefetcher pf;
  storage::DataLayout layout;

  PrefetchRig(unsigned depth = 2)
      : cfg(make_cfg(depth)), cache(cfg), pf(cache, cfg.prefetch, make_env()),
        layout(storage::build_layout_for_units(400, 1, 4, 1)) {}

  static cache::CacheConfig make_cfg(unsigned depth) {
    cache::CacheConfig c;
    c.capacity_bytes = 1 << 30;
    c.prefetch.enabled = true;
    c.prefetch.depth = depth;
    return c;
  }

  cache::Prefetcher::Env make_env() {
    cache::Prefetcher::Env env;
    env.fetch = [this](storage::StoreId, const ChunkInfo& wire,
                       std::function<void(bool)> done) {
      pending.emplace_back(wire.id, std::move(done));
    };
    env.on_abort = [this](storage::StoreId, const ChunkInfo&) { ++aborts; };
    return env;
  }

  void pool(std::initializer_list<storage::ChunkId> ids) {
    std::deque<storage::ChunkId> q(ids);
    pf.on_pool_update(q, layout);
  }

  /// Settle the oldest parked GET for `chunk`.
  void complete(storage::ChunkId chunk, bool ok) {
    for (auto it = pending.begin(); it != pending.end(); ++it) {
      if (it->first == chunk) {
        auto done = std::move(it->second);
        pending.erase(it);
        done(ok);
        return;
      }
    }
    FAIL() << "no pending GET for chunk " << chunk;
  }
};

// Satellite bug 1: a slave that joined an in-flight prefetch and then died
// must never receive the completion callback — on_slave_failed drops its
// waiters by owner token.
TEST(PrefetcherRegression, DropOwnerSilencesDeadSlaveWaiters) {
  PrefetchRig rig;
  rig.pool({0, 1, 2, 3});
  ASSERT_TRUE(rig.pf.in_flight(0));

  unsigned dead_fired = 0, live_fired = 0;
  rig.pf.wait_for(0, /*owner=*/111, [&](bool) { ++dead_fired; });
  rig.pf.wait_for(0, /*owner=*/222, [&](bool) { ++live_fired; });
  rig.pf.drop_owner(111);  // slave 111 crashed while joined

  rig.complete(0, true);
  EXPECT_EQ(dead_fired, 0u);  // the dead slave's callback never fires
  EXPECT_EQ(live_fired, 1u);
}

// Satellite bug 2: a chunk whose prefetch completed and was consumed stays in
// the issued-set; when crash recovery re-enqueues the chunk, release() must
// reopen it or the recovery copy can never be prefetched.
TEST(PrefetcherRegression, ReleaseReopensConsumedChunkForReprefetch) {
  PrefetchRig rig;
  rig.pool({0, 1});
  rig.complete(0, true);
  rig.pf.mark_consumed(0);
  ASSERT_TRUE(rig.cache.contains(0));
  EXPECT_EQ(rig.pf.issued_count(), 2u);

  // Crash recovery: the chunk's work was lost, the cached copy went with the
  // dead node's scratch state, and the chunk is back in the pool.
  rig.cache.erase(0);
  rig.pf.release(0);

  const auto issued_before = rig.pending.size();
  rig.pool({0});
  ASSERT_EQ(rig.pending.size(), issued_before + 1);  // re-prefetched
  EXPECT_TRUE(rig.pf.in_flight(0));
}

// An in-flight transfer keeps its dedup entry across release(): clearing it
// would let pump() launch a second GET for airborne bytes.
TEST(PrefetcherRegression, ReleaseWhileInFlightDoesNotDoubleGet) {
  PrefetchRig rig;
  rig.pool({0, 1});
  ASSERT_TRUE(rig.pf.in_flight(0));
  const auto issued_before = rig.pending.size();

  rig.pf.release(0);  // recovery re-enqueued it while the GET is still up
  rig.pool({0});
  EXPECT_EQ(rig.pending.size(), issued_before);  // no second GET

  unsigned fired = 0;
  rig.pf.wait_for(0, /*owner=*/7, [&](bool ok) { fired += ok; });
  rig.complete(0, true);
  EXPECT_EQ(fired, 1u);  // the re-assigned slave joined the airborne copy
}

// A permanently failed prefetch aborts: accounting reverted, waiters told
// ok = false (they fall back to their own fetch), chunk eligible again.
TEST(PrefetcherRegression, FailedPrefetchAbortsAndNotifiesWaiters) {
  PrefetchRig rig;
  rig.pool({0, 1});
  unsigned fallback = 0;
  rig.pf.wait_for(0, /*owner=*/7, [&](bool ok) { fallback += !ok; });

  rig.complete(0, false);
  EXPECT_EQ(fallback, 1u);        // waiter signalled to fetch on its own
  EXPECT_EQ(rig.aborts, 1u);      // issue-time accounting reverted
  EXPECT_FALSE(rig.cache.contains(0));
  EXPECT_FALSE(rig.pf.in_flight(0));

  const auto issued_before = rig.pending.size();
  rig.pool({0});
  EXPECT_EQ(rig.pending.size(), issued_before + 1);  // eligible again
}

// --- combined axes: cache x faults x throttling x crash ----------------------

/// Real-execution wordcount rig (mirrors test_fault_tolerance's FaultRig)
/// with a configurable platform spec so stores can carry fault profiles.
struct CombinedRig {
  engine::MemoryDataset data;
  apps::WordCountTask task;
  std::unordered_map<std::uint64_t, double> reference;

  CombinedRig() : data(make_data()) {
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

  middleware::RunOptions options() {
    middleware::RunOptions o;
    o.profile.name = "wordcount";
    o.profile.unit_bytes = data.unit_bytes();
    o.profile.bytes_per_second_per_core = MBps(0.05);
    o.profile.per_job_overhead_seconds = 0.5;
    o.profile.robj_bytes = 0;
    o.task = &task;
    o.dataset = &data;
    return o;
  }

  struct Outcome {
    middleware::RunResult result;
    std::vector<storage::Store::Stats> store_stats;
  };

  Outcome run(cluster::PlatformSpec spec, const middleware::RunOptions& o) {
    cluster::Platform platform(spec);
    // 48 chunks on 32 cores: the pool keeps a backlog, so the prefetcher has
    // real future work to overlap (24 chunks would all assign at t=0).
    storage::DataLayout layout =
        storage::build_layout_for_units(data.units(), data.unit_bytes(), 6, 8);
    storage::assign_stores_by_fraction(layout, 0.5, platform.local_store_id(),
                                       platform.cloud_store_id());
    Outcome out{middleware::run_distributed(platform, layout, o), {}};
    for (storage::StoreId s = 0; s < platform.store_count(); ++s) {
      out.store_stats.push_back(platform.store(s).stats());
    }
    return out;
  }

  void expect_correct(const middleware::RunResult& result) {
    ASSERT_NE(result.robj, nullptr);
    const auto& got = dynamic_cast<const api::HashCountRobj&>(*result.robj);
    ASSERT_EQ(got.distinct_keys(), reference.size());
    for (const auto& [k, v] : reference) {
      EXPECT_DOUBLE_EQ(got.get(k), v) << "word " << k;
    }
  }
};

// No crash: with faults, a throttling window, a prefetching cache, and a
// retry policy all active, every wire byte is accounted exactly once:
//   sum(store bytes_served) == sum(bytes_fetched - bytes_from_cache)
//                              + sum(bytes_retried).
TEST(CombinedAxes, FaultsThrottleCacheRetryConserveBytes) {
  CombinedRig rig;
  auto spec = cluster::PlatformSpec::paper_testbed(16, 16);
  auto& fault = spec.sites[kCloudSite].store->fault;
  fault.fail_probability = 0.08;
  fault.throttles.push_back({2.0, 8.0, 0.25, 0.1});

  cache::CacheConfig cfg;
  cfg.capacity_bytes = GiB(4);
  cfg.prefetch.enabled = true;
  cfg.prefetch.depth = 4;
  cache::CacheFleet fleet(cfg);

  auto o = rig.options();
  o.cache = &fleet;
  o.retry.max_attempts = 4;
  o.retry.backoff_base_seconds = 0.05;

  const auto out = rig.run(spec, o);
  rig.expect_correct(out.result);
  EXPECT_EQ(out.result.total_jobs(), 48u);  // no crash: no re-execution
  EXPECT_GT(out.result.totals().cache_hits, 0u);   // prefetcher actually engaged

  // The fault machinery actually fired.
  EXPECT_GT(out.result.totals().store_faults, 0u);
  EXPECT_GT(out.result.totals().fetch_retries, 0u);
  EXPECT_GT(out.result.bytes_retried_total(), 0u);

  std::uint64_t served = 0;
  for (const auto& s : out.store_stats) served += s.bytes_served;
  std::uint64_t charged = 0, credited = 0;
  for (const auto& traffic : out.result.totals().stores) {
    charged += traffic.bytes_fetched;
    credited += traffic.bytes_from_cache;
  }
  EXPECT_EQ(served, charged - credited + out.result.bytes_retried_total());
}

// All axes at once: a slave crash lands inside a store throttling window
// while a prefetching cache and a retry policy are active. The reduction
// must still be exactly correct (exactly-once effective processing).
TEST(CombinedAxes, CrashInsideThrottleWindowStillExactlyOnce) {
  CombinedRig rig;

  // Failure-free duration calibrates the crash time and throttle window.
  const auto clean = rig.run(cluster::PlatformSpec::paper_testbed(16, 16),
                             [&] {
                               auto o = rig.options();
                               o.reduction_tree = false;
                               return o;
                             }());
  const double T = clean.result.total_time;

  auto spec = cluster::PlatformSpec::paper_testbed(16, 16);
  auto& fault = spec.sites[kCloudSite].store->fault;
  fault.fail_probability = 0.05;
  // Window opens at t=0 (so the first wave of GETs is throttled) and is still
  // open when the crash at 0.5 T lands — crash and throttle overlap.
  fault.throttles.push_back({0.0, 0.7 * T, 0.25, 0.1});

  cache::CacheConfig cfg;
  cfg.capacity_bytes = GiB(4);
  cfg.prefetch.enabled = true;
  cfg.prefetch.depth = 4;
  cache::CacheFleet fleet(cfg);

  auto o = rig.options();
  o.reduction_tree = false;
  o.cache = &fleet;
  o.retry.max_attempts = 3;
  o.retry.backoff_base_seconds = 0.05;
  o.lifecycle.push_back({middleware::RunOptions::LifecycleEvent::Kind::Crash, kCloudSite,
                         1, 0.5 * T});  // dies mid-window
  o.failure_detection_seconds = 0.2;

  const auto out = rig.run(spec, o);
  rig.expect_correct(out.result);
  EXPECT_GE(out.result.total_jobs(), 48u);  // crash may force re-execution
  EXPECT_GT(out.store_stats[1].throttled, 0u);  // GETs landed in the window
}

}  // namespace
}  // namespace cloudburst
