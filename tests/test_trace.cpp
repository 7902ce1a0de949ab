// Tests for the tracing subsystem: recording, JSONL output, Gantt rendering,
// and — through a traced run — auditing the middleware's event stream
// (paired start/end events, per-chunk exactly-once processing, protocol
// ordering).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "apps/experiments.hpp"
#include "cache/chunk_cache.hpp"
#include "common/units.hpp"
#include "middleware/runtime.hpp"
#include "trace/trace.hpp"
#include "workload/workload_manager.hpp"

namespace cloudburst::trace {
namespace {

using namespace cloudburst::units;

TEST(Tracer, RecordsAndCounts) {
  Tracer tracer;
  tracer.record(1.0, EventKind::FetchStart, "n0", 5, 1);
  tracer.record(2.0, EventKind::FetchEnd, "n0", 5);
  tracer.record(3.0, EventKind::RunEnd, "head");
  EXPECT_EQ(tracer.events().size(), 3u);
  EXPECT_EQ(tracer.count(EventKind::FetchStart), 1u);
  EXPECT_EQ(tracer.count(EventKind::ProcessStart), 0u);
  tracer.clear();
  EXPECT_TRUE(tracer.events().empty());
}

TEST(Tracer, JsonlShape) {
  Tracer tracer;
  tracer.record(1.25, EventKind::JobAssigned, "local-node0", 7, 0);
  const std::string out = tracer.to_jsonl();
  EXPECT_NE(out.find("\"t\":1.250000"), std::string::npos);
  EXPECT_NE(out.find("\"kind\":\"JobAssigned\""), std::string::npos);
  EXPECT_NE(out.find("\"actor\":\"local-node0\""), std::string::npos);
  EXPECT_NE(out.find("\"a\":7"), std::string::npos);
  // One line per event, newline-terminated.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 1);
}

TEST(Tracer, JsonlEscapesJobNames) {
  // A job's name is its lane's actor: quotes, backslashes and control
  // characters in it must come out as JSON escapes.
  cluster::Platform platform(cluster::PlatformSpec::paper_testbed(4, 4));
  storage::LayoutSpec lspec;
  lspec.total_bytes = MiB(16);
  lspec.num_files = 2;
  lspec.chunks_per_file = 2;
  lspec.unit_bytes = 64;
  Tracer tracer;
  workload::WorkloadOptions wopts;
  wopts.tracer = &tracer;
  workload::WorkloadManager manager(platform, wopts);
  workload::JobSpec spec;
  spec.name = "say \"hi\"\\now\x01\n";
  spec.layout = storage::build_layout(lspec);
  storage::assign_stores_by_fraction(spec.layout, 0.5, platform.local_store_id(),
                                     platform.cloud_store_id());
  spec.options.profile.unit_bytes = 64;
  spec.options.profile.bytes_per_second_per_core = MBps(4);
  workload::JobSpec plain = spec;  // a second job puts "<name>/" before each actor
  plain.name = "plain";
  manager.submit(std::move(spec), 0.0);
  manager.submit(std::move(plain), 0.0);
  manager.run();

  const std::string out = tracer.to_jsonl();
  EXPECT_NE(out.find("\"actor\":\"say \\\"hi\\\"\\\\now\\u0001\\u000a\""),
            std::string::npos);
  EXPECT_NE(out.find("\"actor\":\"say \\\"hi\\\"\\\\now\\u0001\\u000a/head\""),
            std::string::npos);
  // No raw control character survives; newlines only end lines.
  EXPECT_EQ(std::count_if(out.begin(), out.end(),
                          [](char c) { return static_cast<unsigned char>(c) < 0x20 && c != '\n'; }),
            0);
  EXPECT_EQ(static_cast<std::size_t>(std::count(out.begin(), out.end(), '\n')),
            tracer.events().size());
}

TEST(Tracer, GanttMarksActivity) {
  Tracer tracer;
  tracer.record(0.0, EventKind::FetchStart, "n0", 1);
  tracer.record(5.0, EventKind::FetchEnd, "n0", 1);
  tracer.record(5.0, EventKind::ProcessStart, "n0", 1);
  tracer.record(10.0, EventKind::ProcessEnd, "n0", 1);
  const std::string gantt = tracer.render_gantt(10);
  EXPECT_NE(gantt.find("n0"), std::string::npos);
  EXPECT_NE(gantt.find('f'), std::string::npos);
  EXPECT_NE(gantt.find('P'), std::string::npos);
}

TEST(Tracer, GanttEmptyWhenNoEvents) {
  Tracer tracer;
  EXPECT_TRUE(tracer.render_gantt().empty());
}

TEST(Tracer, EventKindNamesAreDistinct) {
  std::set<std::string> names;
  for (int k = 0; k <= static_cast<int>(EventKind::RunEnd); ++k) {
    names.insert(to_string(static_cast<EventKind>(k)));
  }
  EXPECT_EQ(names.size(), static_cast<std::size_t>(EventKind::RunEnd) + 1);
}

// --- traced runs audit the middleware ---------------------------------------------

struct TracedRun {
  Tracer tracer;
  middleware::RunResult result;
};

TracedRun traced_env_run() {
  TracedRun out;
  out.result = apps::run_env(apps::Env::Hybrid3367, apps::PaperApp::Knn,
                             [&out](cluster::PlatformSpec&, middleware::RunOptions& o) {
                               o.tracer = &out.tracer;
                             });
  return out;
}

TEST(TracedRun, EveryChunkProcessedExactlyOnce) {
  const auto run = traced_env_run();
  std::map<std::uint64_t, int> processed;
  for (const auto& e : run.tracer.events()) {
    if (e.kind == EventKind::ProcessEnd) ++processed[e.a];
  }
  EXPECT_EQ(processed.size(), 96u);
  for (const auto& [chunk, n] : processed) EXPECT_EQ(n, 1) << "chunk " << chunk;
}

TEST(TracedRun, StartEndEventsPair) {
  const auto run = traced_env_run();
  EXPECT_EQ(run.tracer.count(EventKind::FetchStart),
            run.tracer.count(EventKind::FetchEnd));
  EXPECT_EQ(run.tracer.count(EventKind::ProcessStart),
            run.tracer.count(EventKind::ProcessEnd));
  EXPECT_EQ(run.tracer.count(EventKind::JobAssigned), 96u);
  EXPECT_EQ(run.tracer.count(EventKind::RunEnd), 1u);
}

TEST(TracedRun, PerChunkOrderingIsFetchThenProcess) {
  const auto run = traced_env_run();
  std::map<std::uint64_t, double> fetch_end, process_start;
  for (const auto& e : run.tracer.events()) {
    if (e.kind == EventKind::FetchEnd) fetch_end[e.a] = e.t;
    if (e.kind == EventKind::ProcessStart) process_start[e.a] = e.t;
  }
  for (const auto& [chunk, t] : process_start) {
    ASSERT_TRUE(fetch_end.count(chunk));
    EXPECT_LE(fetch_end[chunk], t + 1e-12) << "chunk " << chunk;
  }
}

TEST(TracedRun, TimesAreMonotoneAndBounded) {
  const auto run = traced_env_run();
  double prev = 0.0;
  for (const auto& e : run.tracer.events()) {
    EXPECT_GE(e.t, prev - 1e-12);
    prev = e.t;
  }
  EXPECT_NEAR(run.tracer.events().back().t, run.result.total_time, 1e-9);
}

TEST(TracedRun, BatchGrantsCoverAllChunks) {
  const auto run = traced_env_run();
  std::uint64_t granted = 0;
  for (const auto& e : run.tracer.events()) {
    if (e.kind == EventKind::BatchGranted) granted += e.a;
  }
  EXPECT_EQ(granted, 96u);
}

TEST(TracedRun, GanttRendersEveryNode) {
  const auto run = traced_env_run();
  const std::string gantt = run.tracer.render_gantt(60);
  for (const auto& n : run.result.nodes) {
    EXPECT_NE(gantt.find(n.name), std::string::npos) << n.name;
  }
}

// --- cache-enabled runs ------------------------------------------------------
//
// Same audit with a site cache + prefetcher attached. Note: no monotone-time
// assertion here on purpose — PrefetchWasted/CacheEvict bookkeeping events are
// emitted when the run drains, after RunEnd.

struct CacheTracedRun {
  Tracer cold;
  Tracer warm;
};

CacheTracedRun cache_traced_run() {
  CacheTracedRun out;
  cache::CacheConfig cfg;
  cfg.capacity_bytes = GiB(16);
  cfg.prefetch.enabled = true;
  cfg.prefetch.depth = 4;
  cache::CacheFleet fleet(cfg);
  for (Tracer* tracer : {&out.cold, &out.warm}) {
    apps::run_env(apps::Env::Cloud, apps::PaperApp::Knn,
                  [&](cluster::PlatformSpec&, middleware::RunOptions& o) {
                    o.tracer = tracer;
                    o.cache = &fleet;
                  });
  }
  return out;
}

TEST(CacheTracedRun, FetchEventsStillPair) {
  const auto run = cache_traced_run();
  for (const Tracer* t : {&run.cold, &run.warm}) {
    EXPECT_EQ(t->count(EventKind::FetchStart), t->count(EventKind::FetchEnd));
    EXPECT_EQ(t->count(EventKind::CacheHit) + t->count(EventKind::CacheMiss), 96u);
  }
  // Second pass on the same fleet: everything is resident.
  EXPECT_EQ(run.warm.count(EventKind::CacheHit), 96u);
  EXPECT_EQ(run.warm.count(EventKind::CacheMiss), 0u);
  EXPECT_GT(run.cold.count(EventKind::CacheMiss), 0u);
}

TEST(CacheTracedRun, EveryPrefetchResolvesToHitOrWasted) {
  const auto run = cache_traced_run();
  std::set<std::uint64_t> issued, resolved;
  for (const auto& e : run.cold.events()) {
    if (e.kind == EventKind::PrefetchIssued) {
      EXPECT_TRUE(issued.insert(e.a).second) << "chunk " << e.a << " issued twice";
    }
    if (e.kind == EventKind::CacheHit || e.kind == EventKind::PrefetchWasted) {
      resolved.insert(e.a);
    }
  }
  EXPECT_GT(issued.size(), 0u);
  for (std::uint64_t chunk : issued) {
    EXPECT_TRUE(resolved.count(chunk)) << "prefetched chunk " << chunk
                                       << " neither consumed nor marked wasted";
  }
}

TEST(CacheTracedRun, GanttDistinguishesCacheHitFetches) {
  const auto run = cache_traced_run();
  // Cold pass pulls from the store ('f' WAN fetch spans); the warm pass reads
  // everything from the site cache ('c' spans).
  EXPECT_NE(run.cold.render_gantt(60).find('f'), std::string::npos);
  EXPECT_NE(run.warm.render_gantt(60).find('c'), std::string::npos);
}

/// A knn paper run in direct-reduction mode, traced.
middleware::RunOptions traced_knn_options(Tracer& tracer) {
  middleware::RunOptions options = apps::paper_run_options(apps::PaperApp::Knn);
  options.reduction_tree = false;
  options.tracer = &tracer;
  return options;
}

void run_knn_testbed(const middleware::RunOptions& options) {
  cluster::Platform platform(cluster::PlatformSpec::paper_testbed(16, 16));
  const auto layout = apps::paper_layout(apps::PaperApp::Knn, 0.5,
                                         platform.local_store_id(),
                                         platform.cloud_store_id());
  middleware::run_distributed(platform, layout, options);
}

TEST(TracedRun, CrashEventAppears) {
  Tracer tracer;
  middleware::RunOptions options = traced_knn_options(tracer);
  options.lifecycle.push_back({middleware::RunOptions::LifecycleEvent::Kind::Crash,
                               cluster::kCloudSite, 0, 5.0});
  run_knn_testbed(options);
  EXPECT_EQ(tracer.count(EventKind::SlaveFailed), 1u);
}

TEST(TracedRun, ActivationEventsAppear) {
  Tracer tracer;
  middleware::RunOptions options = traced_knn_options(tracer);
  options.elastic.enabled = true;
  options.elastic.deadline_seconds = 1.0;  // unreachable: force activation
  options.elastic.initial_cloud_nodes = 4;
  options.elastic.check_interval_seconds = 1.0;
  options.elastic.boot_seconds = 2.0;
  run_knn_testbed(options);
  EXPECT_GT(tracer.count(EventKind::InstanceActivated), 0u);
}

TEST(TracedRun, CrashAndActivationNameTheSlave) {
  // SlaveFailed and InstanceActivated carry actor = slave, like every other
  // per-node event.
  const cluster::Platform names(cluster::PlatformSpec::paper_testbed(16, 16));
  const auto& cloud = names.nodes(cluster::kCloudSite);

  Tracer crash_trace;
  middleware::RunOptions crash = traced_knn_options(crash_trace);
  crash.lifecycle.push_back({middleware::RunOptions::LifecycleEvent::Kind::Crash,
                             cluster::kCloudSite, 2, 5.0});
  run_knn_testbed(crash);
  for (const auto& e : crash_trace.events()) {
    if (e.kind == EventKind::SlaveFailed) {
      EXPECT_EQ(e.actor, cloud[2].name);
    }
  }

  Tracer elastic_trace;
  middleware::RunOptions elastic = traced_knn_options(elastic_trace);
  elastic.elastic.enabled = true;
  elastic.elastic.deadline_seconds = 1.0;
  elastic.elastic.initial_cloud_nodes = 4;
  elastic.elastic.check_interval_seconds = 1.0;
  elastic.elastic.boot_seconds = 2.0;
  run_knn_testbed(elastic);
  std::set<std::string> activated;
  for (const auto& e : elastic_trace.events()) {
    if (e.kind == EventKind::InstanceActivated) activated.insert(e.actor);
  }
  ASSERT_FALSE(activated.empty());
  for (const std::string& actor : activated) {
    bool held_cloud_node = false;
    for (std::size_t i = 4; i < cloud.size(); ++i) {
      if (cloud[i].name == actor) held_cloud_node = true;
    }
    EXPECT_TRUE(held_cloud_node) << actor;
  }
}

}  // namespace
}  // namespace cloudburst::trace
