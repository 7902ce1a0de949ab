// Ablation: site-local chunk cache — eviction policy x capacity sweep, cold
// vs warm iterations, and the prefetcher on top.
//
// Scenario: 10-iteration k-means in env-cloud (all 12 GB in S3, 44 cloud
// cores) — the workload whose every pass re-fetches the same chunks. "cold"
// is pass 0 (nothing resident yet); "warm" is the mean of the remaining
// passes. A capacity that fits the working set turns warm passes into local
// reads; an undersized LRU cache sequentially floods and saves nothing,
// which is exactly what the policy column is for.
#include "cache/chunk_cache.hpp"
#include "common/units.hpp"
#include "middleware/iterative.hpp"
#include "paper_common.hpp"

namespace {

using namespace cloudburst;
using namespace cloudburst::units;

struct SweepPoint {
  double cold_retrieval = 0.0;  ///< pass-0 node-seconds fetching
  double warm_retrieval = 0.0;  ///< mean of passes 1+
  double total_seconds = 0.0;
  double hit_rate = 0.0;
  std::uint64_t s3_gets = 0;
  std::uint32_t prefetch_issued = 0;
  std::uint32_t prefetch_wasted = 0;
};

double pass_retrieval(const middleware::RunResult& pass) {
  double total = 0.0;
  for (const auto& node : pass.nodes) total += node.retrieval;
  return total;
}

SweepPoint run_point(const storage::DataLayout& layout, cache::CacheFleet* fleet,
                     const cloudburst::bench::BenchArgs& args) {
  middleware::IterativeRequest request;
  request.platform_spec = cluster::PlatformSpec::paper_testbed(0, 44);
  request.layout = &layout;
  request.options = apps::paper_run_options(apps::PaperApp::Kmeans);
  request.options.cache = fleet;
  request.options.random_seed = args.seed;
  request.iterations = args.quick ? 3 : 10;
  const auto result = run_iterative(std::move(request));

  SweepPoint point;
  point.cold_retrieval = pass_retrieval(result.passes.front());
  for (std::size_t i = 1; i < result.passes.size(); ++i) {
    point.warm_retrieval += pass_retrieval(result.passes[i]);
  }
  point.warm_retrieval /= static_cast<double>(result.passes.size() - 1);
  point.total_seconds = result.total_seconds;
  point.hit_rate = result.cache_hit_rate();
  point.s3_gets = result.s3_get_requests();
  for (const auto& pass : result.passes) {
    const auto totals = pass.totals();
    point.prefetch_issued += totals.prefetch_issued;
    point.prefetch_wasted += totals.prefetch_wasted;
  }
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
  const auto layout = apps::paper_layout(apps::PaperApp::Kmeans, 0.0, 0, 1);

  AsciiTable table({"policy", "capacity", "cold fetch s", "warm fetch s", "total s",
                    "hit rate", "S3 GETs", "speedup"});
  const SweepPoint off = run_point(layout, nullptr, args);
  table.add_row({"off", "-", AsciiTable::num(off.cold_retrieval, 0),
                 AsciiTable::num(off.warm_retrieval, 0),
                 AsciiTable::num(off.total_seconds, 1), "-",
                 std::to_string(off.s3_gets), "1.00x"});
  table.add_separator();

  std::vector<cache::EvictionPolicy> policies = {
      cache::EvictionPolicy::Lru, cache::EvictionPolicy::Lfu, cache::EvictionPolicy::Fifo};
  std::vector<std::uint64_t> capacities = {GiB(2), GiB(6), GiB(16)};
  if (args.quick) {
    policies = {cache::EvictionPolicy::Lru};
    capacities = {GiB(16)};
  }
  for (cache::EvictionPolicy policy : policies) {
    for (std::uint64_t capacity : capacities) {
      cache::CacheConfig cfg;
      cfg.policy = policy;
      cfg.capacity_bytes = capacity;
      cache::CacheFleet fleet(cfg);
      const SweepPoint point = run_point(layout, &fleet, args);
      char cap[16], rate[16], speedup[16];
      std::snprintf(cap, sizeof(cap), "%lluG",
                    static_cast<unsigned long long>(capacity >> 30));
      std::snprintf(rate, sizeof(rate), "%.0f%%", point.hit_rate * 100.0);
      std::snprintf(speedup, sizeof(speedup), "%.2fx",
                    off.total_seconds / point.total_seconds);
      table.add_row({cache::to_string(policy), cap,
                     AsciiTable::num(point.cold_retrieval, 0),
                     AsciiTable::num(point.warm_retrieval, 0),
                     AsciiTable::num(point.total_seconds, 1), rate,
                     std::to_string(point.s3_gets), speedup});
    }
    table.add_separator();
  }
  std::printf("%s\n",
              table.render("Ablation — site cache policy x capacity, 10-pass kmeans "
                           "env-cloud (retrieval node-seconds per pass)")
                  .c_str());

  // Prefetcher on top of the fitting cache: the cold pass overlaps WAN
  // transfers with processing, later passes are hits either way.
  AsciiTable pf({"prefetch", "cold fetch s", "total s", "hit rate", "S3 GETs",
                 "issued", "wasted", "speedup"});
  std::vector<unsigned> depths = {0u, 2u, 4u, 8u};
  if (args.quick) depths = {0u, 4u};
  for (unsigned depth : depths) {
    cache::CacheConfig cfg;
    cfg.capacity_bytes = GiB(16);
    cfg.prefetch.enabled = depth > 0;
    cfg.prefetch.depth = depth;
    cache::CacheFleet fleet(cfg);
    const SweepPoint point = run_point(layout, &fleet, args);
    char rate[16], speedup[16];
    std::snprintf(rate, sizeof(rate), "%.0f%%", point.hit_rate * 100.0);
    std::snprintf(speedup, sizeof(speedup), "%.2fx",
                  off.total_seconds / point.total_seconds);
    pf.add_row({depth == 0 ? "off" : ("depth " + std::to_string(depth)),
                AsciiTable::num(point.cold_retrieval, 0),
                AsciiTable::num(point.total_seconds, 1), rate,
                std::to_string(point.s3_gets), std::to_string(point.prefetch_issued),
                std::to_string(point.prefetch_wasted), speedup});
  }
  std::printf("%s\n", pf.render("Ablation — prefetch depth on a 16G LRU cache "
                                "(same 10-pass kmeans)")
                          .c_str());
  return 0;
}
