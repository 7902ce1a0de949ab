// Extension bench: N-site topology — a local cluster bursting into TWO
// cloud providers at once.
//
// Paper §II argues the framework applies when "the data and/or processing
// power is spread across two different cloud providers"; the N-site platform
// drops the two-sided restriction entirely. Here the dataset is split three
// ways (local disk + two object stores) and the local cluster bursts into
// both providers simultaneously: three masters pull from one global job
// pool, stealing across any remote store with the per-store endgame reserve.
#include "paper_common.hpp"

#include "apps/scenarios.hpp"
#include "cache/chunk_cache.hpp"
#include "common/units.hpp"
#include "cost/cost_model.hpp"
#include "middleware/runtime.hpp"
#include "storage/data_layout.hpp"

namespace {

using namespace cloudburst;

struct ThreeSiteRun {
  middleware::RunResult result;
  cost::CostReport cost;
};

ThreeSiteRun run_three_sites(bench::PaperApp app, const std::vector<double>& weights,
                             cache::CacheFleet* fleet = nullptr) {
  cluster::Platform platform(apps::cloud_ab_spec(16, 16));
  storage::DataLayout layout =
      apps::paper_layout(app, 1.0, platform.local_store_id(), platform.cloud_store_id());
  assign_stores_by_weights(layout, weights,
                           {platform.store_of_cluster(0), platform.store_of_cluster(1),
                            platform.store_of_cluster(2)});
  middleware::RunOptions options = apps::paper_run_options(app);
  options.cache = fleet;
  ThreeSiteRun out{middleware::run_distributed(platform, layout, options), {}};
  out.cost = cost::price_run(out.result, platform, layout, options,
                             cost::CloudPricing::aws_2011());
  return out;
}

std::string split_label(const std::vector<double>& weights) {
  std::string s;
  for (double w : weights) {
    if (!s.empty()) s += "/";
    s += AsciiTable::pct(w, 0);
  }
  return s;
}

// "$12.34". Built with += because g++ 12 at -O3 reports a false -Wrestrict
// for "literal" + std::string.
std::string usd(double dollars) {
  std::string text = "$";
  text += AsciiTable::num(dollars, 2);
  return text;
}
}  // namespace

int main() {
  using namespace cloudburst;

  const std::vector<std::vector<double>> splits = {
      {1.0 / 3, 1.0 / 3, 1.0 / 3},  // evenly spread
      {2.0 / 3, 1.0 / 6, 1.0 / 6},  // mostly on-premises
      {0.0, 0.5, 0.5},              // all data already in the clouds
  };

  AsciiTable table({"app", "split L/A/B", "exec time", "site", "processing", "retrieval",
                    "sync", "jobs (local+stolen)", "S3 GETs", "hit rate", "cost"});
  for (bench::PaperApp app :
       {bench::PaperApp::Knn, bench::PaperApp::Kmeans, bench::PaperApp::PageRank}) {
    for (const auto& weights : splits) {
      const auto run = run_three_sites(app, weights);
      bool first_row = true;
      for (const auto& c : run.result.clusters) {
        table.add_row(
            {first_row ? apps::to_string(app) : "", first_row ? split_label(weights) : "",
             first_row ? AsciiTable::num(run.result.total_time, 1) : "", c.name,
             AsciiTable::num(c.processing, 1), AsciiTable::num(c.retrieval, 1),
             AsciiTable::num(c.sync, 1),
             std::to_string(c.jobs_local) + "+" + std::to_string(c.jobs_stolen),
             first_row ? std::to_string(run.result.s3_get_requests) : "",
             first_row ? "-" : "",  // no site cache attached in the base sweep
             first_row ? usd(run.cost.total_usd()) : ""});
        first_row = false;
      }
      table.add_separator();
    }
  }
  std::printf("%s\n",
              table.render("Extension — three sites (16-core local cluster bursting "
                           "into two 16-core cloud providers, data split three ways)")
                  .c_str());

  // Site caches in the 3-site burst: run the even split twice on one fleet —
  // the second run re-reads every remote chunk from the site caches, cutting
  // both providers' GET bills and the cross-provider egress.
  AsciiTable warm_table(
      {"app", "run", "exec time", "S3 GETs", "hit rate", "cost"});
  for (bench::PaperApp app : {bench::PaperApp::Knn, bench::PaperApp::Kmeans}) {
    cache::CacheConfig cfg;
    cfg.capacity_bytes = units::GiB(16);
    cache::CacheFleet fleet(cfg);
    const auto cold = run_three_sites(app, splits[0], &fleet);
    const auto warm = run_three_sites(app, splits[0], &fleet);
    warm_table.add_row({apps::to_string(app), "cold",
                        AsciiTable::num(cold.result.total_time, 1),
                        std::to_string(cold.result.s3_get_requests),
                        AsciiTable::pct(cold.result.cache_hit_rate(), 0),
                        usd(cold.cost.total_usd())});
    warm_table.add_row({"", "warm", AsciiTable::num(warm.result.total_time, 1),
                        std::to_string(warm.result.s3_get_requests),
                        AsciiTable::pct(warm.result.cache_hit_rate(), 0),
                        usd(warm.cost.total_usd())});
    warm_table.add_separator();
  }
  std::printf("%s\n", warm_table
                          .render("Extension — 16G site caches on the even split "
                                  "(cold fill, then a warm re-run)")
                          .c_str());
  return 0;
}
