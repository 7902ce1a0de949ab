#include "apps/scenarios.hpp"

#include <cmath>
#include <string>

#include "common/units.hpp"

namespace cloudburst::apps {

using namespace cloudburst::units;

cluster::PlatformSpec east_west_spec(unsigned local_cores, unsigned cloud_cores) {
  cluster::PlatformSpec spec;
  spec.sites.push_back(cluster::PlatformSpec::paper_local_site(local_cores));
  spec.sites.push_back(cluster::PlatformSpec::paper_cloud_site(cloud_cores, "east"));
  spec.sites.push_back(cluster::PlatformSpec::paper_cloud_site(cloud_cores, "west"));
  spec.wan_bandwidth = MBps(125);
  spec.wan_latency = des::from_seconds(ms(25));
  spec.set_wan(1, 2, MBps(60), des::from_seconds(ms(60)));
  return spec;
}

cluster::PlatformSpec cloud_ab_spec(unsigned local_cores, unsigned cloud_cores) {
  cluster::PlatformSpec spec;
  spec.sites.push_back(cluster::PlatformSpec::paper_local_site(local_cores));
  spec.sites.push_back(cluster::PlatformSpec::paper_cloud_site(cloud_cores, "cloudA"));
  spec.sites.push_back(cluster::PlatformSpec::paper_cloud_site(cloud_cores, "cloudB"));
  spec.wan_bandwidth = MBps(125);
  spec.wan_latency = des::from_seconds(ms(25));
  spec.set_wan(1, 2, MBps(80), des::from_seconds(ms(40)));
  spec.node_speed_jitter = 0.03;
  return spec;
}

void spread_evenly(storage::DataLayout& layout, const cluster::Platform& platform) {
  std::vector<storage::StoreId> stores;
  for (cluster::ClusterId site = 0; site < platform.cluster_count(); ++site) {
    stores.push_back(platform.store_of_cluster(site));
  }
  storage::assign_stores_by_weights(layout, std::vector<double>(stores.size(), 1.0), stores);
}

MarkerData marker_data(std::uint64_t units, std::uint32_t files, std::uint32_t chunks_per_file) {
  storage::DataLayout layout =
      storage::build_layout_for_units(units, sizeof(WordRecord), files, chunks_per_file);
  std::vector<WordRecord> records;
  records.reserve(units);
  for (const auto& chunk : layout.chunks()) {
    records.resize(records.size() + chunk.units, WordRecord{chunk.id});
  }
  return MarkerData{std::move(layout), engine::MemoryDataset::from_records(records), {}};
}

MarkerCounts marker_counts(const api::ReductionObject& robj, const storage::DataLayout& layout) {
  const auto& got = dynamic_cast<const api::HashCountRobj&>(robj);
  MarkerCounts counts;
  counts.executions.assign(layout.chunks().size(), 0);
  for (const auto& chunk : layout.chunks()) {
    const double units = static_cast<double>(chunk.units);
    const double total = got.get(chunk.id);
    const auto count = static_cast<std::uint32_t>(total / units + 0.5);
    if (std::fabs(count * units - total) <= 1e-6) {
      counts.executions[chunk.id] = count;
    } else {
      ++counts.partial;
    }
  }
  return counts;
}

middleware::RunOptions marker_run_options(const MarkerData& marker) {
  middleware::RunOptions o;
  o.profile.name = "marker";
  o.profile.unit_bytes = sizeof(WordRecord);
  o.profile.bytes_per_second_per_core = KiB(512);
  o.profile.per_job_overhead_seconds = 0.2;
  o.profile.robj_bytes = KiB(16);
  o.reduction_tree = false;
  o.task = &marker.task;
  o.dataset = &marker.data;
  return o;
}

replica::ReplicationConfig cross_site_replication() {
  replica::ReplicationConfig config;
  config.replication_factor = 2;
  config.placement = replica::PlacementPolicy::CrossSite;
  return config;
}

middleware::RunOptions failover_run_options(const MarkerData& marker,
                                            replica::ReplicaSet* replicas) {
  middleware::RunOptions o = marker_run_options(marker);
  o.profile.name = "chaos-failover";
  o.retry.max_attempts = 3;
  o.retry.backoff_base_seconds = 0.05;
  o.replication = replicas;
  return o;
}

workload::WorkloadOptions failover_workload_options(directory::PlatformDirectory& dir) {
  workload::WorkloadOptions wopts;
  wopts.policy = workload::SchedulingPolicy::FairShare;
  wopts.directory = &dir;
  wopts.pool.enabled = true;
  wopts.pool.boot_seconds = 2.0;
  return wopts;
}

namespace {

constexpr std::uint64_t kFleetFilesPerJob = 40;
constexpr std::uint64_t kFleetChunksPerFile = 50;

/// One fleet job: the perf profile, retries with a timeout and a late hedge,
/// checkpoints, stochastic spot reclaims, and a scheduled drain or reclaim
/// on every tenth job from the fourth and the eighth.
middleware::RunOptions fleet_job_options(const FleetParams& params, std::size_t job_index) {
  middleware::RunOptions o;
  o.profile.name = "perf";
  o.profile.unit_bytes = 64;
  o.profile.bytes_per_second_per_core = MBps(8);
  o.profile.robj_bytes = KiB(64);
  o.random_seed = params.fault_seed + job_index;
  o.retrieval_streams = 4;
  o.retry.max_attempts = 3;
  o.retry.backoff_base_seconds = 0.05;
  o.retry.attempt_timeout_seconds = 20.0;
  o.retry.hedge_delay_seconds = 10.0;
  o.retry.seed = params.fault_seed ^ 0xbac0ff;
  o.reduction_tree = false;
  o.checkpoint_interval_seconds = 2.0;
  o.spot.reclaim_rate_per_hour = 1.0;
  o.spot.notice_seconds = 5.0;
  using Kind = middleware::RunOptions::LifecycleEvent::Kind;
  const auto node = static_cast<std::uint32_t>(job_index % 5);
  if (job_index % 10 == 3) o.lifecycle.push_back({Kind::Drain, 1, node, 2.0});
  if (job_index % 10 == 7) o.lifecycle.push_back({Kind::SpotReclaim, 2, node, 1.5, 3.0});
  return o;
}

}  // namespace

Fleet make_fleet(const FleetParams& params) {
  Fleet fleet;
  fleet.params = params;
  fleet.chunks_per_job = kFleetFilesPerJob * kFleetChunksPerFile;

  fleet.spec = cloud_ab_spec(static_cast<unsigned>(params.nodes * 8 / 5),
                             static_cast<unsigned>(params.nodes * 4 / 5));
  for (cluster::ClusterId provider : {1u, 2u}) {
    storage::FaultProfile& fault = fleet.spec.store(provider).fault;
    fault.fail_probability = 0.01;
    fault.throttles.push_back({5.0, 20.0, 0.5, 0.05});
    fault.seed = params.fault_seed ^ (0xfa017u + provider);
  }

  fleet.options.policy = workload::SchedulingPolicy::FairShare;
  fleet.options.tenant_weights = {{"interactive", 4.0}, {"batch", 1.0}};
  fleet.options.max_concurrent = params.max_concurrent;

  fleet.cache_config.capacity_bytes = GiB(2);
  fleet.cache_config.policy = cache::EvictionPolicy::Lru;
  fleet.cache_config.prefetch.enabled = true;
  fleet.cache_config.prefetch.depth = 2;

  fleet.arrivals = workload::ArrivalTrace::poisson(params.jobs, 0.5, params.arrival_seed);
  return fleet;
}

std::vector<workload::JobSpec> Fleet::jobs(const cluster::Platform& platform,
                                           cache::CacheFleet* cache) const {
  storage::LayoutSpec lspec;
  lspec.num_files = kFleetFilesPerJob;
  lspec.chunks_per_file = kFleetChunksPerFile;
  lspec.unit_bytes = 64;
  lspec.total_bytes = chunks_per_job * KiB(256);
  storage::DataLayout layout = storage::build_layout(lspec);
  storage::assign_stores_by_weights(layout, {0.2, 0.4, 0.4},
                                    {platform.store_of_cluster(0), platform.store_of_cluster(1),
                                     platform.store_of_cluster(2)});
  std::vector<workload::JobSpec> specs;
  for (std::size_t i = 0; i < params.jobs; ++i) {
    workload::JobSpec spec;
    spec.tenant = i % 2 == 0 ? "interactive" : "batch";
    spec.name = spec.tenant[0] + std::to_string(i + 1);
    spec.layout = layout;
    spec.options = fleet_job_options(params, i);
    spec.options.cache = cache;
    specs.push_back(std::move(spec));
  }
  return specs;
}

}  // namespace cloudburst::apps
