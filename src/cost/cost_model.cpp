#include "cost/cost_model.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace cloudburst::cost {

std::string CostReport::to_string() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "compute $%.3f (%.1f inst-h) + requests $%.3f (%llu GETs) + "
                "transfer $%.3f (%.2f GB out) + storage $%.4f = $%.3f",
                instance_usd, instance_hours, requests_usd,
                static_cast<unsigned long long>(get_requests), transfer_usd,
                transfer_out_gb, storage_usd, total_usd());
  return buf;
}

CostReport price(const CostInputs& inputs, const CloudPricing& pricing) {
  CostReport report;

  // Per-started-quantum billing: every instance pays ceil(duration) quanta
  // (whole hours at the default quantum — the 2011 rules — or finer windows
  // under lease-granular pricing).
  const double quantum = pricing.billing_quantum_hours > 0.0
                             ? pricing.billing_quantum_hours
                             : 1.0;
  if (!inputs.instance_seconds.empty()) {
    report.instance_hours = 0.0;
    for (double s : inputs.instance_seconds) {
      // Launching bills the first quantum even if the job finished before
      // the instance came up (cancel-at-boot still pays).
      report.instance_hours +=
          std::max(quantum, std::ceil(s / 3600.0 / quantum) * quantum);
    }
  } else {
    const double hours = inputs.run_seconds / 3600.0;
    report.instance_hours =
        std::ceil(hours / quantum) * quantum * static_cast<double>(inputs.cloud_instances);
  }
  report.instance_usd = report.instance_hours * pricing.instance_hour_usd;

  report.get_requests = inputs.s3_get_requests;
  report.requests_usd =
      static_cast<double>(inputs.s3_get_requests) / 1000.0 * pricing.get_per_1000_usd;

  report.transfer_out_gb = static_cast<double>(inputs.bytes_out_of_cloud) / 1e9;
  report.transfer_usd = report.transfer_out_gb * pricing.transfer_out_per_gb_usd;

  report.storage_gb = static_cast<double>(inputs.s3_resident_bytes) / 1e9;
  const double months = inputs.run_seconds / (30.0 * 24.0 * 3600.0);
  report.storage_usd = report.storage_gb * months * pricing.storage_gb_month_usd;
  return report;
}

CostInputs derive_run_inputs(const middleware::RunResult& result,
                             cluster::Platform& platform,
                             const storage::DataLayout& layout,
                             const middleware::RunOptions& options) {
  CostInputs inputs;
  inputs.run_seconds = result.total_time;
  inputs.cloud_instances = static_cast<std::uint32_t>(result.rentals.size());
  for (const middleware::Rental& rental : result.rentals) {
    // A reclaimed or drained instance stops billing when its rental ended.
    const double until = rental.end >= 0.0 ? std::min(result.total_time, rental.end)
                                           : result.total_time;
    inputs.instance_seconds.push_back(std::max(0.0, until - rental.start));
  }

  // Billable stores: the ones owned by cloud-billed sites. Every chunk fetch
  // from one issues `retrieval_streams` range GETs.
  const double ratio = std::max(1.0, options.profile.compression_ratio);
  for (storage::StoreId s = 0; s < platform.store_count(); ++s) {
    if (!platform.is_cloud(platform.owner_of_store(s))) continue;
    // The result's own request counts: identical to the store's global
    // stats() for a solo run, but under a multi-job workload they are this
    // job's share (the store counter aggregates every tenant). Hand-built
    // results without the vector fall back to the store.
    const std::uint64_t requests = s < result.store_requests.size()
                                       ? result.store_requests[s]
                                       : platform.store(s).stats().requests;
    inputs.s3_get_requests += requests * std::max(1u, options.retrieval_streams);
    inputs.s3_resident_bytes += layout.bytes_on(s);
    // Replication: live extra copies on a cloud store are resident bytes the
    // provider bills just like the primaries.
    if (s < result.replica.extra_replica_bytes.size()) {
      inputs.s3_resident_bytes += result.replica.extra_replica_bytes[s];
    }
    // Transfer out of the provider: chunks any *other* site pulled from this
    // store cross its egress boundary. Stored chunks move compressed.
    const cluster::ClusterId owner = platform.owner_of_store(s);
    for (cluster::ClusterId c = 0; c < platform.cluster_count(); ++c) {
      if (c == owner) continue;
      if (c >= result.clusters.size() || s >= result.clusters[c].stores.size()) continue;
      const middleware::StoreTraffic& traffic = result.clusters[c].stores[s];
      // Site caches: bytes served locally were charged to the store at
      // assignment time but never crossed the egress boundary — credit them
      // back before pricing. (GET savings need no credit: a cache hit never
      // reaches the store, so the request counts already exclude it.)
      const std::uint64_t bytes =
          traffic.bytes_fetched - std::min(traffic.bytes_fetched, traffic.bytes_from_cache);
      inputs.bytes_out_of_cloud +=
          static_cast<std::uint64_t>(static_cast<double>(bytes) / ratio);
      // Retried bytes are already wire bytes (post-compression) and every one
      // of them crossed the egress boundary — failed partial GETs, hedge
      // losers, and post-timeout arrivals are billed, not refunded.
      inputs.bytes_out_of_cloud += traffic.bytes_retried;
    }
  }
  // Each cloud cluster ships its reduction object to the head across the WAN.
  for (cluster::ClusterId c = 0; c < platform.cluster_count(); ++c) {
    if (c == cluster::kLocalSite || !platform.is_cloud(c)) continue;
    if (c < result.clusters.size() && result.clusters[c].nodes > 0) {
      inputs.bytes_out_of_cloud += options.profile.robj_bytes;
    }
  }
  return inputs;
}

CostReport price_run(const middleware::RunResult& result, cluster::Platform& platform,
                     const storage::DataLayout& layout,
                     const middleware::RunOptions& options, const CloudPricing& pricing) {
  return price(derive_run_inputs(result, platform, layout, options), pricing);
}

}  // namespace cloudburst::cost
