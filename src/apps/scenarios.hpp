// Canonical platform shapes beyond the paper's two-site testbed.
//
// Each shape is defined once here and every bench and test that runs it
// builds from this definition; a caller that needs a variation (store
// faults, a workaround, another seed) edits the returned value.
//  * east/west: the local cluster bursting into two cloud regions, "east"
//    and "west", that are further from each other than from the local site;
//  * cloudA/cloudB: the local cluster bursting into two cloud providers that
//    talk over the public internet;
//  * marker oracle: a dataset whose every unit holds its chunk's id, so the
//    wordcount robj counts how many times each chunk ran;
//  * failover: the pooled workload on the east/west shape that the chaos
//    benches and tests fault (marker data, direct reduction, retries,
//    cross-site replication, the directory-backed elastic pool);
//  * fleet: perf_engine's large multi-tenant cloudA/cloudB fleet with degraded stores,
//    checkpoints, spot reclaims, drains, a shared cache and Poisson arrivals.
#pragma once

#include <cstdint>
#include <vector>

#include "api/reduction_object.hpp"
#include "apps/wordcount.hpp"
#include "cache/chunk_cache.hpp"
#include "cluster/platform.hpp"
#include "engine/memory_dataset.hpp"
#include "middleware/run_context.hpp"
#include "replica/replica_set.hpp"
#include "storage/data_layout.hpp"
#include "workload/arrivals.hpp"
#include "workload/workload.hpp"

namespace cloudburst::apps {

// --- east/west ----------------------------------------------------------------

/// Local site (0), then cloud sites "east" (1) and "west" (2). Every WAN pair
/// runs at 125 MB/s and 25 ms except east-west, at 60 MB/s and 60 ms.
cluster::PlatformSpec east_west_spec(unsigned local_cores, unsigned cloud_cores);

/// Spread `layout`'s files evenly over the stores of every site of `platform`.
void spread_evenly(storage::DataLayout& layout, const cluster::Platform& platform);

/// Local site (0), then cloud providers "cloudA" (1) and "cloudB" (2), which
/// talk over the public internet: 80 MB/s at 40 ms against 125 MB/s at 25 ms
/// for every other WAN pair. Node speeds jitter by 3 %.
cluster::PlatformSpec cloud_ab_spec(unsigned local_cores, unsigned cloud_cores);

// --- marker oracle ------------------------------------------------------------

/// A dataset whose every unit is the WordRecord of its chunk's id: the
/// wordcount robj of a run maps each chunk id to units x executions.
struct MarkerData {
  storage::DataLayout layout;  ///< no stores assigned yet
  engine::MemoryDataset data;
  WordCountTask task;
};
MarkerData marker_data(std::uint64_t units, std::uint32_t files, std::uint32_t chunks_per_file);

/// Per-chunk execution counts read back from a marker run's robj.
struct MarkerCounts {
  /// By chunk id: the input of chaos::audit_exactly_once. A partial chunk
  /// reads 0, so the audit fails on it.
  std::vector<std::uint32_t> executions;
  /// Chunks whose total is not a whole number of executions (a partial merge).
  std::uint32_t partial = 0;
};
MarkerCounts marker_counts(const api::ReductionObject& robj, const storage::DataLayout& layout);

/// The marker task and dataset on a slow profile (512 KiB/s a core, 0.2 s a
/// chunk, so faults land mid-run), with direct reduction.
middleware::RunOptions marker_run_options(const MarkerData& marker);

// --- failover -----------------------------------------------------------------

/// k = 2 replicas, placed on distinct sites: the failover workload's
/// replication, and the one composition tests pair with other features.
replica::ReplicationConfig cross_site_replication();

/// Per-job base of the failover workload: marker_run_options, store retry
/// 3 x 0.05 s, and `replicas` (null: none). Callers set the seed, the chaos
/// plan and any store QoS.
middleware::RunOptions failover_run_options(const MarkerData& marker,
                                            replica::ReplicaSet* replicas);

/// FairShare over `dir`, with the elastic node pool (2 s boot).
workload::WorkloadOptions failover_workload_options(directory::PlatformDirectory& dir);

// --- fleet --------------------------------------------------------------------

/// What the fleet's callers vary. The defaults are perf_engine's full fleet.
struct FleetParams {
  /// A fifth are local 8-core nodes, two fifths each of "cloudA" and
  /// "cloudB" are 2-core nodes.
  std::size_t nodes = 500;
  std::size_t jobs = 50;
  std::uint32_t max_concurrent = 6;
  /// Seeds the store faults, the retries and each job's scheduler.
  std::uint64_t fault_seed = 42;
  std::uint64_t arrival_seed = 42;
};

struct Fleet {
  FleetParams params;
  /// cloud_ab_spec with both cloud stores degraded: 1 % GET failures and an
  /// early throttle.
  cluster::PlatformSpec spec;
  workload::WorkloadOptions options;  ///< FairShare, interactive 4 : batch 1
  cache::CacheConfig cache_config;    ///< for one CacheFleet all jobs share
  workload::ArrivalTrace arrivals;    ///< Poisson at 0.5 jobs/s, one per job
  std::uint64_t chunks_per_job = 0;

  /// The jobs in submission order on `platform` (built from `spec`), all
  /// reading one layout through `cache`.
  std::vector<workload::JobSpec> jobs(const cluster::Platform& platform,
                                      cache::CacheFleet* cache) const;
};
Fleet make_fleet(const FleetParams& params);

}  // namespace cloudburst::apps
