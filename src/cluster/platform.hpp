// Platform: the simulated deployment the middleware runs on.
//
// A platform is N *sites*. Every site hosts a compute cluster (possibly
// empty) and, optionally, a co-located storage service — either a disk-backed
// storage node sitting directly on the site fabric or an S3-style object
// store reachable through a cloud-internal fabric. Sites are connected by a
// wide-area network: one physical WAN link per site pair, parameterized by a
// platform-wide default plus per-pair overrides.
//
//     [site0 nodes]--NIC--(site0)---WAN---(site1)--NIC--[site1 nodes]
//     [disk store]---------^  \             |  \--fabric--[object store]
//                              \---WAN---(site2)--NIC--[site2 nodes] ...
//
// Intra-site paths cross only the two NICs involved; cross-site paths cross
// the pair's WAN link. A fabric-attached object store is reached through the
// fabric from its own site and through the owner's WAN link from everywhere
// else (the store's front end is on the public internet, the fabric is the
// provider-internal shortcut). All constants live in PlatformSpec so benches
// can sweep them (WAN bandwidth ablation, etc.).
//
// The paper's two-sided deployment (local cluster + EC2/S3) is simply the
// two-site instance produced by PlatformSpec::paper_testbed(); kLocalSite and
// kCloudSite are thin aliases for its site indices.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "des/simulator.hpp"
#include "net/network.hpp"
#include "storage/fault.hpp"
#include "storage/store.hpp"

namespace cloudburst::cluster {

/// Runtime index of a compute cluster (== its site) within the platform.
using ClusterId = std::uint32_t;
constexpr ClusterId kInvalidCluster = static_cast<ClusterId>(-1);

/// Thin two-sided aliases: site 0 is the organization's cluster, site 1 the
/// cloud provider, exactly as in the paper's testbed.
constexpr ClusterId kLocalSite = 0;
constexpr ClusterId kCloudSite = 1;

struct NodeSpec {
  unsigned cores = 1;
  /// Per-core throughput relative to the reference core the AppProfiles are
  /// calibrated against (local Xeon == 1.0).
  double core_speed = 1.0;
  /// Physical capacity that exists in the fabric but has not joined the
  /// platform yet: offline nodes are built (NIC, endpoint) but skipped by
  /// PlatformDirectory::bootstrap, so a run only sees them after an explicit
  /// mid-run register_node. Requires a directory (validate_run enforces it).
  bool offline = false;
};

struct ClusterSpec {
  std::string name;
  std::vector<NodeSpec> nodes;
  double nic_bandwidth = 0.0;        ///< bytes/sec per node
  des::SimDuration nic_latency = 0;  ///< per-NIC latency contribution

  /// Convenience: `count` identical nodes.
  static ClusterSpec uniform(std::string name, std::size_t count, NodeSpec node,
                             double nic_bandwidth, des::SimDuration nic_latency);

  unsigned total_cores() const;
};

/// A site's storage service.
struct StoreSpec {
  enum class Kind { Disk, Object };
  Kind kind = Kind::Disk;

  double front_bandwidth = 0.0;       ///< aggregate capacity (disk array / store front end)
  double per_stream_bandwidth = 0.0;  ///< cap per reader stream / GET connection (0 = none)
  des::SimDuration access_latency = 0;  ///< disk seek / object request latency

  /// Object stores only: when > 0 the store sits on its own network site
  /// attached to the owning cluster through this provider-internal fabric;
  /// every other site reaches it over the owner's WAN link instead.
  double fabric_bandwidth = 0.0;
  des::SimDuration fabric_latency = 0;

  /// Transient-fault model (per-GET failure probability, throttling windows,
  /// hung GETs), for either kind of store. Default-disabled — the store
  /// behaves as the perfect-world device and draws no random numbers. An
  /// invalid profile makes the Platform constructor throw.
  storage::FaultProfile fault;

  static StoreSpec disk(double front_bandwidth, double per_stream_bandwidth,
                        des::SimDuration seek_latency);
  static StoreSpec object(double front_bandwidth, double per_connection_bandwidth,
                          des::SimDuration request_latency, double fabric_bandwidth = 0.0,
                          des::SimDuration fabric_latency = 0);
};

/// One site of the platform: a compute cluster plus an optional co-located
/// store. A site may be compute-only (burst capacity reading remote data —
/// its `affinity` can point at another site's store) or storage-only
/// (cluster with zero nodes).
struct SiteSpec {
  std::string name;
  ClusterSpec cluster;
  std::optional<StoreSpec> store;

  /// Billed cloud capacity: its instances and egress enter the cost model.
  bool cloud_billed = false;

  /// Site whose store this cluster treats as "local" for scheduling
  /// (locality preference, Table-I job accounting). kInvalidCluster = this
  /// site's own store when present, otherwise no local store (every job the
  /// cluster runs counts as stolen).
  ClusterId affinity = kInvalidCluster;
};

/// WAN parameters of one site pair, overriding the platform default.
struct WanEdge {
  ClusterId a = 0;
  ClusterId b = 0;
  double bandwidth = 0.0;
  des::SimDuration latency = 0;
};

struct PlatformSpec {
  std::vector<SiteSpec> sites;

  /// Default wide-area path: every site pair gets its own physical WAN link
  /// with these parameters unless `wan_overrides` names the pair.
  double wan_bandwidth = 0.0;
  des::SimDuration wan_latency = 0;
  std::vector<WanEdge> wan_overrides;

  /// Relative stddev of per-node speed jitter (the paper's "slight
  /// variations in processing throughput among the slave nodes"); applied
  /// deterministically from `jitter_seed`.
  double node_speed_jitter = 0.0;
  std::uint64_t jitter_seed = 0x5eed;

  // --- thin two-sided aliases ----------------------------------------------
  SiteSpec& site(ClusterId id) { return sites.at(id); }
  const SiteSpec& site(ClusterId id) const { return sites.at(id); }
  ClusterSpec& local() { return sites.at(kLocalSite).cluster; }
  const ClusterSpec& local() const { return sites.at(kLocalSite).cluster; }
  ClusterSpec& cloud() { return sites.at(kCloudSite).cluster; }
  const ClusterSpec& cloud() const { return sites.at(kCloudSite).cluster; }
  /// Site `id`'s own store spec; throws if the site has none.
  StoreSpec& store(ClusterId id) { return sites.at(id).store.value(); }
  const StoreSpec& store(ClusterId id) const { return sites.at(id).store.value(); }

  /// Set the WAN parameters of one specific site pair.
  void set_wan(ClusterId a, ClusterId b, double bandwidth, des::SimDuration latency);

  /// Deployment used throughout the paper's evaluation (OSU cluster + EC2
  /// m1.large + S3), with `local_cores` / `cloud_cores` compute power.
  /// Local nodes have 8 cores; cloud instances have 2 (m1.large).
  static PlatformSpec paper_testbed(unsigned local_cores, unsigned cloud_cores);

  /// The testbed's individual sites, for composing custom topologies (e.g. a
  /// third provider in a 3-site burst).
  static SiteSpec paper_local_site(unsigned cores);
  static SiteSpec paper_cloud_site(unsigned cores, std::string name = "cloud");
};

/// A compute node's runtime identity within a built platform.
struct NodeHandle {
  ClusterId cluster = 0;
  std::uint32_t index_in_cluster = 0;
  unsigned cores = 1;
  double core_speed = 1.0;
  net::EndpointId endpoint = 0;
  std::string name;
  bool offline = false;  ///< built into the fabric but absent at bootstrap
};

/// Builds and owns the simulated deployment: simulator, network, stores.
class Platform {
 public:
  explicit Platform(const PlatformSpec& spec);

  des::Simulator& sim() { return sim_; }
  net::Network& network() { return *network_; }
  const PlatformSpec& spec() const { return spec_; }

  std::size_t cluster_count() const { return nodes_.size(); }
  const std::vector<NodeHandle>& nodes(ClusterId cluster) const {
    return nodes_.at(cluster);
  }
  std::size_t total_nodes() const;
  /// Nodes on cloud-billed sites (rented instances).
  std::size_t cloud_node_count() const;
  bool is_cloud(ClusterId cluster) const { return spec_.sites.at(cluster).cloud_billed; }
  const std::string& site_name(ClusterId cluster) const {
    return spec_.sites.at(cluster).name;
  }

  std::size_t store_count() const { return stores_.size(); }
  storage::Store& store(storage::StoreId id);
  /// The store cluster `id` treats as local (its affinity); kInvalidStore if
  /// the cluster has no local store.
  storage::StoreId store_of_cluster(ClusterId id) const { return cluster_store_.at(id); }
  /// Site owning a store.
  ClusterId owner_of_store(storage::StoreId id) const { return store_owner_.at(id); }

  // Thin two-sided aliases (the paper testbed's store indices).
  storage::StoreId local_store_id() const { return store_of_cluster(kLocalSite); }
  storage::StoreId cloud_store_id() const { return store_of_cluster(kCloudSite); }

  /// Control-plane endpoints. The head runs at site 0 (it owns the data
  /// index, per the paper's Figure 2); each cluster has a master.
  net::EndpointId head_endpoint() const { return head_ep_; }
  net::EndpointId master_endpoint(ClusterId cluster) const {
    return master_ep_.at(cluster);
  }

  /// The physical WAN link between two distinct sites (fault injection:
  /// chaos windows scale its capacity). Throws if a == b.
  net::LinkId wan_link(ClusterId a, ClusterId b) const;

  /// Host worker pool for real-execution kernels, shared by every job that
  /// runs on this platform. Started on first use with
  /// hardware_concurrency() - 1 workers (at least 1), so a timing-only run
  /// starts no thread.
  ThreadPool& kernel_pool();
  /// Join the kernel pool after running every task queued on it; the next
  /// kernel_pool() call starts a fresh one. A no-op when none is running.
  void stop_kernel_pool() { kernel_pool_.reset(); }

 private:
  void build_cluster(ClusterId id, const ClusterSpec& cspec, net::SiteId site);

  PlatformSpec spec_;
  des::Simulator sim_;
  std::unique_ptr<net::Network> network_;
  std::vector<std::vector<NodeHandle>> nodes_;
  net::EndpointId head_ep_ = 0;
  std::vector<net::EndpointId> master_ep_;
  std::vector<std::unique_ptr<storage::Store>> stores_;
  std::vector<storage::StoreId> cluster_store_;  ///< affinity store per site
  std::vector<ClusterId> store_owner_;           ///< owning site per store
  std::vector<std::vector<net::LinkId>> wan_;    ///< WAN link per site pair
  std::unique_ptr<ThreadPool> kernel_pool_;      ///< null until first use
};

/// Scope guard of a run: stops the platform's kernel pool on scope exit,
/// whether the run returned or threw.
struct KernelPoolStop {
  Platform& platform;
  ~KernelPoolStop() { platform.stop_kernel_pool(); }
};

}  // namespace cloudburst::cluster
