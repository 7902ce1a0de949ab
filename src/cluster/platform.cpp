#include "cluster/platform.hpp"

#include <cmath>
#include <stdexcept>
#include <thread>

#include "common/rng.hpp"
#include "common/units.hpp"

namespace cloudburst::cluster {

ClusterSpec ClusterSpec::uniform(std::string name, std::size_t count, NodeSpec node,
                                 double nic_bandwidth, des::SimDuration nic_latency) {
  ClusterSpec spec;
  spec.name = std::move(name);
  spec.nodes.assign(count, node);
  spec.nic_bandwidth = nic_bandwidth;
  spec.nic_latency = nic_latency;
  return spec;
}

unsigned ClusterSpec::total_cores() const {
  unsigned total = 0;
  for (const auto& n : nodes) total += n.cores;
  return total;
}

StoreSpec StoreSpec::disk(double front_bandwidth, double per_stream_bandwidth,
                          des::SimDuration seek_latency) {
  StoreSpec s;
  s.kind = Kind::Disk;
  s.front_bandwidth = front_bandwidth;
  s.per_stream_bandwidth = per_stream_bandwidth;
  s.access_latency = seek_latency;
  return s;
}

StoreSpec StoreSpec::object(double front_bandwidth, double per_connection_bandwidth,
                            des::SimDuration request_latency, double fabric_bandwidth,
                            des::SimDuration fabric_latency) {
  StoreSpec s;
  s.kind = Kind::Object;
  s.front_bandwidth = front_bandwidth;
  s.per_stream_bandwidth = per_connection_bandwidth;
  s.access_latency = request_latency;
  s.fabric_bandwidth = fabric_bandwidth;
  s.fabric_latency = fabric_latency;
  return s;
}

void PlatformSpec::set_wan(ClusterId a, ClusterId b, double bandwidth,
                           des::SimDuration latency) {
  if (a == b) throw std::invalid_argument("set_wan: a site has no WAN to itself");
  for (auto& e : wan_overrides) {
    if ((e.a == a && e.b == b) || (e.a == b && e.b == a)) {
      e.bandwidth = bandwidth;
      e.latency = latency;
      return;
    }
  }
  wan_overrides.push_back(WanEdge{a, b, bandwidth, latency});
}

SiteSpec PlatformSpec::paper_local_site(unsigned cores) {
  using namespace cloudburst::units;
  SiteSpec site;
  site.name = "local";
  // Local cluster: Intel Xeon 8-core nodes on Infiniband (reference speed 1.0).
  const unsigned nodes = (cores + 7) / 8;
  site.cluster = ClusterSpec::uniform("local", nodes, NodeSpec{8, 1.0},
                                      /*nic=*/GiBps(1.25), /*lat=*/des::from_seconds(us(20)));
  if (nodes > 0) {
    // Trim the last node if the core count is not a multiple of 8.
    unsigned used = 8 * (nodes - 1);
    site.cluster.nodes.back().cores = cores - used;
  }
  // Dedicated storage node: SATA array feeding the cluster. A single reader
  // stream cannot saturate the array (per-stream cap), so the per-node
  // retrieval rate is flat until many readers contend.
  site.store = StoreSpec::disk(MBps(1600), MBps(400), des::from_seconds(ms(8)));
  return site;
}

SiteSpec PlatformSpec::paper_cloud_site(unsigned cores, std::string name) {
  using namespace cloudburst::units;
  SiteSpec site;
  site.name = name;
  site.cloud_billed = true;
  // Cloud: EC2 m1.large — 2 virtual cores, ~0.73x the local Xeon per core
  // (this is the ratio the paper balanced empirically: 22 cloud cores for
  // 16 local cores in kmeans), gigabit-class "high I/O" networking.
  const unsigned nodes = (cores + 1) / 2;
  site.cluster = ClusterSpec::uniform(std::move(name), nodes, NodeSpec{2, 0.73},
                                      /*nic=*/MBps(160), /*lat=*/des::from_seconds(us(200)));
  if (nodes > 0) {
    unsigned used = 2 * (nodes - 1);
    site.cluster.nodes.back().cores = cores - used;
  }
  // S3-style store behind the provider-internal fabric.
  site.store = StoreSpec::object(GiBps(2.5), MBps(25), des::from_seconds(ms(60)),
                                 /*fabric=*/GiBps(2.0), des::from_seconds(ms(2)));
  return site;
}

PlatformSpec PlatformSpec::paper_testbed(unsigned local_cores, unsigned cloud_cores) {
  using namespace cloudburst::units;
  PlatformSpec spec;
  spec.sites.push_back(paper_local_site(local_cores));
  spec.sites.push_back(paper_cloud_site(cloud_cores));

  // Organization <-> AWS wide-area path.
  spec.wan_bandwidth = MBps(125);
  spec.wan_latency = des::from_seconds(ms(25));

  // "Slight variations in processing throughput among the slave nodes."
  spec.node_speed_jitter = 0.03;
  return spec;
}

Platform::Platform(const PlatformSpec& spec) : spec_(spec) {
  if (spec_.sites.empty()) {
    throw std::invalid_argument("Platform: spec has no sites");
  }
  const auto n_sites = static_cast<ClusterId>(spec_.sites.size());

  network_ = std::make_unique<net::Network>(sim_);
  net::Network& net = *network_;

  // Network sites: one per cluster, then one per fabric-attached store.
  std::vector<net::SiteId> cluster_site(n_sites);
  std::vector<net::SiteId> store_site(n_sites);  // == cluster_site[i] unless fabric
  for (ClusterId i = 0; i < n_sites; ++i) {
    cluster_site[i] = net.add_site(spec_.sites[i].name);
  }
  for (ClusterId i = 0; i < n_sites; ++i) {
    const auto& store = spec_.sites[i].store;
    store_site[i] = (store && store->fabric_bandwidth > 0.0)
                        ? net.add_site(spec_.sites[i].name + "-store")
                        : cluster_site[i];
  }

  // One physical WAN link per site pair (default parameters unless
  // overridden), then the provider-internal store fabrics.
  auto wan_edge = [&](ClusterId a, ClusterId b) {
    for (const auto& e : spec_.wan_overrides) {
      if ((e.a == a && e.b == b) || (e.a == b && e.b == a)) {
        return std::make_pair(e.bandwidth, e.latency);
      }
    }
    return std::make_pair(spec_.wan_bandwidth, spec_.wan_latency);
  };
  wan_.assign(n_sites, std::vector<net::LinkId>(n_sites));
  auto& wan = wan_;
  for (ClusterId a = 0; a < n_sites; ++a) {
    for (ClusterId b = a + 1; b < n_sites; ++b) {
      const auto [bw, lat] = wan_edge(a, b);
      const std::string name =
          n_sites == 2 ? "wan" : "wan-" + spec_.sites[a].name + "-" + spec_.sites[b].name;
      wan[a][b] = wan[b][a] = net.add_link(name, bw, lat);
    }
  }
  std::vector<net::LinkId> fabric(n_sites);
  for (ClusterId i = 0; i < n_sites; ++i) {
    const auto& store = spec_.sites[i].store;
    if (store && store->fabric_bandwidth > 0.0) {
      fabric[i] = net.add_link(spec_.sites[i].name + "-fabric", store->fabric_bandwidth,
                               store->fabric_latency);
    }
  }

  // Routes. Cluster <-> cluster crosses the pair's WAN link. A fabric store
  // is reached through the fabric from its own cluster and through the
  // owner's WAN link from every other site (the store front end is on the
  // public internet; the fabric is the provider-internal shortcut). Two
  // fabric stores reach each other over their owners' WAN link (replica
  // repair copies store to store).
  for (ClusterId a = 0; a < n_sites; ++a) {
    for (ClusterId b = a + 1; b < n_sites; ++b) {
      net.set_route_symmetric(cluster_site[a], cluster_site[b], {wan[a][b]});
    }
  }
  for (ClusterId i = 0; i < n_sites; ++i) {
    if (store_site[i] == cluster_site[i]) continue;
    net.set_route_symmetric(cluster_site[i], store_site[i], {fabric[i]});
    for (ClusterId other = 0; other < n_sites; ++other) {
      if (other == i) continue;
      net.set_route_symmetric(cluster_site[other], store_site[i], {wan[other][i]});
    }
    for (ClusterId j = i + 1; j < n_sites; ++j) {
      if (store_site[j] == cluster_site[j]) continue;
      net.set_route_symmetric(store_site[i], store_site[j], {wan[i][j]});
    }
  }

  // Compute nodes.
  nodes_.resize(n_sites);
  for (ClusterId i = 0; i < n_sites; ++i) {
    build_cluster(i, spec_.sites[i].cluster, cluster_site[i]);
  }

  // Control-plane endpoints: head at site 0, one master per cluster.
  auto control_ep = [&](const std::string& name, net::SiteId site, double bw,
                        des::SimDuration lat) {
    const net::LinkId nic = net.add_link(name + "-nic", bw, lat);
    const net::EndpointId ep = net.add_endpoint(name, site);
    net.set_access_path(ep, {nic});
    return ep;
  };
  head_ep_ = control_ep("head", cluster_site[0], spec_.sites[0].cluster.nic_bandwidth,
                        spec_.sites[0].cluster.nic_latency);
  master_ep_.resize(n_sites);
  for (ClusterId i = 0; i < n_sites; ++i) {
    const ClusterSpec& cspec = spec_.sites[i].cluster;
    master_ep_[i] = control_ep("master-" + spec_.sites[i].name, cluster_site[i],
                               cspec.nic_bandwidth, cspec.nic_latency);
  }

  // Storage services, in site order; StoreId == construction order.
  cluster_store_.assign(n_sites, storage::kInvalidStore);
  for (ClusterId i = 0; i < n_sites; ++i) {
    const auto& store = spec_.sites[i].store;
    if (!store) continue;
    const storage::StoreId id = static_cast<storage::StoreId>(stores_.size());
    const bool is_object = store->kind == StoreSpec::Kind::Object;
    const net::LinkId front = net.add_link(
        spec_.sites[i].name + (is_object ? "-store-front" : "-disk"),
        store->front_bandwidth, 0);
    const net::EndpointId ep =
        net.add_endpoint(spec_.sites[i].name + "-store", store_site[i]);
    net.set_access_path(ep, {front});
    // A disk seeks and has one spindle; an object store pays its latency on
    // every GET and splits a read over any number of connections.
    storage::Store::Params params;
    params.request_latency = is_object ? store->access_latency : 0;
    params.seek_latency = is_object ? 0 : store->access_latency;
    params.per_stream_bandwidth = store->per_stream_bandwidth;
    params.max_streams = is_object ? storage::Store::kUnlimitedStreams : 1;
    params.fault = store->fault;
    stores_.push_back(std::make_unique<storage::Store>(id, sim_, net, ep, std::move(params)));
    store_owner_.push_back(i);
    cluster_store_[i] = id;
  }

  // Store affinity: a site without its own store may point at another
  // site's (compute-only burst capacity reading a remote store).
  for (ClusterId i = 0; i < n_sites; ++i) {
    const ClusterId aff = spec_.sites[i].affinity;
    if (aff == kInvalidCluster) continue;
    if (aff >= n_sites) {
      throw std::invalid_argument("Platform: site affinity names an unknown site");
    }
    cluster_store_[i] = cluster_store_[aff];
  }
}

void Platform::build_cluster(ClusterId id, const ClusterSpec& cspec, net::SiteId site) {
  net::Network& net = *network_;
  auto& list = nodes_[id];
  list.reserve(cspec.nodes.size());
  // One deterministic jitter stream per cluster keeps node speeds stable
  // under changes elsewhere in the topology.
  Rng jitter = Rng::substream(spec_.jitter_seed, id);
  for (std::size_t i = 0; i < cspec.nodes.size(); ++i) {
    NodeHandle handle;
    handle.cluster = id;
    handle.index_in_cluster = static_cast<std::uint32_t>(i);
    handle.cores = cspec.nodes[i].cores;
    handle.core_speed = cspec.nodes[i].core_speed;
    if (spec_.node_speed_jitter > 0.0) {
      const double factor = 1.0 + spec_.node_speed_jitter * jitter.normal();
      handle.core_speed *= std::max(0.5, factor);
    }
    handle.offline = cspec.nodes[i].offline;
    handle.name = cspec.name + "-node" + std::to_string(i);
    const net::LinkId nic =
        net.add_link(handle.name + "-nic", cspec.nic_bandwidth, cspec.nic_latency);
    handle.endpoint = net.add_endpoint(handle.name, site);
    net.set_access_path(handle.endpoint, {nic});
    list.push_back(std::move(handle));
  }
}

std::size_t Platform::total_nodes() const {
  std::size_t total = 0;
  for (const auto& cluster : nodes_) total += cluster.size();
  return total;
}

std::size_t Platform::cloud_node_count() const {
  std::size_t total = 0;
  for (ClusterId i = 0; i < nodes_.size(); ++i) {
    if (is_cloud(i)) total += nodes_[i].size();
  }
  return total;
}

storage::Store& Platform::store(storage::StoreId id) {
  if (id >= stores_.size()) throw std::out_of_range("unknown store id");
  return *stores_[id];
}

net::LinkId Platform::wan_link(ClusterId a, ClusterId b) const {
  if (a == b) throw std::invalid_argument("wan_link: a site has no WAN to itself");
  return wan_.at(a).at(b);
}

ThreadPool& Platform::kernel_pool() {
  if (!kernel_pool_) {
    const unsigned cores = std::thread::hardware_concurrency();
    kernel_pool_ = std::make_unique<ThreadPool>(cores > 1 ? cores - 1 : 1);
  }
  return *kernel_pool_;
}

}  // namespace cloudburst::cluster
