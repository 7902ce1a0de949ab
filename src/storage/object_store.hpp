// ObjectStore: an S3-style cloud object store.
//
// Two properties of S3 matter to the paper's system and are modeled here:
//  1. each GET pays a per-request latency and is throughput-capped per
//     connection — a single stream cannot saturate the path;
//  2. aggregate throughput is high, so *multi-threaded retrieval* (several
//     concurrent range GETs per chunk) recovers the bandwidth; the paper's
//     slaves do exactly this.
// Aggregate capacity is bounded by the store's access link in the platform
// topology, so many concurrent clients still contend.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "des/simulator.hpp"
#include "storage/fault.hpp"
#include "storage/store_service.hpp"

namespace cloudburst::storage {

class ObjectStore final : public StoreService {
 public:
  struct Params {
    des::SimDuration request_latency = 0;  ///< first-byte latency per GET
    double per_connection_bandwidth = 0.0; ///< bytes/sec cap per stream (0 = uncapped)
    /// Transient-fault model; a default-constructed profile is disabled and
    /// the store draws no random numbers (fault-free runs stay byte-exact).
    FaultProfile fault{};
  };

  ObjectStore(StoreId id, des::Simulator& sim, net::Network& net, net::EndpointId ep,
              Params params)
      : id_(id), sim_(sim), net_(net), endpoint_(ep), params_(std::move(params)),
        rng_(Rng::substream(params_.fault.seed, id)) {}

  void fetch(net::EndpointId dst, const ChunkInfo& chunk, unsigned streams,
             FetchCallback on_complete) override;

  void set_offline(bool offline) override;
  bool offline() const override { return offline_; }

  net::EndpointId endpoint() const override { return endpoint_; }
  const Stats& stats() const override { return stats_; }
  StoreId id() const override { return id_; }

 private:
  /// One in-flight request: its range-GET flows plus abort bookkeeping.
  struct Pending {
    std::uint64_t req_id = 0;
    unsigned remaining = 0;  ///< range GETs still in flight
    FetchCallback cb;
    FetchResult result;
    std::vector<net::FlowId> flows;   ///< flows started so far
    double unstarted_bytes = 0.0;     ///< parts still in the request-latency phase
    bool aborted = false;
  };

  StoreId id_;
  des::Simulator& sim_;
  net::Network& net_;
  net::EndpointId endpoint_;
  Params params_;
  Stats stats_;
  Rng rng_;  ///< fault-model draws only; untouched while the profile is off
  bool offline_ = false;
  std::uint64_t next_req_id_ = 0;
  /// In-flight requests by id (id order == request order => deterministic
  /// abort order on set_offline).
  std::map<std::uint64_t, std::shared_ptr<Pending>> inflight_;
};

}  // namespace cloudburst::storage
