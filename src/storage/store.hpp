// Store: a site's storage service, the cluster's disk array or an S3-style
// object store.
//
// A store hosts dataset files and serves chunk reads to compute nodes. One
// model covers both kinds of store the paper uses: each request pays a
// latency, then its bytes ride the shared network as one or more flows, so
// retrieval contention (the dominant overhead in the evaluation) emerges
// from the flow model rather than from per-store magic numbers. Aggregate
// capacity is the store's access link in the platform topology. The kinds
// differ only in their Params:
//  * a disk (the paper's SATA storage node) has one spindle, so extra read
//    streams do not help, and it pays a *seek penalty*: a read that does not
//    continue its reader's sequential position in that file waits
//    `seek_latency` before bytes move. This is what makes the head node's
//    consecutive-job batching and minimum-contention file selection
//    measurable optimizations;
//  * an object store (Amazon S3) pays a per-GET request latency and caps
//    each connection's throughput, so *multi-threaded retrieval* (several
//    concurrent range GETs per chunk, as the paper's slaves do) recovers the
//    bandwidth a single stream cannot reach.
// Either kind may carry a FaultProfile (storage/fault.hpp).
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "des/simulator.hpp"
#include "net/network.hpp"
#include "storage/data_layout.hpp"
#include "storage/fault.hpp"

namespace cloudburst::storage {

/// Outcome of one fetch request. A fault-free store always completes with
/// ok = true and the full chunk moved; a faulted GET reports ok = false and
/// the partial bytes that still crossed the network before the abort.
struct FetchResult {
  bool ok = true;
  std::uint64_t bytes_moved = 0;  ///< wire bytes actually transferred
};

using FetchCallback = std::function<void(const FetchResult&)>;

class Store {
 public:
  static constexpr unsigned kUnlimitedStreams = std::numeric_limits<unsigned>::max();

  struct Params {
    des::SimDuration request_latency = 0;  ///< first-byte latency per request
    /// Extra latency of a non-sequential read (0 = no seek rule).
    des::SimDuration seek_latency = 0;
    /// Throughput cap per read stream / GET connection (0 = uncapped).
    double per_stream_bandwidth = 0.0;
    /// Parallel streams one request may use (1 = one spindle).
    unsigned max_streams = kUnlimitedStreams;
    /// Transient-fault model; a default-constructed profile is disabled and
    /// the store draws no random numbers (fault-free runs stay byte-exact).
    FaultProfile fault{};
  };

  struct Stats {
    std::uint64_t requests = 0;
    /// Wire bytes actually transferred (a faulted GET counts only its
    /// partial bytes).
    std::uint64_t bytes_served = 0;
    std::uint64_t seeks = 0;      ///< reads that paid seek_latency
    std::uint64_t faults = 0;     ///< requests that failed mid-transfer
    std::uint64_t hung = 0;       ///< requests that straggled at hang latency
    std::uint64_t throttled = 0;  ///< requests issued inside a throttle window
  };

  /// Throws std::invalid_argument on an invalid fault profile.
  Store(StoreId id, des::Simulator& sim, net::Network& net, net::EndpointId ep,
        Params params);
  /// Scheduled events and flow callbacks hold the store's address.
  Store(const Store&) = delete;
  Store& operator=(const Store&) = delete;

  /// Deliver `chunk` to endpoint `dst` using up to `streams` parallel
  /// transfer streams (the slave's retrieval threads; clamped to
  /// max_streams). `on_complete` fires when the request settles: last byte
  /// arrived (ok) or the transfer aborted after a partial move (fault).
  void fetch(net::EndpointId dst, const ChunkInfo& chunk, unsigned streams,
             FetchCallback on_complete);

  /// Take the store offline (a site blackout) or bring it back. While
  /// offline, new fetches fail fast (ok = false after the request latency)
  /// and going offline aborts every in-flight request: its network flows are
  /// cancelled and its callback fires with ok = false and the bytes that had
  /// already crossed — so in-flight GETs reroute through the retry path.
  void set_offline(bool offline);
  bool offline() const { return offline_; }

  net::EndpointId endpoint() const { return endpoint_; }
  const Stats& stats() const { return stats_; }
  StoreId id() const { return id_; }

 private:
  struct FilePosition {
    net::EndpointId reader = static_cast<net::EndpointId>(-1);
    std::uint32_t next_index = 0;  ///< chunk index that would be sequential
  };

  /// One in-flight request: its transfer flows plus abort bookkeeping.
  struct Pending {
    std::uint64_t req_id = 0;
    unsigned remaining = 0;  ///< streams still in flight
    FetchCallback cb;
    FetchResult result;
    /// Flows started so far. The first is kept inline, so a one-stream
    /// read (every disk read) allocates nothing beyond its Pending.
    net::FlowId flow = net::kInvalidFlow;
    std::vector<net::FlowId> more_flows;
    double unstarted_bytes = 0.0;  ///< parts still in the latency phase
    bool aborted = false;
  };

  StoreId id_;
  des::Simulator& sim_;
  net::Network& net_;
  net::EndpointId endpoint_;
  Params params_;
  Stats stats_;
  Rng rng_;  ///< fault-model draws only; untouched while the profile is off
  /// Sequential position per file; only kept with a seek rule.
  std::unordered_map<FileId, FilePosition> positions_;
  bool offline_ = false;
  std::uint64_t next_req_id_ = 0;
  /// In-flight requests by id (id order == request order => deterministic
  /// abort order on set_offline).
  std::map<std::uint64_t, std::shared_ptr<Pending>> inflight_;
};

}  // namespace cloudburst::storage
