// Head node: global job assignment and the final global reduction
// (paper §III-B, Figure 2).
//
// The head reads the data index, generates the job pool, and serves masters'
// batch requests through the JobPool policies (locality, consecutive
// batches, stealing, min-contention). After all jobs are processed it
// collects each cluster's reduction object and folds them into the final
// result; merges are charged compute time and serialize on the head.
#pragma once

#include <map>
#include <set>
#include <vector>

#include "middleware/run_context.hpp"
#include "middleware/scheduler.hpp"

namespace cloudburst::middleware {

class HeadNode {
 public:
  struct MasterInfo {
    net::EndpointId endpoint = 0;
    storage::StoreId preferred_store = storage::kInvalidStore;
  };

  HeadNode(RunContext& ctx, net::EndpointId self, JobPool pool,
           std::vector<MasterInfo> masters);

  void handle(net::EndpointId from, Message msg);

  /// A master's whole site went dark (chaos site outage). Every chunk granted
  /// to it since its last MasterRobj is of unknown status — but since that
  /// robj will never merge, re-granting ALL of them to surviving masters is
  /// exactly-once by construction. Survivors adopt the work via unsolicited
  /// reopen BatchAssigns (a survivor that already committed re-opens and
  /// later ships a delta robj); a failed master's late BatchRequests and
  /// MasterRobj are dropped. Idempotent.
  void on_master_failed(net::EndpointId master);

  net::EndpointId endpoint() const { return self_; }

  /// Final reduction object of a real-execution run (null otherwise);
  /// valid once the run finished.
  api::RobjPtr take_robj() { return std::move(robj_); }

 private:
  void merge_robj(Message msg);
  void finish_run();
  /// Deal `chunks`, plus the pool's chunks once no live master will ask
  /// again, round-robin to the live masters as reopen grants.
  void regrant(std::vector<storage::ChunkId> chunks);

  RunContext& ctx_;
  net::EndpointId self_;
  JobPool pool_;
  std::vector<MasterInfo> masters_;

  std::uint32_t merges_pending_ = 0;
  double merge_free_at_ = 0.0;  ///< head merges serialize on one core
  api::RobjPtr robj_;

  // --- master-failover bookkeeping (pure memory; byte-identity safe) -------
  /// Chunks granted to each live master and not yet covered by a
  /// MasterRobj, in grant order. A master without an entry has committed.
  std::map<net::EndpointId, std::vector<storage::ChunkId>> granted_;
  std::set<net::EndpointId> failed_masters_;
  /// Masters told "exhausted": they never ask for a batch again.
  std::set<net::EndpointId> exhausted_;
};

}  // namespace cloudburst::middleware
