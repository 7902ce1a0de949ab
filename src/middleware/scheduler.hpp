// The head node's global job pool and assignment policies (paper §III-B).
//
// Policies implemented, each but locality switchable for the ablation
// benches:
//  * locality preference — a cluster is served jobs from "its" store while
//    any remain (local store for the local cluster, S3 for the cloud);
//  * consecutive batches — a batch is taken as consecutive chunks of one
//    file, so the storage node sees sequential reads ("allows the compute
//    units to sequentially read jobs from the files");
//  * work stealing — once a side's store is drained, remaining jobs from the
//    remote store are handed out;
//  * minimum-contention remote selection — stolen jobs come from the file
//    the fewest readers are currently processing ("minimizes file
//    contention among clusters").
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <vector>

#include "common/rng.hpp"
#include "storage/data_layout.hpp"

namespace cloudburst::middleware {

enum class RemoteSelection : std::uint8_t {
  MinContention,  ///< paper's heuristic
  Random,         ///< ablation baseline
  Sequential,     ///< lowest file id first
  /// Replica-aware: steal from the file whose data is cheapest to reach —
  /// WAN cost of the nearest live replica plus current fault/throttle
  /// penalties. Requires RunOptions::replication; without a replica view it
  /// falls back to MinContention.
  CheapestReplica,
};

struct SchedulerPolicy {
  std::uint32_t batch_size = 4;  ///< jobs per head->master batch
  /// Stolen (remote-store) jobs are granted at most this many at a time —
  /// they are expensive, and handing a big batch to one side near the end
  /// leaves the other side idle.
  std::uint32_t steal_batch_size = 1;
  /// Endgame reservation: while the owning side is still active, its last
  /// `steal_reserve` jobs are not stealable — a remote job granted in the
  /// final seconds becomes a straggler (WAN fetch) while the data-local side
  /// idles.
  std::uint32_t steal_reserve = 4;
  bool consecutive_batches = true;
  bool allow_stealing = true;
  RemoteSelection remote_selection = RemoteSelection::MinContention;
  std::uint64_t random_seed = 42;  ///< for RemoteSelection::Random (distributed runs copy RunOptions::random_seed here)
};

/// Job pool bookkeeping: which chunks are unassigned, organized by file and
/// store, plus per-file reader counts for the contention heuristic.
class JobPool {
 public:
  /// Replica-awareness hooks, kept as bare functions so the scheduler stays
  /// decoupled from the replica subsystem. Both null by default — the pool
  /// then sees exactly the single-owner layout (byte-identical paper runs).
  struct ReplicaView {
    /// Does `store` hold a live copy of `chunk`? Files whose lead chunk has
    /// a live replica on the requester's preferred store count as local.
    std::function<bool(storage::ChunkId, storage::StoreId)> on_store;
    /// Route cost of reading `chunk` for a requester preferring `store`
    /// (RemoteSelection::CheapestReplica ranks steal candidates with this).
    std::function<double(storage::ChunkId, storage::StoreId)> steal_cost;
  };

  JobPool(const storage::DataLayout& layout, SchedulerPolicy policy,
          ReplicaView view = {});

  /// Select and remove up to `want` jobs for a requester whose preferred
  /// store is `preferred`. Jobs from non-preferred stores are only returned
  /// when the preferred store is drained and stealing is enabled. Each store
  /// in `reserved_stores` (the preferred stores of the *other*
  /// still-registered clusters) keeps its last `steal_reserve` jobs off
  /// limits; unreserved non-preferred stores are fully stealable.
  std::vector<storage::ChunkId> take_batch(storage::StoreId preferred, std::uint32_t want,
                                           const std::vector<storage::StoreId>& reserved_stores = {});

  /// Remove and return every remaining job, in file order.
  std::vector<storage::ChunkId> take_all();

  bool empty() const { return remaining_ == 0; }
  std::uint64_t remaining() const { return remaining_; }
  std::uint64_t remaining_on(storage::StoreId store) const;

  /// Readers-currently-assigned count for a file (visible for tests).
  std::uint32_t readers(storage::FileId file) const;

  const SchedulerPolicy& policy() const { return policy_; }

 private:
  struct FileState {
    std::deque<storage::ChunkId> chunks;  ///< unassigned, ascending index
    std::uint32_t readers = 0;            ///< batches handed out from this file
  };

  /// Pick the file to draw non-preferred ("stolen") jobs from, for a
  /// requester preferring `preferred`.
  storage::FileId pick_remote_file(const std::vector<storage::FileId>& candidates,
                                   storage::StoreId preferred);

  /// Take up to `want` chunks from one file (front = lowest index).
  void take_from_file(storage::FileId file, std::uint32_t want,
                      std::vector<storage::ChunkId>& out);

  const storage::DataLayout& layout_;
  SchedulerPolicy policy_;
  ReplicaView view_;
  std::vector<FileState> files_;
  std::uint64_t remaining_ = 0;
  Rng rng_;
};

}  // namespace cloudburst::middleware
