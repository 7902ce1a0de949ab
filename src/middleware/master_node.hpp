// Master node: per-cluster job pool manager (paper §III-B).
//
// "The master monitors the cluster's job pool, and when it senses that it is
// depleted, it will request a new group of jobs from the head" — the pool is
// refilled from the head once it runs dry; slaves pull jobs one at a time,
// which is the on-demand pooling that load-balances heterogeneous nodes.
// Assignment is file-affine: a slave preferentially continues the file it
// last read so the storage node sees sequential access.
//
// Reduction & fault tolerance:
//  * tree mode (default): the binomial tree over the slaves delivers one
//    merged cluster robj from rank 0; the master forwards it to the head.
//  * direct mode: the master tracks per-slave assignments and JobDone acks;
//    when the cluster's work drains it requests robjs from all live slaves
//    (two-phase commit) and merges them. Receiving a slave's robj
//    *checkpoints* that slave's chunks; if a slave dies, every chunk
//    assigned since its last checkpoint is re-enqueued and push-assigned to
//    the surviving slaves — the lost robj covered exactly those chunks.
#pragma once

#include <deque>
#include <map>
#include <set>
#include <vector>

#include "middleware/run_context.hpp"

namespace cloudburst::middleware {

class MasterNode {
 public:
  MasterNode(RunContext& ctx, cluster::ClusterId site, net::EndpointId self,
             net::EndpointId head, std::vector<net::EndpointId> slaves);

  void handle(net::EndpointId from, Message msg);

  /// Arm periodic robj checkpointing (direct mode with
  /// checkpoint_interval_seconds > 0); called once by the runtime.
  void start();

  /// Static-assignment baseline: push `chunks[i]` to `slaves[i]` and mark
  /// the pool permanently exhausted (no on-demand pulls, no stealing).
  void assign_static(const std::vector<std::pair<net::EndpointId, storage::ChunkId>>& plan);

  /// Heartbeat timeout fired for `slave`: reclaim its un-checkpointed work.
  void on_slave_failed(net::EndpointId slave);

  /// Chaos site outage: the whole cluster went dark at once. Silences the
  /// master for good — checkpoint ticks stop, late messages are ignored, no
  /// commit is attempted (reclaiming locally would throw with zero survivors).
  /// The head re-grants this cluster's uncommitted work to surviving masters
  /// via HeadNode::on_master_failed; this master never speaks again even if
  /// its site later recovers (recovered capacity serves *future* jobs).
  void evacuate();

  bool evacuated() const { return evacuated_; }

  /// Held slaves (elastic reserve, migration standbys, booting pool leases)
  /// are wired into the cluster but stay dormant (unbilled, never started)
  /// until activated: the master must not push work at them or count them
  /// as live capacity. An activated slave is "booting" until its boot delay
  /// elapses — still no push target, but it counts as capacity that will
  /// pull re-pooled work, so the cluster is not written off.
  void mark_dormant(net::EndpointId slave) { dormant_.insert(slave); }
  void mark_leased(net::EndpointId slave) {
    dormant_.erase(slave);
    booting_.insert(slave);
  }
  void mark_booted(net::EndpointId slave) { booting_.erase(slave); }
  bool dormant(net::EndpointId slave) const { return dormant_.count(slave) != 0; }

  net::EndpointId endpoint() const { return self_; }
  cluster::ClusterId site() const { return site_; }

 private:
  void maybe_refill();
  void serve_waiting();
  void assign_to(net::EndpointId slave);
  void push_assign(storage::ChunkId chunk, net::EndpointId slave);
  /// Store this master charged the chunk's assignment to: the replica the
  /// ReplicaSet resolved at assignment time, or the layout primary.
  storage::StoreId assigned_store(storage::ChunkId chunk) const;
  void maybe_commit();
  void checkpoint_tick();
  /// `slave`'s robj in `msg` checkpointed its done work: count and trace
  /// the flush.
  void note_flush(net::EndpointId slave, const Message& msg);
  void send_cluster_robj();
  /// A draining slave handed an assigned chunk back unstarted.
  void on_chunk_returned(net::EndpointId slave, storage::ChunkId chunk);
  /// A draining slave flushed its final delta robj and went silent.
  void on_node_vacated(net::EndpointId slave, Message msg);
  /// The steps every node loss (crash or drain) shares: mark `slave` dead
  /// and its site suspect, drop it from the waiters and the commit round,
  /// take back its un-checkpointed and in-flight chunks, and settle the
  /// prefetcher (drop its joins, reopen those chunks). Returns the chunks;
  /// the caller re-executes (crash) or re-pools (drain) them, then asks
  /// RunContext::on_node_lost for a held replacement if work remains.
  std::vector<storage::ChunkId> lose_slave(net::EndpointId slave);
  /// Pool, in-flight or head work still to come.
  bool work_remains() const;
  /// Commit round bookkeeping: a counted slave can die mid-commit; its
  /// expected robj is withdrawn and the round completes without it.
  void drop_from_commit(net::EndpointId slave);
  void finish_commit_if_complete();
  /// Slaves that are alive, activated and booted; draining ones only when
  /// `with_draining`.
  std::vector<net::EndpointId> running_slaves(bool with_draining) const;
  /// Running, non-draining push targets (falls back to draining ones).
  std::vector<net::EndpointId> push_targets() const;
  /// Endgame: no_more_ was already announced, so idle survivors will never
  /// pull again — push whatever sits in the pool at them directly.
  void flush_pool_if_endgame();

  RunContext& ctx_;
  cluster::ClusterId site_;
  std::string trace_name_;  ///< "master-<site>" for the event stream
  net::EndpointId self_;
  net::EndpointId head_;
  std::vector<net::EndpointId> slaves_;

  std::deque<storage::ChunkId> pool_;
  std::deque<net::EndpointId> waiting_slaves_;
  bool refill_outstanding_ = false;
  bool no_more_ = false;
  bool evacuated_ = false;  ///< site blackout: ignore everything forever

  /// Last (file, next index) each slave read — assignment prefers the chunk
  /// that continues a slave's sequential position so the storage node sees
  /// sequential reads ("compute units sequentially read jobs from files").
  std::map<net::EndpointId, std::pair<storage::FileId, std::uint32_t>> last_read_;

  /// Replication only: replica store each chunk's latest assignment resolved
  /// to (a returned chunk must reverse the same store the assignment charged).
  /// Empty without a ReplicaSet attached.
  std::map<storage::ChunkId, storage::StoreId> assigned_store_;

  // --- direct-mode / fault-tolerance bookkeeping ----------------------------
  std::set<net::EndpointId> dead_;
  /// Slaves known to be draining (they bounced a chunk or vacated): excluded
  /// from push-assignment so returned work converges on running nodes.
  std::set<net::EndpointId> draining_slaves_;
  /// Held slaves not yet activated: present in slaves_ but not running.
  std::set<net::EndpointId> dormant_;
  /// Leased replacements waiting out their boot delay.
  std::set<net::EndpointId> booting_;
  /// Slaves whose robj for the current commit round already arrived; a slave
  /// dying mid-commit *before* responding shrinks robjs_expected_ instead of
  /// deadlocking the round.
  std::set<net::EndpointId> commit_responded_;
  std::uint32_t vacated_slaves_ = 0;
  /// Chunks assigned but not yet JobDone'd (in flight on the slave).
  std::map<net::EndpointId, std::vector<storage::ChunkId>> inflight_;
  /// Chunks JobDone'd but not yet covered by a received robj. Only these are
  /// cleared when the slave's robj arrives: a job pushed after the robj was
  /// requested stays tracked until the *next* checkpoint.
  std::map<net::EndpointId, std::vector<storage::ChunkId>> done_unchk_;
  std::uint32_t outstanding_total_ = 0;
  bool committing_ = false;
  std::uint32_t commit_round_ = 0;   ///< ids >= 1; periodic checkpoints use 0
  std::uint32_t robjs_expected_ = 0;
  std::uint32_t robjs_received_ = 0;
  bool cluster_robj_sent_ = false;
  /// Chunks the head granted since the last cluster robj (that robj's
  /// MasterRobj::want).
  std::uint32_t granted_since_robj_ = 0;
  std::size_t push_cursor_ = 0;  ///< round-robin over live slaves

  // tree mode: count of cluster robjs (rank 0 sends exactly one)
  std::uint32_t tree_robjs_received_ = 0;

  api::RobjPtr robj_;  ///< merged cluster robj (real runs)
};

}  // namespace cloudburst::middleware
