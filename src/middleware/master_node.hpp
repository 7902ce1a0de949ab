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
//  * direct mode: the master keeps one record per slave (its state, its
//    in-flight and un-checkpointed chunks, its commit reply). When the
//    cluster's work drains it requests robjs from every slave still in the
//    run (two-phase commit) and merges them. Receiving a slave's robj
//    *checkpoints* that slave's chunks; if a slave dies, every chunk
//    assigned since its last checkpoint is re-enqueued and push-assigned to
//    the surviving slaves — the lost robj covered exactly those chunks.
//  * a cluster that still has work but no running, draining or booting
//    slave, and no same-site replacement, is lost like a blacked-out site:
//    RunContext::on_node_lost evacuates the master and the head re-grants
//    its uncommitted work to the surviving clusters.
#pragma once

#include <deque>
#include <map>
#include <optional>
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

  /// The cluster is lost (its site blacked out, or it kept work with no
  /// slave left to run it). Silences the master for good: checkpoint ticks
  /// stop, late messages are ignored, no commit is attempted. The head
  /// re-grants this cluster's uncommitted work to surviving masters via
  /// HeadNode::on_master_failed; this master never speaks again even if its
  /// site later recovers (recovered capacity serves *future* jobs).
  void evacuate();

  bool evacuated() const { return evacuated_; }

  /// Held slaves (elastic reserve, migration standbys, booting pool leases)
  /// are wired into the cluster but stay dormant (unbilled, never started)
  /// until activated: the master must not push work at them or count them
  /// as capacity. An activated slave is "booting" until its boot delay
  /// elapses: still no push target, but it counts as capacity that will
  /// pull re-pooled work, so the cluster is not written off.
  void mark_dormant(net::EndpointId slave) { record(slave).state = State::Held; }
  void mark_leased(net::EndpointId slave) { record(slave).state = State::Booting; }
  void mark_booted(net::EndpointId slave) {
    if (Slave& s = record(slave); s.state == State::Booting) s.state = State::Running;
  }
  bool dormant(net::EndpointId s) const { return slaves_[index_of(s)].state == State::Held; }

  /// A running, draining or booting slave is left: someone will still
  /// process work this cluster holds.
  bool has_capacity() const;

  net::EndpointId endpoint() const { return self_; }
  cluster::ClusterId site() const { return site_; }

 private:
  /// Held: in the reserve, never started. Booting: activated, not yet
  /// started. Running. Draining: bounced a chunk or vacated. Gone: lost
  /// (crash detected, or vacated).
  enum class State : std::uint8_t { Held, Booting, Running, Draining, Gone };

  struct Slave {
    net::EndpointId endpoint = 0;
    State state = State::Running;
    /// Chunks assigned but not yet JobDone'd (in flight on the slave).
    std::vector<storage::ChunkId> inflight;
    /// Chunks JobDone'd since the slave's last robj arrived.
    std::vector<storage::ChunkId> unchecked;
    /// Chunks JobDone'd before the slave's last robj arrived that the robj
    /// does not name (Message::batch): they finished after it shipped, so
    /// only the slave's next robj covers them.
    std::vector<storage::ChunkId> uncovered;
    /// Its robj for the current commit round arrived; a slave dying
    /// mid-commit *before* responding shrinks robjs_expected_ instead of
    /// deadlocking the round.
    bool responded = false;
    /// (file, next index) after the chunk it last read: assignment prefers
    /// the chunk that continues its sequential position so the storage node
    /// sees sequential reads ("compute units sequentially read jobs from
    /// files").
    std::optional<std::pair<storage::FileId, std::uint32_t>> next_read;
  };

  /// Position of `slave`'s record: slaves_ is in endpoint order, as the
  /// platform numbers a site's nodes.
  std::size_t index_of(net::EndpointId slave) const;
  Slave& record(net::EndpointId slave) { return slaves_[index_of(slave)]; }

  void maybe_refill();
  void serve_waiting();
  void assign_to(Slave& slave);
  void push_assign(storage::ChunkId chunk, Slave& slave);
  /// Store this master charged the chunk's assignment to: the replica the
  /// ReplicaSet resolved at assignment time, or the layout primary.
  storage::StoreId assigned_store(storage::ChunkId chunk) const;
  void maybe_commit();
  void checkpoint_tick();
  /// A slave's robj in `msg` checkpointed `chunks` done chunks: count and
  /// trace the flush.
  void note_flush(std::size_t chunks, const Message& msg);
  void send_cluster_robj();
  /// A draining slave handed an assigned chunk back unstarted.
  void on_chunk_returned(Slave& slave, storage::ChunkId chunk);
  /// A draining slave flushed its final delta robj and went silent.
  void on_node_vacated(Slave& slave, Message msg);
  /// The steps every node loss (crash or drain) shares: mark `slave` gone
  /// and its site suspect, drop it from the waiters and the commit round,
  /// take back its un-checkpointed and in-flight chunks, and settle the
  /// prefetcher (drop its joins, reopen those chunks). Returns the chunks;
  /// the caller re-executes (crash) or re-pools (drain) them, then asks
  /// RunContext::on_node_lost for a held replacement if work remains (which
  /// evacuates this master when the cluster has no capacity left).
  std::vector<storage::ChunkId> lose_slave(Slave& slave);
  /// Pool, in-flight or head work still to come.
  bool work_remains() const;
  void finish_commit_if_complete();
  /// Running slaves, and draining ones too when `with_draining`.
  std::vector<Slave*> running_slaves(bool with_draining);
  /// Running, non-draining push targets (falls back to draining ones).
  std::vector<Slave*> push_targets();
  /// Endgame: no_more_ was already announced, so idle survivors will never
  /// pull again — push whatever sits in the pool at them directly.
  void flush_pool_if_endgame();

  RunContext& ctx_;
  cluster::ClusterId site_;
  std::string trace_name_;  ///< "master-<site>" for the event stream
  net::EndpointId self_;
  net::EndpointId head_;
  std::vector<Slave> slaves_;  ///< one record per slave, rank order

  std::deque<storage::ChunkId> pool_;
  std::deque<Slave*> waiting_slaves_;  ///< into slaves_, which never resizes
  bool refill_outstanding_ = false;
  bool no_more_ = false;
  bool evacuated_ = false;  ///< cluster lost: ignore everything forever

  /// Replication only: replica store each chunk's latest assignment resolved
  /// to (a returned chunk must reverse the same store the assignment charged).
  /// Empty without a ReplicaSet attached.
  std::map<storage::ChunkId, storage::StoreId> assigned_store_;

  // --- direct-mode / fault-tolerance bookkeeping ----------------------------
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
