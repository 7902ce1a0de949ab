// Slave node: retrieves and processes jobs (paper §III-B).
//
// Life cycle: request a job from the master; on assignment, fetch the chunk
// from whichever store hosts it (multi-stream for object stores — "each
// slave retrieves jobs using multiple retrieval threads"); process it —
// cache-sized unit groups folded into the node's private reduction object;
// repeat until the master says NoMoreJobs. With pipeline_depth > 1 the slave
// keeps several jobs in flight, overlapping retrieval with computation.
//
// Reduction modes:
//  * tree (default): once done, the slave participates in a binomial tree
//    over its cluster peers — robjs hop between slave NICs (the paper's
//    "all-to-all collective operation") and rank 0 ships the cluster robj
//    to the master.
//  * direct (fault-tolerant): the slave reports JobDone per chunk and ships
//    its robj only when the master sends RobjRequest; what it processes
//    afterwards goes into a fresh (delta) robj — the master checkpoint-tracks
//    work per robj.
//
// A slave can be kill()ed mid-run: it goes silent (all pending callbacks are
// inert) and whatever its robj accumulated is lost, exactly the failure
// semantics a reduction-object runtime has.
//
// Real execution: a task that declares concurrent_process() has its chunks
// folded into the robj on this slave's KernelLane, beside the simulation.
// The slave fences the lane before anything reads or moves the robj:
// send_robj (RobjRequest and the tree hand-off), maybe_vacate, the tree
// child merge, fence_kernels() at run end, and destruction. A shipped robj
// leaves the slave as an object (RunContext::pack_robj); the next one is
// made when first needed, by robj().
#pragma once

#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "des/sim_time.hpp"
#include "middleware/kernel_lane.hpp"
#include "middleware/run_context.hpp"

namespace cloudburst::middleware {

class SlaveNode {
 public:
  /// `peers` are the endpoints of all slaves in this cluster (rank order);
  /// used by the tree reduction. `rank` is this slave's position.
  SlaveNode(RunContext& ctx, const cluster::NodeHandle& node, net::EndpointId master,
            std::size_t stat_index, std::uint32_t rank,
            std::shared_ptr<const std::vector<net::EndpointId>> peers);

  /// Kick off the first job request(s).
  void start();

  /// Postman delivery entry point.
  void handle(net::EndpointId from, Message msg);

  /// Simulated crash: drop everything, go silent. Any held or queued core
  /// slot is returned to the arbiter so other jobs are not wedged.
  void kill() {
    alive_ = false;
    if (ctx_.arbiter && (slot_held_ || slot_waiting_)) {
      ctx_.arbiter->forget(node_.endpoint, ctx_.job_id);
      slot_held_ = false;
      slot_waiting_ = false;
    }
  }
  bool alive() const { return alive_; }

  /// Graceful drain notice (maintenance drain or spot-reclaim warning): stop
  /// claiming pool chunks, bounce any assignment that still arrives back to
  /// the master (ChunkReturned), finish the fetched/in-flight chunks, then
  /// flush the final delta-robj checkpoint and vacate. Direct mode only.
  void begin_drain();
  bool draining() const { return draining_; }

  /// Wait for every chunk handed to the kernel lane and rethrow what a
  /// kernel threw. The slave calls it before it reads or replaces its robj;
  /// run end calls it on every slave, dead ones included, so a slave killed
  /// before it shipped still surfaces its kernel's error.
  void fence_kernels() {
    if (lane_) lane_->fence();
  }

  net::EndpointId endpoint() const { return node_.endpoint; }
  cluster::ClusterId site() const { return node_.cluster; }
  const std::string& name() const { return node_.name; }

 private:
  void top_up_requests();
  void on_assigned(storage::ChunkId chunk, storage::StoreId store);
  /// Resolve one fetch: site cache hit, in-flight prefetch join, or a
  /// (possibly retrying) store fetch. Re-entered when a joined prefetch or a
  /// whole retry cycle permanently fails — an assigned chunk must complete.
  void begin_fetch(storage::ChunkId chunk);
  /// The chunk came from the site cache (a hit, or a joined prefetch that
  /// delivered): count it, credit the store's egress back, note it with
  /// QoS and the replica set, and mark the prefetch consumed.
  void credit_cache_hit(storage::ChunkId chunk, storage::StoreId store_id);
  /// Issue the store read (RunContext::read_chunk); `cache` non-null admits
  /// the chunk (at its wire bytes) on arrival.
  void fetch_from_store(storage::ChunkId chunk, storage::StoreId store_id,
                        cache::ChunkCache* cache);
  /// Every attempt of a retry cycle failed: back off once more, then re-open
  /// a fresh cycle (the simulation cannot drop assigned work).
  void on_fetch_failed(storage::ChunkId chunk);
  /// Store this slave will fetch `chunk` from: the replica store the master
  /// resolved at assignment (or re-resolved after a failure), else the
  /// layout primary.
  storage::StoreId fetch_store(storage::ChunkId chunk) const;
  /// Replication failover: the chunk's read moves from `from` to `to` —
  /// re-point the assignment accounting the master charged to `from`.
  void reassign_store(storage::ChunkId chunk, storage::StoreId from,
                      storage::StoreId to);
  void on_fetched(storage::ChunkId chunk);
  /// Gate on the CPU (and, under a workload, the node's core slot); pops the
  /// ready queue into start_processing() once the slot is ours.
  void maybe_process();
  void start_processing();
  void on_processed(storage::ChunkId chunk, double duration);
  void on_child_robj(Message msg);
  /// The robj this slave folds into, made on first use: by the first chunk,
  /// child merge or ship after construction or after the last ship, so a
  /// slave with no work since its last ship still ships a fresh identity
  /// robj. Null in a timing-only run.
  api::RobjPtr& robj();
  void maybe_finish_tree();
  void send_robj(net::EndpointId dst, std::uint32_t round = 0);
  /// Drain endgame: once no work is held or requested, ship the final delta
  /// robj inside a NodeVacated and go silent.
  void maybe_vacate();

  /// Number of binomial-tree children this rank waits for, and the parent
  /// rank it reports to (rank 0 reports to the master).
  std::uint32_t expected_children() const;
  std::uint32_t parent_rank() const;

  NodeTimes& stats() { return ctx_.recorder.nodes[stat_index_]; }

  RunContext& ctx_;
  cluster::NodeHandle node_;
  net::EndpointId master_;
  std::uint32_t rank_;  ///< next to master_: the two 4-byte fields fill one 8-byte slot
  std::size_t stat_index_;
  std::shared_ptr<const std::vector<net::EndpointId>> peers_;

  bool alive_ = true;
  bool draining_ = false;  ///< drain notice received: claim no new work
  bool vacated_ = false;   ///< final checkpoint flushed, node gone
  unsigned outstanding_requests_ = 0;
  unsigned active_jobs_ = 0;  ///< assigned but not fully processed
  bool no_more_ = false;
  bool processing_ = false;
  bool slot_held_ = false;     ///< arbiter granted us the node's core slot
  bool slot_waiting_ = false;  ///< claim queued at the arbiter
  bool robj_sent_ = false;  ///< tree mode: cluster robj shipped up the tree
  std::uint32_t children_received_ = 0;
  double idle_since_ = 0.0;
  /// Cycle-level backoff draws taken (jitter substream sequencing): with
  /// RetryPolicy::jitter_fraction > 0 each exhausted retry cycle jitters its
  /// maximal backoff so peers that failed in lockstep de-synchronize instead
  /// of re-hammering the store in phase.
  std::uint64_t backoff_draws_ = 0;
  std::deque<storage::ChunkId> ready_;                       ///< fetched, awaiting CPU
  /// Direct mode: chunks finished since this node last shipped its robj,
  /// which the next SlaveRobj covers.
  std::vector<storage::ChunkId> unshipped_;
  std::unordered_map<storage::ChunkId, double> fetch_start_; ///< per-chunk timer
  /// Replication only: replica store each assigned chunk reads from (empty
  /// without a ReplicaSet — the layout primary is implied).
  std::unordered_map<storage::ChunkId, storage::StoreId> assigned_store_;

  api::RobjPtr robj_;  ///< real-execution accumulator; null until robj() makes it
  /// Made on the first chunk a concurrent task hands off (null otherwise:
  /// a timing-only slave carries no lane). Declared after robj_ so it is
  /// destroyed first: its destructor waits for the queued calls into robj_.
  std::unique_ptr<KernelLane> lane_;
};

}  // namespace cloudburst::middleware
