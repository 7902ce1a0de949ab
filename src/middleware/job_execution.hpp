// One job's complete actor tree (head, masters, slaves, prefetchers) on a
// possibly shared platform.
//
// workload::WorkloadManager builds one per job over the same Platform and
// lets their event streams interleave in a single DES run;
// run_distributed() is a one-job FIFO workload. The construction and
// event-scheduling order here is load-bearing: a solo JobExecution must
// replay the paper runs' historical sequence byte for byte (the
// PaperFidelity goldens pin it).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/platform.hpp"
#include "middleware/head_node.hpp"
#include "replica/repair.hpp"
#include "middleware/master_node.hpp"
#include "middleware/run_context.hpp"
#include "middleware/run_result.hpp"
#include "middleware/slave_node.hpp"
#include "net/messaging.hpp"
#include "storage/data_layout.hpp"

namespace cloudburst::middleware {

/// Check that `options` can run on `platform` over `layout`; throws
/// std::invalid_argument otherwise. The workload manager calls it per job
/// at submission, so a bad spec fails fast instead of mid-simulation.
void validate_run(const cluster::Platform& platform, const storage::DataLayout& layout,
                  const RunOptions& options);

/// A cloud node the workload's elastic node pool leased to a job.
struct PoolLease {
  net::EndpointId node = 0;
  double ready_in_seconds = 0.0;  ///< 0 = warm now
};

class JobExecution {
 public:
  /// Builds the full actor tree, registers it with `postman` under
  /// `job_id`, and schedules the job's self-driving events (node events,
  /// elastic controller ticks, pool lease boots) — everything short of the
  /// first master/slave action, which start() triggers. A pooled job gets
  /// `pool_leases`: its cloud nodes are exactly these, and the pool's lease
  /// windows bill them. The referenced platform/layout/options/postman must
  /// outlive this object.
  JobExecution(cluster::Platform& platform, const storage::DataLayout& layout,
               const RunOptions& options, net::Postman<Message>& postman,
               std::uint32_t job_id, std::string trace_tag, SlotArbiter* arbiter,
               std::function<void()> on_finished,
               std::optional<std::vector<PoolLease>> pool_leases);

  JobExecution(const JobExecution&) = delete;
  JobExecution& operator=(const JobExecution&) = delete;
  ~JobExecution();

  /// Cross-job drain entry point (workload manager): begin draining the
  /// slave this job runs on `ep`. Returns false when the job has no live,
  /// non-draining slave there (tree-mode job, already vacated, never built)
  /// — the caller must not wait for a vacate from it.
  bool drain_node(net::EndpointId ep);

  /// Launch the masters and the initially-active slaves. The job then runs
  /// as the shared simulator executes; ctx().on_finished fires when the
  /// head completes the global reduction.
  void start();

  RunContext& ctx() { return ctx_; }

  /// Wait for every slave's queued kernel calls and rethrow the first error
  /// one of them threw (slave order). Call once the simulator drained.
  void fence_kernels();

  /// Settle the prefetchers and aggregate the RunResult. Call after the
  /// whole workload finished, so in-flight transfers have landed.
  RunResult collect();

 private:
  void setup_chunk_offsets();
  /// Resolve this job's platform membership: per-site node lists filtered
  /// through the service directory (Active only) and, on cloud sites under a
  /// pooled job, down to the leased nodes. Without a directory or pool the
  /// lists equal the platform's — default runs are byte-identical.
  void resolve_membership();
  /// Subscribe to the directory's change feed (store retirement marks the
  /// store's replicas lost so the repair actor re-replicates).
  void setup_directory();
  /// Elastic-pool leases: a booting lease is held and activated at once, so
  /// it starts once warm (the pool's lease windows are its billing record).
  void setup_pool();
  /// The reserve of held-back cloud slaves, shared by the elastic, migration
  /// and pool policies, which only decide which slaves to hold and when to
  /// activate them. hold(): the master sees the slave dormant, start() skips
  /// it, nothing is rented, node events pass it by, and a node lost with
  /// work remaining activates a same-site held slave (lease_replacement).
  void hold(SlaveNode* slave);
  /// Take `slave` out of the reserve and boot it: it rents from now + boot
  /// (unless the pool bills this job), and `boot_seconds` later it traces
  /// `kind` and starts — unless the run finished or the node died meanwhile.
  void activate(SlaveNode* slave, double boot_seconds, trace::EventKind kind);
  /// Rent every initially active cloud slave from the job's start (a pooled
  /// job rents nothing).
  void rent_initial_cloud();
  /// Attach the StoreQos (if any): bind store capacities, resolve this run's
  /// tenant id, and apply per-tenant cache shares to the fleet.
  void setup_qos();
  /// Attach the caller-owned ReplicaSet (first attach builds placement and
  /// emits the initial ReplicaCreated events) and construct the background
  /// repair actor.
  void setup_replication();
  void build_prefetchers();
  void build_actors();
  void apply_static_assignment();
  /// Deadline-driven bursting: hold the cloud slaves beyond the initial
  /// allocation; a periodic controller (elastic_tick) activates them from
  /// the front of the reserve while the projected completion misses the
  /// deadline.
  void setup_elastic();
  /// One controller check; reschedules itself until the run finishes.
  void elastic_tick();
  /// Checkpointed migration: hold back the last standby_nodes cloud slaves.
  void setup_migration();
  /// Schedule RunOptions::lifecycle events plus the stochastic spot-reclaim
  /// draws (one per cloud node).
  void schedule_lifecycle();
  /// Schedule one node event, whether a RunOptions::lifecycle entry or a
  /// chaos plan node event: a crash (kill, then detection one heartbeat
  /// timeout later) or a drain/reclaim notice. A no-op when this job has no
  /// slave on the named node.
  void schedule_node_event(const RunOptions::LifecycleEvent& ev);
  /// Drain notice at `at_seconds` (relative to now); `notice_seconds >= 0`
  /// adds a spot-reclaim kill that far after the notice.
  void schedule_drain(SlaveNode* victim, double at_seconds, double notice_seconds);
  // The steps every way of losing a node is built from, each written once:
  // the spot draw (a held slave's draw is discarded), the guard (run on,
  // node alive and not held), the drain start (guarded; a notice >= 0 marks
  // a reclaim), the kill (billing stops when the provider took the node;
  // leaves the reserve) and the detection (unless finished or held).
  void draw_spot_reclaim(SlaveNode* slave);
  bool losable(const SlaveNode* slave);
  bool start_drain(SlaveNode* victim, double notice_seconds);
  void kill_node(SlaveNode* victim, trace::EventKind kind, bool provider_took);
  void detect_loss(SlaveNode* victim, double delay_seconds);
  /// Schedule every window of RunOptions::chaos (no-op when null): link
  /// faults and partitions, store outages, node crash/drain/reclaim events,
  /// and whole-site blackouts with recovery.
  void setup_chaos();
  /// Site blackout: WAN links cut, store dark, slaves killed and their
  /// in-flight flows cancelled, directory services retired, and the cluster
  /// lost.
  void begin_site_outage(cluster::ClusterId site);
  /// The one way to lose a cluster, shared by a blackout and by a master
  /// left with work and no capacity (RunContext::on_node_lost): evacuate the
  /// master and, one failure_detection_seconds later, have the head re-grant
  /// its uncommitted work. A no-op for an evacuated master.
  void lose_cluster(MasterNode* master);
  /// Window end: links back to nominal capacity, store online, directory
  /// services re-registered (fresh generation) for future placement. Nodes
  /// killed by the outage stay dead for this job.
  void recover_site(cluster::ClusterId site);
  /// Every WAN link between `site` and another site, in site order.
  std::vector<net::LinkId> wan_links_of(cluster::ClusterId site) const;
  /// The fault-window switches every chaos window uses: degrade links to
  /// `factor` (0 cuts them; traced before the change) and restore them
  /// (traced after); take a store offline (traced before) or back online
  /// (traced after).
  void fault_links(const std::vector<net::LinkId>& links, double factor);
  void restore_links(const std::vector<net::LinkId>& links);
  void store_offline(storage::StoreId store);
  void store_online(storage::StoreId store);
  /// Activate the next live same-site held slave for a lost node; false
  /// when none is left.
  bool lease_replacement(cluster::ClusterId site);
  SlaveNode* slave_by_endpoint(net::EndpointId ep);
  MasterNode* master_of(cluster::ClusterId site);

  cluster::Platform& platform_;
  RunContext ctx_;
  /// Set for a pooled job (see the constructor).
  std::optional<std::vector<PoolLease>> pool_leases_;

  /// Per-site membership this job was built with (see resolve_membership).
  std::vector<std::vector<cluster::NodeHandle>> site_nodes_;
  /// Directory change-feed subscription (0 = none).
  directory::PlatformDirectory::WatchId directory_watch_ = 0;

  std::vector<HeadNode::MasterInfo> master_infos_;
  std::vector<std::unique_ptr<MasterNode>> masters_;
  std::vector<std::unique_ptr<SlaveNode>> slaves_;
  std::unique_ptr<HeadNode> head_;
  /// Replication only: background re-replicator (null otherwise).
  std::unique_ptr<replica::RepairActor> repair_;
  /// True when this execution's attach() built the set — that job (and only
  /// that job, under a shared workload set) bills the replica storage.
  bool replication_built_here_ = false;
  /// Slaves start() launches (everyone not held).
  std::vector<SlaveNode*> initial_active_;
  /// Held slaves still available for activation, in activation order. Held
  /// slaves stay dormant at their master until activated (unbilled, immune
  /// to node events); one the directory retires stays dormant but leaves.
  std::vector<SlaveNode*> reserve_;
  /// Next Rng substream id for stochastic spot draws (every cloud node
  /// first, held ones included, then one fresh draw per replacement).
  std::uint64_t spot_streams_used_ = 0;
};

}  // namespace cloudburst::middleware
