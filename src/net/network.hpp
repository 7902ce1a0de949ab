// Flow-level network simulation with max-min fair bandwidth sharing.
//
// Model
// -----
// The platform is a set of *sites* (the local cluster, the cloud, storage
// services). Every *endpoint* (a node NIC, the S3 front end, the storage
// node's disk channel) is attached to one site through an ordered list of
// access links; sites are connected by routes (ordered link lists). The path
// of a transfer is:
//
//     access(src) + route(site(src) -> site(dst)) + reverse(access(dst))
//
// A *flow* carries `bytes` along its path. After the path's total latency it
// becomes active and drains at its max-min fair rate; every flow arrival or
// departure triggers a re-balance (progressive filling / water-filling),
// which also re-estimates completion times. Flows may carry an optional
// per-flow rate cap — this is how the S3 model expresses its per-connection
// throughput limit without dedicating a simulated link per connection.
//
// Scoped rebalancing
// ------------------
// A flow arrival or departure can only change the rates of flows it shares
// bandwidth with, directly or transitively. Each link keeps the list of
// active flows crossing it (pointers straight to the flows, so the walk never
// looks a flow up by id), so a mutation walks the *connected component* of
// the affected links (flows <-> links) once: the walk settles each flow as it
// reaches it and counts it on its links for the water-filling pass. The
// freeze-event water-filling pass then recomputes the component's max-min
// rates (O(component) instead of O(all flows x all links) per filling round)
// and re-keys completions only for flows whose rate actually changed. Disjoint
// traffic — e.g. independent sites, or the thousands of concurrent chunk
// fetches that never meet on a link — pays nothing for each other's churn.
//
// The per-component solver is a pure function of the component's flow set,
// caps and link bandwidths — not of the order the walk found the flows in.
// Within a filling round every freeze decision reads only that round's
// per-link level snapshot and the round's level r, and every flow frozen in
// the round adds the same r to each of its links' committed sums, so the
// sums and rates come out bit-identical in any flow order. Recomputing an
// unaffected component therefore reproduces its current rates bit-for-bit.
// RebalanceMode::kGlobalReference exploits that: it recomputes *every* active
// flow on each mutation, which must be byte-identical to the scoped result —
// the randomized differential tests in tests/test_network_perf.cpp drive both
// modes through the same operation sequence and assert exactly that.
//
// Lazy completions
// ----------------
// Flows hold no DES events of their own. Every active flow that drains (rate
// > 0) or has nothing left to drain sits in one network-owned indexed
// min-heap keyed by (due, seq, flow id): due = now + max(remaining / rate,
// 1 tick) at the last rate change (or now, if nothing is left), and seq is a
// DES sequence number (des::Simulator::reserve_sequence). A rebalance
// reserves one sequence number, and only if it keys some flow; every flow it
// keys shares it, so flows keyed together tie-break by id, and the whole
// batch sits against every other DES event exactly where completion events
// scheduled at that moment would. A rate change re-keys the flow in place;
// a starved, cancelled or finished flow leaves the heap. One DES event,
// `wake_`, sits at the heap top under the top's own (due, seq), so it fires
// exactly where the flow's own completion event would have, and it is
// re-armed only when the top's key (or the flow holding it) changes. Each
// firing handles exactly one flow, so the executed-event count is the same
// as with one DES event per flow, while a rebalance that re-rates a whole
// component costs heap sifts (or one O(n) heap rebuild, when it re-rates a
// large share of the heap) instead of a DES cancel + schedule per flow.
// check_invariants() audits the heap, the wake event and the per-link lists.
//
// Everything is deterministic: rates and completion times do not depend on
// the order the walk finds flows in (only the summation order of the
// Link::bytes_carried statistic does, and the walk order is itself a function
// of the run's history), and completions follow the (due, seq, flow id) total
// order, which the wake event carries into the DES kernel's (time, sequence)
// order.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "des/simulator.hpp"
#include "net/link.hpp"

namespace cloudburst::net {

class Network {
 public:
  explicit Network(des::Simulator& sim) : sim_(sim) {}

  // --- topology construction ---------------------------------------------

  SiteId add_site(std::string name);
  LinkId add_link(std::string name, double bandwidth_bytes_per_sec,
                  des::SimDuration latency);
  EndpointId add_endpoint(std::string name, SiteId site);

  /// Links crossed from the endpoint to its site's router (may be empty for
  /// an endpoint sitting directly on the site fabric).
  void set_access_path(EndpointId ep, std::vector<LinkId> links);

  /// Directed route between two sites. Routes within a site are implicit
  /// (empty). Call twice for asymmetric paths; set_route_symmetric for the
  /// common case.
  void set_route(SiteId from, SiteId to, std::vector<LinkId> links);
  void set_route_symmetric(SiteId a, SiteId b, std::vector<LinkId> links);

  // --- transfers -----------------------------------------------------------

  /// Begin moving `bytes` from src to dst. `rate_cap` in bytes/sec limits
  /// this single flow (0 = unlimited; must be finite and >= 0).
  /// `on_complete` fires when the last byte arrives. Returns a FlowId usable
  /// with cancel_flow/flow_rate.
  FlowId start_flow(EndpointId src, EndpointId dst, std::uint64_t bytes,
                    double rate_cap, des::EventFn on_complete);

  /// Abort an in-progress flow; its completion callback never fires.
  /// Harmless if the flow already finished. Returns the flow's un-moved
  /// bytes, settled as of the cancellation instant (0 if unknown/finished).
  double cancel_flow(FlowId id);

  /// Abort every flow whose source or destination is `ep` (completion
  /// callbacks never fire). Used when an endpoint dies mid-transfer — the
  /// flows must settle and leave the per-link active lists, not stall
  /// forever holding bandwidth. Returns the number of flows cancelled.
  std::size_t cancel_flows_with_endpoint(EndpointId ep);

  // --- fault injection -----------------------------------------------------

  /// Scale a link's capacity: 1 restores nominal bandwidth, 0 takes the link
  /// down (crossing flows drop to rate 0 and stall — their traffic is
  /// delayed, not lost), intermediate values model degradation. The factor
  /// must be finite and >= 0. Rebalances the affected component immediately.
  void set_link_capacity_factor(LinkId id, double factor);

  // --- introspection (tests, stats) ---------------------------------------

  /// Current fair-share rate (bytes/sec); 0 while in the latency phase or if
  /// the flow is unknown/finished.
  double flow_rate(FlowId id) const;

  /// Bytes the flow still has to drain (settled as of the last rebalance);
  /// 0 if the flow is unknown/finished.
  double flow_remaining(FlowId id) const;

  std::size_t active_flows() const { return flows_.size(); }

  /// Audit the solver state; throws std::logic_error naming the first
  /// violation. Checks that link bandwidths and flow rates are finite, that
  /// each link carries at most its effective bandwidth, that the per-link
  /// active lists and the flows' back-pointers agree, that exactly the
  /// draining (or drained) active flows sit in the completion heap, that the
  /// heap is ordered and its back-pointers hold, and that the wake event is
  /// pending exactly at the heap top.
  void check_invariants() const;

  std::vector<LinkId> path(EndpointId src, EndpointId dst) const;
  des::SimDuration path_latency(EndpointId src, EndpointId dst) const;

  const Link& link(LinkId id) const { return links_.at(id); }
  SiteId site_of(EndpointId ep) const { return endpoints_.at(ep).site; }
  std::size_t link_count() const { return links_.size(); }

  /// Test hook (see "Scoped rebalancing" above): kGlobalReference recomputes
  /// every active flow on each mutation instead of just the affected
  /// connected component. Results must be bit-identical to kScoped.
  enum class RebalanceMode { kScoped, kGlobalReference };
  void set_rebalance_mode_for_test(RebalanceMode mode) { rebalance_mode_ = mode; }

 private:
  struct Endpoint {
    std::string name;
    SiteId site;
    std::vector<LinkId> access;
  };

  static constexpr std::uint32_t kNotInHeap = 0xffffffffu;

  struct Flow {
    FlowId id;
    EndpointId src = 0;
    EndpointId dst = 0;
    std::vector<LinkId> links;
    double remaining;  ///< bytes still to drain once active
    double rate_cap;   ///< 0 = uncapped
    double rate = 0.0;
    bool active = false;  ///< false during the latency phase
    des::SimTime last_update = 0;
    des::SimTime due = 0;         ///< completion-heap key, valid while in the heap
    std::uint64_t due_seq = 0;    ///< tie-break: the keying rebalance's DES sequence
    std::uint32_t heap_pos = kNotInHeap;
    des::EventHandle activation;
    des::EventFn on_complete;
    /// For each links[i]: this flow's position in link_active_[links[i]]
    /// (back-pointer for O(1) swap-remove).
    std::vector<std::uint32_t> link_pos;
    std::uint64_t visit_epoch = 0;  ///< component-BFS visited stamp
  };

  /// One active-flow registration on a link: the flow plus which of the
  /// flow's path slots this entry belongs to (paths may repeat a link).
  /// Flows live in a node-based map, so the pointer is stable.
  struct ActiveRef {
    Flow* flow;
    std::uint32_t slot;
  };

  /// Per-link scratch for the component walk and the freeze-event
  /// water-filling pass, reset lazily via `epoch` (no O(links) clearing per
  /// rebalance). `epoch` doubles as the walk's link-visited stamp.
  struct LinkWater {
    double committed = 0.0;  ///< sum of frozen flow rates crossing the link
    double level = 0.0;      ///< saturation level snapshot for this round
    std::uint32_t count = 0; ///< unfrozen flows crossing the link
    std::uint64_t epoch = 0;
  };

  /// Register/unregister an active flow on its path's link lists.
  void attach_to_links(Flow& flow);
  void detach_from_links(Flow& flow);

  /// Walk the connected component (active flows <-> links) holding the
  /// active flow `seed` (or, if null, crossing `seed_link`) into comp_flows_
  /// in walk order, a seed flow first. The walk settles each flow and counts
  /// it on each of its links (water_[l].count) as it reaches it, and lists
  /// the component's links in water_links_.
  void collect_component(Flow* seed, LinkId seed_link = 0);
  /// Stamp `l` into the current epoch, resetting its water-filling scratch
  /// and listing it in water_links_. False if already stamped.
  bool stamp_link(LinkId l);
  /// Settle `flow` and count it on its links; queue its unvisited links.
  void visit_flow(Flow& flow, des::SimTime now);
  /// Take the departing seed flow comp_flows_.front() out of the component
  /// and off its links' counts.
  void drop_seed_from_component();

  /// Charge elapsed drain time to `flow`; updates link stats. Must run
  /// before its rate changes.
  void settle(Flow& flow, des::SimTime now);

  /// Max-min fair rates for `comp`, counted on water_ by the walk (in
  /// kGlobalReference mode the argument is replaced by all active flows and
  /// recounted); re-keys the completions of flows whose rate changed.
  void recompute_rates(std::vector<Flow*>& comp);

  /// Completion heap: key the flow at its projected finish from its current
  /// rate and remaining bytes (or drop it if starved); remove it. `seq` is
  /// the keying's DES sequence number, reserved on first use. With
  /// sift = false the heap order is left for the caller to rebuild.
  void key_completion(Flow& flow, std::optional<std::uint64_t>& seq, bool sift = true);
  void heap_remove(Flow& flow, bool sift = true);
  void sift_up(std::uint32_t pos);
  void sift_down(std::uint32_t pos);
  /// Heap order: (due, due_seq, id).
  static bool due_before(const Flow& a, const Flow& b);
  /// Point wake_ at the heap top; no-op if it already sits there.
  void sync_wake();
  /// Whether wake_ was last armed for `flow` under its current key.
  bool wake_at(const Flow& flow) const {
    return wake_due_ == flow.due && wake_seq_ == flow.due_seq && wake_id_ == flow.id;
  }

  void activate_flow(FlowId id);
  void finish_flow(Flow& flow);

  des::Simulator& sim_;
  std::vector<std::string> sites_;
  std::vector<Link> links_;
  std::vector<Endpoint> endpoints_;
  std::map<std::pair<SiteId, SiteId>, std::vector<LinkId>> routes_;
  std::map<FlowId, Flow> flows_;  // id order => deterministic iteration
  FlowId next_flow_id_ = 0;

  std::vector<Flow*> heap_;  ///< completion min-heap on (due, due_seq, id)
  des::EventHandle wake_;    ///< the one DES event, at the heap top's key
  des::SimTime wake_due_ = 0;
  std::uint64_t wake_seq_ = 0;
  FlowId wake_id_ = 0;

  RebalanceMode rebalance_mode_ = RebalanceMode::kScoped;

  std::vector<std::vector<ActiveRef>> link_active_;  // parallel to links_
  std::vector<LinkWater> water_;                     // parallel to links_
  std::uint64_t epoch_ = 0;  ///< component-walk stamp (flows and water_)

  // Scratch buffers reused across mutations (never live across a callback).
  std::vector<Flow*> comp_flows_;
  std::vector<LinkId> water_links_;
  std::vector<LinkId> bfs_stack_;
  std::vector<Flow*> unfrozen_;
  std::vector<Flow*> still_;
  std::vector<Flow*> changed_;  ///< flows whose rate the last solve moved
};

}  // namespace cloudburst::net
