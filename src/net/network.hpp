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
// Flow classes
// ------------
// Active flows with the same (source, destination, rate cap) form a *class*:
// one path, one rate, one entry on each of its links, and one log of walk
// times. A multi-stream fetch (storage::Store splits each chunk into
// `streams` range GETs under one per-stream cap) is one class of `streams`
// flows, so the walk, the water-filling and the link lists below run over
// classes, not flows. Each flow is bound to its class at start_flow (the
// class caches the path and its latency); a class whose last member leaves
// stays in the lookup, detached from its links, for the next flow with its
// key, and the topology setters drop every class because their paths may go
// stale.
//
// Scoped rebalancing
// ------------------
// A flow arrival or departure can only change the rates of flows it shares
// bandwidth with, directly or transitively. Each link keeps the list of
// active classes crossing it (pointers straight to the classes, so the walk
// never looks anything up by id), so a mutation walks the *connected
// component* of the affected links (classes <-> links) once, counting each
// class's members on its links for the water-filling pass. The freeze-event
// water-filling pass then recomputes the component's max-min rates and
// re-keys completions only for flows whose rate actually changed. Disjoint
// traffic — e.g. independent sites, or the thousands of concurrent chunk
// fetches that never meet on a link — pays nothing for each other's churn.
// Members of a class share its path and cap, so the per-flow solver would
// give them one rate: solving per class is the same computation, done once.
// A class frozen in a round adds the level to each link's committed sum once
// per member, in sequence (n additions of r round differently from n * r),
// and only when a later round will read the sums.
//
// The per-component solver is a pure function of the component's flow set,
// caps and link bandwidths — not of the order the walk found the classes in.
// Within a filling round every freeze decision reads only that round's
// per-link level snapshot and the round's level r, and every flow frozen in
// the round adds the same r to each of its links' committed sums, so the
// sums and rates come out bit-identical in any order. Recomputing an
// unaffected component therefore reproduces its current rates bit-for-bit.
// RebalanceMode::kGlobalReference exploits that: it recomputes *every* active
// class on each mutation, which must be byte-identical to the scoped result —
// the randomized differential tests in tests/test_network_perf.cpp drive both
// modes through the same operation sequence and assert exactly that.
//
// Exact settle replay
// -------------------
// A flow's progress is defined per walk: every walk that reaches the flow
// settles it, `remaining -= min(remaining, rate * dt)` with dt the time since
// its previous settle. Instead of touching every member, a walk appends its
// time to the class log; a member replays the log — the same steps at the
// same times and rate, in the same order — only when its bytes are needed:
// before its class is re-rated (at the old rate), when it finishes or is
// cancelled, or when the log reaches a fixed length (all members catch up).
// A class with one member settles it in place and keeps no log. The bytes and
// rates are therefore bit-identical to settling every flow on every walk;
// only the summation order of the Link::bytes_carried statistic changes.
// flow_remaining() replays without mutating, so it reports the bytes as of
// the last walk, as before.
//
// Flow timers
// -----------
// Flows hold no DES events of their own. The network keeps every flow timer
// in one indexed min-heap keyed by (due, seq, flow id), and it is the
// simulator's timer source (des::TimerSource): the kernel merges the heap
// top with its own event queue in (time, seq) order and fires it there. The
// heap holds two kinds of flow:
//   * a flow in its latency phase, keyed at (start + path latency, seq) with
//     seq reserved at start_flow (des::Simulator::reserve_sequence), the
//     number an activation event scheduled there would have taken. Firing it
//     activates the flow;
//   * an active flow that drains (rate > 0) or has nothing left to drain,
//     keyed at due = now + max(remaining / rate, 1 tick) at the last rate
//     change (or now, if nothing is left). A rebalance reserves one sequence
//     number, and only if it keys some flow; every flow it keys shares it,
//     so flows keyed together tie-break by id, and the whole batch sits
//     against every other DES event exactly where completion events
//     scheduled at that moment would. Firing it finishes the flow (or, if
//     the rounded key fell a tick short of the last byte, re-keys it).
// A rate change re-keys the flow in place (a flow joining a class whose rate
// holds still counts: its own rate went from 0 to the class rate); a
// starved, cancelled or finished flow leaves the heap. Each firing handles
// exactly one flow, so the executed-event count is the same as with one DES
// event per activation and per completion, while a rebalance that re-rates
// a whole component costs heap sifts (or one O(n) heap rebuild, when it
// re-rates a large share of the heap) instead of a DES cancel + schedule per
// flow. The DES queue never holds a flow timer, so it stays the size of the
// other actors' timers. A simulator takes one timer source, so it has at
// most one Network; the destructor detaches it. check_invariants() audits
// the heap, the classes and the per-link lists.
//
// Everything is deterministic: rates and completion times do not depend on
// the order the walk finds classes in (only the summation order of the
// Link::bytes_carried statistic does, and the walk order is itself a function
// of the run's history), and flow timers follow the (due, seq, flow id) total
// order, which the kernel merges into its own (time, sequence) order. The
// flow table is hashed; the two places whose iteration order shows
// (cancel_flows_with_endpoint and kGlobalReference) sort by flow id.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "des/simulator.hpp"
#include "net/link.hpp"

namespace cloudburst::net {

class Network final : private des::TimerSource {
 public:
  /// Attaches the network to `sim` as its timer source; throws
  /// std::logic_error if `sim` already has one (one network per simulator).
  explicit Network(des::Simulator& sim) : sim_(sim) { sim_.attach_timers(*this); }
  ~Network() { sim_.detach_timers(*this); }
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

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

  /// Deterministic flow-solver work counters, cumulative over the run.
  struct Stats {
    std::uint64_t solves = 0;             ///< water-filling solves of a non-empty component
    std::uint64_t component_flows = 0;    ///< active flows, summed over solves
    std::uint64_t component_classes = 0;  ///< flow classes, summed over solves
    std::uint64_t filling_rounds = 0;     ///< water-filling rounds, summed over solves
    std::uint64_t rerated_flows = 0;      ///< flows whose rate a solve changed
    std::uint64_t replayed_steps = 0;     ///< settle steps replayed from class logs
  };
  const Stats& stats() const { return stats_; }

  /// Audit the solver state; throws std::logic_error naming the first
  /// violation. Checks that link bandwidths and flow rates are finite, that
  /// each link carries at most its effective bandwidth, that the per-link
  /// class lists, the class member lists, the class logs and their
  /// back-pointers agree, that exactly the latency-phase flows and the
  /// draining (or drained) active flows sit in the timer heap, that no timer
  /// is due before now, and that the heap is ordered and its back-pointers
  /// hold.
  void check_invariants() const;

  std::vector<LinkId> path(EndpointId src, EndpointId dst) const;
  des::SimDuration path_latency(EndpointId src, EndpointId dst) const;

  const Link& link(LinkId id) const { return links_.at(id); }
  SiteId site_of(EndpointId ep) const { return endpoints_.at(ep).site; }
  std::size_t link_count() const { return links_.size(); }

  /// Test hook (see "Scoped rebalancing" above): kGlobalReference recomputes
  /// every active class on each mutation instead of just the affected
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

  struct FlowClass;

  struct Flow {
    FlowId id;
    FlowClass* cls = nullptr;  ///< bound at start_flow: path, cap and rate
    double remaining;          ///< bytes still to drain, settled to last_update
    des::SimTime last_update = 0;
    std::uint32_t log_pos = 0;     ///< class log entries already applied
    std::uint32_t member_pos = 0;  ///< index in cls->members while active
    bool active = false;           ///< false during the latency phase
    des::SimTime due = 0;          ///< timer-heap key, valid while in the heap
    std::uint64_t due_seq = 0;     ///< tie-break: start_flow's or the keying rebalance's DES sequence
    std::uint32_t heap_pos = kNotInHeap;
    des::EventFn on_complete;
  };

  /// The active flows sharing one (src, dst, rate_cap) (see "Flow classes").
  struct FlowClass {
    EndpointId src = 0;
    EndpointId dst = 0;
    double rate_cap = 0.0;  ///< 0 = uncapped
    std::vector<LinkId> links;
    des::SimDuration latency = 0;  ///< sum of the path's link latencies
    double rate = 0.0;             ///< every active member's rate
    std::vector<Flow*> members;    ///< active members
    /// Walk times some member has not applied yet, all at the current rate.
    std::vector<des::SimTime> log;
    /// For each links[i]: this class's position in link_classes_[links[i]]
    /// while it has members (back-pointer for O(1) swap-remove).
    std::vector<std::uint32_t> link_pos;
    std::uint64_t visit_epoch = 0;  ///< component-walk visited stamp
    std::uint32_t refs = 0;         ///< bound flows, latency phase included
    bool stale = false;             ///< dropped by a topology setter
  };

  struct ClassKey {
    EndpointId src;
    EndpointId dst;
    std::uint64_t cap_bits;
    bool operator==(const ClassKey&) const = default;
  };
  struct ClassKeyHash {
    std::size_t operator()(const ClassKey& k) const;
  };

  /// One class registration on a link: the class plus which of its path
  /// slots this entry belongs to (paths may repeat a link).
  struct ClassRef {
    FlowClass* cls;
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

  /// Find or create the class for (src, dst, rate_cap) and bind one flow to
  /// it; release_class unbinds one. Throws if there is no route.
  FlowClass& bind_class(EndpointId src, EndpointId dst, double rate_cap);
  void release_class(FlowClass& cls);
  /// Forget every class (their paths may change); bound ones live on, stale.
  void drop_classes();

  /// Add an activated flow to its class's members / take it out again. A
  /// class enters the link lists with its first member and leaves with its
  /// last.
  void join_class(Flow& flow);
  void leave_class(Flow& flow);

  /// Walk the connected component (active classes <-> links) holding the
  /// active flow `seed` (or, if null, crossing `seed_link`) into
  /// comp_classes_, the seed's class first. Each class reached logs the walk
  /// (or, with one member, settles it) and counts its members on its links
  /// (water_[l].count); the component's links go to water_links_.
  void collect_component(Flow* seed, LinkId seed_link = 0);
  /// Stamp `l` into the current epoch, resetting its water-filling scratch
  /// and listing it in water_links_. False if already stamped.
  bool stamp_link(LinkId l);
  void visit_class(FlowClass& cls, des::SimTime now);
  /// Take the departing, settled seed flow out of its class, its counts off
  /// the walked links and, if that empties the class, the class out of
  /// comp_classes_.
  void leave_component(Flow& flow);

  /// Apply the class log entries `flow` has not applied yet; returns the
  /// bytes moved (for Link::bytes_carried). settle also steps to `now`;
  /// catch_up replays every member and empties the log. All three must run
  /// before the class rate changes.
  double replay(Flow& flow);
  void settle(Flow& flow, des::SimTime now);
  void catch_up(FlowClass& cls);
  void carry(const FlowClass& cls, double bytes);

  /// Max-min fair rates for `comp`, counted on water_ by the walk (in
  /// kGlobalReference mode the argument is replaced by all active classes
  /// and recounted); re-keys the completions of flows whose rate changed.
  /// `joined` is the flow whose activation caused the solve, if any.
  void recompute_rates(std::vector<FlowClass*>& comp, Flow* joined = nullptr);

  /// Timer heap: key an active flow at its projected finish from its
  /// current rate and remaining bytes (or drop it if starved); remove a flow.
  /// `seq` is the keying's DES sequence number, reserved on first use. With
  /// sift = false the heap order is left for the caller to rebuild.
  void key_completion(Flow& flow, std::optional<std::uint64_t>& seq, bool sift = true);
  void heap_insert(Flow& flow, bool sift = true);
  void heap_remove(Flow& flow, bool sift = true);
  void sift_up(std::uint32_t pos);
  void sift_down(std::uint32_t pos);
  /// Heap order: (due, due_seq, id).
  static bool due_before(const Flow& a, const Flow& b);

  // des::TimerSource: the heap top, fired by the kernel in its own order.
  bool next_timer(Key& key) const override;
  void fire_next_timer() override;
  std::size_t pending_timers() const override { return heap_.size(); }

  void activate_flow(Flow& flow);
  void finish_flow(Flow& flow);

  des::Simulator& sim_;
  std::vector<std::string> sites_;
  std::vector<Link> links_;
  std::vector<Endpoint> endpoints_;
  std::map<std::pair<SiteId, SiteId>, std::vector<LinkId>> routes_;
  std::unordered_map<FlowId, Flow> flows_;  // iteration order unused; sort by id
  FlowId next_flow_id_ = 0;

  std::unordered_map<ClassKey, std::unique_ptr<FlowClass>, ClassKeyHash> classes_;
  std::vector<std::unique_ptr<FlowClass>> stale_classes_;  ///< bound, dropped

  std::vector<Flow*> heap_;  ///< flow-timer min-heap on (due, due_seq, id)

  RebalanceMode rebalance_mode_ = RebalanceMode::kScoped;
  Stats stats_;

  std::vector<std::vector<ClassRef>> link_classes_;  // parallel to links_
  std::vector<LinkWater> water_;                     // parallel to links_
  std::uint64_t epoch_ = 0;  ///< component-walk stamp (classes and water_)

  // Scratch buffers reused across mutations (never live across a callback).
  std::vector<FlowClass*> comp_classes_;
  std::vector<LinkId> water_links_;
  std::vector<LinkId> bfs_stack_;
  std::vector<FlowClass*> unfrozen_;
  std::vector<FlowClass*> still_;
  std::vector<FlowClass*> frozen_;  ///< classes frozen in the current round
  std::vector<Flow*> changed_;      ///< flows whose rate the last solve moved
};

}  // namespace cloudburst::net
