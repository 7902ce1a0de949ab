#include "net/network.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>

#include "common/logging.hpp"

namespace cloudburst::net {

namespace {
// Residual bytes below this count as "delivered" — absorbs double rounding
// from settling at recomputed rates.
constexpr double kByteEpsilon = 1e-6;
// Rate given to flows with an empty path and no cap (loopback transfers):
// effectively instantaneous.
constexpr double kInfiniteRate = 1e18;
// Walk times a class log holds before every member catches up: bounds the
// log (and a replay) without making members settle on every walk.
constexpr std::size_t kMaxLog = 32;

// One settle step: drain at `rate` from `last` to `t`. Returns the bytes
// moved.
double settle_step(double rate, des::SimTime t, double& remaining, des::SimTime& last) {
  const double dt = des::to_seconds(t - last);
  double moved = 0.0;
  if (dt > 0.0 && rate > 0.0) {
    moved = std::min(remaining, rate * dt);
    remaining -= moved;
  }
  last = t;
  return moved;
}
}  // namespace

SiteId Network::add_site(std::string name) {
  sites_.push_back(std::move(name));
  return static_cast<SiteId>(sites_.size() - 1);
}

LinkId Network::add_link(std::string name, double bandwidth_bytes_per_sec,
                         des::SimDuration latency) {
  if (!std::isfinite(bandwidth_bytes_per_sec) || bandwidth_bytes_per_sec <= 0.0) {
    throw std::invalid_argument("link bandwidth must be positive and finite: " + name);
  }
  if (latency < 0) throw std::invalid_argument("link latency must be >= 0: " + name);
  links_.push_back(Link{std::move(name), bandwidth_bytes_per_sec, latency, 0});
  link_classes_.emplace_back();
  water_.emplace_back();
  return static_cast<LinkId>(links_.size() - 1);
}

EndpointId Network::add_endpoint(std::string name, SiteId site) {
  if (site >= sites_.size()) throw std::out_of_range("unknown site for endpoint " + name);
  endpoints_.push_back(Endpoint{std::move(name), site, {}});
  return static_cast<EndpointId>(endpoints_.size() - 1);
}

void Network::set_access_path(EndpointId ep, std::vector<LinkId> links) {
  endpoints_.at(ep).access = std::move(links);
  drop_classes();
}

void Network::set_route(SiteId from, SiteId to, std::vector<LinkId> links) {
  routes_[{from, to}] = std::move(links);
  drop_classes();
}

void Network::set_route_symmetric(SiteId a, SiteId b, std::vector<LinkId> links) {
  drop_classes();
  routes_[{a, b}] = links;
  std::reverse(links.begin(), links.end());
  routes_[{b, a}] = std::move(links);
}

std::vector<LinkId> Network::path(EndpointId src, EndpointId dst) const {
  if (src == dst) return {};  // loopback: no links, no latency
  const Endpoint& s = endpoints_.at(src);
  const Endpoint& d = endpoints_.at(dst);
  std::vector<LinkId> p = s.access;
  if (s.site != d.site) {
    const auto it = routes_.find({s.site, d.site});
    if (it == routes_.end()) {
      throw std::runtime_error("no route from site " + sites_.at(s.site) + " to " +
                               sites_.at(d.site));
    }
    p.insert(p.end(), it->second.begin(), it->second.end());
  }
  p.insert(p.end(), d.access.rbegin(), d.access.rend());
  return p;
}

des::SimDuration Network::path_latency(EndpointId src, EndpointId dst) const {
  des::SimDuration total = 0;
  for (LinkId l : path(src, dst)) total += links_.at(l).latency;
  return total;
}

FlowId Network::start_flow(EndpointId src, EndpointId dst, std::uint64_t bytes,
                           double rate_cap, des::EventFn on_complete) {
  if (!std::isfinite(rate_cap) || rate_cap < 0.0) {
    throw std::invalid_argument("flow rate cap must be finite and >= 0");
  }
  FlowClass& cls = bind_class(src, dst, rate_cap);
  const FlowId id = next_flow_id_++;
  Flow flow;
  flow.id = id;
  flow.cls = &cls;
  flow.remaining = static_cast<double>(bytes);
  flow.on_complete = std::move(on_complete);
  flow.last_update = sim_.now();
  // The latency-phase timer: where an activation event scheduled now would
  // fire (see "Flow timers").
  flow.due = flow.last_update + cls.latency;
  flow.due_seq = sim_.reserve_sequence();
  heap_insert(flows_.emplace(id, std::move(flow)).first->second);
  return id;
}

// --- flow classes ------------------------------------------------------------

std::size_t Network::ClassKeyHash::operator()(const ClassKey& k) const {
  std::uint64_t h = (static_cast<std::uint64_t>(k.src) << 32) | k.dst;
  h ^= k.cap_bits + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return std::hash<std::uint64_t>{}(h);
}

Network::FlowClass& Network::bind_class(EndpointId src, EndpointId dst, double rate_cap) {
  const double cap = rate_cap + 0.0;  // -0.0 and 0.0 both mean uncapped
  ClassKey key{src, dst, std::bit_cast<std::uint64_t>(cap)};
  auto it = classes_.find(key);
  if (it == classes_.end()) {
    auto cls = std::make_unique<FlowClass>();
    cls->src = src;
    cls->dst = dst;
    cls->rate_cap = cap;
    cls->links = path(src, dst);
    for (LinkId l : cls->links) cls->latency += links_.at(l).latency;
    cls->link_pos.resize(cls->links.size());
    it = classes_.emplace(key, std::move(cls)).first;
  }
  FlowClass& cls = *it->second;
  ++cls.refs;
  return cls;
}

void Network::release_class(FlowClass& cls) {
  if (--cls.refs > 0 || !cls.stale) return;  // unstale classes wait for reuse
  const auto it = std::find_if(stale_classes_.begin(), stale_classes_.end(),
                               [&cls](const auto& c) { return c.get() == &cls; });
  stale_classes_.erase(it);
}

void Network::drop_classes() {
  for (auto& [key, cls] : classes_) {
    if (cls->refs == 0) continue;
    cls->stale = true;
    stale_classes_.push_back(std::move(cls));
  }
  classes_.clear();
}

void Network::join_class(Flow& flow) {
  FlowClass& cls = *flow.cls;
  if (cls.members.empty()) {
    for (std::size_t i = 0; i < cls.links.size(); ++i) {
      auto& list = link_classes_[cls.links[i]];
      cls.link_pos[i] = static_cast<std::uint32_t>(list.size());
      list.push_back(ClassRef{&cls, static_cast<std::uint32_t>(i)});
    }
  }
  flow.member_pos = static_cast<std::uint32_t>(cls.members.size());
  flow.log_pos = static_cast<std::uint32_t>(cls.log.size());
  cls.members.push_back(&flow);
}

void Network::leave_class(Flow& flow) {
  FlowClass& cls = *flow.cls;
  Flow* moved = cls.members.back();
  cls.members[flow.member_pos] = moved;
  moved->member_pos = flow.member_pos;
  cls.members.pop_back();
  if (!cls.members.empty()) return;
  // Empty: off the links, with no rate and no log, until a flow rejoins.
  cls.log.clear();
  cls.rate = 0.0;
  for (std::size_t i = 0; i < cls.links.size(); ++i) {
    auto& list = link_classes_[cls.links[i]];
    const std::uint32_t pos = cls.link_pos[i];
    const ClassRef last = list.back();
    list[pos] = last;
    list.pop_back();
    if (last.cls != &cls) {
      last.cls->link_pos[last.slot] = pos;
    } else if (last.slot != i) {
      cls.link_pos[last.slot] = pos;  // path crosses this link twice
    }
  }
}

// --- component walk and settle replay ----------------------------------------

bool Network::stamp_link(LinkId l) {
  LinkWater& w = water_[l];
  if (w.epoch == epoch_) return false;
  w.committed = 0.0;
  w.count = 0;
  w.epoch = epoch_;
  water_links_.push_back(l);
  return true;
}

void Network::visit_class(FlowClass& cls, des::SimTime now) {
  if (cls.visit_epoch == epoch_) return;
  cls.visit_epoch = epoch_;
  if (cls.members.size() == 1) {
    Flow& lone = *cls.members.front();
    settle(lone, now);
    cls.log.clear();
    lone.log_pos = 0;
  } else if (cls.log.empty() || cls.log.back() != now) {
    if (cls.log.size() == kMaxLog) catch_up(cls);
    cls.log.push_back(now);
  }
  comp_classes_.push_back(&cls);
  const auto members = static_cast<std::uint32_t>(cls.members.size());
  for (LinkId l : cls.links) {
    if (stamp_link(l)) bfs_stack_.push_back(l);
    water_[l].count += members;  // a path crossing a link twice contends twice
  }
}

void Network::collect_component(Flow* seed, LinkId seed_link) {
  ++epoch_;
  comp_classes_.clear();
  water_links_.clear();
  bfs_stack_.clear();
  const des::SimTime now = sim_.now();
  if (seed == nullptr) {
    stamp_link(seed_link);
    bfs_stack_.push_back(seed_link);
  } else if (seed->cls->links.empty()) {
    // A loopback flow is its own component: its classmates share no link
    // with it, so the walk settles the seed alone.
    seed->cls->visit_epoch = epoch_;
    settle(*seed, now);
    comp_classes_.push_back(seed->cls);
  } else {
    visit_class(*seed->cls, now);
  }
  while (!bfs_stack_.empty()) {
    const LinkId l = bfs_stack_.back();
    bfs_stack_.pop_back();
    for (const ClassRef& ref : link_classes_[l]) visit_class(*ref.cls, now);
  }
}

void Network::leave_component(Flow& flow) {
  FlowClass& cls = *flow.cls;
  for (LinkId l : cls.links) --water_[l].count;
  leave_class(flow);
  // A loopback class left with members is not part of this component.
  if (cls.members.empty() || cls.links.empty()) {
    comp_classes_.front() = comp_classes_.back();  // the seed's class
    comp_classes_.pop_back();
  }
}

double Network::replay(Flow& flow) {
  const FlowClass& cls = *flow.cls;
  double moved = 0.0;
  const auto end = static_cast<std::uint32_t>(cls.log.size());
  for (std::uint32_t i = flow.log_pos; i < end; ++i) {
    moved += settle_step(cls.rate, cls.log[i], flow.remaining, flow.last_update);
  }
  stats_.replayed_steps += end - flow.log_pos;
  flow.log_pos = end;
  return moved;
}

void Network::settle(Flow& flow, des::SimTime now) {
  double moved = replay(flow);
  moved += settle_step(flow.cls->rate, now, flow.remaining, flow.last_update);
  carry(*flow.cls, moved);
}

void Network::catch_up(FlowClass& cls) {
  double moved = 0.0;
  for (Flow* member : cls.members) {
    moved += replay(*member);
    member->log_pos = 0;
  }
  cls.log.clear();
  carry(cls, moved);
}

void Network::carry(const FlowClass& cls, double bytes) {
  if (bytes <= 0.0) return;
  for (LinkId l : cls.links) links_[l].bytes_carried += bytes;
}

void Network::recompute_rates(std::vector<FlowClass*>& comp, Flow* joined) {
  if (rebalance_mode_ == RebalanceMode::kGlobalReference) {
    // Reference mode: recompute everything, classes in flow-id order. The
    // solver below is a pure function of each connected component, so this
    // must reproduce the scoped result bit-for-bit (see header).
    ++epoch_;
    water_links_.clear();
    comp.clear();
    std::vector<const Flow*> active;
    for (const auto& [id, flow] : flows_) {
      if (flow.active) active.push_back(&flow);
    }
    std::sort(active.begin(), active.end(),
              [](const Flow* a, const Flow* b) { return a->id < b->id; });
    for (const Flow* flow : active) {
      FlowClass& cls = *flow->cls;
      if (cls.visit_epoch == epoch_) continue;
      cls.visit_epoch = epoch_;
      comp.push_back(&cls);
      for (LinkId l : cls.links) {
        stamp_link(l);
        water_[l].count += static_cast<std::uint32_t>(cls.members.size());
      }
    }
  }
  if (comp.empty()) return;
  ++stats_.solves;
  stats_.component_classes += comp.size();
  for (const FlowClass* cls : comp) stats_.component_flows += cls->members.size();

  // Freeze-event water-filling over the counts the walk left in water_. All
  // unfrozen flows share one rising level r; link l saturates at level
  // (bandwidth - committed) / count. Each round jumps r straight to the
  // smallest binding constraint (a link saturation level or a flow cap) and
  // freezes every class pinned there, so each round freezes at least one
  // class and rates come out of a single division per link instead of
  // O(rounds) incremental passes. Class order does not matter (see header).
  changed_.clear();
  const auto set_rate = [this, joined](FlowClass* cls, double rate) {
    if (cls->rate == rate) {
      // Only a member that just joined moves, from 0 to the class rate.
      if (joined != nullptr && joined->cls == cls && rate != 0.0) changed_.push_back(joined);
      return;
    }
    catch_up(*cls);  // settle every member at the old rate first
    cls->rate = rate;
    for (Flow* member : cls->members) {
      if (member != joined || rate != 0.0) changed_.push_back(member);
    }
  };
  unfrozen_ = comp;
  while (!unfrozen_.empty()) {
    ++stats_.filling_rounds;
    double r = std::numeric_limits<double>::infinity();
    for (LinkId l : water_links_) {
      LinkWater& w = water_[l];
      if (w.count == 0) continue;
      w.level = std::max(
          (links_[l].effective_bandwidth() - w.committed) / static_cast<double>(w.count),
          0.0);
      r = std::min(r, w.level);
    }
    for (const FlowClass* cls : unfrozen_) {
      if (cls->rate_cap > 0.0) r = std::min(r, cls->rate_cap);
    }
    if (!std::isfinite(r)) {
      // Only link-less, uncapped flows remain (loopback): infinitely fast.
      for (FlowClass* cls : unfrozen_) set_rate(cls, kInfiniteRate);
      break;
    }

    still_.clear();
    frozen_.clear();
    for (FlowClass* cls : unfrozen_) {
      bool frozen = cls->rate_cap > 0.0 && cls->rate_cap <= r;
      if (!frozen) {
        for (LinkId l : cls->links) {
          // level is this round's snapshot; it equals r exactly when this
          // link is the binding constraint (both came out of the same min).
          if (water_[l].level <= r) {
            frozen = true;
            break;
          }
        }
      }
      if (frozen) {
        set_rate(cls, r);
        frozen_.push_back(cls);
      } else {
        still_.push_back(cls);
      }
    }
    if (frozen_.empty()) {
      // Unreachable by construction (r always binds some class); freeze the
      // rest at the current level rather than loop forever.
      for (FlowClass* cls : unfrozen_) set_rate(cls, r);
      break;
    }
    if (still_.empty()) break;
    // Commit the frozen members for the next round's levels: r once per
    // member, in sequence, as the per-flow solver added it.
    for (const FlowClass* cls : frozen_) {
      const auto members = static_cast<std::uint32_t>(cls->members.size());
      for (LinkId l : cls->links) {
        LinkWater& w = water_[l];
        for (std::uint32_t i = 0; i < members; ++i) w.committed += r;
        w.count -= members;
      }
    }
    unfrozen_.swap(still_);
  }
  stats_.rerated_flows += changed_.size();

  // Re-key completions, but only where the rate actually changed: an
  // unchanged rate means the keyed completion time is still correct, and
  // skipping the re-key is where the scoped rebalance saves most of its work.
  // Re-keying k flows one sift at a time costs O(k log n); when a component
  // re-rates a large share of the heap, re-key in place and rebuild it in
  // O(n) instead. Keys are unique, so both leave the same flow on top.
  const bool rebuild = changed_.size() * std::bit_width(heap_.size()) > heap_.size();
  std::optional<std::uint64_t> seq;
  for (Flow* flow : changed_) key_completion(*flow, seq, /*sift=*/!rebuild);
  if (rebuild) {
    for (std::size_t pos = heap_.size() / 2; pos-- > 0;) {
      sift_down(static_cast<std::uint32_t>(pos));
    }
  }
}

// --- flow timers ---------------------------------------------------------

bool Network::due_before(const Flow& a, const Flow& b) {
  if (a.due != b.due) return a.due < b.due;
  if (a.due_seq != b.due_seq) return a.due_seq < b.due_seq;
  return a.id < b.id;
}

void Network::key_completion(Flow& flow, std::optional<std::uint64_t>& seq, bool sift) {
  const des::SimTime now = sim_.now();
  if (flow.remaining <= kByteEpsilon) {
    flow.due = now;
  } else if (flow.cls->rate > 0.0) {
    const double secs = flow.remaining / flow.cls->rate;
    flow.due = now + std::max<des::SimDuration>(des::from_seconds(secs), 1);
  } else {
    // Fully starved: no completion until a rebalance frees capacity.
    heap_remove(flow, sift);
    return;
  }
  // Flows keyed in one rebalance share one sequence number and tie-break by
  // id: the order the kernel would give completion events scheduled right
  // now in id order, since nothing else can take a sequence in between.
  if (!seq) seq = sim_.reserve_sequence();
  flow.due_seq = *seq;
  if (flow.heap_pos == kNotInHeap) {
    heap_insert(flow, sift);
  } else if (sift) {
    sift_up(flow.heap_pos);
    sift_down(flow.heap_pos);
  }
}

void Network::heap_insert(Flow& flow, bool sift) {
  flow.heap_pos = static_cast<std::uint32_t>(heap_.size());
  heap_.push_back(&flow);
  if (sift) sift_up(flow.heap_pos);
}

void Network::heap_remove(Flow& flow, bool sift) {
  const std::uint32_t pos = flow.heap_pos;
  if (pos == kNotInHeap) return;
  flow.heap_pos = kNotInHeap;
  Flow* last = heap_.back();
  heap_.pop_back();
  if (last == &flow) return;
  heap_[pos] = last;
  last->heap_pos = pos;
  if (sift) {
    sift_up(pos);
    sift_down(last->heap_pos);
  }
}

void Network::sift_up(std::uint32_t pos) {
  Flow* flow = heap_[pos];
  while (pos > 0) {
    const std::uint32_t parent = (pos - 1) / 2;
    Flow* p = heap_[parent];
    if (!due_before(*flow, *p)) break;
    heap_[pos] = p;
    p->heap_pos = pos;
    pos = parent;
  }
  heap_[pos] = flow;
  flow->heap_pos = pos;
}

void Network::sift_down(std::uint32_t pos) {
  Flow* flow = heap_[pos];
  const auto n = static_cast<std::uint32_t>(heap_.size());
  while (true) {
    std::uint32_t child = 2 * pos + 1;
    if (child >= n) break;
    Flow* c = heap_[child];
    if (child + 1 < n) {
      Flow* r = heap_[child + 1];
      if (due_before(*r, *c)) {
        ++child;
        c = r;
      }
    }
    if (!due_before(*c, *flow)) break;
    heap_[pos] = c;
    c->heap_pos = pos;
    pos = child;
  }
  heap_[pos] = flow;
  flow->heap_pos = pos;
}

bool Network::next_timer(Key& key) const {
  if (heap_.empty()) return false;
  key = Key{heap_.front()->due, heap_.front()->due_seq};
  return true;
}

void Network::fire_next_timer() {
  Flow& flow = *heap_.front();
  if (flow.active) {
    finish_flow(flow);
  } else {
    activate_flow(flow);
  }
}

void Network::activate_flow(Flow& flow) {
  heap_remove(flow);
  flow.active = true;
  flow.last_update = sim_.now();
  join_class(flow);
  collect_component(&flow);
  if (flow.remaining <= kByteEpsilon) {
    finish_flow(flow);
    return;
  }
  recompute_rates(comp_classes_, &flow);
}

double Network::cancel_flow(FlowId id) {
  const auto it = flows_.find(id);
  if (it == flows_.end()) return 0.0;
  Flow& flow = it->second;
  if (!flow.active) {
    // Latency phase: the flow never held bandwidth, nothing to rebalance.
    const double unmoved = flow.remaining;
    heap_remove(flow);
    release_class(*flow.cls);
    flows_.erase(it);
    return unmoved;
  }
  collect_component(&flow);
  carry(*flow.cls, replay(flow));
  const double unmoved = flow.remaining;
  heap_remove(flow);
  leave_component(flow);
  release_class(*flow.cls);
  flows_.erase(it);
  recompute_rates(comp_classes_);
  return unmoved;
}

std::size_t Network::cancel_flows_with_endpoint(EndpointId ep) {
  // Collect first: cancel_flow mutates flows_, and each cancellation settles
  // and rebalances its own component, so the per-link class lists stay
  // consistent throughout. Cancelling in id order keeps teardown
  // deterministic.
  std::vector<FlowId> doomed;
  for (const auto& [id, flow] : flows_) {
    if (flow.cls->src == ep || flow.cls->dst == ep) doomed.push_back(id);
  }
  std::sort(doomed.begin(), doomed.end());
  for (FlowId id : doomed) cancel_flow(id);
  return doomed.size();
}

void Network::set_link_capacity_factor(LinkId id, double factor) {
  if (!std::isfinite(factor) || factor < 0.0) {
    throw std::invalid_argument("link capacity factor must be finite and >= 0");
  }
  Link& link = links_.at(id);
  if (link.capacity_factor == factor) return;
  // Settle the affected component at the old rates before the capacity
  // changes, then recompute. A factor of 0 starves crossing flows to rate 0:
  // they leave the timer heap and stall until a later rebalance (e.g.
  // restoring the link) frees capacity.
  collect_component(nullptr, id);
  link.capacity_factor = factor;
  recompute_rates(comp_classes_);
}

double Network::flow_rate(FlowId id) const {
  const auto it = flows_.find(id);
  return it == flows_.end() || !it->second.active ? 0.0 : it->second.cls->rate;
}

double Network::flow_remaining(FlowId id) const {
  const auto it = flows_.find(id);
  if (it == flows_.end()) return 0.0;
  // Replay the class log on a copy: the bytes as of the last walk.
  const Flow& flow = it->second;
  double remaining = flow.remaining;
  if (flow.active) {
    des::SimTime last = flow.last_update;
    const std::vector<des::SimTime>& log = flow.cls->log;
    for (std::size_t i = flow.log_pos; i < log.size(); ++i) {
      settle_step(flow.cls->rate, log[i], remaining, last);
    }
  }
  return remaining;
}

void Network::check_invariants() const {
  const auto fail = [](const std::string& what) {
    throw std::logic_error("Network invariant violated: " + what);
  };
  // Link capacity, and the per-link lists against the classes' back-pointers.
  std::size_t refs = 0;
  for (std::size_t l = 0; l < links_.size(); ++l) {
    if (!std::isfinite(links_[l].effective_bandwidth())) {
      fail("link " + links_[l].name + " has a non-finite bandwidth");
    }
    const auto& list = link_classes_[l];
    refs += list.size();
    double sum = 0.0;
    for (std::size_t pos = 0; pos < list.size(); ++pos) {
      const ClassRef& ref = list[pos];
      const FlowClass& cls = *ref.cls;
      if (cls.members.empty()) {
        fail("link " + links_[l].name + " lists a class with no active flow");
      }
      if (ref.slot >= cls.links.size() || cls.links[ref.slot] != l ||
          cls.link_pos[ref.slot] != pos) {
        fail("link " + links_[l].name + " entry disagrees with its class's link_pos");
      }
      sum += cls.rate * static_cast<double>(cls.members.size());
    }
    const double cap = links_[l].effective_bandwidth();
    if (sum > cap * (1.0 + 1e-9)) {
      fail("link " + links_[l].name + " carries " + std::to_string(sum) +
           " B/s over its " + std::to_string(cap));
    }
  }
  // Classes: members, logs and bindings.
  std::size_t expected_refs = 0;
  std::size_t members = 0;
  std::size_t bound = 0;
  const auto audit_class = [&](const FlowClass& cls) {
    if (!std::isfinite(cls.rate)) fail("a flow class has a non-finite rate");
    if (cls.log.size() > kMaxLog || (cls.members.empty() && !cls.log.empty())) {
      fail("a flow class log is longer than its bound or outlives its members");
    }
    if (!cls.members.empty()) expected_refs += cls.links.size();
    members += cls.members.size();
    bound += cls.refs;
    for (std::size_t i = 0; i < cls.members.size(); ++i) {
      const Flow& flow = *cls.members[i];
      const auto it = flows_.find(flow.id);
      if (it == flows_.end() || &it->second != &flow || !flow.active ||
          flow.cls != &cls || flow.member_pos != i || flow.log_pos > cls.log.size()) {
        fail("flow class member " + std::to_string(flow.id) + " disagrees with its class");
      }
    }
  };
  for (const auto& [key, cls] : classes_) audit_class(*cls);
  for (const auto& cls : stale_classes_) audit_class(*cls);
  if (refs != expected_refs) fail("link lists and active class paths differ in size");
  if (bound != flows_.size()) fail("class bindings and flows differ in number");
  // Timer heap membership: exactly the latency-phase flows and the active
  // flows that drain or have drained.
  std::size_t active = 0;
  std::size_t keyed = 0;
  for (const auto& [id, flow] : flows_) {
    active += flow.active;
    const bool should_key = !flow.active || flow.cls->rate > 0.0 ||
                            flow_remaining(id) <= kByteEpsilon;
    const bool in_heap = flow.heap_pos != kNotInHeap;
    if (in_heap && (flow.heap_pos >= heap_.size() || heap_[flow.heap_pos] != &flow)) {
      fail("flow " + std::to_string(id) + " heap_pos does not point back at it");
    }
    if (should_key != in_heap) {
      fail("flow " + std::to_string(id) + (in_heap ? " is starved but in"
                                                    : " has a timer but is missing from") +
           " the timer heap");
    }
    if (in_heap && flow.due < sim_.now()) {
      fail("flow " + std::to_string(id) + " has a timer due before now");
    }
    keyed += in_heap;
  }
  if (members != active) fail("class members and active flows differ in number");
  if (keyed != heap_.size()) fail("timer heap holds flows that are gone");
  for (std::size_t pos = 1; pos < heap_.size(); ++pos) {
    const Flow* child = heap_[pos];
    const Flow* parent = heap_[(pos - 1) / 2];
    if (due_before(*child, *parent)) {
      fail("timer heap order broken at position " + std::to_string(pos));
    }
  }
}

void Network::finish_flow(Flow& flow) {
  collect_component(&flow);
  carry(*flow.cls, replay(flow));
  if (flow.remaining > kByteEpsilon) {
    // The keyed finish rounded to a tick short of the last byte: re-estimate
    // from the settled remainder.
    std::optional<std::uint64_t> seq;
    key_completion(flow, seq);
    return;
  }
  auto callback = std::move(flow.on_complete);
  heap_remove(flow);
  leave_component(flow);
  release_class(*flow.cls);
  flows_.erase(flow.id);
  recompute_rates(comp_classes_);
  if (callback) callback();
}

}  // namespace cloudburst::net
