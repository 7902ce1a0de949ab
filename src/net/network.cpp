#include "net/network.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
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
  link_active_.emplace_back();
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
}

void Network::set_route(SiteId from, SiteId to, std::vector<LinkId> links) {
  routes_[{from, to}] = std::move(links);
}

void Network::set_route_symmetric(SiteId a, SiteId b, std::vector<LinkId> links) {
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
  const FlowId id = next_flow_id_++;
  Flow flow;
  flow.id = id;
  flow.src = src;
  flow.dst = dst;
  flow.links = path(src, dst);
  flow.remaining = static_cast<double>(bytes);
  flow.rate_cap = rate_cap;
  flow.on_complete = std::move(on_complete);
  flow.last_update = sim_.now();

  const des::SimDuration latency = path_latency(src, dst);
  auto [it, inserted] = flows_.emplace(id, std::move(flow));
  (void)inserted;
  it->second.activation = sim_.schedule(latency, [this, id] { activate_flow(id); });
  return id;
}

void Network::attach_to_links(Flow& flow) {
  flow.link_pos.resize(flow.links.size());
  for (std::size_t i = 0; i < flow.links.size(); ++i) {
    auto& list = link_active_[flow.links[i]];
    flow.link_pos[i] = static_cast<std::uint32_t>(list.size());
    list.push_back(ActiveRef{&flow, static_cast<std::uint32_t>(i)});
  }
}

void Network::detach_from_links(Flow& flow) {
  for (std::size_t i = 0; i < flow.links.size(); ++i) {
    auto& list = link_active_[flow.links[i]];
    const std::uint32_t pos = flow.link_pos[i];
    const ActiveRef moved = list.back();
    list[pos] = moved;
    list.pop_back();
    if (moved.flow != &flow) {
      moved.flow->link_pos[moved.slot] = pos;
    } else if (moved.slot != i) {
      flow.link_pos[moved.slot] = pos;  // path crosses this link twice
    }
  }
}

bool Network::stamp_link(LinkId l) {
  LinkWater& w = water_[l];
  if (w.epoch == epoch_) return false;
  w.committed = 0.0;
  w.count = 0;
  w.epoch = epoch_;
  water_links_.push_back(l);
  return true;
}

void Network::visit_flow(Flow& flow, des::SimTime now) {
  if (flow.visit_epoch == epoch_) return;
  flow.visit_epoch = epoch_;
  settle(flow, now);
  comp_flows_.push_back(&flow);
  for (LinkId l : flow.links) {
    if (stamp_link(l)) bfs_stack_.push_back(l);
    ++water_[l].count;  // a path crossing a link twice contends twice
  }
}

void Network::collect_component(Flow* seed, LinkId seed_link) {
  ++epoch_;
  comp_flows_.clear();
  water_links_.clear();
  bfs_stack_.clear();
  const des::SimTime now = sim_.now();
  if (seed != nullptr) {
    visit_flow(*seed, now);  // a loopback seed is its own component
  } else {
    stamp_link(seed_link);
    bfs_stack_.push_back(seed_link);
  }
  while (!bfs_stack_.empty()) {
    const LinkId l = bfs_stack_.back();
    bfs_stack_.pop_back();
    for (const ActiveRef& ref : link_active_[l]) visit_flow(*ref.flow, now);
  }
}

void Network::drop_seed_from_component() {
  const Flow& flow = *comp_flows_.front();
  for (LinkId l : flow.links) --water_[l].count;
  comp_flows_.front() = comp_flows_.back();
  comp_flows_.pop_back();
}

void Network::settle(Flow& flow, des::SimTime now) {
  const double dt = des::to_seconds(now - flow.last_update);
  if (dt > 0.0 && flow.rate > 0.0) {
    const double moved = std::min(flow.remaining, flow.rate * dt);
    flow.remaining -= moved;
    for (LinkId l : flow.links) {
      links_[l].bytes_carried += moved;
    }
  }
  flow.last_update = now;
}

void Network::recompute_rates(std::vector<Flow*>& comp) {
  if (rebalance_mode_ == RebalanceMode::kGlobalReference) {
    // Reference mode: recompute everything. The solver below is a pure
    // function of each connected component, so this must reproduce the
    // scoped result bit-for-bit (see header).
    ++epoch_;
    water_links_.clear();
    comp.clear();
    for (auto& [id, flow] : flows_) {
      if (!flow.active) continue;
      comp.push_back(&flow);
      for (LinkId l : flow.links) {
        stamp_link(l);
        ++water_[l].count;
      }
    }
  }
  if (comp.empty()) return;

  // Freeze-event water-filling over the counts the walk left in water_. All
  // unfrozen flows share one rising level r; link l saturates at level
  // (bandwidth - committed) / count. Each round jumps r straight to the
  // smallest binding constraint (a link saturation level or a flow cap) and
  // freezes every flow pinned there, so each round freezes at least one flow
  // and rates come out of a single division per link instead of O(rounds)
  // incremental passes. Flow order does not matter (see header).
  changed_.clear();
  const auto set_rate = [this](Flow* flow, double rate) {
    if (flow->rate == rate) return;
    flow->rate = rate;
    changed_.push_back(flow);
  };
  unfrozen_ = comp;
  while (!unfrozen_.empty()) {
    double r = std::numeric_limits<double>::infinity();
    for (LinkId l : water_links_) {
      LinkWater& w = water_[l];
      if (w.count == 0) continue;
      w.level = std::max(
          (links_[l].effective_bandwidth() - w.committed) / static_cast<double>(w.count),
          0.0);
      r = std::min(r, w.level);
    }
    for (const Flow* flow : unfrozen_) {
      if (flow->rate_cap > 0.0) r = std::min(r, flow->rate_cap);
    }
    if (!std::isfinite(r)) {
      // Only link-less, uncapped flows remain (loopback): infinitely fast.
      for (Flow* flow : unfrozen_) set_rate(flow, kInfiniteRate);
      break;
    }

    still_.clear();
    bool froze = false;
    for (Flow* flow : unfrozen_) {
      bool frozen = flow->rate_cap > 0.0 && flow->rate_cap <= r;
      if (!frozen) {
        for (LinkId l : flow->links) {
          const LinkWater& w = water_[l];
          // level is this round's snapshot; it equals r exactly when this
          // link is the binding constraint (both came out of the same min).
          if (w.level <= r) {
            frozen = true;
            break;
          }
        }
      }
      if (frozen) {
        set_rate(flow, r);
        froze = true;
        for (LinkId l : flow->links) {
          LinkWater& w = water_[l];
          w.committed += r;
          --w.count;
        }
      } else {
        still_.push_back(flow);
      }
    }
    if (!froze) {
      // Unreachable by construction (r always binds some flow); freeze the
      // rest at the current level rather than loop forever.
      for (Flow* flow : unfrozen_) set_rate(flow, r);
      break;
    }
    unfrozen_.swap(still_);
  }

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

// --- completion heap ---------------------------------------------------------

bool Network::due_before(const Flow& a, const Flow& b) {
  if (a.due != b.due) return a.due < b.due;
  if (a.due_seq != b.due_seq) return a.due_seq < b.due_seq;
  return a.id < b.id;
}

void Network::key_completion(Flow& flow, std::optional<std::uint64_t>& seq, bool sift) {
  const des::SimTime now = sim_.now();
  if (flow.remaining <= kByteEpsilon) {
    flow.due = now;
  } else if (flow.rate > 0.0) {
    const double secs = flow.remaining / flow.rate;
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
    flow.heap_pos = static_cast<std::uint32_t>(heap_.size());
    heap_.push_back(&flow);
  }
  if (sift) {
    sift_up(flow.heap_pos);
    sift_down(flow.heap_pos);
  }
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

void Network::sync_wake() {
  const bool armed = wake_.pending();
  if (heap_.empty()) {
    if (armed) wake_.cancel();
    return;
  }
  const Flow* top = heap_.front();
  if (armed && wake_at(*top)) return;
  if (armed) wake_.cancel();
  wake_due_ = top->due;
  wake_seq_ = top->due_seq;
  wake_id_ = top->id;
  wake_ = sim_.schedule_reserved(wake_due_, wake_seq_,
                                 [this] { finish_flow(*heap_.front()); });
}

void Network::activate_flow(FlowId id) {
  const auto it = flows_.find(id);
  if (it == flows_.end()) return;  // cancelled during latency phase
  Flow& flow = it->second;
  flow.active = true;
  flow.last_update = sim_.now();
  attach_to_links(flow);
  collect_component(&flow);
  if (flow.remaining <= kByteEpsilon) {
    finish_flow(flow);
    return;
  }
  recompute_rates(comp_flows_);
  sync_wake();
}

double Network::cancel_flow(FlowId id) {
  const auto it = flows_.find(id);
  if (it == flows_.end()) return 0.0;
  Flow& flow = it->second;
  flow.activation.cancel();
  if (!flow.active) {
    // Latency phase: the flow never held bandwidth, nothing to rebalance.
    const double unmoved = flow.remaining;
    flows_.erase(it);
    return unmoved;
  }
  collect_component(&flow);
  const double unmoved = flow.remaining;
  heap_remove(flow);
  detach_from_links(flow);
  drop_seed_from_component();
  flows_.erase(it);
  recompute_rates(comp_flows_);
  sync_wake();
  return unmoved;
}

std::size_t Network::cancel_flows_with_endpoint(EndpointId ep) {
  // Collect first: cancel_flow mutates flows_, and each cancellation settles
  // and rebalances its own component, so the per-link active lists stay
  // consistent throughout. flows_ is id-ordered => deterministic teardown.
  std::vector<FlowId> doomed;
  for (const auto& [id, flow] : flows_) {
    if (flow.src == ep || flow.dst == ep) doomed.push_back(id);
  }
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
  // they leave the completion heap and stall until a later rebalance (e.g.
  // restoring the link) frees capacity.
  collect_component(nullptr, id);
  link.capacity_factor = factor;
  recompute_rates(comp_flows_);
  sync_wake();
}

double Network::flow_rate(FlowId id) const {
  const auto it = flows_.find(id);
  return it == flows_.end() ? 0.0 : it->second.rate;
}

double Network::flow_remaining(FlowId id) const {
  const auto it = flows_.find(id);
  return it == flows_.end() ? 0.0 : it->second.remaining;
}

void Network::check_invariants() const {
  const auto fail = [](const std::string& what) {
    throw std::logic_error("Network invariant violated: " + what);
  };
  // Link capacity, and the per-link lists against the flows' back-pointers.
  std::size_t refs = 0;
  for (std::size_t l = 0; l < links_.size(); ++l) {
    if (!std::isfinite(links_[l].effective_bandwidth())) {
      fail("link " + links_[l].name + " has a non-finite bandwidth");
    }
    const auto& list = link_active_[l];
    refs += list.size();
    double sum = 0.0;
    for (std::size_t pos = 0; pos < list.size(); ++pos) {
      const ActiveRef& ref = list[pos];
      const Flow& flow = *ref.flow;
      const auto it = flows_.find(flow.id);
      if (it == flows_.end() || &it->second != &flow || !flow.active) {
        fail("link " + links_[l].name + " lists a flow that is not active");
      }
      if (ref.slot >= flow.links.size() || flow.links[ref.slot] != l ||
          flow.link_pos[ref.slot] != pos) {
        fail("link " + links_[l].name + " entry disagrees with flow " +
             std::to_string(flow.id) + "'s link_pos");
      }
      sum += flow.rate;
    }
    const double cap = links_[l].effective_bandwidth();
    if (sum > cap * (1.0 + 1e-9)) {
      fail("link " + links_[l].name + " carries " + std::to_string(sum) +
           " B/s over its " + std::to_string(cap));
    }
  }
  // Completion heap membership: exactly the active flows that drain or have
  // drained.
  std::size_t expected_refs = 0;
  std::size_t keyed = 0;
  for (const auto& [id, flow] : flows_) {
    if (!std::isfinite(flow.rate)) {
      fail("flow " + std::to_string(id) + " has a non-finite rate");
    }
    if (flow.active) expected_refs += flow.links.size();
    const bool should_key =
        flow.active && (flow.rate > 0.0 || flow.remaining <= kByteEpsilon);
    const bool in_heap = flow.heap_pos != kNotInHeap;
    if (in_heap && (flow.heap_pos >= heap_.size() || heap_[flow.heap_pos] != &flow)) {
      fail("flow " + std::to_string(id) + " heap_pos does not point back at it");
    }
    if (should_key != in_heap) {
      fail("flow " + std::to_string(id) + (in_heap ? " is starved or inactive but in"
                                                    : " drains but is missing from") +
           " the completion heap");
    }
    keyed += in_heap;
  }
  if (refs != expected_refs) fail("link lists and active flow paths differ in size");
  if (keyed != heap_.size()) fail("completion heap holds flows that are gone");
  for (std::size_t pos = 1; pos < heap_.size(); ++pos) {
    const Flow* child = heap_[pos];
    const Flow* parent = heap_[(pos - 1) / 2];
    if (due_before(*child, *parent)) {
      fail("completion heap order broken at position " + std::to_string(pos));
    }
  }
  // The one DES event sits at the heap top.
  if (wake_.pending() == heap_.empty()) {
    fail("wake event pending state disagrees with the completion heap");
  }
  if (!heap_.empty() && !wake_at(*heap_.front())) {
    fail("wake event is not at the completion heap top");
  }
}

void Network::finish_flow(Flow& flow) {
  collect_component(&flow);
  if (flow.remaining > kByteEpsilon) {
    // The keyed finish rounded to a tick short of the last byte: re-estimate
    // from the settled remainder.
    std::optional<std::uint64_t> seq;
    key_completion(flow, seq);
    sync_wake();
    return;
  }
  auto callback = std::move(flow.on_complete);
  heap_remove(flow);
  detach_from_links(flow);
  drop_seed_from_component();
  flows_.erase(flow.id);
  recompute_rates(comp_flows_);
  sync_wake();
  if (callback) callback();
}

}  // namespace cloudburst::net
