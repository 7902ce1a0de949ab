// Tests for the scoped flow rebalance (see network.hpp "Scoped
// rebalancing"): a randomized differential test driving the scoped and
// global-reference modes through the same operation sequence, plus pins for
// the unified completion re-arm floor and component isolation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "des/simulator.hpp"
#include "net/network.hpp"

namespace cloudburst::net {
namespace {

// --- differential harness --------------------------------------------------

// One pre-generated flow operation. Cancel targets index the issued-flow
// list, which is identical across runs because flow ids are assigned in
// call order.
struct Op {
  des::SimTime at = 0;
  bool cancel = false;
  int target = 0;  // cancel: index into the issued-flow list
  int src = 0;
  int dst = 0;
  std::uint64_t bytes = 0;
  double cap = 0.0;
};

// xorshift64* — self-contained so the op sequence never shifts under
// standard-library changes.
struct Rng {
  std::uint64_t state;
  std::uint64_t next() {
    state ^= state >> 12;
    state ^= state << 25;
    state ^= state >> 27;
    return state * 0x2545F4914F6CDD1Dull;
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
};

std::vector<Op> make_ops(int count, int endpoints, std::uint64_t seed) {
  Rng rng{seed};
  std::vector<Op> ops;
  ops.reserve(count);
  des::SimTime t = 0;
  int started = 0;
  for (int i = 0; i < count; ++i) {
    Op op;
    t += 1 + static_cast<des::SimTime>(rng.below(2'000'000));  // <= 2 ms apart
    op.at = t;
    op.cancel = started > 4 && rng.below(10) < 3;
    if (op.cancel) {
      op.target = static_cast<int>(rng.below(started));
    } else {
      op.src = static_cast<int>(rng.below(endpoints));
      op.dst = static_cast<int>(rng.below(endpoints));  // src==dst: loopback
      op.bytes = 1'000 + rng.below(600'000);
      op.cap = rng.below(4) == 0 ? 1e5 + 1e4 * static_cast<double>(rng.below(100)) : 0.0;
      ++started;
    }
    ops.push_back(op);
  }
  return ops;
}

// Three sites, per-endpoint access links, multi-link WAN routes: flows
// constantly merge and split connected components.
struct Harness {
  des::Simulator sim;
  Network net{sim};
  std::vector<EndpointId> eps;
  std::vector<FlowId> flows;               // issue order
  std::map<int, des::SimTime> completed;   // issue index -> completion time

  // With `twin_access`, two more endpoints (one per site a and b) share
  // endpoint a0's access link, so some paths cross that link twice.
  explicit Harness(Network::RebalanceMode mode, bool twin_access = false) {
    net.set_rebalance_mode_for_test(mode);
    const SiteId a = net.add_site("a");
    const SiteId b = net.add_site("b");
    const SiteId c = net.add_site("c");
    const LinkId wan_ab =
        net.add_link("wan-ab", 100e6, des::from_seconds(0.010));
    const LinkId wan_bc = net.add_link("wan-bc", 60e6, des::from_seconds(0.015));
    std::vector<LinkId> nics;
    auto attach = [&](SiteId site, const char* prefix, int n, double bw) {
      for (int i = 0; i < n; ++i) {
        std::string name = prefix;
        name += std::to_string(i);
        const EndpointId ep = net.add_endpoint(name, site);
        const LinkId access = net.add_link(name + "-nic",
                                           bw * (1.0 + 0.25 * i),
                                           des::from_seconds(0.0005));
        net.set_access_path(ep, {access});
        eps.push_back(ep);
        nics.push_back(access);
      }
    };
    attach(a, "a", 4, 200e6);
    attach(b, "b", 3, 120e6);
    attach(c, "c", 2, 80e6);
    net.set_route_symmetric(a, b, {wan_ab});
    net.set_route_symmetric(b, c, {wan_bc});
    net.set_route_symmetric(a, c, {wan_ab, wan_bc});  // two-hop path
    if (twin_access) {
      for (SiteId site : {a, b}) {
        const EndpointId ep = net.add_endpoint("twin" + std::to_string(site), site);
        net.set_access_path(ep, {nics[0]});
        eps.push_back(ep);
      }
    }
  }

  // Runs the op sequence; after each op audits the solver and kernel state
  // and appends a bit-pattern hash of the most recent flows' rates
  // (exact-equality signature, localizes a divergence to the first differing
  // op).
  void drive(const std::vector<Op>& ops, std::vector<std::uint64_t>& rate_sig) {
    for (std::size_t i = 0; i < ops.size(); ++i) {
      sim.schedule_at(ops[i].at, [this, &ops, &rate_sig, i] {
        const Op& op = ops[i];
        if (op.cancel) {
          net.cancel_flow(flows[op.target]);
        } else {
          const int idx = static_cast<int>(flows.size());
          flows.push_back(net.start_flow(
              eps[op.src], eps[op.dst], op.bytes, op.cap,
              [this, idx] { completed.emplace(idx, sim.now()); }));
        }
        net.check_invariants();
        sim.check_invariants();
        std::uint64_t h = 1469598103934665603ull;  // FNV offset basis
        const std::size_t begin = flows.size() > 64 ? flows.size() - 64 : 0;
        for (std::size_t k = begin; k < flows.size(); ++k) {
          const double rate = net.flow_rate(flows[k]);
          std::uint64_t bits;
          std::memcpy(&bits, &rate, sizeof(bits));
          h = (h ^ bits) * 1099511628211ull;
        }
        rate_sig.push_back(h);
      });
    }
    sim.run();
  }
};

TEST(ScopedRebalanceDifferential, MatchesGlobalReferenceOver10kOps) {
  const std::vector<Op> ops = make_ops(10'000, 9, 0x5eed2026'08'08ull);
  Harness scoped(Network::RebalanceMode::kScoped);
  Harness reference(Network::RebalanceMode::kGlobalReference);
  std::vector<std::uint64_t> sig_scoped, sig_reference;
  scoped.drive(ops, sig_scoped);
  reference.drive(ops, sig_reference);

  ASSERT_EQ(sig_scoped.size(), sig_reference.size());
  for (std::size_t i = 0; i < sig_scoped.size(); ++i) {
    ASSERT_EQ(sig_scoped[i], sig_reference[i]) << "rate divergence at op " << i;
  }
  EXPECT_EQ(scoped.completed, reference.completed);
  EXPECT_EQ(scoped.net.active_flows(), reference.net.active_flows());
  // Identical rates imply identical re-arm decisions, so even the event
  // traffic must match.
  EXPECT_EQ(scoped.sim.executed_events(), reference.sim.executed_events());

  // The sequence must have exercised real churn, or the comparison is vacuous.
  EXPECT_GT(scoped.completed.size(), 1'000u);
  EXPECT_EQ(scoped.sim.now(), reference.sim.now());
}

// Two endpoints on a0's access link: a0 <-> twin-b paths run
// [a0 nic, wan-ab, a0 nic] and a0 <-> twin-a paths [a0 nic, a0 nic], so a
// flow contends twice on one link and leaves both of its registrations on
// departure. Both check_invariants() (network and simulator) run after
// every op in both modes.
TEST(ScopedRebalanceDifferential, PathsCrossingALinkTwiceMatchGlobalReference) {
  const std::vector<Op> ops = make_ops(4'000, 11, 0x7417'2026'1017ull);
  Harness scoped(Network::RebalanceMode::kScoped, /*twin_access=*/true);
  Harness reference(Network::RebalanceMode::kGlobalReference, /*twin_access=*/true);
  ASSERT_EQ(scoped.net.path(scoped.eps[0], scoped.eps[10]).size(), 3u);
  ASSERT_EQ(scoped.net.path(scoped.eps[9], scoped.eps[0]).size(), 2u);
  std::vector<std::uint64_t> sig_scoped, sig_reference;
  scoped.drive(ops, sig_scoped);
  reference.drive(ops, sig_reference);

  ASSERT_EQ(sig_scoped.size(), sig_reference.size());
  for (std::size_t i = 0; i < sig_scoped.size(); ++i) {
    ASSERT_EQ(sig_scoped[i], sig_reference[i]) << "rate divergence at op " << i;
  }
  EXPECT_EQ(scoped.completed, reference.completed);
  EXPECT_EQ(scoped.sim.executed_events(), reference.sim.executed_events());
  EXPECT_GT(scoped.completed.size(), 500u);
  EXPECT_EQ(scoped.net.active_flows(), 0u);
}

// --- unified re-arm floor --------------------------------------------------

// Rebalance used to arm sub-tick completions at +0 while the finish-time
// re-estimate floored at +1 tick; both now share the >=1 tick floor. A
// loopback flow (rate 1e18 => sub-tick duration) pins it: activation at t=0,
// completion exactly one tick later.
TEST(NetworkRearmFloor, LoopbackCompletesOneTickAfterActivation) {
  des::Simulator sim;
  Network net(sim);
  const SiteId s = net.add_site("s");
  const EndpointId e = net.add_endpoint("e", s);
  des::SimTime done = -1;
  net.start_flow(e, e, 1'000'000, 0.0, [&] { done = sim.now(); });
  sim.run();
  EXPECT_EQ(done, 1);
}

TEST(NetworkRearmFloor, MidFlightRateChangeReestimatesExactly) {
  des::Simulator sim;
  Network net(sim);
  const SiteId s = net.add_site("s");
  const LinkId shared = net.add_link("shared", 1e6, des::from_seconds(0.001));
  const EndpointId x = net.add_endpoint("x", s);
  const EndpointId z = net.add_endpoint("z", s);
  const EndpointId y = net.add_endpoint("y", s);
  net.set_access_path(x, {shared});
  net.set_access_path(z, {shared});

  des::SimTime a_done = -1, b_done = -1;
  net.start_flow(x, y, 1'000'000, 0.0, [&] { a_done = sim.now(); });
  sim.schedule(des::from_seconds(0.499),
               [&] { net.start_flow(z, y, 500'000, 0.0, [&] { b_done = sim.now(); }); });
  sim.run();
  // A: active at 1ms, alone until 0.5s (499k bytes drained), then halves to
  // 5e5 B/s. B: active at 0.5s, 500k bytes at 5e5 B/s => done at 1.5s; A's
  // last 1k bytes then drain at full rate => 1.501s. Each re-arm rounds at
  // most once, so allow a few ns.
  EXPECT_NEAR(des::to_seconds(b_done), 1.5, 5e-9);
  EXPECT_NEAR(des::to_seconds(a_done), 1.501, 5e-9);
}

// --- component isolation ---------------------------------------------------

// Churn on a disjoint link set must not perturb another component's
// completion, to the exact tick: scoped rebalance neither recomputes nor
// re-arms flows it cannot affect.
TEST(ScopedRebalance, DisjointComponentChurnDoesNotPerturbCompletion) {
  auto run_measured = [](bool with_churn) {
    des::Simulator sim;
    Network net(sim);
    const SiteId s = net.add_site("s");
    const LinkId quiet = net.add_link("quiet", 1e6, des::from_seconds(0.002));
    const LinkId busy = net.add_link("busy", 5e6, des::from_seconds(0.0001));
    const EndpointId q1 = net.add_endpoint("q1", s);
    const EndpointId q2 = net.add_endpoint("q2", s);
    const EndpointId b1 = net.add_endpoint("b1", s);
    const EndpointId b2 = net.add_endpoint("b2", s);
    net.set_access_path(q1, {quiet});
    net.set_access_path(b1, {busy});

    des::SimTime done = -1;
    net.start_flow(q1, q2, 3'000'000, 0.0, [&] { done = sim.now(); });
    if (with_churn) {
      for (int i = 0; i < 100; ++i) {
        sim.schedule(des::from_seconds(0.01 * i), [&net, b1, b2] {
          net.start_flow(b1, b2, 50'000, 0.0, nullptr);
        });
      }
    }
    sim.run();
    return done;
  };
  EXPECT_EQ(run_measured(false), run_measured(true));
}

// --- DES churn -----------------------------------------------------------

// 64 flows share one link and every completion starts a replacement, so each
// arrival and departure re-rates all 64. Re-rating only re-keys the
// network's timer heap, which the kernel merges with its queue: the DES
// queue sees no activation, completion or cancel + schedule per re-rated
// flow at all.
TEST(NetworkChurn, SixtyFourFlowsOnOneLinkTakeUnderTwoSchedulesPerEvent) {
  des::Simulator sim;
  Network net(sim);
  const SiteId a = net.add_site("a");
  const SiteId b = net.add_site("b");
  const LinkId link = net.add_link("shared", 1e8, des::from_seconds(0.0001));
  const EndpointId src = net.add_endpoint("src", a);
  const EndpointId dst = net.add_endpoint("dst", b);
  net.set_route_symmetric(a, b, {link});

  int completions = 0;
  std::uint64_t next_bytes = 1;
  std::function<void()> start = [&] {
    next_bytes = next_bytes * 6364136223846793005ull + 1442695040888963407ull;
    net.start_flow(src, dst, 10'000 + (next_bytes >> 40) % 100'000, 0.0, [&] {
      if (++completions < 1'000) start();
    });
  };
  for (int i = 0; i < 64; ++i) start();
  sim.run();

  ASSERT_EQ(completions, 1'000 + 63);
  const double per_event = static_cast<double>(sim.scheduled_events()) /
                           static_cast<double>(sim.executed_events());
  EXPECT_LT(per_event, 2.0) << sim.scheduled_events() << " schedules for "
                            << sim.executed_events() << " events";
  EXPECT_EQ(sim.scheduled_events(), 0u);
  EXPECT_EQ(sim.cancelled_events(), 0u);
  EXPECT_EQ(net.active_flows(), 0u);
}

// --- same-tick ties --------------------------------------------------------

// N equal flows start together on one link, so the last activation re-rates
// all of them to the same share and they finish on the same tick. Their
// callbacks must fire in flow-id order.
TEST(NetworkCompletionOrder, EqualFlowsFinishingOnOneTickFireInIdOrder) {
  des::Simulator sim;
  Network net(sim);
  const SiteId a = net.add_site("a");
  const SiteId b = net.add_site("b");
  const LinkId link = net.add_link("shared", 1e6, des::from_seconds(0.001));
  const EndpointId src = net.add_endpoint("src", a);
  const EndpointId dst = net.add_endpoint("dst", b);
  net.set_route_symmetric(a, b, {link});

  constexpr int kFlows = 16;
  std::vector<FlowId> ids;
  std::vector<FlowId> fired;
  std::vector<des::SimTime> at;
  for (int i = 0; i < kFlows; ++i) {
    ids.push_back(net.start_flow(src, dst, 1'000'000, 0.0, [&, i] {
      fired.push_back(ids[i]);
      at.push_back(sim.now());
    }));
  }
  sim.run();

  ASSERT_EQ(fired.size(), static_cast<std::size_t>(kFlows));
  EXPECT_EQ(fired, ids);
  for (des::SimTime t : at) EXPECT_EQ(t, at.front());
  EXPECT_EQ(at.front(), des::from_seconds(0.001 + kFlows * 1.0));
}

// --- pinned completion order ----------------------------------------------

// FNV-1a over 64-bit words: an order-sensitive signature of a run.
struct OrderHash {
  std::uint64_t h = 1469598103934665603ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((v >> (8 * i)) & 0xffu)) * 1099511628211ull;
    }
  }
};

// Seeded mix of every mutating entry point, on round bandwidths and a 1 ms
// op grid so flow completions can land on the same tick as op events. The
// signature covers the interleaving of completion callbacks (flow id, time)
// with op events (op index, time), plus the executed-event count. The
// constants were computed with per-flow completion events in the DES queue;
// any completion scheme must reproduce them bit for bit, including how it
// orders a completion against an unrelated event due on the same tick.
TEST(NetworkCompletionOrder, SeededMixMatchesPinnedSignature) {
  des::Simulator sim;
  Network net(sim);
  const SiteId a = net.add_site("a");
  const SiteId b = net.add_site("b");
  std::vector<LinkId> links;
  links.push_back(net.add_link("wan", 40e6, des::from_seconds(0.002)));
  std::vector<EndpointId> eps;
  for (int i = 0; i < 6; ++i) {
    const SiteId site = i < 3 ? a : b;
    std::string ep_name = "e";
    std::string nic_name = "nic";
    ep_name += std::to_string(i);
    nic_name += std::to_string(i);
    const EndpointId ep = net.add_endpoint(ep_name, site);
    const LinkId nic = net.add_link(nic_name, 1e7 * (1 + i % 3),
                                    i % 2 == 0 ? 0 : des::from_seconds(0.001));
    net.set_access_path(ep, {nic});
    links.push_back(nic);
    eps.push_back(ep);
  }
  net.set_route_symmetric(a, b, {links[0]});

  OrderHash sig;
  std::vector<FlowId> issued;
  std::size_t completions = 0;
  std::function<void(FlowId)> on_done;
  auto start = [&](int src, int dst, std::uint64_t bytes, double cap) {
    const std::size_t idx = issued.size();
    issued.push_back(net.start_flow(eps[src], eps[dst], bytes, cap,
                                    [&on_done, &issued, idx] { on_done(issued[idx]); }));
  };
  on_done = [&](FlowId id) {
    ++completions;
    sig.add(id);
    sig.add(static_cast<std::uint64_t>(sim.now()));
    // Chain a follow-up transfer from inside the callback now and then.
    if (id % 4 == 0) {
      start(static_cast<int>(id % 6), static_cast<int>((id / 4) % 6), 1'000 * (id % 50), 0.0);
    }
  };

  Rng rng{0xc0de'2026'1016ull};
  for (int i = 0; i < 6'000; ++i) {
    const des::SimTime at = des::kMillisecond * static_cast<des::SimTime>(i + rng.below(3));
    const std::uint64_t kind = rng.below(100);
    const std::uint64_t x = rng.next();
    sim.schedule_at(at, [&, i, kind, x] {
      sig.add(0xffff'0000'0000ull + static_cast<std::uint64_t>(i));
      sig.add(static_cast<std::uint64_t>(sim.now()));
      if (kind < 75 || issued.empty()) {
        const double cap = x % 5 == 0 ? 2.5e6 : 0.0;
        start(static_cast<int>(x % 6), static_cast<int>((x >> 8) % 6),
              1'000 * ((x >> 16) % 40), cap);
      } else if (kind < 85) {
        const double unmoved = net.cancel_flow(issued[(x >> 4) % issued.size()]);
        std::uint64_t bits;
        std::memcpy(&bits, &unmoved, sizeof(bits));
        sig.add(bits);
      } else if (kind < 99) {
        static constexpr double kFactors[] = {0.0, 0.25, 0.5, 1.0, 1.0};
        net.set_link_capacity_factor(links[x % links.size()], kFactors[(x >> 8) % 5]);
      } else {
        sig.add(net.cancel_flows_with_endpoint(eps[x % eps.size()]));
      }
    });
  }
  // Restore every link so stalled flows drain and the run terminates.
  sim.schedule_at(des::from_seconds(20.0), [&] {
    for (LinkId l : links) net.set_link_capacity_factor(l, 1.0);
  });
  sim.run();

  EXPECT_EQ(net.active_flows(), 0u);
  EXPECT_GT(completions, 4'000u);
  EXPECT_EQ(sig.h, 0x14790b951959bee5ull);
  EXPECT_EQ(sim.executed_events(), 17'134u);
}

// --- settle replay ---------------------------------------------------------

// Multi-stream object fetches put several identical flows (same source,
// destination and per-connection cap) on one path, next to 256-byte uncapped
// control messages, zero-byte flows, single-stream cancellations and a WAN
// link that goes down, half up and back up while streams are in flight. The
// signature takes every completion (flow id, time), every cancellation's
// unmoved bytes, and, after every op, each live flow's remaining bytes and
// rate bit for bit. The constants were computed with every flow settled on
// every rebalance walk; any settle scheme must reproduce them exactly.
TEST(NetworkSettleReplay, SharedPathClassesMatchPinnedSignature) {
  des::Simulator sim;
  Network net(sim);
  const SiteId store_site = net.add_site("store");
  const SiteId compute = net.add_site("compute");
  const LinkId front = net.add_link("front", 60e6, des::from_seconds(0.0005));
  const LinkId wan = net.add_link("wan", 40e6, des::from_seconds(0.004));
  const EndpointId store = net.add_endpoint("store", store_site);
  net.set_access_path(store, {front});
  net.set_route_symmetric(store_site, compute, {wan});
  std::vector<EndpointId> nodes;
  for (int i = 0; i < 4; ++i) {
    std::string name = "node";
    name += std::to_string(i);
    const EndpointId ep = net.add_endpoint(name, compute);
    const LinkId nic =
        net.add_link(name + "-nic", 2e7 * (1 + i % 2), des::from_seconds(0.0002));
    net.set_access_path(ep, {nic});
    nodes.push_back(ep);
  }

  OrderHash sig;
  const auto add_bits = [&sig](double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    sig.add(bits);
  };
  std::vector<FlowId> issued;
  std::vector<FlowId> streams;
  std::set<FlowId> live;
  std::size_t completions = 0;
  const auto start = [&](EndpointId src, EndpointId dst, std::uint64_t bytes, double cap) {
    const std::size_t idx = issued.size();
    const FlowId id = net.start_flow(src, dst, bytes, cap, [&, idx] {
      ++completions;
      sig.add(issued[idx]);
      sig.add(static_cast<std::uint64_t>(sim.now()));
      live.erase(issued[idx]);
    });
    issued.push_back(id);
    live.insert(id);
    return id;
  };
  const auto after_op = [&] {
    net.check_invariants();
    sim.check_invariants();
    for (FlowId id : live) {
      add_bits(net.flow_remaining(id));
      add_bits(net.flow_rate(id));
    }
  };

  Rng rng{0x5e77'1e00'2026'1017ull};
  for (int i = 0; i < 4'000; ++i) {
    const des::SimTime at = des::kMillisecond * static_cast<des::SimTime>(i + rng.below(3));
    const std::uint64_t kind = rng.below(100);
    const std::uint64_t x = rng.next();
    sim.schedule_at(at, [&, kind, x] {
      const EndpointId node = nodes[x % nodes.size()];
      if (kind < 15) {
        // One chunk fetched over 8 range GETs sharing a per-connection cap;
        // some fetches use a second cap, so one path carries two classes.
        const std::uint64_t total = 16'384 * (1 + (x >> 8) % 16);
        const double cap = (x >> 12) % 4 == 0 ? 3e6 : 1.5e6;
        for (std::uint64_t s = 0; s < 8; ++s) {
          streams.push_back(start(store, node, total / 8 + (s == 7 ? total % 8 : 0), cap));
        }
      } else if (kind < 55) {
        const bool to_store = (x >> 16) % 5 == 0;
        start(node, to_store ? store : nodes[(x >> 20) % nodes.size()], 256, 0.0);
      } else if (kind < 62) {
        start(store, node, 0, (x >> 16) % 2 == 0 ? 1.5e6 : 0.0);
      } else if (kind < 80 && !streams.empty()) {
        // Cancel one of the 24 newest streams, most likely still in flight.
        const std::size_t back = (x >> 24) % std::min<std::size_t>(24, streams.size());
        const FlowId id = streams[streams.size() - 1 - back];
        add_bits(net.cancel_flow(id));
        live.erase(id);
      }
      after_op();
    });
  }
  // Every 250 ms the WAN goes down, comes back at half bandwidth, then heals.
  for (int k = 0; k < 16; ++k) {
    const des::SimTime base = des::from_seconds(0.25 * k + 0.037);
    const std::pair<des::SimDuration, double> steps[] = {
        {0, 0.0}, {des::from_seconds(0.020), 0.5}, {des::from_seconds(0.045), 1.0}};
    for (const auto& [offset, factor] : steps) {
      sim.schedule_at(base + offset, [&, factor] {
        net.set_link_capacity_factor(wan, factor);
        after_op();
      });
    }
  }
  sim.run();

  EXPECT_EQ(net.active_flows(), 0u);
  EXPECT_GT(completions, 5'000u);
  EXPECT_EQ(sig.h, 0xca226c1232151b16ull);
  EXPECT_EQ(sim.executed_events(), 18'400u);
}

}  // namespace
}  // namespace cloudburst::net
