// Tests for the flow-level network: latency, max-min fair sharing (equal
// split, bottleneck isolation, per-flow caps, water-filling), routing, and
// cancellation.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "des/simulator.hpp"
#include "net/network.hpp"

namespace cloudburst::net {
namespace {

using des::from_seconds;
using des::kSecond;
using des::Simulator;

/// A two-endpoint topology with one shared link of `bw` bytes/sec.
struct SingleLink {
  Simulator sim;
  Network net{sim};
  EndpointId a, b;
  LinkId link;

  explicit SingleLink(double bw, des::SimDuration latency = 0) {
    const SiteId sa = net.add_site("A");
    const SiteId sb = net.add_site("B");
    link = net.add_link("ab", bw, latency);
    a = net.add_endpoint("a", sa);
    b = net.add_endpoint("b", sb);
    net.set_route_symmetric(sa, sb, {link});
  }
};

TEST(Network, SingleFlowTransferTime) {
  SingleLink topo(1e6);  // 1 MB/s
  double done_at = -1;
  topo.net.start_flow(topo.a, topo.b, 2'000'000, 0,
                      [&] { done_at = des::to_seconds(topo.sim.now()); });
  topo.sim.run();
  EXPECT_NEAR(done_at, 2.0, 1e-6);
}

TEST(Network, LatencyAddsToTransferTime) {
  SingleLink topo(1e6, from_seconds(0.5));
  double done_at = -1;
  topo.net.start_flow(topo.a, topo.b, 1'000'000, 0,
                      [&] { done_at = des::to_seconds(topo.sim.now()); });
  topo.sim.run();
  EXPECT_NEAR(done_at, 1.5, 1e-6);
}

TEST(Network, ZeroByteFlowTakesOnlyLatency) {
  SingleLink topo(1e6, from_seconds(0.25));
  double done_at = -1;
  topo.net.start_flow(topo.a, topo.b, 0, 0,
                      [&] { done_at = des::to_seconds(topo.sim.now()); });
  topo.sim.run();
  EXPECT_NEAR(done_at, 0.25, 1e-6);
}

TEST(Network, TwoFlowsShareFairly) {
  SingleLink topo(1e6);
  double done1 = -1, done2 = -1;
  topo.net.start_flow(topo.a, topo.b, 1'000'000, 0,
                      [&] { done1 = des::to_seconds(topo.sim.now()); });
  topo.net.start_flow(topo.a, topo.b, 1'000'000, 0,
                      [&] { done2 = des::to_seconds(topo.sim.now()); });
  topo.sim.run();
  // Both drain at 0.5 MB/s -> 2s each.
  EXPECT_NEAR(done1, 2.0, 1e-6);
  EXPECT_NEAR(done2, 2.0, 1e-6);
}

TEST(Network, ShortFlowFinishesThenLongFlowSpeedsUp) {
  SingleLink topo(1e6);
  double done_small = -1, done_big = -1;
  topo.net.start_flow(topo.a, topo.b, 500'000, 0,
                      [&] { done_small = des::to_seconds(topo.sim.now()); });
  topo.net.start_flow(topo.a, topo.b, 1'500'000, 0,
                      [&] { done_big = des::to_seconds(topo.sim.now()); });
  topo.sim.run();
  // Shared until t=1 (each moved 0.5MB); big then runs alone: 1MB more at
  // full rate -> finishes at t=2.
  EXPECT_NEAR(done_small, 1.0, 1e-5);
  EXPECT_NEAR(done_big, 2.0, 1e-5);
}

TEST(Network, PerFlowRateCapIsHonored) {
  SingleLink topo(10e6);
  double done_at = -1;
  topo.net.start_flow(topo.a, topo.b, 1'000'000, /*cap=*/1e6,
                      [&] { done_at = des::to_seconds(topo.sim.now()); });
  topo.sim.run();
  EXPECT_NEAR(done_at, 1.0, 1e-6);  // capped at 1 MB/s despite a 10 MB/s link
}

TEST(Network, CappedFlowLeavesBandwidthToOthers) {
  SingleLink topo(3e6);
  double done_capped = -1, done_free = -1;
  topo.net.start_flow(topo.a, topo.b, 1'000'000, /*cap=*/1e6,
                      [&] { done_capped = des::to_seconds(topo.sim.now()); });
  topo.net.start_flow(topo.a, topo.b, 2'000'000, 0,
                      [&] { done_free = des::to_seconds(topo.sim.now()); });
  topo.sim.run();
  // Water-filling: capped flow gets 1 MB/s, the other gets the residual 2.
  EXPECT_NEAR(done_capped, 1.0, 1e-5);
  EXPECT_NEAR(done_free, 1.0, 1e-5);
}

TEST(Network, FlowRateIntrospection) {
  SingleLink topo(1e6);
  const FlowId f1 = topo.net.start_flow(topo.a, topo.b, 10'000'000, 0, nullptr);
  topo.sim.run_until(from_seconds(0.1));
  EXPECT_NEAR(topo.net.flow_rate(f1), 1e6, 1.0);
  const FlowId f2 = topo.net.start_flow(topo.a, topo.b, 10'000'000, 0, nullptr);
  topo.sim.run_until(from_seconds(0.2));
  EXPECT_NEAR(topo.net.flow_rate(f1), 0.5e6, 1.0);
  EXPECT_NEAR(topo.net.flow_rate(f2), 0.5e6, 1.0);
}

TEST(Network, CancelFlowReleasesBandwidth) {
  SingleLink topo(1e6);
  double done_at = -1;
  const FlowId victim = topo.net.start_flow(topo.a, topo.b, 10'000'000, 0, [] {
    FAIL() << "cancelled flow must not complete";
  });
  topo.net.start_flow(topo.a, topo.b, 1'000'000, 0,
                      [&] { done_at = des::to_seconds(topo.sim.now()); });
  topo.sim.schedule(from_seconds(0.5), [&] { topo.net.cancel_flow(victim); });
  topo.sim.run();
  // Shared for 0.5s (0.25MB moved), then full rate for the remaining 0.75MB.
  EXPECT_NEAR(done_at, 1.25, 1e-5);
}

TEST(Network, LoopbackFlowIsInstant) {
  SingleLink topo(1e6);
  double done_at = -1;
  topo.net.start_flow(topo.a, topo.a, 50'000'000, 0,
                      [&] { done_at = des::to_seconds(topo.sim.now()); });
  topo.sim.run();
  EXPECT_NEAR(done_at, 0.0, 1e-3);
}

TEST(Network, MissingRouteThrows) {
  Simulator sim;
  Network net(sim);
  const SiteId sa = net.add_site("A");
  const SiteId sb = net.add_site("B");
  const EndpointId a = net.add_endpoint("a", sa);
  const EndpointId b = net.add_endpoint("b", sb);
  EXPECT_THROW(net.start_flow(a, b, 100, 0, nullptr), std::runtime_error);
}

TEST(Network, BadLinkParametersThrow) {
  Simulator sim;
  Network net(sim);
  EXPECT_THROW(net.add_link("bad", 0.0, 0), std::invalid_argument);
  EXPECT_THROW(net.add_link("bad", -1.0, 0), std::invalid_argument);
  EXPECT_THROW(net.add_link("bad", 1.0, -5), std::invalid_argument);
  // NaN passes a `<= 0` test; a NaN or infinite capacity made flows finish
  // one tick after activation.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(net.add_link("bad", nan, 0), std::invalid_argument);
  EXPECT_THROW(net.add_link("bad", inf, 0), std::invalid_argument);
  EXPECT_EQ(net.link_count(), 0u);

  const SiteId s = net.add_site("s");
  const LinkId l = net.add_link("ok", 1e6, 0);
  const EndpointId a = net.add_endpoint("a", s);
  const EndpointId b = net.add_endpoint("b", s);
  net.set_access_path(a, {l});
  EXPECT_THROW(net.set_link_capacity_factor(l, nan), std::invalid_argument);
  EXPECT_THROW(net.set_link_capacity_factor(l, inf), std::invalid_argument);
  EXPECT_THROW(net.set_link_capacity_factor(l, -0.5), std::invalid_argument);
  EXPECT_EQ(net.link(l).capacity_factor, 1.0);
  EXPECT_THROW(net.start_flow(a, b, 1'000, nan, nullptr), std::invalid_argument);
  EXPECT_THROW(net.start_flow(a, b, 1'000, inf, nullptr), std::invalid_argument);
  EXPECT_THROW(net.start_flow(a, b, 1'000, -1.0, nullptr), std::invalid_argument);
  EXPECT_EQ(net.active_flows(), 0u);

  // The valid edge values still work: factor 0 stalls, cap 0 is uncapped.
  des::SimTime done = -1;
  net.start_flow(a, b, 1'000'000, 0.0, [&] { done = sim.now(); });
  net.set_link_capacity_factor(l, 0.0);
  sim.schedule_at(from_seconds(5.0), [&] {
    EXPECT_EQ(done, -1);
    net.check_invariants();
    net.set_link_capacity_factor(l, 1.0);
  });
  sim.run();
  EXPECT_EQ(done, from_seconds(6.0));
}

// A flow's latency-phase timer is a pending event of the simulator until
// cancel_flow removes it; the DES queue itself never holds it.
TEST(Network, PendingEventsCountsFlowTimers) {
  SingleLink net_rig(1e6, from_seconds(0.5));
  Simulator& sim = net_rig.sim;
  Network& net = net_rig.net;
  EXPECT_EQ(sim.pending_events(), 0u);
  const FlowId first = net.start_flow(net_rig.a, net_rig.b, 1'000, 0.0, nullptr);
  const FlowId second = net.start_flow(net_rig.a, net_rig.b, 1'000, 0.0, nullptr);
  EXPECT_EQ(sim.pending_events(), 2u);
  net.check_invariants();
  sim.check_invariants();
  net.cancel_flow(first);
  EXPECT_EQ(sim.pending_events(), 1u);
  net.cancel_flow(second);
  EXPECT_EQ(sim.pending_events(), 0u);
  net.check_invariants();
  sim.check_invariants();
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(sim.executed_events(), 0u);
  EXPECT_EQ(sim.scheduled_events(), 0u);
}

// A simulator takes one timer source, so a second Network on it throws; the
// first one's destructor detaches it, after which a new Network attaches.
TEST(Network, SecondNetworkOnOneSimulatorThrows) {
  Simulator sim;
  {
    Network net(sim);
    EXPECT_THROW(Network second(sim), std::logic_error);
    const SiteId s = net.add_site("s");
    const EndpointId e = net.add_endpoint("e", s);
    net.start_flow(e, e, 10, 0.0, nullptr);
    EXPECT_EQ(sim.pending_events(), 1u);
  }
  EXPECT_EQ(sim.pending_events(), 0u);  // the destroyed network's timers are gone
  EXPECT_FALSE(sim.step());
  Network replacement(sim);
  EXPECT_EQ(sim.pending_events(), 0u);
}

// A flow's latency-phase timer, keyed with the sequence number start_flow
// reserved, fires where an activation event scheduled at that moment would
// have: after same-time events queued before start_flow, before those
// queued after it.
TEST(Network, LatencyTimerKeepsReservationOrder) {
  SingleLink net_rig(1e6, kSecond);
  Simulator& sim = net_rig.sim;
  std::vector<int> order;
  sim.schedule(kSecond, [&] { order.push_back(1); });
  // Zero bytes: the flow completes when its latency-phase timer fires.
  net_rig.net.start_flow(net_rig.a, net_rig.b, 0, 0.0, [&] { order.push_back(2); });
  sim.schedule(kSecond, [&] { order.push_back(3); });
  EXPECT_EQ(sim.pending_events(), 3u);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.executed_events(), 3u);
  EXPECT_EQ(sim.scheduled_events(), 2u);  // the flow timer never entered the queue
}

// run_until stops at its deadline with flow timers still pending, and
// resuming with run() completes the flows in the same order and at the same
// times as one uninterrupted run().
TEST(Network, RunUntilWithFlowTimersResumesLikeOneRun) {
  struct Rig {
    Simulator sim;
    Network net{sim};
    std::vector<std::pair<FlowId, des::SimTime>> done;
    Rig() {
      const SiteId a = net.add_site("a");
      const SiteId b = net.add_site("b");
      net.set_route_symmetric(a, b, {net.add_link("ab", 1e6, 10 * des::kMillisecond)});
      const EndpointId src = net.add_endpoint("src", a);
      const EndpointId dst = net.add_endpoint("dst", b);
      for (std::uint64_t i = 0; i < 8; ++i) {
        const double cap = i % 3 == 0 ? 2e5 : 0.0;
        net.start_flow(src, dst, 100'000 * (i + 1), cap,
                       [this, i] { done.emplace_back(i, sim.now()); });
      }
      sim.schedule(kSecond, [this] { net.cancel_flow(7); });  // the largest, mid-flight
    }
  };
  Rig once;
  once.sim.run();
  ASSERT_EQ(once.done.size(), 7u);

  Rig resumed;
  const des::SimTime deadline = once.done[2].second;  // a completion lands on it
  EXPECT_EQ(resumed.sim.run_until(deadline), deadline);
  EXPECT_EQ(resumed.done.size(), 3u);
  EXPECT_GT(resumed.sim.pending_events(), 0u);
  resumed.sim.check_invariants();
  resumed.sim.run();
  EXPECT_EQ(resumed.done, once.done);
  EXPECT_EQ(resumed.sim.executed_events(), once.sim.executed_events());
  EXPECT_EQ(resumed.sim.pending_events(), 0u);
}

/// Dumbbell: two senders with private access links into one shared trunk.
struct Dumbbell {
  Simulator sim;
  Network net{sim};
  EndpointId src1, src2, dst;
  LinkId access1, access2, trunk;

  Dumbbell(double a1, double a2, double trunk_bw) {
    const SiteId left = net.add_site("L");
    const SiteId right = net.add_site("R");
    access1 = net.add_link("acc1", a1, 0);
    access2 = net.add_link("acc2", a2, 0);
    trunk = net.add_link("trunk", trunk_bw, 0);
    src1 = net.add_endpoint("s1", left);
    src2 = net.add_endpoint("s2", left);
    dst = net.add_endpoint("d", right);
    net.set_access_path(src1, {access1});
    net.set_access_path(src2, {access2});
    net.set_route_symmetric(left, right, {trunk});
  }
};

TEST(Network, WaterFillingAcrossBottlenecks) {
  // src1 is access-limited to 1 MB/s; src2 can then use the trunk residual
  // (3 - 1 = 2 MB/s) instead of the naive equal split.
  Dumbbell topo(1e6, 10e6, 3e6);
  double done1 = -1, done2 = -1;
  topo.net.start_flow(topo.src1, topo.dst, 1'000'000, 0,
                      [&] { done1 = des::to_seconds(topo.sim.now()); });
  topo.net.start_flow(topo.src2, topo.dst, 2'000'000, 0,
                      [&] { done2 = des::to_seconds(topo.sim.now()); });
  topo.sim.run();
  EXPECT_NEAR(done1, 1.0, 1e-5);
  EXPECT_NEAR(done2, 1.0, 1e-5);
}

TEST(Network, TrunkSharedEquallyWhenAccessIsWide) {
  Dumbbell topo(10e6, 10e6, 2e6);
  double done1 = -1, done2 = -1;
  topo.net.start_flow(topo.src1, topo.dst, 1'000'000, 0,
                      [&] { done1 = des::to_seconds(topo.sim.now()); });
  topo.net.start_flow(topo.src2, topo.dst, 1'000'000, 0,
                      [&] { done2 = des::to_seconds(topo.sim.now()); });
  topo.sim.run();
  EXPECT_NEAR(done1, 1.0, 1e-5);
  EXPECT_NEAR(done2, 1.0, 1e-5);
}

TEST(Network, PathComposition) {
  Dumbbell topo(1e6, 1e6, 1e6);
  const auto p = topo.net.path(topo.src1, topo.dst);
  ASSERT_EQ(p.size(), 2u);
  EXPECT_EQ(p[0], topo.access1);
  EXPECT_EQ(p[1], topo.trunk);
}

TEST(Network, PathLatencySumsLinkLatencies) {
  Simulator sim;
  Network net(sim);
  const SiteId sa = net.add_site("A");
  const SiteId sb = net.add_site("B");
  const LinkId l1 = net.add_link("l1", 1e6, from_seconds(0.1));
  const LinkId l2 = net.add_link("l2", 1e6, from_seconds(0.2));
  const EndpointId a = net.add_endpoint("a", sa);
  const EndpointId b = net.add_endpoint("b", sb);
  net.set_access_path(a, {l1});
  net.set_route_symmetric(sa, sb, {l2});
  EXPECT_EQ(net.path_latency(a, b), from_seconds(0.3));
}

TEST(Network, LinkStatsAccumulateBytes) {
  SingleLink topo(1e6);
  topo.net.start_flow(topo.a, topo.b, 500'000, 0, nullptr);
  topo.sim.run();
  EXPECT_NEAR(static_cast<double>(topo.net.link(topo.link).bytes_carried), 500'000, 2.0);
}

class FlowCountSweep : public ::testing::TestWithParam<int> {};

TEST_P(FlowCountSweep, NFlowsEachGetOneNth) {
  const int n = GetParam();
  SingleLink topo(double(n) * 1e6);
  int completed = 0;
  double last = -1;
  for (int i = 0; i < n; ++i) {
    topo.net.start_flow(topo.a, topo.b, 1'000'000, 0, [&] {
      ++completed;
      last = des::to_seconds(topo.sim.now());
    });
  }
  topo.sim.run();
  EXPECT_EQ(completed, n);
  EXPECT_NEAR(last, 1.0, 1e-5);  // all equal shares, all finish together
}

INSTANTIATE_TEST_SUITE_P(Fairness, FlowCountSweep, ::testing::Values(1, 2, 4, 8, 16, 32));

}  // namespace
}  // namespace cloudburst::net
