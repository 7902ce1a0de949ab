// Tests for the Postman message layer and network conservation properties
// (property-style sweeps over randomized flow workloads).
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "des/simulator.hpp"
#include "net/messaging.hpp"
#include "net/network.hpp"

namespace cloudburst::net {
namespace {

using des::from_seconds;
using des::Simulator;

struct TestMsg {
  int id = 0;
  std::string body;
  std::uint32_t job = 0;
};

struct Rig {
  Simulator sim;
  Network net{sim};
  Postman<TestMsg> postman{net};
  EndpointId a, b, c;

  Rig() {
    const SiteId left = net.add_site("L");
    const SiteId right = net.add_site("R");
    const LinkId trunk = net.add_link("trunk", 1e6, from_seconds(0.01));
    a = net.add_endpoint("a", left);
    b = net.add_endpoint("b", right);
    c = net.add_endpoint("c", right);
    net.set_route_symmetric(left, right, {trunk});
  }
};

TEST(Postman, DeliversToRegisteredMailbox) {
  Rig rig;
  std::vector<int> received;
  EndpointId seen_from = 999;
  rig.postman.register_mailbox(rig.b, 0, [&](EndpointId from, TestMsg msg) {
    received.push_back(msg.id);
    seen_from = from;
  });
  rig.postman.send(rig.a, rig.b, 100, TestMsg{7, "hello"});
  rig.sim.run();
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0], 7);
  EXPECT_EQ(seen_from, rig.a);
}

TEST(Postman, UnregisteredMailboxDropsSilently) {
  Rig rig;
  rig.postman.send(rig.a, rig.c, 100, TestMsg{1, ""});
  rig.sim.run();  // must not crash
  SUCCEED();
}

TEST(Postman, DeliveryRespectsTransferTime) {
  Rig rig;
  double arrival = -1;
  rig.postman.register_mailbox(rig.b, 0, [&](EndpointId, TestMsg) {
    arrival = des::to_seconds(rig.sim.now());
  });
  rig.postman.send(rig.a, rig.b, 500'000, TestMsg{});  // 0.5s at 1 MB/s + 10ms
  rig.sim.run();
  EXPECT_NEAR(arrival, 0.51, 1e-6);
}

TEST(Postman, ManyMessagesAllArriveInOrderPerPath) {
  Rig rig;
  std::vector<int> order;
  rig.postman.register_mailbox(rig.b, 0, [&](EndpointId, TestMsg msg) {
    order.push_back(msg.id);
  });
  for (int i = 0; i < 20; ++i) rig.postman.send(rig.a, rig.b, 1000, TestMsg{i, ""});
  rig.sim.run();
  ASSERT_EQ(order.size(), 20u);
  // Equal-size messages on the same path share bandwidth and finish in
  // submission order (ties broken by event sequence).
  for (int i = 0; i < 20; ++i) EXPECT_EQ(order[i], i);
}

TEST(Postman, RoutesByJobAtASharedEndpoint) {
  // Two jobs' actors share endpoint b; each mailbox sees only its own job's
  // messages, whatever order the jobs registered in.
  Rig rig;
  std::vector<int> job3, job7;
  rig.postman.register_mailbox(rig.b, 7, [&](EndpointId, TestMsg msg) {
    job7.push_back(msg.id);
  });
  rig.postman.register_mailbox(rig.b, 3, [&](EndpointId, TestMsg msg) {
    job3.push_back(msg.id);
  });
  for (int i = 0; i < 6; ++i) {
    rig.postman.send(rig.a, rig.b, 100, TestMsg{i, "", i % 2 == 0 ? 3u : 7u});
  }
  rig.sim.run();
  EXPECT_EQ(job3, (std::vector<int>{0, 2, 4}));
  EXPECT_EQ(job7, (std::vector<int>{1, 3, 5}));
}

TEST(Postman, UnknownJobAtARegisteredEndpointThrows) {
  // A registered endpoint with no mailbox for the message's job is a
  // routing bug, not a drop.
  Rig rig;
  rig.postman.register_mailbox(rig.b, 1, [](EndpointId, TestMsg) {});
  rig.postman.send(rig.a, rig.b, 100, TestMsg{0, "", 2});
  EXPECT_THROW(rig.sim.run(), std::logic_error);
}

TEST(Postman, MovesLargePayloadsWithoutCopy) {
  Rig rig;
  std::string got;
  rig.postman.register_mailbox(rig.b, 0, [&](EndpointId, TestMsg msg) {
    got = std::move(msg.body);
  });
  rig.postman.send(rig.a, rig.b, 10, TestMsg{0, std::string(1000, 'x')});
  rig.sim.run();
  EXPECT_EQ(got.size(), 1000u);
}

// --- conservation properties -----------------------------------------------------

class FlowConservationSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlowConservationSweep, AllBytesArriveExactlyOnce) {
  // Random flows over a dumbbell; every launched byte must be delivered and
  // the shared trunk must carry exactly the total.
  Simulator sim;
  Network net(sim);
  const SiteId left = net.add_site("L");
  const SiteId right = net.add_site("R");
  const LinkId trunk = net.add_link("trunk", 5e6, from_seconds(0.001));
  std::vector<EndpointId> senders, receivers;
  for (int i = 0; i < 4; ++i) {
    std::string sender = "s";
    std::string receiver = "r";
    sender += std::to_string(i);
    receiver += std::to_string(i);
    senders.push_back(net.add_endpoint(sender, left));
    receivers.push_back(net.add_endpoint(receiver, right));
  }
  net.set_route_symmetric(left, right, {trunk});

  Rng rng(GetParam());
  std::uint64_t launched = 0;
  std::uint64_t delivered = 0;
  int completions = 0;
  const int flows = 50;
  for (int f = 0; f < flows; ++f) {
    const std::uint64_t bytes = 1000 + rng.next_below(2'000'000);
    launched += bytes;
    const auto src = senders[rng.next_below(senders.size())];
    const auto dst = receivers[rng.next_below(receivers.size())];
    const double start = rng.uniform(0.0, 2.0);
    sim.schedule(from_seconds(start), [&, src, dst, bytes] {
      net.start_flow(src, dst, bytes, 0.0, [&, bytes] {
        delivered += bytes;
        ++completions;
      });
    });
  }
  sim.run();
  EXPECT_EQ(completions, flows);
  EXPECT_EQ(delivered, launched);
  // Trunk stats settle within rounding of the true volume.
  const double carried = static_cast<double>(net.link(trunk).bytes_carried);
  EXPECT_NEAR(carried, static_cast<double>(launched),
              static_cast<double>(flows) * 4.0);
  EXPECT_EQ(net.active_flows(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowConservationSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

class CapacitySweep : public ::testing::TestWithParam<int> {};

TEST_P(CapacitySweep, AggregateThroughputNeverExceedsBottleneck) {
  // n concurrent equal flows through a 1 MB/s trunk cannot finish faster
  // than the serial optimum.
  const int n = GetParam();
  Simulator sim;
  Network net(sim);
  const SiteId l = net.add_site("L"), r = net.add_site("R");
  const LinkId trunk = net.add_link("t", 1e6, 0);
  const EndpointId a = net.add_endpoint("a", l), b = net.add_endpoint("b", r);
  net.set_route_symmetric(l, r, {trunk});

  const std::uint64_t each = 250'000;
  for (int i = 0; i < n; ++i) net.start_flow(a, b, each, 0.0, nullptr);
  const double finish = des::to_seconds(sim.run());
  const double optimum = static_cast<double>(each) * n / 1e6;
  EXPECT_GE(finish, optimum - 1e-6);
  EXPECT_NEAR(finish, optimum, 1e-3);  // fair sharing wastes nothing
}

INSTANTIATE_TEST_SUITE_P(FlowCounts, CapacitySweep, ::testing::Values(1, 2, 5, 10, 25));

}  // namespace
}  // namespace cloudburst::net
