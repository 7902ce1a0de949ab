#include "layers.hpp"

#include <algorithm>
#include <vector>

#include "common/rng.hpp"
#include "des/simulator.hpp"
#include "harness.hpp"
#include "net/network.hpp"

namespace perfbench {

double des_ns_per_op(std::size_t depth, std::uint64_t seed) {
  des::Simulator sim;
  Rng rng(seed);
  const auto horizon = static_cast<double>(depth) * 1000.0;
  const auto draw = [&] {
    return sim.now() + 1 + static_cast<des::SimDuration>(rng.next_double() * horizon);
  };
  std::vector<des::EventHandle> handles;
  handles.reserve(depth);
  for (std::size_t i = 0; i < depth; ++i) handles.push_back(sim.schedule_at(draw(), [] {}));

  const std::size_t ops = std::max<std::size_t>(200000, depth * 2);
  const auto start = Clock::now();
  for (std::size_t i = 0; i < ops; ++i) {
    des::EventHandle& slot = handles[i % depth];
    slot.cancel();  // a no-op when the event already fired
    slot = sim.schedule_at(draw(), [] {});
    while (sim.pending_events() <= depth) sim.schedule_at(draw(), [] {});
    sim.step();
  }
  return seconds_since(start) * 1e9 / static_cast<double>(ops);
}

namespace {

/// Keeps `flows` transfers alive on one shared link: each completion starts
/// a replacement until `target` completions have happened.
class Churn {
 public:
  Churn(std::size_t flows, std::uint64_t seed) : net_(sim_), rng_(seed) {
    const net::SiteId a = net_.add_site("a");
    const net::SiteId b = net_.add_site("b");
    const net::LinkId link = net_.add_link("shared", 1e9, 0);
    net_.set_route_symmetric(a, b, {link});
    src_ = net_.add_endpoint("src", a);
    dst_ = net_.add_endpoint("dst", b);
    for (std::size_t i = 0; i < flows; ++i) start();
  }

  /// Run until `target` completions; returns host seconds spent.
  double run(std::uint64_t target) {
    target_ = target;
    const auto begin = Clock::now();
    while (done_ < target_ && sim_.step()) {
    }
    return seconds_since(begin);
  }

 private:
  void start() {
    const auto bytes = static_cast<std::uint64_t>(1e6 * (1.0 + rng_.next_double()));
    net_.start_flow(src_, dst_, bytes, 0.0, [this] {
      ++done_;
      if (done_ < target_) start();
    });
  }

  des::Simulator sim_;
  net::Network net_;
  Rng rng_;
  net::EndpointId src_ = 0;
  net::EndpointId dst_ = 0;
  std::uint64_t done_ = 0;
  std::uint64_t target_ = ~0ull;
};

}  // namespace

double net_us_per_churn(std::size_t flows, std::uint64_t seed) {
  // Roughly constant work per size: churns scale inversely with the
  // component, whose rebalances cost O(flows) each.
  const std::uint64_t churns = std::max<std::uint64_t>(200, 80000 / flows);
  Churn churn(flows, seed);
  return churn.run(churns) * 1e6 / static_cast<double>(churns);
}

}  // namespace perfbench
