// Typed message passing on top of the flow model.
//
// Middleware actors (head/master/slave) exchange small control messages and
// large reduction-object payloads. A mailbox binds an (endpoint, job) pair
// to a handler, so several jobs' actors can share an endpoint. Postman
// serializes nothing — payloads are moved through the callback — but
// charges the declared byte size to the network, so control traffic and robj
// exchanges contend with data retrieval exactly as in the paper's system.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "net/network.hpp"

namespace cloudburst::net {

/// `Message` must carry a `std::uint32_t job` member naming its job.
template <typename Message>
class Postman {
 public:
  explicit Postman(Network& network) : network_(network) {}

  using Handler = std::function<void(EndpointId from, Message msg)>;

  /// Bind `handler` to receive job `job`'s messages addressed to `ep`.
  void register_mailbox(EndpointId ep, std::uint32_t job, Handler handler) {
    if (mailboxes_.size() <= ep) mailboxes_.resize(ep + 1);
    auto& boxes = mailboxes_[ep];
    boxes.insert(find(boxes, job), Mailbox{job, std::move(handler)});
  }

  /// Send `msg` from src to dst, charging `bytes` on the network path.
  /// Delivery happens when the simulated transfer completes. The payload is
  /// moved into the flow's completion callback (EventFn is move-only), so a
  /// send costs no allocation beyond the flow itself for small messages.
  void send(EndpointId src, EndpointId dst, std::uint64_t bytes, Message msg) {
    network_.start_flow(src, dst, bytes, /*rate_cap=*/0.0,
                        [this, src, dst, msg = std::move(msg)]() mutable {
                          deliver(src, dst, std::move(msg));
                        });
  }

  Network& network() { return network_; }

 private:
  struct Mailbox {
    std::uint32_t job = 0;
    Handler handler;
  };
  /// One endpoint's mailboxes, sorted by job.
  using Mailboxes = std::vector<Mailbox>;

  static typename Mailboxes::iterator find(Mailboxes& boxes, std::uint32_t job) {
    return std::lower_bound(boxes.begin(), boxes.end(), job,
                            [](const Mailbox& box, std::uint32_t j) { return box.job < j; });
  }

  /// A message to an endpoint nobody registered is dropped; one for a job
  /// the endpoint has no mailbox for is a routing bug.
  void deliver(EndpointId from, EndpointId to, Message msg) {
    if (to >= mailboxes_.size() || mailboxes_[to].empty()) return;
    auto& boxes = mailboxes_[to];
    const auto it = find(boxes, msg.job);
    if (it == boxes.end() || it->job != msg.job) {
      throw std::logic_error("Postman: message for an unknown job at a registered endpoint");
    }
    it->handler(from, std::move(msg));
  }

  Network& network_;
  std::vector<Mailboxes> mailboxes_;  ///< by endpoint
};

}  // namespace cloudburst::net
