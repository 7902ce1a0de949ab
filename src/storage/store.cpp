#include "storage/store.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

namespace cloudburst::storage {

namespace {

void require(bool ok, const char* what) {
  if (!ok) throw std::invalid_argument(std::string("Store: fault profile ") + what);
}

bool is_probability(double p) { return std::isfinite(p) && p >= 0.0 && p <= 1.0; }

/// Reject a profile the fault model cannot run: a probability outside
/// [0, 1], a negative hang, an inverted window, or a bandwidth factor that
/// is not a positive number (0 would read as "uncapped", NaN would throw
/// mid-run from the network).
void validate(const FaultProfile& fault) {
  require(is_probability(fault.fail_probability), "fail_probability is not in [0, 1]");
  require(is_probability(fault.hang_probability), "hang_probability is not in [0, 1]");
  require(std::isfinite(fault.hang_seconds) && fault.hang_seconds >= 0.0,
          "hang_seconds is negative or not finite");
  for (const auto& w : fault.throttles) {
    require(is_probability(w.fail_probability),
            "throttle fail_probability is not in [0, 1]");
    require(w.end_seconds >= w.begin_seconds, "throttle window ends before it begins");
    require(std::isfinite(w.bandwidth_factor) && w.bandwidth_factor > 0.0,
            "throttle bandwidth_factor is not a finite number > 0");
  }
}

}  // namespace

Store::Store(StoreId id, des::Simulator& sim, net::Network& net, net::EndpointId ep,
             Params params)
    : id_(id), sim_(sim), net_(net), endpoint_(ep), params_(std::move(params)),
      rng_(Rng::substream(params_.fault.seed, id)) {
  validate(params_.fault);
}

void Store::fetch(net::EndpointId dst, const ChunkInfo& chunk, unsigned streams,
                  FetchCallback on_complete) {
  streams = std::max(1u, std::min(streams, params_.max_streams));
  ++stats_.requests;

  if (offline_) {
    // Blacked-out store: the request still pays the request latency, then
    // fails without moving a byte (and without consuming fault randomness or
    // disturbing a file's sequential position, so the post-recovery state
    // only depends on served requests).
    ++stats_.faults;
    sim_.schedule(params_.request_latency, [cb = std::move(on_complete)] {
      if (cb) cb(FetchResult{false, 0});
    });
    return;
  }

  // Fault model. Draw order is fixed (throttle scan, failure, hang) so runs
  // are reproducible; a disabled profile takes none of these branches and
  // consumes no randomness.
  double bandwidth = params_.per_stream_bandwidth;
  des::SimDuration latency = params_.request_latency;
  bool failed = false;
  std::uint64_t wire_bytes = chunk.bytes;
  if (params_.fault.enabled()) {
    const double now = des::to_seconds(sim_.now());
    double p_fail = params_.fault.fail_probability;
    bool in_window = false;
    for (const auto& w : params_.fault.throttles) {
      if (now >= w.begin_seconds && now < w.end_seconds) {
        in_window = true;
        bandwidth *= w.bandwidth_factor;
        p_fail = std::min(1.0, p_fail + w.fail_probability);
      }
    }
    if (in_window) ++stats_.throttled;
    if (p_fail > 0.0 && rng_.bernoulli(p_fail)) {
      // The GET aborts partway: a deterministic fraction of the chunk still
      // crosses the network before the connection drops.
      failed = true;
      wire_bytes = static_cast<std::uint64_t>(rng_.next_double() *
                                              static_cast<double>(chunk.bytes));
      ++stats_.faults;
    } else if (params_.fault.hang_probability > 0.0 &&
               rng_.bernoulli(params_.fault.hang_probability)) {
      latency = des::from_seconds(params_.fault.hang_seconds);
      ++stats_.hung;
    }
  }
  stats_.bytes_served += wire_bytes;

  // Seek rule: a read that continues the same reader's sequential position
  // in its file (the next chunk index) avoids the seek.
  if (params_.seek_latency > 0) {
    auto& pos = positions_[chunk.file];
    const bool sequential = pos.reader == dst && pos.next_index == chunk.index_in_file;
    pos.reader = dst;
    pos.next_index = chunk.index_in_file + 1;
    if (!sequential) {
      ++stats_.seeks;
      latency += params_.seek_latency;
    }
  }

  // Split the transfer into `streams` range GETs; the completion counter
  // fires the callback when the final range lands. The request is tracked
  // in inflight_ until it settles so set_offline can abort it.
  auto pending = std::make_shared<Pending>();
  pending->req_id = next_req_id_++;
  pending->remaining = streams;
  pending->cb = std::move(on_complete);
  pending->result = FetchResult{!failed, wire_bytes};
  inflight_.emplace(pending->req_id, pending);

  if (wire_bytes == 0) {
    // Instant abort (or empty chunk): still pays the request latency.
    sim_.schedule(latency, [this, pending] {
      if (pending->aborted) return;
      inflight_.erase(pending->req_id);
      if (pending->cb) pending->cb(pending->result);
    });
    return;
  }

  pending->unstarted_bytes = static_cast<double>(wire_bytes);
  const std::uint64_t base = wire_bytes / streams;
  const std::uint64_t extra = wire_bytes % streams;
  for (unsigned s = 0; s < streams; ++s) {
    const std::uint64_t part = base + (s < extra ? 1 : 0);
    sim_.schedule(latency, [this, dst, part, bandwidth, pending] {
      if (pending->aborted) return;
      pending->unstarted_bytes -= static_cast<double>(part);
      const net::FlowId flow =
          net_.start_flow(endpoint_, dst, part, bandwidth, [this, pending] {
            if (--pending->remaining == 0) {
              inflight_.erase(pending->req_id);
              if (pending->cb) pending->cb(pending->result);
            }
          });
      if (pending->flow == net::kInvalidFlow) {
        pending->flow = flow;
      } else {
        pending->more_flows.push_back(flow);
      }
    });
  }
}

void Store::set_offline(bool offline) {
  if (offline_ == offline) return;
  offline_ = offline;
  if (!offline_) return;
  // Abort every in-flight request, in request order: cancel its flows (their
  // completion callbacks never fire), charge only the bytes that actually
  // crossed, and fail the request so the reader's retry path reroutes it.
  auto doomed = std::move(inflight_);
  inflight_.clear();
  for (auto& [req_id, pending] : doomed) {
    pending->aborted = true;
    double unmoved = pending->unstarted_bytes;
    if (pending->flow != net::kInvalidFlow) unmoved += net_.cancel_flow(pending->flow);
    for (net::FlowId f : pending->more_flows) unmoved += net_.cancel_flow(f);
    const auto unmoved_bytes = static_cast<std::uint64_t>(
        std::min(unmoved, static_cast<double>(pending->result.bytes_moved)));
    pending->result.ok = false;
    pending->result.bytes_moved -= unmoved_bytes;
    stats_.bytes_served -= unmoved_bytes;
    ++stats_.faults;
    sim_.schedule(0, [pending] {
      if (pending->cb) pending->cb(pending->result);
    });
  }
}

}  // namespace cloudburst::storage
