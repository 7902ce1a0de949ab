// Transient store-fault model.
//
// The paper's slaves stream chunks from real Amazon S3, which throttles
// (503 SlowDown), drops connections, and has heavy-tailed GET latency. A
// FaultProfile attaches those behaviors to a Store of either kind (an
// overloaded or failing disk array degrades the same way):
//  * per-request failure probability — the GET aborts after moving a
//    deterministic fraction of the chunk (the partial transfer still crosses
//    the network and is billed as egress);
//  * timed throttling windows — while the window is open every GET runs at a
//    degraded per-connection bandwidth factor and an extra failure
//    probability applies (a SlowDown storm);
//  * a "hung GET" mode — with hang_probability the request's first-byte
//    latency balloons to hang_seconds (the tail-latency straggler a hedged
//    or timed-out retry rescues).
//
// All draws come from a deterministic Rng substream seeded from
// (seed, store id), so runs are bit-reproducible. A default-constructed
// profile is disabled: the store consumes no random numbers and behaves
// exactly as the fault-free model — paper runs stay byte-identical.
//
// The Store constructor throws std::invalid_argument on a profile it cannot
// run: a probability that is not in [0, 1], a negative or non-finite
// hang_seconds, a window that ends before it begins, or a bandwidth_factor
// that is not a finite number > 0.
#pragma once

#include <cstdint>
#include <vector>

namespace cloudburst::storage {

struct FaultProfile {
  /// Probability that a GET fails after a partial transfer.
  double fail_probability = 0.0;

  /// Probability that a GET hangs: first-byte latency becomes hang_seconds.
  double hang_probability = 0.0;
  double hang_seconds = 0.0;

  /// A degraded-service period (overload, SlowDown storm).
  ///
  /// Window membership is half-open — [begin_seconds, end_seconds): a GET
  /// issued exactly at begin_seconds is throttled, one issued exactly at
  /// end_seconds is not (Store tests `now >= begin && now < end`).
  /// Callers aligning windows to other events rely on this; it is pinned by
  /// ObjectStoreFaults.ThrottleWindowBoundaryIsHalfOpen.
  struct Throttle {
    double begin_seconds = 0.0;
    double end_seconds = 0.0;
    /// Multiplies the per-connection bandwidth cap while the window is open.
    double bandwidth_factor = 1.0;
    /// Extra failure probability while the window is open (adds to
    /// fail_probability, clamped to 1).
    double fail_probability = 0.0;
  };
  std::vector<Throttle> throttles;

  /// Substream seed for this profile's draws (namespaced per store id).
  std::uint64_t seed = 0xfa017;

  bool enabled() const {
    return fail_probability > 0.0 || hang_probability > 0.0 || !throttles.empty();
  }
};

}  // namespace cloudburst::storage
