// Retry policy for store fetches.
//
// Wraps Store::fetch with the client-side resilience loop an S3
// consumer actually runs: bounded attempts, exponential backoff with
// deterministic jitter, a per-attempt timeout that abandons hung GETs, and
// an optional hedged second request that races the primary after a quantile
// delay (the classic tail-latency cure). The wrapper is policy-only — the
// store keeps modeling the faults, the network keeps moving the bytes (an
// abandoned GET's flow keeps occupying its links until it drains).
//
// Determinism: backoff jitter draws from an Rng substream derived from
// (policy.seed, dst, chunk id), independent of event interleaving. A
// disengaged policy (1 attempt, no timeout, no hedge) calls the store
// directly — no extra simulation events, no RNG draws — so default-off runs
// are byte-identical to the unwrapped path.
#pragma once

#include <cstdint>
#include <functional>

#include "common/rng.hpp"
#include "des/simulator.hpp"
#include "storage/store.hpp"

namespace cloudburst::storage {

/// middleware::validate_run rejects a run whose policy has no attempt, a
/// backoff base under 1 ms, a non-positive multiplier, a cap below the base,
/// a jitter fraction outside [0, 1], a negative timeout or hedge delay, or
/// any non-finite value.
struct RetryPolicy {
  /// Total tries per fetch cycle; 1 = no retry.
  unsigned max_attempts = 1;

  /// Backoff before attempt k (k >= 2): base * multiplier^(k-2), capped at
  /// backoff_max_seconds, then jittered by a uniform factor in
  /// [1 - jitter_fraction, 1 + jitter_fraction].
  double backoff_base_seconds = 0.05;
  double backoff_multiplier = 2.0;
  double backoff_max_seconds = 10.0;
  double jitter_fraction = 0.0;

  /// Abandon an attempt after this long (0 = never). The GET's flow keeps
  /// draining in the network; its late arrival is ignored (and billed).
  double attempt_timeout_seconds = 0.0;

  /// Issue a second identical GET this long into an attempt (0 = off). The
  /// first success settles the attempt; the loser's bytes are wasted.
  double hedge_delay_seconds = 0.0;

  /// Substream seed for jitter draws (namespaced per dst/chunk).
  std::uint64_t seed = 0xbac0ff;

  /// Anything beyond a single bare attempt?
  bool engaged() const {
    return max_attempts > 1 || attempt_timeout_seconds > 0.0 ||
           hedge_delay_seconds > 0.0;
  }

  double backoff_before(unsigned attempt, Rng& rng) const;
};

/// Observer hooks for one retrying fetch; every member may be left null.
/// Wire-byte accounting invariant: every request the store completes reports
/// its bytes exactly once — through the final success result, or through
/// on_wasted (failed attempts, hedge losers, post-timeout arrivals).
struct RetryHooks {
  /// A physical store request is about to be issued (first try, retry, or
  /// hedge leg — one call per Store::fetch). Lets a caller keep its
  /// own per-run request count: in a multi-job workload the store's global
  /// stats() aggregate every job, so per-tenant accounting needs this.
  std::function<void(unsigned attempt)> on_attempt;
  /// An attempt settled as a failure (store fault, or timeout with
  /// result.bytes_moved = 0 since the bytes are still in flight).
  std::function<void(unsigned attempt, const FetchResult&)> on_fault;
  /// Backing off before `next_attempt` for `delay_seconds`.
  std::function<void(unsigned next_attempt, double delay_seconds)> on_backoff;
  std::function<void(unsigned attempt)> on_hedge;
  std::function<void(unsigned attempt)> on_hedge_win;
  /// Wire bytes that moved but were not the delivered copy.
  std::function<void(std::uint64_t bytes)> on_wasted;
};

/// Fetch `chunk` from `store` under `policy`. `done` fires exactly once:
/// with the delivering request's success, or with the last failure once
/// attempts are exhausted. With a disengaged policy this forwards straight
/// to store.fetch.
void fetch_with_retry(des::Simulator& sim, Store& store, net::EndpointId dst,
                      const ChunkInfo& chunk, unsigned streams,
                      const RetryPolicy& policy, RetryHooks hooks, FetchCallback done);

}  // namespace cloudburst::storage
