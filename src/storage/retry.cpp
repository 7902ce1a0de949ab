#include "storage/retry.hpp"

#include <algorithm>
#include <memory>
#include <utility>

namespace cloudburst::storage {

double RetryPolicy::backoff_before(unsigned attempt, Rng& rng) const {
  double delay = backoff_base_seconds;
  for (unsigned k = 2; k < attempt; ++k) delay *= backoff_multiplier;
  delay = std::min(delay, backoff_max_seconds);
  if (jitter_fraction > 0.0) {
    delay *= rng.uniform(1.0 - jitter_fraction, 1.0 + jitter_fraction);
  }
  return std::max(0.0, delay);
}

namespace {

/// One retrying fetch operation. Requests that complete after their attempt
/// settled (timeout fired, or the other hedge leg won) are ignored for
/// control flow but their bytes are reported via on_wasted — they moved.
struct RetryOp : std::enable_shared_from_this<RetryOp> {
  des::Simulator& sim;
  Store& store;
  net::EndpointId dst;
  ChunkInfo chunk;
  unsigned streams;
  RetryPolicy policy;
  RetryHooks hooks;
  FetchCallback done;
  Rng rng;

  unsigned attempt = 0;
  /// Settlement state of the current attempt; shared with its request
  /// callbacks so a stale attempt's arrivals can tell they are late.
  struct Attempt {
    bool settled = false;
    unsigned outstanding = 0;
    bool hedged = false;
    FetchResult last_failure;
  };
  std::shared_ptr<Attempt> cur;

  RetryOp(des::Simulator& sim_, Store& store_, net::EndpointId dst_,
          const ChunkInfo& chunk_, unsigned streams_, const RetryPolicy& policy_,
          RetryHooks hooks_, FetchCallback done_)
      : sim(sim_), store(store_), dst(dst_), chunk(chunk_), streams(streams_),
        policy(policy_), hooks(std::move(hooks_)), done(std::move(done_)),
        rng(Rng::substream(policy_.seed ^ (static_cast<std::uint64_t>(dst_) << 32),
                           chunk_.id)) {}

  void start_attempt() {
    ++attempt;
    auto st = std::make_shared<Attempt>();
    cur = st;
    issue_request(st, /*is_hedge=*/false);
    auto self = shared_from_this();
    if (policy.hedge_delay_seconds > 0.0) {
      sim.schedule(des::from_seconds(policy.hedge_delay_seconds), [self, st] {
        if (st->settled) return;
        st->hedged = true;
        if (self->hooks.on_hedge) self->hooks.on_hedge(self->attempt);
        self->issue_request(st, /*is_hedge=*/true);
      });
    }
    if (policy.attempt_timeout_seconds > 0.0) {
      sim.schedule(des::from_seconds(policy.attempt_timeout_seconds), [self, st] {
        if (st->settled) return;
        st->settled = true;
        // The in-flight bytes are still moving; they report via on_wasted
        // when (if) they land.
        if (self->hooks.on_fault) {
          self->hooks.on_fault(self->attempt, FetchResult{false, 0});
        }
        self->next_or_give_up(FetchResult{false, 0});
      });
    }
  }

  void issue_request(std::shared_ptr<Attempt> st, bool is_hedge) {
    ++st->outstanding;
    auto self = shared_from_this();
    if (hooks.on_attempt) hooks.on_attempt(attempt);
    store.fetch(dst, chunk, streams, [self, st, is_hedge](const FetchResult& r) {
      --st->outstanding;
      if (st->settled) {
        // Late arrival (timeout fired or the other leg already won): the
        // transfer happened, the copy is unused.
        if (self->hooks.on_wasted && r.bytes_moved > 0) {
          self->hooks.on_wasted(r.bytes_moved);
        }
        return;
      }
      if (r.ok) {
        st->settled = true;
        if (is_hedge && self->hooks.on_hedge_win) {
          self->hooks.on_hedge_win(self->attempt);
        }
        if (self->done) self->done(r);
        return;
      }
      // A failed leg's partial bytes are wasted regardless of what the
      // other leg does.
      if (self->hooks.on_wasted && r.bytes_moved > 0) {
        self->hooks.on_wasted(r.bytes_moved);
      }
      st->last_failure = r;
      if (st->outstanding > 0) return;  // the hedge leg may still deliver
      st->settled = true;
      if (self->hooks.on_fault) self->hooks.on_fault(self->attempt, r);
      self->next_or_give_up(r);
    });
  }

  void next_or_give_up(const FetchResult& failure) {
    if (attempt >= policy.max_attempts) {
      if (done) done(failure);
      return;
    }
    const double delay = policy.backoff_before(attempt + 1, rng);
    if (hooks.on_backoff) hooks.on_backoff(attempt + 1, delay);
    auto self = shared_from_this();
    sim.schedule(des::from_seconds(delay), [self] { self->start_attempt(); });
  }
};

}  // namespace

void fetch_with_retry(des::Simulator& sim, Store& store, net::EndpointId dst,
                      const ChunkInfo& chunk, unsigned streams,
                      const RetryPolicy& policy, RetryHooks hooks, FetchCallback done) {
  if (!policy.engaged()) {
    // Fast path: no extra events, no RNG construction — byte-identical to
    // the unwrapped fetch. The wrapper only reports faults the store injects
    // anyway, so fault-free runs see only on_attempt fire.
    if (hooks.on_attempt) hooks.on_attempt(1);
    store.fetch(dst, chunk, streams,
                [hooks = std::move(hooks), done = std::move(done)](const FetchResult& r) {
                  if (!r.ok) {
                    if (hooks.on_wasted && r.bytes_moved > 0) {
                      hooks.on_wasted(r.bytes_moved);
                    }
                    if (hooks.on_fault) hooks.on_fault(1, r);
                  }
                  if (done) done(r);
                });
    return;
  }
  auto op = std::make_shared<RetryOp>(sim, store, dst, chunk, streams, policy,
                                      std::move(hooks), std::move(done));
  op->start_attempt();
}

}  // namespace cloudburst::storage
