// Iterative-application driver.
//
// kmeans and pagerank are iterative: every pass consumes the previous pass's
// reduction object (centroids / rank vector). Distributed, that means the
// head must *broadcast* the updated robj back to every slave before the next
// pass — the mirror image of the global reduction, and for large robjs
// (pagerank) a per-iteration WAN cost that a single-pass analysis never
// shows. This driver runs N passes of run_distributed and charges a binomial
// broadcast (head -> masters -> slave tree) between passes.
//
// With a real task attached, the driver also carries the actual robj between
// iterations: `next_task` receives the finalized robj of pass i and returns
// the task for pass i+1 (e.g. a KmeansTask built from the new centroids).
#pragma once

#include <functional>
#include <vector>

#include "cluster/platform.hpp"
#include "middleware/run_context.hpp"
#include "middleware/run_result.hpp"
#include "middleware/runtime.hpp"
#include "storage/data_layout.hpp"

namespace cloudburst::middleware {

struct IterativeRequest {
  cluster::PlatformSpec platform_spec;
  const storage::DataLayout* layout = nullptr;
  /// Note on site caches: every pass rebuilds the Platform, but a caller-owned
  /// CacheFleet attached via options.cache survives the rebuilds — pass 1+
  /// hits on what pass 0 fetched (the warm-start speedup). Call
  /// fleet.clear() before run_iterative for a cold start.
  RunOptions options;
  std::size_t iterations = 1;

  /// Called after pass `iter` (0-based) with its finalized robj (null in
  /// timing-only runs); returns the GRTask for the next pass. Null keeps
  /// the same task (timing-only sweeps).
  std::function<const api::GRTask*(std::size_t iter, const api::ReductionObject* robj)>
      next_task;
};

struct IterativeResult {
  double total_seconds = 0.0;
  double compute_seconds = 0.0;    ///< sum of per-pass execution times
  double broadcast_seconds = 0.0;  ///< sum of inter-pass robj broadcasts
  std::vector<RunResult> passes;

  /// Finalized robj of the last pass (real runs).
  api::RobjPtr final_robj;

  /// Total node-seconds spent with an outstanding chunk fetch, across every
  /// pass and node — the remote-retrieval time a site cache attacks. With a
  /// warm cache only pass 0 pays the WAN; later passes pay local reads.
  double total_retrieval_seconds() const {
    double total = 0.0;
    for (const auto& pass : passes) {
      for (const auto& node : pass.nodes) total += node.retrieval;
    }
    return total;
  }

  /// Range GETs against object stores, summed over the passes.
  std::uint64_t s3_get_requests() const {
    std::uint64_t total = 0;
    for (const auto& pass : passes) total += pass.s3_get_requests;
    return total;
  }

  /// Hit fraction across every pass's fetches (0 when no cache ran).
  double cache_hit_rate() const {
    SiteCounters sum;
    for (const auto& pass : passes) sum += pass.totals();
    return sum.cache_hit_rate();
  }
};

/// Simulated time of broadcasting `robj_bytes` from the head to every slave
/// (head -> each cluster master across the WAN, then a binomial tree over
/// the cluster's slaves).
double simulate_broadcast(const cluster::PlatformSpec& spec, std::uint64_t robj_bytes);

IterativeResult run_iterative(IterativeRequest request);

}  // namespace cloudburst::middleware
