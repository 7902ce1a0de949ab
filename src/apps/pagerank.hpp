// PageRank (evaluation application #3).
//
// One power iteration over the edge stream: each edge (s, d) moves
// rank[s]/outdeg[s] of rank mass to d. Low/medium computation, high I/O,
// and — the property the paper leans on — a *very large* reduction object
// (the full rank-mass vector), which makes the global reduction phase the
// dominant overhead in the hybrid configurations.
//
//  * Generalized Reduction: robj is a VectorSum over all pages; finalize
//    applies the damping update in place.
//  * Map-Reduce: map emits (dst, {mass}) per edge; reduce sums; finalize
//    applies damping (pages receiving no mass are filled in by the driver
//    helper `ranks_from`).
// The generator guarantees out-degree >= 1, so there is no dangling mass.
#pragma once

#include <memory>
#include <vector>

#include "api/combiners.hpp"
#include "api/generalized_reduction.hpp"
#include "api/mapreduce.hpp"
#include "apps/records.hpp"
#include "engine/memory_dataset.hpp"

namespace cloudburst::apps {

class PageRankTask final : public api::GRTask, public api::MRTask {
 public:
  PageRankTask(std::vector<double> ranks, std::vector<std::uint32_t> out_degree,
               double damping = 0.85);

  std::uint32_t pages() const { return static_cast<std::uint32_t>(share_.size()); }
  double damping() const { return damping_; }

  std::string name() const override { return "pagerank"; }
  std::size_t unit_bytes() const override { return sizeof(EdgeRecord); }

  // --- Generalized Reduction ------------------------------------------------
  api::RobjPtr create_robj() const override;
  void process(const std::byte* data, std::size_t unit_count,
               api::ReductionObject& robj) const override;
  bool concurrent_process() const override { return true; }
  void finalize(api::ReductionObject& robj) const override;

  // --- Map-Reduce -------------------------------------------------------------
  void map(const std::byte* data, std::size_t unit_count, api::Emitter& emit) const override;
  void reduce(std::uint64_t key, const std::vector<std::vector<double>>& values,
              api::Emitter& emit) const override;

  /// New rank vector from a finalized GR robj.
  std::vector<double> ranks_from(const api::ReductionObject& robj) const;
  /// New rank vector from (un-finalized mass) MR output pairs; applies the
  /// damping update including pages that received no mass.
  std::vector<double> ranks_from(const std::vector<api::KeyValue>& out) const;

 private:
  /// Rank mass each out-edge of page p carries: ranks[p] / out_degree[p],
  /// divided once here, exactly as a per-edge division would round.
  std::vector<double> share_;
  double damping_;
};

/// Run `iterations` power iterations with the GR engine.
std::vector<double> pagerank_iterate(const engine::MemoryDataset& edges,
                                     std::uint32_t pages, std::size_t iterations,
                                     std::size_t threads, double damping = 0.85);

}  // namespace cloudburst::apps
