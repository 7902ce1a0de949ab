// K-Means clustering (evaluation application #2).
//
// One Lloyd iteration over the point stream: assign each point to its
// nearest centroid and accumulate per-cluster coordinate sums and counts.
// Heavy computation (k distance evaluations per point), low/medium I/O,
// small reduction object — the paper's compute-bound workload.
//
//  * Generalized Reduction: robj is a VectorSum of k*(dim+1) slots
//    (per-cluster sums + count); finalize divides sums by counts so the
//    robj holds the new centroids.
//  * Map-Reduce: map emits (cluster, coords ++ [1]) per point; combine and
//    reduce sum elementwise; finalize divides.
#pragma once

#include <vector>

#include "api/combiners.hpp"
#include "api/generalized_reduction.hpp"
#include "api/mapreduce.hpp"
#include "apps/records.hpp"
#include "engine/memory_dataset.hpp"

namespace cloudburst::apps {

class KmeansTask final : public api::GRTask, public api::MRTask {
 public:
  /// `centroids` is k rows of `dim` floats (row-major).
  KmeansTask(std::vector<std::vector<float>> centroids);

  std::size_t k() const { return centroids_.size(); }
  std::size_t dim() const { return centroids_.front().size(); }

  std::string name() const override { return "kmeans"; }
  std::size_t unit_bytes() const override { return point_record_bytes(dim()); }

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
  std::vector<api::KeyValue> finalize(std::vector<api::KeyValue> reduced) const override;

  /// New centroids from a finalized GR robj. Empty clusters keep their old
  /// centroid.
  std::vector<std::vector<double>> centroids_from(const api::ReductionObject& robj) const;
  /// New centroids from finalized MR output.
  std::vector<std::vector<double>> centroids_from(const std::vector<api::KeyValue>& out) const;

 private:
  /// Centroids whose distances one register block accumulates.
  static constexpr std::size_t kBlock = 8;

  /// Index of the centroid nearest `coords`; `dist` is padded_k_ doubles of
  /// scratch, owned by the caller so concurrent process() calls stay safe.
  std::size_t nearest_centroid(const float* coords, double* dist) const;

  std::vector<std::vector<float>> centroids_;
  std::size_t padded_k_ = 0;  ///< k rounded up to a multiple of kBlock
  /// The centroids as doubles, dimension-major: coordinate d of centroid c
  /// at [d * padded_k_ + c], so one pass over d updates a block of distances.
  std::vector<double> by_dim_;
};

/// Run `iterations` full Lloyd iterations with the GR engine; returns final
/// centroids. Convergence utility shared by tests and examples.
std::vector<std::vector<float>> kmeans_iterate(const engine::MemoryDataset& points,
                                               std::vector<std::vector<float>> centroids,
                                               std::size_t iterations, std::size_t threads);

}  // namespace cloudburst::apps
