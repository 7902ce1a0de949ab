// k-Nearest-Neighbors search (evaluation application #1).
//
// The classic database/data-mining formulation the paper uses: stream every
// dataset point, keep the k points closest to a fixed query. Low computation
// per element, medium/high I/O demand, small reduction object.
//
// Both APIs are implemented on the same kernel:
//  * Generalized Reduction: TopKMinRobj updated per element — O(k) memory.
//  * Map-Reduce: map emits one (0, {distance, id}) pair per element; the
//    reducer (and optional combiner) keeps the k smallest. Without the
//    combiner the intermediate state is O(elements) — the overhead the
//    GR API is designed to avoid.
#pragma once

#include <vector>

#include "api/combiners.hpp"
#include "api/generalized_reduction.hpp"
#include "api/mapreduce.hpp"
#include "apps/records.hpp"

namespace cloudburst::apps {

class KnnTask final : public api::GRTask, public api::MRTask {
 public:
  KnnTask(std::size_t k, std::vector<float> query);

  std::size_t k() const { return k_; }
  std::size_t dim() const { return query_.size(); }

  // Shared by both APIs.
  std::string name() const override { return "knn"; }
  std::size_t unit_bytes() const override { return point_record_bytes(query_.size()); }

  // --- Generalized Reduction ------------------------------------------------
  api::RobjPtr create_robj() const override;
  void process(const std::byte* data, std::size_t unit_count,
               api::ReductionObject& robj) const override;
  bool concurrent_process() const override { return true; }

  // --- Map-Reduce -------------------------------------------------------------
  void map(const std::byte* data, std::size_t unit_count, api::Emitter& emit) const override;
  void reduce(std::uint64_t key, const std::vector<std::vector<double>>& values,
              api::Emitter& emit) const override;

  /// Neighbors (ascending distance) from a GR reduction object.
  static std::vector<api::TopKMinRobj::Entry> neighbors(const api::ReductionObject& robj);
  /// Neighbors (ascending distance) from Map-Reduce output pairs.
  static std::vector<api::TopKMinRobj::Entry> neighbors(const std::vector<api::KeyValue>& out);

 private:
  double squared_distance(const std::byte* unit) const;

  std::size_t k_;
  std::vector<float> query_;
};

}  // namespace cloudburst::apps
