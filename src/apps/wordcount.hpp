// Word count — the canonical Map-Reduce example; used by the quickstart and
// the API-comparison bench as an extra workload beyond the paper's three.
//
//  * Generalized Reduction: HashCountRobj incremented per word.
//  * Map-Reduce: map emits (word_id, {1}); combine/reduce sum.
#pragma once

#include "api/combiners.hpp"
#include "api/generalized_reduction.hpp"
#include "api/mapreduce.hpp"
#include "apps/records.hpp"

namespace cloudburst::apps {

class WordCountTask final : public api::GRTask, public api::MRTask {
 public:
  WordCountTask() = default;

  std::string name() const override { return "wordcount"; }
  std::size_t unit_bytes() const override { return sizeof(WordRecord); }

  // --- Generalized Reduction ------------------------------------------------
  api::RobjPtr create_robj() const override;
  void process(const std::byte* data, std::size_t unit_count,
               api::ReductionObject& robj) const override;
  bool concurrent_process() const override { return true; }

  // --- Map-Reduce -------------------------------------------------------------
  void map(const std::byte* data, std::size_t unit_count, api::Emitter& emit) const override;
  void reduce(std::uint64_t key, const std::vector<std::vector<double>>& values,
              api::Emitter& emit) const override;
};

}  // namespace cloudburst::apps
