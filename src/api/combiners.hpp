// Reusable reduction objects ("common combination functions already
// implemented in the generalized reduction system library", paper §III-A).
//
//  * VectorSumRobj / VectorMinRobj / VectorMaxRobj — fixed-length double
//    vectors merged elementwise (kmeans partial sums, pagerank rank mass).
//  * TopKMinRobj — k smallest (score, id) pairs (k-nearest-neighbors).
//  * HashCountRobj — open hash of uint64 -> count (wordcount-style).
//  * ConcatRobj — order-insensitive concatenation of fixed records.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "api/reduction_object.hpp"

namespace cloudburst::api {

/// Elementwise fold of a fixed-length double vector; Op picks the fold.
enum class VectorFold { Sum, Min, Max };

class VectorFoldRobj final : public ReductionObject {
 public:
  VectorFoldRobj(std::size_t size, VectorFold fold);

  double& at(std::size_t i) { return values_.at(i); }
  double at(std::size_t i) const { return values_.at(i); }
  std::size_t size() const { return values_.size(); }
  const std::vector<double>& values() const { return values_; }
  std::vector<double>& values() { return values_; }

  /// Fold a single contribution into slot i (same rule as merge_from).
  void accumulate(std::size_t i, double v) {
    double& slot = values_.at(i);
    switch (fold_) {
      case VectorFold::Sum: slot += v; break;
      case VectorFold::Min: slot = std::min(slot, v); break;
      case VectorFold::Max: slot = std::max(slot, v); break;
    }
  }

  /// The slots of a Sum fold of exactly `size` slots, for kernels that add
  /// into them directly: one shape check per call instead of a bounds check
  /// per element. Throws std::out_of_range on any other shape.
  double* sum_slots(std::size_t size);

  RobjPtr clone_empty() const override;
  void merge_from(const ReductionObject& other) override;
  std::uint64_t byte_size() const override;
  void serialize(BufferWriter& out) const override;
  void deserialize(BufferReader& in) override;

 private:
  double identity() const;
  VectorFold fold_;
  std::vector<double> values_;
};

inline RobjPtr make_vector_sum(std::size_t size) {
  return std::make_unique<VectorFoldRobj>(size, VectorFold::Sum);
}
inline RobjPtr make_vector_min(std::size_t size) {
  return std::make_unique<VectorFoldRobj>(size, VectorFold::Min);
}
inline RobjPtr make_vector_max(std::size_t size) {
  return std::make_unique<VectorFoldRobj>(size, VectorFold::Max);
}

/// Keeps the k smallest (score, id) pairs seen, ties broken by id so the
/// result is independent of processing order.
class TopKMinRobj final : public ReductionObject {
 public:
  struct Entry {
    double score;
    std::uint64_t id;
    bool operator<(const Entry& o) const {
      return score != o.score ? score < o.score : id < o.id;
    }
    bool operator==(const Entry&) const = default;
  };

  explicit TopKMinRobj(std::size_t k);

  void offer(double score, std::uint64_t id) {
    // Full and not strictly better than the current worst: rejected here,
    // without a call, which is the fate of almost every offer.
    if (heap_.size() >= k_ && !(Entry{score, id} < heap_.front())) return;
    insert(Entry{score, id});
  }
  /// Entries in ascending score order.
  std::vector<Entry> sorted_entries() const;
  std::size_t k() const { return k_; }
  std::size_t count() const { return heap_.size(); }

  RobjPtr clone_empty() const override;
  void merge_from(const ReductionObject& other) override;
  std::uint64_t byte_size() const override;
  void serialize(BufferWriter& out) const override;
  void deserialize(BufferReader& in) override;

 private:
  /// Add `e`, evicting the current worst when full; `e` beats it if full.
  void insert(const Entry& e);

  std::size_t k_;
  std::vector<Entry> heap_;  ///< max-heap on Entry ordering (worst at front)
};

/// uint64 key -> double count/sum accumulator with additive merge.
class HashCountRobj final : public ReductionObject {
 public:
  HashCountRobj() = default;

  void add(std::uint64_t key, double amount) { counts_[key] += amount; }
  double get(std::uint64_t key) const;
  std::size_t distinct_keys() const { return counts_.size(); }
  const std::unordered_map<std::uint64_t, double>& counts() const { return counts_; }

  RobjPtr clone_empty() const override;
  void merge_from(const ReductionObject& other) override;
  std::uint64_t byte_size() const override;
  void serialize(BufferWriter& out) const override;
  void deserialize(BufferReader& in) override;

 private:
  std::unordered_map<std::uint64_t, double> counts_;
};

/// Order-insensitive concatenation of fixed-size records; the merge sorts so
/// results do not depend on merge order.
class ConcatRobj final : public ReductionObject {
 public:
  explicit ConcatRobj(std::size_t record_doubles) : record_doubles_(record_doubles) {}

  void append(const double* record);
  std::size_t records() const { return data_.size() / record_doubles_; }
  const std::vector<double>& data() const { return data_; }
  /// Canonical (sorted) view; call after all merges.
  std::vector<double> sorted_records() const;

  RobjPtr clone_empty() const override;
  void merge_from(const ReductionObject& other) override;
  std::uint64_t byte_size() const override;
  void serialize(BufferWriter& out) const override;
  void deserialize(BufferReader& in) override;

 private:
  std::size_t record_doubles_;
  std::vector<double> data_;
};

}  // namespace cloudburst::api
