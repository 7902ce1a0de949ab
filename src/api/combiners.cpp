#include "api/combiners.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace cloudburst::api {

namespace {

template <typename T>
const T& cast_other(const ReductionObject& other, const char* what) {
  const auto* p = dynamic_cast<const T*>(&other);
  if (!p) throw std::invalid_argument(std::string("merge_from: type mismatch for ") + what);
  return *p;
}

}  // namespace

// --- VectorFoldRobj ---------------------------------------------------------

VectorFoldRobj::VectorFoldRobj(std::size_t size, VectorFold fold)
    : fold_(fold), values_(size, identity()) {}

double VectorFoldRobj::identity() const {
  switch (fold_) {
    case VectorFold::Sum: return 0.0;
    case VectorFold::Min: return std::numeric_limits<double>::infinity();
    case VectorFold::Max: return -std::numeric_limits<double>::infinity();
  }
  return 0.0;
}

double* VectorFoldRobj::sum_slots(std::size_t size) {
  if (fold_ != VectorFold::Sum || values_.size() != size) {
    throw std::out_of_range("VectorFoldRobj: expected a Sum fold of " + std::to_string(size) +
                            " slots");
  }
  return values_.data();
}

RobjPtr VectorFoldRobj::clone_empty() const {
  return std::make_unique<VectorFoldRobj>(values_.size(), fold_);
}

void VectorFoldRobj::merge_from(const ReductionObject& other) {
  const auto& o = cast_other<VectorFoldRobj>(other, "VectorFoldRobj");
  if (o.values_.size() != values_.size() || o.fold_ != fold_) {
    throw std::invalid_argument("VectorFoldRobj: shape mismatch in merge");
  }
  // One loop per fold, same rule and argument order as accumulate().
  double* dst = values_.data();
  const double* src = o.values_.data();
  const std::size_t n = values_.size();
  switch (fold_) {
    case VectorFold::Sum:
      for (std::size_t i = 0; i < n; ++i) dst[i] += src[i];
      break;
    case VectorFold::Min:
      for (std::size_t i = 0; i < n; ++i) dst[i] = std::min(dst[i], src[i]);
      break;
    case VectorFold::Max:
      for (std::size_t i = 0; i < n; ++i) dst[i] = std::max(dst[i], src[i]);
      break;
  }
}

std::uint64_t VectorFoldRobj::byte_size() const {
  // Fold tag, element count, elements: exactly what serialize writes.
  return sizeof(std::uint8_t) + sizeof(std::uint64_t) + values_.size() * sizeof(double);
}

void VectorFoldRobj::serialize(BufferWriter& out) const {
  out.write_u8(static_cast<std::uint8_t>(fold_));
  out.write_pod_vector(values_);
}

void VectorFoldRobj::deserialize(BufferReader& in) {
  fold_ = static_cast<VectorFold>(in.read_u8());
  values_ = in.read_pod_vector<double>();
}

// --- TopKMinRobj -------------------------------------------------------------

TopKMinRobj::TopKMinRobj(std::size_t k) : k_(k) {
  if (k == 0) throw std::invalid_argument("TopKMinRobj: k must be > 0");
  heap_.reserve(k);
}

void TopKMinRobj::insert(const Entry& e) {
  if (heap_.size() < k_) {
    heap_.push_back(e);
    std::push_heap(heap_.begin(), heap_.end());
    return;
  }
  std::pop_heap(heap_.begin(), heap_.end());
  heap_.back() = e;
  std::push_heap(heap_.begin(), heap_.end());
}

std::vector<TopKMinRobj::Entry> TopKMinRobj::sorted_entries() const {
  std::vector<Entry> out = heap_;
  std::sort(out.begin(), out.end());
  return out;
}

RobjPtr TopKMinRobj::clone_empty() const { return std::make_unique<TopKMinRobj>(k_); }

void TopKMinRobj::merge_from(const ReductionObject& other) {
  const auto& o = cast_other<TopKMinRobj>(other, "TopKMinRobj");
  for (const Entry& e : o.heap_) offer(e.score, e.id);
}

std::uint64_t TopKMinRobj::byte_size() const {
  // k, entry count, then each entry's score and id.
  return 2 * sizeof(std::uint64_t) + heap_.size() * (sizeof(double) + sizeof(std::uint64_t));
}

void TopKMinRobj::serialize(BufferWriter& out) const {
  out.write_u64(k_);
  out.write_u64(heap_.size());
  for (const Entry& e : heap_) {
    out.write_f64(e.score);
    out.write_u64(e.id);
  }
}

void TopKMinRobj::deserialize(BufferReader& in) {
  k_ = in.read_u64();
  const std::uint64_t n = in.read_u64();
  heap_.clear();
  heap_.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    const double score = in.read_f64();
    const std::uint64_t id = in.read_u64();
    heap_.push_back(Entry{score, id});
  }
  std::make_heap(heap_.begin(), heap_.end());
}

// --- HashCountRobj -----------------------------------------------------------

double HashCountRobj::get(std::uint64_t key) const {
  const auto it = counts_.find(key);
  return it == counts_.end() ? 0.0 : it->second;
}

RobjPtr HashCountRobj::clone_empty() const { return std::make_unique<HashCountRobj>(); }

void HashCountRobj::merge_from(const ReductionObject& other) {
  const auto& o = cast_other<HashCountRobj>(other, "HashCountRobj");
  for (const auto& [k, v] : o.counts_) counts_[k] += v;
}

std::uint64_t HashCountRobj::byte_size() const {
  return sizeof(std::uint64_t) + counts_.size() * (sizeof(std::uint64_t) + sizeof(double));
}

void HashCountRobj::serialize(BufferWriter& out) const {
  // Sorted order: serialized form is canonical regardless of hash layout.
  std::vector<std::pair<std::uint64_t, double>> items(counts_.begin(), counts_.end());
  std::sort(items.begin(), items.end());
  out.write_u64(items.size());
  for (const auto& [k, v] : items) {
    out.write_u64(k);
    out.write_f64(v);
  }
}

void HashCountRobj::deserialize(BufferReader& in) {
  counts_.clear();
  const std::uint64_t n = in.read_u64();
  counts_.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t k = in.read_u64();
    counts_[k] = in.read_f64();
  }
}

// --- ConcatRobj ---------------------------------------------------------------

void ConcatRobj::append(const double* record) {
  data_.insert(data_.end(), record, record + record_doubles_);
}

std::vector<double> ConcatRobj::sorted_records() const {
  // Sort record-wise (lexicographic) for a canonical view.
  const std::size_t n = records();
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return std::lexicographical_compare(
        data_.begin() + a * record_doubles_, data_.begin() + (a + 1) * record_doubles_,
        data_.begin() + b * record_doubles_, data_.begin() + (b + 1) * record_doubles_);
  });
  std::vector<double> out;
  out.reserve(data_.size());
  for (std::size_t i : order) {
    out.insert(out.end(), data_.begin() + i * record_doubles_,
               data_.begin() + (i + 1) * record_doubles_);
  }
  return out;
}

RobjPtr ConcatRobj::clone_empty() const { return std::make_unique<ConcatRobj>(record_doubles_); }

void ConcatRobj::merge_from(const ReductionObject& other) {
  const auto& o = cast_other<ConcatRobj>(other, "ConcatRobj");
  if (o.record_doubles_ != record_doubles_) {
    throw std::invalid_argument("ConcatRobj: record size mismatch in merge");
  }
  data_.insert(data_.end(), o.data_.begin(), o.data_.end());
}

std::uint64_t ConcatRobj::byte_size() const {
  return 2 * sizeof(std::uint64_t) + data_.size() * sizeof(double);
}

void ConcatRobj::serialize(BufferWriter& out) const {
  out.write_u64(record_doubles_);
  out.write_pod_vector(data_);
}

void ConcatRobj::deserialize(BufferReader& in) {
  record_doubles_ = in.read_u64();
  data_ = in.read_pod_vector<double>();
}

}  // namespace cloudburst::api
