#include "apps/kmeans.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "engine/gr_engine.hpp"

namespace cloudburst::apps {

KmeansTask::KmeansTask(std::vector<std::vector<float>> centroids)
    : centroids_(std::move(centroids)) {
  if (centroids_.empty() || centroids_.front().empty()) {
    throw std::invalid_argument("KmeansTask: need at least one centroid with dim > 0");
  }
  for (const auto& c : centroids_) {
    if (c.size() != centroids_.front().size()) {
      throw std::invalid_argument("KmeansTask: inconsistent centroid dimensions");
    }
  }
  // Zero padding centroids round k up to whole blocks; their distances are
  // computed and never read.
  padded_k_ = (k() + kBlock - 1) / kBlock * kBlock;
  by_dim_.assign(padded_k_ * dim(), 0.0);
  for (std::size_t c = 0; c < k(); ++c) {
    for (std::size_t d = 0; d < dim(); ++d) by_dim_[d * padded_k_ + c] = centroids_[c][d];
  }
}

std::size_t KmeansTask::nearest_centroid(const float* coords, double* dist) const {
  // Each centroid's distance still sums its d terms in order 0..dim-1 from
  // 0.0, so it is bit-identical to a per-centroid loop; only the loops are
  // swapped. A block's kBlock sums stay in registers across d.
  for (std::size_t first = 0; first < padded_k_; first += kBlock) {
    double acc[kBlock] = {};
    const double* column = by_dim_.data() + first;
    for (std::size_t d = 0; d < dim(); ++d, column += padded_k_) {
      const double x = coords[d];
      for (std::size_t j = 0; j < kBlock; ++j) {
        const double diff = x - column[j];
        acc[j] += diff * diff;
      }
    }
    std::copy(acc, acc + kBlock, dist + first);
  }
  // Strict < keeps the first minimum and never picks a NaN distance.
  std::size_t best = 0;
  double best_dist = std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < k(); ++c) {
    const bool closer = dist[c] < best_dist;
    best = closer ? c : best;
    best_dist = closer ? dist[c] : best_dist;
  }
  return best;
}

api::RobjPtr KmeansTask::create_robj() const {
  // Layout: cluster c occupies slots [c*(dim+1), (c+1)*(dim+1)):
  // dim coordinate sums followed by the point count.
  return api::make_vector_sum(k() * (dim() + 1));
}

void KmeansTask::process(const std::byte* data, std::size_t unit_count,
                         api::ReductionObject& robj) const {
  const std::size_t row = dim() + 1;
  double* sums = dynamic_cast<api::VectorFoldRobj&>(robj).sum_slots(k() * row);
  const std::size_t stride = unit_bytes();
  std::vector<double> dist(padded_k_);
  for (std::size_t i = 0; i < unit_count; ++i) {
    const float* coords = point_coords(data + i * stride);
    double* slot = sums + nearest_centroid(coords, dist.data()) * row;
    for (std::size_t d = 0; d < dim(); ++d) slot[d] += coords[d];
    slot[dim()] += 1.0;
  }
}

void KmeansTask::finalize(api::ReductionObject& robj) const {
  auto& sums = dynamic_cast<api::VectorFoldRobj&>(robj);
  const std::size_t row = dim() + 1;
  for (std::size_t c = 0; c < k(); ++c) {
    const double count = sums.at(c * row + dim());
    if (count > 0.0) {
      for (std::size_t d = 0; d < dim(); ++d) sums.at(c * row + d) /= count;
    } else {
      // Empty cluster: keep the previous centroid.
      for (std::size_t d = 0; d < dim(); ++d) sums.at(c * row + d) = centroids_[c][d];
    }
  }
}

void KmeansTask::map(const std::byte* data, std::size_t unit_count,
                     api::Emitter& emit) const {
  const std::size_t stride = unit_bytes();
  std::vector<double> value(dim() + 1);
  std::vector<double> dist(padded_k_);
  for (std::size_t i = 0; i < unit_count; ++i) {
    const float* coords = point_coords(data + i * stride);
    const std::size_t c = nearest_centroid(coords, dist.data());
    for (std::size_t d = 0; d < dim(); ++d) value[d] = coords[d];
    value[dim()] = 1.0;
    emit.emit(c, value);
  }
}

void KmeansTask::reduce(std::uint64_t key, const std::vector<std::vector<double>>& values,
                        api::Emitter& emit) const {
  std::vector<double> acc(dim() + 1, 0.0);
  for (const auto& v : values) {
    if (v.size() != acc.size()) throw std::invalid_argument("kmeans reduce: malformed value");
    for (std::size_t d = 0; d < acc.size(); ++d) acc[d] += v[d];
  }
  emit.emit(key, std::move(acc));
}

std::vector<api::KeyValue> KmeansTask::finalize(std::vector<api::KeyValue> reduced) const {
  for (auto& kv : reduced) {
    const double count = kv.value.back();
    if (count > 0.0) {
      for (std::size_t d = 0; d + 1 < kv.value.size(); ++d) kv.value[d] /= count;
    }
  }
  return reduced;
}

std::vector<std::vector<double>> KmeansTask::centroids_from(
    const api::ReductionObject& robj) const {
  const auto& sums = dynamic_cast<const api::VectorFoldRobj&>(robj);
  const std::size_t row = dim() + 1;
  std::vector<std::vector<double>> out(k(), std::vector<double>(dim()));
  for (std::size_t c = 0; c < k(); ++c) {
    for (std::size_t d = 0; d < dim(); ++d) out[c][d] = sums.at(c * row + d);
  }
  return out;
}

std::vector<std::vector<double>> KmeansTask::centroids_from(
    const std::vector<api::KeyValue>& out_pairs) const {
  std::vector<std::vector<double>> out(k(), std::vector<double>(dim()));
  // Clusters absent from the MR output were empty: keep the old centroid.
  for (std::size_t c = 0; c < k(); ++c) {
    for (std::size_t d = 0; d < dim(); ++d) out[c][d] = centroids_[c][d];
  }
  for (const auto& kv : out_pairs) {
    if (kv.key >= k()) throw std::out_of_range("kmeans output: cluster out of range");
    for (std::size_t d = 0; d < dim(); ++d) out[kv.key][d] = kv.value[d];
  }
  return out;
}

std::vector<std::vector<float>> kmeans_iterate(const engine::MemoryDataset& points,
                                               std::vector<std::vector<float>> centroids,
                                               std::size_t iterations, std::size_t threads) {
  for (std::size_t it = 0; it < iterations; ++it) {
    KmeansTask task(centroids);
    engine::GrEngineOptions options;
    options.threads = threads;
    const api::RobjPtr robj = engine::gr_run(task, points, options);
    const auto next = task.centroids_from(*robj);
    for (std::size_t c = 0; c < centroids.size(); ++c) {
      for (std::size_t d = 0; d < centroids[c].size(); ++d) {
        centroids[c][d] = static_cast<float>(next[c][d]);
      }
    }
  }
  return centroids;
}

}  // namespace cloudburst::apps
