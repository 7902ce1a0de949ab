#include "apps/pagerank.hpp"

#include <cstring>
#include <stdexcept>

#include "apps/datagen.hpp"
#include "engine/gr_engine.hpp"

namespace cloudburst::apps {

namespace {

std::vector<double> edge_shares(std::vector<double> ranks,
                                const std::vector<std::uint32_t>& out_degree) {
  if (ranks.empty() || ranks.size() != out_degree.size()) {
    throw std::invalid_argument("PageRankTask: ranks and out_degree must match and be nonempty");
  }
  for (std::size_t p = 0; p < ranks.size(); ++p) {
    ranks[p] /= static_cast<double>(out_degree[p]);
  }
  return ranks;
}

}  // namespace

PageRankTask::PageRankTask(std::vector<double> ranks, std::vector<std::uint32_t> out_degree,
                           double damping)
    : share_(edge_shares(std::move(ranks), out_degree)), damping_(damping) {
  if (damping_ <= 0.0 || damping_ >= 1.0) {
    throw std::invalid_argument("PageRankTask: damping must be in (0, 1)");
  }
}

api::RobjPtr PageRankTask::create_robj() const { return api::make_vector_sum(pages()); }

void PageRankTask::process(const std::byte* data, std::size_t unit_count,
                           api::ReductionObject& robj) const {
  const std::uint32_t n = pages();
  double* mass = dynamic_cast<api::VectorFoldRobj&>(robj).sum_slots(n);
  const double* share = share_.data();
  for (std::size_t i = 0; i < unit_count; ++i) {
    EdgeRecord e;
    std::memcpy(&e, data + i * sizeof(EdgeRecord), sizeof e);
    if (e.src >= n || e.dst >= n) {
      throw std::out_of_range("pagerank: edge endpoint out of range");
    }
    mass[e.dst] += share[e.src];
  }
}

void PageRankTask::finalize(api::ReductionObject& robj) const {
  auto& mass = dynamic_cast<api::VectorFoldRobj&>(robj);
  const double base = (1.0 - damping_) / static_cast<double>(pages());
  for (std::size_t p = 0; p < pages(); ++p) {
    mass.at(p) = base + damping_ * mass.at(p);
  }
}

void PageRankTask::map(const std::byte* data, std::size_t unit_count,
                       api::Emitter& emit) const {
  for (std::size_t i = 0; i < unit_count; ++i) {
    EdgeRecord e;
    std::memcpy(&e, data + i * sizeof(EdgeRecord), sizeof e);
    if (e.src >= pages() || e.dst >= pages()) {
      throw std::out_of_range("pagerank: edge endpoint out of range");
    }
    emit.emit(e.dst, {share_[e.src]});
  }
}

void PageRankTask::reduce(std::uint64_t key, const std::vector<std::vector<double>>& values,
                          api::Emitter& emit) const {
  double acc = 0.0;
  for (const auto& v : values) {
    if (v.size() != 1) throw std::invalid_argument("pagerank reduce: malformed value");
    acc += v[0];
  }
  emit.emit(key, {acc});
}

std::vector<double> PageRankTask::ranks_from(const api::ReductionObject& robj) const {
  const auto& mass = dynamic_cast<const api::VectorFoldRobj&>(robj);
  return mass.values();
}

std::vector<double> PageRankTask::ranks_from(const std::vector<api::KeyValue>& out) const {
  const double base = (1.0 - damping_) / static_cast<double>(pages());
  std::vector<double> ranks(pages(), base);  // pages with no in-mass get the base rank
  for (const auto& kv : out) {
    if (kv.key >= pages()) throw std::out_of_range("pagerank output: page out of range");
    ranks[kv.key] = base + damping_ * kv.value.at(0);
  }
  return ranks;
}

std::vector<double> pagerank_iterate(const engine::MemoryDataset& edges,
                                     std::uint32_t pages, std::size_t iterations,
                                     std::size_t threads, double damping) {
  std::vector<double> ranks(pages, 1.0 / static_cast<double>(pages));
  const auto degrees = out_degrees(edges, pages);
  for (std::size_t it = 0; it < iterations; ++it) {
    PageRankTask task(ranks, degrees, damping);
    engine::GrEngineOptions options;
    options.threads = threads;
    const api::RobjPtr robj = engine::gr_run(task, edges, options);
    ranks = task.ranks_from(*robj);
  }
  return ranks;
}

}  // namespace cloudburst::apps
